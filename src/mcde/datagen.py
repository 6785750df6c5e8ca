"""Synthetic scene generation and the on-disk dataset format.

Scenes are reflectance mosaics: a grid of n_patches random positive
colors, multiplied per pixel by one illuminant drawn from a named pool
and perturbed with Gaussian noise (clamped at zero).  Every scene is a
pure function of (base_seed, index).

Illuminant pools are rectangles in (azimuth, inclination) degrees:
"full" covers most of the positive octant, "band-a" is a blue-shifted
cap (small inclination, blue dominant) and "band-b" a red-shifted cap
(large inclination, red leaning azimuth).  The two bands are disjoint
and well separated, which is what the domain-shift benchmark leans on.

Dataset directory layout:

    manifest          JSON: format version, generation config, scene
                      count, file names, SHA-256 checksums of every
                      scene file and of labels.csv
    labels.csv        index,r,g,b with 17-significant-digit decimals; each
                      label is a unit vector, checked on load
    scene_00000.f32   raw little-endian float32 pixel blob, C order,
                      shape (height, width, 3)

save followed by load is the identity, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from mcde._check import check_int, check_real
from mcde.color import Scene, SphericalDir, check_label, check_pixels, from_spherical
from mcde.seeding import MAX_SEED, derive_seed

__all__ = [
    "FORMAT_VERSION",
    "MAX_SIDE",
    "MAX_PIXELS",
    "DatasetFormatError",
    "PoolSpec",
    "POOLS",
    "GenConfig",
    "Dataset",
    "sample_illuminant",
    "gen_scene",
    "gen_dataset",
    "save",
    "load",
    "folds",
]

FORMAT_VERSION = 1

REFLECTANCE_LOW = 0.05
REFLECTANCE_HIGH = 1.0

# Pixels a scene side may span.  ``mcde gen-data`` of one 1024x1024
# scene peaks at 121 MiB of RSS, and of one 2048x2048 scene at 374 MiB;
# an unbounded side asks numpy for arrays of any size.
MAX_SIDE = 1024

# Pixels a dataset may hold, summed over its scenes: ``mcde gen-data``
# holds one scene, but ``gen_dataset`` and ``load`` hold them all.  At
# 2**25, as 8,192 64x64 or 131,072 16x16 scenes, ``gen_dataset`` peaks
# at 613 and 650 MiB of RSS and ``load`` at 423 and 540 MiB; at 2**26
# ``gen_dataset`` peaked at 1,096 and 1,265 MiB.
MAX_PIXELS = 2**25


class DatasetFormatError(Exception):
    """Malformed, truncated, or checksum-failing dataset directory."""


@dataclass(frozen=True)
class PoolSpec:
    """Angular rectangle illuminants are drawn from, in degrees."""

    phi_deg: tuple[float, float]
    varphi_deg: tuple[float, float]


POOLS = {
    "full": PoolSpec(phi_deg=(10.0, 80.0), varphi_deg=(10.0, 80.0)),
    "band-a": PoolSpec(phi_deg=(40.0, 62.0), varphi_deg=(16.0, 30.0)),
    "band-b": PoolSpec(phi_deg=(16.0, 38.0), varphi_deg=(56.0, 72.0)),
}


@dataclass(frozen=True)
class GenConfig:
    n_scenes: int
    width: int = 16
    height: int = 16
    n_patches: int = 25
    pool: str = "full"
    noise_std: float = 0.01
    base_seed: int = 0

    def __post_init__(self) -> None:
        check_int("width", self.width, 8, MAX_SIDE)
        check_int("height", self.height, 8, MAX_SIDE)
        check_int("n_scenes", self.n_scenes, 0, MAX_PIXELS // (self.width * self.height))
        # Every patch shows: the ceil(sqrt(n_patches)) grid fits both sides.
        check_int("n_patches", self.n_patches, 1, min(self.width, self.height) ** 2)
        # A pixel's signal is at most 1.
        check_real("noise_std", self.noise_std, 0.0, 1.0)
        check_int("base_seed", self.base_seed, 0, MAX_SEED)
        if self.pool not in POOLS:
            raise ValueError(f"unknown pool {self.pool!r}; choose from {sorted(POOLS)}")


@dataclass
class Dataset:
    scenes: list[Scene]
    config: GenConfig


def sample_illuminant(pool: str, rng: np.random.Generator) -> np.ndarray:
    """One illuminant, uniform over the pool's angular rectangle."""
    spec = POOLS[pool]
    phi = np.radians(rng.uniform(*spec.phi_deg))
    varphi = np.radians(rng.uniform(*spec.varphi_deg))
    return from_spherical(SphericalDir(phi, varphi))


def gen_scene(config: GenConfig, index: int) -> Scene:
    """Render scene ``index``; a pure function of (base_seed, index).

    Draw order is fixed: patch colors, then the illuminant, then noise.
    """
    check_int("index", index, 0, MAX_SEED)
    rng = np.random.default_rng(derive_seed("scene", config.base_seed, index))
    colors = rng.uniform(REFLECTANCE_LOW, REFLECTANCE_HIGH, (config.n_patches, 3))
    label = sample_illuminant(config.pool, rng)

    # A grid x grid layout, cell (row, col) spanning pixel rows
    # [row * h // grid, (row + 1) * h // grid), and columns alike.
    grid = math.isqrt(config.n_patches - 1) + 1  # ceil(sqrt(n_patches))
    edges = np.arange(grid + 1)
    rows = np.repeat(np.arange(grid), np.diff(edges * config.height // grid))
    cols = np.repeat(np.arange(grid), np.diff(edges * config.width // grid))
    reflectance = colors[(rows[:, None] * grid + cols) % config.n_patches]

    pixels = reflectance * label
    if config.noise_std > 0.0:
        pixels = pixels + rng.normal(0.0, config.noise_std, pixels.shape)
    pixels = np.maximum(pixels, 0.0).astype(np.float32)
    return Scene(pixels=pixels, label=label)


def gen_dataset(config: GenConfig) -> Dataset:
    return Dataset([gen_scene(config, i) for i in range(config.n_scenes)], config)


def _scene_file(i: int) -> str:
    return f"scene_{i:05d}.f32"


def save(dataset: Dataset, path) -> None:
    """Write a dataset directory (manifest, labels.csv, pixel blobs) in one
    pass over ``dataset.scenes``, so an iterator is held a scene at a time."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    names: list[str] = []
    checksums: dict[str, str] = {}
    header = b"index,r,g,b\n"
    labels_sum = hashlib.sha256(header)
    with (root / "labels.csv").open("wb") as labels:
        labels.write(header)
        for i, scene in enumerate(dataset.scenes):
            blob = np.ascontiguousarray(scene.pixels, dtype="<f4").tobytes()
            name = _scene_file(i)
            (root / name).write_bytes(blob)
            names.append(name)
            checksums[name] = hashlib.sha256(blob).hexdigest()
            r, g, b = (format(float(x), ".17g") for x in scene.label)
            line = f"{i},{r},{g},{b}\n".encode("utf-8")
            labels.write(line)
            labels_sum.update(line)
    checksums["labels.csv"] = labels_sum.hexdigest()
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": asdict(dataset.config),
        "n_scenes": len(names),
        "pixel_dtype": "<f4",
        "pixel_shape": [dataset.config.height, dataset.config.width, 3],
        "labels_file": "labels.csv",
        "scene_files": names,
        "checksums": checksums,
    }
    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# Manifest field -> (type check, what the check demands).  JSON object
# keys are always strings, so checksums need only their values checked.
_MANIFEST_FIELDS = {
    "config": (lambda v: isinstance(v, dict), "an object"),
    "n_scenes": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "scene_files": (_is_str_list, "a list of strings"),
    "checksums": (
        lambda v: isinstance(v, dict) and _is_str_list(list(v.values())),
        "an object of strings",
    ),
}


def load(path) -> Dataset:
    """Read a dataset directory back, verifying checksums, sizes, the
    scene count, pixel shape and pixel dtype that its config implies, that
    every label is a positive unit vector, and that every pixel is finite
    and non-negative."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetFormatError(f"no manifest in {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"malformed manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetFormatError("invalid manifest contents: not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported dataset version {manifest.get('format_version')!r}"
        )
    for field, (valid, kind) in _MANIFEST_FIELDS.items():
        if field not in manifest:
            raise DatasetFormatError(f"invalid manifest contents: no {field!r}")
        if not valid(manifest[field]):
            raise DatasetFormatError(f"invalid manifest contents: {field} must be {kind}")
    try:
        config = GenConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"invalid manifest contents: config: {exc}") from exc
    implied = {
        "n_scenes": config.n_scenes,
        "pixel_shape": [config.height, config.width, 3],
        "pixel_dtype": "<f4",
    }
    for field, want in implied.items():
        if manifest.get(field) != want:
            raise DatasetFormatError(
                f"invalid manifest contents: {field} is {manifest.get(field)!r}, "
                f"but the config implies {want!r}"
            )
    n_scenes = manifest["n_scenes"]
    names = manifest["scene_files"]
    checksums = manifest["checksums"]
    if len(names) != n_scenes:
        raise DatasetFormatError("scene file list does not match the scene count")
    for i, name in enumerate(names):  # scene i is the i-th row of labels.csv
        if name != _scene_file(i):
            raise DatasetFormatError(
                f"invalid manifest contents: scene_files[{i}] is {name!r}, "
                f"expected {_scene_file(i)!r}"
            )

    labels_path = root / "labels.csv"
    if not labels_path.is_file():
        raise DatasetFormatError(f"no labels.csv in {root}")
    labels_blob = labels_path.read_bytes()
    if hashlib.sha256(labels_blob).hexdigest() != checksums.get("labels.csv"):
        raise DatasetFormatError("checksum mismatch for labels.csv")
    labels_text = labels_blob.decode("utf-8").splitlines()
    if len(labels_text) != n_scenes + 1 or labels_text[0] != "index,r,g,b":
        raise DatasetFormatError("labels.csv does not match the manifest")
    labels = []
    for row, line in enumerate(labels_text[1:]):
        fields = line.split(",")
        try:
            index = int(fields[0])
            label = np.array([float(v) for v in fields[1:]], dtype=np.float64)
        except ValueError as exc:
            raise DatasetFormatError(f"bad labels.csv row {row}: {exc}") from exc
        if len(fields) != 4 or index != row:
            raise DatasetFormatError(f"bad labels.csv row {row}")
        try:
            check_label(label, f"bad labels.csv row {row}: ")
        except ValueError as exc:
            raise DatasetFormatError(str(exc)) from exc
        labels.append(label)

    expected_len = config.height * config.width * 3 * 4
    scenes = []
    for i, name in enumerate(names):
        blob_path = root / name
        if not blob_path.is_file():
            raise DatasetFormatError(f"missing scene file {name}")
        size = blob_path.stat().st_size
        if size != expected_len:
            raise DatasetFormatError(
                f"scene file {name} has {size} bytes, expected {expected_len}"
            )
        blob = blob_path.read_bytes()
        if hashlib.sha256(blob).hexdigest() != checksums.get(name):
            raise DatasetFormatError(f"checksum mismatch for {name}")
        pixels = (
            np.frombuffer(blob, dtype="<f4")
            .reshape(config.height, config.width, 3)
            .copy()
        )
        try:
            check_pixels(pixels, f"scene file {name} ")
        except ValueError as exc:
            raise DatasetFormatError(str(exc)) from exc
        scenes.append(Scene(pixels=pixels, label=labels[i]))
    return Dataset(scenes, config)


def folds(n: int, k: int) -> list[range]:
    """Contiguous, order-preserving folds of ``n`` scenes: ``np.array_split``'s.

    Sizes differ by at most one; the first ``n % k`` folds take the
    extra scene.
    """
    check_int("k", k, 2)
    if k > n:
        raise ValueError(f"cannot split {n} scenes into {k} folds")
    q, r = divmod(n, k)
    bounds = [i * q + min(i, r) for i in range(k + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]
