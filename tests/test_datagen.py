"""Synthetic scene generator and the on-disk dataset format."""

import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from mcde.color import to_spherical
from mcde.datagen import (
    MAX_PIXELS,
    MAX_SIDE,
    POOLS,
    REFLECTANCE_HIGH,
    REFLECTANCE_LOW,
    Dataset,
    DatasetFormatError,
    DatasetReader,
    GenConfig,
    folds,
    gen_dataset,
    gen_scene,
    load,
    sample_illuminant,
    save,
)
from mcde.seeding import derive_seed


def write_labels(root, lines):
    """Replace labels.csv and record its checksum in the manifest, so
    that ``load`` gets past the checksum to the rows."""
    data = ("\n".join(lines) + "\n").encode("utf-8")
    (root / "labels.csv").write_bytes(data)
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["checksums"]["labels.csv"] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def edit_manifest(root, **fields):
    """Overwrite manifest fields; checksums are left as they are."""
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(fields)
    manifest_path.write_text(json.dumps(manifest))


class TestGenScene:
    def test_reproducible_per_index(self):
        config = GenConfig(n_scenes=3, base_seed=42)
        a = gen_scene(config, 1)
        b = gen_scene(config, 1)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        np.testing.assert_array_equal(a.label, b.label)
        c = gen_scene(config, 2)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_labels_are_unit_positive_and_inside_pool(self):
        for pool, spec in POOLS.items():
            config = GenConfig(n_scenes=20, pool=pool, base_seed=7)
            for scene in gen_dataset(config).scenes:
                assert np.all(scene.label > 0.0)
                assert np.linalg.norm(scene.label) == pytest.approx(1.0, abs=1e-12)
                phi, varphi = to_spherical(scene.label)
                assert spec.phi_deg[0] <= math.degrees(phi) <= spec.phi_deg[1]
                assert spec.varphi_deg[0] <= math.degrees(varphi) <= spec.varphi_deg[1]

    def test_pixel_array_properties(self):
        scene = gen_scene(GenConfig(n_scenes=1, width=10, height=12, base_seed=3), 0)
        assert scene.pixels.shape == (12, 10, 3)
        assert scene.pixels.dtype == np.float32
        assert np.all(scene.pixels >= 0.0)

    def test_noiseless_scene_has_at_most_n_patches_colors(self):
        scene = gen_scene(
            GenConfig(n_scenes=1, n_patches=4, noise_std=0.0, base_seed=5), 0
        )
        distinct = np.unique(scene.pixels.reshape(-1, 3), axis=0)
        assert distinct.shape[0] <= 4

    @pytest.mark.parametrize(
        "height,width,n_patches",
        [(16, 16, 25), (16, 16, 1), (13, 9, 7), (8, 31, 10), (39, 64, 2), (8, 8, 64),
         (17, 13, 13 * 13), (9, 8, 8 * 8)],
    )
    def test_paints_the_cells_of_a_per_cell_loop(self, height, width, n_patches):
        """Bit for bit the scene a loop over the grid's cells paints,
        with sizes the grid does not divide and n_patches = min(width, height)**2."""
        config = GenConfig(
            n_scenes=1, width=width, height=height, n_patches=n_patches, base_seed=height
        )
        rng = np.random.default_rng(derive_seed("scene", config.base_seed, 0))
        colors = rng.uniform(REFLECTANCE_LOW, REFLECTANCE_HIGH, (n_patches, 3))
        label = sample_illuminant(config.pool, rng)
        grid = math.isqrt(n_patches - 1) + 1
        reflectance = np.empty((height, width, 3))
        for row in range(grid):
            r0, r1 = row * height // grid, (row + 1) * height // grid
            for col in range(grid):
                c0, c1 = col * width // grid, (col + 1) * width // grid
                reflectance[r0:r1, c0:c1] = colors[(row * grid + col) % n_patches]
        pixels = reflectance * label + rng.normal(0.0, config.noise_std, (height, width, 3))
        want = np.maximum(pixels, 0.0).astype(np.float32)
        scene = gen_scene(config, 0)
        assert scene.label.tobytes() == label.tobytes()
        assert scene.pixels.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "height,width,n_patches",
        [(39, 8, 64), (8, 39, 64), (13, 9, 81), (16, 16, 256), (64, 8, 50), (9, 17, 7)],
    )
    def test_noiseless_scene_shows_every_patch(self, height, width, n_patches):
        """Each of the n_patches colors covers at least one pixel."""
        config = GenConfig(
            n_scenes=1, width=width, height=height, n_patches=n_patches, noise_std=0.0
        )
        distinct = np.unique(gen_scene(config, 0).pixels.reshape(-1, 3), axis=0)
        assert distinct.shape[0] == n_patches

    def test_noise_perturbs_pixels(self):
        base = GenConfig(n_scenes=1, noise_std=0.0, base_seed=6)
        noisy = GenConfig(n_scenes=1, noise_std=0.05, base_seed=6)
        a = gen_scene(base, 0)
        b = gen_scene(noisy, 0)
        np.testing.assert_array_equal(a.label, b.label)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(n_scenes=1, width=4)
        for field in ("width", "height"):
            assert getattr(GenConfig(n_scenes=1, **{field: MAX_SIDE}), field) == MAX_SIDE
            with pytest.raises(
                ValueError, match=rf"^{field} must lie in \[8, {MAX_SIDE}\], got {MAX_SIDE + 1}$"
            ):
                GenConfig(n_scenes=1, **{field: MAX_SIDE + 1})
        with pytest.raises(ValueError):
            GenConfig(n_scenes=1, pool="band-z")
        for noise_std, error, match in (
            (-0.1, ValueError, r"must lie in \[0\.0, 1\.0\), got -0\.1$"),
            (float("nan"), ValueError, r"must lie in \[0\.0, 1\.0\), got nan$"),
            (float("inf"), ValueError, r"must lie in \[0\.0, 1\.0\), got inf$"),
            (1.0, ValueError, r"must lie in \[0\.0, 1\.0\), got 1\.0$"),
            (1e39, ValueError, r"must lie in \[0\.0, 1\.0\), got 1e\+39$"),
            (None, TypeError, "must be a real number, got None$"),
            (True, TypeError, "must be a real number, got True$"),
        ):
            with pytest.raises(error, match=f"^noise_std {match}"):
                GenConfig(n_scenes=1, noise_std=noise_std)
        with pytest.raises(ValueError):
            GenConfig(n_scenes=-1)
        # Every patch shows: 8 x 9 takes at most 8 * 8.
        assert GenConfig(n_scenes=1, width=8, height=9, n_patches=64).n_patches == 64
        with pytest.raises(ValueError, match=r"^n_patches must lie in \[1, 64\], got 65$"):
            GenConfig(n_scenes=1, width=8, height=9, n_patches=65)
        for base_seed, error in (
            (2.5, TypeError), (-3, ValueError), (2**64, ValueError), ("x", TypeError),
            ("7", TypeError), (True, TypeError),
        ):
            with pytest.raises(error, match="^base_seed must"):
                GenConfig(n_scenes=1, base_seed=base_seed)
        for field in ("n_scenes", "width", "height", "n_patches"):
            for value in (8.0, True, "8"):
                with pytest.raises(TypeError, match=f"^{field} must be an integer"):
                    GenConfig(**{"n_scenes": 1, field: value})

    @pytest.mark.parametrize("side", [8, 16, 64, MAX_SIDE])
    def test_dataset_pixels_are_bounded(self, side):
        """gen_dataset holds every scene before save writes any, so a
        dataset holds at most MAX_PIXELS pixels."""
        most = MAX_PIXELS // (side * side)
        assert GenConfig(n_scenes=most, width=side, height=side).n_scenes == most
        with pytest.raises(
            ValueError, match=rf"^n_scenes must lie in \[0, {most}\], got {most + 1}$"
        ):
            GenConfig(n_scenes=most + 1, width=side, height=side)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        dataset = gen_dataset(GenConfig(n_scenes=5, base_seed=9, pool="band-a"))
        save(dataset, tmp_path / "ds")
        loaded = load(tmp_path / "ds")
        assert loaded.config == dataset.config
        assert len(loaded.scenes) == 5
        for a, b in zip(dataset.scenes, loaded.scenes):
            np.testing.assert_array_equal(a.pixels, b.pixels)
            np.testing.assert_array_equal(a.label, b.label)

    def test_save_is_byte_deterministic(self, tmp_path):
        dataset = gen_dataset(GenConfig(n_scenes=3, base_seed=10))
        save(dataset, tmp_path / "a")
        save(dataset, tmp_path / "b")
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_one_pass_over_the_scenes_writes_the_lists_bytes(self, tmp_path):
        """``save`` reads ``dataset.scenes`` once, in order, so a one-pass
        iterator of the scenes writes the list's directory, byte for byte."""
        dataset = gen_dataset(GenConfig(n_scenes=4, base_seed=11))
        save(dataset, tmp_path / "list")
        save(Dataset(iter(dataset.scenes), dataset.config), tmp_path / "iter")
        names = sorted(p.name for p in (tmp_path / "list").iterdir())
        assert sorted(p.name for p in (tmp_path / "iter").iterdir()) == names
        for name in names:
            assert (tmp_path / "iter" / name).read_bytes() == (
                tmp_path / "list" / name
            ).read_bytes()

    def test_reader_reads_only_its_span(self, tmp_path):
        """``DatasetReader.scenes(1, 3)`` gives ``load``'s scenes 1 and 2,
        byte for byte, with every other scene file deleted."""
        save(gen_dataset(GenConfig(n_scenes=5, base_seed=17)), tmp_path / "ds")
        whole = load(tmp_path / "ds")
        for i in (0, 3, 4):
            (tmp_path / "ds" / f"scene_{i:05d}.f32").unlink()
        reader = DatasetReader(tmp_path / "ds")
        assert reader.config == whole.config
        got = reader.scenes(1, 3)
        assert len(got) == 2
        for a, b in zip(got, whole.scenes[1:3]):
            assert a.pixels.tobytes() == b.pixels.tobytes()
            assert a.label.tobytes() == b.label.tobytes()
        with pytest.raises(DatasetFormatError, match="^missing scene file scene_00003.f32$"):
            reader.scenes(2, 4)

    def test_reader_checks_every_label_when_opened(self, tmp_path):
        """A bad label outside the span is still refused, before any scene
        file is read."""
        save(gen_dataset(GenConfig(n_scenes=4, base_seed=18)), tmp_path / "ds")
        lines = (tmp_path / "ds" / "labels.csv").read_text().splitlines()
        lines[4] = "3,0.5,0.5,0.5"
        write_labels(tmp_path / "ds", lines)
        (tmp_path / "ds" / "scene_00000.f32").unlink()
        with pytest.raises(DatasetFormatError, match="^bad labels.csv row 3: label must have"):
            DatasetReader(tmp_path / "ds")

    def test_empty_dataset_round_trips(self, tmp_path):
        config = GenConfig(n_scenes=0)
        save(Dataset([], config), tmp_path / "ds")
        assert load(tmp_path / "ds") == Dataset([], config)

    def test_corrupted_blob_is_rejected(self, tmp_path):
        dataset = gen_dataset(GenConfig(n_scenes=2, base_seed=11))
        save(dataset, tmp_path / "ds")
        blob = tmp_path / "ds" / "scene_00001.f32"
        data = bytearray(blob.read_bytes())
        data[0] ^= 0xFF
        blob.write_bytes(bytes(data))
        with pytest.raises(DatasetFormatError, match="checksum"):
            load(tmp_path / "ds")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -5.0], ids=["nan", "inf", "negative"])
    def test_hostile_pixel_is_rejected(self, tmp_path, value):
        """A pixel no generator writes, under a matching checksum, names
        its scene file."""
        dataset = gen_dataset(GenConfig(n_scenes=3, base_seed=11))
        dataset.scenes[1].pixels[2, 3, 1] = value
        save(dataset, tmp_path / "ds")
        message = "^scene file scene_00001.f32 holds a pixel that is negative, infinite or NaN$"
        with pytest.raises(DatasetFormatError, match=message):
            load(tmp_path / "ds")

    def test_missing_scene_file(self, tmp_path):
        dataset = gen_dataset(GenConfig(n_scenes=2, base_seed=12))
        save(dataset, tmp_path / "ds")
        (tmp_path / "ds" / "scene_00000.f32").unlink()
        with pytest.raises(DatasetFormatError):
            load(tmp_path / "ds")

    def test_truncated_blob(self, tmp_path):
        dataset = gen_dataset(GenConfig(n_scenes=2, base_seed=13))
        save(dataset, tmp_path / "ds")
        blob = tmp_path / "ds" / "scene_00000.f32"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(DatasetFormatError):
            load(tmp_path / "ds")

    def test_version_mismatch(self, tmp_path):
        dataset = gen_dataset(GenConfig(n_scenes=1, base_seed=14))
        save(dataset, tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.json"
        manifest.write_text(
            manifest.read_text().replace('"format_version": 1', '"format_version": 9')
        )
        with pytest.raises(DatasetFormatError, match="version"):
            load(tmp_path / "ds")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load(tmp_path / "nowhere")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("checksums", ["x"], "checksums must be an object of strings"),
            ("scene_files", 5, "scene_files must be a list of strings"),
            ("scene_files", [5, 6], "scene_files must be a list of strings"),
            ("n_scenes", True, "n_scenes must be an integer"),
        ],
        ids=["checksums-list", "scene_files-int", "scene_files-ints", "n_scenes-bool"],
    )
    def test_mistyped_manifest_field_is_named(self, tmp_path, field, value, message):
        save(gen_dataset(GenConfig(n_scenes=2, base_seed=17)), tmp_path / "ds")
        edit_manifest(tmp_path / "ds", **{field: value})
        with pytest.raises(DatasetFormatError, match=f"^invalid manifest contents: {message}$"):
            load(tmp_path / "ds")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda manifest: {"config": {**manifest["config"], "n_scenes": 128}},
             "n_scenes is 2, but the config implies 128"),
            (lambda manifest: {"pixel_shape": [8, 8, 3]},
             r"pixel_shape is \[8, 8, 3\], but the config implies \[16, 16, 3\]"),
            (lambda manifest: {"pixel_dtype": "<f8"},
             "pixel_dtype is '<f8', but the config implies '<f4'"),
        ],
        ids=["n_scenes", "pixel_shape", "pixel_dtype"],
    )
    def test_manifest_field_that_disagrees_with_its_config_is_named(
        self, tmp_path, edit, message
    ):
        """Not loaded with a config that misstates the data, which
        ``crossval`` would echo, nor with a shape other readers trust."""
        save(gen_dataset(GenConfig(n_scenes=2, base_seed=17)), tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        edit_manifest(tmp_path / "ds", **edit(manifest))
        with pytest.raises(DatasetFormatError, match=f"^invalid manifest contents: {message}$"):
            load(tmp_path / "ds")

    @pytest.mark.parametrize(
        "field, value",
        [("n_scenes", 2.0), ("width", 8.0), ("height", "8"), ("n_patches", True)],
    )
    def test_mistyped_config_field_is_named(self, tmp_path, field, value):
        """A non-integer size in the manifest's config fails the load,
        before it reaches the pixel reshape."""
        save(gen_dataset(GenConfig(n_scenes=2, width=8, height=8, base_seed=22)), tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        edit_manifest(tmp_path / "ds", config={**manifest["config"], field: value})
        with pytest.raises(
            DatasetFormatError,
            match=f"^invalid manifest contents: config: {field} must be an integer, got ",
        ):
            load(tmp_path / "ds")

    def test_manifest_that_is_not_an_object_is_rejected(self, tmp_path):
        save(gen_dataset(GenConfig(n_scenes=1, base_seed=21)), tmp_path / "ds")
        (tmp_path / "ds" / "manifest.json").write_text("[1, 2]")
        with pytest.raises(DatasetFormatError, match="not a JSON object"):
            load(tmp_path / "ds")

    def test_scene_file_outside_the_dataset_is_rejected(self, tmp_path):
        save(gen_dataset(GenConfig(n_scenes=2, base_seed=18)), tmp_path / "ds")
        save(gen_dataset(GenConfig(n_scenes=2, base_seed=19)), tmp_path / "other")
        edit_manifest(tmp_path / "ds", scene_files=["scene_00000.f32", "../other/scene_00001.f32"])
        with pytest.raises(
            DatasetFormatError,
            match=r"scene_files\[1\] is '\.\./other/scene_00001\.f32', expected 'scene_00001\.f32'$",
        ):
            load(tmp_path / "ds")

    @pytest.mark.parametrize(
        "scene_files,bad",
        [(["scene_00001.f32", "scene_00000.f32", "scene_00002.f32"], 0),
         (["scene_00000.f32", "scene_00000.f32", "scene_00002.f32"], 1),
         (["scene_00000.f32", "scene_00001.f32", "scene_00001.f32"], 2)],
        ids=["swapped", "repeated-first", "repeated-last"],
    )
    def test_reordered_or_repeated_scene_files_are_rejected(self, tmp_path, scene_files, bad):
        """Scene i pairs with row i of labels.csv, so the manifest must
        list scene i's own file at position i."""
        save(gen_dataset(GenConfig(n_scenes=3, base_seed=22)), tmp_path / "ds")
        edit_manifest(tmp_path / "ds", scene_files=scene_files)
        with pytest.raises(
            DatasetFormatError,
            match=rf"^invalid manifest contents: scene_files\[{bad}\] is "
            rf"'{scene_files[bad]}', expected 'scene_0000{bad}\.f32'$",
        ):
            load(tmp_path / "ds")

    def test_config_beyond_the_pixel_budget_is_refused_before_any_scene(self, tmp_path):
        """A manifest whose config holds more than MAX_PIXELS pixels fails
        on its config, before any scene file is looked for."""
        save(gen_dataset(GenConfig(n_scenes=2, width=8, height=8, base_seed=24)), tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        most = MAX_PIXELS // 64
        names = [f"scene_{i:05d}.f32" for i in range(most + 1)]
        edit_manifest(
            tmp_path / "ds",
            config={**manifest["config"], "n_scenes": most + 1},
            n_scenes=most + 1,
            scene_files=names,
        )
        for name in manifest["scene_files"]:
            (tmp_path / "ds" / name).unlink()
        with pytest.raises(
            DatasetFormatError,
            match=rf"^invalid manifest contents: config: n_scenes must lie in \[0, {most}\], "
            rf"got {most + 1}$",
        ):
            load(tmp_path / "ds")

    def test_oversized_scene_file_is_not_read(self, tmp_path):
        """A scene file sparsely extended to 256 MiB is rejected by its
        size, before any of it is read into memory."""
        save(gen_dataset(GenConfig(n_scenes=2, base_seed=20)), tmp_path / "ds")
        os.truncate(tmp_path / "ds" / "scene_00001.f32", 256 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(
                DatasetFormatError, match="scene_00001.f32 has 268435456 bytes, expected 3072"
            ):
                load(tmp_path / "ds")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,abc,0.5,0.5", "row 1: could not convert string to float"),
            ("x,0.5,0.5,0.5", "row 1: invalid literal for int"),
            ("1,nan,0.5,-0.5", "row 1: components must be finite and positive"),
            ("1,inf,0.5,0.5", "row 1: components must be finite and positive"),
            ("1,0.5,0.0,0.5", "row 1: components must be finite and positive"),
            ("1,0.5,0.5", "row 1$"),
            ("2,0.5,0.5,0.5", "row 1$"),
            ("1,0.5,0.5,0.5", "row 1: label must have unit norm, got 0.866"),
        ],
    )
    def test_bad_label_row_is_rejected(self, tmp_path, row, message):
        save(gen_dataset(GenConfig(n_scenes=3, base_seed=15)), tmp_path / "ds")
        lines = (tmp_path / "ds" / "labels.csv").read_text().splitlines()
        lines[2] = row
        write_labels(tmp_path / "ds", lines)
        with pytest.raises(DatasetFormatError, match=f"bad labels.csv {message}"):
            load(tmp_path / "ds")

    def test_edited_label_fails_checksum(self, tmp_path):
        """One digit changed into another still parses as a valid label;
        only the checksum can tell."""
        save(gen_dataset(GenConfig(n_scenes=3, base_seed=16)), tmp_path / "ds")
        labels = tmp_path / "ds" / "labels.csv"
        lines = labels.read_text().splitlines()
        fields = lines[2].split(",")
        digit = fields[1].index(".") + 2
        new_digit = "1" if fields[1][digit] != "1" else "2"
        fields[1] = fields[1][:digit] + new_digit + fields[1][digit + 1 :]
        assert 0.0 < float(fields[1]) < 1.0
        lines[2] = ",".join(fields)
        labels.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="^checksum mismatch for labels.csv$"):
            load(tmp_path / "ds")


class TestFolds:
    def test_sizes_and_coverage(self):
        spans = folds(10, 3)
        assert [len(s) for s in spans] == [4, 3, 3]
        covered = sorted(i for span in spans for i in span)
        assert covered == list(range(10))

    def test_contiguous_and_ordered(self):
        spans = folds(17, 5)
        assert spans[0].start == 0
        for left, right in zip(spans, spans[1:]):
            assert left.stop == right.start
        assert spans[-1].stop == 17

    def test_rejects_bad_fold_counts(self):
        with pytest.raises(ValueError):
            folds(10, 1)
        with pytest.raises(ValueError):
            folds(3, 4)
        for k in (2.5, True):
            with pytest.raises(TypeError, match=f"^k must be an integer, got {k!r}$"):
                folds(6, k)


def loop_folds(n, k):
    """Reference folds, one at a time: the first n % k take n // k + 1
    scenes, the rest n // k."""
    base, extra = divmod(n, k)
    spans = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        spans.append(range(start, start + size))
        start += size
    return spans


def test_folds_are_the_loops_folds():
    for n in range(2, 301):
        for k in range(2, n + 1):
            assert folds(n, k) == loop_folds(n, k), (n, k)
    with pytest.raises(ValueError, match=r"^k must be at least 2, got 1$"):
        folds(10, 1)
    with pytest.raises(ValueError, match=r"^cannot split 3 scenes into 4 folds$"):
        folds(3, 4)
