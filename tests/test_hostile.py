"""Hostile input at the public entry points, one row per (entry point,
input, exception type, message pattern).

Every row runs with warnings as errors, so a numpy warning, a raw numpy
exception or a silently returned result fails it: a hostile input is
refused up front, with a typed error whose message names the problem.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mcde import color
from mcde.baselines import grey_world, shades_of_grey
from mcde.bench import stats
from mcde.color import NEUTRAL, Scene, apply_von_kries, normalize, to_spherical
from mcde.datagen import DatasetReader, GenConfig, gen_dataset, gen_scene, save
from mcde.fusion import aggregate, mcde
from mcde.mc import mc_estimate, mc_estimates
from mcde.nn import PassSeed, TrainConfig, build, train
from mcde.nn.network import MAX_NU
from mcde.seeding import derive_seed

pytestmark = pytest.mark.filterwarnings("error")

RGB_COMPONENTS = "components must be finite and positive$"
BAD_PIXEL = "holds a pixel that is negative, infinite or NaN$"


def image(bad=None, shape=(8, 8, 3)):
    """A grey image, with one value replaced by ``bad`` if given."""
    pixels = np.full(shape, 0.5, dtype=np.float32)
    if bad is not None:
        pixels.flat[7] = bad
    return pixels


def wide():
    """A grey 64x64 image that allocates one pixel: 21 16x16 scenes, one
    block of g-net's, then this one put the mismatch on a block boundary."""
    return np.broadcast_to(image(shape=(1, 1, 3)), (64, 64, 3))


def net():
    return build("g-net", seed=3, channels=4, dropout_rate=0.3)


def estimate(pixels):
    return mcde([net()], pixels, nu=2)


# The directory of a 6-scene dataset whose scene files are all deleted,
# set up once by ``scene_free_dataset``: a span that the reader read any
# scene file of would fail on the missing file, not on the span.
SCENE_FREE = []


def span(start, stop):
    return DatasetReader(SCENE_FREE[0]).scenes(start, stop)


def fit(pixels):
    net = build("g-net", seed=4, channels=4, dropout_rate=0.3)
    return train(net, [Scene(pixels, NEUTRAL.copy())], TrainConfig(epochs=1))


ROWS = {
    # The strictly positive RGB vector: color._rgb, through its callers.
    "normalize-scalar": (
        lambda: normalize(5.0), ValueError,
        r"^illuminant vectors must have a last axis of 3, got shape \(\)$"),
    "normalize-2-vector": (
        lambda: normalize([1.0, 2.0]), ValueError,
        r"^illuminant vectors must have a last axis of 3, got shape \(2,\)$"),
    "normalize-zero": (lambda: normalize(np.zeros(3)), ValueError, "^illuminant " + RGB_COMPONENTS),
    "normalize-nan": (
        lambda: normalize([1.0, math.nan, 1.0]), ValueError, "^illuminant " + RGB_COMPONENTS),
    "to_spherical-2-vector": (
        lambda: to_spherical([1.0, 2.0]), ValueError,
        r"^illuminant vectors must have a last axis of 3, got shape \(2,\)$"),
    "to_spherical-negative": (
        lambda: to_spherical(-np.ones(3)), ValueError, "^illuminant " + RGB_COMPONENTS),
    "to_spherical-zero": (
        lambda: to_spherical(np.zeros(3)), ValueError, "^illuminant " + RGB_COMPONENTS),
    "to_spherical-nan-row": (
        lambda: to_spherical([[1.0, 1.0, 1.0], [1.0, math.nan, 1.0]]), ValueError,
        "^illuminant " + RGB_COMPONENTS),
    "apply_von_kries-2-vector": (
        lambda: apply_von_kries(image(), [1.0, 2.0]), ValueError,
        r"^estimate vector must have shape \(3,\), got \(2,\)$"),
    "apply_von_kries-stacked": (
        lambda: apply_von_kries(image(), [[1.0, 1.0, 1.0]]), ValueError,
        r"^estimate vector must have shape \(3,\), got \(1, 3\)$"),
    "apply_von_kries-zero-component": (
        lambda: apply_von_kries(image(), [1.0, 0.0, 1.0]), ValueError,
        "^estimate " + RGB_COMPONENTS),
    "apply_von_kries-nan-pixel": (
        lambda: apply_von_kries(image(math.nan), NEUTRAL), ValueError, "^image " + BAD_PIXEL),
    "apply_von_kries-matrix": (
        lambda: apply_von_kries(np.ones((5, 3)), NEUTRAL), ValueError,
        r"^image must have shape \(H, W, 3\) with H, W >= 1, got \(5, 3\)$"),
    "apply_von_kries-negative-pixel": (
        lambda: apply_von_kries(image(-1.0), NEUTRAL), ValueError, "^image " + BAD_PIXEL),
    "check_label-stacked": (
        lambda: color.check_label([[0.6, 0.8, 1e-3]], "scene 7: "), ValueError,
        r"^scene 7: label must have shape \(3,\), got \(1, 3\)$"),
    "check_label-inf": (
        lambda: color.check_label([0.6, 0.8, math.inf], "scene 7: "), ValueError,
        "^scene 7: " + RGB_COMPONENTS),
    "aggregate-nan-mean": (
        lambda: aggregate([[1.0, 1.0, 1.0], [1.0, math.nan, 1.0]], [0.5, 0.5]), ValueError,
        "^illuminant " + RGB_COMPONENTS),
    "aggregate-negative-mean": (
        lambda: aggregate([[-0.1, 0.5, 0.8], [0.3, 0.5, 0.8]], [0.5, 0.5]), ValueError,
        "^illuminant " + RGB_COMPONENTS),
    # The image: color.check_pixels, through its callers.
    "check_pixels-2d": (
        lambda: color.check_pixels(np.ones((5, 3)), "image "), ValueError,
        r"^image must have shape \(H, W, 3\) with H, W >= 1, got \(5, 3\)$"),
    "check_pixels-empty": (
        lambda: color.check_pixels(np.ones((0, 4, 3)), "image "), ValueError,
        r"^image must have shape \(H, W, 3\) with H, W >= 1, got \(0, 4, 3\)$"),
    "mcde-negative-pixel": (lambda: estimate(image(-0.5)), ValueError, "^image " + BAD_PIXEL),
    "mcde-nan-pixel": (lambda: estimate(image(math.nan)), ValueError, "^image " + BAD_PIXEL),
    "mcde-inf-pixel": (lambda: estimate(image(math.inf)), ValueError, "^image " + BAD_PIXEL),
    "mcde-4-channels": (
        lambda: estimate(image(shape=(8, 8, 4))), ValueError,
        r"^image must have shape \(H, W, 3\) with H, W >= 1, got \(8, 8, 4\)$"),
    "mc_estimate-negative-pixel": (
        lambda: mc_estimate(net(), image(-5.0), nu=2), ValueError, "^image " + BAD_PIXEL),
    "mc_estimate-inf-pixel": (
        lambda: mc_estimate(net(), image(math.inf), nu=2), ValueError, "^image " + BAD_PIXEL),
    "mc_estimates-bad-second-scene": (
        lambda: mc_estimates(net(), [image(), image(-5.0)], 2, [1, 2]), ValueError,
        "^scene 1 " + BAD_PIXEL),
    "mc_estimates-scenes-of-two-shapes": (
        lambda: mc_estimates(net(), [image(shape=(16, 16, 3)), image()], 5, [1, 2]), ValueError,
        r"^scenes differ in shape: \(16, 16, 3\) and \(8, 8, 3\) at scene 1$"),
    "scene_passes-larger-scene-after-a-block": (
        lambda: net().scene_passes([image(shape=(16, 16, 3))] * 21 + [wide()], range(22), 2),
        ValueError, r"^scenes differ in shape: \(16, 16, 3\) and \(64, 64, 3\) at scene 21$"),
    "backward-images-of-two-shapes": (
        lambda: net().backward([image(), image(shape=(8, 16, 3))], [NEUTRAL] * 2, PassSeed(0)),
        ValueError, r"^images differ in shape: \(8, 8, 3\) and \(8, 16, 3\) at image 1$"),
    "forward_passes-too-many": (
        lambda: net().forward_passes(image(), PassSeed(0), MAX_NU + 1), ValueError,
        rf"^count must be at most MAX_NU = {MAX_NU}, got {MAX_NU + 1}$"),
    "scene_passes-too-many": (
        lambda: net().scene_passes([image(), image()], [1, 2], MAX_NU + 1), ValueError,
        rf"^count must be at most MAX_NU = {MAX_NU}, got {MAX_NU + 1}$"),
    "train-negative-pixel": (lambda: fit(image(-5.0)), ValueError, "^scene 0 " + BAD_PIXEL),
    "train-nan-pixel": (lambda: fit(image(math.nan)), ValueError, "^scene 0 " + BAD_PIXEL),
    "train-scenes-of-two-shapes": (
        lambda: train(net(), [Scene(image(), NEUTRAL), Scene(image(shape=(4, 8, 3)), NEUTRAL)],
                      TrainConfig(epochs=1)),
        ValueError, r"^scenes differ in shape: \(8, 8, 3\) and \(4, 8, 3\) at scene 1$"),
    "train-4-channels": (
        lambda: fit(image(shape=(8, 8, 4))), ValueError,
        r"^scene 0 must have shape \(H, W, 3\) with H, W >= 1, got \(8, 8, 4\)$"),
    "grey_world-6-channels": (
        lambda: grey_world(image(shape=(4, 4, 6))), ValueError,
        r"^image must have shape \(H, W, 3\) with H, W >= 1, got \(4, 4, 6\)$"),
    "grey_world-matrix": (
        lambda: grey_world(np.ones((5, 3))), ValueError,
        r"^image must have shape \(H, W, 3\) with H, W >= 1, got \(5, 3\)$"),
    "grey_world-nan-pixel": (lambda: grey_world(image(math.nan)), ValueError, "^image " + BAD_PIXEL),
    "shades_of_grey-2-channels": (
        lambda: shades_of_grey(image(shape=(4, 4, 2))), ValueError,
        r"^image must have shape \(H, W, 3\) with H, W >= 1, got \(4, 4, 2\)$"),
    "shades_of_grey-negative-pixel": (
        lambda: shades_of_grey(image(-0.5)), ValueError, "^image " + BAD_PIXEL),
    # Scalars.
    "gen_scene-negative-index": (
        lambda: gen_scene(GenConfig(n_scenes=1), -1), ValueError,
        r"^index must lie in \[0, 18446744073709551615\], got -1$"),
    "gen_scene-huge-index": (
        lambda: gen_scene(GenConfig(n_scenes=1), 2**70), ValueError,
        r"^index must lie in \[0, 18446744073709551615\], got 1180591620717411303424$"),
    "gen_scene-real-index": (
        lambda: gen_scene(GenConfig(n_scenes=1), 1.5), TypeError,
        r"^index must be an integer, got 1\.5$"),
    "derive_seed-no-part": (lambda: derive_seed(), ValueError, "^derive_seed needs at least one part$"),
    "derive_seed-real": (
        lambda: derive_seed(1.5), TypeError, r"^seed part must be an integer, got 1\.5$"),
    "derive_seed-bool": (
        lambda: derive_seed("scene", True), TypeError, "^seed part must be an integer, got True$"),
    "derive_seed-numpy-int": (
        lambda: derive_seed("scene", np.int64(3)), TypeError, "^seed part must be an integer, got "),
    "derive_seed-negative": (
        lambda: derive_seed("scene", -1), ValueError,
        r"^seed part must lie in \[0, 18446744073709551615\], got -1$"),
    "derive_seed-separator": (
        lambda: derive_seed("a\x1fb"), ValueError,
        r"^seed part must not hold the separator '\\x1f', got 'a\\x1fb'$"),
    "DatasetReader-span-past-the-end": (
        lambda: span(2, 9), IndexError, "^scene span 2:9 lies past the dataset's 6 scenes$"),
    "DatasetReader-empty-span": (
        lambda: span(3, 3), ValueError, "^stop must be at least 4, got 3$"),
    "DatasetReader-reversed-span": (
        lambda: span(4, 2), ValueError, "^stop must be at least 5, got 2$"),
    "DatasetReader-negative-index": (
        lambda: span(-1, 2), ValueError, "^start must be at least 0, got -1$"),
    "DatasetReader-real-index": (
        lambda: span(1.0, 2), TypeError, r"^start must be an integer, got 1\.0$"),
    "DatasetReader-real-stop": (
        lambda: span(0, 2.0), TypeError, r"^stop must be an integer, got 2\.0$"),
    "stats-nan": (lambda: stats([1.0, math.nan]), ValueError, "^errors must be finite, got nan$"),
    "stats-inf": (lambda: stats([1.0, math.inf]), ValueError, "^errors must be finite, got inf$"),
    "stats-minus-inf": (lambda: stats([-math.inf, 1.0]), ValueError, "^errors must be finite, got -inf$"),
}


# The most a row may allocate on its way to the refusal, by tracemalloc
# over its second call (the first pays numpy's lazy imports, 0.9 MB in
# the first row that builds a network).  The rows peaked at 7 KB at most,
# in those that build a network; the rest at 4 KB or less.
ROW_PEAK_BYTES = 64 * 1024


@pytest.fixture(scope="module", autouse=True)
def scene_free_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile") / "data"
    save(gen_dataset(GenConfig(n_scenes=6, width=8, height=8)), root)
    for path in root.glob("scene_*.f32"):
        path.unlink()
    SCENE_FREE.append(root)
    yield
    SCENE_FREE.clear()


@pytest.mark.parametrize("call, error, message", ROWS.values(), ids=ROWS.keys())
def test_hostile_input_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=message):
        call()
    tracemalloc.start()
    try:
        with pytest.raises(error, match=message):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ROW_PEAK_BYTES


def test_mcde_checks_pixels_before_any_pass(monkeypatch):
    net = build("g-net", seed=5, channels=4, dropout_rate=0.3)
    calls = []
    monkeypatch.setattr(net, "forward_passes", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^image " + BAD_PIXEL):
        mcde([net], image(-0.5), nu=2)
    assert calls == []


def test_seed_parts_keep_their_encoding():
    """An int part hashes as its decimal string, as it always has."""
    assert derive_seed(1) == derive_seed("1")
    assert derive_seed("scene", 0, 7) == derive_seed("scene", "0", "7")
