"""Hostile input at the public entry points, one row per (entry point,
input, exception type, message pattern).

Every row runs with warnings as errors, so a numpy warning, a raw numpy
exception or a silently returned result fails it: a hostile input is
refused up front, with a typed error whose message names the problem.
"""

import math

import numpy as np
import pytest

from mcde import color
from mcde.baselines import grey_world, shades_of_grey
from mcde.bench import stats
from mcde.color import NEUTRAL, Scene, apply_von_kries, normalize, to_spherical
from mcde.datagen import GenConfig, gen_scene
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


def net():
    return build("g-net", seed=3, channels=4, dropout_rate=0.3)


def estimate(pixels):
    return mcde([net()], pixels, nu=2)


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
    "forward_passes-too-many": (
        lambda: net().forward_passes(image(), PassSeed(0), MAX_NU + 1), ValueError,
        rf"^count must be at most MAX_NU = {MAX_NU}, got {MAX_NU + 1}$"),
    "scene_passes-too-many": (
        lambda: net().scene_passes([image(), image()], [1, 2], MAX_NU + 1), ValueError,
        rf"^count must be at most MAX_NU = {MAX_NU}, got {MAX_NU + 1}$"),
    "train-negative-pixel": (lambda: fit(image(-5.0)), ValueError, "^scene 0 " + BAD_PIXEL),
    "train-nan-pixel": (lambda: fit(image(math.nan)), ValueError, "^scene 0 " + BAD_PIXEL),
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
    "stats-nan": (lambda: stats([1.0, math.nan]), ValueError, "^errors must be finite, got nan$"),
    "stats-inf": (lambda: stats([1.0, math.inf]), ValueError, "^errors must be finite, got inf$"),
    "stats-minus-inf": (lambda: stats([-math.inf, 1.0]), ValueError, "^errors must be finite, got -inf$"),
}


@pytest.mark.parametrize("call, error, message", ROWS.values(), ids=ROWS.keys())
def test_hostile_input_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
