"""Central finite-difference gradient checking, shared across tests.

Numeric gradients use symmetric differences with step 1e-5.  A value
passes when its absolute error is below 1e-8 (covers gradients that
are exactly zero, e.g. dropped units) or its relative error
|a - n| / (|a| + |n|) is below 1e-4.  Differences at that step need
float64, and every layer and network the library builds is float32, so
both checks run on ``float64_copy`` of what they are given: the same
layer code, computing in float64.
"""

import copy

import numpy as np

from mcde.nn import Mode, PassSeed
from mcde.nn.network import cosine_loss

STEP = 1e-5
ABS_TOL = 1e-8
REL_TOL = 1e-4


def assert_grads_close(analytic, numeric, what: str) -> None:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(n), 1e-300)
    rel = np.abs(a - n) / denom
    ok = (np.abs(a - n) <= ABS_TOL) | (rel <= REL_TOL)
    assert ok.all(), (
        f"{what}: worst abs {np.abs(a - n).max():.3e}, worst rel {rel.max():.3e}"
    )


def float64_copy(obj):
    """A deep copy of a layer or a ``Network`` with float64 parameters."""
    out = copy.deepcopy(obj)
    for layer in getattr(out, "layers", [out]):
        layer.params = {name: p.astype(np.float64) for name, p in layer.params.items()}
    return out


def check_layer(layer, x, keep=None) -> None:
    """Compare a layer's backward pass against finite differences.

    The scalar probe is sum(c * y) for a fixed random c, whose exact
    gradient with respect to y is c.  With ``keep`` every forward call
    gets that fixed dropout mask, so a ``Dropout`` sees identical masks
    in all evaluations.  ``x`` is one row: the check adds the leading
    row axis that layers take.
    """
    layer = float64_copy(layer)
    x = np.asarray(x, dtype=np.float64)[None]
    mask = () if keep is None else (keep,)

    def run(xv, params=None):
        saved = {}
        if params:
            for name, value in params.items():
                saved[name] = layer.params[name]
                layer.params[name] = value
        try:
            y, _ = layer.forward(xv, *mask)
        finally:
            for name, value in saved.items():
                layer.params[name] = value
        return y

    y, cache = layer.forward(x, *mask)
    c = np.random.default_rng(20260501).normal(size=y.shape)
    dx, grads = layer.backward(c, cache)

    assert set(grads) == set(layer.params), "backward must cover every parameter"

    num_dx = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        lift = np.zeros_like(x)
        lift[idx] = STEP
        hi = float(np.sum(c * run(x + lift)))
        lo = float(np.sum(c * run(x - lift)))
        num_dx[idx] = (hi - lo) / (2.0 * STEP)
    assert_grads_close(dx, num_dx, f"{layer.kind}: d(input)")

    for name, grad in grads.items():
        base = layer.params[name]
        num = np.empty_like(base)
        for idx in np.ndindex(base.shape):
            lift = np.zeros_like(base)
            lift[idx] = STEP
            hi = float(np.sum(c * run(x, {name: base + lift})))
            lo = float(np.sum(c * run(x, {name: base - lift})))
            num[idx] = (hi - lo) / (2.0 * STEP)
        assert_grads_close(grad[0], num, f"{layer.kind}: d({name})")


def check_network(net, pixels, gt, seed: PassSeed) -> None:
    """Compare whole-network parameter gradients of the cosine loss.

    Dropout masks depend only on the pass seed and layer index, so
    every finite-difference evaluation replays the same masks.
    """
    net = float64_copy(net)
    pixels = np.asarray(pixels, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    _, grads = net.backward(pixels[None], gt[None], seed)

    def loss() -> float:
        return cosine_loss(net.forward(pixels, Mode.MC, seed), gt)

    for li, (layer, layer_grads) in enumerate(zip(net.layers, grads)):
        for name, grad in layer_grads.items():
            base = layer.params[name]
            num = np.empty_like(base)
            for idx in np.ndindex(base.shape):
                original = base[idx]
                base[idx] = original + STEP
                hi = loss()
                base[idx] = original - STEP
                lo = loss()
                base[idx] = original
                num[idx] = (hi - lo) / (2.0 * STEP)
            assert_grads_close(
                grad, num, f"layer {li} ({layer.kind}): d({name})"
            )
