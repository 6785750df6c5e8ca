"""SGD training loop: convergence, determinism, divergence reporting."""

import ctypes
import functools
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from test_mc import STACKS

from mcde.color import recovery_error
from mcde.datagen import GenConfig, gen_dataset
from mcde.nn import PassSeed, TrainConfig, TrainingError, build, train, training
from mcde.seeding import derive_seed

SRC = Path(__file__).resolve().parents[1] / "src"


def tiny_dataset(n=6, seed=101, pool="band-a"):
    return gen_dataset(
        GenConfig(n_scenes=n, width=8, height=8, n_patches=9, pool=pool,
                  noise_std=0.0, base_seed=seed)
    ).scenes


def snapshot(net):
    return [
        {name: arr.copy() for name, arr in layer.params.items()}
        for layer in net.layers
    ]


def params_equal(net, saved):
    return all(
        np.array_equal(layer.params[name], held[name])
        for layer, held in zip(net.layers, saved)
        for name in held
    )


class TestTrainingProgress:
    def test_loss_decreases(self):
        scenes = tiny_dataset()
        net = build("g-net", seed=20, channels=6, dropout_rate=0.2)
        _, trace = train(net, scenes, TrainConfig(epochs=15, learning_rate=0.05, base_seed=3))
        assert len(trace) == 15
        assert trace[-1] < trace[0]

    def test_memorizes_small_set_without_dropout(self):
        """A deterministic net must nearly fit 4 scenes.

        Plain SGD converges slowly in the tail, so the thresholds
        leave a factor-of-two margin over the measured 200-epoch loss
        of about 1.3e-3 (roughly 3 degrees of residual angle).
        """
        scenes = tiny_dataset(n=4, seed=102)
        net = build("g-net", seed=21, channels=8, dropout_rate=0.0)
        _, trace = train(
            net, scenes, TrainConfig(epochs=200, learning_rate=0.2, base_seed=4)
        )
        assert trace[-1] < 3e-3
        worst = max(recovery_error(s.label, net.forward(s.pixels)) for s in scenes)
        assert worst < 5.0

    def test_both_architectures_learn(self):
        scenes = tiny_dataset(n=8, seed=103)
        for arch in ("g-net", "m-net"):
            net = build(arch, seed=22, channels=6, dropout_rate=0.2)
            _, trace = train(
                net, scenes, TrainConfig(epochs=25, learning_rate=0.05, base_seed=5)
            )
            assert trace[-1] < trace[0] * 0.7, arch


class TestTrainingDeterminism:
    def test_identical_runs_produce_identical_weights(self):
        scenes = tiny_dataset()
        nets, traces = [], []
        for _ in range(2):
            net = build("m-net", seed=23, channels=5, dropout_rate=0.3)
            net, trace = train(
                net, scenes, TrainConfig(epochs=5, learning_rate=0.05, base_seed=6)
            )
            nets.append(net)
            traces.append(trace)
        assert traces[0] == traces[1]
        assert params_equal(nets[0], snapshot(nets[1]))

    def test_base_seed_changes_the_run(self):
        scenes = tiny_dataset()
        outs = []
        for base_seed in (7, 8):
            net = build("m-net", seed=23, channels=5, dropout_rate=0.3)
            net, _ = train(
                net, scenes, TrainConfig(epochs=3, learning_rate=0.05, base_seed=base_seed)
            )
            outs.append(net.layers[0].params["W"].copy())
        assert not np.array_equal(outs[0], outs[1])

    def test_zero_learning_rate_keeps_weights_bitwise(self):
        scenes = tiny_dataset()
        net = build("g-net", seed=24, channels=5, dropout_rate=0.3)
        saved = snapshot(net)
        _, trace = train(
            net, scenes, TrainConfig(epochs=2, learning_rate=0.0, base_seed=9)
        )
        assert len(trace) == 2
        assert params_equal(net, saved)

    def test_zero_epochs_is_a_no_op(self):
        scenes = tiny_dataset()
        net = build("g-net", seed=25, channels=5)
        saved = snapshot(net)
        _, trace = train(net, scenes, TrainConfig(epochs=0, base_seed=1))
        assert trace == []
        assert params_equal(net, saved)


class TestTrainingErrors:
    def test_empty_training_set(self):
        net = build("g-net", seed=26, channels=4)
        with pytest.raises(ValueError, match="empty"):
            train(net, [], TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_names_the_epoch(self):
        scenes = tiny_dataset()
        net = build("g-net", seed=27, channels=5, dropout_rate=0.0)
        with pytest.raises(TrainingError, match="epoch"):
            train(
                net, scenes, TrainConfig(epochs=50, learning_rate=1e30, base_seed=2)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)
        below_float32_max = re.escape("must lie in [0.0, 3.4028234663852886e+38), got ")
        for learning_rate, error, message in (
            (float("inf"), ValueError, below_float32_max),
            (float("nan"), ValueError, below_float32_max),
            (1e300, ValueError, below_float32_max),
            (1e39, ValueError, below_float32_max),
            (-0.1, ValueError, below_float32_max),
            ("x", TypeError, "must be a real number"),
            (True, TypeError, "must be a real number"),
        ):
            with pytest.raises(error, match=f"^learning_rate {message}"):
                TrainConfig(epochs=1, learning_rate=learning_rate, batch_size=4)
        for base_seed, error in (
            (2.5, TypeError), (-3, ValueError), (2**64, ValueError), ("x", TypeError),
            (True, TypeError),
        ):
            with pytest.raises(error, match="^base_seed must"):
                TrainConfig(epochs=1, base_seed=base_seed)

    @pytest.mark.parametrize("name", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_config_rejects_non_integers(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            TrainConfig(**{"epochs": 1, name: value})

    def test_mixed_scene_shapes_fail_before_the_first_step(self):
        """Every dataset has one shape; a mixed list names two shapes
        that differ, instead of a raw numpy error mid-epoch."""
        odd = gen_dataset(GenConfig(n_scenes=1, width=10, height=8, base_seed=104)).scenes
        net = build("g-net", seed=28, channels=4)
        saved = snapshot(net)
        with pytest.raises(ValueError, match=re.escape("(8, 8, 3) and (8, 10, 3)")):
            train(net, tiny_dataset(n=3) + odd, TrainConfig(epochs=1, batch_size=8))
        assert params_equal(net, saved)

    @pytest.mark.parametrize(
        "arch, label, message",
        [
            ("g-net", (1.0, 1.0, 1.0), "label must have unit norm, got 1.732050807568877"),
            ("m-net", (0.6, 0.8, 0.0), "components must be finite and positive"),
        ],
        ids=["g-net-ones", "m-net-zero-blue"],
    )
    def test_label_that_is_no_illuminant_fails_before_the_first_step(self, arch, label, message):
        """The cosine loss lies in [0, 2] only for unit labels: four
        scenes labelled (1, 1, 1) used to train to a mean loss of -0.72."""
        scenes = tiny_dataset(n=3)
        scenes[2].label = np.array(label)
        net = build(arch, seed=29, channels=4)
        saved = snapshot(net)
        with pytest.raises(ValueError, match=f"^scene 2: {re.escape(message)}"):
            train(net, scenes, TrainConfig(epochs=1, batch_size=8))
        assert params_equal(net, saved)


def reference_train(net, scenes, config):
    """``train`` as one backward per sample: each sample's gradients are
    summed into the batch's as ``held + new``, in sample order, then
    one SGD step per mini-batch scales them by ``lr / len(batch)``."""
    pass_base = derive_seed("train-pass", config.base_seed)
    trace, step = [], 0
    for epoch in range(config.epochs):
        order = np.random.default_rng(
            derive_seed("train-shuffle", config.base_seed, epoch)
        ).permutation(len(scenes))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            acc = None
            for idx in batch:
                scene = scenes[idx]
                (loss,), grads = net.backward(
                    scene.pixels[None], scene.label[None], PassSeed(pass_base, step)
                )
                step += 1
                losses.append(loss)
                if acc is None:
                    acc = grads
                else:
                    for held, new in zip(acc, grads):
                        for name in held:
                            held[name] = held[name] + new[name]
            scale = config.learning_rate / len(batch)
            for layer, layer_grads in zip(net.layers, acc):
                for name, grad in layer_grads.items():
                    layer.params[name] -= scale * grad
        trace.append(float(np.mean(losses)))
    return net, trace


@functools.lru_cache(maxsize=None)
def scenes_at(size):
    """19 scenes, so batches of 3 and of 8 both end in a partial batch."""
    return gen_dataset(
        GenConfig(n_scenes=19, width=size, height=size, n_patches=9, base_seed=105)
    ).scenes


NETS = {
    "g-net": lambda: build("g-net", seed=29, channels=4, dropout_rate=0.3),
    "m-net": lambda: build("m-net", seed=30, channels=4, dropout_rate=0.3),
    "spatial-layer-after-dropout": STACKS["spatial-layer-after-dropout"],
}


@pytest.mark.parametrize("batch_size", [1, 3, 8])
@pytest.mark.parametrize("size", [8, 32, 64])
@pytest.mark.parametrize("make", NETS.values(), ids=NETS.keys())
def test_train_matches_one_backward_per_sample_bit_for_bit(make, size, batch_size):
    """The mini-batch backward sums in sample order, as the per-sample
    loop did, whatever its row blocks: whole batches at 8x8, two rows at
    32x32 and one at 64x64."""
    config = TrainConfig(epochs=2, learning_rate=0.05, batch_size=batch_size, base_seed=10)
    net, trace = train(make(), scenes_at(size), config)
    ref, ref_trace = reference_train(make(), scenes_at(size), config)
    assert trace == ref_trace
    for layer, ref_layer in zip(net.layers, ref.layers):
        for name, param in layer.params.items():
            assert param.tobytes() == ref_layer.params[name].tobytes()


def has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def faults_per_step(n_scenes, size, epochs):
    """Minor page faults per step of 8 when a fresh interpreter, after
    generating ``n_scenes`` scenes in memory and one warm-up epoch,
    trains a g-net for ``epochs`` more."""
    pytest.importorskip("resource")
    script = textwrap.dedent(f"""
        import resource
        from mcde.datagen import GenConfig, gen_dataset
        from mcde.nn import TrainConfig, build, train
        scenes = gen_dataset(GenConfig(n_scenes={n_scenes}, width={size}, height={size},
                                       pool="band-a", base_seed=105)).scenes
        net = build("g-net", seed=29, channels=12, dropout_rate=0.45)
        train(net, scenes, TrainConfig(epochs=1, learning_rate=0.05, batch_size=8))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(net, scenes, TrainConfig(epochs={epochs}, learning_rate=0.05, batch_size=8))
        steps = {epochs * n_scenes // 8}
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
    """)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return float(out.stdout)


class TestHeapPad:
    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    def test_training_steps_do_not_fault_the_heap_in_again(self):
        """In a fresh interpreter, after one warm-up epoch, 30 steps of a
        16x16 g-net on batches of 8 make almost no minor page faults;
        with the heap top trimmed after every step they made 150 each."""
        assert faults_per_step(240, 16, 1) < 10

    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    def test_64x64_steps_after_in_memory_generation_do_not_fault(self):
        """15 steps of a 64x64 g-net make almost no minor page faults;
        with the mmap threshold frozen at 128 KiB by the heap pad, every
        activation was mmapped afresh, 11,600 faults per step."""
        assert faults_per_step(40, 64, 3) < 10

    def test_pad_is_a_no_op_without_mallopt(self, monkeypatch):
        """Where the C library has no mallopt (macOS, Windows), the pad
        does nothing, once, and training runs as everywhere."""
        opened = []

        def libc_without_mallopt(name):
            opened.append(name)
            return object()

        monkeypatch.setattr(ctypes, "CDLL", libc_without_mallopt)
        training._pad_heap.cache_clear()
        try:
            net = build("g-net", seed=30, channels=4)
            _, trace = train(net, tiny_dataset(n=4), TrainConfig(epochs=2, batch_size=2))
            train(net, tiny_dataset(n=4), TrainConfig(epochs=1, batch_size=2))
        finally:
            training._pad_heap.cache_clear()
        assert opened == [None]
        assert len(trace) == 2 and np.all(np.isfinite(trace))
