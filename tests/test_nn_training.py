"""SGD training loop: convergence, determinism, divergence reporting."""

import numpy as np
import pytest

from mcde.color import recovery_error
from mcde.datagen import GenConfig, gen_dataset
from mcde.nn import TrainConfig, TrainingError, build, train


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
                net, scenes, TrainConfig(epochs=50, learning_rate=1e300, base_seed=2)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)
        for learning_rate in (float("inf"), float("nan"), -0.1):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(epochs=1, learning_rate=learning_rate, batch_size=4)
