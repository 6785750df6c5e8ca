"""
Training a tiny estimator and reading its MC-dropout uncertainty
================================================================

The package ships two small convolutional architectures built from
scratch on numpy: "g-net" pools features by averaging, "m-net" by
taking maxima.  Both end in a head that always emits a positive unit
vector, and both carry dropout layers that stay ACTIVE at inference.
Running several stochastic passes and reading the spread of the
answers turns one network into its own uncertainty meter.
"""

import numpy as np

from mcde.color import recovery_error
from mcde.datagen import GenConfig, gen_dataset
from mcde.mc import mc_estimate
from mcde.nn import TrainConfig, build, train
from mcde.seeding import derive_seed

# Train on blue-shifted scenes only ("band-a").  The point of the
# restriction becomes visible below, when the net meets scenes from
# the band it has never seen.
train_data = gen_dataset(
    GenConfig(n_scenes=360, width=16, height=16, pool="band-a", base_seed=42)
)

net = build("g-net", seed=derive_seed("demo-init", 42), channels=12,
            dropout_rate=0.45)
config = TrainConfig(epochs=60, learning_rate=0.05, batch_size=8,
                     base_seed=derive_seed("demo-train", 42))
net, trace = train(net, train_data.scenes, config)
print(f"loss: first epoch {trace[0]:.4f} -> last epoch {trace[-1]:.4f}")

# One dropout-free pass gives the plain point estimate.
scene = train_data.scenes[0]
point = net.forward(scene.pixels)
print("point estimate ", np.round(point, 4))
print("ground truth   ", np.round(scene.label, 4))

# Thirty dropout-active passes give a mean AND a per-channel spread.
# Different pass indices use different masks; the same (seed, index)
# always reproduces the same mask, so the whole estimate is stable.
est = mc_estimate(net, scene.pixels, nu=30, base_seed=7)
print("MC mean        ", np.round(est.mean, 4))
print("per-channel spread:", np.format_float_scientific(est.sigma[0], 2),
      np.format_float_scientific(est.sigma[1], 2),
      np.format_float_scientific(est.sigma[2], 2))
print("total uncertainty mu:", np.format_float_scientific(est.mu, 3))

# Now the punchline: evaluate the SAME network on scenes from its home
# band and from the band it never trained on.  Mean error grows off
# band, and so does mu: the dropout passes disagree on inputs the
# training set never covered.  That correlation is what the ensemble
# fusion in demo 04 feeds on.
for pool in ("band-a", "band-b"):
    eval_data = gen_dataset(
        GenConfig(n_scenes=40, width=16, height=16, pool=pool, base_seed=77)
    )
    errs, mus = [], []
    for index, scene in enumerate(eval_data.scenes):
        est = mc_estimate(net, scene.pixels, nu=30, base_seed=1000 + index)
        errs.append(recovery_error(scene.label, est.mean))
        mus.append(est.mu)
    print(f"\neval on {pool}: mean recovery {np.mean(errs):6.2f} deg, "
          f"median mu {np.median(mus):.3e}")

# Dropout rate 0 makes every pass identical, so the spread collapses
# to exactly zero; uncertainty only exists when masks can vary.
dry = build("g-net", seed=3, channels=12, dropout_rate=0.0)
est = mc_estimate(dry, scene.pixels, nu=10, base_seed=0)
print("\nspread with dropout disabled:", est.sigma, "mu:", est.mu)
