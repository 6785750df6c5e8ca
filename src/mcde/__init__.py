"""Monte Carlo dropout ensembles for computational color constancy.

The package estimates a scene's illuminant with a small ensemble of
from-scratch neural networks.  Each member runs several stochastic
forward passes with dropout left on; the scatter of those passes prices
the member's confidence, and the ensemble fuses the per-member means by
confidence-weighted averaging in spherical coordinates.

Modules:

    color     illuminant geometry, angular error metrics, correction
    nn        layers, networks, training, and model files
    mc        Monte Carlo dropout inference for a single network
    fusion    confidence scoring and angular fusion of an ensemble
    baselines grey-world and shades-of-grey estimators
    datagen   seeded synthetic scene generator and dataset format
    bench     cross-validation protocol, statistics, report files
    cli       command-line workflows (gen-data, train, estimate, bench)
"""

from mcde.color import (
    NEUTRAL,
    Scene,
    SphericalDir,
    apply_von_kries,
    from_spherical,
    normalize,
    recovery_error,
    reproduction_error,
    to_spherical,
)
from mcde.fusion import FusionResult, ensemble_estimates, fuse, ideal_combine, mcde
from mcde.mc import MCEstimate, mc_estimate
from mcde.seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "FusionResult",
    "MCEstimate",
    "NEUTRAL",
    "Scene",
    "SphericalDir",
    "apply_von_kries",
    "derive_seed",
    "ensemble_estimates",
    "from_spherical",
    "fuse",
    "ideal_combine",
    "mc_estimate",
    "mcde",
    "normalize",
    "recovery_error",
    "reproduction_error",
    "to_spherical",
    "__version__",
]
