"""Type and bound checks for numeric config fields, in one wording."""

from __future__ import annotations

import math
from numbers import Real


def check_int(name: str, value, low: int, high: int | None = None) -> None:
    """Reject ``value`` unless it is an ``int``, not a ``bool``, in [low, high]."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if high is None:
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    elif not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")


def check_real(name: str, value, low: float, below: float | None = None) -> None:
    """Reject ``value`` unless it is a finite real, not a ``bool``, in [low, below)."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if below is not None and not low <= value < below:
        raise ValueError(f"{name} must lie in [{low}, {below}), got {value}")
    if not (math.isfinite(value) and value >= low):
        raise ValueError(f"{name} must be finite and at least {low}, got {value}")
