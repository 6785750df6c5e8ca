"""Deterministic seed derivation shared by every stochastic component."""

from __future__ import annotations

import hashlib

_SEP = b"\x1f"

# The largest seed a config or flag takes: every seed is uint64 key material.
MAX_SEED = 2**64 - 1


def derive_seed(*parts: int | str) -> int:
    """Stable 64-bit seed from a mixed tuple of ints and strings.

    Every random stream in the library is keyed by an explicit
    (purpose, identifiers...) tuple.  Hashing keeps the mapping stable
    across platforms and sessions, and independent streams never share
    state, so adding one consumer never perturbs another.
    """
    blob = _SEP.join(str(p).encode() for p in parts)
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")
