"""Deterministic seed derivation shared by every stochastic component."""

from __future__ import annotations

import hashlib

from mcde._check import check_int

_SEP = "\x1f"

# The largest seed a config or flag takes: every seed is uint64 key material.
MAX_SEED = 2**64 - 1


def derive_seed(*parts: int | str) -> int:
    """Stable 64-bit seed from a mixed tuple of ints and strings.

    Every random stream in the library is keyed by an explicit
    (purpose, identifiers...) tuple.  Hashing keeps the mapping stable
    across platforms and sessions, and independent streams never share
    state, so adding one consumer never perturbs another.  Each part is
    a ``str`` or an ``int`` in [0, MAX_SEED], encoded as its decimal
    string, so ``derive_seed(1) == derive_seed("1")``; at least one part
    is required.  Parts are joined by ``\\x1f``, which a ``str`` part may
    not hold: ``("a\\x1fb",)`` would hash as ``("a", "b")``.
    """
    if not parts:
        raise ValueError("derive_seed needs at least one part")
    for part in parts:
        if not isinstance(part, str):
            check_int("seed part", part, 0, MAX_SEED)
        elif _SEP in part:
            raise ValueError(f"seed part must not hold the separator '\\x1f', got {part!r}")
    blob = _SEP.join(map(str, parts)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")
