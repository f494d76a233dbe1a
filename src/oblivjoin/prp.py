"""Randomized distribution via a small-domain pseudorandom permutation.

The deterministic routing network leaks nothing because its pattern is
fixed; the randomized variant here instead *reveals* destination slots,
but only after passing them through a keyed permutation pi of [0, m), so
the revealed positions are uniform for anyone who does not hold the seed.

The permutation is a balanced Feistel cipher over the smallest even-width
binary domain covering m, cycle-walked onto [0, m).  Both pi and its
inverse evaluate with constant local memory — nothing about the
permutation is ever stored in, or looked up from, public memory, which is
what makes the construction leak-free beyond the placement writes
themselves.

prp_distribute places entries at pi(f-1), then restores deterministic
order with one oblivious sort: slot p first has its f re-keyed to
pi^-1(p)*(m+1) + f, which makes the sort keys distinct with exactly one
per final slot, and a decode pass (f mod (m+1)) afterwards recovers f.
The output array is identical, entry for entry, to what
oblivious_distribute produces, and the same placement check follows:
a non-injective f raises DistributeCollisionError.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .entries import KEY_F
from .trace import READ, WRITE, PublicArray, alloc, emit_steps
from .primitives import (DistributeCollisionError, bitonic_sort,
                         _check_placement, _destinations)

__all__ = ["SmallDomainPrp", "prp_distribute"]

_ROUNDS = 7
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_M64 = (1 << 64) - 1


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= _M64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")


class SmallDomainPrp:
    """Keyed pseudorandom permutation of [0, m), with inverse.

    Balanced Feistel over 2*h bits (2^(2h) >= m) plus cycle-walking.
    Round keys are derived from the seed with SHA-256; round functions are
    64-bit mixers, so evaluation costs a handful of integer ops.
    """

    def __init__(self, m: int, seed: int) -> None:
        if m < 1:
            raise ValueError("domain size must be >= 1")
        _check_seed(seed)
        self.m = m
        bits = max((m - 1).bit_length(), 2)
        bits += bits & 1  # even width for balanced halves
        self._h = bits // 2
        self._hmask = (1 << self._h) - 1
        material = hashlib.sha256(
            b"oblivjoin-prp" + seed.to_bytes(8, "big") + m.to_bytes(8, "big")
        ).digest()
        self._keys = [
            int.from_bytes(hashlib.sha256(material + bytes([r])).digest()[:8], "big")
            for r in range(_ROUNDS)
        ]

    def _round(self, key: int, x: int) -> int:
        z = (x + key) & _M64
        z ^= z >> 30
        z = (z * _MIX1) & _M64
        z ^= z >> 27
        z = (z * _MIX2) & _M64
        z ^= z >> 31
        return z & self._hmask

    def _encrypt_once(self, v: int) -> int:
        left, right = v >> self._h, v & self._hmask
        for key in self._keys:
            left, right = right, left ^ self._round(key, right)
        return (left << self._h) | right

    def _decrypt_once(self, v: int) -> int:
        left, right = v >> self._h, v & self._hmask
        for key in reversed(self._keys):
            left, right = right ^ self._round(key, left), left
        return (left << self._h) | right

    def forward(self, v: int) -> int:
        """pi(v) for v in [0, m)."""
        if not 0 <= v < self.m:
            raise ValueError(f"value {v} outside domain [0, {self.m})")
        w = self._encrypt_once(v)
        while w >= self.m:
            w = self._encrypt_once(w)
        return w

    def inverse(self, v: int) -> int:
        """pi^-1(v) for v in [0, m)."""
        if not 0 <= v < self.m:
            raise ValueError(f"value {v} outside domain [0, {self.m})")
        w = self._decrypt_once(v)
        while w >= self.m:
            w = self._decrypt_once(w)
        return w


def prp_distribute(x: PublicArray, m: int, seed: int) -> PublicArray:
    """Randomized oblivious distribution.

    Accepts only n <= m with every entry non-null (no skipped nulls,
    unlike oblivious_distribute) and f injective into 1..m.  On that
    case it gives the same output as oblivious_distribute(x, m) and,
    like it, raises DistributeCollisionError when f is not injective
    into 1..m; an f outside 1..m raises it before any access.  The
    trace's data-dependent part is the placement writes at pi(f-1),
    uniform in the seed; everything after placement is a fixed pattern
    of m.  ValueError, before any access, if the seed lies outside
    [0, 2^64), also when m = 0 leaves no permutation to build, if n > m,
    or if an entry is null.
    """
    _check_seed(seed)
    n = x.length
    if n > m:
        raise ValueError(f"distribute requires n <= m, got n={n} m={m}")
    if x.col("is_null").any():
        raise ValueError("prp_distribute takes no null entries")
    f = x.col("f")
    outside = f[(f < 1) | (f > m)]
    if len(outside):
        raise DistributeCollisionError(
            f"destination f = {outside[0]} outside 1..{m}")
    sink = x.sink
    if m == 0:
        return alloc(0, sink)  # no domain to permute, and nothing to place
    prp = SmallDomainPrp(m, seed)
    a = alloc(m, sink)
    big = np.uint64(m + 1)
    ar = range(m)
    with sink.phase_scope("prp_place"):
        for i in range(n):
            e = x.read(i)
            a.write(prp.forward(e.f - 1), e)
    with sink.phase_scope("prp_key"):
        # Slot p gets sort key pi^-1(p)*(m+1) + f: keys are distinct and
        # put exactly one entry per final slot, so the sorted array equals
        # the deterministic network's output once f is decoded again.
        inv = np.array([prp.inverse(p) for p in range(m)], np.uint64)
        fcol = a.col("f")
        fcol[:] = inv * big + fcol
        emit_steps((a, READ, ar), (a, WRITE, ar))
    with sink.phase_scope("prp_sort"):
        bitonic_sort(a, KEY_F)
    with sink.phase_scope("prp_decode"):
        fcol = a.col("f")
        fcol[:] = fcol % big
        emit_steps((a, READ, ar), (a, WRITE, ar))
    _check_placement(_destinations(a), x)
    return a
