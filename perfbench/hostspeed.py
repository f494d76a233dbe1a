"""Reference kernels that gauge how fast the host runs at a given moment.

On a host that shares its physical cores with other tenants, the same
join runs up to 1.8x slower in some stretches than in others; a stretch
lasts from under a second to minutes.  CPU time tracks wall time through both, so no
in-process clock removes the slowdown.  A fixed kernel timed around each
join does: the benchmark reports a join's wall time times REF_S / the
kernel's time, that is, the join's time on a host where the kernel takes
REF_S seconds.

Each kernel is the benchmark's own code and touches no engine code, so a
change to the engine moves the scaled time in full.  Each mirrors the
work that dominates its workloads:

  sort   a bitonic network on 3 x 8,192 uint64 columns; per level it
         computes the index arrays, then one numpy gather / compare /
         where / scatter, like the engine's schedule and vector
         compare-exchange on short arrays (fk);
  merge  the last bitonic merge of 2^15 slots, 8 separate columns, as
         the engine lays out entries: the long, wide sorts of fanout;
  hash   a Python loop chaining SHA-256 over 17-byte records, like
         HashSink's hashlib path (verify).

A kernel that does not match the workload scales it poorly.  Across
windows of 20 joins (45 on verify) in one process, the window medians of
the scaled join ranged 10% with sort and 15% with merge on fk, 9% with
sort and 4% with merge on fanout, and 20% with sort and 5% with hash on
verify.  REF_S is each kernel's time on a shared 2-core x86 host in a
quiet stretch; it only sets the scale and is never changed, so figures
stay comparable.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

__all__ = ["Kernel", "KERNELS"]

_SORT_N = 1 << 13
_MERGE_N = 1 << 15
_HASH_RECORDS = 40_000


def _sort_setup():
    cols = np.random.default_rng(0).integers(
        0, 1 << 62, (3, _SORT_N), dtype=np.uint64)
    return np.arange(_SORT_N // 2, dtype=np.int64), cols


def _sort_run(state) -> None:
    t, base = state
    cols = base.copy()
    k = 2
    while k <= _SORT_N:
        j = k >> 1
        while j >= 1:
            jb = j.bit_length() - 1
            lo = ((t >> jb) << (jb + 1)) | (t & (j - 1))
            hi = lo | j
            a = cols[:, lo]
            b = cols[:, hi]
            swap = np.where((lo & k) == 0, a[0] > b[0], a[0] < b[0])
            cols[:, lo] = np.where(swap, b, a)
            cols[:, hi] = np.where(swap, a, b)
            j >>= 1
        k <<= 1
    if not np.all(cols[0, :-1] <= cols[0, 1:]):
        raise RuntimeError("sort kernel did not sort")


def _merge_setup():
    rng = np.random.default_rng(0)
    keys = np.sort(rng.integers(0, 1 << 62, _MERGE_N, dtype=np.uint64))
    bitonic = np.concatenate([keys[0::2], keys[1::2][::-1]])
    cols = [bitonic] + [rng.integers(0, 1 << 62, _MERGE_N, dtype=np.uint64)
                        for _ in range(7)]
    return np.arange(_MERGE_N // 2, dtype=np.int64), cols


def _merge_run(state) -> None:
    t, base = state
    cols = [c.copy() for c in base]
    j = _MERGE_N >> 1
    while j >= 1:
        jb = j.bit_length() - 1
        lo = ((t >> jb) << (jb + 1)) | (t & (j - 1))
        hi = lo | j
        swap = cols[0][lo] > cols[0][hi]
        for c in cols:
            a = c[lo]
            b = c[hi]
            c[lo] = np.where(swap, b, a)
            c[hi] = np.where(swap, a, b)
        j >>= 1
    if not np.all(cols[0][:-1] <= cols[0][1:]):
        raise RuntimeError("merge kernel did not sort")


def _hash_setup():
    return np.random.default_rng(0).integers(
        0, 256, 17 * _HASH_RECORDS, dtype=np.uint8).tobytes()


def _hash_run(buf) -> None:
    h = bytes(32)
    for i in range(_HASH_RECORDS):
        h = hashlib.sha256(h + buf[17 * i:17 * i + 17]).digest()


class Kernel:
    """One reference kernel; its inputs are built on first use, so a
    process pays for them outside any timed region."""

    def __init__(self, name: str, ref_s: float, setup, run) -> None:
        self.name = name
        self.ref_s = ref_s
        self._setup = setup
        self._run = run
        self._state = None

    def measure(self, times: int) -> float:
        """The kernel's mean wall time over `times` runs back to back."""
        if self._state is None:
            self._state = self._setup()
            self._run(self._state)  # warm-up
        t0 = time.perf_counter()
        for _ in range(times):
            self._run(self._state)
        return (time.perf_counter() - t0) / times

    def release(self) -> None:
        """Drop the inputs; the next measure() builds them again."""
        self._state = None

    def scale(self, wall_s: float, kernel_s: float) -> float:
        """wall_s as it would read on a host where the kernel takes
        REF_S seconds."""
        return wall_s * self.ref_s / kernel_s


KERNELS = {
    "sort": Kernel("sort", 0.045, _sort_setup, _sort_run),
    "merge": Kernel("merge", 0.030, _merge_setup, _merge_run),
    "hash": Kernel("hash", 0.045, _hash_setup, _hash_run),
}
