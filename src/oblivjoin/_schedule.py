"""Data-independent schedules for the sorting and routing networks.

A schedule is a pure function of the public length n: both engines replay
the same comparator sequence, so traces agree by construction.  Sort
schedules come out level by level — the comparators inside one level touch
pairwise-disjoint slots, so emitting a level in one canonical order (by low
index) preserves the sequential semantics while letting the vector engine
apply a whole level at once.

The network is a bottom-up bitonic sorter that works in place for any n.
Stage k (k = 2, 4, ..., kmax = np2(n)) merges adjacent blocks of size k,
ascending for even block index.  Complete blocks use the classic
power-of-two merge (hop sequence k/2, ..., 1; pairs (i, i^j); that merge
handles either orientation of a bitonic input).  The ragged tail of
s = n mod k slots, when present, is merged by the arbitrary-length bitonic
merge, which sorts rising-then-falling input: at each hop j with bit j of
s set, its ragged scope compares its first s mod j slots with the slots j
above and splits off a block of j slots, which the classic merge finishes
at the later hops.  Ascending, the block is the scope's top j slots;
descending, its bottom j (the two are mirror images).

Direction rule: the last stage's tail (k = kmax, the whole array) ascends
and every earlier tail descends.  Proof: when bit k of n is set, the
stage-k tail follows a complete ascending k-block in its parent's tail, so
it must fall; otherwise it is its parent's whole tail, and a falling run
is rising-then-falling too.

At powers of two no tails exist and the network is exactly the classical
one with n * log2(n) * (log2(n)+1) / 4 comparators.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

__all__ = ["np2", "sort_levels", "sort_program", "comparator_count",
           "route_hops"]


def np2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    return 1 << (n - 1).bit_length()


# keeps the programs of the 64 most recently sorted lengths: a join sorts
# only a few lengths, and a program takes 17 KiB at n = 10^6, 31 KiB at
# n = 10^7
@functools.lru_cache(maxsize=64)
def sort_program(n: int) -> tuple[np.ndarray, int]:
    """The length-n network as one flat int64 program, and its comparator
    count.  The program is the level count, then per level j, k, nfull,
    the number of tail parts and each part's lo0, cnt, up.

    At stage k and hop j the complete blocks cover slots [0, nfull) and
    give pairs lo = t + (t & -j) for t < nfull / 2, ascending iff
    (lo & k) == 0; the tail parts follow in slot order, each with pairs
    lo = lo0 + t + (t & -j) for t < cnt, ascending iff up.  Every pair's
    high index is lo + j.  (t + (t & -j) is t with its bits from j up
    shifted one place left, and t itself for t < j, so the first pairs of
    a ragged scope take the same form.)  The native sort kernel and
    sort_levels both expand this program.  Built once per length while
    the cache keeps it, so the array is read-only.
    """
    prog, ncomp = [0], 0
    kmax, k = np2(max(n, 1)), 2
    while k <= kmax:
        nfull = (n // k) * k          # slots covered by complete blocks
        s, up = n - nfull, k == kmax
        # Power-of-two blocks split off the tail, in slot order, each with
        # the pairs it fires at every later hop of the stage.
        blocks: list[tuple[int, int, bool]] = []
        j = k >> 1
        while j >= 1:
            fired = blocks
            if s & j:
                cnt = s & (j - 1)     # pairs of the ragged scope
                lo0 = nfull if up else nfull + (s & -2 * j)
                scope = [(lo0, cnt, up)] if cnt else []
                if up:    # the rest stays at lo0, the block follows it
                    fired = scope + blocks
                    blocks = [(lo0 + cnt, j >> 1, up)] + blocks
                else:     # the block stays at lo0, the rest follows it
                    fired = blocks + scope
                    blocks = blocks + [(lo0, j >> 1, up)]
            prog += (j, k, nfull, len(fired))
            ncomp += nfull >> 1
            for part in fired:
                prog += part
                ncomp += part[1]
            prog[0] += 1
            j >>= 1
        k <<= 1
    arr = np.array(prog, np.int64)
    arr.flags.writeable = False
    return arr, ncomp


def sort_levels(n: int) -> Iterator[tuple[np.ndarray, np.ndarray,
                                          np.ndarray]]:
    """Yield the levels (lo, hi, asc) of the length-n network,
    sort_program(n), in order.

    lo/hi are int64 index arrays (pairwise disjoint within a level,
    ascending in lo); asc is the per-comparator direction: True orders the
    pair ascending, False descending.  All parts of a level slice one
    index vector t + (t & -j).
    """
    prog = sort_program(n)[0].tolist()
    t = np.arange(n >> 1, dtype=np.int64)   # no level has more pairs
    at = 1
    for _ in range(prog[0]):
        j, k, nfull, nparts = prog[at:at + 4]
        at += 4
        end = at + 3 * nparts
        tm = t[:max([nfull >> 1, *prog[at + 1:end:3]])]   # the longest part
        base = tm + (tm & -j)
        parts_lo: list[np.ndarray] = []
        parts_asc: list[np.ndarray] = []
        if nfull:
            lo = base[:nfull >> 1]
            parts_lo.append(lo)
            parts_asc.append((lo & k) == 0)
        while at < end:
            lo0, cnt, up = prog[at], prog[at + 1], prog[at + 2]
            parts_lo.append(base[:cnt] + lo0)
            parts_asc.append(np.full(cnt, up == 1))
            at += 3
        if len(parts_lo) == 1:
            lo, asc = parts_lo[0], parts_asc[0]
        else:
            lo, asc = np.concatenate(parts_lo), np.concatenate(parts_asc)
        yield lo, lo + j, asc


def comparator_count(n: int) -> int:
    """Total compare-exchanges the length-n sort performs."""
    return sort_program(n)[1]


def route_hops(m: int) -> list[int]:
    """Hop distances of the length-m routing network, largest first.

    2^(ceil(log2 m) - 1) halving down to 1; empty for m < 2.
    """
    if m < 2:
        return []
    top = (m - 1).bit_length() - 1
    return [1 << t for t in range(top, -1, -1)]
