"""Data-independent schedules for the sorting and routing networks.

A schedule is a pure function of the public length n: both engines replay
the same comparator sequence, so traces agree by construction.  Sort
schedules come out level by level — the comparators inside one level touch
pairwise-disjoint slots, so emitting a level in one canonical order (by low
index) preserves the sequential semantics while letting the vector engine
apply a whole level at once.

The network is a bottom-up bitonic sorter that works in place for any n.
Stage k merges adjacent blocks of size k, ascending for even block index.
Complete blocks use the classic power-of-two merge (hop sequence
k/2, ..., 1; pairs (i, i^j); that merge handles either orientation of a
bitonic input).  The ragged tail block, when present, is merged by the
arbitrary-length bitonic merge, which splits a length-s range at the
greatest power of two j < s, compares (i, i+j), and recurses.  That merge
is orientation-sensitive: ascending it sorts rising-then-falling input
and must recurse on (s-j, j)-sized halves; descending it sorts the same
shape with (j, s-j) halves (the two are mirror images).  Tail contents
are always rising-then-falling — a complete ascending run followed by a
shorter run — provided each stage's tail is sorted descending whenever the
next stage's tail still extends past a complete block; the R() recursion
below picks those directions.  At powers of two no tails exist and the
network is exactly the classical one with n * log2(n) * (log2(n)+1) / 4
comparators.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["np2", "gp2", "sort_levels", "sort_program", "comparator_count",
           "route_hops"]


def np2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    return 1 << (n - 1).bit_length()


def gp2(n: int) -> int:
    """Greatest power of two < n (n >= 2)."""
    return 1 << ((n - 1).bit_length() - 1)


def _tail_directions(n: int, kmax: int) -> dict[int, bool]:
    """Required output direction of each stage's ragged-tail merge.

    The final stage sorts ascending.  A stage-k tail that shares its
    parent's region (parent tail <= k) inherits the parent's direction;
    one that forms the falling half of the parent's rising-then-falling
    input (parent tail > k) must sort descending.
    """
    dirs: dict[int, bool] = {}
    if n == kmax:
        return dirs
    dirs[kmax] = True
    k = kmax // 2
    while k >= 2:
        if n % k >= 2:
            parent_tail = n % (2 * k)
            dirs[k] = False if parent_tail > k else dirs[2 * k]
        k //= 2
    return dirs


_Part = tuple[int, int, bool]   # a tail merge or part: (lo0, size, up)


def _file_scope(lo0: int, size: int, up: bool, blocks: list[_Part]):
    """File a tail sub-merge: a power-of-two one joins blocks, a ragged one
    is returned; ranges shorter than 2 need no merge."""
    if size < 2:
        return None
    if size & (size - 1) == 0:
        blocks.append((lo0, size, up))
        return None
    return (lo0, size, up)


def _plan(n: int) -> Iterator[tuple[int, int, int, list[_Part]]]:
    """Yield the length-n network level by level as (j, k, nfull, fired).

    At stage k and hop j the complete blocks cover slots [0, nfull) and
    give pairs lo = t + (t & -j) for t < nfull / 2, ascending iff
    (lo & k) == 0.  fired lists the tail parts (lo0, cnt, up), sorted:
    pairs lo = lo0 + t + (t & -j) for t < cnt, ascending iff up.
    Every pair's high index is lo + j.
    """
    if n < 2:
        return
    kmax = np2(n)
    tail_dir = _tail_directions(n, kmax)
    k = 2
    while k <= kmax:
        nfull = (n // k) * k          # slots covered by complete blocks
        # Tail sub-merges: power-of-two blocks (lo0, p, up) fire at every
        # hop j < p; the ragged scope fires at gp2 of its size, then splits.
        blocks: list[_Part] = []
        ragged = _file_scope(nfull, n - nfull, tail_dir.get(k), blocks)
        j = k >> 1
        while j >= 1:
            fired = [(lo0, p >> 1, up) for lo0, p, up in blocks if p > j]
            if ragged is not None and gp2(ragged[1]) == j:
                lo0, size, up = ragged
                fired.append((lo0, size - j, up))
                if up:  # ascending merge recurses on (size-j, j)
                    children = ((lo0, size - j), (lo0 + size - j, j))
                else:   # descending on (j, size-j)
                    children = ((lo0, j), (lo0 + j, size - j))
                ragged = None
                for clo, csz in children:
                    ragged = _file_scope(clo, csz, up, blocks) or ragged
            fired.sort()
            yield j, k, nfull, fired
            j >>= 1
        assert ragged is None
        k <<= 1


def sort_levels(n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the sorting network for length n as levels (lo, hi, asc).

    lo/hi are int64 index arrays (pairwise disjoint within a level,
    ascending in lo); asc is the per-comparator direction: True orders the
    pair ascending, False descending.

    Every part of a level is one closed form shifted to its range: at hop
    j the t-th pair of a power-of-two merge starting at lo0 has low index
    lo0 + t + (t & -j) (t with its bits from j up shifted one place left),
    and the first s - j pairs of a ragged merge of length s are the same
    formula (it is t for t < j).  So the complete blocks, each
    power-of-two sub-merge split off the tail and the one ragged scope
    left of the tail's chain all slice one index vector per hop.
    """
    t = np.arange(n >> 1, dtype=np.int64)   # no level has more pairs
    for j, k, nfull, fired in _plan(n):
        tm = t[:max([nfull >> 1] + [c for _, c, _ in fired])]
        base = tm + (tm & -j)
        parts_lo: list[np.ndarray] = []
        parts_asc: list[np.ndarray] = []
        if nfull:
            lo = base[:nfull >> 1]
            parts_lo.append(lo)
            parts_asc.append((lo & k) == 0)
        for lo0, cnt, up in fired:
            parts_lo.append(base[:cnt] + lo0)
            parts_asc.append(np.full(cnt, up))
        if len(parts_lo) == 1:
            lo, asc = parts_lo[0], parts_asc[0]
        else:
            lo, asc = np.concatenate(parts_lo), np.concatenate(parts_asc)
        yield lo, lo + j, asc


def _pairs(nfull: int, fired: list[_Part]) -> int:
    """Comparators of one level of _plan."""
    return (nfull >> 1) + sum(cnt for _, cnt, _ in fired)


def sort_program(n: int) -> tuple[np.ndarray, int]:
    """The length-n network as one flat int64 program, and its comparator
    count.  The program is the level count, then per level of _plan j, k,
    nfull, the number of fired parts and each part's lo0, cnt, up; the
    native sort kernel expands it to the pairs sort_levels(n) yields."""
    prog, ncomp = [0], 0
    for j, k, nfull, fired in _plan(n):
        prog += (j, k, nfull, len(fired))
        for part in fired:
            prog += part
        prog[0] += 1
        ncomp += _pairs(nfull, fired)
    return np.array(prog, np.int64), ncomp


def comparator_count(n: int) -> int:
    """Total compare-exchanges the length-n sort performs."""
    return sum(_pairs(nfull, fired) for _, _, nfull, fired in _plan(n))


def route_hops(m: int) -> list[int]:
    """Hop distances of the length-m routing network, largest first.

    2^(ceil(log2 m) - 1) halving down to 1; empty for m < 2.
    """
    if m < 2:
        return []
    top = (m - 1).bit_length() - 1
    return [1 << t for t in range(top, -1, -1)]
