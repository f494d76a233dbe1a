"""Plain (non-oblivious) join baselines.

nested_loop_join is the correctness oracle: small, obviously right,
quadratic.  sort_merge_join is the timing baseline: a vectorized
sort-merge whose inner product enumeration is done with numpy arithmetic
rather than a python loop, so benchmark comparisons measure the
algorithm, not interpreter overhead.

Both return the same multiset of (d1, d2) pairs as the oblivious engine;
orders differ, so comparisons go through sorted_pairs.
"""

from __future__ import annotations

import numpy as np

from .tablefile import as_rows

__all__ = ["nested_loop_join", "sort_merge_join", "sorted_pairs"]


def nested_loop_join(t1_rows, t2_rows) -> np.ndarray:
    """All (d1, d2) with matching join keys, by outer-product comparison.

    Row-major pair order: T1 index ascending, then T2 index.  O(n1*n2)
    space and time — this is the oracle, not a contender.
    """
    t1 = as_rows(t1_rows)
    t2 = as_rows(t2_rows)
    if len(t1) == 0 or len(t2) == 0:
        return np.empty((0, 2), np.uint64)
    hits = np.argwhere(t1[:, 0][:, None] == t2[:, 0][None, :])
    out = np.empty((len(hits), 2), np.uint64)
    out[:, 0] = t1[hits[:, 0], 1]
    out[:, 1] = t2[hits[:, 1], 1]
    return out


def sort_merge_join(t1_rows, t2_rows) -> np.ndarray:
    """Sort-merge equi-join, output grouped by key.

    Sorts both tables, intersects the key sets, and enumerates each
    group's alpha1 x alpha2 product with index arithmetic
    (O((n1+n2) log(n1+n2) + m)).
    """
    t1 = as_rows(t1_rows)
    t2 = as_rows(t2_rows)
    if len(t1) == 0 or len(t2) == 0:
        return np.empty((0, 2), np.uint64)
    d1 = t1[np.lexsort((t1[:, 1], t1[:, 0]))]
    d2 = t2[np.lexsort((t2[:, 1], t2[:, 0]))]
    k1, off1, c1 = np.unique(d1[:, 0], return_index=True, return_counts=True)
    k2, off2, c2 = np.unique(d2[:, 0], return_index=True, return_counts=True)
    _, i1, i2 = np.intersect1d(k1, k2, return_indices=True)
    a = c1[i1]
    b = c2[i2]
    ab = a * b
    total = int(ab.sum())
    if total == 0:
        return np.empty((0, 2), np.uint64)
    gid = np.repeat(np.arange(len(ab)), ab)
    first = np.concatenate(([0], np.cumsum(ab)[:-1]))
    q = np.arange(total) - first[gid]
    out = np.empty((total, 2), np.uint64)
    out[:, 0] = d1[off1[i1][gid] + q // b[gid], 1]
    out[:, 1] = d2[off2[i2][gid] + q % b[gid], 1]
    return out


def sorted_pairs(pairs) -> np.ndarray:
    """Canonical (lexicographically sorted) copy for multiset comparison."""
    arr = np.asarray(pairs, dtype=np.uint64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    return arr[order]
