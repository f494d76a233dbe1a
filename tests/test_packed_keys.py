"""The vector join's packed sort keys against the paper's tuple keys.

Each packed key orders every pair of slots as its tuple key does, ties
included, so a sort on it leaves the tuple sort's permutation: each test
runs the kernel set's sort on both and compares the permutations.  The
first initial sort, on j alone, does change its permutation, so it is
held to equal tables after the second sort instead.  The distribution's
key differs from (is_null, f) in one case only, shown below: two null
entries whose f differ in bit 63 alone.
"""

import numpy as np
import pytest

from oblivjoin.harness import make_distribute_input
from oblivjoin.pipeline import oblivious_join
from oblivjoin.primitives import DistributeCollisionError, oblivious_distribute
from oblivjoin.trace import HashSink, NullSink

LENGTHS = [*range(71), 1000, 5400, 6000, 8000, 2**15]
KINDS = ("ties", "top", "full")
TOP = np.array([0, 1, 2**63, 2**64 - 1], np.uint64)
LOW = np.uint64(2**63 - 1)


def _values(rng, n, kind):
    """n uint64 values: tie-heavy (0 to 2), TOP's four, or uniform over
    64 bits."""
    if kind == "ties":
        return rng.integers(0, 3, n).astype(np.uint64)
    if kind == "top":
        return TOP[rng.integers(0, len(TOP), n)]
    return rng.integers(0, 2**64, n, dtype=np.uint64)


def _cases(seed):
    rng = np.random.default_rng(seed)
    for n in LENGTHS:
        for kind in KINDS:
            yield rng, n, kind


def _sorted_perm(kernels, keys):
    """The slot permutation that the kernel set's sort leaves on copies
    of keys."""
    perm = np.arange(len(keys[0]), dtype=np.int64)
    kernels.sort([col.copy() for col in keys], perm)
    return perm


def _stale(n):
    """n uint64 slots holding 7, for a kernel to overwrite."""
    return np.full(n, 7, np.uint64)


def test_rank_key_sorts_as_tid_j_d(kernels):
    # the second initial sort: (tid - 1) << 63 | r, r the dense rank of j
    # that the fill writes on a table sorted by j, then d
    for rng, n, kind in _cases(1):
        j = np.sort(_values(rng, n, kind))
        tid = rng.integers(1, 3, n).astype(np.uint64)
        d = _values(rng, n, kind)
        key = _stale(n)
        kernels.fill_dimensions(j, tid, _stale(n), _stale(n), key)
        rank = np.unique(j, return_inverse=True)[1].astype(np.uint64)
        assert np.array_equal(
            key, (tid - np.uint64(1)) << np.uint64(63) | rank), (n, kind)
        assert np.array_equal(_sorted_perm(kernels, [key, d]),
                              _sorted_perm(kernels, [tid, j, d])), (n, kind)


def _null_key(nul, f):
    """The distribution's key, is_null << 63 | f."""
    return nul << np.uint64(63) | f


def test_null_key_sorts_as_nonnull_f(kernels):
    # every live f below 2^63, as in each distribution of a join; every
    # null f too, and then null f anywhere, where the key sorts as
    # (is_null, f mod 2^63)
    for rng, n, kind in _cases(2):
        nul = (rng.random(n) < 0.3).astype(np.uint64)
        f = _values(rng, n, kind)
        for fs in (f & LOW, np.where(nul == 0, f & LOW, f)):
            assert np.array_equal(_sorted_perm(kernels, [_null_key(nul, fs)]),
                                  _sorted_perm(kernels, [nul, fs & LOW])), \
                (n, kind)


def test_null_key_ties_two_null_entries_apart_in_bit_63_alone(kernels):
    # the one pair that the key orders otherwise than (is_null, f) does:
    # it ties, so the network leaves it where (is_null, f) swaps it
    nul = np.ones(2, np.uint64)
    f = np.array([2**63, 0], np.uint64)
    key = _null_key(nul, f)
    assert key[0] == key[1]
    assert _sorted_perm(kernels, [key]).tolist() == [0, 1]
    assert _sorted_perm(kernels, [nul, f]).tolist() == [1, 0]


@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_live_f_past_2_to_63_still_raises(kernels, engine):
    # the key's g is 0 on such an entry, so it reaches no slot
    for f, m in (([2**63 + 1, 1], 2), ([2**63], 1), ([1, 2**64 - 1], 2),
                 ([2, 2**63 + 1, 1], 3)):
        with pytest.raises(DistributeCollisionError):
            oblivious_distribute(make_distribute_input(NullSink(), f), m,
                                 engine)


def _s2(rng, n, kind):
    """(j, alpha1, alpha2) of an S2 of n slots as an expansion leaves it:
    runs of equal j in ascending order, each of alpha1 * alpha2 slots,
    alpha1 a divisor of the run's length.  Runs of up to 25 slots on the
    keys 0, 1, 2, ...; at most four runs, on TOP's keys; or runs of up
    to 3 slots on keys spread over 64 bits."""
    if kind == "top":
        cuts = np.sort(rng.integers(0, n + 1, len(TOP) - 1))
        lengths = np.diff(cuts, prepend=0, append=n)
        keys = TOP
    else:
        lengths = rng.integers(1, 26 if kind == "ties" else 4, n + 1)
        lengths = lengths[:np.searchsorted(np.cumsum(lengths), n) + 1]
        lengths[-1] = n - lengths[:-1].sum()
        runs = len(lengths)
        if kind == "ties":
            keys = np.arange(runs, dtype=np.uint64)
        else:
            gaps = rng.integers(1, 2**64 // (runs + 1), runs,
                                dtype=np.uint64)
            keys = np.cumsum(gaps)
    a1 = []
    for size in lengths.tolist():
        divisors = [d for d in range(1, size + 1) if size % d == 0] or [1]
        a1.append(divisors[rng.integers(len(divisors))])
    a1 = np.array(a1, np.uint64)
    a2 = lengths.astype(np.uint64) // a1
    return tuple(np.repeat(col, lengths) for col in (keys, a1, a2))


def test_final_slot_key_sorts_as_j_ii(kernels):
    # the align sort: the run's first slot plus ii, which the align pass
    # writes beside ii, a permutation of the slots
    for rng, n, kind in _cases(3):
        j, a1, a2 = _s2(rng, n, kind)
        ii, key = _stale(n), _stale(n)
        assert kernels.align(j, a1, a2, ii, key), (n, kind)
        assert np.array_equal(np.sort(key), np.arange(n)), (n, kind)
        assert np.array_equal(_sorted_perm(kernels, [key]),
                              _sorted_perm(kernels, [j, ii])), (n, kind)


def test_first_sort_on_j_alone_leaves_the_tables_of_j_tid(kernels):
    # the first initial sort on j alone orders a run's tid 1 and tid 2
    # entries otherwise than (j, tid) does; the fill counts them in any
    # order, and the entries that then tie on (tid, j, d) are equal in
    # every column, so the second sort leaves one table
    for rng, n, kind in _cases(4):
        table = {"j": _values(rng, n, kind), "d": _values(rng, n, kind),
                 "tid": rng.integers(1, 3, n).astype(np.uint64)}
        results = []
        for first in (("j",), ("j", "tid")):
            perm = _sorted_perm(kernels, [table[name] for name in first])
            t = {name: col[perm] for name, col in table.items()}
            t["alpha1"], t["alpha2"] = _stale(n), _stale(n)
            m = kernels.fill_dimensions(t["j"], t["tid"], t["alpha1"],
                                        t["alpha2"], _stale(n))
            perm = _sorted_perm(kernels, [t["tid"], t["j"], t["d"]])
            results.append((m, {name: col[perm] for name, col in t.items()}))
        (m1, t1), (m2, t2) = results
        assert m1 == m2, (n, kind)
        for name in t1:
            assert np.array_equal(t1[name], t2[name]), (n, kind, name)


@pytest.mark.parametrize("sink_cls", [NullSink, HashSink])
def test_vector_join_sorts_on_packed_keys(kernels, monkeypatch, sink_cls):
    # the initial sorts, the two distributions and the align sort take 1,
    # 2, 1, 1 and 1 key copies, where the tuple keys would take 2, 3, 2,
    # 2 and 2
    widths = []
    sort = kernels.sort

    def recorded(keys, perm, *, emit=None):
        widths.append(len(keys))
        return sort(keys, perm, emit=emit)
    monkeypatch.setattr(kernels, "sort", recorded)
    t1 = np.array([(1, 10), (2, 11), (1, 12), (5, 13)], np.uint64)
    t2 = np.array([(1, 20), (2, 21), (2, 22), (7, 23)], np.uint64)
    res = oblivious_join(t1, t2, sink_cls())
    assert sorted(res.rows()) == [(10, 20), (11, 21), (11, 22), (12, 20)]
    assert widths == [1, 2, 1, 1, 1]
