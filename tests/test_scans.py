"""The native linear scans (fill, prefix, fold, align) against their numpy
bodies, their refusals, and the kernel call each join phase makes."""

import numpy as np
import pytest

from oblivjoin import _native
from oblivjoin.harness import make_distribute_input
from oblivjoin.pipeline import align_table, oblivious_join
from oblivjoin.primitives import oblivious_expand
from oblivjoin.trace import HashSink, LogSink, alloc

LENGTHS = [*range(301), 5400, 32768]
KINDS = ("ties", "sorted_ties", "distinct")
TOP = np.array([0, 1, 2**63, 2**64 - 1], np.uint64)


def _keys(rng, n, kind):
    """n uint64 keys: a few values in random or sorted order, or n
    distinct ones."""
    if kind == "distinct":
        return rng.permutation(n).astype(np.uint64) * np.uint64(2**50 + 1)
    keys = TOP[rng.integers(0, len(TOP), n)]
    return np.sort(keys) if kind == "sorted_ties" else keys


def _wild(rng, n):
    """n uint64 values anywhere in [0, 2^64)."""
    return rng.integers(0, 2**64, n, dtype=np.uint64)


def _copies(*arrays):
    return [a.copy() for a in arrays]


def _cases(seed):
    rng = np.random.default_rng(seed)
    for n in LENGTHS:
        for kind in KINDS:
            yield rng, n, kind


def test_fill_scan_matches_numpy_body(native):
    # tid outside {1, 2} and unsorted keys included; alpha1, alpha2 and
    # the sort key start as garbage, which both overwrite
    for rng, n, kind in _cases(1):
        j = _keys(rng, n, kind)
        tid = np.array([0, 1, 2, 3, 2**64 - 1], np.uint64)[
            rng.choice(5, n, p=[0.05, 0.45, 0.4, 0.05, 0.05])]
        a1, a2, key = _wild(rng, n), _wild(rng, n), _wild(rng, n)
        cols = _copies(j, tid, a1, a2, key)
        m = native.fill_dimensions(*cols)
        want = _copies(j, tid, a1, a2, key)
        assert m == _native.NUMPY.fill_dimensions(*want), (n, kind)
        for got, exp in zip(cols, want):
            assert np.array_equal(got, exp), (n, kind)


def test_align_scan_matches_numpy_body(native):
    # alpha1 varies within a key run; on sorted keys with alpha2 1, which
    # align accepts (ii = q // alpha1 + q % alpha1 <= q), and on wild
    # ones, which both refuse alike, writing nothing, or accept alike,
    # the products wrapping
    for rng, n, kind in _cases(2):
        ii, key = _wild(rng, n), _wild(rng, n)
        j = _keys(rng, n, kind)
        a1 = rng.integers(1, 5, n).astype(np.uint64)
        a1[rng.random(n) < 0.1] = _wild(rng, n)[:1] | np.uint64(1)
        for cols in ((np.sort(j), a1, np.ones(n, np.uint64)),
                     (j, a1, _wild(rng, n))):
            got, want = _copies(*cols, ii, key), _copies(*cols, ii, key)
            assert native.align(*got) == _native.NUMPY.align(*want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (n, kind)


def _counts(rng, n, kind):
    """n counts whose running sum fits in 64 bits: mostly zeros and ones,
    or distinct and large."""
    if kind == "distinct":
        return rng.permutation(n).astype(np.uint64) << np.uint64(30)
    return np.array([0, 0, 1, 3], np.uint64)[rng.integers(0, 4, n)]


@pytest.mark.parametrize("alias", [False, True], ids=["g", "g_is_f"])
def test_prefix_scan_matches_numpy_body(native, alias):
    # the null flags are 0 or wild bytes, and a null entry counts 0; with
    # alias, g is the f column itself (g_attr="f"), so each slot is read
    # before it is written
    for rng, n, kind in _cases(3):
        g, f = _counts(rng, n, kind), _wild(rng, n)
        nul = rng.integers(0, 256, n).astype(np.uint8)
        nul[rng.random(n) < 0.5] = 0
        if alias:
            f = g
        got, want = _copies(g, f, nul), _copies(g, f, nul)
        if alias:
            got[1], want[1] = got[0], want[0]
        m = native.prefix(*got)
        assert m == _native.NUMPY.prefix(*want), (n, kind)
        assert m == int(g[nul == 0].sum(dtype=np.uint64))
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (n, kind)


def test_fold_scan_matches_numpy_body(native):
    # perm holds anything in [-1, n), as after a route
    for rng, n, kind in _cases(4):
        g = _keys(rng, n, kind) % np.uint64(3)
        perm = rng.integers(-1, max(n, 1), n)
        got, want = _copies(g, perm), _copies(g, perm)
        native.fold(*got)
        _native.NUMPY.fold(*want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (n, kind)


# -- refusals, each before any write -----------------------------------------

@pytest.mark.parametrize("alias", [False, True], ids=["g", "g_is_f"])
def test_prefix_refuses_a_wrapping_sum_before_any_write(kernels, alias):
    for g in ([2**64 - 1, 1], [1, 2**64 - 1], [2**63, 0, 2**63, 5]):
        g = np.array(g, np.uint64)
        f = g if alias else np.arange(len(g), dtype=np.uint64)
        nul = np.zeros(len(g), np.uint8)  # live entries, whose g counts
        before = _copies(g, f, nul)
        assert kernels.prefix(g, f, nul) is None
        for a, b in zip((g, f, nul), before):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("alias", [False, True], ids=["g", "g_is_f"])
def test_prefix_counts_a_null_entry_as_zero(kernels, alias):
    # a null entry's g, 2^64 - 1 here, neither reserves slots nor wraps
    # the sum, and the entry stays null with f 0
    g = np.array([5, 2**64 - 1, 2, 0], np.uint64)
    f = g if alias else np.full(4, 9, np.uint64)
    nul = np.array([0, 3, 0, 0], np.uint8)
    assert kernels.prefix(g, f, nul) == 7
    assert (f.tolist(), nul.tolist()) == ([1, 0, 6, 0], [0, 1, 0, 1])


def test_align_refuses_a_zero_alpha1_before_any_write(kernels):
    j = np.zeros(5, np.uint64)
    a1 = np.array([1, 2, 3, 0, 1], np.uint64)
    a2 = np.ones(5, np.uint64)
    ii, key = np.full(5, 9, np.uint64), np.full(5, 9, np.uint64)
    assert not kernels.align(j, a1, a2, ii, key)
    assert ii.tolist() == key.tolist() == [9] * 5


def test_align_refuses_what_its_sort_key_cannot_order(kernels):
    # a key below the one before it, or an ii not below its run's length,
    # and nothing else: the run start plus ii orders the rest as (j, ii)
    cases = {  # (j, alpha1, alpha2): accepted
        ((0, 0, 0, 0), (2, 2, 2, 2), (2, 2, 2, 2)): True,  # ii 0, 2, 1, 3
        ((0, 0, 0), (1, 1, 1), (5, 5, 5)): True,  # alpha1 1: ii = q
        ((0, 0, 0), (2, 2, 2), (5, 5, 5)): False,  # q = 1 gets ii 5
        ((0, 0, 1), (2, 2, 1), (2, 2, 1)): False,  # ii 2 in a run of 2
        ((0, 0, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2), (1, 1, 2, 2, 2, 2)): True,
        ((3, 1, 1), (1, 1, 1), (1, 1, 1)): False,  # j falls at slot 1
        ((1, 2, 1), (1, 1, 1), (0, 0, 0)): False,  # and at slot 2
        ((2**64 - 1, 0), (1, 1), (0, 0)): False,
        ((0, 2**64 - 1), (1, 1), (0, 0)): True,
        ((0, 0), (3, 3), (2**63, 2**63)): False,  # q = 1 gets ii 2^63
    }
    for (j, a1, a2), accepted in cases.items():
        ii, key = np.full(len(j), 9, np.uint64), np.full(len(j), 9, np.uint64)
        cols = [np.array(c, np.uint64) for c in (j, a1, a2)]
        assert kernels.align(*cols, ii, key) == accepted, (j, a1, a2)
        if not accepted:
            assert ii.tolist() == key.tolist() == [9] * len(j)


def _check_scan_refusals(kernels):
    """Every bad call of a scan raises ValueError before any write."""
    u = np.arange(4, dtype=np.uint64)
    cols = [u + np.uint64(10 * k) for k in range(5)]
    before = _copies(*cols)
    nul = np.zeros(4, np.uint8)
    perm = np.arange(4, dtype=np.int64)
    bad = [
        lambda: kernels.fill_dimensions(cols[0], cols[1], cols[2], cols[2],
                                        cols[4]),  # alpha1 is alpha2
        lambda: kernels.fill_dimensions(cols[0], cols[1], cols[2], cols[3],
                                        cols[0]),  # the sort key is j
        lambda: kernels.fill_dimensions(cols[0], cols[1], cols[2][:3],
                                        cols[3], cols[4]),  # a short column
        lambda: kernels.fill_dimensions(cols[0], cols[1].astype(np.int64),
                                        cols[2], cols[3],
                                        cols[4]),  # a wrong dtype
        lambda: kernels.align(cols[0], cols[1], cols[2], cols[1],
                              cols[4]),  # ii is alpha1
        lambda: kernels.align(cols[0], cols[1], cols[2], cols[3],
                              cols[3]),  # the sort key is ii
        lambda: kernels.align(cols[0], cols[1], cols[2], cols[3][::-1],
                              cols[4]),  # not C-contiguous
        lambda: kernels.prefix(cols[0][1:], cols[0][:3],
                               nul[:3]),  # g overlaps f, but is not f
        lambda: kernels.prefix(cols[0], cols[1], nul.view(np.int8)),
        lambda: kernels.prefix(cols[0], cols[1], cols[1].view(np.uint8)[:4]),
        lambda: kernels.fold(cols[0], perm.astype(np.int32)),
        lambda: kernels.fold(cols[0], cols[0].view(np.int64)),  # shared
    ]
    for call in bad:
        with pytest.raises(ValueError):
            call()
        for a, b in zip(cols, before):
            assert np.array_equal(a, b)
        assert nul.tolist() == [0] * 4 and perm.tolist() == [0, 1, 2, 3]


def test_scan_argument_refusals_write_nothing(native):
    _check_scan_refusals(native)


def test_numpy_scans_refuse_what_the_c_scans_refuse():
    _check_scan_refusals(_native.NUMPY)


# -- the kernel call each join phase makes ------------------------------------

# (kernel method, the phase it runs under), in the order a join calls them
SCANS = [("fill_dimensions", "fill_dimensions"), ("prefix", "expand_prefix"),
         ("fold", "expand_fill"), ("prefix", "expand_prefix"),
         ("fold", "expand_fill"), ("align", "align_pass")]


def test_each_join_phase_runs_its_scan(kernels, monkeypatch):
    # on either path every linear pass is one call of the one kernel set,
    # in the phase of its pass
    sink = HashSink()
    calls = []

    def recorder(name, fn):
        def run(*args):
            calls.append((name, sink.phase))
            return fn(*args)
        return run
    for method in dict(SCANS):
        monkeypatch.setattr(kernels, method,
                            recorder(method, getattr(kernels, method)))
    t1 = np.array([(1, 10), (2, 11), (1, 12), (5, 13)], np.uint64)
    t2 = np.array([(1, 20), (2, 21), (2, 22), (7, 23)], np.uint64)
    res = oblivious_join(t1, t2, sink)
    assert sorted(res.rows()) == [(10, 20), (11, 21), (11, 22), (12, 20)]
    assert calls == SCANS


def test_phase_refusals_access_nothing(kernels):
    # align_table (an alpha1 of 0, a falling j, an ii past its group) and
    # oblivious_expand (with g_attr="f", g and f one column) refuse with
    # their messages on either path, and align_table on either engine,
    # having emitted, allocated and written nothing
    sink = LogSink()
    s2 = alloc(3, sink)
    s2.col("ii")[:] = 9
    for j, alpha1, alpha2 in (([0, 0, 0], [2, 0, 2], [1, 1, 1]),
                              ([3, 1, 1], [1, 1, 1], [0, 0, 0]),
                              ([0, 0, 0], [2, 2, 2], [5, 5, 5])):
        for name, col in (("j", j), ("alpha1", alpha1), ("alpha2", alpha2)):
            s2.col(name)[:] = col
        for engine in ("vector", "scalar"):
            with pytest.raises(ValueError,
                               match="alpha1 >= 1 on every entry, j "
                                     "ascending and each ii inside"):
                align_table(s2, engine)
            assert s2.col("ii").tolist() == [9] * 3
    x = make_distribute_input(sink, [2**64 - 1, 1, 5])
    with pytest.raises(ValueError, match="sum of f over 3 entries does not "
                                         "fit in 64 bits"):
        oblivious_expand(x, "f")
    assert x.col("f").tolist() == [2**64 - 1, 1, 5]
    assert x.col("is_null").tolist() == [0] * 3
    assert len(sink) == 0 and not sink.counts
    assert sink.peak_entries == 6
