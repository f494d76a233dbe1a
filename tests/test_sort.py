"""Sorting network schedule and the oblivious sort built on it."""

import re

import numpy as np
import pytest

from oblivjoin import _native, primitives
from oblivjoin._schedule import comparator_count, gp2, np2, route_hops, sort_levels
from oblivjoin.entries import KEY_J_TID, KEY_NONNULL_F, U64_FIELDS
from oblivjoin.primitives import bitonic_sort, compare_exchange
from oblivjoin.trace import HashSink, LogSink, NullSink, alloc


def net_sort(values):
    """Run the raw comparator schedule over a plain array."""
    v = np.array(values)
    for lo, hi, asc in sort_levels(len(v)):
        a, b = v[lo], v[hi]
        swap = np.where(asc, a > b, a < b)
        v[lo] = np.where(swap, b, a)
        v[hi] = np.where(swap, a, b)
    return v


def test_np2_gp2():
    assert [np2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 4, 4, 8, 8, 16]
    assert [gp2(n) for n in (2, 3, 4, 5, 8, 9)] == [1, 2, 2, 4, 4, 8]


def test_network_sorts_every_length_up_to_65(rng):
    for n in range(66):
        for _ in range(20):
            v = rng.integers(0, max(4, 2 * n), size=n)
            assert np.array_equal(net_sort(v), np.sort(v)), f"n={n}"


def test_network_sorts_adversarial_patterns():
    for n in (3, 5, 7, 12, 33, 63):
        patterns = [
            np.arange(n)[::-1],            # reversed
            np.zeros(n, int),              # constant
            np.r_[np.arange(n // 2), np.arange(n - n // 2)[::-1]],  # organ pipe
        ]
        for v in patterns:
            assert np.array_equal(net_sort(v), np.sort(v)), (n, v)


def test_power_of_two_comparator_count_formula():
    # k(k+1)/4 * 2^k comparators for n = 2^k: the classical network
    for k in range(1, 9):
        n = 1 << k
        assert comparator_count(n) == (k * (k + 1) * n) // 4


def test_levels_are_disjoint_and_canonical():
    for n in (7, 24, 31, 64):
        for lo, hi, asc in sort_levels(n):
            idx = np.concatenate([lo, hi])
            assert len(np.unique(idx)) == len(idx)
            assert (lo < hi).all()
            assert (np.diff(lo) > 0).all()  # ascending in lo
            assert len(asc) == len(lo)


def test_schedule_is_deterministic():
    a = [(lo.tolist(), hi.tolist(), asc.tolist()) for lo, hi, asc in sort_levels(37)]
    b = [(lo.tolist(), hi.tolist(), asc.tolist()) for lo, hi, asc in sort_levels(37)]
    assert a == b


def test_route_hops_values():
    assert route_hops(8) == [4, 2, 1]
    assert route_hops(5) == [4, 2, 1]
    assert route_hops(2) == [1]
    assert route_hops(1) == []
    assert route_hops(0) == []


def _fill(a, j_vals, tid_vals=None):
    n = len(j_vals)
    a.col("j")[:, :n] = np.asarray(j_vals, np.uint64)
    if tid_vals is not None:
        a.col("tid")[:, :n] = np.asarray(tid_vals, np.uint64)
    a.col("d")[:, :n] = np.arange(n, dtype=np.uint64)
    a.col("is_null")[:, :n] = 0


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_sort_orders_by_lexicographic_key(engine, rng):
    for n in (1, 2, 5, 16, 23):
        a = alloc(n, NullSink())
        j = rng.integers(0, 4, n)
        tid = rng.integers(1, 3, n)
        _fill(a, j, tid)
        bitonic_sort(a, KEY_J_TID, engine)
        got = [(e.j, e.tid) for e in a.debug_entries()]
        assert got == sorted(got)


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_sort_nonnull_key_front_loads_real_entries(engine):
    a = alloc(5, NullSink())
    # slots 1 and 3 stay null
    a.col("is_null")[:, [0, 2, 4]] = 0
    a.col("f")[:, [0, 2, 4]] = [3, 1, 2]
    bitonic_sort(a, KEY_NONNULL_F, engine)
    ents = a.debug_entries()
    assert [e.is_null for e in ents] == [0, 0, 0, 1, 1]
    assert [e.f for e in ents[:3]] == [1, 2, 3]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("key", [("j", "nonnull"), (("j", True),)],
                         ids=["unknown-name", "name-direction-pair"])
def test_sort_rejects_a_key_that_names_no_column(engine, key):
    # refused before the first access, on either engine
    s = LogSink()
    a = alloc(3, s)
    _fill(a, [2, 1, 0])
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        bitonic_sort(a, key, engine)
    assert list(s.events()) == []
    assert a.debug_col("j").tolist() == [[2, 1, 0]]


def test_compare_exchange_rejects_a_key_that_names_no_column():
    # refused before either read, as bitonic_sort refuses it
    s = LogSink()
    with pytest.raises(ValueError, match=re.escape(repr(("x",)))):
        compare_exchange(alloc(2, s), 0, 1, ("x",))
    assert len(s) == 0
    assert s.counts == {}


def test_sort_rejects_an_unknown_engine():
    s = LogSink()
    a = alloc(3, s)
    with pytest.raises(ValueError, match="unknown engine 'numpy'"):
        bitonic_sort(a, KEY_J_TID, "numpy")
    assert len(s) == 0


def test_trace_depends_only_on_length(rng):
    digests = set()
    for _ in range(20):
        s = HashSink()
        a = alloc(13, s)
        _fill(a, rng.permutation(13))
        h0 = s.digest
        bitonic_sort(a, KEY_J_TID)
        assert s.digest != h0
        digests.add(s.digest)
    assert len(digests) == 1


@pytest.mark.parametrize("n", [1, 3, 8, 21])
def test_scalar_and_vector_engines_agree(n, rng):
    j = rng.integers(0, 6, n)
    outs, digs = [], []
    for engine in ("scalar", "vector"):
        s = HashSink()
        a = alloc(n, s)
        _fill(a, j)
        bitonic_sort(a, KEY_J_TID, engine)
        outs.append([(e.j, e.d) for e in a.debug_entries()])
        digs.append(s.digest)
    assert outs[0] == outs[1]
    assert digs[0] == digs[1]


ALL_COLS = U64_FIELDS + ("is_null",)


def _fill_distinct(a, row, j_vals):
    # j from a small range (heavy ties), every other column distinct per
    # slot, so the order of tied entries shows in all of them
    n = len(j_vals)
    a.col("j")[row] = np.asarray(j_vals, np.uint64)
    for c, name in enumerate(("d", "alpha1", "alpha2", "f", "ii"), 1):
        a.col(name)[row] = np.arange(n, dtype=np.uint64) * np.uint64(c) + \
            np.uint64(1000 * c)
    a.col("is_null")[row] = 0


def _sorted_by_engine(n, engine, rows, fill, key):
    s = HashSink()
    a = alloc(n, s, batch=len(rows))
    for r, vals in enumerate(rows):
        fill(a, r, vals)
    bitonic_sort(a, key, engine)
    return {name: a.debug_col(name) for name in ALL_COLS}, s.digest


@pytest.mark.parametrize("n", [100, 257, 1000])
def test_engines_agree_on_ragged_lengths_with_ties(n, rng):
    # ragged lengths split power-of-two sub-merges off multi-level tails;
    # ties on j make every non-key column show the exact swap sequence.
    # Row r of one batch=3 vector run must equal the scalar run of row r.
    rows = [rng.integers(0, 6, n) for _ in range(3)]
    vec, vdig = _sorted_by_engine(n, "vector", rows, _fill_distinct,
                                  KEY_J_TID)
    for r, j in enumerate(rows):
        sca, sdig = _sorted_by_engine(n, "scalar", [j], _fill_distinct,
                                      KEY_J_TID)
        assert sdig == vdig
        for name in ALL_COLS:
            assert np.array_equal(sca[name][0], vec[name][r]), (r, name)
    assert (np.diff(vec["j"].astype(np.int64), axis=1) >= 0).all()


def _fill_nulls(a, row, null_vals):
    # null slots keep distinct contents: KEY_NONNULL_F ties all of them
    n = len(null_vals)
    null = np.asarray(null_vals, np.uint8)
    _fill_distinct(a, row, np.zeros(n, int))
    a.col("f")[row] = np.where(null, 0, np.arange(n) % 4 + 1)
    a.col("is_null")[row] = null


@pytest.mark.parametrize("n", [100, 257])
def test_engines_agree_on_nonnull_key_with_distinct_nulls(n, rng):
    nulls = rng.integers(0, 2, n)
    sca, sdig = _sorted_by_engine(n, "scalar", [nulls], _fill_nulls,
                                  KEY_NONNULL_F)
    vec, vdig = _sorted_by_engine(n, "vector", [nulls], _fill_nulls,
                                  KEY_NONNULL_F)
    assert sdig == vdig
    for name in ALL_COLS:
        assert np.array_equal(sca[name], vec[name]), name
    real = int((nulls == 0).sum())
    assert (vec["is_null"][0, :real] == 0).all()
    assert (vec["is_null"][0, real:] == 1).all()
    # the null block holds the null slots' distinct d values, permuted
    assert sorted(vec["d"][0, real:]) == sorted(
        1000 + np.flatnonzero(nulls == 1))


def test_compare_exchange_event_pattern():
    s = LogSink()
    a = alloc(2, s)
    _fill(a, [5, 3])
    bitonic_sort(a, KEY_J_TID)
    evs = list(s.events())
    assert [(e.op, e.index) for e in evs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_sort_of_view_touches_only_the_view():
    s = LogSink()
    a = alloc(10, s)
    _fill(a, [9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
    v = a.view(2, 5)
    bitonic_sort(v, KEY_J_TID)
    idxs = {ev.index for ev in s.events()}
    assert idxs <= set(range(2, 7))
    assert [e.j for e in a.debug_entries()][2:7] == [3, 4, 5, 6, 7]
    # outside the view untouched
    assert [e.j for e in a.debug_entries()][:2] == [9, 8]
    assert [e.j for e in a.debug_entries()][7:] == [2, 1, 0]


def test_sort_batched_rows_sort_independently(rng):
    s = HashSink()
    a = alloc(12, s, batch=4)
    j = rng.integers(0, 9, size=(4, 12)).astype(np.uint64)
    a.col("j")[:] = j
    a.col("is_null")[:] = 0
    bitonic_sort(a, KEY_J_TID)
    out = a.debug_col("j")
    assert np.array_equal(out, np.sort(j, axis=1))


# -- the native level kernel against the numpy level -------------------------

U64_MAX = 2**64 - 1


def _level_keys(rng, batch, n):
    """Key copies in bitonic_sort's layout: heavy ties on the first key,
    a second key whose top values only an unsigned compare orders, and a
    third key to break what ties remain; rows differ."""
    top = np.array([0, 1, 2**63, U64_MAX], np.uint64)
    return [rng.integers(0, 3, (batch, n), dtype=np.uint64),
            top[rng.integers(0, 4, (batch, n))],
            rng.integers(0, 2, (batch, n), dtype=np.uint64)]


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 7, 64, 100, 257, 1024])
def test_level_kernel_matches_numpy_level(n, batch, native, rng):
    # level by level, the kernel leaves the same keys and permutation
    keys = _level_keys(rng, batch, n)
    runs = []
    for _ in range(2):
        copies = [col.copy() for col in keys]
        perm = np.tile(np.arange(n, dtype=np.int64), (batch, 1))
        runs.append((copies, perm))
    (ck, cperm), (nk, nperm) = runs
    level = native.levels(ck, cperm)
    for lo, hi, asc in sort_levels(n):
        level(lo, hi, asc)
        primitives._ce_level_vector(nk, nperm, lo, hi, asc)
        assert np.array_equal(cperm, nperm)
        for c, v in zip(ck, nk):
            assert np.array_equal(c, v)
    # and the permutation sorts each row by (key 0, key 1, key 2)
    k0, k1, k2 = keys
    for r in range(batch):
        rows = [(int(k0[r, p]), int(k1[r, p]), int(k2[r, p]))
                for p in cperm[r]]
        assert rows == sorted(rows)


def test_level_kernel_rejects_bad_level_arrays(native):
    # every bad level is refused before the kernel writes anything
    keys = [np.array([[4, 3, 2, 1]], np.uint64)]
    perm = np.array([[0, 1, 2, 3]], np.int64)
    level = native.levels(keys, perm)
    lo, hi, asc = np.array([0, 1]), np.array([2, 3]), np.array([True, False])
    level(lo, hi, asc)
    assert perm.tolist() == [[2, 1, 0, 3]]
    for args in ((lo.astype(np.int32), hi, asc),          # not int64
                 (lo, np.array([2, 0, 3, 0])[::2], asc),  # not contiguous
                 (lo, hi, asc.astype(np.uint8)),          # not bool
                 (lo, hi, asc[:1]),                       # short
                 (lo, hi + 1, asc),                       # past the end
                 (lo - 1, hi, asc)):                      # negative
        with pytest.raises(ValueError):
            level(*args)
    assert perm.tolist() == [[2, 1, 0, 3]]
    assert keys[0].tolist() == [[2, 3, 4, 1]]
    with pytest.raises(ValueError):
        native.levels([np.zeros((1, 4), np.int64)], perm)
    with pytest.raises(ValueError, match="shapes differ"):
        native.levels([np.zeros((1, 3), np.uint64)], perm)


def _sorted_on(kernel, monkeypatch, n, rows, fill, key):
    monkeypatch.setattr(_native, "kernel", lambda: kernel)
    return _sorted_by_engine(n, "vector", rows, fill, key)


@pytest.mark.parametrize("n", [100, 128, 257])
def test_bitonic_sort_paths_agree(n, native, native_loads, monkeypatch, rng):
    # the whole vector sort on each path, batch rows that differ: ties on
    # j, the uint8 null flag under KEY_NONNULL_F, a second key on d
    cases = [([rng.integers(0, 6, n) for _ in range(3)], _fill_distinct,
              KEY_J_TID),
             ([rng.integers(0, 2, n) for _ in range(3)], _fill_nulls,
              KEY_NONNULL_F),
             ([rng.integers(0, 6, n) for _ in range(2)], _fill_distinct,
              ("j", "d"))]
    for rows, fill, key in cases:
        c_cols, c_dig = _sorted_on(native, monkeypatch, n, rows, fill, key)
        n_cols, n_dig = _sorted_on(native_loads["fallback"], monkeypatch, n,
                                   rows, fill, key)
        assert c_dig == n_dig
        for name in ALL_COLS:
            assert np.array_equal(c_cols[name], n_cols[name]), (key, name)
