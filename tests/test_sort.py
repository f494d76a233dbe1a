"""Sorting network schedule and the oblivious sort built on it."""

import re

import numpy as np
import pytest

from oblivjoin import _native
from oblivjoin._schedule import (comparator_count, np2, route_hops,
                                 sort_levels, sort_program)
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


def test_np2():
    assert [np2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 4, 4, 8, 8, 16]


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


@pytest.mark.parametrize("lengths", [range(601), (2**14, 2**17, 10**6 - 1)],
                         ids=["0-600", "large"])
def test_comparator_count_reads_the_plan_of_sort_levels(lengths):
    for n in lengths:
        want = sum(len(lo) for lo, _, _ in sort_levels(n))
        assert comparator_count(n) == want, n
        assert sort_program(n)[1] == want, n


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
    a.col("j")[:n] = np.asarray(j_vals, np.uint64)
    if tid_vals is not None:
        a.col("tid")[:n] = np.asarray(tid_vals, np.uint64)
    a.col("d")[:n] = np.arange(n, dtype=np.uint64)
    a.col("is_null")[:n] = 0


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
    a.col("is_null")[[0, 2, 4]] = 0
    a.col("f")[[0, 2, 4]] = [3, 1, 2]
    bitonic_sort(a, KEY_NONNULL_F, engine)
    ents = a.debug_entries()
    assert [e.is_null for e in ents] == [0, 0, 0, 1, 1]
    assert [e.f for e in ents[:3]] == [1, 2, 3]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("key", [("j", "nonnull"), (("j", True),), "jd"],
                         ids=["unknown-name", "name-direction-pair",
                              "string"])
def test_sort_rejects_a_key_that_names_no_column(engine, key):
    # refused before the first access, on either engine
    s = LogSink()
    a = alloc(3, s)
    _fill(a, [2, 1, 0])
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        bitonic_sort(a, key, engine)
    assert list(s.events()) == []
    assert a.debug_col("j").tolist() == [2, 1, 0]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("key", [(), ("j", "tid", "d", "f")],
                         ids=["empty", "four-columns"])
def test_sort_rejects_a_key_of_no_or_more_than_three_columns(engine, key):
    # the sort kernel has bodies for 1 to 3 keys; refused before the first
    # access, on either engine
    s = LogSink()
    a = alloc(3, s)
    _fill(a, [2, 1, 0])
    with pytest.raises(ValueError, match="1 to 3"):
        bitonic_sort(a, key, engine)
    assert list(s.events()) == []
    assert a.debug_col("j").tolist() == [2, 1, 0]


def test_compare_exchange_rejects_a_key_that_names_no_column():
    # refused before either read, as bitonic_sort refuses it; a string is
    # no KeySpec, even where its characters name columns
    for key in (("x",), "jd"):
        s = LogSink()
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            compare_exchange(alloc(2, s), 0, 1, key)
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


def _fill_distinct(a, j_vals):
    # j from a small range (heavy ties), every other column distinct per
    # slot, so the order of tied entries shows in all of them
    n = len(j_vals)
    a.col("j")[:] = np.asarray(j_vals, np.uint64)
    for c, name in enumerate(("d", "alpha1", "alpha2", "f", "ii"), 1):
        a.col(name)[:] = np.arange(n, dtype=np.uint64) * np.uint64(c) + \
            np.uint64(1000 * c)
    a.col("is_null")[:] = 0


def _sorted_by_engine(n, engine, vals, fill, key):
    s = HashSink()
    a = alloc(n, s)
    fill(a, vals)
    bitonic_sort(a, key, engine)
    return {name: a.debug_col(name) for name in ALL_COLS}, s.digest


@pytest.mark.parametrize("n", [100, 257, 1000])
def test_engines_agree_on_ragged_lengths_with_ties(n, rng):
    # ragged lengths split power-of-two sub-merges off multi-level tails;
    # ties on j make every non-key column show the exact swap sequence.
    # Each vector run must equal the scalar run of its input.
    for _ in range(3):
        j = rng.integers(0, 6, n)
        vec, vdig = _sorted_by_engine(n, "vector", j, _fill_distinct,
                                      KEY_J_TID)
        sca, sdig = _sorted_by_engine(n, "scalar", j, _fill_distinct,
                                      KEY_J_TID)
        assert sdig == vdig
        for name in ALL_COLS:
            assert np.array_equal(sca[name], vec[name]), name
        assert (np.diff(vec["j"].astype(np.int64)) >= 0).all()


def _fill_nulls(a, null_vals):
    # null slots keep distinct contents: KEY_NONNULL_F ties all of them
    n = len(null_vals)
    null = np.asarray(null_vals, np.uint8)
    _fill_distinct(a, np.zeros(n, int))
    a.col("f")[:] = np.where(null, 0, np.arange(n) % 4 + 1)
    a.col("is_null")[:] = null


@pytest.mark.parametrize("n", [100, 257])
def test_engines_agree_on_nonnull_key_with_distinct_nulls(n, rng):
    nulls = rng.integers(0, 2, n)
    sca, sdig = _sorted_by_engine(n, "scalar", nulls, _fill_nulls,
                                  KEY_NONNULL_F)
    vec, vdig = _sorted_by_engine(n, "vector", nulls, _fill_nulls,
                                  KEY_NONNULL_F)
    assert sdig == vdig
    for name in ALL_COLS:
        assert np.array_equal(sca[name], vec[name]), name
    real = int((nulls == 0).sum())
    assert (vec["is_null"][:real] == 0).all()
    assert (vec["is_null"][real:] == 1).all()
    # the null block holds the null slots' distinct d values, permuted
    assert sorted(vec["d"][real:]) == sorted(
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


# -- the native sort kernel against the numpy level -------------------------

U64_MAX = 2**64 - 1


def _kernel_keys(rng, n, nkeys):
    """Key copies in bitonic_sort's layout: heavy ties on the first key,
    a second key whose top values only an unsigned compare orders, and a
    third key to break what ties remain."""
    top = np.array([0, 1, 2**63, U64_MAX], np.uint64)
    return [rng.integers(0, 3, n, dtype=np.uint64),
            top[rng.integers(0, 4, n)],
            rng.integers(0, 2, n, dtype=np.uint64)][:nkeys]


def _sorts_by_keys(perm, keys):
    """Whether the permutation orders the keys lexicographically."""
    rows = list(zip(*(col[perm].tolist() for col in keys)))
    return rows == sorted(rows)


@pytest.mark.parametrize("nkeys", [1, 2, 3])
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 7, 64, 100, 257, 1024, 2000, 5400, 6000,
                               8000])
def test_sort_kernel_matches_numpy_levels(n, trials, nkeys, native, rng):
    # one kernel call leaves the keys and permutation that the numpy level
    # leaves after every level of sort_levels, on each of trials inputs
    for _ in range(trials):
        keys = _kernel_keys(rng, n, nkeys)
        ck, nk = [col.copy() for col in keys], [col.copy() for col in keys]
        cperm = np.arange(n, dtype=np.int64)
        nperm = cperm.copy()
        assert native.sort(ck, cperm) == comparator_count(n)
        for lo, hi, asc in sort_levels(n):
            _native._ce_level_vector(nk, nperm, lo, hi, asc)
        assert np.array_equal(cperm, nperm)
        for c, v in zip(ck, nk):
            assert np.array_equal(c, v)
        assert _sorts_by_keys(cperm, keys)


def _program_levels(n):
    """The levels of sort_program(n), each as its entries j, k, nfull,
    nparts and then lo0, cnt, up per part."""
    prog, at = sort_program(n)[0].tolist(), 1
    for _ in range(prog[0]):
        end = at + 4 + 3 * prog[at + 3]
        yield prog[at:end]
        at = end


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 7, 64, 100, 257, 1024])
def test_level_kernel_matches_numpy_level(n, trials, native, rng):
    # level by level, a one-level program leaves the same keys and
    # permutation in the kernel as the numpy level does, and the kernel
    # counts that level of sort_levels's comparators, on each of trials
    # inputs
    for _ in range(trials):
        keys = _kernel_keys(rng, n, 3)
        ck, nk = [col.copy() for col in keys], [col.copy() for col in keys]
        cperm = np.arange(n, dtype=np.int64)
        nperm = cperm.copy()
        for level, (lo, hi, asc) in zip(
                _program_levels(n), sort_levels(n), strict=True):
            prog = np.array([1, *level], np.int64)
            assert native._sort(ck, cperm, prog) == len(lo)
            _native._ce_level_vector(nk, nperm, lo, hi, asc)
            assert np.array_equal(cperm, nperm)
            for c, v in zip(ck, nk):
                assert np.array_equal(c, v)
        assert _sorts_by_keys(cperm, keys)


def _expand_program(prog):
    """The levels (lo, hi, asc) of a sort program that the kernel accepts,
    expanded as sort_program documents them, without sort_levels."""
    at = 1
    for _ in range(prog[0]):
        j, k, nfull, nparts = prog[at:at + 4]
        parts = [(0, nfull >> 1, None)] + [
            tuple(prog[at + 4 + 3 * q:at + 7 + 3 * q]) for q in range(nparts)]
        at += 4 + 3 * nparts
        lo, asc = [], []
        for lo0, cnt, up in parts:
            t = np.arange(cnt, dtype=np.int64)
            lo.append(lo0 + t + (t & -j))
            asc.append((lo[-1] & k) == 0 if up is None
                       else np.full(cnt, up == 1))
        lo = np.concatenate(lo)
        yield lo, lo + j, np.concatenate(asc)


def _fused_variants(window):
    """Three-level programs from three consecutive levels of a sort
    program: the window itself and, where it is hops 4, 2 and 1 of a
    stage with complete blocks, the window with its last level's k
    doubled, with every nfull cut by 4 (no whole 8-slot blocks), and with
    the middle level's nfull cut by 8 (a different block count)."""
    yield window
    if [level[0] for level in window] != [4, 2, 1] or window[0][2] < 8:
        return

    def changed(entry, by, levels):
        variant = [list(level) for level in window]
        for at in levels:
            variant[at][entry] += by
        return variant
    yield changed(1, window[2][1], [2])
    yield changed(2, -4, [0, 1, 2])
    yield changed(2, -8, [1])


@pytest.mark.parametrize("n", [64, 1000, 5400])
def test_sort_kernel_fuses_only_whole_stages(n, native, rng):
    # every three consecutive levels of sort_program(n), among them hops
    # 4, 2 and 1 of each stage, which the AVX2 body runs as one pass of
    # 8-slot blocks, and variants of those that it must run as spans,
    # leave the keys and permutation of the numpy levels
    levels = list(_program_levels(n))
    for first in range(len(levels) - 2):
        for window in _fused_variants(levels[first:first + 3]):
            prog = [3] + [entry for level in window for entry in level]
            for nkeys in (1, 2, 3):
                keys = _kernel_keys(rng, n, nkeys)
                ck, nk = ([col.copy() for col in keys] for _ in range(2))
                cperm = np.arange(n, dtype=np.int64)
                nperm = cperm.copy()
                native._sort(ck, cperm, np.array(prog, np.int64))
                for lo, hi, asc in _expand_program(prog):
                    _native._ce_level_vector(nk, nperm, lo, hi, asc)
                assert np.array_equal(cperm, nperm), (first, window)
                for c, v in zip(ck, nk):
                    assert np.array_equal(c, v), (first, window)


def _sort_arrays():
    """A sort's keys and permutation on four slots, keys descending."""
    return [np.array([4, 3, 2, 1], np.uint64)], \
        np.array([0, 1, 2, 3], np.int64)


def _check_refusals(call, bad):
    """Every call(*args) of the args in bad, whose first two are the keys
    and the permutation, is refused before it writes anything."""
    for name, args in bad.items():
        arrays = [*args[0], args[1]]
        before = [col.copy() for col in arrays]
        with pytest.raises(ValueError):
            call(*args)
        for col, old in zip(arrays, before):
            assert np.array_equal(col, old), name


def _bad_sort_arrays(keys, perm):
    """name -> (keys, perm) that no sort takes, from four-slot arrays."""
    return {
        "no keys": ([], perm),
        "four keys": ([keys[0].copy() for _ in range(4)], perm),
        "int64 key": ([keys[0].astype(np.int64)], perm),
        "int32 permutation": (keys, perm.astype(np.int32)),
        "key shape": ([np.zeros(3, np.uint64)], perm),
        "2-d arrays": ([keys[0][None]], perm[None]),
        "non-contiguous key": ([np.zeros(8, np.uint64)[::2]], perm),
    }


def _check_sort_refusals(kernels):
    """Every bad array of a sort is refused before it writes anything."""
    keys, perm = _sort_arrays()
    _check_refusals(kernels.sort, _bad_sort_arrays(keys, perm))
    assert kernels.sort(keys, perm) == comparator_count(4)
    assert perm.tolist() == [3, 2, 1, 0]


def test_sort_kernel_rejects_bad_programs(native):
    # the bad arrays, through sort and through _sort on a program that
    # fits, and the programs that check_program refuses, through _sort
    _check_sort_refusals(native)
    keys, perm = _sort_arrays()
    prog = np.array([1, 2, 4, 4, 0], np.int64)  # j = 2 over 4 slots
    native._sort(keys, perm, prog)
    assert perm.tolist() == [2, 3, 0, 1]

    def level(j, nfull, *parts):
        return np.array([1, j, 2 * j, nfull, len(parts),
                         *(v for p in parts for v in p)], np.int64)

    keys, perm = _sort_arrays()
    native._sort(keys, perm, level(1, 0, (1, 1, 1)))  # one pair, (1, 2)
    assert perm.tolist() == [0, 2, 1, 3]
    bad = {name: (*arrays, prog)
           for name, arrays in _bad_sort_arrays(keys, perm).items()}
    bad.update({
        "part past the end": (keys, perm, level(1, 0, (2, 2, 1))),
        # nfull fits the 6 slots, but not as blocks of 2j = 8
        "blocks past the end": ([np.arange(6, 0, -1, dtype=np.uint64)],
                                np.arange(6, dtype=np.int64), level(4, 6)),
        "blocks longer than the array": (keys, perm, level(1, 8)),
        "j = 0": (keys, perm, level(0, 0, (0, 1, 1))),
        "j not a power of two": (keys, perm, level(3, 0, (0, 1, 1))),
        # the pair (0, 1) fits, but a run of pairs needs k a power of two
        # and at least 2j, or the block of k slots it lies in is unclear
        "k = 0": (keys, perm, np.array([1, 1, 0, 0, 1, 0, 1, 1], np.int64)),
        "k = 1": (keys, perm, np.array([1, 1, 1, 2, 0], np.int64)),
        "k not a power of two": (keys, perm,
                                 np.array([1, 1, 3, 2, 0], np.int64)),
        "k below 2j": (keys, perm, np.array([1, 2, 2, 4, 0], np.int64)),
        "negative lo0": (keys, perm, level(1, 0, (-1, 1, 1))),
        "negative count": (keys, perm, level(1, 0, (0, -1, 1))),
        "levels past the program": (keys, perm, prog[:4]),
        "parts past the program": (keys, perm, level(1, 0, (0, 1, 1))[:-1]),
        "empty program": (keys, perm, prog[:0]),
        "int32 program": (keys, perm, prog.astype(np.int32)),
        "2-d program": (keys, perm, prog[None]),
    })
    _check_refusals(native._sort, bad)
    assert perm.tolist() == [0, 2, 1, 3]
    assert keys[0].tolist() == [4, 2, 3, 1]


def test_numpy_sort_rejects_what_the_kernel_rejects():
    # the numpy body checks the arrays with the kernel's check; it takes
    # no program, so it has no program to refuse
    _check_sort_refusals(_native.NUMPY)
    _check_shared_memory_refusals(_native.NUMPY)


def _check_shared_memory_refusals(kernels):
    """Keys and a permutation that share a buffer are refused before any
    write."""
    key = np.array([4, 3, 2, 1], np.uint64)
    perm = np.arange(4, dtype=np.int64)
    for keys, p in (([key, key], perm),
                    ([key, key[:]], perm),
                    ([perm.view(np.uint64)], perm)):
        before = [col.copy() for col in (*keys, p)]
        with pytest.raises(ValueError, match="share memory"):
            kernels.sort(keys, p)
        for col, old in zip((*keys, p), before):
            assert np.array_equal(col, old)
    kernels.sort([key, key.copy()], perm)
    assert perm.tolist() == [3, 2, 1, 0]


def test_sort_kernel_refuses_arrays_that_share_memory(native):
    # the kernel takes the keys and the permutation as restrict pointers,
    # so two of them on one buffer are refused before any write
    _check_shared_memory_refusals(native)


def test_sort_program_is_built_once_per_length():
    prog, ncomp = sort_program(100)
    assert sort_program(100)[0] is prog
    assert not prog.flags.writeable
    with pytest.raises(ValueError):
        prog[0] = 0
    assert comparator_count(100) == ncomp


def test_sort_levels_builds_no_network_of_its_own():
    # walking sort_levels reads the cached program: one build per length
    lengths = (1, 5, 100, 257, 5400, 5, 100, 5400)
    sort_program.cache_clear()
    for n in lengths:
        for _ in sort_levels(n):
            pass
    assert sort_program.cache_info().misses == len(set(lengths))


PAIRS_LENGTHS = [0, 1, 2, 3, 5, 7, 100, 257, 1000, 5400, 8193, 100003]


def _network_pairs(n):
    """sort_levels(n)'s lo and hi, each concatenated over the levels, and
    the first pair of every level and every part of a level."""
    levels = list(sort_levels(n))
    lo = np.concatenate([np.zeros(0, np.int64)] + [l for l, _, _ in levels])
    hi = np.concatenate([np.zeros(0, np.int64)] + [h for _, h, _ in levels])
    starts, at = [], 0
    for level in _program_levels(n):
        for cnt in (level[2] >> 1, *level[5::3]):
            starts.append(at)
            at += cnt
    assert at == len(lo)
    return lo, hi, starts


@pytest.mark.parametrize("n", PAIRS_LENGTHS)
def test_pairs_kernel_splits_into_the_network_pairs(n, native, rng):
    # every split of [0, ncomp) into ranges, each one kernel call, tiles
    # sort_levels(n)'s pairs in order
    want_lo, want_hi, starts = _network_pairs(n)
    prog, ncomp = sort_program(n)
    assert ncomp == len(want_lo)
    cuts = np.unique(rng.integers(0, ncomp + 1, 40))
    splits = {
        "one range": [0, ncomp],
        "ranges of 8192": [*range(0, ncomp, 8192), ncomp],
        "random cuts": [0, *cuts.tolist(), ncomp],
    }
    if ncomp <= 30_000:
        splits["ranges of 1"] = list(range(ncomp + 1))
    for name, bounds in splits.items():
        got_lo = np.full(ncomp, -7, np.int64)
        got_hi = np.full(ncomp, -7, np.int64)
        for start, end in zip(bounds, bounds[1:]):
            lo, hi = np.full(end - start, -7, np.int64), \
                np.full(end - start, -7, np.int64)
            native._pairs(prog, n, start, end - start, lo, hi)
            got_lo[start:end], got_hi[start:end] = lo, hi
        assert np.array_equal(got_lo, want_lo), (n, name)
        assert np.array_equal(got_hi, want_hi), (n, name)
    # ranges of 1 on the longer networks: the pairs on both sides of every
    # level and part boundary
    lo, hi = np.zeros(1, np.int64), np.zeros(1, np.int64)
    for at in {s + d for s in starts for d in (-1, 0, 1)} & set(range(ncomp)):
        native._pairs(prog, n, at, 1, lo, hi)
        assert (lo[0], hi[0]) == (want_lo[at], want_hi[at]), (n, at)


def test_pairs_kernel_refuses_bad_ranges_and_programs(native):
    # every refusal raises ValueError before the kernel writes anything
    prog, ncomp = sort_program(7)
    lo, hi = np.full(ncomp, -7, np.int64), np.full(ncomp, -7, np.int64)
    bad = {
        "negative start": (prog, 7, -1, 1),
        "negative count": (prog, 7, 0, -1),
        "past the end": (prog, 7, ncomp - 2, 3),
        "start past the end": (prog, 7, ncomp + 1, 0),
        "more pairs than slots": (prog, 7, 0, ncomp + 1),
        "program longer than the rows": (prog, 6, 0, 1),
        # j = 3 is no power of two, and lo0 = -1
        "bad program": (np.array([1, 3, 6, 0, 1, -1, 1, 1], np.int64), 7,
                        0, 1),
        "2-d program": (prog[None], 7, 0, 1),
        "int32 program": (prog.astype(np.int32), 7, 0, 1),
    }
    for name, (program, n, start, count) in bad.items():
        with pytest.raises(ValueError):
            native._pairs(program, n, start, count, lo, hi)
        assert (lo == -7).all() and (hi == -7).all(), name
    for name, (l, h) in {"int32 lo": (lo.astype(np.int32), hi),
                         "lo and hi lengths": (lo, hi[:-1]),
                         "2-d hi": (lo, hi[None])}.items():
        with pytest.raises(ValueError):
            native._pairs(prog, 7, 0, 1, l, h)
        assert (lo == -7).all() and (hi == -7).all(), name
    # an empty range at either end is a valid call that writes nothing
    for start in (0, ncomp):
        native._pairs(prog, 7, start, 0, lo, hi)
    assert (lo == -7).all() and (hi == -7).all()


def _sorted_on(kernel, monkeypatch, n, vals, fill, key):
    monkeypatch.setattr(_native, "kernel", lambda: kernel)
    return _sorted_by_engine(n, "vector", vals, fill, key)


@pytest.mark.parametrize("n", [100, 128, 257])
def test_bitonic_sort_paths_agree(n, native, monkeypatch, rng):
    # the whole vector sort on each path, inputs that differ: ties on j,
    # the uint8 null flag under KEY_NONNULL_F, a second key on d
    cases = [([rng.integers(0, 6, n) for _ in range(3)], _fill_distinct,
              KEY_J_TID),
             ([rng.integers(0, 2, n) for _ in range(3)], _fill_nulls,
              KEY_NONNULL_F),
             ([rng.integers(0, 6, n) for _ in range(2)], _fill_distinct,
              ("j", "d"))]
    for inputs, fill, key in cases:
        for vals in inputs:
            c_cols, c_dig = _sorted_on(native, monkeypatch, n, vals, fill,
                                       key)
            n_cols, n_dig = _sorted_on(_native.NUMPY, monkeypatch, n, vals,
                                       fill, key)
            assert c_dig == n_dig
            for name in ALL_COLS:
                assert np.array_equal(c_cols[name], n_cols[name]), (key, name)


class _BlockSizes(LogSink):
    """A LogSink that also keeps the length of every block it is given."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def emit_block(self, aid, ops, idxs):
        self.sizes.append(len(ops))
        super().emit_block(aid, ops, idxs)


@pytest.mark.parametrize("n", [5400, 8192])
def test_native_sort_emits_chunks_of_the_network(n, native, monkeypatch,
                                                 rng):
    # a consuming sink gets the native sort's events in blocks of 8,192
    # comparators (the last one shorter), never from a sort_levels walk,
    # and the events are the fallback's, which emits one block per level
    # from its one walk of sort_levels
    vals = rng.integers(0, 6, n)
    events, blocks, walks = [], [], []

    def counted(*args):
        walks.append(args[0])
        return sort_levels(*args)
    for kernel, walk in ((native, None), (_native.NUMPY, counted)):
        monkeypatch.setattr(_native, "kernel", lambda: kernel)
        monkeypatch.setattr(_native, "sort_levels", walk)
        sink = _BlockSizes()
        a = alloc(n, sink)
        _fill_distinct(a, vals)
        bitonic_sort(a, KEY_J_TID)
        events.append(sink.event_arrays())
        blocks.append(sink.sizes)
    full, last = divmod(comparator_count(n), 8192)
    assert blocks[0] == [4 * 8192] * full + [4 * last]
    assert len(blocks[1]) == sum(1 for _ in sort_levels(n))
    assert walks == [n]
    for c, f in zip(*events):
        assert np.array_equal(c, f)
