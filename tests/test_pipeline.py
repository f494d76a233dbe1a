"""The full join pipeline: dimensions, expansion, alignment, zip."""

import gc
import runpy
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from oblivjoin.baseline import nested_loop_join, sort_merge_join, sorted_pairs
from oblivjoin import trace
from oblivjoin.entries import KEY_J_TID
from oblivjoin.pipeline import (
    align_table,
    augment_tables,
    fill_dimensions,
    oblivious_join,
)
from oblivjoin.primitives import bitonic_sort
from oblivjoin.trace import HashSink, LogSink, NullSink, TraceSink, alloc

ALL_PHASES = {
    "load", "initial_sorts", "fill_dimensions", "expand_prefix",
    "distribute_copy", "distribute_sort", "distribute_route", "expand_fill",
    "align_pass", "align_sort", "zip", "output",
}

# trace prefix that must already be fixed by (n1, n2) alone, before the
# output size enters through the expansions
PRE_EXPANSION = ("load", "initial_sorts", "fill_dimensions")


def table(js, ds=None):
    js = np.asarray(js, np.uint64)
    if ds is None:
        ds = np.arange(len(js))
    return np.stack([js, np.asarray(ds, np.uint64)], axis=1)


def random_tables(rng, hi=30, keys=6):
    n1 = int(rng.integers(1, hi))
    n2 = int(rng.integers(1, hi))
    t1 = table(rng.integers(0, keys, n1), rng.integers(0, 50, n1))
    t2 = table(rng.integers(0, keys, n2), rng.integers(0, 50, n2))
    return t1, t2


# -- fill_dimensions --------------------------------------------------------

@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_fill_dimensions_two_by_three(engine):
    # one key shared by 2 left rows and 3 right rows: every entry gets
    # (alpha1, alpha2) = (2, 3) and m = 6
    s = NullSink()
    tc = alloc(5, s)
    tc.col("j")[:] = 7
    tc.col("tid")[:] = [1, 1, 2, 2, 2]
    tc.col("d")[:] = np.arange(5, dtype=np.uint64)
    tc.col("is_null")[:] = 0
    bitonic_sort(tc, KEY_J_TID, engine)
    m = fill_dimensions(tc, engine)
    assert m == 6
    ents = tc.debug_entries()
    assert [(e.alpha1, e.alpha2) for e in ents] == [(2, 3)] * 5


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_fill_dimensions_multiple_groups(engine):
    # keys: 1 -> (1,1), 2 -> (2,0) unmatched, 3 -> (0,2) unmatched
    s = NullSink()
    tc = alloc(6, s)
    tc.col("j")[:] = [1, 1, 2, 2, 3, 3]
    tc.col("tid")[:] = [1, 2, 1, 1, 2, 2]
    tc.col("is_null")[:] = 0
    bitonic_sort(tc, KEY_J_TID, engine)
    m = fill_dimensions(tc, engine)
    assert m == 1
    by_key = {}
    for e in tc.debug_entries():
        by_key[e.j] = (e.alpha1, e.alpha2)
    assert by_key == {1: (1, 1), 2: (2, 0), 3: (0, 2)}


def test_fill_dimensions_matches_oracle_counts(rng):
    for _ in range(30):
        t1, t2 = random_tables(rng)
        want = len(nested_loop_join(t1, t2))
        s = NullSink()
        tc, _, _, m = augment_tables(t1, t2, s)
        assert m == want
        tc.release()


# -- alignment --------------------------------------------------------------

def test_align_two_by_three_order():
    # S2 holds each of its 3 rows twice (alpha1=2, alpha2=3, m=6); after
    # alignment row i must partner S1's pattern [a,a,a,b,b,b] -> the
    # intermediate destinations are [0,3,1,4,2,5]
    s = LogSink()
    a = alloc(6, s)
    a.col("j")[:] = 5
    a.col("d")[:] = [0, 0, 1, 1, 2, 2]
    a.col("alpha1")[:] = 2
    a.col("alpha2")[:] = 3
    a.col("is_null")[:] = 0
    align_table(a)
    assert [e.d for e in a.debug_entries()] == [0, 1, 2, 0, 1, 2]


# -- whole joins, output correctness ----------------------------------------

@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_join_tiny_frozen(engine):
    t1 = table([1, 2, 2], [10, 11, 12])
    t2 = table([2, 3], [20, 21])
    res = oblivious_join(t1, t2, engine=engine)
    assert (res.n1, res.n2, res.m) == (3, 2, 2)
    assert sorted(res.rows()) == [(11, 20), (12, 20)]


def test_join_matches_oracle_randomized(rng):
    for trial in range(120):
        t1, t2 = random_tables(rng)
        engine = "scalar" if trial % 10 == 0 else "vector"
        res = oblivious_join(t1, t2, engine=engine)
        got = sorted_pairs(res.pairs)
        want = sorted_pairs(nested_loop_join(t1, t2))
        assert np.array_equal(got, want), (t1.tolist(), t2.tolist())


def test_join_duplicate_payloads(rng):
    # equal payloads must multiply, not collapse
    t1 = table([4, 4], [9, 9])
    t2 = table([4, 4, 4], [9, 9, 8])
    res = oblivious_join(t1, t2)
    assert res.m == 6
    assert sorted(res.rows()) == [(9, 8), (9, 8), (9, 9), (9, 9), (9, 9), (9, 9)]


def test_join_disjoint_keys():
    res = oblivious_join(table([1, 2]), table([3, 4, 5]))
    assert res.m == 0
    assert res.pairs.shape == (0, 2)


def test_join_single_rows():
    res = oblivious_join(table([5], [1]), table([5], [2]))
    assert res.rows() == [(1, 2)]


def test_join_empty_tables():
    empty = np.zeros((0, 2), np.uint64)
    res = oblivious_join(empty, table([1]))
    assert (res.n1, res.n2, res.m) == (0, 1, 0)
    res = oblivious_join(empty, empty)
    assert (res.n1, res.n2, res.m) == (0, 0, 0)


@pytest.mark.parametrize("empty", [[], np.empty(0, np.uint64)],
                         ids=["list", "ndarray"])
def test_join_takes_a_flat_empty_table(empty):
    # shape (0,) is a table of no rows, for the engine and both baselines
    t2 = table([1, 2])
    res = oblivious_join(empty, t2)
    assert (res.n1, res.n2, res.m) == (0, 2, 0)
    assert res.pairs.shape == (0, 2)
    for oracle in (nested_loop_join, sort_merge_join):
        assert oracle(empty, t2).shape == (0, 2)


def test_join_rejects_bad_rows():
    with pytest.raises(ValueError):
        oblivious_join(np.zeros((2, 3), np.uint64), table([1]))


@pytest.mark.parametrize("rows, error", [
    pytest.param([[1.7, 2.9]], TypeError, id="float-list"),
    pytest.param(np.array([[1.7, 2.9]]), TypeError, id="float64-array"),
    pytest.param([[True, 2]], TypeError, id="bool-key"),
    pytest.param(np.array([[True, False]]), TypeError, id="bool-array"),
    pytest.param([[-1, 5]], ValueError, id="negative-int"),
    pytest.param(np.array([[-1, 5]], np.int64), ValueError,
                 id="negative-int64"),
    pytest.param([[1 << 64, 5]], ValueError, id="2^64"),
    # empty, but not an empty list of (j, d) pairs
    pytest.param([[], []], ValueError, id="empty-2x0-list"),
    pytest.param(np.zeros((2, 0), np.uint64), ValueError, id="empty-2x0"),
    pytest.param(np.zeros((0, 3), np.uint64), ValueError, id="empty-0x3"),
    pytest.param(np.zeros((2, 0, 5), np.uint64), ValueError,
                 id="empty-2x0x5"),
])
def test_join_rejects_rows_that_are_not_u64(rows, error):
    # each of these was cast: 1.7 and True joined key 1, -1 joined 2^64-1;
    # the baselines share the engine's check, so the oracles cannot join
    # an input that the engine rejects
    for join in (oblivious_join, nested_loop_join, sort_merge_join):
        with pytest.raises(error):
            join(rows, [[1, 7], [(1 << 64) - 1, 8]])


def test_join_accepts_u64_extremes_as_python_ints():
    u64_max = (1 << 64) - 1
    res = oblivious_join([[u64_max, 5], [0, u64_max]],
                         np.array([[u64_max, 6], [0, 1]], np.uint64))
    assert sorted(res.rows()) == [(5, 6), (u64_max, 1)]


def test_join_leaves_nothing_for_the_cyclic_gc():
    # A finished join's public arrays must be freed by reference counting;
    # a reference cycle would hold every column until a collector pass.
    gc.collect()
    gc.disable()
    try:
        oblivious_join(table([1, 2, 2, 3]), table([2, 2, 3, 4]), HashSink())
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- trace structure ---------------------------------------------------------

def test_phases_partition_the_event_stream():
    s = LogSink()
    oblivious_join(table([1, 2, 3]), table([2, 2]), s)
    labels = s.phase_labels()
    assert len(labels) == len(s)
    assert set(labels) <= ALL_PHASES


def test_trace_is_function_of_public_sizes(rng):
    # fixed (n1, n2, m): any instance gives the identical digest
    digests = set()
    for _ in range(12):
        d1 = rng.integers(0, 100, 4)
        d2 = rng.integers(0, 100, 6)
        key = int(rng.integers(0, 50))
        other = key + 1 + int(rng.integers(0, 50))
        # 2 left rows and 3 right rows share one key -> m = 6 always
        t1 = table([key, key, other, other], d1)
        t2 = table([key, key, key, other + 1, other + 2, other + 3], d2)
        s = HashSink()
        oblivious_join(t1, t2, s)
        digests.add(s.digest)
    assert len(digests) == 1


def test_pre_expansion_prefix_depends_only_on_table_sizes(rng):
    # before any expansion runs, the trace cannot depend on m
    prefixes = set()
    for m_target in (0, 2, 6):
        if m_target == 0:
            t1, t2 = table([1, 2]), table([3, 4, 5])
        elif m_target == 2:
            t1, t2 = table([1, 2]), table([1, 1, 9])
        else:
            t1, t2 = table([1, 1]), table([1, 1, 1])
        s = LogSink()
        oblivious_join(t1, t2, s)
        prefix = tuple((ph, ev.array_id, ev.op, ev.index)
                       for ph, ev in s.events_tagged() if ph in PRE_EXPANSION)
        prefixes.add(prefix)
    assert len(prefixes) == 1


@pytest.mark.parametrize("shape", [(5, 9), (16, 16), (31, 20), (1, 7)])
def test_engines_emit_identical_traces(shape, rng):
    n1, n2 = shape
    t1 = table(rng.integers(0, 5, n1), rng.integers(0, 99, n1))
    t2 = table(rng.integers(0, 5, n2), rng.integers(0, 99, n2))
    digs, outs = [], []
    for engine in ("scalar", "vector"):
        s = HashSink()
        res = oblivious_join(t1, t2, s, engine=engine)
        digs.append(s.digest)
        outs.append(res.pairs.tolist())
    assert digs[0] == digs[1]
    assert outs[0] == outs[1]


def test_peak_space_bound_is_met_exactly(rng):
    for _ in range(25):
        t1, t2 = random_tables(rng, hi=20)
        s = NullSink()
        res = oblivious_join(t1, t2, s)
        n1, n2, m = res.n1, res.n2, res.m
        want = (n1 + n2) + max(n1, m) + max(n2, m)
        assert s.peak_entries == want
    # everything released at the end
    assert s.live_entries == 0


def test_null_sink_subclass_still_receives_every_event():
    # emit_steps skips building blocks for a plain NullSink only; a
    # subclass that overrides emit_block must still see each event
    class CountingNull(NullSink):
        def __init__(self):
            super().__init__()
            self.total = 0

        def emit_block(self, aid, ops, idxs):
            self.total += len(ops)

    t1, t2 = table([1, 2, 2, 3, 5]), table([2, 2, 3, 4])
    counted, counting = NullSink(), CountingNull()
    oblivious_join(t1, t2, counted)
    oblivious_join(t1, t2, counting)
    assert counting.total == sum(counted.counts.values()) > 0
    assert counting.counts == counted.counts


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_a_sink_needs_only_emit_block(engine):
    # emit_block is the whole sink protocol: scalar reads and writes reach
    # it through emit_steps as bulk accesses do, in order
    class Blocks(TraceSink):
        def __init__(self):
            super().__init__()
            self.blocks = []

        def emit_block(self, aid, ops, idxs):
            self.blocks.append((np.broadcast_to(aid, len(ops)), ops, idxs))

    t1, t2 = table([1, 2, 2, 3, 5]), table([2, 2, 3, 4])
    blocks, log, counted = Blocks(), LogSink(), NullSink()
    for s in (blocks, log, counted):
        oblivious_join(t1, t2, s, engine=engine)
    got = [np.concatenate(col) for col in zip(*blocks.blocks)]
    want = log.event_arrays()
    assert len(got[1]) == sum(counted.counts.values()) > 0
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert blocks.counts == counted.counts


def test_join_rejects_an_unknown_engine():
    s = LogSink()
    with pytest.raises(ValueError, match="unknown engine 'numpy'"):
        oblivious_join(table([1, 2]), table([2]), s, engine="numpy")
    assert len(s) == 0


def test_perfbench_span_sink_keeps_the_sink_contract():
    # perfbench's SpanSink subclasses TraceSink and overrides emit,
    # emit_block and phase_scope; run_path writes no bytecode there
    spans = runpy.run_path(
        str(Path(__file__).parent.parent / "perfbench" / "spans.py"))
    t1, t2 = table([1, 2, 2, 3, 5]), table([2, 2, 3, 4])
    plain, hashed = NullSink(), HashSink()
    oblivious_join(t1, t2, plain)
    oblivious_join(t1, t2, hashed)
    for inner in (HashSink(), NullSink()):
        log = spans["SpanLog"]()
        span = spans["SpanSink"](inner, log)
        with log.span("join") as root:
            oblivious_join(t1, t2, span)
        if isinstance(inner, HashSink):
            assert inner.digest == hashed.digest
        assert span.events == span.counts == plain.counts
        assert span.peak_entries == plain.peak_entries
        assert set(spans["summarize"](log, root)["phase_s"]) == ALL_PHASES


def test_output_phase_is_m_reads():
    s = LogSink()
    res = oblivious_join(table([1, 1]), table([1, 1, 1]), s)
    _, ops, _ = s.event_arrays("output")
    assert res.m == 6
    assert len(ops) == 6
    assert (ops == 0).all()


# -- storage reuse ------------------------------------------------------------

def fanout_tables(rng, n, keys):
    """n rows per side, each of `keys` keys on n/keys rows of both."""
    js = np.repeat(np.arange(keys), n // keys)
    return (table(rng.permutation(js), rng.integers(0, 2**32, n)),
            table(rng.permutation(js), rng.integers(0, 2**32, n)))


@pytest.fixture
def roots(monkeypatch):
    """Every root array allocated during the test, with the address of
    each of its columns, in order; fails the test if a root is allocated
    on a column buffer another live root holds."""
    made = []
    clashes = []
    lock = threading.Lock()
    init = trace.PublicArray.__init__

    def record(self, sink, array_id, cols, offset, length, root):
        init(self, sink, array_id, cols, offset, length, root)
        if root is None:
            addrs = {c.ctypes.data for c in cols.values() if len(c)}
            with lock:
                clashes.extend(other for other, theirs in made
                               if other._cols and addrs & theirs)
                made.append((self, addrs))

    monkeypatch.setattr(trace.PublicArray, "__init__", record)
    yield made
    assert not clashes, "two live arrays shared a column buffer"


def test_warm_join_reuses_the_last_joins_storage(rng, roots):
    # fanout's shape: 512 x 512 rows on 8 keys, m = 8 * 64 * 64 = 2^15
    t1, t2 = fanout_tables(rng, 512, 8)
    want = sorted_pairs(sort_merge_join(t1, t2))
    for _ in range(2):
        res = oblivious_join(t1, t2)
        assert res.m == 2**15
        assert np.array_equal(sorted_pairs(res.pairs), want)
    (_, tc1), (_, s11), (_, s21), (_, tc2), (_, s12), (_, s22) = roots
    # S1 and S2 are both 2^15 slots, so each takes one of the first
    # join's two, and T_C takes the first join's T_C
    assert tc2 == tc1
    assert {frozenset(s12), frozenset(s22)} == {frozenset(s11),
                                                 frozenset(s21)}
    # a join of another shape finds no set of its lengths and allocates
    # fresh columns (the kept ones are still held, so none can recur)
    t1, t2 = fanout_tables(rng, 256, 8)
    res = oblivious_join(t1, t2)
    assert np.array_equal(sorted_pairs(res.pairs),
                          sorted_pairs(sort_merge_join(t1, t2)))
    kept = tc2 | s12 | s22
    assert all(not addrs & kept for _, addrs in roots[6:])
    assert len(roots) == 9


class _YieldingList(list):
    """A list that gives up the interpreter lock on every index, so that a
    scan of it and a pop by the index found interleave across threads."""

    def __getitem__(self, k):
        time.sleep(1e-4)
        return super().__getitem__(k)


def test_concurrent_joins_share_no_live_storage(rng, roots, monkeypatch):
    # every thread runs same-shape joins, so each allocation may take a
    # set another thread just released
    monkeypatch.setattr(trace, "_spare", _YieldingList(trace._spare))
    t1, t2 = fanout_tables(rng, 128, 8)
    want = sorted_pairs(sort_merge_join(t1, t2))
    wrong = []
    errors = []

    def joins():
        try:
            for _ in range(10):
                res = oblivious_join(t1, t2)
                if not np.array_equal(sorted_pairs(res.pairs), want):
                    wrong.append(res)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    # more threads than the host has cores, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=joins) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors and not wrong
    assert len(roots) == 4 * 10 * 3
