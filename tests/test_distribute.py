"""Oblivious distribution: scatter entries to their f-destinations."""

import numpy as np
import pytest

from oblivjoin import _native, primitives
from oblivjoin._schedule import route_hops
from oblivjoin.entries import U64_FIELDS
from oblivjoin.harness import make_distribute_input
from oblivjoin.primitives import (
    DistributeCollisionError,
    oblivious_distribute,
)
from oblivjoin.prp import prp_distribute
from oblivjoin.trace import HashSink, LogSink, NullSink, alloc

ALL_COLS = U64_FIELDS + ("is_null",)
U64_MAX = 2**64 - 1


def placed(out):
    """(f, d) per output slot, None for null slots."""
    return [None if e.is_null else (e.f, e.d) for e in out.debug_entries()]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_three_entries_into_eight_slots(engine):
    x = make_distribute_input(NullSink(), [2, 5, 6])
    out = oblivious_distribute(x, 8, engine)
    want = [None, (2, 0), None, None, (5, 1), (6, 2), None, None]
    assert placed(out) == want


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_identity_and_reverse_layouts(engine):
    x = make_distribute_input(NullSink(), [1, 2, 3, 4])
    assert placed(oblivious_distribute(x, 4, engine)) == [
        (1, 0), (2, 1), (3, 2), (4, 3)]
    x = make_distribute_input(NullSink(), [4, 3, 2, 1])
    # slot i receives the entry with destination i+1
    assert placed(oblivious_distribute(x, 4, engine)) == [
        (1, 3), (2, 2), (3, 1), (4, 0)]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_random_injective_destinations(engine, rng):
    # destination obliviousness rests on this routing invariant, so shake
    # it hard and keep the collision tripwire armed
    trials = 60 if engine == "vector" else 25
    for _ in range(trials):
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, m + 1))
        f = rng.permutation(m)[:n] + 1
        x = make_distribute_input(NullSink(), f)
        out = oblivious_distribute(x, m, engine)
        got = placed(out)
        for i, slot in enumerate(got):
            fi = i + 1
            if fi in set(f.tolist()):
                assert slot == (fi, int(np.where(f == fi)[0][0]))
            else:
                assert slot is None


# maps that are not injective into 1..m: a swap collides in [2, 2] and
# [2, 2, 3], the rest leave an entry short of its slot f-1
TRIPWIRE_MAPS = [([2, 2], 2), ([2, 2, 3], 4), ([1, 1], 2), ([5], 4),
                 ([0, 1], 2)]


def test_collision_tripwire_fires():
    # always armed: a non-injective f raises on both engines, whether a
    # swap collides ([2, 2, 3] lost entry 1 on the vector engine and
    # misplaced it on the scalar one) or an entry cannot reach slot f-1
    for engine in ("scalar", "vector"):
        for f, m in TRIPWIRE_MAPS:
            x = make_distribute_input(NullSink(), f)
            with pytest.raises(DistributeCollisionError):
                oblivious_distribute(x, m, engine)
    # the randomized distribution runs the same placement check, and
    # raises the same error on f = 5 into 4 slots and on a live f = 0
    for f, m in TRIPWIRE_MAPS:
        x = make_distribute_input(NullSink(), f)
        with pytest.raises(DistributeCollisionError):
            prp_distribute(x, m, seed=1)


def _trace_before_the_raise(f, m, engine):
    """The events, with their phases, of a distribution of f into m slots
    that raises DistributeCollisionError."""
    s = LogSink()
    with pytest.raises(DistributeCollisionError):
        oblivious_distribute(make_distribute_input(s, f), m, engine)
    return list(s.events_tagged())


@pytest.mark.parametrize("f, m", TRIPWIRE_MAPS)
def test_engines_trace_a_bad_map_alike_before_the_raise(f, m):
    # the routing network raises on neither engine: both run all of it,
    # a function of (n, m), and then the placement check refuses the map
    scalar = _trace_before_the_raise(f, m, "scalar")
    assert scalar == _trace_before_the_raise(f, m, "vector")
    s = LogSink()
    oblivious_distribute(make_distribute_input(s, range(1, len(f) + 1)), m)
    assert scalar == list(s.events_tagged())


# three maps into 4 slots per contract that oblivious_distribute covers:
# every entry live with n <= m, and the null-skipping n > m contract that
# ext_oblivious_distribute had before the two were merged.  Rows 0 and 2
# are injective; only row 1 collides (f = 0 is null).
BATCH_COLLISIONS = {
    "oblivious_distribute": [[1, 2, 3], [2, 2, 3], [4, 1, 2]],
    "ext_oblivious_distribute": [[1, 0, 2, 0, 3], [2, 0, 2, 0, 3],
                                 [0, 4, 1, 0, 2]],
}


def _check_collision_rows(rows):
    """Distribute each row on its own: the injective ones place every
    live entry, and the colliding one raises."""
    for r, row in enumerate(rows):
        f = np.array(row, np.uint64)
        x = make_distribute_input(NullSink(), f)
        x.col("is_null")[:] = f == 0
        if r == 1:
            with pytest.raises(DistributeCollisionError):
                oblivious_distribute(x, 4)
        else:
            out = oblivious_distribute(x, 4)
            assert [e.f for e in out.debug_entries()
                    if not e.is_null] == sorted(f[f > 0].tolist())


@pytest.mark.parametrize("contract", list(BATCH_COLLISIONS))
def test_collision_in_one_batch_row_fires(contract):
    _check_collision_rows(BATCH_COLLISIONS[contract])


def test_n_greater_than_m_rejected():
    # n may exceed m only by null entries: three live entries cannot all
    # reach one of two slots
    for engine in ("scalar", "vector"):
        x = make_distribute_input(NullSink(), [1, 2, 3])
        with pytest.raises(DistributeCollisionError):
            oblivious_distribute(x, 2, engine)


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_negative_m_rejected_before_any_access(engine):
    s = LogSink()
    x = make_distribute_input(s, [1, 2])
    with pytest.raises(ValueError, match="negative"):
        oblivious_distribute(x, -1, engine)
    assert len(s) == 0


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_single_slot(engine):
    x = make_distribute_input(NullSink(), [1])
    out = oblivious_distribute(x, 1, engine)
    assert placed(out) == [(1, 0)]


def test_route_event_count_matches_hop_sum():
    # each hop j performs m - j compare-steps of 4 events each
    for n, m in [(3, 8), (5, 5), (2, 7), (1, 1)]:
        s = LogSink()
        x = make_distribute_input(s, np.arange(1, n + 1))
        oblivious_distribute(x, m)
        _, ops, _ = s.event_arrays("distribute_route")
        want = 4 * sum(m - j for j in route_hops(m))
        assert len(ops) == want


def test_trace_is_function_of_n_and_m(rng):
    digests = set()
    for _ in range(10):
        m = 13
        f = rng.permutation(m)[:6] + 1
        s = HashSink()
        x = make_distribute_input(s, f)
        oblivious_distribute(x, m)
        digests.add(s.digest)
    assert len(digests) == 1


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_engines_agree_on_trace_and_output(engine, rng):
    f = [7, 1, 4]
    ref_sink = HashSink()
    ref = oblivious_distribute(make_distribute_input(ref_sink, f), 7, "scalar")
    s = HashSink()
    out = oblivious_distribute(make_distribute_input(s, f), 7, engine)
    assert placed(out) == placed(ref)
    assert s.digest == ref_sink.digest


# -- null inputs skipped, n may exceed m --------------------------------

@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_ext_skips_null_entries(engine):
    s = NullSink()
    x = make_distribute_input(s, [1, 0, 3])
    x.col("is_null")[1] = 1
    out = oblivious_distribute(x, 3, engine)
    got = placed(out)
    assert got[0] == (1, 0)
    assert got[2] == (3, 2)
    assert got[1] is None


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_ext_with_n_exceeding_m(engine):
    # five inputs, two real, into three slots
    s = NullSink()
    x = make_distribute_input(s, [2, 0, 0, 1, 0])
    x.col("is_null")[[1, 2, 4]] = 1
    out = oblivious_distribute(x, 3, engine)
    assert out.length == 3
    got = placed(out)
    assert got[0] == (1, 3)
    assert got[1] == (2, 0)
    assert got[2] is None


def test_ext_trace_depends_only_on_sizes(rng):
    digests = set()
    for _ in range(8):
        f = np.zeros(6, np.uint64)
        live = rng.permutation(6)[:3]
        f[live] = rng.permutation(4)[:3] + 1
        s = HashSink()
        x = make_distribute_input(s, f)
        x.col("is_null")[:] = (f == 0)
        oblivious_distribute(x, 4)
        digests.add(s.digest)
    assert len(digests) == 1


# -- the native route kernel against the numpy hops --------------------------

def _route_copies(rng, m):
    """Routing arrays whose destinations follow no contract: live entries
    with g = 0, g past m, and g at or above 2^63, which only an unsigned
    compare moves; a null entry has g = 0, as g = f & (nul - 1) gives."""
    wild = np.array([0, m + 1, 2**63, 2**63 + 5, U64_MAX], np.uint64)
    f = rng.integers(1, m + 1, m, dtype=np.uint64)
    odd = rng.random(m) < 0.2
    f[odd] = wild[rng.integers(0, len(wild), odd.sum())]
    nul = (rng.random(m) < 0.3).astype(np.uint64)
    return f & (nul - np.uint64(1)), np.arange(m, dtype=np.int64)


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 33, 64, 100, 257, 1000])
def test_route_kernel_matches_numpy_hops(m, trials, native, rng):
    # the kernel runs the whole network in one call; the numpy fallback
    # one hop at a time: both leave the same g and permutation on each of
    # trials inputs
    hops = route_hops(m)
    for _ in range(trials):
        c = _route_copies(rng, m)
        v = tuple(arr.copy() for arr in c)
        native.route(*c)
        for j in hops:
            _native._route_hop_vector(*v, j)
        for got, want in zip(c, v):
            assert np.array_equal(got, want)
        # a slot an entry moved out of is null, with g = 0
        vacated = v[1] == -1
        assert (v[0][vacated] == 0).all()


def _distribution_input(rng, n, m):
    """n entries, at most m of them live with distinct f in 1..m; every
    column holds random values, nulls included, and a null entry's f is
    random too."""
    x = alloc(n, NullSink())
    for name in U64_FIELDS:
        x.col(name)[:] = rng.integers(0, 2**64, n, dtype=np.uint64)
    live = int(rng.integers(0, min(n, m) + 1))
    pos = rng.permutation(n)[:live]
    x.col("f")[pos] = rng.permutation(m)[:live] + 1
    x.col("is_null")[pos] = 0  # every other slot stays null
    return x


def _distributed_on(kernel, monkeypatch, x, m, sink):
    """Every column of every slot of a vector distribution of a copy of x
    into the given sink, with _native.kernel() returning kernel."""
    monkeypatch.setattr(_native, "kernel", lambda: kernel)
    y = alloc(x.length, sink)
    for name in ALL_COLS:
        y.col(name)[:] = x.col(name)
    out = oblivious_distribute(y, m)
    return {name: out.debug_col(name) for name in ALL_COLS}


# (n, m): every m up to 70 with n = m, then n past m by nulls, and larger m
DISTRIBUTION_SIZES = ([(m, m) for m in range(1, 71)]
                      + [(m + 19, m) for m in (0, 1, 7, 33, 70)]
                      + [(200, 257), (300, 257), (1000, 1000), (1500, 1000),
                         (1 << 15, 1 << 15)])


@pytest.mark.parametrize("trials", [1, 3])
def test_distribute_paths_agree(trials, native, monkeypatch, rng):
    # injective maps with random nulls, trials inputs per size: the two
    # route paths fill every column of every slot, nulls included, alike,
    # and emit one trace
    for n, m in [size for size in DISTRIBUTION_SIZES for _ in range(trials)]:
        x = _distribution_input(rng, n, m)
        outs, digests = [], []
        for kernel in (native, _native.NUMPY):
            # hashlib would take seconds on the 2^15 fallback trace
            sink = HashSink() if m <= 1000 else NullSink()
            outs.append(_distributed_on(kernel, monkeypatch, x, m, sink))
            digests.append(getattr(sink, "digest", None))
        assert digests[0] == digests[1], (n, m)
        for name in ALL_COLS:
            assert np.array_equal(outs[0][name], outs[1][name]), (n, m, name)


def test_collisions_raise_on_both_route_paths(kernels):
    # every bad map of the tripwire and of both collision contracts raises
    # on either path
    for f, m in TRIPWIRE_MAPS:
        with pytest.raises(DistributeCollisionError):
            oblivious_distribute(make_distribute_input(NullSink(), f), m)
    for rows in BATCH_COLLISIONS.values():
        _check_collision_rows(rows)


def _route_arrays():
    """A route's g and permutation on three slots: one live entry, at
    slot 0 with g = 2."""
    return np.array([2, 0, 0], np.uint64), np.array([0, 1, 2], np.int64)


def _bad_route_arrays(g, perm):
    """The (g, perm) that no route takes."""
    wide = np.zeros(6, np.uint64)
    return [(g.astype(np.int64), perm),          # g not uint64
            (g, perm.astype(np.uint64)),         # perm not int64
            (wide[::2], perm),                   # not contiguous
            (g, perm[:2]),                       # shapes differ
            (g[None], perm[None]),               # not 1-D
            (g, g.view(np.int64))]               # shared memory


def _check_refused(route, bad, g, perm):
    """Every route(*args) of bad is refused before g and perm change."""
    before = [arr.copy() for arr in (g, perm)]
    for args in bad:
        with pytest.raises(ValueError):
            route(*args)
    for arr, old in zip((g, perm), before):
        assert np.array_equal(arr, old)


def _check_route_refusals(kernels):
    """Every bad array of a route is refused before it writes anything."""
    g, perm = _route_arrays()
    _check_refused(kernels.route, _bad_route_arrays(g, perm), g, perm)
    kernels.route(g, perm)
    assert (g.tolist(), perm.tolist()) == ([0, 2, 0], [-1, 0, 2])


def test_route_kernel_rejects_bad_arrays(native):
    # the bad arrays, through route and through _route on hops that fit,
    # and the hops that the kernel refuses, through _route
    _check_route_refusals(native)
    g, perm = _route_arrays()
    hops = np.array([2, 1], np.int64)
    bad = [(*args, hops) for args in _bad_route_arrays(g, perm)]
    bad += [(g, perm, hops.astype(np.int32)),          # hops not int64
            (g, perm, np.array([2, 9, 1, 9])[::2]),    # strided
            (g, perm, hops[:, None]),                  # hops not 1-D
            (g, perm, np.array([3], np.int64)),        # hop past the end
            (g, perm, np.array([0], np.int64)),        # hop 0
            (g, perm, np.array([-1], np.int64))]       # negative hop
    _check_refused(native._route, bad, g, perm)
    native._route(g, perm, hops)
    assert (g.tolist(), perm.tolist()) == ([0, 2, 0], [-1, 0, 2])


def test_numpy_route_rejects_what_the_kernel_rejects():
    # the numpy body checks the arrays with the kernel's check; it takes
    # no hops, so it has no hop to refuse
    _check_route_refusals(_native.NUMPY)


# -- the native gather kernel against the numpy gather -----------------------

def _gather_input(rng, n, vacated):
    """Seven random uint64 columns, random null flags and a random slot
    map of n slots, with -1 entries where vacated (about a quarter)."""
    cols = [rng.integers(0, 2**64, n, dtype=np.uint64) for _ in U64_FIELDS]
    nul = rng.integers(0, 2, n).astype(np.uint8)
    perm = rng.permutation(n).astype(np.int64)
    if vacated:
        perm[rng.random(n) < 0.25] = -1
    return cols, nul, perm


@pytest.mark.parametrize("vacated", [False, True], ids=["full", "vacated"])
def test_gather_kernel_matches_numpy_gather(vacated, native, rng):
    # every length to 300 and two join lengths, a permutation with and
    # without -1 entries: the kernel leaves the numpy gather's columns
    for n in (*range(301), 5400, 1 << 15):
        cols, nul, perm = _gather_input(rng, n, vacated)
        want = [col.copy() for col in (*cols, nul)]
        _native.NUMPY.gather(want[:-1], want[-1], perm.copy())
        native.gather(cols, nul, perm)
        for got, exp in zip((*cols, nul), want):
            assert np.array_equal(got, exp), n


def test_gather_kernel_on_views_with_an_offset(native, rng):
    # the columns of a view that starts at slot 5 of a longer array: the
    # slots outside the view keep their values
    a = alloc(40, NullSink())
    for name in ALL_COLS:
        a.col(name)[:] = rng.integers(0, 2, 40) if name == "is_null" else (
            rng.integers(0, 2**64, 40, dtype=np.uint64))
    before = {name: a.debug_col(name) for name in ALL_COLS}
    view = a.view(5, 20)
    perm = rng.permutation(20).astype(np.int64)
    perm[[3, 11]] = -1
    native.gather([view.col(name) for name in U64_FIELDS],
                  view.col("is_null"), perm)
    for name in ALL_COLS:
        col, old = a.debug_col(name), before[name]
        src = old[5:25][np.maximum(perm, 0)]
        src[perm == -1] = 1 if name == "is_null" else 0
        assert np.array_equal(col[5:25], src), name
        assert np.array_equal(col[:5], old[:5]), name
        assert np.array_equal(col[25:], old[25:]), name


def _check_gather_refusals(kernels, rng):
    """Every bad call of a gather is refused before it writes anything."""
    cols, nul, perm = _gather_input(rng, 6, True)
    before = [arr.copy() for arr in (*cols, nul, perm)]
    wide = np.zeros(12, np.uint64)
    shared = np.zeros(48, np.uint8)  # six int64 slots or 48 flags
    bad = {
        "entry below -1": (cols, nul, np.array([0, 1, -2, 3, 4, 5])),
        "entry at len": (cols, nul, np.array([0, 1, 6, 3, 4, 5])),
        "entry past len": (cols, nul, np.array([0, 1, 2, 3, 4, 2**62])),
        "int64 column": ([cols[0].astype(np.int64), *cols[1:]], nul, perm),
        "uint64 flags": (cols, nul.astype(np.uint64), perm),
        "int32 permutation": (cols, nul, perm.astype(np.int32)),
        "non-contiguous column": ([wide[::2], *cols[1:]], nul, perm),
        "non-contiguous flags": (cols, np.zeros(12, np.uint8)[::2], perm),
        "short column": ([cols[0][:5], *cols[1:]], nul, perm),
        "2-d permutation": (cols, nul, perm[None]),
        "permutation on a column": (cols, nul, cols[2].view(np.int64)),
        "permutation on the flags": (cols, shared[:6], shared.view(np.int64)),
        "one column twice": ([cols[0], cols[0], *cols[2:]], nul, perm),
    }
    for name, (c, fl, p) in bad.items():
        with pytest.raises(ValueError):
            kernels.gather(c, fl, p)
            pytest.fail(name)
        for arr, old in zip((*cols, nul, perm), before):
            assert np.array_equal(arr, old), name


def test_gather_kernel_rejects_bad_arrays(native, rng):
    _check_gather_refusals(native, rng)


def test_numpy_gather_rejects_what_the_kernel_rejects(rng):
    # an entry past the end included, which numpy's indexing would refuse
    # with its own IndexError
    _check_gather_refusals(_native.NUMPY, rng)


def _counting_gather(monkeypatch):
    """Wraps primitives._gather in a counter; returns the count list."""
    calls = []
    gather = primitives._gather

    def counted(a, perm):
        calls.append(a.length)
        gather(a, perm)
    monkeypatch.setattr(primitives, "_gather", counted)
    return calls


def test_each_distribution_and_expansion_gathers_once(kernels, monkeypatch):
    # a distribution moves its columns once, after routing, and an
    # expansion once, after its fill: neither the sort nor the routing
    # network gathers on its own
    calls = _counting_gather(monkeypatch)
    out = oblivious_distribute(make_distribute_input(NullSink(), [3, 1]), 4)
    assert placed(out) == [(1, 1), None, (3, 0), None]
    assert calls == [4]
    calls.clear()
    x = make_distribute_input(NullSink(), [0, 0, 0])
    x.col("alpha1")[:] = [2, 0, 3]
    out = primitives.oblivious_expand(x, "alpha1")
    assert out.debug_col("d").tolist() == [0, 0, 2, 2, 2]
    assert calls == [5]
