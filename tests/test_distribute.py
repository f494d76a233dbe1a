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


def test_collision_tripwire_fires():
    # always armed: a non-injective f raises on both engines, whether a
    # swap collides ([2, 2, 3] lost entry 1 on the vector engine and
    # misplaced it on the scalar one) or an entry cannot reach slot f-1
    cases = [([2, 2], 2), ([2, 2, 3], 4), ([1, 1], 2), ([5], 4), ([0, 1], 2)]
    for engine in ("scalar", "vector"):
        for f, m in cases:
            x = make_distribute_input(NullSink(), f)
            with pytest.raises(DistributeCollisionError):
                oblivious_distribute(x, m, engine)
    # the randomized distribution runs the same placement check, and
    # raises the same error on f = 5 into 4 slots and on a live f = 0
    for f, m in cases:
        x = make_distribute_input(NullSink(), f)
        with pytest.raises(DistributeCollisionError):
            prp_distribute(x, m, seed=1)


# one batched input per contract that oblivious_distribute covers: every
# entry live with n <= m, and the null-skipping n > m contract that
# ext_oblivious_distribute had before the two were merged
BATCH_COLLISIONS = {
    "oblivious_distribute": [[1, 2, 3], [2, 2, 3], [4, 1, 2]],
    "ext_oblivious_distribute": [[1, 0, 2, 0, 3], [2, 0, 2, 0, 3],
                                 [0, 4, 1, 0, 2]],
}


@pytest.mark.parametrize("contract", list(BATCH_COLLISIONS))
def test_collision_in_one_batch_row_fires(contract):
    # rows 0 and 2 are injective; only row 1 collides (f = 0 is null)
    f = np.array(BATCH_COLLISIONS[contract], np.uint64)
    x = make_distribute_input(NullSink(), f, batch=3)
    x.col("is_null")[:] = (f == 0)
    with pytest.raises(DistributeCollisionError):
        oblivious_distribute(x, 4)


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
    x.col("is_null")[:, 1] = 1
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
    x.col("is_null")[:, [1, 2, 4]] = 1
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


def test_batched_distribute_matches_instancewise(rng):
    # the batch axis exists for the vector engine only
    m, n, b = 9, 4, 6
    fs = np.stack([rng.permutation(m)[:n] + 1 for _ in range(b)])
    xb = make_distribute_input(NullSink(), fs, batch=b)
    outb = oblivious_distribute(xb, m)
    fb = outb.debug_col("f")
    nb = outb.debug_col("is_null")
    for r in range(b):
        x = make_distribute_input(NullSink(), fs[r])
        out = oblivious_distribute(x, m)
        assert np.array_equal(fb[r], out.debug_col("f")[0])
        assert np.array_equal(nb[r], out.debug_col("is_null")[0])


# -- the native route kernel against the numpy hops --------------------------

@pytest.fixture(params=["native", "numpy"])
def route_path(request, native_loads, monkeypatch):
    """Runs every vector distribution on one route path for the test."""
    kernel = native_loads["native" if request.param == "native"
                          else "fallback"]
    if request.param == "native" and kernel is None:
        pytest.skip("the native module cannot be built here")
    monkeypatch.setattr(_native, "kernel", lambda: kernel)
    return request.param


def _route_copies(rng, batch, m):
    """Routing copies whose f and null flags follow no contract: live
    entries with f = 0, f past m, and f at or above 2^63, which only an
    unsigned compare moves; rows differ."""
    wild = np.array([0, m + 1, 2**63, 2**63 + 5, U64_MAX], np.uint64)
    f = rng.integers(1, m + 1, (batch, m), dtype=np.uint64)
    odd = rng.random((batch, m)) < 0.2
    f[odd] = wild[rng.integers(0, len(wild), odd.sum())]
    nul = (rng.random((batch, m)) < 0.3).astype(np.uint64)
    perm = np.tile(np.arange(m, dtype=np.int64), (batch, 1))
    return f, nul, perm


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 33, 64, 100, 257, 1000])
def test_route_kernel_matches_numpy_hops(m, batch, native, rng):
    # the kernel runs the whole network in one call; the numpy fallback
    # one hop at a time: both leave the same f, null flags and permutation
    hops = route_hops(m)
    c = _route_copies(rng, batch, m)
    v = tuple(arr.copy() for arr in c)
    native.route(*c, np.array(hops, np.int64))
    for j in hops:
        primitives._route_hop_vector(*v, j)
    for got, want in zip(c, v):
        assert np.array_equal(got, want)
    # a slot an entry moved out of is null, with f = 0
    vacated = v[2] == -1
    assert (v[1][vacated] == 1).all() and (v[0][vacated] == 0).all()


def _distribution_input(rng, batch, n, m):
    """n entries, at most m of them live with distinct f in 1..m per row;
    every column holds random values, nulls included, and a null entry's
    f is random too."""
    x = alloc(n, NullSink(), batch)
    for name in U64_FIELDS:
        x.col(name)[:] = rng.integers(0, 2**64, (batch, n), dtype=np.uint64)
    nul = np.ones((batch, n), np.uint8)
    for r in range(batch):
        live = int(rng.integers(0, min(n, m) + 1))
        pos = rng.permutation(n)[:live]
        x.col("f")[r, pos] = rng.permutation(m)[:live] + 1
        nul[r, pos] = 0
    x.col("is_null")[:] = nul
    return x


def _distributed_on(kernel, monkeypatch, x, m, sink):
    """Every column of every slot of a vector distribution of a copy of x
    into the given sink, with _native.kernel() returning kernel."""
    monkeypatch.setattr(_native, "kernel", lambda: kernel)
    y = alloc(x.length, sink, x.batch)
    for name in ALL_COLS:
        y.col(name)[:] = x.col(name)
    out = oblivious_distribute(y, m)
    return {name: out.debug_col(name) for name in ALL_COLS}


# (n, m): every m up to 70 with n = m, then n past m by nulls, and larger m
DISTRIBUTION_SIZES = ([(m, m) for m in range(1, 71)]
                      + [(m + 19, m) for m in (0, 1, 7, 33, 70)]
                      + [(200, 257), (300, 257), (1000, 1000), (1500, 1000),
                         (1 << 15, 1 << 15)])


@pytest.mark.parametrize("batch", [1, 3])
def test_distribute_paths_agree(batch, native, native_loads, monkeypatch,
                                rng):
    # injective maps with random nulls: the two route paths fill every
    # column of every slot, nulls included, alike, and emit one trace
    for n, m in DISTRIBUTION_SIZES:
        x = _distribution_input(rng, batch, n, m)
        outs, digests = [], []
        for kernel in (native, native_loads["fallback"]):
            # hashlib would take seconds on the 2^15 fallback trace
            sink = HashSink() if m <= 1000 else NullSink()
            outs.append(_distributed_on(kernel, monkeypatch, x, m, sink))
            digests.append(getattr(sink, "digest", None))
        assert digests[0] == digests[1], (n, m)
        for name in ALL_COLS:
            assert np.array_equal(outs[0][name], outs[1][name]), (n, m, name)


def test_collisions_raise_on_both_route_paths(route_path):
    # every bad map of the tripwire and of both batched contracts raises
    # on either path
    for f, m in [([2, 2], 2), ([2, 2, 3], 4), ([1, 1], 2), ([5], 4),
                 ([0, 1], 2)]:
        with pytest.raises(DistributeCollisionError):
            oblivious_distribute(make_distribute_input(NullSink(), f), m)
    for rows in BATCH_COLLISIONS.values():
        f = np.array(rows, np.uint64)
        x = make_distribute_input(NullSink(), f, batch=3)
        x.col("is_null")[:] = (f == 0)
        with pytest.raises(DistributeCollisionError):
            oblivious_distribute(x, 4)


def test_route_kernel_rejects_bad_arrays(native):
    # every bad call is refused before the kernel writes anything
    f = np.array([[2, 0, 0]], np.uint64)
    nul = np.array([[0, 1, 1]], np.uint64)
    perm = np.array([[0, 1, 2]], np.int64)
    hops = np.array([2, 1], np.int64)
    before = [arr.copy() for arr in (f, nul, perm)]
    wide = np.zeros((1, 6), np.uint64)
    for args in ((f.astype(np.int64), nul, perm, hops),     # f not uint64
                 (f, nul.astype(np.uint8), perm, hops),     # flag not uint64
                 (f, nul, perm.astype(np.uint64), hops),    # perm not int64
                 (f, nul, perm, hops.astype(np.int32)),     # hops not int64
                 (wide[:, ::2], nul, perm, hops),           # not contiguous
                 (f, nul, perm, np.array([2, 9, 1, 9])[::2]),  # strided
                 (f, nul[:, :2], perm, hops),               # shapes differ
                 (f[0], nul[0], perm[0], hops),             # not (batch, len)
                 (f, nul, perm, hops[:, None]),             # hops not 1-D
                 (f, nul, perm, np.array([3], np.int64)),   # hop past the end
                 (f, nul, perm, np.array([0], np.int64)),   # hop 0
                 (f, nul, perm, np.array([-1], np.int64))):  # negative hop
        with pytest.raises(ValueError):
            native.route(*args)
    for arr, old in zip((f, nul, perm), before):
        assert np.array_equal(arr, old)
    native.route(f, nul, perm, hops)
    assert (f.tolist(), nul.tolist(), perm.tolist()) == (
        [[0, 2, 0]], [[1, 0, 1]], [[-1, 0, 2]])
