"""Oblivious distribution: scatter entries to their f-destinations."""

import numpy as np
import pytest

from oblivjoin._schedule import route_hops
from oblivjoin.harness import make_distribute_input
from oblivjoin.primitives import (
    DistributeCollisionError,
    oblivious_distribute,
)
from oblivjoin.prp import prp_distribute
from oblivjoin.trace import HashSink, LogSink, NullSink, alloc


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
