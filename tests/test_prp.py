"""Keyed small-domain permutation and the randomized distribution."""

import numpy as np
import pytest

from oblivjoin.harness import make_distribute_input
from oblivjoin.prp import SmallDomainPrp, prp_distribute
from oblivjoin.primitives import oblivious_distribute
from oblivjoin.trace import HashSink, LogSink, NullSink


@pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 100, 1000])
def test_forward_is_a_bijection(m):
    prp = SmallDomainPrp(m, seed=5)
    img = {prp.forward(v) for v in range(m)}
    assert img == set(range(m))


@pytest.mark.parametrize("m", [1, 2, 5, 64, 257])
def test_inverse_inverts(m):
    prp = SmallDomainPrp(m, seed=9)
    for v in range(m):
        assert prp.inverse(prp.forward(v)) == v
        assert prp.forward(prp.inverse(v)) == v


def test_seed_changes_the_permutation():
    m = 50
    perms = {tuple(SmallDomainPrp(m, s).forward(v) for v in range(m))
             for s in range(12)}
    assert len(perms) > 1
    # and the same seed reproduces it
    a = [SmallDomainPrp(m, 3).forward(v) for v in range(m)]
    b = [SmallDomainPrp(m, 3).forward(v) for v in range(m)]
    assert a == b


def test_domain_checks():
    prp = SmallDomainPrp(4, 0)
    with pytest.raises(ValueError):
        prp.forward(4)
    with pytest.raises(ValueError):
        prp.inverse(-1)
    with pytest.raises(ValueError):
        SmallDomainPrp(0, 0)


def out_state(a):
    return [(e.f, e.d, e.is_null) for e in a.debug_entries()]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_randomized_equals_deterministic_output(engine, rng):
    for trial in range(25):
        m = int(rng.integers(1, 30))
        n = int(rng.integers(1, m + 1))
        f = rng.permutation(m)[:n] + 1
        det = oblivious_distribute(make_distribute_input(NullSink(), f), m,
                                   engine)
        ran = prp_distribute(make_distribute_input(NullSink(), f), m,
                             seed=trial)
        assert out_state(ran) == out_state(det)


def test_seed_varies_placement_but_not_result(rng):
    f = np.arange(1, 9)
    placements, results = set(), set()
    for seed in range(10):
        s = LogSink()
        x = make_distribute_input(s, f)
        out = prp_distribute(x, 12, seed=seed)
        _, ops, idxs = s.event_arrays("prp_place")
        placements.add(tuple(idxs[ops == 1].tolist()))
        results.add(tuple(out_state(out)))
    assert len(results) == 1
    assert len(placements) > 1  # the data-dependent part moves with the seed


def test_post_placement_trace_is_fixed(rng):
    # everything after the placement phase is a deterministic pattern of m
    tails = set()
    for seed in range(6):
        s = LogSink()
        x = make_distribute_input(s, np.arange(1, 6))
        prp_distribute(x, 9, seed=seed)
        tail = [(ph, ev.op, ev.index) for ph, ev in s.events_tagged()
                if ph not in ("prp_place",)]
        tails.add(tuple(tail))
    assert len(tails) == 1


def test_rejects_batched_input():
    x = make_distribute_input(NullSink(), np.ones((2, 1), np.uint64), batch=2)
    with pytest.raises(ValueError):
        prp_distribute(x, 1, seed=0)
