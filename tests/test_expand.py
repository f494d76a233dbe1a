"""Oblivious expansion: replicate each entry by its group dimension."""

import numpy as np
import pytest

from oblivjoin.harness import make_distribute_input
from oblivjoin.primitives import oblivious_expand
from oblivjoin.trace import HashSink, LogSink, NullSink


def expand_input(sink, g_values):
    g = np.asarray(g_values, np.uint64)
    x = make_distribute_input(sink, np.zeros_like(g))
    x.col("alpha1")[:] = g
    return x


def expanded_payloads(out):
    return [e.d for e in out.debug_entries()]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_three_then_one(engine):
    x = expand_input(NullSink(), [3, 1])
    out = oblivious_expand(x, "alpha1", engine)
    assert out.length == 4
    assert expanded_payloads(out) == [0, 0, 0, 1]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_zero_count_entry_vanishes(engine):
    x = expand_input(NullSink(), [2, 0, 1])
    out = oblivious_expand(x, "alpha1", engine)
    assert expanded_payloads(out) == [0, 0, 2]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_matches_numpy_repeat_oracle(engine, rng):
    trials = 40 if engine == "vector" else 15
    for _ in range(trials):
        n = int(rng.integers(1, 20))
        g = rng.integers(0, 4, n)
        if g.sum() == 0:
            g[rng.integers(0, n)] = 1
        x = expand_input(NullSink(), g)
        out = oblivious_expand(x, "alpha1", engine)
        want = np.repeat(np.arange(n), g)
        assert expanded_payloads(out) == want.tolist()
        assert all(e.is_null == 0 for e in out.debug_entries())


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_expand_by_other_attribute(engine):
    s = NullSink()
    x = expand_input(s, [1, 1])
    x.col("alpha2")[:] = [2, 3]
    out = oblivious_expand(x, "alpha2", engine)
    assert expanded_payloads(out) == [0, 0, 1, 1, 1]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_expand_by_f(engine):
    # the prefix pass overwrites f, so m must be summed from g before it
    x = make_distribute_input(NullSink(), [2, 0, 3])
    out = oblivious_expand(x, "f", engine)
    assert out.length == 5
    assert expanded_payloads(out) == [0, 0, 2, 2, 2]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("g_attr", ["bogus", "is_null"])
def test_unknown_g_attr_rejected_before_any_access(engine, g_attr):
    s = LogSink()
    x = expand_input(s, [1, 2])
    with pytest.raises(ValueError, match="g_attr"):
        oblivious_expand(x, g_attr, engine)
    assert len(s) == 0


def test_prefix_and_fill_event_counts():
    # both linear passes read and write every slot: 2n + 2m events beyond
    # the embedded distribution
    n, g = 4, [2, 0, 3, 1]
    m = sum(g)
    s = LogSink()
    x = expand_input(s, g)
    oblivious_expand(x, "alpha1")
    _, p_ops, _ = s.event_arrays("expand_prefix")
    _, f_ops, _ = s.event_arrays("expand_fill")
    assert len(p_ops) == 2 * n
    assert len(f_ops) == 2 * m


def test_trace_depends_only_on_sizes(rng):
    # same (n, m) through different group layouts -> same digest
    layouts = [[4, 1, 1], [1, 1, 4], [2, 2, 2], [6, 0, 0], [0, 3, 3]]
    digests = set()
    for g in layouts:
        s = HashSink()
        x = expand_input(s, g)
        oblivious_expand(x, "alpha1")
        digests.add(s.digest)
    assert len(digests) == 1


def test_engines_agree(rng):
    g = [0, 2, 1, 0, 3]
    outs, digs = [], []
    for engine in ("scalar", "vector"):
        s = HashSink()
        x = expand_input(s, g)
        out = oblivious_expand(x, "alpha1", engine)
        outs.append(expanded_payloads(out))
        digs.append(s.digest)
    assert outs[0] == outs[1]
    assert digs[0] == digs[1]

