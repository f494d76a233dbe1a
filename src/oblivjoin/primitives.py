"""Oblivious building blocks: compare-exchange, sorting network,
distribution, expansion.

Every routine here touches public memory in a pattern that is a pure
function of its public sizes — never of entry contents.  Two engines share
each schedule: "scalar" is the literal one-entry-at-a-time reference
(every write goes through ct_select, every comparator performs its two
reads and two writes unconditionally), "vector" applies whole schedule
levels at once.  Both emit identical traces; the tests hold them to
that.

The vector sort runs its whole sorting network in one call of the C sort
kernel of the native module (_native) where it can be built, and one
level of sort_levels at a time as numpy gathers and scatters
(_ce_level_vector) otherwise; the two give the same permutation.  The
vector distribution likewise runs its whole routing network in one call
of the C route kernel, or one numpy hop at a time (_route_hop_vector),
on copies of f and the null flag plus a slot permutation; the two give
the same arrays.

The sort, the routing network and the expansion's fill pass each end in
one slot permutation, and _gather moves every column of the array
through it.  A permutation entry of -1 (_VACATED) marks a slot that
becomes a null entry.
"""

from __future__ import annotations

import numpy as np

from . import _native
from .entries import (U64_FIELDS, KEY_NONNULL_F, ct_eq, ct_select,
                      ct_select_entry, lex_compare, null_entry)
from .trace import (READ, WRITE, PublicArray, alloc, consumes_events,
                    emit_steps)
from ._schedule import route_hops, sort_levels, sort_program

__all__ = [
    "compare_exchange", "bitonic_sort",
    "oblivious_distribute", "oblivious_expand",
    "DistributeCollisionError",
]

_ALL_COLS = U64_FIELDS + ("is_null",)


class DistributeCollisionError(RuntimeError):
    """The destinations f of a distribution are not injective into 1..m.

    Every distribution checks this: a routing swap that hits a non-null
    partner, or an entry that does not end at slot f-1, raises instead of
    returning a wrong placement.  A valid map never trips it.
    """


def _check_engine(engine: str) -> None:
    if engine not in ("scalar", "vector"):
        raise ValueError(f"unknown engine {engine!r}")


# the most columns a sort key may have: the C sort kernel has one body per
# key count, and every KeySpec in use has one to three
_MAX_KEY_COLS = 3


def _check_key(key) -> None:
    if not isinstance(key, tuple) or not set(key).issubset(_ALL_COLS):
        raise ValueError(f"sort key {key!r} is not a tuple of entry column "
                         f"names {_ALL_COLS}")
    if not 1 <= len(key) <= _MAX_KEY_COLS:
        raise ValueError(f"sort key {key!r} has {len(key)} columns; a key "
                         f"has 1 to {_MAX_KEY_COLS}")


# --------------------------------------------------------------------------
# Compare-exchange and sorting
# --------------------------------------------------------------------------

def compare_exchange(a: PublicArray, i: int, k: int, key,
                     ascending: bool = True) -> None:
    """Order slots i and k of a by key, ascending or descending.

    Unconditionally two reads then two writes — an already-ordered or
    equal pair gets dummy writes — so the event pattern never reveals the
    outcome.  ValueError, before any access, if key is not a tuple of
    column names.
    """
    _check_key(key)
    e1 = a.read(i)
    e2 = a.read(k)
    c = lex_compare(e1, e2, key)
    swap = int(c > 0) if ascending else int(c < 0)
    a.write(i, ct_select_entry(swap, e2, e1))
    a.write(k, ct_select_entry(swap, e1, e2))


def _ce_level_vector(keys, perm: np.ndarray, lo, hi, asc) -> None:
    # Lexicographic strict greater/less masks for the pairs (lo, hi).
    gt = np.zeros(len(lo), bool)
    lt = np.zeros(len(lo), bool)
    eq = np.ones(len(lo), bool)
    for col in keys:
        av = col[lo]
        bv = col[hi]
        g = av > bv
        l = av < bv
        gt |= eq & g
        lt |= eq & l
        eq &= ~(g | l)
    swap = (gt & asc) | (lt & ~asc)
    # Select by mask arithmetic, like ct_select: each side of a pair XORs
    # in the pair's difference masked by the swap bit.
    mask = -swap.astype(np.int64)
    for col in [perm, *keys]:
        vl = col[lo]
        vh = col[hi]
        diff = vl ^ vh
        diff &= mask.view(col.dtype)
        vl ^= diff
        vh ^= diff
        col[lo] = vl
        col[hi] = vh


# the most comparators in one emitted block of a native-path sort under a
# sink that consumes events, one oblivjoin_sort_pairs call each: enough
# that a block's fixed Python cost is small beside hashing it, few enough
# that its index and record arrays stay under 1 MiB
_EMIT_CHUNK = 1 << 13


def _emit_pairs(a: PublicArray, lo, hi) -> None:
    """Emit the compare-exchange steps of the pairs (lo, hi) in order:
    each reads both slots, then writes both."""
    emit_steps((a, READ, lo), (a, READ, hi), (a, WRITE, lo), (a, WRITE, hi))


def bitonic_sort(a: PublicArray, key, engine: str = "vector") -> None:
    """In-place oblivious sort of a under a KeySpec, a tuple of one to
    three entry column names compared ascending; ValueError, before any
    access, if the key is not a tuple, is empty or longer, or names no
    column.

    The comparator sequence (and hence the trace) is a pure function of
    len(a); works for any length, in place.  The vector engine runs every
    comparator on copies of the key columns and a slot permutation only
    (a swap depends on nothing else), then gathers every column of a
    through the permutation once with _gather (the permutation has no -1
    entries).  The whole network is one call of the native sort kernel on
    sort_program(len(a)), or one _ce_level_vector call per level of
    sort_levels when the kernel is unavailable.  The events are those of
    sort_levels's pairs in order either way.  On the native path a sink
    that consumes events gets them in blocks of _EMIT_CHUNK comparators,
    each filled by one call of the kernel's pair expander, and
    sort_levels is not walked; a plain NullSink only counts 4 events per
    comparator, and no pair array is built for it.  On the fallback each
    level is one block.
    """
    _check_engine(engine)
    _check_key(key)
    if engine == "scalar":
        for lo, hi, asc in sort_levels(a.length):
            for t in range(len(lo)):
                compare_exchange(a, int(lo[t]), int(hi[t]), key, bool(asc[t]))
        return
    # uint64 copies, so that the 8-byte XOR mask fits the uint8 null flag too
    keys = [a.col(name).astype(np.uint64) for name in key]
    perm = np.arange(a.length, dtype=np.int64)
    native = _native.kernel()
    if native is None:
        for lo, hi, asc in sort_levels(a.length):
            _ce_level_vector(keys, perm, lo, hi, asc)
            _emit_pairs(a, lo, hi)
    else:
        prog, ncomp = sort_program(a.length)
        native.sort(keys, perm, prog)
        if consumes_events(a.sink):
            lo = np.empty(min(ncomp, _EMIT_CHUNK), np.int64)
            hi = np.empty_like(lo)
            for start in range(0, ncomp, _EMIT_CHUNK):
                count = min(_EMIT_CHUNK, ncomp - start)
                native.pairs(prog, a.length, start, count, lo, hi)
                _emit_pairs(a, lo[:count], hi[:count])
        else:  # emit_steps reads only the length of the index
            _emit_pairs(a, range(ncomp), range(ncomp))
    del keys  # freed first, or the gather raises the join's peak memory
    _gather(a, perm)


# the permutation entry of a slot that becomes a null entry: one an entry
# moved out of in routing, or one before the first live entry in the fill
_VACATED = -1


def _gather(a: PublicArray, perm: np.ndarray) -> None:
    """Move every column of a through perm, a len(a) int64 slot
    permutation, which is consumed: slot i takes the entry at slot
    perm[i], and a slot whose perm is _VACATED becomes a null entry (u64
    fields 0, null flag 1)."""
    # a vacated slot gathers slot 0 and is then masked, like ct_select
    keep = -(perm != _VACATED).astype(np.uint64)
    perm &= keep.view(np.int64)
    for name in _ALL_COLS:
        col = a.col(name)
        vals = col[perm]
        if name == "is_null":
            vals |= keep == 0
        else:
            vals &= keep
        col[:] = vals


# --------------------------------------------------------------------------
# Copies
# --------------------------------------------------------------------------

def _copy_into(x: PublicArray, a: PublicArray, n: int, engine: str) -> None:
    """Copy x[0..n) into a[0..n) (read source, write destination)."""
    if engine == "scalar":
        for i in range(n):
            a.write(i, x.read(i))
        return
    for name in _ALL_COLS:
        a.col(name)[:n] = x.col(name)[:n]
    ar = np.arange(n, dtype=np.int64)
    emit_steps((x, READ, ar), (a, WRITE, ar))


# --------------------------------------------------------------------------
# Oblivious distribution (routing network)
# --------------------------------------------------------------------------

def _route_hop_scalar(a: PublicArray, m: int, j: int) -> None:
    for i in range(m - j - 1, -1, -1):
        y = a.read(i)
        y2 = a.read(i + j)
        # y's 0-based destination is f-1; it still needs to advance past
        # this hop iff f-1 >= i+j.  Null entries have f = 0.
        cond = int(y.f > i + j)
        if cond and not y2.is_null:
            raise DistributeCollisionError(
                f"swap at ({i}, {i + j}) hit a non-null partner")
        a.write(i, ct_select_entry(cond, y2, y))
        a.write(i + j, ct_select_entry(cond, y, y2))


def _route_hop_vector(f: np.ndarray, nul: np.ndarray, perm: np.ndarray,
                      j: int) -> None:
    cnt = len(f) - j
    # Live entries at p < m-j whose destination lies at or beyond p+j move
    # forward by j; their slots become null.  Sequential execution of the
    # descending loop does exactly this when every swap partner is null;
    # a non-null partner is overwritten and lost, which _check_placement
    # detects.
    thresh = np.arange(j, j + cnt, dtype=np.uint64)
    mover = (nul[:cnt] == 0) & (f[:cnt] > thresh)
    for col, vacated in ((f, 0), (nul, 1), (perm, _VACATED)):
        src = col[:cnt].copy()
        col[:cnt] = np.where(mover, vacated, src)
        col[j:] = np.where(mover, src, col[j:])


def _route_vector(a: PublicArray, hops: list[int]) -> None:
    """Route on uint64 copies of f and the null flag plus a slot
    permutation (one call of the native route kernel, or _route_hop_vector
    per hop when it is unavailable), emit each hop's steps, then move every
    column of a, f and the null flag included, through the permutation
    with _gather: a slot an entry moved out of holds -1 and becomes a null
    entry."""
    m = a.length
    f = a.col("f").astype(np.uint64)
    nul = a.col("is_null").astype(np.uint64)
    perm = np.arange(m, dtype=np.int64)
    native = _native.kernel()
    if native is None:
        for j in hops:
            _route_hop_vector(f, nul, perm, j)
    else:
        native.route(f, nul, perm, np.array(hops, np.int64))
    # hop j steps (i, i+j) for i from m-j-1 down to 0: both index vectors
    # are slices of one descending range
    down = np.arange(m - 1, -1, -1, dtype=np.int64)
    for j in hops:
        _emit_pairs(a, down[j:], down[:m - j])
    # the routed copies are freed before the gather, which would otherwise
    # raise the join's peak memory
    del f, nul
    _gather(a, perm)


def _check_placement(a: PublicArray, x: PublicArray) -> None:
    """Raise DistributeCollisionError unless as many entries of a sit at
    their slot f-1 as x holds non-null entries.

    That holds iff f is injective into 1..len(a); an entry lost to a
    collision or left short of its slot fails it.  The count reads the
    columns untraced.
    """
    m = a.length
    live = int((x.col("is_null") == 0).sum())
    slot = np.arange(1, m + 1, dtype=np.uint64)
    placed = int(((a.col("is_null") == 0) & (a.col("f") == slot)).sum())
    if placed != live:
        raise DistributeCollisionError(
            f"destinations are not injective into 1..{m}: "
            f"{placed} of {live} entries reached slot f-1")


def _route_region(a: PublicArray, x: PublicArray, engine: str) -> None:
    """Route the non-null entries of a, copied from x, to slots f-1."""
    m = a.length
    hops = route_hops(m)
    if engine == "scalar":
        for j in hops:
            _route_hop_scalar(a, m, j)
    else:
        _route_vector(a, hops)
    _check_placement(a, x)


def oblivious_distribute(x: PublicArray, m: int,
                         engine: str = "vector") -> PublicArray:
    """Scatter the non-null entries of x to slots f-1 of a length-m array.

    Null entries (f = 0) are skipped, and n may exceed m as long as at
    most m entries are non-null.  f must be injective into 1..m on the
    non-null entries; DistributeCollisionError is raised when it is not.
    Unfilled slots are null.  Returns a fresh array of length m, or a
    view of its first m slots when n > m: the sort parks nulls behind
    them and routing never consults the rest.  The access sequence
    depends only on (n, m).
    """
    _check_engine(engine)
    if m < 0:
        raise ValueError(f"output size m = {m} is negative")
    n = x.length
    sink = x.sink
    a = alloc(max(n, m), sink)
    with sink.phase_scope("distribute_copy"):
        _copy_into(x, a, n, engine)
    with sink.phase_scope("distribute_sort"):
        bitonic_sort(a.view(0, n), KEY_NONNULL_F, engine)
    with sink.phase_scope("distribute_route"):
        _route_region(a.view(0, m), x, engine)
    return a if a.length == m else a.view(0, m)


# --------------------------------------------------------------------------
# Oblivious expansion
# --------------------------------------------------------------------------

def _expand_prefix(x: PublicArray, g_attr: str, engine: str) -> int:
    """First expansion pass: f <- 1 + exclusive prefix sum of g, zero-g
    entries become null with f = 0.  Returns m = sum of g."""
    n = x.length
    if engine == "scalar":
        s = 1
        for i in range(n):
            e = x.read(i)
            g = getattr(e, g_attr)
            z = ct_eq(g, 0)
            e.f = ct_select(z, 0, s)
            e.is_null = ct_select(z, 1, e.is_null)
            x.write(i, e)
            s += g
        return s - 1
    g = x.col(g_attr)
    # the sum before the write below, which overwrites g when g_attr is "f"
    m = int(g.sum(dtype=np.uint64))
    z = g == 0
    before = np.cumsum(g, dtype=np.uint64) - g
    fcol = x.col("f")
    ncol = x.col("is_null")
    fcol[:] = np.where(z, 0, np.uint64(1) + before)
    ncol[:] = np.where(z, 1, ncol)
    ar = np.arange(n, dtype=np.int64)
    emit_steps((x, READ, ar), (x, WRITE, ar))
    return m


def _forward_fill(a: PublicArray, engine: str) -> None:
    """Second expansion pass: each null slot takes the last value written."""
    m = a.length
    if engine == "scalar":
        px = null_entry()
        for i in range(m):
            e = a.read(i)
            e = ct_select_entry(e.is_null, px, e)
            px = e
            a.write(i, e)
        return
    ar = np.arange(m, dtype=np.int64)
    # each slot's source is the last live slot at or before it; slots
    # before the first live one are _VACATED and stay null
    src = np.maximum.accumulate(
        np.where(a.col("is_null") == 0, ar, _VACATED))
    _gather(a, src)
    emit_steps((a, READ, ar), (a, WRITE, ar))


def oblivious_expand(x: PublicArray, g_attr: str,
                     engine: str = "vector") -> PublicArray:
    """Replace each entry of x by g copies of itself (g = its g_attr
    value, one of U64_FIELDS), preserving order; entries with g = 0
    vanish.

    Returns a fresh array of length m = sum of g.  x itself is consumed
    (its f and null flags are overwritten by the prefix pass).  The trace
    depends only on (n, m).
    """
    _check_engine(engine)
    if g_attr not in U64_FIELDS:
        raise ValueError(f"g_attr {g_attr!r} is not one of {U64_FIELDS}")
    sink = x.sink
    with sink.phase_scope("expand_prefix"):
        m = _expand_prefix(x, g_attr, engine)
    a = oblivious_distribute(x, m, engine)
    with sink.phase_scope("expand_fill"):
        _forward_fill(a, engine)
    return a
