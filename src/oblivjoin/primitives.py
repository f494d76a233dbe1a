"""Oblivious building blocks: compare-exchange, sorting network,
distribution, expansion.

Every routine here touches public memory in a pattern that is a pure
function of its public sizes — never of entry contents.  Two engines share
each schedule: "scalar" is the literal one-entry-at-a-time reference
(every write goes through ct_select, every comparator performs its two
reads and two writes unconditionally), "vector" applies whole schedule
levels at once.  Both emit identical traces; the tests hold them to
that.

The vector engine runs its networks and its linear passes in the kernel
set that _native.kernel() returns, the C kernels or their numpy bodies,
which give the same arrays.  The vector sort runs its whole sorting
network in one kernel sort call, on key copies that a caller may pack
(_sort_on).  The vector distribution sorts one packed key copy,
is_null << 63 | f, with a slot permutation, then routes
g = key & ((key >> 63) - 1) (0 on null entries) and that permutation
through the whole routing network in one route call.  The expansion
runs its prefix pass in one prefix call and folds its forward fill into
the same permutation in one fold call.

So a sort, a distribution and an expansion each end in one slot
permutation, and _gather moves every column of the array through it
once, in one gather call.  A permutation entry of -1 marks a slot that
becomes a null entry.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _native
from .entries import (U64_FIELDS, KEY_NONNULL_F, ct_eq, ct_select,
                      ct_select_entry, lex_compare, null_entry)
from .trace import (READ, WRITE, PublicArray, alloc, consumes_events,
                    emit_steps)
from ._schedule import route_hops, sort_levels

__all__ = [
    "compare_exchange", "bitonic_sort",
    "oblivious_distribute", "oblivious_expand",
    "DistributeCollisionError",
]

_ALL_COLS = U64_FIELDS + ("is_null",)


class DistributeCollisionError(RuntimeError):
    """The destinations f of a distribution are not injective into 1..m.

    Every distribution checks this once its network has run: where fewer
    entries end at their slot f-1 than are live, it raises instead of
    returning a wrong placement.  A valid map never trips it.
    """


def _check_engine(engine: str) -> None:
    if engine not in ("scalar", "vector"):
        raise ValueError(f"unknown engine {engine!r}")


# the most columns a sort key may have, the most key copies a kernel sort
# takes: the vector join sorts on one or two packed keys, and three-column
# keys stay for KEY_TID_J_D, which the scalar join sorts by
_MAX_KEY_COLS = _native._MAX_KEYS


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
    comparator on uint64 copies of the key columns and a slot
    permutation only (a swap depends on nothing else), in _sort_on.
    """
    _check_engine(engine)
    _check_key(key)
    if engine == "scalar":
        for lo, hi, asc in sort_levels(a.length):
            for t in range(len(lo)):
                compare_exchange(a, int(lo[t]), int(hi[t]), key, bool(asc[t]))
        return
    # uint64 copies, so that the 8-byte XOR mask fits the uint8 null flag too
    _sort_on(a, [a.col(name).astype(np.uint64) for name in key])


def _sort_on(a: PublicArray, keys: list) -> None:
    """The vector bitonic_sort of a on keys, one to three uint64 key
    copies of len(a) slots, compared in order.

    A comparison's outcome is all that moves an entry, so keys that
    order every pair of slots as a KeySpec does, ties included, give
    that KeySpec's permutation, outputs and events: the vector join
    sorts on such packed keys (pipeline).  The network runs in
    _sort_network, which the vector distribution shares, then every
    column of a moves through the permutation once with _gather (the
    permutation has no -1 entries).  keys is emptied before the gather,
    so that a caller that holds no other reference frees the copies
    first, or the gather raises the join's peak memory.
    """
    perm = np.arange(a.length, dtype=np.int64)
    _sort_network(a, keys, perm)
    keys.clear()
    _gather(a, perm)


def _sort_network(a: PublicArray, keys, perm: np.ndarray) -> None:
    """Run the sorting network of len(a) slots on the uint64 key copies
    keys and the int64 slot permutation perm, in place, and emit its
    events on a.  The whole network is one kernel sort call.  The events
    are those of sort_levels's pairs in order, in the blocks that the
    kernel set hands to emit; a plain NullSink only counts 4 events per
    comparator, and no pair array is built for it."""
    emit = (functools.partial(_emit_pairs, a) if consumes_events(a.sink)
            else None)
    ncomp = _native.kernel().sort(keys, perm, emit=emit)
    if emit is None:  # emit_steps reads only the length of the index
        _emit_pairs(a, range(ncomp), range(ncomp))


def _gather(a: PublicArray, perm: np.ndarray) -> None:
    """Move every column of a through perm, a len(a) int64 slot
    permutation, which may be overwritten: slot i takes the entry at slot
    perm[i], and a slot whose perm is -1 becomes a null entry (u64
    fields 0, null flag 1)."""
    _native.kernel().gather([a.col(name) for name in U64_FIELDS],
                            a.col("is_null"), perm)


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
    emit_steps((x, READ, range(n)), (a, WRITE, range(n)))


# --------------------------------------------------------------------------
# Oblivious distribution (routing network)
# --------------------------------------------------------------------------

def _route_hop_scalar(a: PublicArray, j: int) -> None:
    for i in range(a.length - j - 1, -1, -1):
        y = a.read(i)
        y2 = a.read(i + j)
        # y's 0-based destination is f-1; it still needs to advance past
        # this hop iff f-1 >= i+j.  Null entries have f = 0.  Only a map
        # that is not injective into 1..m moves y onto a live y2, and
        # _check_placement refuses that map after the whole network.
        cond = int(y.f > i + j)
        a.write(i, ct_select_entry(cond, y2, y))
        a.write(i + j, ct_select_entry(cond, y, y2))


def _route_vector(a: PublicArray, g: np.ndarray, perm: np.ndarray) -> None:
    """Route the len(a) destinations g (0 on a null entry) and the slot
    permutation perm in place, in one kernel route call, and emit each
    hop's steps on a: a slot an entry moves out of gets g 0 and perm
    -1."""
    m = a.length
    _native.kernel().route(g, perm)
    # hop j steps (i, i+j) for i from m-j-1 down to 0: both index vectors
    # are slices of one descending range
    down = range(m - 1, -1, -1)
    for j in route_hops(m):
        _emit_pairs(a, down[j:], down[:m - j])


def _destinations(a: PublicArray) -> np.ndarray:
    """f on the live entries of a, 0 on the null ones: the g that the
    vector route carries."""
    return np.where(a.col("is_null") == 0, a.col("f"), np.uint64(0))


def _check_placement(g: np.ndarray, x: PublicArray) -> None:
    """Raise DistributeCollisionError unless as many slots i of a
    placement hold an entry with destination g = i+1 as x holds non-null
    entries; g is 0 on a null entry.

    That holds iff f is injective into 1..len(g); an entry lost to a
    collision or left short of its slot fails it.  The count reads the
    arrays untraced.
    """
    m = len(g)
    live = int((x.col("is_null") == 0).sum())
    placed = int((g == np.arange(1, m + 1, dtype=np.uint64)).sum())
    if placed != live:
        raise DistributeCollisionError(
            f"destinations are not injective into 1..{m}: "
            f"{placed} of {live} entries reached slot f-1")


def _copied(x: PublicArray, m: int, engine: str) -> PublicArray:
    """A fresh max(n, m)-slot array holding x in its first n slots."""
    a = alloc(max(x.length, m), x.sink)
    with x.sink.phase_scope("distribute_copy"):
        _copy_into(x, a, x.length, engine)
    return a


def _distribute_scalar(x: PublicArray, m: int) -> PublicArray:
    """The scalar distribution into a max(n, m)-slot array: copy, sort,
    then route its first m slots."""
    n = x.length
    sink = x.sink
    a = _copied(x, m, "scalar")
    with sink.phase_scope("distribute_sort"):
        bitonic_sort(a.view(0, n), KEY_NONNULL_F, "scalar")
    with sink.phase_scope("distribute_route"):
        region = a.view(0, m)
        for j in route_hops(m):
            _route_hop_scalar(region, j)
        _check_placement(_destinations(region), x)
    return a


def _distribute_vector(x: PublicArray, m: int):
    """The vector distribution up to its gather: returns (a, g, perm).

    a holds x in its first n of max(n, m) slots, unmoved.  Slot i of the
    distribution takes slot perm[i] of a, or is null where perm[i] is
    -1; g[i], for i < m, is its destination (0 on a null entry).
    The network sorts one uint64 key per slot of x, key =
    is_null << 63 | f, with perm, then routes g = key & ((key >> 63) - 1),
    computed on the sorted keys, with the first m entries of perm, so no
    column moves until one _gather.  Slots past n start null with f = 0,
    so their g is 0.

    The key orders x's slots as KEY_NONNULL_F does wherever f < 2^63, as
    it is on every entry a join distributes (f <= m).  A live entry with
    f >= 2^63 gets g = 0, so it reaches no slot and _check_placement
    raises, as it does for any f past m.  Two null entries whose f differ
    in bit 63 alone tie on the key where KEY_NONNULL_F orders them, so
    only those may leave in another order than the scalar sort's.
    """
    n = x.length
    sink = x.sink
    a = _copied(x, m, "vector")
    key = (x.col("is_null") != 0).astype(np.uint64)
    key <<= np.uint64(63)
    key |= x.col("f")
    perm = np.arange(a.length, dtype=np.int64)
    with sink.phase_scope("distribute_sort"):
        _sort_network(a.view(0, n), [key], perm[:n])
    with sink.phase_scope("distribute_route"):
        k = min(n, m)
        g = np.zeros(m, np.uint64)
        np.right_shift(key[:k], np.uint64(63), out=g[:k])
        g[:k] -= np.uint64(1)  # all ones on a live entry, 0 on a null one
        g[:k] &= key[:k]
        del key
        _route_vector(a.view(0, m), g, perm[:m])
        _check_placement(g, x)
    return a, g, perm


def _first(a: PublicArray, m: int) -> PublicArray:
    """a, or a view of its first m slots when it is longer."""
    return a if a.length == m else a.view(0, m)


def oblivious_distribute(x: PublicArray, m: int,
                         engine: str = "vector") -> PublicArray:
    """Scatter the non-null entries of x to slots f-1 of a length-m array.

    Null entries (f = 0) are skipped, and n may exceed m as long as at
    most m entries are non-null.  f must be injective into 1..m on the
    non-null entries; DistributeCollisionError is raised when it is not.
    Unfilled slots are null.  Returns a fresh array of length m, or a
    view of its first m slots when n > m: the sort parks nulls behind
    them and routing never consults the rest.  The access sequence
    depends only on (n, m).  The vector engine moves the columns once,
    at the end of the routing phase.
    """
    _check_engine(engine)
    if m < 0:
        raise ValueError(f"output size m = {m} is negative")
    if engine == "scalar":
        return _first(_distribute_scalar(x, m), m)
    a, g, perm = _distribute_vector(x, m)
    del g
    with x.sink.phase_scope("distribute_route"):
        _gather(a, perm)
    return _first(a, m)


# --------------------------------------------------------------------------
# Oblivious expansion
# --------------------------------------------------------------------------

def _expand_prefix(x: PublicArray, g_attr: str, engine: str) -> int:
    """First expansion pass: f <- 1 + exclusive prefix sum of g, where a
    null entry's g counts as 0, and entries whose g counts 0 become null
    with f = 0.  Returns m = the sum of the counts.  ValueError, before
    any access or write, if a running sum of them does not fit in 64
    bits.  The vector engine runs the pass in one kernel prefix call,
    which refuses that sum itself."""
    n = x.length
    g, nul = x.col(g_attr), x.col("is_null")
    if engine == "scalar":
        m = (None if _native._sum_wraps(_native._counts(g, nul))
             else _expand_prefix_scalar(x, g_attr))
    else:
        m = _native.kernel().prefix(g, x.col("f"), nul)
    if m is None:
        raise ValueError(f"the sum of {g_attr} over {n} entries does not "
                         f"fit in 64 bits")
    if engine == "vector":
        emit_steps((x, READ, range(n)), (x, WRITE, range(n)))
    return m


def _expand_prefix_scalar(x: PublicArray, g_attr: str) -> int:
    s = 1
    for i in range(x.length):
        e = x.read(i)
        g = ct_select(ct_eq(e.is_null, 0), getattr(e, g_attr), 0)
        z = ct_eq(g, 0)
        e.f = ct_select(z, 0, s)
        e.is_null = ct_select(z, 1, e.is_null)
        x.write(i, e)
        s += g
    return s - 1


def _forward_fill(a: PublicArray) -> None:
    """Second expansion pass, scalar engine: each null slot takes the last
    value written."""
    px = null_entry()
    for i in range(a.length):
        e = a.read(i)
        e = ct_select_entry(e.is_null, px, e)
        px = e
        a.write(i, e)


def oblivious_expand(x: PublicArray, g_attr: str,
                     engine: str = "vector") -> PublicArray:
    """Replace each entry of x by g copies of itself (g = its g_attr
    value, one of U64_FIELDS), preserving order; entries with g = 0
    vanish, and so do null entries, whatever their g.

    Returns a fresh array of length m = sum of g.  x itself is consumed
    (its f and null flags are overwritten by the prefix pass).  The trace
    depends only on (n, m).  ValueError, before any access, if m does not
    fit in 64 bits.  The vector engine moves the columns once, in the
    fill phase.
    """
    _check_engine(engine)
    if g_attr not in U64_FIELDS:
        raise ValueError(f"g_attr {g_attr!r} is not one of {U64_FIELDS}")
    sink = x.sink
    with sink.phase_scope("expand_prefix"):
        m = _expand_prefix(x, g_attr, engine)
    if engine == "scalar":
        a = oblivious_distribute(x, m, engine)
        with sink.phase_scope("expand_fill"):
            _forward_fill(a)
        return a
    a, g, perm = _distribute_vector(x, m)
    with sink.phase_scope("expand_fill"):
        # the forward fill, folded into perm: slot i < m takes perm[src] of
        # the last live slot src at or before it, or -1 where none is;
        # after _check_placement the live slots are those with g != 0
        _native.kernel().fold(g, perm[:m])
        del g  # freed first, or the gather raises the join's peak memory
        _gather(a, perm)
        emit_steps((a, READ, range(m)), (a, WRITE, range(m)))
    return _first(a, m)
