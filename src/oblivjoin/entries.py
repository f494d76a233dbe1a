"""Fixed-width table entries and constant-time local operations.

The join engine moves fixed-width entries through traced public memory.
Everything in this module is local-register computation: comparing keys or
selecting between two entries touches no public memory and therefore never
appears in an access trace.  Data-dependent decisions are folded into 0/1
bits and applied with mask arithmetic so an entry's content never picks a
code path on the way to a public write.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AugEntry",
    "null_entry",
    "U64_FIELDS",
    "ENTRY_BYTES",
    "ASC",
    "DESC",
    "KeySpec",
    "ct_select",
    "ct_eq",
    "ct_select_entry",
    "lex_compare",
    "KEY_J_TID",
    "KEY_TID_J_D",
    "KEY_F",
    "KEY_NONNULL_F",
    "KEY_J_II",
]

U64_MASK = (1 << 64) - 1

# uint64-valued entry attributes, in storage/serialization order.  The
# null flag is carried separately as a single byte.
U64_FIELDS = ("j", "d", "tid", "alpha1", "alpha2", "f", "ii")

ENTRY_BYTES = 8 * len(U64_FIELDS) + 1  # 57


@dataclass(slots=True)
class AugEntry:
    """One fixed-width entry of the augmented working table.

    j is the join attribute and d the payload.  tid tags the source table
    (1 or 2).  alpha1/alpha2 hold the per-key group dimensions computed by
    the pipeline, f a 1-based destination index used during distribution
    (0 on null entries), and ii an alignment slot.  is_null marks
    placeholder entries; a null entry has every attribute zero and
    is_null = 1.
    """

    j: int = 0
    d: int = 0
    tid: int = 0
    alpha1: int = 0
    alpha2: int = 0
    f: int = 0
    ii: int = 0
    is_null: int = 0


def null_entry() -> AugEntry:
    """A fresh null placeholder entry (all attributes zero, is_null=1)."""
    return AugEntry(is_null=1)


def ct_select(cond: int, a: int, b: int) -> int:
    """Return a if cond is 1, b if cond is 0, by mask arithmetic.

    Both alternatives are always evaluated by the caller; no branch
    depends on cond.  Values must be non-negative integers.
    """
    mask = -(cond & 1)
    return (a & mask) | (b & ~mask)


def ct_eq(a: int, b: int) -> int:
    """1 if a == b else 0, computed without comparisons.

    Folds the XOR difference down to its OR-of-all-bits and inverts.
    Operands are treated as 64-bit words.
    """
    d = (a ^ b) & U64_MASK
    d |= d >> 32
    d |= d >> 16
    d |= d >> 8
    d |= d >> 4
    d |= d >> 2
    d |= d >> 1
    return (d & 1) ^ 1


def ct_select_entry(cond: int, a: AugEntry, b: AugEntry) -> AugEntry:
    """Field-wise ct_select over whole entries: a if cond else b."""
    return AugEntry(
        j=ct_select(cond, a.j, b.j),
        d=ct_select(cond, a.d, b.d),
        tid=ct_select(cond, a.tid, b.tid),
        alpha1=ct_select(cond, a.alpha1, b.alpha1),
        alpha2=ct_select(cond, a.alpha2, b.alpha2),
        f=ct_select(cond, a.f, b.f),
        ii=ct_select(cond, a.ii, b.ii),
        is_null=ct_select(cond, a.is_null, b.is_null),
    )


# --------------------------------------------------------------------------
# Sort keys
# --------------------------------------------------------------------------

ASC = True
DESC = False

# A KeySpec is an ordered tuple of (attribute, direction) pairs.  The
# pseudo-attribute "nonnull" orders by the null flag: ascending direction
# puts non-null entries first.
KeySpec = tuple  # tuple[tuple[str, bool], ...]

KEY_J_TID = (("j", ASC), ("tid", ASC))
KEY_TID_J_D = (("tid", ASC), ("j", ASC), ("d", ASC))
KEY_F = (("f", ASC),)
KEY_NONNULL_F = (("nonnull", ASC), ("f", ASC))
KEY_J_II = (("j", ASC), ("ii", ASC))

# Attribute name used for key extraction; "nonnull" maps onto the null flag
# so that ascending order sorts non-null entries before null ones.
_KEY_ATTR = {name: name for name in U64_FIELDS}
_KEY_ATTR["nonnull"] = "is_null"
_KEY_ATTR["is_null"] = "is_null"


def key_column(attr: str) -> str:
    """Storage column backing a KeySpec attribute name."""
    try:
        return _KEY_ATTR[attr]
    except KeyError:
        raise ValueError(f"unknown key attribute {attr!r}") from None


def lex_compare(a: AugEntry, b: AugEntry, key: KeySpec) -> int:
    """Three-way lexicographic comparison of two entries under a KeySpec.

    Returns -1, 0 or +1.  This is local computation on two registers; the
    caller turns the result into a 0/1 swap bit and applies it with
    ct_select_entry, so the comparison outcome never selects a public
    access pattern.
    """
    for attr, ascending in key:
        col = key_column(attr)
        va = getattr(a, col)
        vb = getattr(b, col)
        if va != vb:
            c = 1 if va > vb else -1
            return c if ascending else -c
    return 0
