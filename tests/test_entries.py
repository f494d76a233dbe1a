"""Constant-time selection/equality and entry width."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oblivjoin.entries import (
    DESC,
    ENTRY_BYTES,
    KEY_J_TID,
    KEY_NONNULL_F,
    AugEntry,
    ct_eq,
    ct_select,
    ct_select_entry,
    key_column,
    lex_compare,
    null_entry,
)

U64 = st.integers(min_value=0, max_value=2**64 - 1)


@given(U64, U64)
def test_ct_select_picks_by_condition(a, b):
    assert ct_select(1, a, b) == a
    assert ct_select(0, a, b) == b


@given(U64, U64)
def test_ct_eq_matches_python_equality(a, b):
    assert ct_eq(a, b) == int(a == b)


def test_ct_eq_single_bit_differences():
    # every single-bit flip must be detected, not just low-word ones
    for bit in range(64):
        assert ct_eq(0, 1 << bit) == 0
        assert ct_eq(1 << bit, 1 << bit) == 1


def test_ct_select_entry_is_fieldwise():
    e1 = AugEntry(j=1, d=2, tid=1, alpha1=3, alpha2=4, f=5, ii=6)
    e2 = AugEntry(j=9, d=8, tid=2, alpha1=7, alpha2=6, f=5, ii=4, is_null=1)
    assert ct_select_entry(1, e1, e2) == e1
    assert ct_select_entry(0, e1, e2) == e2


def test_null_entry_flag():
    e = null_entry()
    assert e.is_null == 1
    assert e.j == 0


def test_entry_pack_width():
    # 7 u64 attributes + null flag
    assert ENTRY_BYTES == 57


def test_lex_compare_orders_by_first_attribute_first():
    a = AugEntry(j=1, tid=2)
    b = AugEntry(j=2, tid=1)
    assert lex_compare(a, b, KEY_J_TID) < 0
    assert lex_compare(b, a, KEY_J_TID) > 0


def test_lex_compare_ties_fall_through():
    a = AugEntry(j=5, tid=1)
    b = AugEntry(j=5, tid=2)
    assert lex_compare(a, b, KEY_J_TID) < 0
    assert lex_compare(a, AugEntry(j=5, tid=1), KEY_J_TID) == 0


def test_lex_compare_respects_direction():
    key = (("j", DESC),)
    a = AugEntry(j=1)
    b = AugEntry(j=2)
    assert lex_compare(a, b, key) > 0  # descending: bigger j sorts first


def test_nonnull_pseudo_attribute():
    # ascending "nonnull" puts real entries before nulls
    real = AugEntry(j=0, f=7)
    nul = null_entry()
    assert lex_compare(real, nul, KEY_NONNULL_F) < 0
    assert key_column("nonnull") == "is_null"
    assert key_column("f") == "f"


@pytest.mark.parametrize("key", [KEY_J_TID, KEY_NONNULL_F])
def test_lex_compare_antisymmetric(key, rng):
    for _ in range(50):
        vals = rng.integers(0, 4, size=8)
        a = AugEntry(j=int(vals[0]), tid=int(vals[1]), f=int(vals[2]),
                     is_null=int(vals[3] % 2))
        b = AugEntry(j=int(vals[4]), tid=int(vals[5]), f=int(vals[6]),
                     is_null=int(vals[7] % 2))
        assert lex_compare(a, b, key) == -lex_compare(b, a, key)
