"""Table-file parsing and its error reporting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oblivjoin.tablefile import (
    TableFileError,
    format_table_text,
    parse_table_file,
    parse_table_text,
)


def test_basic_two_tables():
    t1, t2 = parse_table_text("1 10\n2 20\n---\n3 30\n")
    assert t1.tolist() == [[1, 10], [2, 20]]
    assert t2.tolist() == [[3, 30]]
    assert t1.dtype == np.uint64


def test_blank_lines_and_padding_ignored():
    t1, t2 = parse_table_text("\n  1   10  \n\n---\n\n2 20\n\n")
    assert t1.tolist() == [[1, 10]]
    assert t2.tolist() == [[2, 20]]


def test_empty_tables_allowed():
    t1, t2 = parse_table_text("---\n")
    assert t1.shape == (0, 2)
    assert t2.shape == (0, 2)


def test_u64_range_accepted():
    big = (1 << 64) - 1
    t1, _ = parse_table_text(f"{big} 0\n---\n")
    assert t1[0, 0] == np.uint64(big)


@pytest.mark.parametrize("text,line", [
    ("1 2 3\n---\n", 1),            # three fields
    ("1\n---\n", 1),                # one field
    ("x 2\n---\n", 1),              # not a number
    ("1 2\n-3 4\n---\n", 2),        # negative
    ("+1 2\n---\n", 1),             # explicit sign
    (f"{1 << 64} 0\n---\n", 1),     # too wide
    ("1 2\n---\n3 4\n---\n", 4),    # second separator
    ("1 2\n3 4\n", 2),              # no separator: reported at end of file
    ("", 1),                        # empty file
])
def test_errors_carry_line_numbers(text, line):
    with pytest.raises(TableFileError) as exc:
        parse_table_text(text)
    assert exc.value.line == line
    assert f"line {line}:" in str(exc.value)


def test_parse_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("7 1\n---\n7 2\n")
    t1, t2 = parse_table_file(p)
    assert t1.tolist() == [[7, 1]]
    assert t2.tolist() == [[7, 2]]


@pytest.mark.parametrize("data", [b"1 2\n---\n\xff\xfe 3\n",
                                  b"1 2\r\n---\r\n3 \xff\r\n",
                                  b"1 2\r---\r\xff 3\r"])
def test_non_utf8_file_reports_its_line(tmp_path, data):
    # line endings count as parse_table_text counts them
    p = tmp_path / "t.txt"
    p.write_bytes(data)
    with pytest.raises(TableFileError) as exc:
        parse_table_file(p)
    assert exc.value.line == 3


rows = st.lists(
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    max_size=30)


@given(rows, rows)
def test_format_parse_round_trip(r1, r2):
    text = format_table_text(np.array(r1, np.uint64).reshape(-1, 2),
                             np.array(r2, np.uint64).reshape(-1, 2))
    t1, t2 = parse_table_text(text)
    assert t1.tolist() == [list(r) for r in r1]
    assert t2.tolist() == [list(r) for r in r2]


def test_format_round_trips_u64_max_from_python_ints():
    # a list holding 2^64-1 became float64 and was written as 2^64
    u64_max = (1 << 64) - 1
    text = format_table_text([[u64_max, 5]], [[1, u64_max]])
    assert text == f"{u64_max} 5\n---\n1 {u64_max}\n"
    t1, t2 = parse_table_text(text)
    assert t1.tolist() == [[u64_max, 5]]
    assert t2.tolist() == [[1, u64_max]]
