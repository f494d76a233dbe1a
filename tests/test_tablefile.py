"""Table-file parsing and its error reporting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oblivjoin.tablefile import (
    TableFileError,
    _parse_row,
    format_table_text,
    parse_table_file,
    parse_table_text,
)

U64_MAX = 2**64 - 1


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
    ("1_0 5\n---\n", 1),            # digit-group underscore
    ("1 2\n\u0661 7\n---\n", 2),     # ARABIC-INDIC DIGIT ONE
    ("1 2\n---\n3 \uff11\n", 3),     # FULLWIDTH DIGIT ONE
    ("1 2\n3 4\n5 6\n\u00b2 7\n---\n", 4),  # SUPERSCRIPT TWO
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


def _parse_per_row(text):
    """The row-by-row parse that parse_table_text replaces: each line in
    turn, each row through _parse_row."""
    tables, section, line_no = [[], []], 0, 0
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line == "---":
            section += 1
            if section > 1:
                raise TableFileError(line_no, "more than one '---' separator")
            continue
        tables[section].append(_parse_row(line_no, line))
    if section == 0:
        raise TableFileError(
            max(line_no, 1), "missing '---' separator between the tables")
    return tuple(np.array(rows, np.uint64).reshape(-1, 2) for rows in tables)


def _outcome(parse, text):
    """What parse makes of text: the two tables, or the error's line and
    message."""
    try:
        tables = parse(text)
    except TableFileError as exc:
        return "error", exc.line, str(exc)
    return "ok", *((t.dtype, t.shape, t.tolist()) for t in tables)


@pytest.mark.parametrize("text", [
    "007 0000\n---\n00000000000000000000000000000001 2\n",  # leading zeros
    f"{U64_MAX} {U64_MAX}\n---\n0 {U64_MAX}\n",          # 20 digits, fits
    f"0000{U64_MAX} 1\n---\n",                            # 24 digits, fits
    f"1 2\n{2**64} 1\n---\n",                              # 20 digits, too wide
    f"1 {2**64}\n---\n",
    f"0{2**64} 1\n---\n",                                 # too wide past zeros
    "1 2\n---\n3 99999999999999999999\n",
    "1 2\n---\n3 99999999999999999999999999\n",
    "+1 2\n---\n", "1 -2\n---\n", "1_0 2\n---\n",        # sign, underscore
    "1 \u0661\n---\n", "\uff11 2\n---\n", "1 \u00b2\n---\n",  # non-ASCII
    "1 2\n---\n3 \ud800\n",                                 # a lone surrogate
    "1\t2\n---\n\t3\t\t4\t\n", "1\u00a02\n---\n3\u20034\n",  # tabs, spaces
    "\n\n1 2\n\n---\n\n3 4\n\n", "1 2\r\n---\r\n3 4\r\n",   # blank lines
    "---\n", "\n---\n\n", "", "\n\n", "  \n",                # empty tables
    "1\n2 3 4\n---\n", "1 2\n---\n3\n4 5\n",                # field counts
    "1 2\n3 4 5\n---\n6\n", "1 2\n---\n3 4\n5 x\n",
    "1 2\n---\n---\n", "1 x\n---\n---\n", "1 2\n---\n3 x\n---\n",
    "1 2\n---\n3 4\n---\nx\n", "1 2\n3 4\n", "1 x\n3 4\n",
])
def test_parse_matches_the_per_row_parse(text):
    # every edge case parses, or fails with the message and line, as the
    # row-by-row parse does
    assert _outcome(parse_table_text, text) == _outcome(_parse_per_row, text)


def test_random_rows_parse_as_the_per_row_parse():
    # 10,000 rows of random values, among them 0 and 2^64 - 1, padded
    # with spaces, tabs, leading zeros and blank lines
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 2**64, (10_000, 2), dtype=np.uint64)
    vals[rng.integers(0, 10_000, 50), rng.integers(0, 2, 50)] = 0
    vals[rng.integers(0, 10_000, 50), rng.integers(0, 2, 50)] = U64_MAX
    spaces, zeros = ["", " ", "\t", "  "], ["", "0", "00"]
    lines = []
    for row, (j, d) in enumerate(vals.tolist()):
        a, b, c, z = (spaces[i] for i in rng.integers(0, 4, 4))
        lead = zeros[rng.integers(0, 3)]
        lines.append(f"{a}{lead}{j}{b or ' '}{z}{d}{c}")
        if rng.random() < 0.05:
            lines.append(a + c)
        if row == 5_999:
            lines.append("---")
    text = "\n".join(lines) + "\n"
    got = _outcome(parse_table_text, text)
    assert got == _outcome(_parse_per_row, text)
    assert got[0] == "ok" and got[1][1] == (6_000, 2)
