"""Table rows in memory, and the two-table input file format.

In memory a table is an (n, 2) uint64 array of (j, d) rows; as_rows
checks and converts what callers pass, for the engine and the baselines
alike.

A table file is UTF-8 text holding T1, a separator line `---`, then T2.
Each table row is one line with two unsigned decimal integers `j d` (join
key, payload), whitespace-separated.  Blank lines are ignored everywhere.  Anything else
is a format error reported with its 1-based line number.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_rows", "TableFileError", "parse_table_text",
           "parse_table_file", "format_table_text"]

_U64_MAX = (1 << 64) - 1


def as_rows(rows) -> np.ndarray:
    """A table's rows as an (n, 2) uint64 array of (j, d) pairs.

    Accepts an integer ndarray without negative values, or nested
    sequences of Python ints in [0, 2^64).  Anything else raises rather
    than being cast: a cast would join key 1.7, True and -1 as keys 1, 1
    and 2^64-1.  numpy's inferred dtype is not consulted, because it makes
    [[2**64-1, 5]] float64.  An empty table has shape (0,) or (0, 2).
    """
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind not in "iu":
            raise TypeError(f"table rows must be integers, got dtype {rows.dtype}")
        if rows.dtype.kind == "i" and (rows < 0).any():
            raise ValueError("table rows must be non-negative")
    else:
        for v in np.asarray(rows, dtype=object).flat:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(
                    f"table rows must be ints, got {type(v).__name__}")
            if not 0 <= v <= _U64_MAX:
                raise ValueError(f"table value {v} is outside [0, 2^64)")
    arr = np.asarray(rows, dtype=np.uint64)
    if arr.shape == (0,):
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("table rows must be (j, d) pairs")
    return arr


class TableFileError(ValueError):
    """Malformed table file; `line` is the 1-based offending line."""

    def __init__(self, line: int, msg: str) -> None:
        super().__init__(f"line {line}: {msg}")
        self.line = line
        self.msg = msg


def _parse_row(line_no: int, text: str) -> tuple[int, int]:
    parts = text.split()
    if len(parts) != 2:
        raise TableFileError(
            line_no, f"expected two fields 'j d', got {len(parts)}")
    vals = []
    for part in parts:
        # int() alone would also take signs, "1_0" and non-ASCII digits
        if not (part.isascii() and part.isdigit()):
            raise TableFileError(
                line_no, f"not an unsigned decimal integer: {part!r}")
        v = int(part)
        if v > _U64_MAX:
            raise TableFileError(line_no, f"value does not fit in 64 bits: {part!r}")
        vals.append(v)
    return vals[0], vals[1]


def parse_table_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse table-file text into (T1, T2) row arrays of shape (n, 2)."""
    tables: list[list[tuple[int, int]]] = [[], []]
    section = 0
    line_no = 0
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

    def to_arr(rows):
        return (np.array(rows, np.uint64) if rows
                else np.empty((0, 2), np.uint64))

    return to_arr(tables[0]), to_arr(tables[1])


def parse_table_file(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number lines as parse_table_text does (str.splitlines); the bytes
        # before exc.start decode cleanly.
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise TableFileError(line, f"not UTF-8 text: {exc.reason}") from None
    return parse_table_text(text)


def format_table_text(t1_rows, t2_rows) -> str:
    """Inverse of parse_table_text (up to whitespace)."""
    lines = [f"{j} {d}" for j, d in as_rows(t1_rows).tolist()]
    lines.append("---")
    lines += [f"{j} {d}" for j, d in as_rows(t2_rows).tolist()]
    return "\n".join(lines) + "\n"
