"""The two-table input file format.

A table file is UTF-8 text holding T1, a separator line `---`, then T2.
Each table row is one line with two unsigned decimal integers `j d` (join
key, payload), whitespace-separated.  Blank lines are ignored everywhere.  Anything else
is a format error reported with its 1-based line number.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TableFileError", "parse_table_text", "parse_table_file",
           "format_table_text"]

_U64_MAX = (1 << 64) - 1


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
        try:
            v = int(part, 10)
        except ValueError:
            raise TableFileError(
                line_no, f"not an unsigned decimal integer: {part!r}") from None
        if part.startswith(("-", "+")) or v < 0:
            raise TableFileError(line_no, f"negative or signed value: {part!r}")
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
    lines = [f"{int(j)} {int(d)}" for j, d in np.asarray(t1_rows).reshape(-1, 2)]
    lines.append("---")
    lines += [f"{int(j)} {int(d)}" for j, d in np.asarray(t2_rows).reshape(-1, 2)]
    return "\n".join(lines) + "\n"
