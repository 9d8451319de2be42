"""The one serializer for tabular output, shared by the CLI and the library.

A table is a sequence of typed columns of equal length. CSV cells follow
one rule set: a float has ``digits`` significant digits (``nan`` and
``inf`` included), a code cell is its label (a bool label is
``true``/``false``), an int or a text cell is itself, and a cell is
empty only where its column's ``empty`` mask says so or the column has
no values at all. CSV is written in blocks of ``BLOCK_ROWS`` rows, so a
large table is never held as text or as row objects. JSON keeps full
precision and writes ``{"rows": [{column: value, ...}, ...], **extra}``
with the same Python values: None for an empty cell, the label for a
code.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import repeat
from typing import Any, NamedTuple, Sequence, TextIO

import numpy as np

#: Rows formatted per CSV write; large enough to amortise the per-block
#: calls, small enough that a block's cell strings stay a few MB.
BLOCK_ROWS = 8192

#: Labels of a bool code column: codes 0 and 1, and 2 for an empty cell.
BOOL_LABELS = (False, True, None)


class Column(NamedTuple):
    """One output column; build it with ``floats``, ``ints``, ``texts``, ``codes`` or ``blank``."""

    name: str
    kind: str  # "float", "int", "text" or "code"
    values: Any  # an array, a list of str, or None when every cell is empty
    empty: np.ndarray | None = None  # True where the cell is empty
    labels: tuple = ()  # a code column's value per code; None is an empty cell


def floats(name: str, values, empty=None) -> Column:
    """A float column; NaN prints as ``nan`` unless ``empty`` masks it."""
    return Column(name, "float", np.asarray(values, dtype=float), _mask(empty))


def optional_floats(name: str, values: Sequence[float | None]) -> Column:
    """A float column from Python values, empty where a value is None."""
    empty = np.array([v is None for v in values], dtype=bool)
    return floats(name, [0.0 if v is None else v for v in values], empty)


def ints(name: str, values, empty=None) -> Column:
    return Column(name, "int", np.asarray(values, dtype=np.int64), _mask(empty))


def texts(name: str, values: Sequence[str]) -> Column:
    return Column(name, "text", values)


def codes(name: str, values, labels: tuple) -> Column:
    """A column of ``labels[code]``: a str, a bool, or None for an empty cell."""
    return Column(name, "code", np.asarray(values, dtype=np.intp), labels=labels)


def blank(name: str) -> Column:
    """A column whose every cell is empty (null in JSON)."""
    return Column(name, "float", None)


def _mask(empty) -> np.ndarray | None:
    return None if empty is None else np.asarray(empty, dtype=bool)


def _length(columns: Sequence[Column]) -> int:
    return next((len(c.values) for c in columns if c.values is not None), 0)


def _csv_label(label) -> str:
    if label is None:
        return ""
    if isinstance(label, bool):
        return "true" if label else "false"
    return label


def _csv_cells(column: Column, start: int, stop: int, fmt: str):
    """The CSV text of rows [start, stop) of one column."""
    if column.values is None:
        return repeat("", stop - start)
    part = column.values[start:stop]
    if column.kind == "text":
        return part
    if column.kind == "code":
        return list(map(tuple(map(_csv_label, column.labels)).__getitem__, part.tolist()))
    cells = list(map(fmt.__mod__ if column.kind == "float" else str, part.tolist()))
    if column.empty is not None:
        for k in np.flatnonzero(column.empty[start:stop]).tolist():
            cells[k] = ""
    return cells


def _json_values(column: Column, n: int) -> list:
    if column.values is None:
        return [None] * n
    if column.kind == "text":
        return list(column.values)
    if column.kind == "code":
        return list(map(column.labels.__getitem__, column.values.tolist()))
    values = column.values.tolist()
    if column.empty is not None:
        for k in np.flatnonzero(column.empty).tolist():
            values[k] = None
    return values


def write_csv(fh: TextIO, columns: Sequence[Column], digits: int) -> None:
    """Stream a table to ``fh`` as CSV with ``\\n`` line endings."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([c.name for c in columns])
    # A double prints exactly within 767 significant digits, so any larger
    # precision gives the same text; the cap keeps a huge --digits valid.
    # '%.Ng' % x is the text of format(x, '.Ng') for every double.
    fmt = f"%.{min(digits, 800)}g"
    n = _length(columns)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        writer.writerows(zip(*(_csv_cells(c, start, stop, fmt) for c in columns)))


def csv_text(columns: Sequence[Column], digits: int = 6) -> str:
    """A table as one CSV string."""
    buf = io.StringIO()
    write_csv(buf, columns, digits)
    return buf.getvalue()


def json_text(columns: Sequence[Column], **extra: Any) -> str:
    """A table as an indented JSON object; ``extra`` keys follow ``rows``."""
    n = _length(columns)
    names = [c.name for c in columns]
    rows = zip(*(_json_values(c, n) for c in columns))
    payload = {"rows": [dict(zip(names, row)) for row in rows], **extra}
    return json.dumps(payload, indent=2) + "\n"
