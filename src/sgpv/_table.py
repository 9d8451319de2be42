"""The one serializer for tabular output, shared by the CLI and the library.

A table is a sequence of typed columns of equal length. In CSV a float
has ``digits`` significant digits (``nan`` and ``inf`` included), a code
cell is its label (a bool is ``true``/``false``), an int or a text is
itself, and a cell is empty where its column's ``empty`` mask says so or
the column is blank. JSON is ``json.dumps({"rows": [{column: value, ...},
...], **extra}, indent=2)``, with null for an empty cell. Both writers
stream ``BLOCK_ROWS`` rows at a time through one ``%`` row template per
table; a ``%s`` field takes a column's cells rendered once per block, a
``%.Ng`` field the raw values of an unmasked float column in CSV.
"""

from __future__ import annotations

import csv
import io
import json
import re
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple, Sequence, TextIO

import numpy as np

#: Rows formatted per write; large enough to amortise the per-block
#: calls, small enough that a block's cell strings stay a few MB.
BLOCK_ROWS = 8192

#: The characters that can make csv.writer quote a text cell.
_QUOTABLE = re.compile(r'[,"\r\n]')

#: Labels of a bool code column: codes 0 and 1, and 2 for an empty cell.
BOOL_LABELS = (False, True, None)


class Column(NamedTuple):
    """One output column; build it with ``floats``, ``ints``, ``texts``, ``codes`` or ``blank``."""

    name: str
    kind: str  # "float", "int", "text", "code" or "blank"
    values: Any  # an array, a list of str, or None when every cell is empty
    empty: np.ndarray | None = None  # True where the cell is empty
    labels: tuple = ()  # a code column's value per code; None is an empty cell


def floats(name: str, values, empty=None) -> Column:
    """A float column (a None value is NaN); NaN prints as ``nan`` unless ``empty`` masks it."""
    return Column(name, "float", np.asarray(values, dtype=float), _mask(empty))


def ints(name: str, values, empty=None) -> Column:
    return Column(name, "int", np.asarray(values, dtype=np.int64), _mask(empty))


def texts(name: str, values: Sequence[str]) -> Column:
    return Column(name, "text", values)


def codes(name: str, values, labels: tuple) -> Column:
    """A column of ``labels[code]``: a str, a bool, or None for an empty cell."""
    return Column(name, "code", np.asarray(values, dtype=np.intp), labels=labels)


def blank(name: str) -> Column:
    """A column whose every cell is empty (null in JSON)."""
    return Column(name, "blank", None)


def _mask(empty) -> np.ndarray | None:
    return None if empty is None else np.asarray(empty, dtype=bool)


def _length(columns: Sequence[Column]) -> int:
    return next((len(c.values) for c in columns if c.values is not None), 0)


def _csv_text(text: str | None, none: str) -> str:
    """A text cell as csv.writer writes it; ``none`` when it is empty."""
    if not text or _QUOTABLE.search(text) is None:
        return text or none
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _cells(column: Column, rows: slice, fmt: str | None, none: str):
    """A block of a column for its template field: text (``none`` where empty), or
    raw floats for write_csv's %.Ng field. ``fmt`` is CSV's float format, None for JSON."""
    if column.values is None:
        return repeat(none)
    part = column.values[rows]
    if column.kind == "text":
        if fmt is None:
            return list(map(encode_basestring_ascii, part))
        plain = not none and _QUOTABLE.search("".join(part)) is None
        return part if plain else [_csv_text(text, none) for text in part]
    if column.kind == "code":
        labels = [json.dumps(v) if fmt is None or isinstance(v, bool) else _csv_text(v, none)
                  for v in column.labels]
        return list(map(labels.__getitem__, part.tolist()))
    if fmt and column.kind == "float" and column.empty is None:
        return part.tolist()  # the same test picks the field in write_csv
    cells = (json.dumps(part.tolist())[1:-1].split(", ") if fmt is None  # json's NaN, Infinity
             else list(map(str if column.kind == "int" else fmt.__mod__, part.tolist())))
    if column.empty is not None:
        for k in np.flatnonzero(column.empty[rows]).tolist():
            cells[k] = none
    return cells


def _blocks(columns: Sequence[Column], template: str, fmt: str | None, none: str):
    """The table's rows through ``template``, one string per block of rows."""
    for start in range(0, _length(columns), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        yield "".join(map(template.__mod__, zip(*(_cells(c, rows, fmt, none) for c in columns))))


def write_csv(fh: TextIO, columns: Sequence[Column], digits: int) -> None:
    """Stream a table to ``fh`` as CSV with ``\\n`` line endings."""
    csv.writer(fh, lineterminator="\n").writerow([c.name for c in columns])
    # A double prints exactly within 767 significant digits, so any larger
    # precision gives the same text; the cap keeps a huge --digits valid.
    # '%.Ng' % x is the text of format(x, '.Ng') for every double.
    fmt = f"%.{min(digits, 800)}g"
    none = '""' if len(columns) == 1 else ""  # csv.writer quotes a lone empty field
    # An unmasked float column's raw values fill its field (see _cells); text fills the rest.
    template = ",".join(fmt if c.kind == "float" and c.empty is None else "%s" for c in columns)
    fh.writelines(_blocks(columns, template + "\n", fmt, none))


def write_json(fh: TextIO, columns: Sequence[Column], **extra: Any) -> None:
    """Stream a table to ``fh`` as indented JSON; ``extra`` keys follow ``rows``."""
    # Each row opens with the comma after the row before; the first row drops it.
    fields = ",\n".join(f'      {json.dumps(c.name).replace("%", "%%")}: %s' for c in columns)
    template = ",\n    {\n" + fields + "\n    }"
    fh.write('{\n  "rows": [')
    for k, block in enumerate(_blocks(columns, template, None, "null")):
        fh.write(block if k else block[1:])
    fh.write("\n  ]" if _length(columns) else "]")
    if extra:  # its keys sit at the depth of "rows", so its own layout fits as is
        fh.write("," + json.dumps(extra, indent=2)[1:-2])
    fh.write("\n}\n")


def csv_text(columns: Sequence[Column], digits: int = 6) -> str:
    """A table as one CSV string."""
    write_csv(buf := io.StringIO(), columns, digits)
    return buf.getvalue()
