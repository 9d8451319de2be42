"""The one serializer of the CLI's output; only ``cli`` imports it.

A table is a sequence of typed columns of equal length. In CSV a float
has ``digits`` significant digits (``nan`` and ``inf`` included), a code
cell is its label (a bool is ``true``/``false``), an int or a text is
itself, and a cell is empty where its column's ``empty`` mask says so or
the column is blank. JSON is ``json.dumps({"rows": [{column: value, ...},
...], **extra}, indent=2)``, with null for an empty cell, and without
``rows`` when the columns are None (simulate's document). Both writers
stream ``BLOCK_ROWS`` rows at a time through one ``%`` row template per
table of ``%s`` fields, each taking a column's cells rendered once per
block. At up to ``_BYTE_DIGITS`` digits every CSV float comes from
``_float_bytes``, a vectorized ``%.Ng`` into a uint8 array: a table of
float and blank columns only is built as one such array per block, and a
float column of any other table is split from one into its cells.
"""

from __future__ import annotations

import csv
import functools
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

#: The largest ``digits`` p of the byte path. Its y = |x| * 10**(p-1-e) is off
#: by a few units of 2**-53 of itself, under 10**p * 2**-51, so only a cell within
#: 10**p * 2**-46 of a half-integer can round the wrong way, and it goes to
#: ``%``; that window is 0.014 at p = 12 and would pass 1/2 at p = 14.
_BYTE_DIGITS = 12


class Column(NamedTuple):
    """One output column; build it with ``floats``, ``ints``, ``texts``, ``codes`` or ``blank``."""

    name: str
    kind: str  # "float", "int", "text", "code" or "blank"
    values: Any  # an array, a list of str, or None when every cell is empty
    empty: np.ndarray | None = None  # True where the cell is empty
    labels: tuple = ()  # a code column's value per code; None is an empty cell


def floats(name: str, values, empty=None) -> Column:
    """A float column (a None value is NaN); NaN prints as ``nan`` unless ``empty`` masks it.
    A masked value is stored as 0: it is never printed, and 0 is ``_float_bytes``' fast path."""
    values, empty = np.asarray(values, dtype=float), _mask(empty)
    return Column(name, "float", values if empty is None else np.where(empty, 0.0, values), empty)


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


def _cells(column: Column, rows: slice, none: str, fmt: str | None = None, digits: int = 0):
    """A block of a column as the text of its ``%s`` field, ``none`` where empty. ``fmt``
    is CSV's float format for ``digits`` digits, None for JSON; at up to ``_BYTE_DIGITS``
    digits a CSV float comes from ``_float_bytes``."""
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
    if fmt and column.kind == "float" and 0 <= digits <= _BYTE_DIGITS:
        return _byte_block([column], rows, max(digits, 1), fmt, none).split("\n")[:-1]
    cells = (json.dumps(part.tolist())[1:-1].split(", ") if fmt is None  # json's NaN, Infinity
             else list(map(str if column.kind == "int" else fmt.__mod__, part.tolist())))
    if column.empty is not None:
        for k in np.flatnonzero(column.empty[rows]).tolist():
            cells[k] = none
    return cells


@functools.cache
def _shapes(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The byte path's tables at ``p`` digits: the skeleton of each text shape,
    by sign, then fixed exponent in [-4, p) or exponent form at e in [-324, 308],
    then kept digits; and 10**k per k in [-308, 335] as two factors, so that a
    subnormal's does not overflow. A cell's slots are sign | ``0.000`` |
    d0 s0 d1 s1 ... d(p-1) | ``e``, sign, 3 digits; a skeleton holds 0xFF in the
    unused ones and "0" in each digit slot, to OR a digit into."""
    def body(shown: int, point: int) -> str:  # digits and the point after digit ``point``
        return "".join(("0" if i < shown else "~") + ("." if i == point else "~")
                       for i in range(p))[:-1]
    shapes = [("0." + "0" * (-1 - x)).ljust(5, "~") + body(kept, -1) + "~" * 5 if x < 0
              else "~" * 5 + body(max(kept, x + 1), x if kept > x + 1 else -1) + "~" * 5
              for x in range(-4, p) for kept in range(1, p + 1)]
    shapes += ["~" * 5 + body(kept, 0 if kept > 1 else -1) + "e\x00000" for kept in range(1, p + 1)]
    text = "".join(sign + shape for sign in "~-" for shape in shapes).encode()
    skeletons = np.frombuffer(text.translate(bytes.maketrans(b"~", b"\xff")), np.uint8)
    skeletons = skeletons.reshape(2, len(shapes), -1)
    e = np.arange(-324, 309)[:, None]
    exponent = skeletons[:, None, (p + 4) * p:].repeat(633, axis=1)  # sign, e, kept, slots
    exponent[..., -4:] |= np.stack([np.where(e < 0, ord("-"), ord("+")),
                                    np.where(abs(e) < 100, 0xFF, abs(e) // 100),
                                    abs(e) // 10 % 10, abs(e) % 10], axis=-1).astype(np.uint8)
    table = np.concatenate([skeletons[:, :(p + 4) * p], exponent.reshape(2, 633 * p, -1)], axis=1)
    k = np.arange(-308, 336)  # numpy's 10.0**k is within an ulp
    scale = np.stack([np.where(k > 300, 1e300, 1.0), 10.0 ** np.where(k > 300, k - 300, k)], axis=1)
    return table.reshape(-1, table.shape[2]), scale


def _float_bytes(x: np.ndarray, p: int, fmt: str, out: np.ndarray) -> None:
    """Write each double's ``fmt`` text (``%.{p}g``) into its row of ``out``, a
    ``(len(x), 2p + 10)`` uint8 array; unused slots hold 0xFF."""
    shapes, scale = _shapes(p)
    finite = np.isfinite(x)
    plain = finite & (x != 0)
    a = np.where(plain, np.abs(x), 1.0)
    # floor(log10(a)) is one too big only just below a power of ten, where y
    # rounds to 10**(p-1): the text the carry below gives for the true e.
    e = np.floor(np.log10(a)).astype(np.intp)
    f = np.take(scale, p - 1 - e + 308, axis=0)
    y = a * f[:, 0] * f[:, 1]  # a * 10**(p-1-e), in [10**(p-1), 10**p) but for the above
    near_tie = np.abs(y - np.floor(y) - 0.5) < 10.0**p * 2.0**-46
    m = np.rint(y).astype(np.uint32 if p <= 9 else np.uint64) * plain  # 0 for a zero
    carry = m == 10**p
    m[carry] = 10 ** (p - 1)
    e += carry
    digits = np.empty((p, len(x)), np.uint8)
    kept, seen = np.ones(len(x), np.intp), np.zeros(len(x), bool)
    for i in range(p - 1, -1, -1):
        kept += seen  # a digit after i is nonzero, so digit i is kept
        q = m // 10
        digits[i] = m - q * 10
        seen |= digits[i] != 0
        m = q
    shape = np.where((e >= -4) & (e < p), e + 4, p + 4 + 324 + e) * p + kept - 1
    cells = np.take(shapes, shape + np.signbit(x) * (p + 4 + 633) * p, axis=0)
    for i in range(p):
        cells[:, 6 + 2 * i] |= digits[i]
    slow = np.flatnonzero(near_tie | ~finite)  # a near tie, nan or inf: its own %
    for k, v in zip(slow.tolist(), x[slow].tolist()):
        cells[k] = np.frombuffer((fmt % v).encode().ljust(cells.shape[1], b"\xff"), np.uint8)
    out[...] = cells


def _blocks(columns: Sequence[Column], template: str, none: str, fmt=None, digits=0):
    """The table's rows through ``template``, one string per block of rows."""
    for start in range(0, _length(columns), BLOCK_ROWS):
        cells = [_cells(c, slice(start, start + BLOCK_ROWS), none, fmt, digits) for c in columns]
        yield "".join(map(template.__mod__, zip(*cells)))


def _byte_block(columns: Sequence[Column], rows: slice, p: int, fmt: str, none: str) -> str:
    """The ``rows`` of a float and blank table: a ``(rows, columns, 2p + 11)`` uint8 array
    of cells and their comma or newline, less its 0xFF bytes, which are never UTF-8."""
    block = np.empty((len(range(_length(columns))[rows]), len(columns), 2 * p + 11), np.uint8)
    block[:, :, -1] = ord(",")
    block[:, -1, -1] = ord("\n")
    for c, column in enumerate(columns):
        cells = block[:, c, :-1]
        if column.values is not None:
            _float_bytes(column.values[rows], p, fmt, cells)
        if column.values is None or column.empty is not None:
            empty = slice(None) if column.values is None else column.empty[rows]
            cells[empty] = 0xFF
            cells[empty, :len(none)] = np.frombuffer(none.encode(), np.uint8)
    return block.tobytes().translate(None, b"\xff").decode("ascii")


def write_csv(fh: TextIO, columns: Sequence[Column], digits: int) -> None:
    """Stream a table to ``fh`` as CSV with ``\\n`` line endings."""
    csv.writer(fh, lineterminator="\n").writerow([c.name for c in columns])
    # A double prints exactly within 767 significant digits, so any larger
    # precision gives the same text; the cap keeps a huge --digits valid.
    # '%.Ng' % x is the text of format(x, '.Ng') for every double.
    fmt = f"%.{min(digits, 800)}g"
    none = '""' if len(columns) == 1 else ""  # csv.writer quotes a lone empty field
    if 0 <= digits <= _BYTE_DIGITS and all(c.kind in ("float", "blank") for c in columns):
        fh.writelines(_byte_block(columns, slice(start, start + BLOCK_ROWS), max(digits, 1), fmt,
                                  none) for start in range(0, _length(columns), BLOCK_ROWS))
        return
    fh.writelines(_blocks(columns, ",".join(["%s"] * len(columns)) + "\n", none, fmt, digits))


def write_json(fh: TextIO, columns: Sequence[Column] | None, **extra: Any) -> None:
    """Stream a table to ``fh`` as indented JSON; ``extra`` keys follow ``rows``,
    which is left out when ``columns`` is None."""
    if columns is None:
        fh.write(json.dumps(extra, indent=2) + "\n")
        return
    # Each row opens with the comma after the row before; the first row drops it.
    fields = ",\n".join(f'      {json.dumps(c.name).replace("%", "%%")}: %s' for c in columns)
    template = ",\n    {\n" + fields + "\n    }"
    fh.write('{\n  "rows": [')
    for k, block in enumerate(_blocks(columns, template, "null")):
        fh.write(block if k else block[1:])
    fh.write("\n  ]" if _length(columns) else "]")
    if extra:  # its keys sit at the depth of "rows", so its own layout fits as is
        fh.write("," + json.dumps(extra, indent=2)[1:-2])
    fh.write("\n}\n")


def csv_text(columns: Sequence[Column], digits: int = 6) -> str:
    """A table as one CSV string."""
    write_csv(buf := io.StringIO(), columns, digits)
    return buf.getvalue()
