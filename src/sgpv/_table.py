"""The one serializer of the CLI's output; only ``cli`` imports it.

A table is a sequence of columns of equal length, of four kinds. In CSV a float
has ``p`` = ``digits`` significant digits (``nan`` and ``inf`` included), a code
cell is its label (a bool is ``true``/``false``, None is empty, as in a ``blank``
column), an int or a text is itself, and a cell is empty where its column's
``empty`` mask says so. JSON (``p`` None) is ``json.dumps({"rows": [{column:
value, ...}, ...], **extra}, indent=2)``, with null for an empty cell, and without
``rows`` when the columns are None (simulate's document). Both writers build each
block of rows as one uint8 array (``_blocks``): each column's cells in fixed slots
padded with 0xFF, and the format's fixed text between them. A CSV float at up to
``_BYTE_DIGITS`` digits is written into its slots (``_float_bytes``); a code's
slots are its label's; any other cell is text.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import re
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple, Sequence, TextIO

import numpy as np

#: Rows per block, or fewer where its array would pass BLOCK_BYTES: a row takes at
#: most 12 bytes per character of the table's widest text (JSON's ``\ud83d\ude00``
#: for an astral one; CSV's worst is 4, plus 2) and 2p + 32 per other cell.
BLOCK_ROWS, BLOCK_BYTES = 8192, 1 << 23

#: The characters that can make csv.writer quote a text cell.
_QUOTABLE = re.compile(r'[,"\r\n]')
_utf8 = functools.partial(str.encode, errors="surrogatepass")  # a lone surrogate: 3 bytes, no 0xFF

#: Labels of a bool code column: codes 0 and 1, and 2 for an empty cell.
BOOL_LABELS = (False, True, None)

#: The largest ``digits`` p of the byte path. Its y = |x| * 10**(p-1-e) is off
#: by a few units of 2**-53 of itself, under 10**p * 2**-51, so only a cell within
#: 10**p * 2**-46 of a half-integer can round the wrong way, and it goes to
#: ``%``; that window is 0.014 at p = 12 and would pass 1/2 at p = 14.
_BYTE_DIGITS = 12


class Column(NamedTuple):
    """One output column, built by ``floats``, ``ints``, ``texts``, ``codes`` or ``blank``."""

    name: str
    kind: str  # "float", "int", "text" or "code"
    values: Any  # an array, or a list of str
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


def blank(name: str, n: int) -> Column:
    """A column of ``n`` cells, every one empty (null in JSON): a code column of label None."""
    return codes(name, np.zeros(n, np.intp), (None,))


def _mask(empty) -> np.ndarray | None:
    return None if empty is None else np.asarray(empty, dtype=bool)


def _length(columns: Sequence[Column]) -> int:
    return len(columns[0].values) if columns else 0


def _csv_text(text: str | None, none: str) -> str:
    """A text cell as csv.writer writes it; ``none`` when it is empty."""
    if not text or _QUOTABLE.search(text) is None:
        return text or none
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _cells(column: Column, values, none: str, p: int | None) -> list[str]:
    """``values`` of a column, or its labels, as text: csv.writer's or JSON's (``none`` for
    None or an empty CSV text), or a number's: a CSV float's ``%.{p}g``, or JSON's."""
    if column.kind == "text":
        if p is None:
            return list(map(encode_basestring_ascii, values))
        plain = not none and _QUOTABLE.search("".join(values)) is None
        return values if plain else [_csv_text(text, none) for text in values]
    if column.kind == "code":
        return [json.dumps(v) if p is None or isinstance(v, bool) else _csv_text(v, none)
                for v in values]
    if p is None:
        return json.dumps(values.tolist())[1:-1].split(", ")  # json's NaN, Infinity
    return list(map(str if column.kind == "int" else f"%.{p}g".__mod__, values.tolist()))


def _pad(cells: list[str], width: int = 0) -> np.ndarray:
    """``cells`` as the rows of a uint8 array: UTF-8 padded with 0xFF to ``width`` or more."""
    text = "".join(cells)
    sizes = np.fromiter(map(len, cells if text.isascii() else map(_utf8, cells)), np.intp)
    out = np.full((len(cells), max(width, sizes.max(initial=0))), 0xFF, np.uint8)
    out[np.arange(out.shape[1]) < sizes[:, None]] = np.frombuffer(_utf8(text), np.uint8)
    return out


def _slots(column: Column, rows: slice, none: str, p: int | None):
    """A block of rows of a column as its cells' slots, ``none`` where empty."""
    part = column.values[rows]
    if column.kind == "code":
        return np.take(_pad(_cells(column, column.labels, none, p)), part, axis=0)
    if p is not None and column.kind == "float" and 0 <= p <= _BYTE_DIGITS:
        slots = _float_bytes(part, max(p, 1))
    else:  # a masked cell's slots must hold ``none``: a lone CSV column's is ""
        slots = _pad(_cells(column, part, none, p), len(none) * (column.empty is not None))
    if column.empty is not None:
        slots[column.empty[rows]] = _pad([none], slots.shape[1])
    return slots


@functools.cache
def _shapes(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The byte path's tables at ``p`` digits: the skeleton of each text shape,
    by sign, then fixed exponent in [-4, p) or exponent form at e in [-324, 308],
    then kept digits; 10**k per k in [-308, 335] as two factors, so that a subnormal's
    does not overflow; and the rows of inf, -inf and nan. A cell's slots are sign |
    ``0.000`` | d0 s0 d1 s1 ... d(p-1) | ``e``, sign, 3 digits; a skeleton holds 0xFF
    in the unused ones and "0" in each digit slot, to OR a digit into."""
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
    return table.reshape(-1, table.shape[2]), scale, _pad(["inf", "-inf", "nan"], table.shape[2])


def _float_bytes(x: np.ndarray, p: int) -> np.ndarray:
    """Each double's ``%.{p}g`` text as a row of 2p + 10 bytes, 0xFF in unused slots."""
    shapes, scale, special = _shapes(p)
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
    bad = np.flatnonzero(~finite)  # inf, -inf or nan; a nan with its sign bit set too
    cells[bad] = special[(x[bad] < 0) + 2 * np.isnan(x[bad])]
    if near_tie.any():
        cells[near_tie] = _pad(list(map(f"%.{p}g".__mod__, x[near_tie].tolist())), cells.shape[1])
    return cells


def _blocks(columns: Sequence[Column], pieces: Sequence[str], none: str, p: int | None = None):
    """The rows, one str per block: ``pieces[k]`` before column k's cell, ``pieces[-1]`` at
    the end. A block is one uint8 array, less its 0xFF bytes (never UTF-8), of BLOCK_ROWS
    rows or fewer within BLOCK_BYTES. ``p`` is a CSV float's digits, None for JSON."""
    n, start = _length(columns), 0
    texts = [np.fromiter(map(len, c.values), np.intp, n) for c in columns if c.kind == "text"]
    bound = 12 * np.max([np.zeros(n, np.intp), *texts], axis=0) + (2 * (p or 0) + 32) * len(columns)
    fixed = [_pad([piece]) for piece in pieces]
    while start < n:
        widest = np.maximum.accumulate(bound[start:start + BLOCK_ROWS])  # up to each row
        count = max(1, np.count_nonzero(widest * np.arange(1, len(widest) + 1) <= BLOCK_BYTES))
        rows, start = slice(start, start + count), start + count
        parts = [np.broadcast_to(piece, (count, piece.shape[1])) for piece in fixed]
        for k, column in enumerate(columns):  # after pieces[k]
            parts.insert(2 * k + 1, _slots(column, rows, none, p))
        yield np.hstack(parts).tobytes().translate(None, b"\xff").decode("utf-8", "surrogatepass")


def write_csv(fh: TextIO, columns: Sequence[Column], digits: int) -> None:
    """Stream a table to ``fh`` as CSV with ``\\n`` line endings."""
    csv.writer(fh, lineterminator="\n").writerow([c.name for c in columns])
    # A double prints exactly within 767 significant digits, so the cap changes no text and
    # keeps a huge --digits valid. '%.Ng' % x is the text of format(x, '.Ng') for every double.
    p = min(digits, 800)
    none = '""' if len(columns) == 1 else ""  # csv.writer quotes a lone empty field
    fh.writelines(_blocks(columns, ["", *[","] * (len(columns) - 1), "\n"], none, p))


def write_json(fh: TextIO, columns: Sequence[Column] | None, **extra: Any) -> None:
    """Stream a table to ``fh`` as indented JSON; ``extra`` keys follow ``rows``,
    which is left out when ``columns`` is None."""
    if columns is None:
        fh.write(json.dumps(extra, indent=2) + "\n")
        return
    # Each row opens with the comma after the row before; the first row drops it.
    pieces = [f",\n      {json.dumps(c.name)}: " for c in columns] + ["\n    }"]
    pieces[0] = ",\n    {\n" + pieces[0][2:]
    fh.write('{\n  "rows": [')
    for k, block in enumerate(_blocks(columns, pieces, "null")):
        fh.write(block if k else block[1:])
    fh.write("\n  ]" if _length(columns) else "]")
    if extra:  # its keys sit at the depth of "rows", so its own layout fits as is
        fh.write("," + json.dumps(extra, indent=2)[1:-2])
    fh.write("\n}\n")
