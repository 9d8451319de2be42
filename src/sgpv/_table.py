"""The one serializer for tabular output, shared by the CLI and the library.

A table is a tuple of column names plus rows of values in column order.
CSV cells follow one rule set: None is an empty field, a bool is
``true``/``false``, a float has ``digits`` significant digits, an enum is
its value and anything else is ``str``. JSON keeps full precision and
writes ``{"rows": [{column: value, ...}, ...], **extra}``.
"""

from __future__ import annotations

import csv
import io
import json
from enum import Enum
from operator import attrgetter
from typing import Any, Iterable, Sequence, TextIO


def table_rows(items: Iterable[Any], columns: Sequence[str]) -> Iterable[tuple]:
    """Lazily read the named attributes of each item, in column order."""
    return map(attrgetter(*columns), items)


def _cell(value: Any, spec: str) -> Any:
    if isinstance(value, float):
        return format(value, spec)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return value


def write_csv(fh: TextIO, columns: Sequence[str], rows: Iterable[Sequence], digits: int) -> None:
    """Stream a table to ``fh`` as CSV with ``\\n`` line endings."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    # A double prints exactly within 767 significant digits, so any larger
    # precision gives the same text; the cap keeps a huge --digits valid.
    spec = f".{min(digits, 800)}g"
    writer.writerows([_cell(v, spec) for v in row] for row in rows)


def csv_text(columns: Sequence[str], rows: Iterable[Sequence], digits: int = 6) -> str:
    """A table as one CSV string."""
    buf = io.StringIO()
    write_csv(buf, columns, rows, digits)
    return buf.getvalue()


def json_text(columns: Sequence[str], rows: Iterable[Sequence], **extra: Any) -> str:
    """A table as an indented JSON object; ``extra`` keys follow ``rows``."""
    payload = {"rows": [dict(zip(columns, row)) for row in rows], **extra}
    return json.dumps(payload, indent=2, default=attrgetter("value")) + "\n"
