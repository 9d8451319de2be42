"""The CSV writer's byte path against one ``'%.*g'`` per cell.

At up to ``_table._BYTE_DIGITS`` digits every CSV float cell, in any
table, is written into its row of a uint8 array by a vectorized ``%.Ng``
(see ``_table._float_bytes``), and the writer builds each block from such
arrays. Its text must equal ``oracles.float_rows_text`` for every double:
random bit patterns, and the values where the rounding is hardest, namely
the doubles next to each power of ten and each ``9...95 * 10**n`` rounding
boundary, where the carry and the tie window decide.
"""

import io
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sgpv import _table

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
DIGITS = range(_table._BYTE_DIGITS + 1)


def csv_text(columns, digits: int) -> str:
    """A table as ``_table.write_csv`` writes it."""
    _table.write_csv(buf := io.StringIO(), columns, digits)
    return buf.getvalue()


def csv_rows(columns, digits: int) -> str:
    """The rows (no header) that write_csv gives for ``columns``."""
    return csv_text(columns, digits).split("\n", 1)[1]


def neighbours(x: float, ulps: int) -> list[float]:
    """``x`` and the ``ulps`` doubles on each side of it."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def edge_values(digits: int) -> list[float]:
    """Each power of ten +-4 ulps, each 9...95 * 10**n boundary of ``digits``
    digits +-1 ulp (and negated), and the extreme doubles."""
    p = max(digits, 1)
    values = [5e-324, -5e-324, 0.0, -0.0, sys.float_info.max, -sys.float_info.max,
              sys.float_info.min]
    for n in range(-323, 309):
        values += neighbours(float(f"1e{n}"), 4)
        if n - p > -325:
            boundary = float("9" * p + f"5e{n - p}")
            values += neighbours(boundary, 1) + [-boundary]
    return values


@PROPERTY
@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=40),
       st.sampled_from(DIGITS))
@example([(0.15, 2.5), (9.5, -0.0), (1e23, 5e-324)], 1)
@example([(0.0001, 1e-5), (123456.0, 1234567.0), (math.nan, -math.inf)], 6)
def test_random_doubles_match_percent_g(rows, digits):
    columns = [_table.floats("a", [r[0] for r in rows]), _table.floats("b", [r[1] for r in rows])]
    assert csv_rows(columns, digits) == oracles.float_rows_text(rows, digits)


@pytest.mark.parametrize("digits", DIGITS)
def test_edge_values_match_percent_g(digits):
    values = edge_values(digits)
    assert csv_rows([_table.floats("x", values)], digits) == \
        oracles.float_rows_text([(v,) for v in values], digits)


@pytest.mark.parametrize("digits", [0, 1, 6, 12, 13, 17])
def test_float_tables_match_and_pick_their_path(monkeypatch, digits):
    n = 2 * _table.BLOCK_ROWS + 3  # three blocks
    rng = np.random.default_rng(digits)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    x[::97] = np.round(x[::97], 3)
    x[5:12] = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308]
    empty = np.arange(n) % 5 == 0
    calls = []
    real = _table._float_bytes
    monkeypatch.setattr(_table, "_float_bytes", lambda *a: calls.append(a) or real(*a))
    tables = [
        ([_table.floats("x", x), _table.floats("m", -x, empty), _table.blank("b", n)],
         [(v, None if e else -v, None) for v, e in zip(x.tolist(), empty.tolist())]),
        ([_table.floats("m", x, empty)], [(None if e else v,) for v, e in zip(x.tolist(), empty)]),
    ]
    for columns, rows in tables:
        assert csv_rows(columns, digits) == oracles.float_rows_text(rows, digits)
    assert bool(calls) == (digits <= _table._BYTE_DIGITS)
