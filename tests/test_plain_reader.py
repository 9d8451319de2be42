"""The plain reader declines a text, or reads the table csv.reader and float() read.

``cli._read_table`` hands a text to ``_plain_table`` (``str.split`` and one
``np.loadtxt`` call) and, where that declines, to ``_csv_table``. Wherever
the plain path accepts, its ids, field texts and line numbers must equal the
csv path's, and its floats must equal ``float()`` of each field bit for bit
(the sign of a NaN included).
"""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgpv import cli

COMPUTE = ("id", "lo", "hi", "estimate", "se")
SCREEN = ("id", "estimate", "lo", "hi", "p_value", "n1", "mean1", "sd1", "n2", "mean2", "sd2")
TRACK = ("t", "lo", "hi")
HEADERS = ["id,lo,hi", "lo,hi,id", "estimate,se", " ID ,Lo,HI,note", "t,lo,hi",
           "id,estimate,lo,hi,p_value", "id,n1,mean1,sd1,n2,mean2,sd2", "lo", "id", "id,lo,lo",
           "x,id,t,hi,lo"]
NUMBERS = ["1", "-2.5", "0.3", " 7 ", "\t1", "1\t", "nan", "-nan", "NaN", "inf", "-Infinity",
           "1e400", "-1e400", "1e-400", "-0", "5e-324", "+.5e-3", "1.e5", "00001"]
# cells that float(), csv.reader and np.loadtxt may read differently, or not at all
HAZARDS = ["", " ", "\t", "1_0", "1e1_0", "abc", "#", "1#2", "#1", '"1"', '"x,y"', "\\1",
           "\x0b1", "\x0c1", "\x1c1", "1\x1d", "\x1e", "\x1f2", "\x00", "1\x00", "\x7f",
           "\xa01", "\u20281", "\u2029", "\u30001", "\u0661\u0662", "\u0661", "\x851", "1\r",
           "0x10", "1d5", "1 2", "1" * 140_000]
BLANK_ROWS = ["", " ", ",,", " , \t, ", "\t", "  \t"]


def read_both(text: str, names) -> cli._Table | None:
    """The plain path's table of ``text``, checked against the csv path's; None if declined."""
    plain = cli._plain_table(text, names)
    try:
        want = cli._csv_table(text, names, "input.csv")
    except cli._InputError:
        assert plain is None
        return None
    if plain is None:
        return None
    assert list(plain.lines) == want.lines
    assert plain.cells.keys() == want.cells.keys()
    for name, cells in want.cells.items():
        assert [plain.cells[name][k] for k in range(len(cells))] == cells
        if name != "id":
            (got, got_readable), (exact, readable) = (cli._column(t, name) for t in (plain, want))
            assert got_readable.all() and readable.all()
            assert got.view(np.int64).tolist() == exact.view(np.int64).tolist()
    return plain


@st.composite
def texts(draw):
    """A header and rows of number cells, with hazard cells, ragged and blank rows on demand."""
    header = draw(st.sampled_from(HEADERS))
    width = header.count(",") + 1
    plain = draw(st.booleans())
    cell = st.one_of(st.sampled_from(NUMBERS), st.floats().map(repr))
    if not plain:
        cell = st.one_of(cell, st.sampled_from(HAZARDS))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        if not plain and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(BLANK_ROWS)))
        size = width if plain else draw(st.sampled_from([width] * 3 + [width - 1, width + 1]))
        lines.append(",".join(draw(st.lists(cell, min_size=size, max_size=size))))
    end = draw(st.sampled_from(["\n", "\n", ""] if plain else ["\n", "", "\r\n", "\n\n"]))
    return end.join(lines) + end


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(texts(), st.sampled_from([COMPUTE, SCREEN, TRACK]))
@example("id,lo,hi\n", COMPUTE)  # a header and no data row
@example("id,lo,hi\na,1," + "1" * 140_000 + "\n", COMPUTE)  # a field over the csv limit
@example("lo\n1\n\n2\n", COMPUTE)  # an empty line that loadtxt would skip
def test_plain_path_declines_or_reads_the_csv_table(text, names):
    read_both(text, names)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.one_of(st.sampled_from(NUMBERS), st.floats().map(repr)),
                         min_size=3, max_size=3), min_size=1, max_size=8),
       st.sampled_from(["id,lo,hi", "lo,hi,id", "t,lo,hi"]))
def test_plain_numbers_take_the_plain_path(rows, header):
    text = header + "\n" + "".join(",".join(row) + "\n" for row in rows)
    if header.startswith("t"):
        assert read_both(text, TRACK) is not None
    else:  # the id column holds numbers here; it is read as text
        assert read_both(text, COMPUTE) is not None


@pytest.mark.parametrize("text", [
    "id,lo,hi\n\u0661,1,2\n",  # non-ASCII, even in an id
    "id,lo,hi\na,\u0661\u0662,2\n",  # an Arabic 12: float() reads it, loadtxt does not
    'id,lo,hi\n"a",1,2\n',
    "id,lo,hi\r\na,1,2\r\n",
    "id,lo,hi\na,\x1c1,2\n",  # loadtxt reads 1.0 here, float() refuses
    "id,lo,hi\na,1\x1f,2\n",
    "id,lo,hi\na\x00,1,2\n",
    "id,lo,hi\na,1,2\x0b\n",
    "id,lo,hi\na,1,2\n\nb,1,2\n",  # a blank row
    "id,lo,hi\na,1,2\n , ,\t\n",  # a whitespace-only row
    "id,lo,hi\na,1\n",  # a short row
    "id,lo,hi\na,1,2,3\n",  # a long row
    "id,lo,hi\n",  # no data row
    "",
    "id,lo,hi\na,1," + "2" * 131_072 + "\n",  # a line over the csv field limit
    "id,lo,hi,LO\na,1,2,3\n",  # a column named twice
    "id,note\na,1\n",  # no number column
    "id,lo,hi\na,1_0,2\n",  # float() reads 10, loadtxt refuses
    "id,lo,hi\na,,2\n",
    "id,lo,hi\na,x,2\n",
    "id,lo,hi\na,1#,2\n",
    "id,lo,hi\na,1,2#x\n",  # loadtxt's default comments="#" would read 2
])
def test_plain_path_declines(text):
    assert cli._plain_table(text, COMPUTE) is None


def test_a_line_at_the_csv_field_limit_is_plain():
    assert csv.field_size_limit() == 131_072
    assert read_both("id,lo,hi\na,1," + "2" * 131_068 + "\n", COMPUTE) is not None
    assert read_both("id,lo,hi\na,1," + "2" * 131_069 + "\n", COMPUTE) is None
