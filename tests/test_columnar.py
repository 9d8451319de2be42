"""The columnar CLI against the row-at-a-time pipeline in ``oracles``.

Inputs are drawn from the same mix of p_delta branches as the
``compute_intervals`` benchmark (clear, nested, straddling, covering,
reset, touching, one-sided and whole-line estimates), seeded per
example. Odd seeds mix in quoted ids holding commas, quotes or newlines
and blank or whitespace-only rows, which only csv.reader reads; even seeds
give plain input (no quoted id, no blank row), which the plain reader
takes unless a row is short or a cell is not a number. Output bytes, exit
codes and error lines must equal what the oracle gives; q-values and ranks
must be bitwise the oracle's.
"""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sgpv import (
    FOLD_CHANGE_NULL,
    NullSpec,
    _table,
    bh_qvalues,
    ranked_indices,
    screen_intervals,
)
from sgpv.cli import main

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
H0 = NullSpec.symmetric(0.0, 0.5)
NULL_FLAGS = ["--null-point", "0", "--delta", "0.5"]
KINDS = ("clear", "nested", "straddle", "cover_narrow", "reset", "touching",
         "one_sided", "whole_line")
IDS = ("g1", "q,uoted", 'say "hi"', "two\nlines", " padded ", "", "x" * 40)
PLAIN_IDS = tuple(i for i in IDS if not {",", '"', "\n"} & set(i))  # written unquoted
BLANK_ROWS = ("", "   ", ",,", " , \t, ", "\t")


def mix_interval(rng: np.random.Generator, kind: str) -> tuple[float, float]:
    """One estimate of the given p_delta branch against H0 = [-0.5, 0.5]."""
    width = float(rng.uniform(0.05, 3.0))
    if kind == "clear":
        lo = 0.5 + float(rng.exponential(0.5)) + 1e-3
        lo, hi = lo, lo + width
    elif kind == "nested":
        width = float(rng.uniform(0.01, 0.95))
        lo = float(rng.uniform(-0.5, 0.5 - width))
        lo, hi = lo, lo + width
    elif kind == "straddle":
        lo = 0.5 - float(rng.uniform(0.01, 0.99)) * min(width, 1.0)
        hi = lo + width
    elif kind in ("cover_narrow", "reset"):
        width = float(rng.uniform(1.01, 2.0) if kind == "cover_narrow" else rng.uniform(2.05, 6.0))
        lo = -0.5 - float(rng.uniform(0.0, 1.0)) * (width - 1.0)
        hi = lo + width
    elif kind == "touching":
        lo, hi = 0.5, 0.5 + width
    elif kind == "one_sided":
        lo, hi = float(rng.uniform(-1.5, 1.5)), math.inf
    else:
        return -math.inf, math.inf
    return (-hi, -lo) if rng.random() < 0.5 else (lo, hi)


def ids_of(seed: int) -> tuple[str, ...]:
    """The ids of ``seed``'s inputs: none quoted on an even seed."""
    return IDS if seed % 2 else PLAIN_IDS


def mix_rows(seed: int, count: int) -> list[list[str]]:
    """``count`` id,lo,hi rows drawn from the benchmark mix."""
    rng = np.random.default_rng(seed)
    ids, rows = ids_of(seed), []
    for _ in range(count):
        lo, hi = mix_interval(rng, KINDS[int(rng.integers(len(KINDS)))])
        rows.append([ids[int(rng.integers(len(ids)))], repr(lo), repr(hi)])
    return rows


def csv_input(header: str, rows: list[list[str]], seed: int) -> str:
    """The rows as CSV, with blank and whitespace-only lines mixed in on an odd seed."""
    rng = np.random.default_rng(seed + 1)
    buf = io.StringIO()
    buf.write(header + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        if seed % 2 and rng.random() < 0.15:
            buf.write(BLANK_ROWS[int(rng.integers(len(BLANK_ROWS)))] + "\n")
        writer.writerow(row)
    return buf.getvalue()


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("columnar")


def run_cli(work_dir, text: str, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, output file text and stderr of one CLI run on ``text``."""
    src, out = work_dir / "input.csv", work_dir / "out.txt"
    src.write_text(text, encoding="utf-8", newline="")
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([argv[0], str(src), *argv[1:], "--out", str(out)])
    written = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, written, err.getvalue()


def oracle_compute(text, h0, **kwargs) -> tuple[int, str, str]:
    try:
        return 0, oracles.compute_output(text, h0, **kwargs), ""
    except oracles.InputError as exc:
        return 2, "", f"sgpv: input error: {exc}\n"


# ---------------------------------------------------------------- output bytes


@PROPERTY
@given(st.integers(0, 2**32), st.integers(0, 40), st.sampled_from([0, 6, 17]),
       st.sampled_from(["csv", "json"]))
def test_compute_bytes_match_oracle(work_dir, seed, count, digits, fmt):
    text = csv_input("id,lo,hi", mix_rows(seed, count), seed)
    got = run_cli(work_dir, text, ["compute", *NULL_FLAGS, "--digits", str(digits),
                                   "--format", fmt])
    assert got == oracle_compute(text, H0, fmt=fmt, digits=digits)


@PROPERTY
@given(st.integers(0, 2**32), st.integers(0, 30), st.sampled_from([0, 6, 17]),
       st.sampled_from(["csv", "json"]), st.sampled_from([0.5, 0.9, 0.95]))
def test_compute_estimate_se_bytes_match_oracle(work_dir, seed, count, digits, fmt, level):
    rng = np.random.default_rng(seed)
    rows = [[repr(float(rng.normal(0.0, 1.5))), repr(float(rng.uniform(1e-3, 2.0)))]
            for _ in range(count)]
    text = csv_input("estimate,se", rows, seed)
    got = run_cli(work_dir, text, ["compute", *NULL_FLAGS, "--digits", str(digits),
                                   "--format", fmt, "--level", str(level)])
    assert got == oracle_compute(text, H0, level=level, fmt=fmt, digits=digits)


@PROPERTY
@given(st.integers(0, 2**32), st.integers(0, 30), st.sampled_from([0, 6, 17]),
       st.sampled_from(["csv", "json"]))
def test_compute_log10_bytes_match_oracle(work_dir, seed, count, digits, fmt):
    rng = np.random.default_rng(seed)
    ids, rows = ids_of(seed), []
    for k in range(count):
        lo = float(10.0 ** rng.uniform(-3, 3))
        hi = math.inf if k % 7 == 3 else lo * float(rng.uniform(1.0, 20.0))
        rows.append([ids[k % len(ids)], repr(lo), repr(hi)])
    text = csv_input("lo,hi,id", rows, seed)
    got = run_cli(work_dir, text, ["compute", "--log10", "--digits", str(digits),
                                   "--format", fmt])
    assert got == oracle_compute(text, FOLD_CHANGE_NULL, log10_mode=True, fmt=fmt, digits=digits)


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308, 1 / 3, -123456789.0, 0.1, 1e16]


@pytest.mark.parametrize("digits", [0, 1, 6, 17, 100, 767, 800, 5000])
def test_float_cells_match_format_for_special_doubles(digits):
    columns = [_table.texts("id", [str(k) for k in range(len(SPECIAL))]),
               _table.floats("x", SPECIAL),
               _table.floats("masked", SPECIAL, [math.isnan(x) for x in SPECIAL])]
    rows = [(str(k), x, None if math.isnan(x) else x) for k, x in enumerate(SPECIAL)]
    names = ("id", "x", "masked")
    assert _table.csv_text(columns, digits) == oracles.csv_text(names, rows, digits)
    assert_json_matches(columns, names, rows)


def test_blocks_join_seamlessly():
    n = 2 * _table.BLOCK_ROWS + 3
    ids = [IDS[k % len(IDS)] for k in range(n)]
    values = np.linspace(-1.0, 1.0, n)
    empty = np.arange(n) % 5 == 0
    columns = [_table.texts("id", ids), _table.floats("v", values, empty),
               _table.codes("c", np.arange(n) % 3, ("a", True, None)),
               _table.ints("k", np.arange(n), np.arange(n) % 7 == 0), _table.blank("b")]
    rows = [(i, None if e else v, ("a", True, None)[k % 3], None if k % 7 == 0 else k, None)
            for k, (i, v, e) in enumerate(zip(ids, values.tolist(), empty.tolist()))]
    names = ("id", "v", "c", "k", "b")
    assert _table.csv_text(columns) == oracles.csv_text(names, rows)
    assert_json_matches(columns, names, rows, summary={"rows": n})


# A table drawn column by column: (name, kind, values, empty) per column,
# where kind is a _table constructor and empty an optional mask.
LABELS = ("a,b", True, None, "", False, "plain")
TEXT_CELLS = st.one_of(st.sampled_from(IDS + ("cr\rhere", "naïve µ", "%s", "\u2028")),
                       st.text(max_size=4))
CELLS = {
    "floats": st.one_of(st.sampled_from(SPECIAL), st.floats()),
    "ints": st.integers(-2**63, 2**63 - 1),
    "texts": TEXT_CELLS,
    "codes": st.integers(0, len(LABELS) - 1),
    "blank": st.none(),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | CELLS["floats"] | TEXT_CELLS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT_CELLS, inner, max_size=3),
    max_leaves=8,
)
EXTRA = st.dictionaries(st.sampled_from(["summary", "crosstab", "naïve key"]), JSON_VALUES,
                        max_size=3)


def table_case(n: int, specs) -> tuple[list, list[str], list[tuple]]:
    """The columns, their names and the oracle's row tuples of a drawn table."""
    columns, cells = [], []
    for name, kind, values, empty in specs:
        if kind == "blank":
            columns.append(_table.blank(name))
            values = [None] * n
        elif kind == "codes":
            columns.append(_table.codes(name, values, LABELS))
            values = [LABELS[c] for c in values]
        elif kind == "texts":
            columns.append(_table.texts(name, values))
        else:
            columns.append(getattr(_table, kind)(name, values, empty))
        if empty is not None:
            values = [None if e else v for v, e in zip(values, empty)]
        cells.append(values)
    return columns, [spec[0] for spec in specs], list(zip(*cells))


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    specs = []
    for j in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(list(CELLS)[:-1] if j == 0 else list(CELLS)))  # rows exist
        values = draw(st.lists(CELLS[kind], min_size=n, max_size=n))
        mask = st.lists(st.booleans(), min_size=n, max_size=n)
        empty = draw(st.none() | mask) if kind in ("floats", "ints") else None
        name = draw(st.sampled_from(["id", "näme", "a,b", 'say "x"', "50%"])) if j == 0 else f"c{j}"
        specs.append((name, kind, values, empty))
    return table_case(n, specs)


def assert_json_matches(columns, names, rows, **extra):
    expected = oracles.json_text(names, rows, **extra)
    buf = io.StringIO()
    _table.write_json(buf, columns, **extra)
    assert buf.getvalue() == expected


@PROPERTY
@given(tables(), st.sampled_from([0, 1, 6, 12, 13, 17, 5000]), EXTRA)
@example(table_case(2, [("id", "texts", ["", "x"], None)]), 6, {})  # csv writes a lone "" cell
@example(table_case(2, [("v", "floats", [1.0, math.nan], [True, False])]), 0, {})
@example(table_case(5, [("id", "texts", ["a", "b,c", "", "d", "e"], None),  # near a 12-digit tie
                        ("m", "floats", [math.nan, math.inf, -math.inf, 0.1234567890125, 2.5],
                         [True, True, True, True, False]),
                        ("x", "floats", [math.inf, -math.inf, -0.0, 5e-324, 0.1234567890125],
                         None)]), 12, {})
@example(table_case(3, [("id", "texts", ["a", "b", "c"], None),
                        ("v", "floats", [1.0, math.nan, -2.5], [True, True, True])]), 6, {})
@example(table_case(0, [("id", "texts", [], None), ("v", "floats", [], None)]), 6,
         {"summary": {"rows": 0, "by": [{}, []]}})  # an empty table
def test_writers_match_row_oracle(table, digits, extra):
    columns, names, rows = table
    assert _table.csv_text(columns, digits) == oracles.csv_text(names, rows, digits)
    assert_json_matches(columns, names, rows, **extra)


@PROPERTY
@given(EXTRA.filter(bool))
def test_json_without_columns_is_extra_alone(extra):
    """No columns: the document is ``extra`` as json.dumps lays it out (simulate's)."""
    buf = io.StringIO()
    _table.write_json(buf, None, **extra)
    assert buf.getvalue() == json.dumps(extra, indent=2) + "\n"


# ------------------------------------------------------------- q-values, ranks

P_VALUES = st.lists(
    st.one_of(st.sampled_from([1.0, 0.5, 0.05, 1e-300, 5e-324]),
              st.floats(min_value=5e-324, max_value=1.0)),
    max_size=60,
)


@PROPERTY
@given(P_VALUES)
def test_bh_qvalues_bitwise_equal_to_oracle(p_values):
    got = bh_qvalues(p_values)
    assert [q.hex() for q in got] == [q.hex() for q in oracles.bh_qvalues(p_values)]


@PROPERTY
@given(st.integers(0, 2**32), st.integers(0, 50), st.integers(1, 4))
def test_ranked_indices_equal_oracle(seed, count, distinct):
    # few distinct ids per kind make ties in p_delta and in the delta-gap
    rng = np.random.default_rng(seed)
    pool = [mix_interval(rng, KINDS[int(rng.integers(len(KINDS)))]) for _ in range(distinct * 4)]
    picks = rng.integers(len(pool), size=count).tolist()
    lo, hi = zip(*[pool[i] for i in picks]) if picks else ((), ())
    report = screen_intervals([f"r{k}" for k in range(count)], lo, hi,
                              [math.nan] * count, [False] * count, H0)
    assert ranked_indices(report) == oracles.ranked_indices(report.p_delta.tolist(),
                                                            report.delta_gap.tolist())


# ---------------------------------------------------------- error-path parity


def defect_line(seed: int, count: int) -> int:
    """A defect position spread evenly over the rows, whatever the shrinker prefers."""
    return int(np.random.default_rng(seed + 2).integers(count))

COMPUTE_DEFECTS = {
    "non_numeric": lambda row: [row[0], "abc", row[2]],
    "short_row": lambda row: row[:2],
    "nan": lambda row: [row[0], row[1], "nan"],
    "reversed": lambda row: [row[0], "2", "1"],
    "point_at_infinity": lambda row: [row[0], "inf", "inf"],
    "negative_point_at_infinity": lambda row: [row[0], "-inf", " -inf "],
}


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 30), st.booleans(),
       st.sampled_from(sorted(COMPUTE_DEFECTS)), st.sampled_from(["csv", "json"]))
def test_compute_error_line_matches_oracle(work_dir, seed, count, late_defect, defect, fmt):
    rows = mix_rows(seed, count)
    at = defect_line(seed, count)
    rows[at] = COMPUTE_DEFECTS[defect](rows[at])
    if late_defect:  # a second defect further down must not be the one reported
        rows.append(COMPUTE_DEFECTS["non_numeric"](["late", "0", "1"]))
    text = csv_input("id,lo,hi", rows, seed)
    got = run_cli(work_dir, text, ["compute", *NULL_FLAGS, "--format", fmt])
    assert got[0] == 2
    assert got == oracle_compute(text, H0, fmt=fmt)


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 20),
       st.sampled_from(["0", "-1", "-0", "nan", "inf", "1e-400", "abc", ""]))
def test_compute_se_error_line_matches_oracle(work_dir, seed, count, bad_se):
    rng = np.random.default_rng(seed)
    rows = [[repr(float(rng.normal())), repr(float(rng.uniform(0.1, 1)))] for _ in range(count)]
    rows[defect_line(seed, count)][1] = bad_se
    text = csv_input("estimate,se", rows, seed)
    assert run_cli(work_dir, text, ["compute", *NULL_FLAGS]) == oracle_compute(text, H0)


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 20),
       st.sampled_from(["0", "-0", "-1", "-inf", "1e-400"]))
def test_compute_log10_error_line_matches_oracle(work_dir, seed, count, bad_lo):
    rng = np.random.default_rng(seed)
    rows = [[f"r{k}", repr(float(rng.uniform(0.5, 1))), repr(float(rng.uniform(1, 4)))]
            for k in range(count)]
    rows[defect_line(seed, count)][1] = bad_lo
    text = csv_input("id,lo,hi", rows, seed)
    got = run_cli(work_dir, text, ["compute", "--log10"])
    assert got[0] == 2
    assert got == oracle_compute(text, FOLD_CHANGE_NULL, log10_mode=True)


SCREEN_DEFECTS = {
    "p_above_one": lambda row: [*row[:4], "1.5"],
    "p_negative": lambda row: [*row[:4], "-0.2"],
    "p_nan": lambda row: [*row[:4], "nan"],
    "p_overflow": lambda row: [*row[:4], "1e400"],
    "p_unreadable": lambda row: [*row[:4], "p"],
    "bad_estimate": lambda row: [row[0], "x", *row[2:]],
    "short_row": lambda row: row[:3],
    "reversed": lambda row: [row[0], row[1], "3", "2", row[4]],
}


def screen_rows(seed: int, count: int) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    rows = []
    for row_id, lo, hi in mix_rows(seed, count):
        p_value = "" if rng.random() < 0.2 else repr(float(rng.uniform(1e-6, 1.0)))
        rows.append([row_id, repr(float(rng.normal())), lo, hi, p_value])
    return rows


def oracle_screen_error(text: str, log10_mode: bool = False) -> tuple[int, str] | None:
    try:
        header, rows = oracles.read_table(text)
        oracles.parse_interval_rows(header, rows, log10_mode)
    except oracles.InputError as exc:
        return 2, f"sgpv: input error: {exc}\n"
    return None


# faults of --log10 input: an endpoint that is not positive, alone or beside a p-value fault
LOG10_DEFECTS = {
    "lo_zero": lambda row: [*row[:2], "0", *row[3:]],
    "lo_negative": lambda row: [*row[:2], "-0.5", *row[3:]],
    "lo_negative_infinity": lambda row: [*row[:2], "-inf", *row[3:]],
    "log10_and_p_range": lambda row: [*row[:2], "0", row[3], "1.5"],
    "log10_and_p_unreadable": lambda row: [*row[:2], "-1", row[3], "p"],
}


def positive_screen_rows(seed: int, count: int) -> list[list[str]]:
    """id,estimate,lo,hi,p_value rows whose intervals lie on the positive axis."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(count):
        lo = float(rng.uniform(0.2, 1.5))
        hi = lo + float(rng.uniform(0.01, 3.0))
        p_value = "" if rng.random() < 0.2 else repr(float(rng.uniform(1e-6, 1.0)))
        rows.append([f"r{k}", repr(float(rng.uniform(lo, hi))), repr(lo), repr(hi), p_value])
    return rows


SCREEN_CASES = [(False, name) for name in sorted(SCREEN_DEFECTS)] + [
    (True, name) for name in sorted({**SCREEN_DEFECTS, **LOG10_DEFECTS})
]


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 30), st.sampled_from(SCREEN_CASES))
def test_screen_error_line_matches_oracle(work_dir, seed, count, case):
    log10_mode, defect = case
    rows = positive_screen_rows(seed, count) if log10_mode else screen_rows(seed, count)
    at = defect_line(seed, count)
    rows[at] = {**SCREEN_DEFECTS, **LOG10_DEFECTS}[defect](rows[at])
    text = csv_input("id,estimate,lo,hi,p_value", rows, seed)
    flags = ["--log10"] if log10_mode else NULL_FLAGS
    code, _, err = run_cli(work_dir, text, ["screen", *flags])
    assert (code, err) == oracle_screen_error(text, log10_mode)


@PROPERTY
@given(st.integers(0, 2**32), st.integers(0, 30))
def test_screen_without_defect_runs(work_dir, seed, count):
    text = csv_input("id,estimate,lo,hi,p_value", screen_rows(seed, count), seed)
    assert oracle_screen_error(text) is None
    code, out, err = run_cli(work_dir, text, ["screen", *NULL_FLAGS, "--format", "json"])
    assert (code, err) == (0, "")
    ids = [fields[0] for _, fields in oracles.read_table(text)[1]]
    assert [row["id"] for row in json.loads(out)["rows"]] == ids


# ------------------------------------------------------- invariance properties

DYADIC = st.integers(-1024, 1024).map(lambda k: k / 64)


@st.composite
def exact_intervals(draw):
    """Intervals and a null on a dyadic grid, some one-sided, where the maps below are exact."""
    null = sorted(draw(st.lists(DYADIC, min_size=2, max_size=2, unique=True)))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        lo, hi = sorted(draw(st.lists(DYADIC, min_size=2, max_size=2)))
        side = draw(st.sampled_from(["both", "both", "both", "left", "right"]))
        rows.append((-math.inf if side == "left" else lo, math.inf if side == "right" else hi))
    return null, rows


def compute_json(work_dir, null, rows) -> list[dict]:
    text = "id,lo,hi\n" + "".join(f"r{k},{lo!r},{hi!r}\n" for k, (lo, hi) in enumerate(rows))
    code, out, err = run_cli(work_dir, text, ["compute", "--null-lo", repr(null[0]),
                                              "--null-hi", repr(null[1]), "--format", "json"])
    assert (code, err) == (0, "")
    return json.loads(out)["rows"]


@PROPERTY
@given(exact_intervals())
def test_negating_intervals_and_null_mirrors_every_verdict(work_dir, case):
    null, rows = case
    base = compute_json(work_dir, null, rows)
    mirrored = compute_json(work_dir, (-null[1], -null[0]), [(-hi, -lo) for lo, hi in rows])
    for a, b in zip(base, mirrored):
        assert (a["p_delta"], a["classification"], a["correction_applied"]) == (
            b["p_delta"], b["classification"], b["correction_applied"])
        assert (a["delta_gap"] is None) == (b["delta_gap"] is None)
        if a["delta_gap"] is not None:
            assert b["delta_gap"] == -a["delta_gap"]


@PROPERTY
@given(exact_intervals(), st.integers(-4, 4), DYADIC)
def test_increasing_affine_map_keeps_p_delta_and_classification(work_dir, case, power, shift):
    null, rows = case
    scale = 2.0**power

    def f(x):
        return scale * x + shift

    base = compute_json(work_dir, null, rows)
    mapped = compute_json(work_dir, (f(null[0]), f(null[1])),
                          [(f(lo), f(hi)) for lo, hi in rows])
    for a, b in zip(base, mapped):
        assert (a["p_delta"], a["classification"]) == (b["p_delta"], b["classification"])


GROUP_CELLS = ["2.5", "inf", "1e400", "nan", "1", "0", "-3", "abc", "", "1e300", "1e-320",
               "1e200", "-1e308", "7"]


def oracle_group_error(text: str, welch: bool) -> tuple[int, str] | None:
    try:
        header, rows = oracles.read_table(text)
        oracles.parse_group_rows(header, rows, 0.95, welch)
    except oracles.InputError as exc:
        return 2, f"sgpv: input error: {exc}\n"
    return None


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 12), st.booleans(), st.booleans())
def test_group_error_line_matches_oracle(work_dir, seed, count, welch, short_row):
    rng = np.random.default_rng(seed)
    rows = [[f"g{k}", str(int(rng.integers(2, 30))), repr(float(rng.normal(8, 2))),
             repr(float(rng.uniform(0.5, 2))), str(int(rng.integers(2, 30))),
             repr(float(rng.normal(8, 2))), repr(float(rng.uniform(0.5, 2)))]
            for k in range(count)]
    at = int(rng.integers(count))
    for _ in range(int(rng.integers(1, 4))):  # defects in both groups of one row interact
        rows[at][int(rng.integers(1, 7))] = GROUP_CELLS[int(rng.integers(len(GROUP_CELLS)))]
    if short_row:
        at = int(rng.integers(count))
        rows[at] = rows[at][:int(rng.integers(1, 7))]
    text = csv_input("id,n1,mean1,sd1,n2,mean2,sd2", rows, seed)
    code, _, err = run_cli(work_dir, text, ["screen", *NULL_FLAGS] + (["--welch"] if welch else []))
    expected = oracle_group_error(text, welch)
    assert (code, err) == (expected or (0, ""))


# Each defect maps a row to the rows that replace it.
TRACK_DEFECTS = {
    "one_field": lambda row: [row[:1]],
    "short_row": lambda row: [row[:2]],
    "t_non_numeric": lambda row: [["t?", *row[1:]]],
    "lo_non_numeric": lambda row: [[row[0], "abc", row[2]]],
    "hi_blank": lambda row: [[row[0], row[1], ""]],
    "reversed": lambda row: [[row[0], "2", "1"]],
    "nan": lambda row: [[row[0], "nan", row[2]]],
    "point_at_infinity": lambda row: [[row[0], "inf", "inf"]],
    "negative_point_at_infinity": lambda row: [[row[0], " -inf", "-inf "]],
    "t_repeated": lambda row: [row, row],
    "t_nan": lambda row: [["nan", *row[1:]]],
    "whole_line": lambda row: [[row[0], " -inf", "inf"]],
}


def oracle_track_error(text: str) -> tuple[int, str] | None:
    try:
        header, rows = oracles.read_table(text)
        oracles.parse_track_rows(header, rows)
    except oracles.InputError as exc:
        return 2, f"sgpv: input error: {exc}\n"
    return None


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 30), st.booleans(),
       st.sampled_from(sorted(TRACK_DEFECTS)))
@example(seed=0, count=1, late_defect=True, defect="t_nan")  # on the first row
@example(seed=0, count=5, late_defect=False, defect="t_nan")  # on a later one
def test_track_error_line_matches_oracle(work_dir, seed, count, late_defect, defect):
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(count):
        lo = float(rng.normal())
        rows.append([repr(k / 4), repr(lo), repr(lo + float(rng.uniform(0.01, 2.0)))])
    at = defect_line(seed, count)
    rows[at:at + 1] = TRACK_DEFECTS[defect](rows[at])
    if late_defect:  # a second defect further down must not be the one reported
        rows.append([repr(count / 4), "1", "0"])
    text = csv_input("t,lo,hi", rows, seed)
    code, out, err = run_cli(work_dir, text, ["track", *NULL_FLAGS])
    assert (code, out) == (2, "")
    assert (code, err) == oracle_track_error(text)


# A header that names a column twice: one the command reads (an error naming the first
# such column in the command's order, before the input form is checked) or one it does not.
DUPLICATE_HEADERS = {
    "compute-hi": ("compute", "id,lo,hi,hi\na,0.1,0.2,5\n"),
    "compute-order": ("compute", "id,hi, Hi,lo,LO\na,0.2,0.3,0.1,0\n"),
    "compute-before-form": ("compute", "id,se,se\na,0.1,0.2\n"),
    "compute-unread": ("compute", "id,lo,hi,note,note\na,0.1,0.2,x,y\n"),
    "screen-p_value": ("screen", "id,estimate,lo,hi,p_value,p_value\na,0,-1,1,0.5,0.2\n"),
    "screen-other-form": ("screen", "id,lo,hi,n1,n1\na,-1,1,3,4\n"),
    "screen-unread": ("screen", "id,lo,hi,note,note\na,-1,1,x,y\n"),
    "screen-groups": ("screen", "id,n1,mean1,sd1,n2,mean2,sd2,sd1\na,5,1,1,6,2,1.5,2\n"),
    "screen-groups-unread": ("screen", "id,n1,mean1,sd1,n2,mean2,sd2,x,x\na,5,1,1,6,2,1.5,,\n"),
    "track-t": ("track", "t,lo,hi,t\n1,0,1,2\n"),
    "track-unread": ("track", "t,lo,hi,x,x\n1,0,1,,\n"),
}


@pytest.mark.parametrize("case", sorted(DUPLICATE_HEADERS))
def test_duplicated_header_matches_oracle(work_dir, case):
    command, text = DUPLICATE_HEADERS[case]
    got = run_cli(work_dir, text, [command, *NULL_FLAGS])
    if command == "compute":
        assert got == oracle_compute(text, H0)
        return
    if command == "track":
        want = oracle_track_error(text)
    elif "lo" in text.partition("\n")[0].split(","):
        want = oracle_screen_error(text)
    else:
        want = oracle_group_error(text, welch=False)
    assert (got[0], got[2]) == (want or (0, ""))
    assert (got[1] == "") == (want is not None)
