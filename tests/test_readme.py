"""README facts that code owns, checked against the code.

The Library tour is a ``>>>`` block that runs under ``doctest``, and each
row of the option table names subcommands and a default that must be
those of ``sgpv.cli.OPTIONS``.
"""

import doctest
import re
from pathlib import Path

from sgpv.cli import OPTIONS

README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = {"compute", "design", "reliability", "screen", "track", "simulate"}
# Default cells that say "no value until the run sets one": the option's default is None.
UNSET = {"none", "required", "one is required", "stdout", "`--theta0`"}


def option_rows() -> list[tuple[list[str], set[str], list]]:
    """Per row of README's option table: the option names, the subcommands
    and each name's default as a Python value."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| Option | Subcommands | Default | Config value |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        flags, commands, default, _ = (cell.strip() for cell in line.strip("|").split(" | "))
        names = [n.replace("-", "_") for n in re.findall(r"--([a-z0-9-]+)", flags)
                 if not n.startswith("no-")]
        commands = re.sub(r" \([^)]*\)", "", commands)
        commands = COMMANDS if commands == "all" else set(commands.split(", "))
        default = re.sub(r" \(.*\)$", "", default)
        defaults = default.split(", ")  # one per name, or one for all
        if len(defaults) != len(names):
            defaults = [default] * len(names)
        rows.append((names, commands, [parse_default(d) for d in defaults]))
    return rows


def parse_default(text: str):
    if text in UNSET:
        return None
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    test = doctest.DocTestParser().get_doctest(text, {}, "README", str(README), 0)
    runner, report = doctest.DocTestRunner(), []
    runner.run(test, out=report.append)
    assert (runner.failures, "".join(report)) == (0, "")
    assert runner.tries >= 10


def test_option_table_matches_options():
    rows = option_rows()
    for name in {opt.name for opt in OPTIONS}:
        assert any(name in names for names, _, _ in rows), f"--{name} is not in the table"
    for names, commands, defaults in rows:
        for name, default in zip(names, defaults):
            [opt] = [o for o in OPTIONS if o.name == name and commands <= set(o.commands)]
            assert (name, default, type(default)) == (name, opt.default, type(opt.default))
    for name in {opt.name for opt in OPTIONS}:
        listed = set().union(*(commands for names, commands, _ in rows if name in names))
        declared = set().union(*(o.commands for o in OPTIONS if o.name == name))
        assert (name, listed) == (name, declared)

