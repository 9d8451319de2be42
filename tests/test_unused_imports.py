"""No module of the package imports a name it never uses.

A name counts as used when the module reads it anywhere (annotations
included) or names it in a string constant of ``__all__``'s value (a list, or
an expression such as ``sorted([*_HOME, "errors"])``); an import line marked
``# noqa: F401`` is a deliberate re-export and is skipped.
"""

import ast
from pathlib import Path

import sgpv

PACKAGE = Path(sgpv.__file__).parent


def _unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(n.value for n in ast.walk(node.value)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    unused = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_finds_an_unused_import():
    source = (
        "from operator import itemgetter\n"
        "import os.path\n"
        "from math import pi, tau  # noqa: F401\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "x: dumps = 1\n"
    )
    assert _unused_imports(source) == [(1, "itemgetter"), (2, "os")]
    built = (  # a built __all__: only its own string constants count
        "from json import dumps, loads\n"
        "_HOME = {'dumps': 'json'}\n"
        "__all__ = sorted([*_HOME, 'loads'])\n"
    )
    assert _unused_imports(built) == [(1, "dumps")]
