"""No private module-level name of the package goes unread.

A private name is a module-level function, class or assigned constant
whose name starts with one underscore. It counts as read when any module
of the package loads it as a name, reads it as an attribute, imports it
by name, or holds it as a whole string constant (a lazy import table).
"""

import ast
from pathlib import Path

import sgpv

PACKAGE = Path(sgpv.__file__).parent


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def _reads(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def _unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private definition no module of ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return [(module, line, name) for module, tree in trees.items()
            for line, name in _private_definitions(tree) if name not in read]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    unread = [f"{module}:{line}: {name}"
              for module, line, name in _unread_private_names(sources)]
    assert unread == []


def test_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_SPARE: int = 4\n"
            "_PAIR_A, _PAIR_B = 1, 2\n"
            "__dunder__ = 5\n"
            "def _helper():\n"
            "    return _LIMIT + _PAIR_A\n"
            "def _orphan():\n"
            "    _inner = 1\n"
            "    return _inner\n"
            "class _Record:\n"
            "    pass\n"
            "class _Lazy:\n"
            "    pass\n"
            "_seen = 0\n"
            "_seen = 1\n"
        ),
        "b.py": (
            "from .a import _helper\n"
            "import a\n"
            "x = a._Record\n"
            "HOME = {'_Lazy': 'a'}\n"
            "'''_orphan is only named in this docstring'''\n"
        ),
    }
    assert _unread_private_names(sources) == [
        ("a.py", 2, "_SPARE"), ("a.py", 3, "_PAIR_B"), ("a.py", 7, "_orphan"),
        ("a.py", 14, "_seen"), ("a.py", 15, "_seen"),
    ]
