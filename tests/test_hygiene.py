"""Source hygiene: every imported name in the package is used or exported,
and every definition in the package has a caller outside the unit tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "evohom"
MODULES = sorted(SRC.glob("*.py"))
# what counts as a caller: the package, the benchmark and the acceptance gate
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
# argparse calls ``error`` itself on a usage error; cli._Parser overrides it
CALLED_BY_LIBRARY = {"cli._Parser.error"}


def _exported(tree):
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(elt) for elt in node.value.elts}
    return set()


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = set(imported) - used - _exported(tree)
    return sorted((imported[name], name) for name in unused)


def test_scanner_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n\n__all__ = ['tau']\nprint(sys.argv)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, node) of the top-level functions, classes and
    constants of a module and the non-dunder methods of its classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, defs) and not _is_dunder(sub.name):
                        yield f"{node.name}.{sub.name}", sub
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not _is_dunder(t.id):
                    yield t.id, node


def _references(tree):
    """(name, line, bare) for every ast.Name, ast.Attribute and imported name;
    ``bare`` marks an ast.Name, which reaches only its own module's top-level
    names, never a method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno, False


def uncalled_definitions(modules, callers=()):
    """``module.name`` of each definition in ``modules`` (module name ->
    source) referenced nowhere outside its own body, counting references
    in ``modules`` and in the ``callers`` sources.  Docstrings and comments
    are not references."""
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    refs = {}
    for key, tree in [*trees.items(), *enumerate(ast.parse(src) for src in callers)]:
        for name, line, bare in _references(tree):
            refs.setdefault(name, []).append((key, line, bare))
    dead = []
    for mod, tree in trees.items():
        for qualname, node in _definitions(tree):
            cls, _, name = qualname.rpartition(".")
            if not any(
                not (key == mod and node.lineno <= line <= node.end_lineno)
                and (not bare or (key == mod and not cls))
                for key, line, bare in refs.get(name, ())
            ):
                dead.append(f"{mod}.{qualname}")
    return sorted(dead)


def test_scanner_finds_an_uncalled_definition():
    modules = {
        "a": (
            "LIMIT = 3\n"
            "def used():\n    opened = LIMIT\n    return opened\n"
            "def planted():\n    return planted()\n"
            "class Box:\n"
            "    def __len__(self):\n        return 0\n"
            "    def opened(self):\n        return self.opened\n"
        ),
        "b": "from a import used, Box\nused()\n",
    }
    caller = '"""planted() and Box.opened are named here, in a docstring."""\n'
    # the local variable ``opened`` in ``used`` is no call of the method
    assert uncalled_definitions(modules, [caller]) == ["a.Box.opened", "a.planted"]
    # a bare name in another module is that module's own name, not a.planted
    assert uncalled_definitions({**modules, "c": "planted = 1\n"}) == [
        "a.Box.opened",
        "a.planted",
        "c.planted",
    ]


def test_every_definition_has_a_caller():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert set(uncalled_definitions(modules, callers)) - CALLED_BY_LIBRARY == set()
