"""Source hygiene: every imported name in the package is used or exported,
every definition in the package has a caller outside the unit tests, and
every parameter with a default is passed by such a caller."""

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


def _calls(tree):
    """(callee name, positional count, keyword names, unpacks) of every call;
    the callee name is that of an ast.Name or the attribute of an
    ast.Attribute, and ``unpacks`` marks a ``*`` or ``**`` argument."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            yield name, len(node.args), {k.arg for k in node.keywords}, unpacks


def _functions(body, prefix="", cls=None):
    """(qualified name, callee name, bound arguments, node) of every function
    and method, nested ones included; dunder methods are skipped except a
    class's ``__init__``, which is called by the class name.  A method's
    calls do not fill its first argument (``self`` or ``cls``; the package
    has no static methods)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.", node.name)
        elif isinstance(node, defs):
            bound = int(cls is not None)
            if cls is not None and node.name == "__init__":
                yield f"{prefix}{node.name}", cls, bound, node
            elif not _is_dunder(node.name):
                yield f"{prefix}{node.name}", node.name, bound, node
            yield from _functions(node.body, f"{prefix}{node.name}.")


def unset_parameters(modules, callers=()):
    """``module.function(parameter)`` of each defaulted parameter in
    ``modules`` (module name -> source) that no call in ``modules`` or in
    the ``callers`` sources passes: by keyword, by filling its position, or
    through ``*``/``**`` unpacking.  Calls are matched by name."""
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    calls = {}
    for tree in [*trees.values(), *(ast.parse(src) for src in callers)]:
        for name, npos, keywords, unpacks in _calls(tree):
            calls.setdefault(name, []).append((npos, keywords, unpacks))
    unset = []
    for mod, tree in trees.items():
        for qualname, callee, bound, node in _functions(tree.body):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, positional[i].arg) for i in range(first, len(positional))]
            defaulted += [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            for index, param in defaulted:
                if not any(
                    unpacks or param in keywords or (index is not None and npos > index - bound)
                    for npos, keywords, unpacks in calls.get(callee, ())
                ):
                    unset.append(f"{mod}.{qualname}({param})")
    return sorted(unset)


def test_scanner_finds_an_unset_parameter():
    modules = {
        "a": (
            "def f(x, by_position=1, by_keyword=2, unset=3, *, flag=False):\n"
            "    return x\n"
            "class Box:\n"
            "    def __init__(self, size=1, colour=None):\n"
            "        self.size = size\n"
            "    def grow(self, step=1, spare=0):\n"
            "        return self.size + step\n"
            "    def __eq__(self, other=None):\n"
            "        return False\n"
            "def g(*args, extra=0):\n"
            "    def inner(y=0):\n"
            "        return y\n"
            "    return inner()\n"
        ),
        "b": "from a import f, g, Box\nf(0, 1, by_keyword=5)\nBox(2).grow(3)\ng(**{})\n",
    }
    # the caller's own ``f(...)`` in a docstring is no call
    caller = '"""f(0, 1, 2, 3, flag=True)"""\n'
    assert unset_parameters(modules, [caller]) == [
        "a.Box.__init__(colour)",
        "a.Box.grow(spare)",
        "a.f(flag)",
        "a.f(unset)",
        "a.g.inner(y)",
    ]


def test_every_parameter_is_set():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unset_parameters(modules, callers) == []
