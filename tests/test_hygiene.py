"""Every name in the package earns its place: each import is used in its
module, and each module-level function, class or assignment is referenced
somewhere else under `src/`, unless it is listed below with whom it serves.
No module writes past a frozen dataclass, only the functions listed below
build a hypothesis verdict or classify an OI window, and every error class
is raised somewhere."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "rangegov").glob("*.py"))

# Module-level names nothing under src/ refers to, each kept for a reader outside it
SERVED_OUTSIDE = {
    "__init__.__version__",              # the package version, for users and packaging
    "formats.write_candles_csv",         # the writers build CSV inputs for ingest:
    "formats.write_funding_csv",         # the benchmark's input generator and the tests
    "formats.write_oi_csv",
    "formats.write_liquidations_csv",
    "formats.write_books",
    "formats.panel_to_dict",             # the panel document as one dict, for library users
                                         # and the tests: the reference `save_panel` streams
    "schemas.REPORT_SCHEMAS",            # the report schemas, for the tests that check reports
    "synth.load_builtin_scenario",       # a packaged scenario by name, for library users
}

# The only functions that may use `object.__setattr__`: a panel turning its own
# series into tuples as it is built, and `derive` keeping its memo on a panel.
# Anywhere else it could edit a panel after the freeze.
SETATTR_ALLOWED = {"model.Panel.__post_init__", "structure.derive"}

# The only functions that may call each name: every verdict is built by one of
# two builders, and every OI window is read for rotation by one reader.
CALLS_ALLOWED = {
    "HypothesisVerdict": {"hypotheses._verdict", "hypotheses._not_evaluable"},
    "classify_oi_event": {"hypotheses.oi_rotation_event"},
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _used_names(tree: ast.AST) -> set:
    """Names read anywhere in the tree, as a bare name or an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported(tree: ast.Module):
    """(bound name, line) of each import, `from __future__` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _defined(tree: ast.Module):
    """Each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = ["%s (line %d)" % (name, line) for name, line in _imported(tree)
              if name not in used]
    assert not unused, "%s imports and never uses %s" % (path.name, ", ".join(unused))


def test_every_module_level_name_is_referenced():
    trees = {path.stem: _tree(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = sorted("%s.%s" % (stem, name) for stem, tree in trees.items()
                          for name in _defined(tree) if name not in referenced)
    assert [n for n in unreferenced if n not in SERVED_OUTSIDE] == []
    assert sorted(SERVED_OUTSIDE) == unreferenced, "an allowlisted name is now referenced"


def _sites(stem: str, tree: ast.Module, match) -> list:
    """The qualified name of each function, class or module that holds a
    node `match` accepts, once per such node."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                out.append(".".join([stem] + scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(tree, [])
    return out


def _setattr_sites(stem: str, tree: ast.Module) -> list:
    """Where `object.__setattr__` is read, called or not."""
    return _sites(stem, tree, lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "__setattr__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object")


def _call_sites(stem: str, tree: ast.Module, name: str) -> list:
    """Where `name` is called, as a bare name or as an attribute."""
    def match(node):
        func = node.func if isinstance(node, ast.Call) else None
        return isinstance(func, ast.Name) and func.id == name \
            or isinstance(func, ast.Attribute) and func.attr == name
    return _sites(stem, tree, match)


def _unlisted_setattr(trees: dict) -> list:
    return sorted(site for stem, tree in trees.items() for site in _setattr_sites(stem, tree)
                  if site not in SETATTR_ALLOWED)


def test_object_setattr_only_where_listed():
    trees = {path.stem: _tree(path) for path in MODULES}
    assert _unlisted_setattr(trees) == []
    assert {site for stem, tree in trees.items()
            for site in _setattr_sites(stem, tree)} == SETATTR_ALLOWED


@pytest.mark.parametrize("source", [
    "def clean(panel):\n    object.__setattr__(panel, 'candles', ())\n",
    "class Panel:\n    def sort(self):\n        object.__setattr__(self, 'books', ())\n",
    "setter = object.__setattr__\n",
])
def test_a_planted_object_setattr_fails(source):
    assert _unlisted_setattr({"model": ast.parse(source)}) != []


def _unlisted_calls(trees: dict) -> list:
    return sorted("%s calls %s" % (site, name) for name, allowed in CALLS_ALLOWED.items()
                  for stem, tree in trees.items() for site in _call_sites(stem, tree, name)
                  if site not in allowed)


def test_listed_calls_only_where_listed():
    trees = {path.stem: _tree(path) for path in MODULES}
    assert _unlisted_calls(trees) == []
    for name, allowed in CALLS_ALLOWED.items():
        assert {site for stem, tree in trees.items()
                for site in _call_sites(stem, tree, name)} == allowed, name


@pytest.mark.parametrize("stem, source", [
    ("hypotheses", "def evaluate_h4(series):\n"
                   "    return HypothesisVerdict('H4', (0, 0), True, (), 'confirmed')\n"),
    ("reports", "class Report:\n    def verdict(self):\n"
                "        return hypotheses.HypothesisVerdict('H1', (0, 0), False, (), 'x')\n"),
    ("hypotheses", "def evaluate_h2(series):\n"
                   "    return classify_oi_event([1.0, 2.0], None, series.cfg)\n"),
    ("regime", "EVENT = positioning.classify_oi_event([1.0, 2.0])\n"),
])
def test_a_planted_listed_call_fails(stem, source):
    assert _unlisted_calls({stem: ast.parse(source)}) != []


def _unraised_errors(trees: dict) -> list:
    """Each class of `errors` that no `raise` under src/ names."""
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return sorted(node.name for node in trees["errors"].body
                  if isinstance(node, ast.ClassDef) and node.name not in raised)


def test_every_error_class_is_raised():
    assert _unraised_errors({path.stem: _tree(path) for path in MODULES}) == []


def test_a_planted_unraised_error_fails():
    trees = {path.stem: _tree(path) for path in MODULES}
    trees["errors"].body.append(ast.parse("class StaleError(DataError):\n    pass\n").body[0])
    assert _unraised_errors(trees) == ["StaleError"]
