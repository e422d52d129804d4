"""Every name in the package earns its place: each import is used in its
module, and each module-level function, class or assignment is referenced
somewhere else under `src/`, unless it is listed below with whom it serves.
No module writes past a built value's fields, no module imports
`dataclasses`, only the functions listed below build a hypothesis verdict
or classify an OI window, every error class is raised somewhere, only
`formats.replacing` opens a file for writing, only `formats` reads one,
no `d12` quantizes what is already quantized, and every parameter default
is passed by some call under `src/` or `bench/`."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "rangegov").glob("*.py"))
BENCH = sorted((SRC.parent / "bench").glob("*.py"))

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

# The only functions that may use `object.__setattr__`: a panel or a book
# snapshot setting its own fields as it is built, a snapshot keeping what it
# decoded, and `derive` keeping its memo on a panel. Anywhere else it could
# edit a value after it is built.
SETATTR_ALLOWED = {"model.Panel.__init__", "model.BookSnapshot.__init__",
                   "model.BookSnapshot._keep", "structure.derive"}


def _dataclasses_imports(stem: str, tree: ast.Module) -> list:
    """Where `dataclasses` is imported, in any form."""
    return _sites(stem, tree, lambda node: isinstance(node, ast.Import)
                  and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == "dataclasses")


def test_no_module_imports_dataclasses():
    """A record is a `NamedTuple`, and a panel and a book snapshot are
    `__slots__` classes: `dataclasses` imports `inspect`, which no numpy-free
    command loads otherwise."""
    assert [site for path in MODULES for site in _dataclasses_imports(path.stem, _tree(path))] == []


@pytest.mark.parametrize("source", [
    "import dataclasses\n",
    "from dataclasses import dataclass\n",
    "from dataclasses import replace as _replace\n",
    "import json, dataclasses as dc\n",
    "def build():\n    from dataclasses import make_dataclass\n    return make_dataclass\n",
])
def test_a_planted_dataclasses_import_fails(source):
    assert _dataclasses_imports("ingestion", ast.parse(source)) != []


def test_a_named_tuple_record_passes():
    source = "from typing import NamedTuple\n\n" \
             "class Tick(NamedTuple):\n    time: int\n    price: float = 0.0\n"
    assert _dataclasses_imports("ingestion", ast.parse(source)) == []


# The only functions that may call each name: every verdict is built by one of
# two builders, every OI window is read for rotation by one reader, and each
# read that several reports share is made once per panel, by `derive`'s
# `_compute` (H2 reads rotation over its own pre-break window).
CALLS_ALLOWED = {
    "HypothesisVerdict": {"hypotheses._verdict", "hypotheses._not_evaluable"},
    "classify_oi_event": {"positioning.oi_rotation_event"},
    "boundary_cluster_share": {"structure._compute"},
    "build_funding_state": {"structure._compute"},
    "oi_rotation_event": {"structure._compute", "hypotheses.evaluate_h2"},
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
    ("hypotheses", "def evaluate_h4(series):\n"
                   "    return boundary_cluster_share(series.panel.liquidations, series.range)\n"),
    ("reports", "def cost_report(series):\n"
                "    return build_funding_state(series.panel.funding, series.funding_bias)\n"),
    ("regime", "def assemble_trigger_states(series):\n"
               "    return oi_rotation_event(series.oi_by_bar, series.cfg)\n"),
    ("hypotheses", "def evaluate_h3(series):\n"
                   "    return oi_rotation_event(series.oi_by_bar, series.cfg)\n"),
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


# The one function that may open a file for writing: every file the package
# writes goes through it, so a write that fails leaves the old file in place.
WRITERS_ALLOWED = {"formats.replacing"}


def _write_open_sites(stem: str, tree: ast.Module) -> list:
    """Where `open` (a bare name or an attribute, `os.open` too) is called with
    a mode that may write: one holding w, x, a or +, or one that is not a string
    literal. A call with no mode reads."""
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "open"
                or isinstance(func, ast.Attribute) and func.attr == "open"):
            return False
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg in ("mode", "flags")), None)
        if mode is None:
            return False
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
            or any(c in mode.value for c in "wxa+")
    return _sites(stem, tree, match)


def test_files_are_opened_for_writing_only_in_the_one_writer():
    trees = {path.stem: _tree(path) for path in MODULES}
    assert {site for stem, tree in trees.items()
            for site in _write_open_sites(stem, tree)} == WRITERS_ALLOWED


@pytest.mark.parametrize("source", [
    "def save(path):\n    with open(path, 'w') as fh:\n        fh.write('x')\n",
    "def save(path):\n    open(path, mode='a', encoding='utf-8').write('x')\n",
    "def save(path):\n    open(path, 'x').close()\n",
    "def save(path):\n    open(path, 'r+').write('x')\n",
    "def save(path, mode):\n    open(path, mode).write('x')\n",
    "def save(path):\n    os.close(os.open(path, os.O_WRONLY | os.O_CREAT))\n",
    "class Report:\n    def save(self, path):\n        io.open(path, 'wb').write(b'x')\n",
])
def test_a_planted_write_open_fails(source):
    assert _write_open_sites("cli", ast.parse(source)) != []


@pytest.mark.parametrize("source", [
    "def load(path):\n    return open(path).read()\n",
    "def load(path):\n    return open(path, 'r', encoding='utf-8').read()\n",
    "def load(path):\n    return open(path, mode='rb').read()\n",
])
def test_a_read_open_passes(source):
    assert _write_open_sites("cli", ast.parse(source)) == []


# Every input file is read in `formats`, through `formats._open`, so each path
# a command reads fails the same way. A reader anywhere else is listed here
# with the reason it may read.
READERS_ALLOWED = {
    # a scenario packaged with rangegov, read as a package resource by name,
    # not from a path the user gives
    "synth.load_builtin_scenario",
}


def _read_sites(stem: str, tree: ast.Module) -> list:
    """Where a file is opened (`open`, `os.open`, `io.open`) or read
    (`json.load`, a path's `read_text` or `read_bytes`)."""
    def match(node):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name):
            return func.id == "open"
        return isinstance(func, ast.Attribute) and (
            func.attr in ("open", "read_text", "read_bytes")
            or func.attr == "load" and isinstance(func.value, ast.Name)
            and func.value.id == "json")
    return _sites(stem, tree, match)


def _unlisted_reads(trees: dict) -> list:
    return sorted(site for stem, tree in trees.items() if stem != "formats"
                  for site in _read_sites(stem, tree) if site not in READERS_ALLOWED)


def test_files_are_read_only_in_formats():
    trees = {path.stem: _tree(path) for path in MODULES}
    assert _unlisted_reads(trees) == []
    assert {site for stem, tree in trees.items() if stem != "formats"
            for site in _read_sites(stem, tree)} == READERS_ALLOWED


@pytest.mark.parametrize("stem, source", [
    ("config", "def load(path):\n    with open(path) as fh:\n        return json.load(fh)\n"),
    ("synth", "def load_scenario(path):\n    return json.load(io.open(path))\n"),
    ("cli", "def read(path):\n    return pathlib.Path(path).read_text()\n"),
    ("cli", "CONFIG = json.load(sys.stdin)\n"),
])
def test_a_planted_reader_fails(stem, source):
    assert _unlisted_reads({stem: ast.parse(source)}) != []


# `d12` runs where a number enters and once per threshold per call, so no
# `d12` quantizes another's result, and none quantizes a `Config` threshold
# on every pass of a loop or comprehension.
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _is_d12(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Name) and func.id == "d12" \
        or isinstance(func, ast.Attribute) and func.attr == "d12"


def _repeated(loop) -> list:
    """The parts of a loop or comprehension that run once per pass."""
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        return loop.body
    if isinstance(loop, ast.While):
        return [loop.test, *loop.body]
    first, *rest = loop.generators   # the first iterable is read once
    return [getattr(loop, f) for f in ("elt", "key", "value") if hasattr(loop, f)] \
        + first.ifs + rest


def _requantized(stem: str, tree: ast.Module) -> list:
    """`stem:line` of each `d12` inside another's argument, and of each
    `d12(cfg.<key>)` that a loop or comprehension runs once per pass."""
    out = set()
    for node in ast.walk(tree):
        if _is_d12(node):
            out.update("%s:%d" % (stem, inner.lineno) for arg in node.args
                       for inner in ast.walk(arg) if _is_d12(inner))
        elif isinstance(node, _LOOPS):
            out.update("%s:%d" % (stem, inner.lineno) for part in _repeated(node)
                       for inner in ast.walk(part) if _is_d12(inner)
                       and any(isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
                               and arg.value.id == "cfg" for arg in inner.args))
    return sorted(out)


def test_each_number_is_quantized_once():
    assert [site for path in MODULES for site in _requantized(path.stem, _tree(path))] == []


@pytest.mark.parametrize("source", [
    "def annualize_funding(rate_8h):\n    return d12(d12(rate_8h) * ANNUALIZE_PCT)\n",
    "def cumulative_funding(rates, window):\n"
    "    return d12(sum((d12(r) for r in rates[-window:]), Decimal(0)))\n",
    "def cost_report(records, cfg):\n    for rec in records:\n"
    "        basis_spread(rec.mark_price, rec.index_price, d12(cfg.basis_dislocation_abs))\n",
    "def taps(rates, cfg):\n    return [r * (1 - model.d12(cfg.h4_funding_decline_frac))"
    " for r in rates]\n",
    "def taps(rates, cfg):\n    while rates:\n        rates = rates[1:]\n"
    "        cut = d12(cfg.h4_funding_decline_frac)\n",
])
def test_a_planted_requantization_fails(source):
    assert _requantized("cost", ast.parse(source)) != []


@pytest.mark.parametrize("source", [
    "def cost_report(records, cfg):\n    bound = d12(cfg.basis_dislocation_abs)\n"
    "    for rec in records:\n        basis_spread(rec.mark_price, rec.index_price, bound)\n",
    "def annualize_funding(rate_8h):\n    return d12(rate_8h * ANNUALIZE_PCT)\n",
    "def depth(levels):\n    return [d12(level) for level in levels]\n",
])
def test_a_single_quantization_passes(source):
    assert _requantized("cost", ast.parse(source)) == []


# Parameter defaults no call under src/ or bench/ passes, each kept because
# the call that passes it is one the AST cannot follow
DEFAULTS_PASSED_OUTSIDE = {
    "formats.book_from_line.where",        # `Books` builds each snapshot through `_build`,
    "formats.book_from_line.time",         # which `_decode_books` binds to `book_from_line`
    "formats.read_books.stamps",           # `ingest_manifest` reads each side file through
    "formats.read_oi_csv.stamps",          # its local `side`, which passes its timestamp memo
    "formats.read_liquidations_csv.stamps",
}


def _defaulted(stem: str, tree: ast.Module) -> list:
    """(qualified name, function name, parameter, position or None) of each
    parameter with a default, of each function and non-dunder method. The
    position is where a call passes it by position (a method's leaves out
    `self`); None for a keyword-only parameter."""
    out = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    first = len(positional) - len(args.defaults)
                    skip = in_class and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                                for d in child.decorator_list)
                    named = [(a, i - skip) for i, a in enumerate(positional) if i >= first]
                    named += [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                    out.extend((".".join([stem] + scope + [child.name, a.arg]), child.name,
                                a.arg, at) for a, at in named)
                visit(child, scope + [child.name], False)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], True)
            else:
                visit(child, scope, in_class)

    visit(tree, [], False)
    return out


def _unpassed_defaults(trees: dict, callers: list) -> list:
    """The qualified name of each parameter default of `trees` that no call
    in `callers` to a function of that name passes, by keyword or by position."""
    calls: dict = {}
    for tree in callers:
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                calls.setdefault(name, []).append(node)

    def passed(name, param, at):
        return any(any(kw.arg == param for kw in call.keywords)
                   or at is not None and sum(not isinstance(a, ast.Starred)
                                             for a in call.args) > at
                   for call in calls.get(name, ()))

    return sorted(qualified for stem, tree in trees.items()
                  for qualified, name, param, at in _defaulted(stem, tree)
                  if not passed(name, param, at))


def test_every_parameter_default_is_passed_somewhere():
    trees = {path.stem: _tree(path) for path in MODULES}
    unpassed = _unpassed_defaults(trees, list(trees.values()) + [_tree(p) for p in BENCH])
    assert [name for name in unpassed if name not in DEFAULTS_PASSED_OUTSIDE] == []
    assert sorted(DEFAULTS_PASSED_OUTSIDE) == unpassed, "an allowlisted default is now passed"


@pytest.mark.parametrize("source", [
    "def derive_range(candles, swings, cfg=None, end=None):\n    return end\n\n"
    "RANGE = derive_range([], [], None)\n",
    "class Canvas:\n    def hline(self, y, color='#888'):\n        return color\n\n"
    "def draw(canvas):\n    canvas.hline(0.0)\n",
    "def density(events, *, points=512):\n    return points\n\nGRID = density([], 512)\n",
])
def test_a_planted_unpassed_default_fails(source):
    tree = ast.parse(source)
    assert _unpassed_defaults({"positioning": tree}, [tree]) != []


@pytest.mark.parametrize("source", [
    "def derive_range(candles, swings, cfg=None, end=None):\n    return end\n\n"
    "RANGE = derive_range([], [], None, end=3)\n",
    "class Canvas:\n    def hline(self, y, color='#888'):\n        return color\n\n"
    "def draw(canvas):\n    canvas.hline(0.0, '#000')\n",
    "def density(events, *, points=512):\n    return points\n\nGRID = density([], points=64)\n",
])
def test_a_passed_default_passes(source):
    tree = ast.parse(source)
    assert _unpassed_defaults({"positioning": tree}, [tree]) == []
