"""Source hygiene: every module compiles without warnings, keeps to the
public names of the others, reads no environment variable, and defines no
top-level function, class or assigned name that nothing reads; the package
re-exports each module's public names once."""

import ast
import importlib
import pathlib
import warnings

import pytest

import critspec

SOURCES = sorted(pathlib.Path(critspec.__file__).parent.glob("*.py"))
MODULES = {p.stem for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    # invalid escapes such as "\i" in a non-raw docstring warn at compile time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def test_top_level_exports_each_module_name_once():
    # cli is the front end; every other module's public names are the package's
    expected = ["__version__"]
    for stem in sorted(MODULES - {"__init__", "cli"}):
        expected += importlib.import_module(f"critspec.{stem}").__all__
    assert sorted(critspec.__all__) == sorted(expected)
    assert len(set(critspec.__all__)) == len(critspec.__all__)
    assert [name for name in critspec.__all__ if not hasattr(critspec, name)] == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source):
    """Private names a module takes from other critspec modules.

    Catches `from .mod import _name` and `mod._name` on a sibling module
    imported by name (`from . import mod`).
    """
    tree = ast.parse(source)
    found, siblings = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("critspec")):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module in (None, "critspec") and alias.name in MODULES:
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_no_private_names(path):
    assert private_imports(path.read_text()) == []


def test_private_import_check_catches_both_spellings():
    src = ("from .quadrature import _helper, integrate\n"
           "from . import collapse\n"
           "from . import __version__\n"
           "pts = collapse._builder\n")
    assert private_imports(src) == ["quadrature._helper", "collapse._builder"]


def environment_reads(source):
    """Places a module reads the process environment: os.environ, os.getenv.

    Catches the attribute spelling (`os.environ`, `os.getenv(...)`) and the
    imported one (`from os import environ, getenv`).
    """
    names = {"environ", "getenv"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in names):
            found.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{a.name}" for a in node.names if a.name in names]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    # every setting comes from the command line or the config file
    assert environment_reads(path.read_text()) == []


def test_environment_check_catches_both_spellings():
    src = ("import os\n"
           "from os import getenv\n"
           "n = os.environ.get('N')\n"
           "m = os.getenv('M')\n")
    assert sorted(environment_reads(src)) == ["os.environ", "os.getenv", "os.getenv"]


def top_level_definitions(source):
    """Names of the functions, classes and assigned names a module defines
    at top level; dunder names such as __all__ are the interpreter's."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and not n.id.startswith("__")]
    return names


def references(source):
    """Names a module loads, bare (`f`) or as an attribute (`mod.f`).

    Imports, and so re-exports, are not uses, nor are the strings of
    `__all__`; a top-level function or class naming itself in its own body
    does not use itself.
    """
    used = set()
    for stmt in ast.parse(source).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt)
                 if isinstance(node, (ast.Name, ast.Attribute))
                 and isinstance(node.ctx, ast.Load)}
        names.discard(getattr(stmt, "name", None))
        used |= names
    return used


def unreferenced(modules, others):
    """module.name for each top-level function, class or assigned name of
    modules (stem -> source) that neither modules nor the sources in others
    reference."""
    used = set().union(*map(references, [*modules.values(), *others]))
    return [f"{stem}.{name}" for stem, source in modules.items()
            for name in top_level_definitions(source) if name not in used]


def test_every_top_level_name_has_a_caller():
    # code left without a caller in src/, tests/ or bench/ gets deleted
    root = pathlib.Path(__file__).resolve().parents[1]
    others = [p.read_text() for folder in ("tests", "bench")
              for p in sorted((root / folder).glob("*.py"))]
    assert unreferenced({p.stem: p.read_text() for p in SOURCES}, others) == []


def test_unreferenced_check_ignores_own_body_all_and_reexports():
    module = ("__all__ = ['called', 'recursive', 'exported', 'Built']\n"
              "def called(): return Built()\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def exported(): pass\n"
              "class Built:\n"
              "    def copy(self): return Built()\n")
    init = "from .mod import called, recursive, exported, Built\n"
    caller = "from critspec import mod\nmod.called()\n"
    assert unreferenced({"mod": module, "__init__": init}, [caller]) == \
        ["mod.recursive", "mod.exported"]


def test_unreferenced_check_catches_assignments():
    module = ("__all__ = ['Alias', 'LIMIT']\n"
              "LIMIT = 4\n"
              "Alias = int | float\n"
              "_lo, _hi = 0.0, 1.0\n"
              "_scale: float = 2.0\n"
              "def clip(x): return min(max(x, _lo), LIMIT) * _scale\n")
    caller = "from critspec.mod import clip\nclip(3)\n"
    assert unreferenced({"mod": module}, [caller]) == ["mod.Alias", "mod._hi"]


MODEL_CLASSES = {"ModelA", "ModelB", "DiffusiveO3", "TfimQC"}


def model_dispatches(stem, source):
    """stem.name of the top-level function or class around each isinstance
    that names a sample-model class, bare or as an attribute (stem alone at
    module level)."""
    found = []
    for stmt in ast.parse(source).body:
        where = f"{stem}.{stmt.name}" if hasattr(stmt, "name") else stem
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.args[1])
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if names & MODEL_CLASSES:
                    found.append(where)
    return found


def test_only_the_mode_law_and_the_tables_dispatch_on_the_model_class():
    # each family states its law once; the asymptotic formula tables are
    # per-family by nature
    allowed = {"models._mode_law", "asymptotics.table1_classical",
               "asymptotics.table1_quantum"}
    found = {w for p in SOURCES for w in model_dispatches(p.stem, p.read_text())}
    assert sorted(found - allowed) == []


def test_model_dispatch_check_catches_both_spellings():
    src = ("def law(m):\n"
           "    return isinstance(m, ModelA)\n"
           "class Rate:\n"
           "    def of(self, m):\n"
           "        return isinstance(m, (int, models.TfimQC))\n"
           "ok = isinstance(x, O3Regime)\n"
           "bad = isinstance(x, DiffusiveO3)\n")
    assert model_dispatches("mod", src) == ["mod.law", "mod.Rate", "mod"]


def tight_approx_without_abs(source):
    """Lines of pytest.approx calls (or a bare approx) with a literal
    rel <= 1e-12 and no abs.  approx's default abs=1e-12 would then decide
    every check on a value below about 1, so a tight rel means nothing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Attribute) and node.func.attr == "approx")
                or (isinstance(node.func, ast.Name) and node.func.id == "approx"))):
            continue
        kw = {k.arg: k.value for k in node.keywords}
        try:
            rel = ast.literal_eval(kw["rel"]) if "rel" in kw else None
        except ValueError:
            continue
        if rel is not None and rel <= 1e-12 and "abs" not in kw:
            found.append(node.lineno)
    return found


def test_tight_approx_checks_state_abs():
    hits = [f"{p.name}:{line}" for p in sorted(pathlib.Path(__file__).parent.glob("*.py"))
            for line in tight_approx_without_abs(p.read_text())]
    assert hits == []


def test_tight_approx_check_catches_both_spellings():
    src = ("a = pytest.approx(1.0, rel=1e-13)\n"
           "b = approx(2.0, rel=1e-12)\n"
           "c = pytest.approx(3.0, rel=1e-13, abs=0)\n"
           "d = pytest.approx(4.0, rel=1e-9)\n"
           "e = pytest.approx(5.0, rel=tol)\n")
    assert tight_approx_without_abs(src) == [1, 2]


def silent_handlers(source):
    """Lines of the exception handlers whose whole body is a bare pass.
    Such a handler hides every failure it catches, where the failure should
    reach the CLI's exit-code mapping or be handled in the open."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler)
            and len(node.body) == 1 and isinstance(node.body[0], ast.Pass)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_exception_handler_is_a_bare_pass(path):
    assert silent_handlers(path.read_text()) == []


def test_silent_handler_check_catches_a_bare_pass_only():
    src = ("try:\n    f()\nexcept ValueError:\n    pass\n"
           "try:\n    g()\nexcept (KeyError, OSError) as e:\n    pass\n"
           "try:\n    h()\nexcept ValueError:\n    x = None\n"
           "try:\n    k()\nexcept OSError:\n    pass\n    raise\n"
           "def m():\n    try:\n        n()\n    except ZeroDivisionError:\n        pass\n")
    assert silent_handlers(src) == [3, 7, 21]
