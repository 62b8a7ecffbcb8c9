"""Reachability: every function in ``pleatlab`` is entered, and every
defaulted parameter is both varied and left at its default, by some
entry point.

The entry points are every CLI command (``sweep`` through a ``--config``
file, ``verify-suite`` in full, at a second ``--seed`` and filtered) and
``lengthmap.solve_targets`` on one target of each kind.  A ``def`` they
never enter is library code that only its own unit tests reach; a
parameter they only ever pass its default is a setting no user can
change, and belongs in a named constant; a default they never use is a
second copy of a setting that every caller already states, and the
parameter should be required.

The same AST walk checks that every module-level UPPER_CASE constant of
``pleatlab`` is read by some library module or by the benchmark under
``perfbench/`` (which reads ``kernel.IMPLEMENTATION``): a constant that
only the tests read sets nothing; and that the test-only packages stay
in the tests: no module of ``pleatlab`` imports mpmath or hypothesis, and
no test file but ``oracle.py`` imports mpmath.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import pleatlab
from pleatlab import lengthmap
from pleatlab.cli import main

PACKAGE = Path(pleatlab.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TARGETS = (
    {"a": ("angle", 2.0), "b": ("angle", 2.2)},
    {"a": ("length", 1.1), "b": ("angle", 2.2)},
    {"a": ("length", 1.3), "b": ("length", 0.9)},
)


def _defs():
    """``(file, first line) -> (qualified name, defaults)`` of every
    function and method, nested ones included.  A code object's first
    line is that of its first decorator, and its file is its module's
    ``__file__``.  ``defaults`` lists ``(parameter, default value)``, each
    default evaluated in its module's namespace."""
    found = {}

    def visit(node, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    args = child.args
                    positional = args.posonlyargs + args.args
                    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                    defaults = [
                        (a.arg, eval(compile(ast.Expression(d), module.__file__, "eval"), vars(module)))
                        for a, d in pairs
                    ]
                    found[module.__file__, first] = name, defaults
                visit(child, name, module)
            else:
                visit(child, prefix, module)

    for path in sorted(PACKAGE.glob("*.py")):
        stem = path.stem
        module = importlib.import_module("pleatlab" if stem == "__init__" else f"pleatlab.{stem}")
        visit(ast.parse(path.read_text()), stem, module)
    return found


def _run_entry_points(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("grid = 2.1:2.2:0.1,2.1:2.2:0.1\nforce = false\n")
    commands = [
        ("--config", str(config), "sweep"),
        ("certify", "2.2", "2.2"),
        ("trace-ray", "--samples", "2", "--substeps", "2"),
        ("volume", "--start", "2.1,2.1", "--end", "2.5,2.4", "--nodes", "8"),
        ("double", "2.2", "2.2"),
        ("jacobian", "2.2", "2.2"),
        ("verify-suite", "--out", str(tmp_path / "suite.json")),
        ("--seed", "1", "verify-suite"),
        ("verify-suite", "--filter", "grid"),
    ]
    for args in commands:
        result = CliRunner().invoke(main, list(args))
        assert result.exit_code == 0, (args, result.output)
    for targets in TARGETS:
        lengthmap.solve_targets(targets)


def _clear_caches():
    """Empty every memoized function, so that calls made before this test
    do not stand in for calls made by the entry points."""
    for name, module in list(sys.modules.items()):
        if name != "pleatlab" and not name.startswith("pleatlab."):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _is_default(value, default):
    """Whether a call passed a parameter its default value.  An array
    compares elementwise and counts as a different value."""
    try:
        return value is default or bool(value == default)
    except (TypeError, ValueError):
        return False


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """One profiled run of the entry points: the definitions, the
    ``(file, first line)`` of every code object entered, and the
    ``(file, first line, parameter)`` of every default some call
    changed, and of every default some call received."""
    defs = _defs()
    defaulted = {key: params for key, (_, params) in defs.items() if params}
    entered = set()
    varied = set()
    used = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        key = code.co_filename, code.co_firstlineno
        entered.add(key)
        for param, default in defaulted.get(key, ()):
            (used if _is_default(frame.f_locals[param], default) else varied).add((*key, param))

    _clear_caches()
    sys.setprofile(profile)
    try:
        _run_entry_points(tmp_path_factory.mktemp("reach"))
    finally:
        sys.setprofile(None)
    return defs, entered, varied, used


def test_every_function_is_reached(reach):
    defs, entered, _, _ = reach
    missed = sorted(name for key, (name, _) in defs.items() if key not in entered)
    assert missed == [], "never entered: " + ", ".join(missed)


def _defaults_missing_from(defs, seen):
    """``name:parameter`` of every default whose key is not in ``seen``."""
    return sorted(
        f"{name}:{param}"
        for key, (name, params) in defs.items()
        for param, _ in params
        if (*key, param) not in seen
    )


def test_every_default_is_varied(reach):
    defs, _, varied, _ = reach
    fixed = _defaults_missing_from(defs, varied)
    assert fixed == [], f"{len(fixed)} parameters only ever take their default: " + ", ".join(fixed)


def test_every_default_is_used(reach):
    defs, _, _, used = reach
    unused = _defaults_missing_from(defs, used)
    assert unused == [], f"{len(unused)} defaults no call ever takes: " + ", ".join(unused)


def _imported(path):
    """The top-level package of every import in the file at ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return {name.split(".")[0] for name in names}


def test_test_only_packages_stay_in_the_tests():
    library = {path.name: _imported(path) & {"mpmath", "hypothesis"}
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in library.items() if found} == {}
    tests = Path(__file__).resolve().parent
    importers = [path.name for path in sorted(tests.glob("*.py")) if "mpmath" in _imported(path)]
    assert importers == ["oracle.py"]


def _read_names(path):
    """Every name the file at ``path`` loads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_constant_is_read():
    constants = [
        (path.stem, target.id)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
    ]
    readers = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    read = set().union(*map(_read_names, readers))
    unread = [f"{module}.{name}" for module, name in constants if name not in read]
    assert unread == [], "read by no library module or benchmark: " + ", ".join(unread)
