"""Reachability: every function in ``pleatlab`` is entered by some entry point.

The entry points are every CLI command (``sweep`` through a ``--config``
file, ``verify-suite`` in full) and ``lengthmap.solve_targets`` on one
target of each kind.  A ``def`` they never enter is library code that
only its own unit tests reach.
"""

import ast
import sys
from pathlib import Path

from click.testing import CliRunner

import pleatlab
from pleatlab import lengthmap
from pleatlab.cli import main

PACKAGE = Path(pleatlab.__file__).resolve().parent

TARGETS = (
    {"a": ("angle", 2.0), "b": ("angle", 2.2)},
    {"a": ("length", 1.1), "b": ("angle", 2.2)},
    {"a": ("length", 1.3), "b": ("length", 0.9)},
)


def _defs():
    """``(file, first line) -> qualified name`` of every function and
    method, nested ones included.  A code object's first line is that of
    its first decorator."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = name
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path)
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


def test_every_function_is_reached(tmp_path):
    _clear_caches()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        _run_entry_points(tmp_path)
    finally:
        sys.setprofile(None)
    entered = {(str(Path(name).resolve()), line) for name, line in entered}
    missed = sorted(name for key, name in _defs().items() if key not in entered)
    assert missed == [], "never entered: " + ", ".join(missed)
