"""The benchmark's use of the library: every ``pleatlab`` name that the
code under ``perfbench/`` reads exists.

The benchmark runs from its own directory against ``src/`` and no test
imports it, so a library name it calls that was deleted or renamed would
only show when the benchmark runs.  This test parses its files with
``ast`` and resolves every name they import from ``pleatlab`` and every
attribute they read on a name an import bound to ``pleatlab``, in the
same function or an enclosing one.  Text inside strings (span names,
code run in a subprocess) is not read.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _scope_nodes(scope):
    """The nodes of ``scope``'s own body, and no node of a scope nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _is_pleatlab(module):
    return module is not None and module.split(".")[0] == "pleatlab"


def _reads(tree):
    """``(dotted path, name)`` of every name ``tree`` takes from pleatlab:
    each name a ``from pleatlab... import`` takes, and each attribute
    read on a name bound to a pleatlab object.  A name that a scope binds
    otherwise (assignment, another import) is not pleatlab's there,
    unless that scope also imports it from pleatlab."""
    reads = set()

    def visit(scope, visible):
        nodes = list(_scope_nodes(scope))
        bound = dict(visible)
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.pop(node.id, None)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.pop(alias.asname or alias.name.split(".")[0], None)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound.pop(alias.asname or alias.name, None)
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_pleatlab(alias.name):
                        name = alias.asname or "pleatlab"
                        bound[name] = alias.name if alias.asname else "pleatlab"
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_pleatlab(node.module):
                for alias in node.names:
                    reads.add((node.module, alias.name))
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in bound:
                    reads.add((bound[node.value.id], node.attr))
            elif isinstance(node, _SCOPES):
                visit(node, bound)

    visit(tree, {})
    return reads


def _exists(path, name):
    """Whether ``path.name`` resolves, importing submodules on the way."""
    obj = importlib.import_module("pleatlab")
    for part in [*path.split(".")[1:], name]:
        if not hasattr(obj, part):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except (AttributeError, ImportError):
                return False
        obj = getattr(obj, part)
    return True


def test_reads_follow_scopes_and_skip_strings():
    code = '''
from pleatlab import chartor
SPANS = ("chartor.gone",)

def local():
    from pleatlab import suite
    return suite.CRITERIA, chartor.coords

def shadowed():
    chartor = object()
    return chartor.anything, suite.run
'''
    assert _reads(ast.parse(code)) == {
        ("pleatlab", "chartor"),
        ("pleatlab", "suite"),
        ("pleatlab.suite", "CRITERIA"),
        ("pleatlab.chartor", "coords"),
    }
    assert _exists("pleatlab.chartor", "pleating_candidates")
    assert not _exists("pleatlab.chartor", "gone")
    assert not _exists("pleatlab", "gone")


def test_every_pleatlab_name_the_benchmark_reads_exists():
    reads = {
        (path.name, *ref)
        for path in sorted(PERFBENCH.glob("*.py"))
        for ref in _reads(ast.parse(path.read_text()))
    }
    attributes = {(p, n) for _, p, n in reads if p != "pleatlab"}
    assert attributes, "found no pleatlab attribute read in perfbench/"
    missing = sorted(f"{file}: {p}.{n}" for file, p, n in reads if not _exists(p, n))
    assert missing == [], "perfbench reads missing names: " + ", ".join(missing)
