"""``src/abtqft`` keeps only what the program runs.

Every module-level function and class that ``src/abtqft`` defines, and every
method and property of its classes other than the ``__dunder__`` ones, must be
referenced by ``src/abtqft`` itself or by ``benchmarks/``; one that only the
tests call belongs in the tests.  A reference is a ``Name`` node, an
``Attribute`` name or an imported name, or a ``module.function`` that
``benchmarks/tracing.py`` wraps or counts.  Docstrings and comments do not
count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "abtqft").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))

#: Module-level names defined in ``src`` and called only by the tests, on
#: purpose.  The bordism layer has no command yet; the names leave this list
#: as one reaches them (``ExtendedBordism`` and its ``fill`` are reached
#: through ``boundary_vector``).  ``from_surgery`` is the paper's ``L -> (T,
#: q)``, which the tests use as the definition that ``from_decomposition``
#: computes.  Methods have no such list.
TEST_ONLY = {
    "hopf_pairing", "twist_phase", "boundary_vector", "solid_torus_bordism",
    "empty_boundary_bordism", "cylinder_bordism", "walker_correct",
    "compose_weights", "closure_weight",
    "from_surgery",
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defined_names():
    names = set()
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                names.add(node.name)
    return names


def defined_methods():
    """``Class.method`` for every non-dunder function in a class body."""
    names = set()
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                names.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, FUNCTIONS)
                             and not (item.name.startswith("__")
                                      and item.name.endswith("__")))
    return names


def traced_names():
    """The function part of every name in ``SPANNED`` and ``COUNTED``."""
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in ("SPANNED", "COUNTED")
                for t in node.targets):
            names.update(dotted.split(".")[1]
                         for dotted in ast.literal_eval(node.value))
    return names


def referenced_names():
    names = traced_names()
    for path in SRC + BENCHMARKS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_src_defines_only_what_src_or_the_benchmark_uses():
    assert defined_names() - referenced_names() == TEST_ONLY


def test_src_methods_are_used_by_src_or_the_benchmark():
    referenced = referenced_names()
    assert {name for name in defined_methods()
            if name.split(".")[1] not in referenced} == set()
