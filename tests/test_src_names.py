"""``src/abtqft`` keeps only what the program runs.

Every module-level function and class that ``src/abtqft`` defines must be
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

#: Defined in ``src`` and called only by the tests, on purpose.  The
#: bordism layer has no command yet; the names leave this list as one
#: reaches them.  ``from_surgery`` is the paper's ``L -> (T, q)``, which the
#: tests use as the definition that ``from_decomposition`` computes.
TEST_ONLY = {
    "hopf_pairing", "twist_phase", "boundary_vector", "solid_torus_bordism",
    "empty_boundary_bordism", "cylinder_bordism", "walker_correct",
    "compose_weights", "closure_weight",
    "from_surgery",
}


def defined_names():
    names = set()
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
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
