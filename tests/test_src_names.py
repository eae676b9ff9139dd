"""``src/abtqft`` keeps only what the program runs.

Every module-level function and class that ``src/abtqft`` defines, and every
method and property of its classes other than the ``__dunder__`` ones, must be
referenced by ``src/abtqft`` itself or by ``benchmarks/``; one that only the
tests call belongs in the tests.  A reference to a module-level name is a
``Name`` node, an ``Attribute`` name or an imported name, or a
``module.function`` that ``benchmarks/tracing.py`` wraps or counts.  A
method or property is referenced only by an ``Attribute`` name (``x.name``):
a local variable of the same name does not call it.  Docstrings and comments
do not count.

The guard matches an attribute by its name alone, not by the type of the
object it is read from, so a method is missed when another type's attribute
has its name: ``set.add`` or ``self.elements`` anywhere in ``src/abtqft`` or
``benchmarks/`` counts as a reference to every method called ``add`` or
``elements``.  In the same way ``FiniteQuadraticModule.linking`` stays
counted as used through the ``linking`` fields of ``SurgeryPresentation``
and ``ExtendedBordism`` (``p.linking``, ``self.linking``), even if its one
``src`` caller, the test-only ``hopf_pairing``, left ``src``; its sibling
``FiniteQuadraticModule.q`` is read only by the test-only ``twist_phase``,
and the guard would flag it once that function left.
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


def references():
    """``(names, attributes)`` of ``src/abtqft`` and ``benchmarks/``: every
    ``Name`` id, imported name and traced function, and every ``Attribute``
    name."""
    names, attributes = traced_names(), set()
    for path in SRC + BENCHMARKS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attributes


def test_src_defines_only_what_src_or_the_benchmark_uses():
    names, attributes = references()
    assert defined_names() - names - attributes == TEST_ONLY


def test_src_methods_are_used_by_src_or_the_benchmark():
    _, attributes = references()
    assert {name for name in defined_methods()
            if name.split(".")[1] not in attributes} == set()
