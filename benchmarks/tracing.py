"""Spans and work counters recorded around the public functions of abtqft.

The program itself is not instrumented.  :func:`install` replaces each
target function, in every ``abtqft`` module namespace that binds it, with a
wrapper that records a span ``[name, start, end, parent, op]``.  Modules
such as ``cli``, ``compare`` and ``quadmod`` import these functions by name,
so patching only the defining module would miss their calls.

Work counters are computed here from each call's arguments or result, never
read from the program:

* ``quadmod.gauss_sum.elements``: ``|T|`` from ``module.order``
* ``surgery.quadratic_exponential_sum.terms``: ``k**m`` from ``(rows, k)``
* ``intlinalg.smith_normal_form.max_bits``: largest bit length in the
  returned ``U``, ``D`` and ``V``
* ``compare.cs_closed.useful_ratio``: distinct ``(L, k, convention)`` keys
  divided by calls
* ``numeric.unit_phase_eval.calls``: counted, not timed, because it runs
  once per torsion element
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

#: Functions that get a span, as ``module.function`` under ``abtqft``.
SPANNED = (
    "quadmod.gauss_sum",
    "quadmod.from_regular_block",
    "compare.cs_closed",
    "compare.verify_reciprocity_dt",
    "surgery.quadratic_exponential_sum",
    "surgery.rt_raw_closed",
    "intlinalg.smith_normal_form",
    "intlinalg.regular_decomposition",
    "intlinalg.cokernel",
    "intlinalg.signature",
    "intlinalg.solve_rational",
    "extended.maslov_index",
    "extended.random_lagrangian",
    "extended.anomaly_check",
    "extended.charge_conjugation_deviation",
)

#: Functions that are only counted.
COUNTED = ("numeric.unit_phase_eval",)

#: The per-layer metrics reported, in BENCHMARK.json order.
REPORTED = (
    "quadmod.gauss_sum.calls", "quadmod.gauss_sum.self_s",
    "quadmod.gauss_sum.elements", "quadmod.gauss_sum.ns_per_element",
    "quadmod.from_regular_block.calls", "quadmod.from_regular_block.self_s",
    "compare.cs_closed.calls", "compare.cs_closed.useful_ratio",
    "numeric.unit_phase_eval.calls",
    "surgery.quadratic_exponential_sum.calls",
    "surgery.quadratic_exponential_sum.self_s",
    "surgery.quadratic_exponential_sum.terms",
    "surgery.quadratic_exponential_sum.ns_per_term",
    "surgery.rt_raw_closed.self_s",
    "intlinalg.smith_normal_form.calls", "intlinalg.smith_normal_form.self_s",
    "intlinalg.smith_normal_form.max_bits",
    "intlinalg.regular_decomposition.calls",
    "intlinalg.regular_decomposition.self_s",
    "intlinalg.cokernel.self_s",
    "intlinalg.signature.calls", "intlinalg.signature.self_s",
    "intlinalg.solve_rational.calls", "intlinalg.solve_rational.self_s",
    "compare.verify_reciprocity_dt.self_s",
    "extended.maslov_index.calls", "extended.maslov_index.self_s",
    "extended.random_lagrangian.self_s", "extended.anomaly_check.self_s",
    "extended.charge_conjugation_deviation.self_s",
    "cli.self_s",
)


def _max_bits(matrices) -> int:
    return max((abs(x).bit_length() for mat in matrices for row in mat
                for x in row), default=0)


class Tracer:
    """In-memory span store for one traced pass; :meth:`reset` between passes."""

    def __init__(self) -> None:
        self.op = -1
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self._open = []
        self.elements = 0
        self.terms = 0
        self.counted = defaultdict(int)
        self.max_bits = 0
        self.cs_keys = set()

    def _spanned(self, name: str, fn):
        before = after = None
        if name == "quadmod.gauss_sum":
            def before(args, kwargs):
                self.elements += args[0].order
        elif name == "surgery.quadratic_exponential_sum":
            def before(args, kwargs):
                self.terms += args[1] ** len(args[0])
        elif name == "compare.cs_closed":
            sig = inspect.signature(fn)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.cs_keys.add(repr(tuple(bound.arguments.values())))
        elif name == "intlinalg.smith_normal_form":
            def after(result):
                self.max_bits = max(self.max_bits, _max_bits(result))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            record = [name, 0.0, 0.0,
                      self._open[-1] if self._open else -1, self.op]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counted[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``abtqft`` namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "abtqft" or n.startswith("abtqft.")]
        wrappers = [(name, self._spanned) for name in SPANNED] + \
                   [(name, self._counted) for name in COUNTED]
        for name, make in wrappers:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules.get("abtqft." + mod_name), fn_name,
                               None)
            if original is None:
                continue  # a layer the program no longer has reports 0
            wrapper = make(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def metrics(self, pass_wall_s: float) -> dict:
        """Per-layer metrics of the pass just traced."""
        child = [0.0] * len(self.spans)
        top_level = 0.0
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top_level += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]

        out = {}
        for name in SPANNED:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        for name in COUNTED:
            out[name + ".calls"] = self.counted[name]
        out["quadmod.gauss_sum.elements"] = self.elements
        out["surgery.quadratic_exponential_sum.terms"] = self.terms
        out["quadmod.gauss_sum.ns_per_element"] = \
            1e9 * self_s["quadmod.gauss_sum"] / max(self.elements, 1)
        out["surgery.quadratic_exponential_sum.ns_per_term"] = \
            1e9 * self_s["surgery.quadratic_exponential_sum"] / max(self.terms, 1)
        out["intlinalg.smith_normal_form.max_bits"] = self.max_bits
        cs_calls = calls["compare.cs_closed"]
        out["compare.cs_closed.useful_ratio"] = \
            len(self.cs_keys) / max(cs_calls, 1)
        out["cli.self_s"] = pass_wall_s - top_level
        return {name: out[name] for name in REPORTED}
