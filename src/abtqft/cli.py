"""Batch command-line surface.

Commands::

    abtqft invariant SOURCE --k K [--side rt|cs|both] [--json]
    abtqft verify {kirby,reciprocity,equivalence,modular,maslov} [options]
    abtqft catalog list|show NAME [--json]
    abtqft phase-table build|show [options]

``SOURCE`` is a catalog name, a path to a presentation JSON file, or an
inline JSON object.  Reports are emitted as JSON with sorted keys, so a
fixed seed and flag set produces byte-identical output; the human-readable
rendering is a formatting layer over the same report structure.

Exit codes: 0 success, 1 verification failure, 2 usage or input error
(including enumeration caps).  The environment variable ``ABTQFT_MAX_ENUM``
overrides the default enumeration cap of 10**7 colorings.

Tolerances default to ``base * sqrt(number_of_summed_terms)`` with base
1e-9; ``--tol`` overrides the base.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Dict, List, Optional, Sequence

from . import compare, extended, surgery
from .catalog import CatalogEntry, builtin_catalog, load_catalog
from .errors import AbtqftError, EnumerationTooLarge, GroupTooLarge
from .intlinalg import IntSymMatrix, rational_rank, signature
from .numeric import approx_to_json, rational_to_json, sum_tolerance
from .surgery import SurgeryPresentation, rt_raw_closed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

VERIFY_SUITES = ("kirby", "reciprocity", "equivalence", "modular", "maslov")


class InputError(Exception):
    """Bad user input: unknown name, malformed JSON, capped enumeration."""


def emit(report: dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Presentation sources

def merged_catalog(catalog_path: Optional[str]) -> Dict[str, CatalogEntry]:
    """The built-in catalog, with the entries of ``catalog_path`` merged in."""
    catalog = builtin_catalog()
    if catalog_path:
        try:
            catalog.update(load_catalog(catalog_path))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise InputError(f"cannot load catalog {catalog_path}: "
                             f"{type(exc).__name__}: {exc}") from exc
    return catalog


def resolve_presentation(source: str, catalog_path: Optional[str]
                         ) -> SurgeryPresentation:
    catalog = merged_catalog(catalog_path)
    if source in catalog:
        return catalog[source].presentation
    text = None
    if source.lstrip().startswith("{"):
        text = source
    elif os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read {source}: {exc}") from exc
    if text is None:
        raise InputError(f"unknown catalog name or file: {source!r}")
    try:
        return SurgeryPresentation.from_json(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"malformed presentation JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# invariant

def cmd_invariant(args) -> int:
    p = resolve_presentation(args.source, args.catalog)
    k = args.k
    if k is None or k < 2 or k % 2:
        raise InputError("--k must be an even integer >= 2")
    L = p.surgery
    # The regular block is congruent to L plus a zero block, so it has the
    # signature of L; its nullity is the corank of L.
    report: Dict[str, object] = {
        "source": args.source,
        "k": k,
        "sigma_reg": signature(L),
        "b1": L.m - rational_rank(L.rows()),
    }
    lines = [f"source       {args.source}",
             f"k            {k}",
             f"sigma(L_reg) {report['sigma_reg']}",
             f"b1           {report['b1']}"]
    rt_value = cs_result = None
    if args.side in ("rt", "both"):
        rt_value = rt_raw_closed(p, k)
        report["rt"] = approx_to_json(rt_value)
        lines.append(f"rt           {rt_value:.12g}")
    if args.side in ("cs", "both"):
        if p.r:
            raise InputError("the torsion-formula side is defined for closed "
                             "presentations without insertions")
        cs_result = compare.cs_closed(L, k)
        report["cs"] = approx_to_json(cs_result.value)
        report["torsion_order"] = cs_result.torsion_order
        report["m_exponent"] = rational_to_json(cs_result.m_exponent)
        lines.append(f"cs           {cs_result.value:.12g}")
        lines.append(f"|T|          {cs_result.torsion_order}")
        lines.append(f"m_M          {cs_result.m_exponent}")
    if args.side == "both":
        if abs(cs_result.value) <= compare.ZERO_GAUSS_TOLERANCE:
            report["ratio"] = None
            report["ratio_skipped"] = "vanishing Gauss sum"
            lines.append("ratio        skipped (vanishing Gauss sum)")
        else:
            ratio = rt_value / cs_result.value
            report["ratio"] = approx_to_json(ratio)
            lines.append(f"ratio        {ratio:.12g}")
    emit(report, args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites

def _suite_kirby(args) -> dict:
    rng = random.Random(args.seed)
    levels = (2, 4, 6, 8)
    deviations: List[float] = []
    margin = 0.0
    worst = None
    failures = 0
    for case in range(args.cases):
        p = surgery.random_presentation(rng, max_components=4, entry_bound=4)
        k = rng.choice(levels)
        before = rt_raw_closed(p, k)
        move = surgery.random_kirby_move(rng, p.m)
        q = surgery.apply_kirby(p, move)
        after = rt_raw_closed(q, k)
        dev = abs(after - before)
        tol = sum_tolerance(k ** max(p.m, q.m), args.tol)
        margin = max(margin, dev / tol)
        if dev > tol:
            failures += 1
            if worst is None:
                worst = {"case": case, "move": move.to_json(),
                         "deviation": dev, "tolerance": tol,
                         "L": p.surgery.to_json(), "k": k}
        deviations.append(dev)
    report = {"suite": "kirby", "seed": args.seed, "cases": args.cases,
              "max_dev": max(deviations, default=0.0), "failures": failures,
              "deviations": deviations, "tolerance_base": args.tol,
              "worst_margin": margin}
    if worst:
        report["first_failure"] = worst
    return report


def _suite_reciprocity(args) -> dict:
    rng = random.Random(args.seed)
    failures = 0
    worst = None
    deviations: List[float] = []
    margin = 0.0
    for case in range(args.cases):
        L = compare.random_nondegenerate(rng, 3, 4)
        r = rng.choice((2, 4, 6))
        chk = compare.verify_reciprocity_dt(L, r)
        dev = abs(chk.lhs - chk.rhs)
        deviations.append(dev)
        tol = sum_tolerance(r ** L.m, args.tol)
        margin = max(margin, dev / tol)
        if dev > tol:
            failures += 1
            worst = worst or {"case": case, "L": L.to_json(), "r": r,
                              "lhs": approx_to_json(chk.lhs),
                              "rhs": approx_to_json(chk.rhs)}
    degenerate_failures = 0
    for case in range(args.cases // 2):
        L = compare.random_degenerate(rng)
        r = rng.choice((2, 4))
        chk = compare.verify_reciprocity_degenerate(L, r, "full_nullity")
        dev = abs(chk.lhs - chk.rhs)
        deviations.append(dev)
        tol = sum_tolerance(r ** L.m, args.tol)
        margin = max(margin, dev / tol)
        if dev > tol:
            degenerate_failures += 1
    # The half-kernel normalization is expected to fail on [[0]], r = 2;
    # reproducing that mismatch is part of the check.
    half = compare.verify_reciprocity_degenerate(
        IntSymMatrix.from_rows([[0]]), 2, "paper_half")
    report = {"suite": "reciprocity", "seed": args.seed, "cases": args.cases,
              "max_dev": max(deviations, default=0.0),
              "deviations": deviations,
              "degenerate_failures": degenerate_failures,
              "tolerance_base": args.tol, "worst_margin": margin,
              "paper_half_zero_matrix": {
                  "lhs": approx_to_json(half.lhs),
                  "rhs": approx_to_json(half.rhs),
                  "mismatch_reproduced": not half.ok}}
    if worst:
        report["first_failure"] = worst
    report["failures"] = failures + degenerate_failures \
        + (0 if not half.ok else 1)
    return report


def _suite_equivalence(args) -> dict:
    if args.corpus != "default":
        raise InputError(f"unknown corpus {args.corpus!r}")
    corpus = compare.default_corpus(seed=args.seed, size=args.cases)
    deviations = [abs(abs(case.ratio) - 1.0) for case in corpus
                  if case.ratio is not None]
    table = compare.build_phase_table(corpus)
    fixture = compare.load_fixture_table()
    phases_match = table.same_phases(fixture)
    report = {"suite": "equivalence", "seed": args.seed,
              "cases": len(corpus), "max_dev": table.max_deviation,
              "skipped": table.skipped,
              "deviations": deviations,
              "table": table.to_json()["sigma_mod_8"],
              "fixture_match": phases_match,
              "failures": 0 if phases_match else 1}
    return report


def _suite_modular(args) -> dict:
    failures = 0
    max_dev = 0.0
    details = {}
    levels = range(2, args.kmax + 1, 2)
    if levels and levels[-1] > extended.ANOMALY_LEVEL_CAP:
        raise InputError(f"--kmax {args.kmax} exceeds the anomaly-check cap "
                         f"k = {extended.ANOMALY_LEVEL_CAP}")
    for k in levels:
        chk = extended.anomaly_check(k)
        conj_dev = extended.charge_conjugation_deviation(k)
        dev = max(chk.max_entry_deviation, conj_dev,
                  abs(chk.phase - extended.ANOMALY_PHASE))
        max_dev = max(max_dev, dev)
        ok = chk.ok and conj_dev <= 1e-10
        details[str(k)] = {"phase": approx_to_json(chk.phase), "dev": dev,
                           "ok": ok}
        if not ok:
            failures += 1
    return {"suite": "modular", "kmax": args.kmax, "max_dev": max_dev,
            "failures": failures, "levels": details}


def _suite_maslov(args) -> dict:
    rng = random.Random(args.seed)
    failures = 0
    for case in range(args.cases):
        g = rng.choice((1, 2, 3))
        f = [extended.random_lagrangian(rng, g) for _ in range(4)]
        m123 = extended.maslov_index(f[0], f[1], f[2])
        ok = (extended.maslov_index(f[2], f[1], f[0]) == -m123
              and extended.maslov_index(f[1], f[2], f[0]) == m123
              and extended.maslov_index(f[0], f[0], f[1]) == 0
              and m123 - extended.maslov_index(f[0], f[1], f[3])
              + extended.maslov_index(f[0], f[2], f[3])
              - extended.maslov_index(f[1], f[2], f[3]) == 0)
        if not ok:
            failures += 1
    return {"suite": "maslov", "seed": args.seed, "cases": args.cases,
            "failures": failures}


def cmd_verify(args) -> int:
    suite_fn = {"kirby": _suite_kirby, "reciprocity": _suite_reciprocity,
                "equivalence": _suite_equivalence, "modular": _suite_modular,
                "maslov": _suite_maslov}[args.suite]
    report = suite_fn(args)
    passed = report.get("failures", 0) == 0
    report["pass"] = passed
    lines = [f"suite {args.suite}: {'PASS' if passed else 'FAIL'}"]
    if "max_dev" in report:
        lines.append(f"max deviation {report['max_dev']:.3e}")
    if "worst_margin" in report:
        lines.append(f"worst margin  {report['worst_margin']:.3e} "
                     f"(deviation / ({report['tolerance_base']:g} * sqrt(#terms)))")
    if not passed and "first_failure" in report:
        lines.append(f"first failure: {json.dumps(report['first_failure'], sort_keys=True)}")
    emit(report, args.json, lines)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# catalog / phase-table

def cmd_catalog(args) -> int:
    catalog = merged_catalog(args.catalog)
    if args.action == "list":
        report = {"entries": [{"name": e.name, "note": e.note}
                              for e in catalog.values()]}
        emit(report, args.json,
             [f"{e.name:12s} {e.note}" for e in catalog.values()])
        return EXIT_OK
    if not args.name:
        raise InputError("catalog show requires a name")
    entry = catalog.get(args.name)
    if entry is None:
        raise InputError(f"unknown catalog entry {args.name!r}")
    report = entry.to_json()
    emit(report, args.json, [json.dumps(report, sort_keys=True, indent=2)])
    return EXIT_OK


def cmd_phase_table(args) -> int:
    if args.action == "show":
        table = compare.load_fixture_table()
        report = table.to_json()
        emit(report, True, [])
        return EXIT_OK
    corpus = compare.default_corpus(seed=args.seed, size=args.cases)
    table = compare.build_phase_table(corpus)
    payload = json.dumps(table.to_json(), sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abtqft",
        description="surgery invariants, reciprocity checks, and phase tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="evaluate one presentation")
    p_inv.add_argument("source", help="catalog name, JSON file, or inline JSON")
    p_inv.add_argument("--k", type=int, required=True, help="even level >= 2")
    p_inv.add_argument("--side", choices=("rt", "cs", "both"), default="both")
    p_inv.add_argument("--catalog", help="extra catalog.json to merge")
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(fn=cmd_invariant)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=VERIFY_SUITES)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--cases", type=int, default=None,
                       help="number of cases, at least 1; the equivalence "
                            "corpus always includes the classic and E8 pairs")
    p_ver.add_argument("--kmax", type=int, default=16)
    p_ver.add_argument("--tol", type=float, default=1e-9,
                       help="base tolerance, scaled by sqrt(#terms)")
    p_ver.add_argument("--corpus", default="default",
                       help="corpus selector for the equivalence suite")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(fn=cmd_verify)

    p_cat = sub.add_parser("catalog", help="list or show catalog entries")
    p_cat.add_argument("action", choices=("list", "show"))
    p_cat.add_argument("name", nargs="?")
    p_cat.add_argument("--catalog", help="extra catalog.json to merge")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(fn=cmd_catalog)

    p_tab = sub.add_parser("phase-table", help="build or show the phase table")
    p_tab.add_argument("action", choices=("build", "show"))
    p_tab.add_argument("--seed", type=int, default=0)
    p_tab.add_argument("--cases", type=int, default=300,
                       help="corpus size, at least 1; the corpus always "
                            "includes the classic and E8 pairs")
    p_tab.add_argument("--out", help="write the table to this path")
    p_tab.set_defaults(fn=cmd_phase_table)

    return parser


_SUITE_CASE_DEFAULTS = {"kirby": 500, "reciprocity": 200, "equivalence": 300,
                        "maslov": 100, "modular": 0}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "cases", None) is not None and args.cases < 1:
            raise InputError(f"--cases must be at least 1, got {args.cases}")
        if getattr(args, "cases", None) is None and hasattr(args, "suite"):
            args.cases = _SUITE_CASE_DEFAULTS[args.suite]
        return args.fn(args)
    except (InputError, EnumerationTooLarge, GroupTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AbtqftError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
