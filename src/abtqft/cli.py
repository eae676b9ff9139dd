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
(including enumeration caps), 141 (128 + SIGPIPE) when the reader closes
standard output before the report is written, with nothing on standard
error.  The environment variable ``ABTQFT_MAX_ENUM``
overrides the default enumeration cap of 10**7 colorings.

Each ``verify`` suite takes only the options of its :data:`SUITE_OPTIONS`
row and exits 2 on any other.  Tolerances default to ``base *
sqrt(number_of_summed_terms)`` with base 1e-9; ``--tol`` overrides the base
with a positive finite number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from typing import Dict, List, Optional, Sequence

from . import compare, extended, surgery
from .catalog import CatalogEntry, builtin_catalog, load_catalog
from .errors import AbtqftError, EnumerationTooLarge, GroupTooLarge
from .intlinalg import IntSymMatrix, rank, signature
from .numeric import approx_to_json, rational_to_json, sum_tolerance
from .quadmod import check_level
from .surgery import SurgeryPresentation, rt_raw_closed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 128 + 13  # the shell's status for a death by SIGPIPE

#: The options each ``verify`` suite reads, with their defaults.  ``main``
#: fills in the defaults; any other option exits 2.
SUITE_OPTIONS = {
    "kirby": {"seed": 0, "cases": 500, "tol": 1e-9},
    "reciprocity": {"seed": 0, "cases": 200, "tol": 1e-9},
    "equivalence": {"seed": 0, "cases": 300},
    "modular": {"kmax": 16},
    "maslov": {"seed": 0, "cases": 100},
}

#: Largest ``--cases`` of every ``verify`` suite and of ``phase-table
#: build``.  The suites stream their cases in blocks, but a report keeps one
#: deviation per case, and a count without a bound runs for hours.
MAX_CASES = 10 ** 5

#: Most cases a ``verify`` suite or the equivalence corpus draws, then
#: evaluates as one batch, so that no run holds all its cases at once.
BLOCK = 500


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
    try:
        check_level(k)
    except ValueError:
        raise InputError("--k must be an even integer >= 2") from None
    if args.side != "rt" and p.r:
        raise InputError("the torsion-formula side is defined for closed "
                         "presentations without insertions")
    L = p.surgery
    # The sides come first, so a refused cap costs no extra elimination.
    rt_value = cs_result = None
    if args.side == "both":
        _, rt_value, cs_result, ratio = compare.both_routes([(L, k)])[0]
    elif args.side == "rt":
        rt_value = rt_raw_closed(p, k)
    else:
        cs_result = compare.cs_closed(L, k)
    # The regular block is congruent to L plus a zero block, so it has the
    # signature of L; its nullity is the corank of L.  Both come from the
    # one elimination that L keeps.
    report: Dict[str, object] = {
        "source": args.source,
        "k": k,
        "sigma_reg": signature(L),
        "b1": L.m - rank(L),
    }
    lines = [f"source       {args.source}",
             f"k            {k}",
             f"sigma(L_reg) {report['sigma_reg']}",
             f"b1           {report['b1']}"]
    if rt_value is not None:
        report["rt"] = approx_to_json(rt_value)
        lines.append(f"rt           {rt_value:.12g}")
    if cs_result is not None:
        report["cs"] = approx_to_json(cs_result.value)
        report["torsion_order"] = cs_result.torsion_order
        report["m_exponent"] = rational_to_json(cs_result.m_exponent)
        lines.append(f"cs           {cs_result.value:.12g}")
        lines.append(f"|T|          {cs_result.torsion_order}")
        lines.append(f"m_M          {cs_result.m_exponent}")
    if args.side == "both":
        if ratio is None:
            report["ratio"] = None
            report["ratio_skipped"] = "vanishing Gauss sum"
            lines.append("ratio        skipped (vanishing Gauss sum)")
        else:
            report["ratio"] = approx_to_json(ratio)
            lines.append(f"ratio        {ratio:.12g}")
    emit(report, args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites

def _fold_blocks(report: dict, total: int, draw, check) -> dict:
    """Draw ``total`` cases by ``draw(case)`` in blocks of at most
    :data:`BLOCK`, check each block as one batch, and fold it into
    ``report``.  ``check(block)`` gives per case its deviation, tolerance
    and failure: ``None``, or the report key of the count it adds to and
    its ``first_failure`` fields (``None`` if it is never reported)."""
    deviations: List[float] = []
    margin = 0.0
    for start in range(0, total, BLOCK):
        block = [draw(case) for case in range(start, min(start + BLOCK, total))]
        for case, (dev, tol, failure) in enumerate(check(block), start):
            deviations.append(dev)
            margin = max(margin, dev / tol)
            if failure:
                count, fields = failure
                report[count] += 1
                if fields and "first_failure" not in report:
                    report["first_failure"] = {"case": case, **fields}
    report.update(max_dev=max(deviations, default=0.0),
                  deviations=deviations, worst_margin=margin)
    return report


def _suite_kirby(args) -> dict:
    rng = random.Random(args.seed)

    def draw(case):
        p = surgery.random_presentation(rng, max_components=4, entry_bound=4)
        k = rng.choice((2, 4, 6, 8))
        move = surgery.random_kirby_move(rng, p.m)
        return p, k, move, surgery.apply_kirby(p, move)

    def check(block):
        values = surgery.rt_raw_closed_many(
            [pair for p, k, _, q in block for pair in ((p, k), (q, k))])
        for (p, k, move, q), before, after in zip(block, values[::2],
                                                  values[1::2]):
            dev = abs(after - before)
            tol = sum_tolerance(k ** max(p.m, q.m), args.tol)
            yield dev, tol, None if dev <= tol else ("failures", {
                "move": move.to_json(), "deviation": dev, "tolerance": tol,
                "L": p.surgery.to_json(), "k": k})

    report = {"suite": "kirby", "seed": args.seed, "cases": args.cases,
              "failures": 0, "tolerance_base": args.tol}
    return _fold_blocks(report, args.cases, draw, check)


def _suite_reciprocity(args) -> dict:
    rng = random.Random(args.seed)

    # The nondegenerate draws come first, then (cases + 1) // 2 degenerate
    # ones; only a nondegenerate failure is reported as first_failure.
    def draw(case):
        if case >= args.cases:
            return compare.random_degenerate(rng), rng.choice((2, 4)), True
        return (compare.random_nondegenerate(rng, 3, 4),
                rng.choice((2, 4, 6)), False)

    def check(block):
        checks = compare.verify_reciprocity_dt_many(
            [(L, r) for L, r, _ in block], tolerance_base=args.tol)
        for (L, r, degenerate), chk in zip(block, checks):
            failure = None
            if not chk.ok:
                failure = ("degenerate_failures", None) if degenerate else (
                    "failures", {"L": L.to_json(), "r": r,
                                 "lhs": approx_to_json(chk.lhs),
                                 "rhs": approx_to_json(chk.rhs)})
            yield abs(chk.lhs - chk.rhs), chk.tolerance, failure

    report = {"suite": "reciprocity", "seed": args.seed, "cases": args.cases,
              "failures": 0, "degenerate_failures": 0,
              "tolerance_base": args.tol}
    _fold_blocks(report, args.cases + (args.cases + 1) // 2, draw, check)
    # The half-kernel normalization is expected to fail on [[0]], r = 2;
    # reproducing that mismatch is part of the check.
    half = compare.verify_reciprocity_dt(
        IntSymMatrix.from_rows([[0]]), 2, "paper_half")
    report["paper_half_zero_matrix"] = {
        "lhs": approx_to_json(half.lhs), "rhs": approx_to_json(half.rhs),
        "mismatch_reproduced": not half.ok}
    report["failures"] += report["degenerate_failures"] + int(half.ok)
    return report


def _suite_equivalence(args) -> dict:
    deviations: List[float] = []

    def recorded(corpus):
        for case in corpus:
            deviations.append(abs(abs(case.ratio) - 1.0))
            yield case
    table = compare.build_phase_table(recorded(compare.default_corpus(
        seed=args.seed, size=args.cases, block=BLOCK)))
    phases_match = table.same_phases(compare.load_fixture_table())
    return {"suite": "equivalence", "seed": args.seed,
            "cases": table.corpus_size, "max_dev": table.max_deviation,
            "skipped": 0, "deviations": deviations,
            "table": table.to_json()["sigma_mod_8"],
            "fixture_match": phases_match,
            "failures": 0 if phases_match else 1}


def _suite_modular(args) -> dict:
    failures = 0
    max_dev = 0.0
    details = {}
    if args.kmax < 2:
        raise InputError(f"--kmax must be at least 2, got {args.kmax}")
    levels = range(2, args.kmax + 1, 2)
    if levels[-1] > extended.ANOMALY_LEVEL_CAP:
        raise InputError(f"--kmax {args.kmax} exceeds the anomaly-check cap "
                         f"k = {extended.ANOMALY_LEVEL_CAP}")
    for k in levels:
        chk = extended.anomaly_check(k)
        dev = max(chk.max_entry_deviation, chk.conjugation_deviation,
                  abs(chk.phase - extended.ANOMALY_PHASE))
        max_dev = max(max_dev, dev)
        details[str(k)] = {"phase": approx_to_json(chk.phase), "dev": dev,
                           "ok": chk.ok}
        if not chk.ok:
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
    table = compare.build_phase_table(compare.default_corpus(
        seed=args.seed, size=args.cases, block=BLOCK))
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

    p_ver = sub.add_parser("verify", help="run a verification suite",
                           description="Each suite takes only the options "
                                       "it reads; any other exits 2.")
    p_ver.add_argument("suite", choices=tuple(SUITE_OPTIONS))
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--cases", type=int,
                       help=f"number of cases, 1 to {MAX_CASES}; the "
                            "equivalence corpus always includes the classic "
                            "and E8 pairs")
    p_ver.add_argument("--kmax", type=int, help="highest level checked")
    p_ver.add_argument("--tol", type=float,
                       help="base tolerance, scaled by sqrt(#terms)")
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
                       help=f"corpus size, 1 to {MAX_CASES}; the corpus "
                            "always includes the classic and E8 pairs")
    p_tab.add_argument("--out", help="write the table to this path")
    p_tab.set_defaults(fn=cmd_phase_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            options = SUITE_OPTIONS[args.suite]
            for name in ("seed", "cases", "kmax", "tol"):
                if getattr(args, name) is None:
                    setattr(args, name, options.get(name))
                elif name not in options:
                    raise InputError(
                        f"verify {args.suite} does not take --{name}")
        cases = getattr(args, "cases", None)
        if cases is not None and cases < 1:
            raise InputError(f"--cases must be at least 1, got {cases}")
        if cases is not None and cases > MAX_CASES:
            raise InputError(f"--cases must be at most {MAX_CASES}, got {cases}")
        if getattr(args, "tol", None) is not None and not (
                math.isfinite(args.tol) and args.tol > 0):
            raise InputError("--tol must be a positive finite number, "
                             f"got {args.tol}")
        code = args.fn(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to the null
        # device, so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (InputError, EnumerationTooLarge, GroupTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AbtqftError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
