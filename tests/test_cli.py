import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import abtqft
from abtqft import cli, compare, intlinalg, surgery
from abtqft.cli import main
from abtqft.numeric import sum_tolerance
from abtqft.surgery import SurgeryPresentation, rt_raw_closed, rt_raw_closed_many
from test_compare import sequential_corpus_pairs

#: The ``src`` directory holding ``abtqft``, for interpreters started here.
SRC = os.path.dirname(os.path.dirname(abtqft.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_invariant_sphere_both_sides(capsys):
    code, report, _ = run_json(capsys, "invariant", "S3", "--k", "4",
                               "--side", "both", "--json")
    assert code == 0
    assert report["rt"] == pytest.approx([0.5, 0.0])
    assert report["cs"] == pytest.approx([0.5, 0.0])
    assert report["ratio"] == pytest.approx([1.0, 0.0])
    assert report["b1"] == 0


def test_invariant_zero_framing_cs_side(capsys):
    code, report, _ = run_json(capsys, "invariant", "S1xS2", "--k", "2",
                               "--side", "cs", "--json")
    assert code == 0
    assert report["cs"] == pytest.approx([1.0, 0.0])
    assert report["b1"] == 1
    assert "rt" not in report


def test_invariant_vanishing_ratio_skipped(capsys):
    code, report, _ = run_json(capsys, "invariant", "L2_1", "--k", "2",
                               "--side", "both", "--json")
    assert code == 0
    assert abs(complex(*report["rt"])) < 1e-10
    assert abs(complex(*report["cs"])) < 1e-10
    assert report["ratio"] is None
    assert report["ratio_skipped"]


@pytest.mark.parametrize("side", ["cs", "both"])
def test_invariant_refuses_insertions_before_any_coloring_sum(
        capsys, monkeypatch, side):
    # The both side once paid for its whole coloring sum before it refused.
    def refuse(cases):
        raise AssertionError("a coloring sum ran")
    for name, module in list(sys.modules.items()):
        if name.startswith("abtqft") \
                and getattr(module, "coloring_sums", None) is surgery.coloring_sums:
            monkeypatch.setattr(module, "coloring_sums", refuse)
    source = '{"L": [[1]], "B": [[1]], "C": [[0]], "h": [1]}'
    result = run(capsys, "invariant", source, "--k", "2", "--side", side)
    assert result == (2, "", "error: the torsion-formula side is defined for "
                             "closed presentations without insertions\n")


def test_invariant_inline_json(capsys):
    code, report, _ = run_json(capsys, "invariant", '{"L": [[3]]}', "--k", "2",
                               "--side", "rt", "--json")
    assert code == 0
    assert abs(complex(*report["rt"]) - (-1j / math.sqrt(2))) < 1e-10


def test_invariant_unknown_name_is_usage_error(capsys):
    code, out, err = run(capsys, "invariant", "NOPE", "--k", "4")
    assert code == 2
    assert "unknown" in err


def test_invariant_odd_level_is_usage_error(capsys):
    code, _, err = run(capsys, "invariant", "S3", "--k", "3")
    assert code == 2


@pytest.mark.parametrize("k", ["0", "1", "3", "-2", "-4"])
def test_invariant_level_message_is_the_contract(capsys, k):
    # The rule is quadmod.check_level's; the message is the CLI's.
    code, out, err = run(capsys, "invariant", "S3", "--k", k)
    assert (code, out, err) == (2, "", "error: --k must be an even integer >= 2\n")


def test_invariant_cap_exceeded_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ABTQFT_MAX_ENUM", "2")
    code, _, err = run(capsys, "invariant", "E8", "--k", "4", "--side", "rt")
    assert code == 2
    assert "cap" in err


def test_invariant_unparsable_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ABTQFT_MAX_ENUM", "abc")
    code, out, err = run(capsys, "invariant", "S3", "--k", "2")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ABTQFT_MAX_ENUM" in err


def test_verify_modular_above_level_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "modular", "--kmax", "66")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "64" in err


@pytest.mark.parametrize("kmax", ["1", "0", "-4"])
def test_verify_modular_below_first_level_is_usage_error(capsys, kmax):
    # no even level would be checked, so PASS would assert nothing
    code, out, err = run(capsys, "verify", "modular", f"--kmax={kmax}")
    assert_one_line_usage_error(code, out, err)
    assert "--kmax" in err


def test_verify_modular(capsys):
    code, report, _ = run_json(capsys, "verify", "modular", "--kmax", "8",
                               "--json")
    assert code == 0
    assert report["pass"] is True
    assert set(report["levels"]) == {"2", "4", "6", "8"}


def test_verify_kirby_seeded(capsys):
    code, report, _ = run_json(capsys, "verify", "kirby", "--seed", "7",
                               "--cases", "60", "--json")
    assert code == 0
    assert report["pass"] is True
    assert report["max_dev"] < 1e-7


def test_verify_maslov(capsys):
    code, report, _ = run_json(capsys, "verify", "maslov", "--cases", "15",
                               "--seed", "2", "--json")
    assert code == 0 and report["pass"] is True


def test_verify_reciprocity_reports_half_mode_mismatch(capsys):
    code, report, _ = run_json(capsys, "verify", "reciprocity", "--cases",
                               "30", "--seed", "1", "--json")
    assert code == 0
    assert report["pass"] is True
    assert report["paper_half_zero_matrix"]["mismatch_reproduced"] is True
    assert report["paper_half_zero_matrix"]["lhs"] == pytest.approx([2.0, 0.0])
    assert report["paper_half_zero_matrix"]["rhs"] == pytest.approx(
        [math.sqrt(2), 0.0])


@pytest.mark.parametrize("suite", ["kirby", "reciprocity"])
def test_verify_reports_tolerance_base_and_worst_margin(capsys, suite):
    args = ("verify", suite, "--seed", "3", "--cases", "20", "--json")
    code, report, _ = run_json(capsys, *args)
    assert code == 0 and report["pass"] is True
    assert report["tolerance_base"] == 1e-9
    assert 0 < report["worst_margin"] <= 1
    # The margin is deviation / tolerance: a base 1e21 times smaller makes
    # it 1e21 times larger, and the suite fails.
    code, tight, _ = run_json(capsys, *args, "--tol", "1e-30")
    assert code == 1 and tight["pass"] is False
    assert tight["tolerance_base"] == 1e-30
    assert tight["worst_margin"] == pytest.approx(report["worst_margin"] * 1e21)


def kirby_report_reference(seed, cases, tol=1e-9):
    """``verify kirby --json`` built from one :func:`rt_raw_closed` call per
    side of each case, drawn and evaluated one case at a time."""
    rng = random.Random(seed)
    deviations, margin, failures = [], 0.0, 0
    for _ in range(cases):
        p = surgery.random_presentation(rng, max_components=4, entry_bound=4)
        k = rng.choice((2, 4, 6, 8))
        before = rt_raw_closed(p, k)
        move = surgery.random_kirby_move(rng, p.m)
        q = surgery.apply_kirby(p, move)
        dev = abs(rt_raw_closed(q, k) - before)
        budget = sum_tolerance(k ** max(p.m, q.m), tol)
        margin = max(margin, dev / budget)
        failures += dev > budget
        deviations.append(dev)
    return {"suite": "kirby", "seed": seed, "cases": cases,
            "max_dev": max(deviations), "failures": failures,
            "deviations": deviations, "tolerance_base": tol,
            "worst_margin": margin, "pass": failures == 0}


def test_verify_kirby_report_equals_one_call_per_case(capsys):
    # More cases than one block, so the last block is a partial one.
    cases = cli.BLOCK + 30
    code, report, _ = run_json(capsys, "verify", "kirby", "--seed", "3",
                               "--cases", str(cases), "--json")
    assert code == 0
    assert report == kirby_report_reference(3, cases)


def reciprocity_report_reference(seed, cases, tol=1e-9):
    """``verify reciprocity --json`` with every case drawn first and all of
    them checked in one batch."""
    rng = random.Random(seed)
    drawn = [(compare.random_nondegenerate(rng, 3, 4), rng.choice((2, 4, 6)))
             for _ in range(cases)]
    drawn += [(compare.random_degenerate(rng), rng.choice((2, 4)))
              for _ in range((cases + 1) // 2)]
    checks = compare.verify_reciprocity_dt_many(drawn)
    deviations = [abs(chk.lhs - chk.rhs) for chk in checks]
    budgets = [sum_tolerance(r ** L.m, tol) for L, r in drawn]
    failed = [dev > budget for dev, budget in zip(deviations, budgets)]
    half = compare.verify_reciprocity_dt(intlinalg.IntSymMatrix.from_rows([[0]]),
                                         2, "paper_half")
    failures = sum(failed) + half.ok
    report = {"suite": "reciprocity", "seed": seed, "cases": cases,
              "max_dev": max(deviations), "deviations": deviations,
              "degenerate_failures": sum(failed[cases:]),
              "tolerance_base": tol,
              "worst_margin": max(d / b for d, b in zip(deviations, budgets)),
              "paper_half_zero_matrix": {
                  "lhs": [half.lhs.real, half.lhs.imag],
                  "rhs": [half.rhs.real, half.rhs.imag],
                  "mismatch_reproduced": not half.ok},
              "failures": failures, "pass": failures == 0}
    if any(failed[:cases]):
        case = failed.index(True)
        (L, r), chk = drawn[case], checks[case]
        report["first_failure"] = {
            "case": case, "L": L.to_json(), "r": r,
            "lhs": [chk.lhs.real, chk.lhs.imag],
            "rhs": [chk.rhs.real, chk.rhs.imag]}
    return report


@pytest.mark.parametrize("seed, tol", [(4, 1e-9), (4, 1e-30), (32, 1.1e-15)])
def test_verify_reciprocity_report_equals_one_batch(capsys, seed, tol):
    # One block and 30 cases more: the second block holds the last 30
    # nondegenerate cases and every degenerate one.  At 1e-30 every case
    # fails; at seed 32 and 1.1e-15 the first failure is case 516, in the
    # second block.
    cases = cli.BLOCK + 30
    want = reciprocity_report_reference(seed, cases, tol)
    code, report, _ = run_json(capsys, "verify", "reciprocity", "--seed",
                               str(seed), "--cases", str(cases), "--tol",
                               str(tol), "--json")
    assert (code, report) == (0 if want["pass"] else 1, want)
    if seed == 32:
        assert report["first_failure"]["case"] == 516


def equivalence_cases_reference(seed, size):
    """The corpus drawn one candidate at a time, its usable pairs then
    evaluated on both routes in one batch."""
    pairs = sequential_corpus_pairs(seed, size)
    rts = rt_raw_closed_many([(SurgeryPresentation(L), k) for L, k in pairs])
    return [compare.EquivalenceCase(L, k, intlinalg.signature(L), rt / cs.value)
            for (L, k), rt, cs in zip(pairs, rts, compare.cs_closed_many(pairs))]


def test_verify_equivalence_and_phase_table_equal_one_batch(capsys):
    cases = cli.BLOCK + 30
    reference = equivalence_cases_reference(2, cases)
    table = compare.build_phase_table(reference)
    code, report, _ = run_json(capsys, "verify", "equivalence", "--seed", "2",
                               "--cases", str(cases), "--json")
    assert code == 0
    assert report == {
        "suite": "equivalence", "seed": 2, "cases": cases,
        "max_dev": table.max_deviation, "skipped": 0,
        "deviations": [abs(abs(case.ratio) - 1.0) for case in reference],
        "table": table.to_json()["sigma_mod_8"], "fixture_match": True,
        "failures": 0, "pass": True}
    code, built, _ = run_json(capsys, "phase-table", "build", "--seed", "2",
                              "--cases", str(cases))
    assert (code, built) == (0, table.to_json())


#: A child interpreter that runs ``abtqft.cli.main`` on its arguments with
#: standard output discarded, then prints the exit code and its own peak
#: resident set (``VmHWM``, in kB).
PEAK_RSS_CHILD = """import contextlib, os, re, sys, abtqft.cli
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    code = abtqft.cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(code, re.search(r"VmHWM:\\s+(\\d+) kB", status.read())[1])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
@pytest.mark.parametrize("suite", ["reciprocity", "equivalence"])
def test_peak_memory_does_not_grow_with_the_case_count(suite):
    # The suites stream their cases in blocks; only the deviations of the
    # report grow.  Drawing every case first grew the peak by 24-26 MB.
    peaks = []
    for cases in (2000, 20000):
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_CHILD, "verify", suite,
             "--cases", str(cases), "--json"], capture_output=True, text=True,
            timeout=300, env=dict(os.environ, PYTHONPATH=SRC))
        code, peak_kb = proc.stdout.split()
        assert (code, proc.stderr) == ("0", "")
        peaks.append(int(peak_kb))
    assert peaks[1] - peaks[0] <= 8 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
def test_one_point_sum_at_the_largest_level_builds_no_root_table(capsys):
    # S3 at k = 9999998 sums one point at modulus 2k: its one root comes
    # from the formula, not from a table of 2k entries (340 MB of peak
    # resident set when it was built), and the report keeps its bytes.
    argv = ("invariant", "S3", "--k", "9999998", "--side", "rt")
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    code, peak_kb = proc.stdout.split()
    assert (code, proc.stderr) == ("0", "")
    assert int(peak_kb) < 100 * 1024
    assert run(capsys, *argv) == (0, "source       S3\nk            9999998\n"
                                     "sigma(L_reg) 0\nb1           0\n"
                                     "rt           0.00031622779764+0j\n", "")


def test_verify_kirby_cap_message_names_the_first_refused_case(capsys,
                                                               monkeypatch):
    # Case 0 of seed 0 is a 4x4 at k = 4; case 7 is a 3x3 at k = 8, whose
    # 8^3 colorings exceed the cap too but come later.
    monkeypatch.setenv("ABTQFT_MAX_ENUM", "64")
    code, out, err = run(capsys, "verify", "kirby", "--seed", "0")
    assert (code, out) == (2, "")
    assert err == "error: 4^4 colorings exceed the enumeration cap 64\n"


def test_verify_reciprocity_cap_message(capsys, monkeypatch):
    # The left sides go through the same capped coloring sum as every other
    # brute-force evaluation; seed 0 reaches a 3x3 at r = 6 first.
    monkeypatch.setenv("ABTQFT_MAX_ENUM", "64")
    code, out, err = run(capsys, "verify", "reciprocity", "--seed", "0")
    assert (code, out) == (2, "")
    assert err == "error: 6^3 colorings exceed the enumeration cap 64\n"


@pytest.mark.parametrize("k, code, err", [
    ("64", 0, ""),
    ("66", 2, "error: level 66 exceeds the enumeration cap 64\n"),
])
def test_invariant_empty_presentation_level_is_capped(capsys, monkeypatch,
                                                      k, code, err):
    # S3 has no coloring to enumerate, but its sum still builds a root table
    # of 2k entries, so the level itself is held to the cap
    monkeypatch.setenv("ABTQFT_MAX_ENUM", "64")
    result = run(capsys, "invariant", "S3", "--k", k, "--side", "rt")
    assert (result[0], result[2]) == (code, err)


def test_invariant_huge_level_exits_2_without_allocating(capsys, monkeypatch):
    monkeypatch.delenv("ABTQFT_MAX_ENUM", raising=False)
    code, out, err = run(capsys, "invariant", "S3", "--k", "1000000000",
                         "--side", "rt")
    assert (code, out) == (2, "")
    assert err == "error: level 1000000000 exceeds the enumeration cap 10000000\n"


@pytest.mark.parametrize("cases, degenerate", [(1, 1), (2, 1), (3, 2)])
def test_verify_reciprocity_checks_a_degenerate_matrix_at_every_count(
        capsys, cases, degenerate):
    # --cases 1 once ran no degenerate check and still reported
    # "degenerate_failures": 0
    code, report, _ = run_json(capsys, "verify", "reciprocity", "--seed", "1",
                               "--cases", str(cases), "--json")
    assert code == 0 and report["pass"] is True
    assert len(report["deviations"]) == cases + degenerate


def test_closed_stdout_exits_141_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "abtqft.cli", "verify", "modular", "--kmax",
         "3", "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC))
    proc.stdout.close()  # before the interpreter has started writing
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


#: Commands with their exit codes and the modules among numpy and sympy
#: they load.  Only an exponential sum the kernel enumerates or a modular
#: matrix loads numpy, after its level and cap checks, so neither a command
#: that runs none nor a refusal loads it; a torsion Gauss sum on a cyclic
#: group is a closed form and loads none, one on ``Z/2 + Z/2`` does.  sympy
#: is for the tests alone.  The benchmark's set-up time is a fresh
#: interpreter running ``catalog list``.  The last command runs a coloring
#: sum, so the others show where the boundary is, not that numpy is
#: missing.
IMPORT_BOUNDARY = [
    (("catalog", "list"), 0, []),
    (("catalog", "show", "E8", "--json"), 0, []),
    (("phase-table", "show"), 0, []),
    (("verify", "maslov", "--cases", "3"), 0, []),
    (("invariant", "E8", "--k", "8", "--side", "rt"), 2, []),
    (("verify", "kirby", "--cases", "0"), 2, []),
    (("invariant", "L5_1", "--k", "4", "--side", "cs"), 0, []),
    (("invariant", '{"L": [[2, 0], [0, 2]]}', "--k", "4", "--side", "cs"),
     0, ["numpy"]),
    (("invariant", "S3", "--k", "4"), 0, ["numpy"]),
]


@pytest.mark.parametrize("argv, code, loaded", IMPORT_BOUNDARY, ids=[
    "catalog-list", "catalog-show", "phase-table-show", "verify-maslov",
    "cap-refusal", "usage-error", "cyclic-torsion-sum",
    "non-cyclic-torsion-sum", "sum"])
def test_only_an_exponential_sum_loads_numpy(argv, code, loaded):
    script = ("import contextlib, io, sys, abtqft.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()), \\\n"
              "        contextlib.redirect_stderr(io.StringIO()):\n"
              f"    code = abtqft.cli.main({list(argv)!r})\n"
              "print(code, sorted({'numpy', 'sympy'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ABTQFT_MAX_ENUM", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (0, f"{code} {loaded}\n", "")


def test_verify_equivalence_matches_fixture(capsys):
    code, report, _ = run_json(capsys, "verify", "equivalence", "--cases",
                               "120", "--json")
    assert code == 0
    assert report["fixture_match"] is True
    assert report["max_dev"] < 1e-7


def test_reports_are_byte_identical_for_fixed_seed(capsys):
    _, first, _ = run(capsys, "verify", "kirby", "--seed", "5", "--cases",
                      "40", "--json")
    _, second, _ = run(capsys, "verify", "kirby", "--seed", "5", "--cases",
                       "40", "--json")
    assert first == second


#: SHA-256 of the stdout of fixed commands: a change to the kernel, the
#: presentation builders or the draws that moves one bit of a report
#: changes its hash.  ``invariant E8 --k 8`` (8^8 colorings) exits 2 above
#: the default cap and prints nothing.
GOLDEN_STDOUT = [
    *((("verify", "kirby", "--seed", str(seed), "--cases", "400", "--json"),
       0, digest) for seed, digest in enumerate((
           "6723c79e0e4b2392bf176df451aba46b02cf8646a45f003c9ab8ef314bc35ef5",
           "5b6717f6e19daa42812bd3c96be0220f693ccba9bd6a612c239f77c36446b7fb",
           "a24edda53c145237973d4ece55ad70f3109d80e9ead45e0a279901144e82e9b8",
           "0e9fcfd0b7354e6d71124218d8def703a5c8f7a0e7a36c453a73b0ecf6a9fc72",
           "cba8ba51f4af5591374dc2b775dac393ba01e1a820b8a24e349ad1d1a4ca0eb5"),
           start=5)),
    (("verify", "kirby", "--json"), 0,
     "471fa1bb87276df2d6dddad1e484c607e3eb8695bc0668b2666254e6aac3cdae"),
    (("invariant", "E8", "--k", "6", "--side", "rt", "--json"), 0,
     "3231ad9d8d76cbaf5bda34e2e240f180c88315f22a88dea3ec5272f681b46778"),
    (("invariant", "E8", "--k", "8", "--side", "rt", "--json"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("verify", "equivalence", "--seed", "0", "--json"), 0,
     "2bdd7b25729bc0c82f4e8eb33c2eb422235278b3cae84758724956d4e84e56dc"),
    (("verify", "reciprocity", "--seed", "1", "--json"), 0,
     "715b3a84c666149184e7bdf8dca0991a469e6f770bfff0930308a439f70d581a"),
    # The torsion route: a degenerate L with T = Z/2 + Z/6 on both sides, and
    # a 3x3 L with |T| = 6004 alone, the shape of the benchmark's torsion
    # operations.
    (("invariant", '{"L": [[2, 4, 2], [4, 2, -2], [2, -2, -4]]}', "--k", "4",
      "--side", "both", "--json"), 0,
     "2454864dc4888d6fa8656b1529f38a2ffbb7f86c109ab5b2b8289888aff9590e"),
    (("invariant", '{"L": [[18, -24, -8], [-24, 13, 17], [-8, 17, 19]]}',
      "--k", "4", "--side", "cs", "--json"), 0,
     "1de172b2616f72be00f43e8a036358ebc1519b2f9247ec85ce8c54916c161175"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN_STDOUT,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN_STDOUT])
def test_reports_keep_their_recorded_bytes(capsys, monkeypatch, argv, code,
                                           digest):
    monkeypatch.delenv("ABTQFT_MAX_ENUM", raising=False)
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_catalog_list_and_show(capsys):
    code, report, _ = run_json(capsys, "catalog", "list", "--json")
    assert code == 0
    names = {e["name"] for e in report["entries"]}
    assert {"S3", "S1xS2", "L2_1", "E8"} <= names
    code, entry, _ = run_json(capsys, "catalog", "show", "S1xS2", "--json")
    assert code == 0
    assert entry["presentation"]["L"] == [[0]]


def test_catalog_show_unknown_is_usage_error(capsys):
    code, _, err = run(capsys, "catalog", "show", "NOPE")
    assert code == 2


def test_phase_table_build_and_show(capsys, tmp_path):
    out = tmp_path / "table.json"
    code, _, _ = run(capsys, "phase-table", "build", "--cases", "60",
                     "--out", str(out))
    assert code == 0
    built = json.loads(out.read_text())
    assert set(built["sigma_mod_8"].values()) == {"0/1"}
    code, shown, _ = run_json(capsys, "phase-table", "show")
    assert code == 0
    assert set(shown["sigma_mod_8"]) == {str(s) for s in range(8)}


#: The fifth draw of ``random_symmetric_matrix(random.Random(1), m, 4)`` for
#: m = 4..8 (det -594600), whose Smith form once did not finish.
PINNED_8X8 = [[3, -4, 3, -4, 0, 2, -2, -2],
              [-4, 4, -1, -4, -1, 4, 4, -1],
              [3, -1, 2, 4, 1, 1, 3, 0],
              [-4, -4, 4, 4, -4, 2, 4, -2],
              [0, -1, 1, -4, 4, 4, -1, 2],
              [2, 4, 1, 2, 4, -4, 3, 1],
              [-2, 4, 3, 4, -1, 3, 4, -1],
              [-2, -1, 0, -2, 2, 1, -1, 4]]


def test_invariant_pinned_8x8_both_sides(capsys, time_limit):
    code, report, _ = run_json(capsys, "invariant",
                               json.dumps({"L": PINNED_8X8}), "--k", "2",
                               "--side", "both", "--json")
    assert code == 0
    rows = np.array(PINNED_8X8)
    eig = np.linalg.eigvalsh(rows.astype(float))
    sigma = int((eig > 1e-9).sum() - (eig < -1e-9).sum())
    colorings = np.array(list(itertools.product(range(2), repeat=8)))
    q = np.einsum("ij,jk,ik->i", colorings, rows, colorings)
    want = 2 ** -4.5 * np.exp(-1j * np.pi * sigma / 4) \
        * np.exp(1j * np.pi * (q % 4) / 2).sum()
    tol = sum_tolerance(2 ** 8)
    assert (report["b1"], report["sigma_reg"]) == (0, sigma)
    assert report["torsion_order"] == 594600
    assert abs(complex(*report["rt"]) - want) <= tol
    assert abs(complex(*report["cs"]) - want) <= tol


@pytest.mark.parametrize("argv, calls, eliminations", [
    # A corpus block holds one instance of each of its distinct matrices,
    # so each is eliminated once per block, when the brute-force prefactor
    # of its first pair reads the signature; its group check, its Smith
    # form and the usable pairs read what it keeps.  Seed 0 meets its 253
    # distinct matrices 264 times over its five blocks.
    (("verify", "equivalence", "--seed", "0"), 678, 264),
    (("invariant", "E8", "--k", "2", "--side", "both"), 2, 1),
])
def test_one_signature_elimination_per_matrix(capsys, monkeypatch, argv,
                                              calls, eliminations):
    # The report and the brute-force prefactor share the signature that
    # the matrix keeps after its first elimination.
    counts, real = Counter(), intlinalg.signature

    def counted(L):
        counts["calls"] += 1
        counts["eliminations"] += getattr(L, "_signature", None) is None
        return real(L)
    for name, module in list(sys.modules.items()):
        if name.startswith("abtqft") and getattr(module, "signature", None) is real:
            monkeypatch.setattr(module, "signature", counted)
    assert run(capsys, *argv)[0] == 0
    assert counts == {"calls": calls, "eliminations": eliminations}


def write_draw(path, m):
    """Write ``random_symmetric_matrix(random.Random(1), m, 4)``, its upper
    triangle drawn row by row by ``randint(-4, 4)``, as a presentation."""
    L = surgery.random_symmetric_matrix(random.Random(1), m, 4)
    path.write_text(json.dumps({"L": L.to_json()}))
    return L


def test_coloring_cap_refuses_before_the_signature(capsys, tmp_path,
                                                   time_limit):
    # The cap refuses on k^m alone; the signature elimination that once came
    # first took 23 s at m = 400.
    write_draw(tmp_path / "L.json", 400)
    code, out, err = run(capsys, "invariant", str(tmp_path / "L.json"),
                         "--k", "2", "--side", "rt")
    assert (code, out) == (2, "")
    assert err == "error: 2^400 colorings exceed the enumeration cap 10000000\n"


def test_torsion_cap_refuses_before_the_smith_form(capsys, tmp_path,
                                                   time_limit):
    # |T| = |det L| comes from the one signature elimination; the Smith form
    # that once came first took 7 s at m = 160.
    L = write_draw(tmp_path / "L.json", 160)
    code, out, err = run(capsys, "invariant", str(tmp_path / "L.json"),
                         "--k", "2", "--side", "cs")
    assert (code, out) == (2, "")
    refused = re.fullmatch(r"error: torsion group of order (\d+) exceeds "
                           r"cap 1000000\n", err)
    assert refused
    _, logdet = np.linalg.slogdet(np.array(L.rows(), dtype=float))
    assert abs(math.log(int(refused[1])) - logdet) < 1e-9 * logdet


def test_invariant_eliminates_its_matrix_once(capsys, eliminations):
    # sigma_reg, b1 and the brute-force prefactor all come from the one
    # elimination of the signature, which L keeps with its rank.
    assert run(capsys, "invariant", "E8", "--k", "2", "--side", "rt")[0] == 0
    assert eliminations == [(8, 8)]


@pytest.mark.parametrize("argv", [
    ("verify", "kirby", "--cases", "-3"),
    ("verify", "maslov", "--cases", "0"),
    ("verify", "equivalence", "--cases", "0"),
    ("phase-table", "build", "--cases", "0"),
])
def test_case_count_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--cases" in err


@pytest.mark.parametrize("argv", [
    ("verify", "kirby"), ("verify", "reciprocity"), ("verify", "equivalence"),
    ("verify", "maslov"), ("phase-table", "build"),
], ids=lambda argv: argv[-1])
def test_case_count_above_the_cap_is_usage_error(capsys, monkeypatch, argv):
    # One case above the cap is refused before any case is drawn; the
    # commands are replaced, so a broken check cannot start the long run.
    def refuse(args):
        raise AssertionError("the command ran")
    monkeypatch.setattr(cli, "cmd_verify", refuse)
    monkeypatch.setattr(cli, "cmd_phase_table", refuse)
    n = cli.MAX_CASES + 1
    code, out, err = run(capsys, *argv, "--cases", str(n))
    assert_one_line_usage_error(code, out, err)
    assert err == f"error: --cases must be at most 100000, got {n}\n"


def assert_one_line_usage_error(code, out, err, prefix="error: "):
    assert code == 2
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("suite", ["kirby", "reciprocity"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tolerance_base_not_positive_finite_is_usage_error(capsys, suite, tol):
    # 0 divided the worst margin by zero; nan and inf passed every case
    code, out, err = run(capsys, "verify", suite, "--cases", "3", f"--tol={tol}")
    assert_one_line_usage_error(code, out, err)
    assert "--tol" in err


@pytest.mark.parametrize("suite, option, value", [
    ("kirby", "kmax", "8"),
    ("reciprocity", "kmax", "8"),
    ("equivalence", "tol", "1e-3"),
    ("equivalence", "kmax", "8"),
    ("maslov", "tol", "1e-3"),
    ("maslov", "kmax", "8"),
    ("modular", "seed", "1"),
    ("modular", "cases", "5"),
    ("modular", "tol", "1e-3"),
])
def test_verify_refuses_an_option_its_suite_does_not_read(capsys, suite,
                                                           option, value):
    # Each of these was once accepted and ignored without a word.
    code, out, err = run(capsys, "verify", suite, f"--{option}", value)
    assert_one_line_usage_error(code, out, err)
    assert err == f"error: verify {suite} does not take --{option}\n"


@pytest.mark.parametrize("entry", ["1.5", "true", '"3"', "1e300"])
@pytest.mark.parametrize("template", [
    '{"L": [[%s]]}',
    '{"L": [[1]], "B": [[%s]], "C": [[0]], "h": [1]}',
    '{"L": [[1]], "B": [[1]], "C": [[%s]], "h": [1]}',
    '{"L": [[1]], "B": [[1]], "C": [[0]], "h": [%s]}',
], ids=["L", "B", "C", "h"])
def test_non_integer_presentation_entry_is_usage_error(capsys, template, entry):
    code, out, err = run(capsys, "invariant", template % entry, "--k", "2")
    assert_one_line_usage_error(code, out, err,
                                "error: malformed presentation JSON: ")


@pytest.mark.parametrize("source, message", [
    ('{"L": [[1]], "B": [[1]], "C": [[0]], "h": []}',
     "one color per insertion component required"),
    ('{"L": [[1]], "B": [], "C": [[0]], "h": [1]}',
     "mixed block needs one row per surgery component"),
    ('{"L": [[1]], "B": [[1, 0]], "C": [[0]], "h": [1]}',
     "mixed block width must match insertion count"),
    ('{"L": [[1]], "B": [[1]]}',
     "mixed block must have zero width without insertions"),
    ('{"L": 1}', "L must be a list of rows"),
    ('{"L": [[1]], "B": [1], "C": [[1]], "h": [1]}',
     "B must be a list of rows"),
    ('{"L": [[1]], "B": [[1]], "C": [1], "h": [1]}',
     "C must be a list of rows"),
    ('{"L": [[1]], "B": [[1]], "C": [[1]], "h": 1}',
     "h must be a list of colors"),
], ids=["colors", "mixed-rows", "mixed-width", "zero-width", "L-not-rows",
        "B-not-rows", "C-not-rows", "h-not-list"])
def test_presentation_shape_error_is_usage_error(capsys, source, message):
    code, out, err = run(capsys, "invariant", source, "--k", "2")
    assert_one_line_usage_error(code, out, err)
    assert err == f"error: malformed presentation JSON: {message}\n"


@pytest.mark.parametrize("content", [
    None,
    "not json",
    '{"entries": [{"name": "X"}]}',
    '{"entries": [{"name": "X", "presentation": {"L": [[1]]}, '
    '"expected": {"2": {"mag2": "1/0", "phase": "0/1"}}}]}',
    '{"entries": [{"name": "X", "presentation": {"L": [[1]]}, '
    '"expected": 5}]}',
    '{"entries": [{"name": 5, "presentation": {"L": [[1]]}}]}',
], ids=["missing", "not-json", "no-presentation", "zero-denominator",
        "expected-not-object", "name-not-string"])
@pytest.mark.parametrize("argv", [("invariant", "S3", "--k", "2"),
                                  ("catalog", "list")], ids=["invariant", "catalog"])
def test_unreadable_catalog_is_usage_error(capsys, tmp_path, argv, content):
    path = tmp_path / "catalog.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, *argv, "--catalog", str(path))
    assert_one_line_usage_error(code, out, err, "error: cannot load catalog ")


def test_directory_source_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "invariant", str(tmp_path), "--k", "2")
    assert_one_line_usage_error(code, out, err, "error: cannot read ")


def test_unwritable_phase_table_out_is_usage_error(capsys, tmp_path):
    out_path = tmp_path / "missing" / "table.json"
    code, out, err = run(capsys, "phase-table", "build", "--cases", "1",
                         "--out", str(out_path))
    assert_one_line_usage_error(code, out, err, "error: cannot write ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["invariant"])  # missing required --k
    assert exc.value.code == 2
