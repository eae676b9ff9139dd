import itertools
import json
import math

import numpy as np
import pytest

from abtqft.cli import main
from abtqft.numeric import sum_tolerance


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


def assert_one_line_usage_error(code, out, err, prefix="error: "):
    assert code == 2
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


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


@pytest.mark.parametrize("content", [
    None,
    "not json",
    '{"entries": [{"name": "X"}]}',
], ids=["missing", "not-json", "no-presentation"])
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
