"""Tests for the command-line front end: outputs, formats, exit codes, determinism."""

import json

import pytest

from hypersurfaces import cohomology
from hypersurfaces.cli import main, table1_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------- formula


def test_formula_f(capsys):
    code, out = run_cli(capsys, "formula", "F", "--n", "1", "--c", "2", "--m", "2")
    assert code == 0
    assert "F(1,2,2) = 3" in out


def test_formula_delta(capsys):
    code, out = run_cli(capsys, "formula", "delta", "--n", "1", "--c", "3", "--m", "2", "--k", "2")
    assert code == 0
    assert "value = 5" in out


def test_formula_delta_curve(capsys):
    code, out = run_cli(capsys, "formula", "delta-curve", "--c", "4", "--m", "4", "--k", "2")
    assert code == 0
    assert "genus = 1" in out and "degree = 6" in out


def test_formula_identities(capsys):
    code, out = run_cli(capsys, "formula", "identities",
                        "--nmax", "3", "--cmax", "4", "--mmax", "4")
    assert code == 0
    assert "all 9 identity families PASS" in out


def test_formula_out_of_range_exits_2(capsys):
    code = main(["formula", "G", "--t", "9", "--n", "1", "--c", "3", "--m", "2"])
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["formula", "F", "--n", "1"])  # missing required flags
    assert exc.value.code == 2


# ---------------------------------------------------------------- curve


def test_curve_rnc_profile(capsys):
    code, out = run_cli(capsys, "curve", "rnc", "--r", "5", "--m-max", "4")
    assert code == 0
    # a_m column equals the minimal-degree count: 10, 40, 105 for m = 2, 3, 4
    assert "2  10" in out and "3  40" in out and "4  105" in out


def test_curve_scroll_section_profile(capsys):
    code, out = run_cli(capsys, "curve", "scroll-section",
                        "--a", "1", "--b", "3", "--k", "5")
    assert code == 0
    lines = out.splitlines()
    h1_col = [ln.split()[-1] for ln in lines if ln and ln[0].isdigit()]
    assert h1_col[:5] == ["4", "4", "2", "1", "0"]


def test_curve_multisecant(capsys):
    code, out = run_cli(capsys, "curve", "multisecant",
                        "--c", "4", "--k", "4", "--g", "0", "--seed", "7")
    assert code == 0
    assert "reg = 4" in out
    assert "rational_4secant_line" in out


def test_curve_descriptor_rebuilds_curve(capsys):
    from hypersurfaces.varieties import from_descriptor

    code, out = run_cli(capsys, "curve", "multisecant", "--c", "4", "--k", "3",
                        "--g", "0", "--seed", "9", "--format", "json")
    assert code == 0
    desc = json.loads(out)["config"]["descriptor"]
    again = from_descriptor(desc)
    assert (again.c, again.d, again.g) == (4, 6, 0)
    assert again.label.startswith("multisecant")


def test_curve_construction_failure_exits_1(capsys):
    code = run_cli(capsys, "curve", "elliptic", "--c", "2", "--wa", "0", "--wb", "0")[0]
    assert code == 1


def test_curve_field_too_small_exits_1_without_traceback(capsys):
    # a_4 of the twisted cubic needs the grid t = 0..12, more than GF(11) has
    code = main(["curve", "rnc", "--r", "3", "--p", "11", "--m-max", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: rnc(3): ") and "p > 12" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_ledger_violation_exits_1_without_traceback(capsys, monkeypatch):
    # a count below the Riemann-Roch part breaks the ledger h1 = a_m - u >= 0
    monkeypatch.setattr(cohomology, "a_m", lambda v, m, seed=0: -1)
    code = main(["curve", "rnc", "--r", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: rnc(3): ledger violation")
    assert len(err.strip().splitlines()) == 1


def test_curve_rejects_rationals_for_elliptic(capsys):
    code = run_cli(capsys, "curve", "elliptic", "--c", "2", "--q")[0]
    assert code == 2


# ---------------------------------------------------------------- points


def test_points_round_trip(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    code, _ = run_cli(capsys, "points", "sample", "--r", "3", "--count", "9",
                      "--out-points", str(pts))
    assert code == 0
    code, out = run_cli(capsys, "points", "extract3", "--in", str(pts))
    assert code == 0
    assert "certified = True" in out
    assert "subset_size = 7" in out  # ambient P^3: 2c+1 = 7
    code, out = run_cli(capsys, "points", "check", "--in", str(pts))
    assert code == 0
    assert "span_dim = 3" in out


def test_points_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("field Q\n2 1\n1 2\n")
    assert run_cli(capsys, "points", "check", "--in", str(bad))[0] == 2
    assert run_cli(capsys, "points", "check", "--in", str(tmp_path / "missing"))[0] == 2


# ---------------------------------------------------------------- tables


def test_table1_region_row_count():
    assert len(table1_rows(7)) == 22
    ks = sorted({r[0] for r in table1_rows(7)})
    assert ks == [3, 4, 5, 6, 7]


def test_table1_small_c(capsys):
    code, out = run_cli(capsys, "table1", "--c", "4")
    assert code == 0
    assert "fail = 0" in out


def test_table2_runs(capsys):
    code, out = run_cli(capsys, "table2")
    assert code == 0
    assert "fail = 0" in out
    assert "SKIPPED" in out


def test_secants_json(capsys):
    code, out = run_cli(capsys, "secants", "--construction", "rnc", "--r", "3",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["ell2"] == 2
    assert payload["summary"]["k2"] == 3
    assert payload["summary"]["zak4_ok"] is True
    assert payload["summary"]["zak5_ok"] is True


def test_verify_main(capsys):
    code, out = run_cli(capsys, "verify-main", "--m-max", "2")
    assert code == 0
    assert "fail = 0" in out


# ---------------------------------------------------------------- determinism


def test_byte_identical_reruns(capsys):
    argv = ["curve", "multisecant", "--c", "4", "--k", "4", "--g", "1",
            "--seed", "11", "--format", "json"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "report.csv"
    argv = ["formula", "identities", "--nmax", "2", "--cmax", "3", "--mmax", "3",
            "--format", "csv", "--out", str(target)]
    assert main(argv) == 0
    first = target.read_bytes()
    assert main(argv) == 0
    assert target.read_bytes() == first
    assert first.splitlines()[1].startswith(b"# verdict")


def test_seed_recorded_in_output(capsys):
    _, out = run_cli(capsys, "formula", "F", "--n", "1", "--c", "2", "--m", "2",
                     "--seed", "123")
    assert '"seed": 123' in out
