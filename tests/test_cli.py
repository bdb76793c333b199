"""Tests for the command-line front end: outputs, formats, exit codes, determinism."""

import csv
import json
import pathlib
import shlex
import time

import pytest

from hypersurfaces import cohomology, secants
from hypersurfaces.cli import Report, build_parser, main, table1_rows
from hypersurfaces.exactcore import PrimeField
from hypersurfaces.varieties import (
    CONSTRUCTIONS,
    elliptic_normal_curve,
    from_descriptor,
    hyperelliptic_g2_curve,
    multisecant_projection,
    project_from_general_point,
    rational_normal_curve,
    scroll_section_curve,
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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


@pytest.mark.parametrize("argv", [
    ["curve", "rnc"], ["table2"], ["points", "sample", "--count", "4"],
], ids=" ".join)
def test_prime_and_rationals_together_exit_2(capsys, argv):
    # --p and --q name two fields: neither is preferred
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--q", "--p", "7"])
    assert exc.value.code == 2
    assert "argument --p: not allowed with argument --q" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["curve", "elliptic", "--p", "65537"],
    ["curve", "multisecant", "--c", "4", "--k", "4", "--g", "1", "--p", "1000003"],
], ids=["elliptic", "multisecant"])
def test_weierstrass_model_above_the_table_limit_exits_2(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: y^2 = f(x) models need p <= 65536, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [
    ["curve", "projected-rnc", "--r", "3"],
    ["secants", "--construction", "projected-rnc"],
], ids=["curve", "secants"])
def test_projection_into_the_plane_exits_2(capsys, argv):
    # --r 3 (the secants default) projects the twisted cubic into P^2
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: rnc(3): the image lies in P^2, where a smooth curve of degree 3 "
        "has genus 1, not 0\n"
    )


def test_prime_above_the_field_bound_exits_2(capsys):
    code = main(["curve", "rnc", "--p", "2147483659"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: modulus 2147483659 is too large: prime fields need p < 2^31\n"


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


@pytest.mark.parametrize("count", ["0", "-2"])
def test_points_sample_needs_a_positive_count(tmp_path, capsys, count):
    out = tmp_path / "pts.txt"
    code = main(["points", "sample", "--count", count, "--out-points", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: need count >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify-main", "--m-max", "1"], "need --m-max >= 2"),  # checks run m = 2..m_max
    (["table1", "--c", "2"], "need --c >= 3"),  # rows run k = 3..c
    (["curve", "rnc", "--m-max", "0"], "need --m-max >= 1"),
], ids=["verify-main", "table1", "curve"])
def test_flags_that_check_nothing_exit_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["formula", "H", "--k", "1", "--n", "1", "--c", "1", "--m", "0"],
     "H needs n >= 1, c >= 1, m >= 1; got (1, 1, 0)"),
    (["formula", "H", "--k", "1", "--n", "1", "--c", "1", "--m", "-3"],
     "H needs n >= 1, c >= 1, m >= 1; got (1, 1, -3)"),
    (["formula", "G", "--t", "1", "--n", "0", "--c", "1", "--m", "2"],
     "G needs n >= 1, c >= 1, m >= 2; got (0, 1, 2)"),
], ids=["H m=0", "H m=-3", "G n=0"])
def test_formulas_outside_their_domain_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", ["a,b", "1,,2", ""])
def test_curve_f_names_the_flag(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["curve", "genus2", "--f", value])
    assert exc.value.code == 2
    assert f"argument --f: expected comma-separated integers, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, checks", [
    (["table1", "--c", "3"], "rows = 1"),
    (["curve", "rnc", "--m-max", "1"], "[profile]"),
], ids=["table1", "curve"])  # test_verify_main runs the least --m-max, 2
def test_least_flag_values_check_something(capsys, argv, checks):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert checks in out


def test_points_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("field Q\n2 1\n1 2\n")
    assert run_cli(capsys, "points", "check", "--in", str(bad))[0] == 2
    assert run_cli(capsys, "points", "check", "--in", str(tmp_path / "missing"))[0] == 2


@pytest.mark.parametrize("text, message", [
    ("field abc\n1 2\n1 0\n0 1\n",
     "field line 'field abc': expected 'field Q' or 'field <prime>'"),
    ("field 9\n1 2\n1 0\n0 1\n", "field line 'field 9': 9 is not prime"),
    ("field 7\n1 2\n1 0\nx 1\n", "point line 'x 1': expected 2 integer coordinates"),
    ("field 7\n-1 2\n1 0\n0 1\n",
     "size line '-1 2': expected two integers, c >= 1 and npoints >= 1"),
    ("field 7\n0 2\n1\n2\n", "size line '0 2': expected two integers, c >= 1 and npoints >= 1"),
    ("field Q\n1 0\n1 0\n", "size line '1 0': expected two integers, c >= 1 and npoints >= 1"),
], ids=["field abc", "field 9", "coordinate x", "size -1", "c = 0", "no points"])
def test_point_files_fail_with_the_line_they_break(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code = main(["points", "check", "--in", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", f"point-file error: {message}\n")


def test_table1_c18_counts_follow_the_rank(capsys):
    # each count ranks the products of the kept basis with a variable, not
    # every monomial of its degree: 0.4 s on a 2-core host, where listing
    # every monomial took 2.3 s
    start = time.perf_counter()
    code, out = run_cli(capsys, "table1", "--c", "18")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "rows = 22\npass = 16\nskipped = 6\nfail = 0\n" in out
    assert elapsed < 2.1, elapsed


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


def test_table2_over_q_computes_the_rows_of_gf(capsys):
    # the integer Terracini path over Q gives each row's deficiencies
    tables = {}
    for field in (["--q"], ["--p", "1000003"]):
        code, out = run_cli(capsys, "table2", *field, "--format", "json")
        assert code == 0
        tables[field[0]] = json.loads(out)["tables"]["table2"]
    computed = tables["--q"]["header"].index("computed")
    q_rows, p_rows = tables["--q"]["rows"], tables["--p"]["rows"]
    assert len(q_rows) == len(p_rows) == 7
    for q_row, p_row in zip(q_rows, p_rows):
        assert q_row[0] == p_row[0] and q_row[computed] == p_row[computed]
    assert [row[-1] for row in q_rows].count("PASS") == 5


def test_secants_json(capsys):
    code, out = run_cli(capsys, "secants", "--construction", "rnc", "--r", "3",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["ell2"] == 2
    assert payload["summary"]["k2"] == 3
    assert payload["summary"]["zak4_ok"] is True
    assert payload["summary"]["zak5_ok"] is True


@pytest.mark.parametrize("argv", [["secants", "--construction", "rnc"], ["table2"]])
def test_trials_below_one_is_a_usage_error(capsys, argv):
    code = main(argv + ["--trials", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: --trials must be at least 1, got 0\n"


@pytest.mark.parametrize("flags, message", [
    (["--construction", "scroll", "--a", "3", "--b", "2"], "need 1 <= a <= b"),
    (["--construction", "rnc", "--r", "1"], "need r >= 2"),
    (["--construction", "scroll-section", "--k", "-1"], "need k >= 0"),
    (["--construction", "rnc", "--p", "7"], "Terracini sampling needs the rationals"),
])
def test_secants_usage_error_exits_2(capsys, flags, message):
    code = main(["secants"] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["secants", "--construction", "rnc", "--p", "101"],
    ["table2", "--p", "101"],
])
def test_terracini_small_prime_is_a_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: Terracini sampling needs the rationals or p > 10^6, got GF(101)\n"
    )


# small flags for every `curve` kind and `secants` construction the table offers
OFFER_FLAGS = {
    ("curve", "rnc"): [],
    ("curve", "elliptic"): ["--c", "2"],
    ("curve", "genus2"): ["--c", "2"],
    ("curve", "scroll-section"): [],
    ("curve", "multisecant"): [],
    ("curve", "projected-rnc"): [],
    ("secants", "rnc"): [],
    ("secants", "scroll"): [],
    ("secants", "veronese"): [],
    ("secants", "projected-rnc"): ["--r", "4"],
    ("secants", "scroll-section"): [],
}
OFFERS = sorted(
    (command, e.spelling)
    for e in CONSTRUCTIONS.values()
    for command in ("curve", "secants")
    if getattr(e, command) is not None
)


@pytest.mark.parametrize("command, spelling", OFFERS)
def test_every_offered_construction_runs(capsys, command, spelling):
    assert set(OFFER_FLAGS) == set(OFFERS)
    argv = [command, spelling] if command == "curve" else [command, "--construction", spelling]
    code, out = run_cli(capsys, *argv, *OFFER_FLAGS[command, spelling], "--format", "json")
    assert code == 0
    payload = json.loads(out)
    if command == "curve":
        desc = payload["config"]["descriptor"]
        assert from_descriptor(desc).descriptor() == desc
    else:
        assert payload["summary"]["zak4_ok"] is True


def test_offered_choices_keep_their_order(capsys):
    for argv, choices in [
        (["curve", "--help"], "{rnc,elliptic,genus2,scroll-section,multisecant,projected-rnc}"),
        (["secants", "--help"], "{rnc,scroll,veronese,projected-rnc,scroll-section}"),
    ]:
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert choices in capsys.readouterr().out


GF = PrimeField(10007)


@pytest.mark.parametrize("flags, build", [
    (["elliptic", "--c", "2", "--wa", "2", "--wb", "3"],
     lambda: elliptic_normal_curve(2, 10007, (2, 3))),
    (["genus2", "--c", "2", "--f", "1,0,2,0,0,1"],
     lambda: hyperelliptic_g2_curve(2, 10007, (1, 0, 2, 0, 0, 1))),
    (["scroll-section", "--a", "1", "--b", "2", "--k", "2", "--seed", "3"],
     lambda: scroll_section_curve(1, 2, 2, GF, 3)),
    (["multisecant", "--c", "3", "--k", "3", "--seed", "4"],
     lambda: multisecant_projection(3, 3, 0, 10007, 4)),
    (["projected-rnc", "--r", "4", "--seed", "5"],
     lambda: project_from_general_point(rational_normal_curve(4, GF), seed=5)),
])
def test_curve_flags_reach_the_constructor(capsys, flags, build):
    code, out = run_cli(capsys, "curve", *flags, "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["descriptor"] == json.loads(json.dumps(build().descriptor()))


def test_secants_zak_failure_exits_1_without_traceback(capsys, monkeypatch):
    # every trial loses one rank at k = 1 and 2, so Zak's identity fails twice
    real = secants._tangent_ranks
    monkeypatch.setattr(
        secants, "_tangent_ranks",
        lambda y, seed, trial: [r - (k in (1, 2)) for k, r in enumerate(real(y, seed, trial))],
    )
    code = main(["secants", "--construction", "rnc", "--r", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("secant run failed: rnc(3): span-count checks failed")
    assert len(err.strip().splitlines()) == 1


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


def test_csv_fields_with_commas_and_quotes_are_quoted():
    # a witness label holds commas, a failure message may hold a quote:
    # every record parses back to its fields
    header = ["witness", "degree", "status"]
    rows = [["scroll(1,2)", 2, "PASS"], ['say "x, y"', None, "FAIL (a, b)"], ["rnc(3)", 3, "PASS"]]
    tables = [("t1", header, rows), ("t2", ["a"], [[1]])]
    report = Report({"command": "test"}, [("rows", 3)], tables)
    lines = report.render("csv").splitlines()
    assert lines[:2] == ['# config: {"command": "test"}', "# rows: 3"]
    assert lines[2] == "# table: t1" and lines[7] == "# table: t2"
    assert lines[3] == "witness,degree,status" and lines[6] == "rnc(3),3,PASS"
    assert list(csv.reader(lines[3:7])) == [header] + [[str(x) for x in r] for r in rows]
    assert list(csv.reader(lines[8:])) == [["a"], ["1"]]


def test_table2_csv_rows_parse_to_the_header_width(capsys):
    code, out = run_cli(capsys, "table2", "--format", "csv")
    assert code == 0
    records = list(csv.reader(ln for ln in out.splitlines() if not ln.startswith("#")))
    assert {len(r) for r in records} == {len(records[0])} and len(records) == 8
    assert records[2][0] == "scroll(1,2)"


def test_seed_recorded_in_output(capsys):
    _, out = run_cli(capsys, "formula", "F", "--n", "1", "--c", "2", "--m", "2",
                     "--seed", "123")
    assert '"seed": 123' in out


# ---------------------------------------------------------------- README


def _readme_cli_lines():
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("hypersurfaces ")
    ]


README_CLI = _readme_cli_lines()


def test_readme_cli_block_covers_every_command():
    assert {argv[0] for argv in README_CLI} == {
        "formula", "curve", "points", "table1", "table2", "secants", "verify-main"
    }


@pytest.mark.parametrize("argv", README_CLI, ids=" ".join)
def test_readme_cli_line_exits_0(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    if "--in" in argv:  # a point-file line reads what the `points sample` line writes
        sample = next(a for a in README_CLI if a[:2] == ["points", "sample"])
        assert main(sample + ["--out", "sample.txt"]) == 0
    assert main(argv + ["--out", "report.txt"]) == 0
    assert (tmp_path / "report.txt").stat().st_size > 0
