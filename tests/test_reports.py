"""The headline reports of scripts/reproduce_tables.py, byte for byte.

tests/data/reproduce/ holds the four report files the script writes with its
defaults (c = 7, seed 42).  Any change to a count, a certificate, a seed
derivation or the report layout shows up here as a differing file.
"""

import pathlib
import runpy
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "reproduce"
REPORTS = ["identities.txt", "table1.txt", "table2.txt", "verify_main.txt"]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("reproduce")
    script = runpy.run_path(str(ROOT / "scripts" / "reproduce_tables.py"))
    argv = sys.argv
    sys.argv = ["reproduce_tables.py", "--outdir", str(outdir)]
    try:
        assert script["main"]() == 0
    finally:
        sys.argv = argv
    return outdir


@pytest.mark.parametrize("name", REPORTS)
def test_report_matches_golden_bytes(reports, name):
    assert (reports / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_no_unexpected_reports(reports):
    assert sorted(p.name for p in reports.iterdir()) == REPORTS
