"""Smoke tests: the example scripts run end to end and print their tables."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_crossing_table_prints_every_row(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "crossing_table.py", "--n-min", "2", "--n-max", "6")
    lines = out.splitlines()
    rows = [line.split() for line in lines[1:6]]
    assert [int(row[0]) for row in rows] == [2, 3, 4, 5, 6]
    assert float(rows[0][3]) == pytest.approx(2.3638626312131855, rel=1e-7)
    assert "asymptotic convergence of ln h_n:" in out
    assert sum("rel err" in line for line in lines) == 3


def test_crossing_table_bezdek(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "crossing_table.py", "--n-max", "4", "--kind", "bezdek")
    assert [line.split()[0] for line in out.splitlines()[1:4]] == ["2", "3", "4"]


def test_ab_scan_demo(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "ab_scan_demo.py", "--n-max", "2000")
    assert out.startswith("scan 2..2000: 0 violations")
    assert "min ratio 1.26964245125 at n=2" in out
    assert "limit 2*sqrt(e) = 3.2974425414" in out
    assert len([line for line in out.splitlines() if line.strip()[:1].isdigit()]) == 6


def test_run_suite_report_writes_both_record_files(monkeypatch, capsys, tmp_path):
    out = run_script(monkeypatch, capsys, "run_suite_report.py", "--samples", "200",
                     "--polytopes", "0", "--out-dir", str(tmp_path))
    assert out.startswith("suite PASS")
    assert (tmp_path / "records.jsonl").is_file()
    assert (tmp_path / "records.csv").is_file()
