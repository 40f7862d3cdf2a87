"""Smoke test: the suite report script runs end to end and writes its files."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_run_suite_report_writes_both_record_files(monkeypatch, capsys, tmp_path):
    out = run_script(monkeypatch, capsys, "run_suite_report.py", "--samples", "200",
                     "--polytopes", "0", "--out-dir", str(tmp_path))
    assert out.startswith("suite PASS")
    assert (tmp_path / "records.jsonl").is_file()
    assert (tmp_path / "records.csv").is_file()
