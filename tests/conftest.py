"""Fixtures shared across test modules."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from dispbound import cli
from dispbound.verify import load_records_jsonl, records_to_csv

COMMITTED_RECORDS = Path(__file__).resolve().parent / "data" / "default-suite-1729.jsonl"


@pytest.fixture(scope="session")
def default_suite(tmp_path_factory):
    """One ``dispbound verify --seed 1729 --format json-lines`` run, shared
    by the tests that read the default suite: its exit ``code``, the
    ``report`` (the SuiteReport the command computed) and the ``output``
    path."""
    output = tmp_path_factory.mktemp("default-suite") / "suite.jsonl"
    reports = []
    inner = cli.run_suite

    def capturing(config):
        reports.append(inner(config))
        return reports[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_suite", capturing)
        code = cli.main(["verify", "--seed", "1729", "--format", "json-lines",
                         "--output", str(output)])
    (report,) = reports
    return SimpleNamespace(code=code, report=report, output=output)


# record files the loaders must refuse: the malformed record follows one
# good one, except in the two tables that `constants` writes
MALFORMED_RECORDS = (
    "constants-csv", "constants-jsonl", "not-an-object", "params-list",
    "pass-string", "unknown-status", "csv-pass-cell",
)


@pytest.fixture(params=MALFORMED_RECORDS)
def malformed_records(request, tmp_path):
    """A record file that every loader must refuse, with the line at fault
    and a word that the error must name there."""
    case = request.param
    good = COMMITTED_RECORDS.read_text(encoding="utf-8").splitlines()[0]
    record = json.loads(good)
    if case.startswith("constants"):
        fmt = "csv" if case.endswith("csv") else "json-lines"
        path = tmp_path / ("constants.csv" if fmt == "csv" else "constants.jsonl")
        assert cli.main(["constants", "--n-max", "4", "--format", fmt,
                         "--output", str(path)]) == 0
        return SimpleNamespace(path=path, line=2 if fmt == "csv" else 1,
                               names="'theorem_id'")
    if case == "csv-pass-cell":
        header, row = records_to_csv(load_records_jsonl(COMMITTED_RECORDS)[:1]).splitlines()
        path = tmp_path / "records.csv"
        path.write_text(f"{header}\n{row}\n{row.replace(',true,', ',yes,', 1)}\n")
        return SimpleNamespace(path=path, line=3, names="'pass'")
    bad, names = {
        "not-an-object": ([1], "JSON object"),
        "params-list": ({**record, "params": [1]}, "'params'"),
        "pass-string": ({**record, "pass": "false"}, "'pass'"),
        "unknown-status": ({**record, "status": "bogus"}, "'status'"),
    }[case]
    path = tmp_path / "records.jsonl"
    path.write_text(f"{good}\n{json.dumps(bad)}\n")
    return SimpleNamespace(path=path, line=2, names=names)
