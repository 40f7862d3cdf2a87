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
# good one, except in the two tables that `constants` writes and in the CSV
# files whose header is at fault
MALFORMED_RECORDS = (
    "constants-csv", "constants-jsonl", "not-an-object", "params-list",
    "pass-string", "unknown-status", "unknown-field", "csv-pass-cell",
    "csv-unknown-column", "csv-repeated-column", "csv-ragged-row",
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
    if case.startswith("csv"):
        header, row = records_to_csv(load_records_jsonl(COMMITTED_RECORDS)[:1]).splitlines()
        no_pass = row.replace(",true,", ",yes,", 1)
        text, line, names = {
            "csv-pass-cell": (f"{header}\n{row}\n{no_pass}\n", 3, "'pass'"),
            "csv-unknown-column": (f"{header},margn\n{row},1.0\n", 2, "'margn'"),
            "csv-repeated-column": (f"{header},margin\n{row},1.0\n", 1, "'margin'"),
            "csv-ragged-row": (f"{header}\n{row}\n{row},1,2\n", 3, "cells"),
        }[case]
        path = tmp_path / "records.csv"
        path.write_text(text)
        return SimpleNamespace(path=path, line=line, names=names)
    bad, names = {
        "not-an-object": ([1], "JSON object"),
        "params-list": ({**record, "params": [1]}, "'params'"),
        "pass-string": ({**record, "pass": "false"}, "'pass'"),
        "unknown-status": ({**record, "status": "bogus"}, "'status'"),
        "unknown-field": ({**record, "margn": 1.0}, "'margn'"),
    }[case]
    path = tmp_path / "records.jsonl"
    path.write_text(f"{good}\n{json.dumps(bad)}\n")
    return SimpleNamespace(path=path, line=2, names=names)


# body files the loader must refuse: (text after the header, the line at
# fault or None for a key that is missing, a word that the error must name)
MALFORMED_BODIES = {
    "sphere-without-center": ("type sphere\nid s\nradius 1\n", None, "'center'"),
    "sphere-without-radius": ("type sphere\nid s\ncenter 0 0 0\n", None, "'radius'"),
    "cylinder-without-height": (
        "type cylinder\nid c\nsurface_dimension 2\nradius 0.5\n", None, "'height'"
    ),
    "vertices-count-line": (
        "type polygon\nvertices 3\nv 0 0\nv 1 0\nv 0.5 0.8660254037844386\n", 3, "'vertices'"
    ),
    "unreadable-radius": ("type sphere\nradius one\ncenter 0 0 0\n", 3, "'radius'"),
    "short-polytope-vertex": (
        "type polytope3\nvertex 0 0 0\nvertex 1 0\nvertex 0 1 0\nvertex 0 0 1\n", 4, "'vertex'"
    ),
    "repeated-height": (
        "type cylinder\nsurface_dimension 2\nradius 0.5\nheight 1\nheight 2\n", 6, "'height'"
    ),
    "non-finite-center": ("type sphere\nid s\nradius 1\ncenter nan 0 0\n", None, "non-finite"),
}


@pytest.fixture(params=list(MALFORMED_BODIES))
def malformed_body(request, tmp_path):
    """A body file that the loader must refuse, the start of its error
    (the file, and the line where there is one) and a word the error names."""
    text, line, names = MALFORMED_BODIES[request.param]
    path = tmp_path / f"{request.param}.body"
    path.write_text(f"dispbound-body v1\n{text}", encoding="utf-8")
    where = f"{path}, line {line}:" if line else f"{path}:"
    return SimpleNamespace(path=path, where=where, names=names)
