"""Fixtures shared across test modules."""

from types import SimpleNamespace

import pytest

from dispbound import cli


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
