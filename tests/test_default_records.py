"""The default suite's records at seed 1729, byte for byte.

``data/default-suite-1729.jsonl`` holds what ``dispbound verify --seed
1729`` writes; the ``default_suite`` fixture runs that command once per
session.  A change that moves any record fails here, and the failure
carries the ``dispbound diff`` summary, so an intended change shows its
margin drift, flips, notes and params changes and added or dropped
records before the file is rewritten with

    PYTHONPATH=src python -m dispbound.cli verify --seed 1729 \\
        --format json-lines --output tests/data/default-suite-1729.jsonl

Last bits depend on the numpy build and the CPU's vector units (numpy's
arccos, for one, differs from libm's), so on another platform a failure
whose summary shows only small margin drift is that platform's rounding.
"""

from pathlib import Path

from dispbound import cli
from dispbound.verify import diff_records, load_records_jsonl

COMMITTED = Path(__file__).resolve().parent / "data" / "default-suite-1729.jsonl"


def test_default_suite_records_are_byte_identical(default_suite):
    out = default_suite.output
    assert default_suite.code == 0
    if out.read_bytes() != COMMITTED.read_bytes():
        diff = diff_records(load_records_jsonl(COMMITTED), load_records_jsonl(out))
        shown = "\n".join(str(row) for row in diff.rows[:20])
        raise AssertionError(
            f"records differ from {COMMITTED.name}: {diff.summary()}\n{shown}"
        )


def test_one_polytope_suite_writes_only_lines_of_the_default_run(tmp_path):
    """The benchmark's suite workload runs ``verify`` with 1 of the 20
    random polytopes and relies on every line it writes being a line of the
    default run, byte for byte (see ``perfbench/README.md``)."""
    out = tmp_path / "suite.jsonl"
    assert cli.main(["verify", "--seed", "1729", "--polytopes", "1",
                     "--format", "json-lines", "--output", str(out)]) == 0
    committed = set(COMMITTED.read_bytes().splitlines())
    lines = out.read_bytes().splitlines()
    assert len(lines) == 101
    assert [line for line in lines if line not in committed] == []
