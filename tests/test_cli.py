"""Tests for the command-line front end (in-process via cli.main)."""

import csv
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dispbound
from dispbound import cli
from dispbound.constants import (
    constants_row,
    constants_table,
    quoted_closed_form_h2,
    sphere_reference,
)
from dispbound.errors import NumericalError
from dispbound.geometry import SphereBody, regular_polygon, save_body
from dispbound.verify import SCHEMA_VERSION, load_records_jsonl

VERIFY_ARGS = ["verify", "--seed", "7", "--samples", "1500", "--polytopes", "3"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line]


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_pretty_has_quoted_column_and_note(capsys):
    code, out, _ = run_cli(capsys, "constants", "--n-min", "2", "--n-max", "4")
    assert code == 0
    assert "paper_quoted" in out
    assert "0.223792" in out  # the radical closed form, 6 significant digits
    assert "0.288482" in out  # the pipeline value right beside it
    assert "note:" in out


def test_constants_jsonl_round_trips_machine_values(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--n-min", "2", "--n-max", "5",
        "--format", "json-lines",
    )
    assert code == 0
    rows = parse_jsonl(out)
    assert len(rows) == 4
    for row in rows:
        assert row["schema_version"] == 1
        reference = constants_row(row["n"])
        assert row["log_h_n"] == reference.log_h_n  # exact, not approximate
        assert row["rho_star"] == reference.rho_star
    assert rows[0]["paper_quoted"] == quoted_closed_form_h2()
    assert rows[1]["paper_quoted"] is None


def test_constants_csv_cells_parse_back_exactly(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--n-min", "3", "--n-max", "3", "--format", "csv"
    )
    assert code == 0
    header, row = list(csv.reader(out.splitlines()))
    cells = dict(zip(header, row))
    assert cells["schema_version"] == "1"
    reference = constants_row(3)
    assert float(cells["log_h_n"]) == reference.log_h_n
    assert float(cells["c_n"]) == reference.c_n
    assert cells["branch"] == "second"


def test_constants_underflow_marker_at_n150(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--n-min", "150", "--n-max", "150",
        "--format", "json-lines",
    )
    assert code == 0
    (row,) = parse_jsonl(out)
    assert row["h_n"] == "underflow"
    assert math.isfinite(row["log_h_n"])


def test_constants_past_the_first_absolute_residual_failure(capsys):
    # n = 71,784 is where an absolute 1e-10 residual gate first failed
    code, out, _ = run_cli(
        capsys, "constants", "--n-min", "71780", "--n-max", "71790",
        "--format", "json-lines",
    )
    assert code == 0
    assert [row["n"] for row in parse_jsonl(out)] == list(range(71780, 71791))


def test_constants_reproducible_byte_identically(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "constants", "--n-min", "2", "--n-max", "10",
            "--format", "csv",
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


ORACLE_N_MAX = 5000


@functools.lru_cache(maxsize=None)
def per_row_constants(kind):
    """The constants command's rows built one n at a time: a table row, a
    scalar sphere reference and a dict per n."""
    table = constants_table(np.arange(2, ORACLE_N_MAX + 1), kind)
    rows = []
    for i, n in enumerate(range(2, ORACLE_N_MAX + 1)):
        row = table.row(i)
        log_reference = sphere_reference(n).log_magnitude
        rows.append(
            {
                "n": row.n,
                "rho_n": row.rho_n,
                "a_n": row.a_n,
                "b_n": row.b_n,
                "c_n": row.c_n,
                "rho_star": row.rho_star,
                "branch": row.branch,
                "log_h_n": row.log_h_n,
                "h_n": cli._linear_or_marker(row.log_h_n),
                "paper_quoted": quoted_closed_form_h2() if n == 2 else None,
                "log_sphere_reference": log_reference,
                "log_suboptimality": row.log_h_n - log_reference,
                "kind": row.pal_constant_kind,
            }
        )
    return rows


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("kind", ["pal_firey", "bezdek"])
def test_constants_output_equals_the_per_row_route(capsys, monkeypatch, kind, fmt):
    render, notes = cli._render, []

    def keep_notes(rows, fmt, row_notes=()):
        notes.extend(row_notes)
        return render(rows, fmt, row_notes)

    monkeypatch.setattr(cli, "_render", keep_notes)
    code, out, _ = run_cli(
        capsys, "constants", "--n-min", "2", "--n-max", str(ORACLE_N_MAX),
        "--kind", kind, "--format", fmt,
    )
    assert code == 0
    rows = per_row_constants(kind)
    if fmt == "json-lines":
        expected = "".join(
            json.dumps({"schema_version": SCHEMA_VERSION, **row},
                       separators=(",", ":"), allow_nan=False) + "\n"
            for row in rows
        )
    else:
        expected = render(rows, fmt, notes)
    # the first differing line, not a diff of 5,000 lines
    got, want = out.splitlines(), expected.splitlines()
    line = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert line is None, (line, got[line], want[line])
    assert out == expected


@pytest.mark.parametrize("column", ["log_a", "log_b", "log_c"])
@pytest.mark.parametrize("log_value", [700.0, -700.0])
def test_constants_refuses_to_decode_past_the_limit(capsys, monkeypatch, column, log_value):
    real = cli.constants_table

    def doctored(ns, kind):
        table = real(ns, kind)
        logs = getattr(table, column).copy()
        logs[1] = log_value
        return dataclasses.replace(table, **{column: logs})

    monkeypatch.setattr(cli, "constants_table", doctored)
    code, out, err = run_cli(
        capsys, "constants", "--n-min", "2", "--n-max", "4", "--format", "json-lines"
    )
    assert code == 2 and out == ""
    assert f"refusing to decode log magnitude {log_value:g}" in err


def test_constants_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "constants", "--n-min", "1", "--n-max", "3")
    assert code == 2
    assert "dimension range" in err


# ---------------------------------------------------------------------------
# scan-ab
# ---------------------------------------------------------------------------


def test_scan_ab_small_range_prints_ratios(capsys):
    code, out, _ = run_cli(
        capsys, "scan-ab", "--n-min", "2", "--n-max", "10",
        "--format", "json-lines",
    )
    assert code == 0
    rows = parse_jsonl(out)
    ratios = [r for r in rows if r["record"] == "ratio"]
    summary = [r for r in rows if r["record"] == "summary"]
    assert len(ratios) == 9 and len(summary) == 1
    assert all(r["a_over_b"] > 1.0 for r in ratios)
    assert summary[0]["violations"] == 0
    assert summary[0]["argmin_n"] == 2


def test_scan_ab_violations_flip_the_exit_code(capsys, monkeypatch):
    real = cli.scan_ab

    def doctored(n_min, n_max):
        scan = real(n_min, n_max)
        import dataclasses

        return dataclasses.replace(scan, violations=3)

    monkeypatch.setattr(cli, "scan_ab", doctored)
    code, out, _ = run_cli(capsys, "scan-ab", "--n-min", "2", "--n-max", "5")
    assert code == 1
    assert "VIOLATIONS" in out


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_asymptotics_errors_shrink_with_n(capsys):
    code, out, _ = run_cli(
        capsys, "asymptotics", "--quantity", "log_h_n",
        "--n", "100,1000,10000", "--format", "json-lines",
    )
    assert code == 0
    rows = parse_jsonl(out)
    rels = [row["rel_error"] for row in rows]
    assert rels == sorted(rels, reverse=True)
    assert rels[-1] < 5e-3


def test_asymptotics_rejects_garbled_n_list(capsys):
    code, _, err = run_cli(capsys, "asymptotics", "--n", "12,abc")
    assert code == 2
    assert "comma-separated" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_emits_loadable_records_and_summary(capsys, tmp_path):
    out_path = tmp_path / "records.jsonl"
    code, out, err = run_cli(
        capsys, *VERIFY_ARGS, "--format", "json-lines",
        "--output", str(out_path),
    )
    assert code == 0
    assert out == ""  # --output keeps stdout clean
    assert "suite PASS" in err
    records = load_records_jsonl(out_path)
    assert len(records) > 100
    assert all(rec.passed or rec.status == "advisory" for rec in records)


def test_verify_runs_are_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        code, _, _ = run_cli(
            capsys, *VERIFY_ARGS, "--format", "json-lines",
            "--output", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_pretty_summarises_and_lists_skips(capsys):
    code, out, _ = run_cli(capsys, *VERIFY_ARGS)
    assert code == 0
    assert out.startswith("suite PASS")
    assert "skipped (" in out
    assert "not centrally symmetric" in out


def test_verify_passes_where_a_monte_carlo_width_once_failed(capsys):
    # thm_2_2 on hexagon-unit fell outside three standard errors of a
    # sampled mean width at this seed; both sides are exact now
    code, out, _ = run_cli(
        capsys, "verify", "--samples", "2000", "--polytopes", "5", "--seed", "1729"
    )
    assert code == 0, out


def test_verify_has_no_suite_or_kind_option(capsys):
    # the default suite is the only one, and it checks the Pal-Firey
    # constants: --kind bezdek could never pass on its polygons (d = 2)
    for argv in (("--suite", "exotic"), ("--suite", "default"), ("--kind", "pal_firey")):
        code, _, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in err


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------


def test_geodesic_cube_face_centers_near_unfolded_length(capsys):
    code, out, _ = run_cli(
        capsys, "geodesic", "--body", "cube", "--from", "face-center:0",
        "--to", "face-center:5", "--subdiv", "32", "--format", "json-lines",
    )
    assert code == 0
    (row,) = parse_jsonl(out)
    assert row["kind"] == "upper_bound"
    assert 2.0 - 1e-9 <= row["distance"] <= 2.0 * 1.01
    assert row["chord"] == 1.0


def test_geodesic_cube_vertex_endpoints(capsys):
    code, out, _ = run_cli(
        capsys, "geodesic", "--from", "vertex:0", "--to", "vertex:1",
        "--subdiv", "4", "--format", "json-lines",
    )
    assert code == 0
    (row,) = parse_jsonl(out)
    assert row["distance"] >= row["chord"] - 1e-12


def test_geodesic_sphere_file_with_coordinates(capsys, tmp_path):
    path = tmp_path / "ball.body"
    save_body(SphereBody(1.0), path)
    code, out, _ = run_cli(
        capsys, "geodesic", "--body-file", str(path),
        "--from=1,0,0", "--to=-1,0,0", "--format", "json-lines",
    )
    assert code == 0
    (row,) = parse_jsonl(out)
    assert row["kind"] == "exact"
    assert row["distance"] == pytest.approx(math.pi, rel=1e-12)


def test_geodesic_polygon_arclength_endpoints(capsys, tmp_path):
    path = tmp_path / "square.body"
    square = regular_polygon(4, math.sqrt(0.5))  # unit edge
    save_body(square, path)
    code, out, _ = run_cli(
        capsys, "geodesic", "--body-file", str(path),
        "--from", "arclength:0", "--to", "arclength:1.5",
        "--format", "json-lines",
    )
    assert code == 0
    (row,) = parse_jsonl(out)
    assert row["distance"] == pytest.approx(1.5, rel=1e-12)
    assert row["kind"] == "exact"


def test_geodesic_rejects_off_boundary_point(capsys, tmp_path):
    path = tmp_path / "ball.body"
    save_body(SphereBody(1.0), path)
    code, _, err = run_cli(
        capsys, "geodesic", "--body-file", str(path),
        "--from=0.5,0,0", "--to=-1,0,0",
    )
    assert code == 2
    assert "not on the boundary" in err


def test_geodesic_rejects_misfit_endpoint_kinds(capsys):
    code, _, err = run_cli(
        capsys, "geodesic", "--from", "arclength:0", "--to", "vertex:0"
    )
    assert code == 2
    assert "polygon" in err
    code, _, err = run_cli(
        capsys, "geodesic", "--body", "banana", "--from", "vertex:0",
        "--to", "vertex:1",
    )
    assert code == 2
    assert "unknown body" in err


# ---------------------------------------------------------------------------
# export and exit-code plumbing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def records_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("records") / "suite.jsonl"
    code = cli.main([*VERIFY_ARGS, "--format", "json-lines", "--output", str(path)])
    assert code == 0
    return path


def test_export_jsonl_csv_jsonl_is_lossless(capsys, records_file, tmp_path):
    as_csv = tmp_path / "suite.csv"
    back = tmp_path / "suite2.jsonl"
    assert cli.main(
        ["export", "--input", str(records_file), "--format", "csv",
         "--output", str(as_csv)]
    ) == 0
    assert cli.main(
        ["export", "--input", str(as_csv), "--format", "json-lines",
         "--output", str(back)]
    ) == 0
    capsys.readouterr()
    assert back.read_bytes() == records_file.read_bytes()


def test_export_pretty_renders_a_table(capsys, records_file):
    code, out, _ = run_cli(capsys, "export", "--input", str(records_file))
    assert code == 0
    assert out.splitlines()[0].startswith("theorem")
    assert "thm_1_1" in out


def test_export_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "export", "--input", "/tmp/does-not-exist.jsonl")
    assert code == 2
    assert "error:" in err


def test_export_rejects_wrong_schema(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema_version": 99}\n')
    code, _, err = run_cli(capsys, "export", "--input", str(bad))
    assert code == 2


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


def test_diff_of_a_file_with_itself_is_clean(capsys, records_file):
    code, out, _ = run_cli(capsys, "diff", str(records_file), str(records_file))
    assert code == 0
    count = len(records_file.read_text().splitlines())
    assert f"note: {count} records matched, 0 margins moved" in out
    assert "0 status or pass flips, 0 added, 0 dropped" in out


def test_diff_reports_margin_drift_in_ulps(capsys, records_file, tmp_path):
    rows = parse_jsonl(records_file.read_text())
    moved = [dict(row) for row in rows]
    moved[3]["margin"] = math.nextafter(math.nextafter(rows[3]["margin"], math.inf), math.inf)
    after = _write_jsonl(tmp_path / "after.jsonl", moved)
    code, out, err = run_cli(
        capsys, "diff", str(records_file), str(after), "--format", "json-lines"
    )
    assert code == 0  # drift alone is not a failure
    (row,) = parse_jsonl(out)
    assert (row["theorem"], row["change"], row["ulps"]) == (rows[3]["theorem_id"], "margin", 2)
    assert row["relative"] == pytest.approx(2 * 2.0**-52, rel=1.0)
    assert "1 margins moved (worst 2 ulp" in err


def test_diff_fails_on_flips_and_on_added_or_dropped_records(capsys, records_file, tmp_path):
    rows = parse_jsonl(records_file.read_text())
    flipped = [dict(row) for row in rows]
    flipped[0]["pass"] = not rows[0]["pass"]
    flipped[1]["status"] = "advisory" if rows[1]["status"] != "advisory" else "strict"
    after = _write_jsonl(tmp_path / "flipped.jsonl", flipped)
    code, out, _ = run_cli(capsys, "diff", str(records_file), str(after))
    assert code == 1
    assert "2 status or pass flips" in out
    dropped = _write_jsonl(tmp_path / "dropped.jsonl", rows[:-1])
    code, out, _ = run_cli(capsys, "diff", str(records_file), str(dropped))
    assert code == 1 and "0 added, 1 dropped" in out
    code, out, _ = run_cli(capsys, "diff", str(dropped), str(records_file))
    assert code == 1 and "1 added, 0 dropped" in out


def test_diff_counts_a_notes_only_change(capsys, records_file, tmp_path):
    rows = parse_jsonl(records_file.read_text())
    edited = [dict(row) for row in rows]
    edited[2]["bound_orientation_notes"] = rows[2]["bound_orientation_notes"] + " (edited)"
    after = _write_jsonl(tmp_path / "edited.jsonl", edited)
    code, out, err = run_cli(
        capsys, "diff", str(records_file), str(after), "--format", "json-lines"
    )
    assert code == 0  # notes alone are not a failure
    (row,) = parse_jsonl(out)
    assert (row["theorem"], row["change"], row["ulps"]) == (
        rows[2]["theorem_id"], "notes or params", 0
    )
    assert "0 margins moved" in err and "0 status or pass flips" in err
    assert "0 dropped, 1 notes or params changed" in err


def test_diff_reads_csv_records(capsys, records_file, tmp_path):
    as_csv = tmp_path / "suite.csv"
    assert cli.main(["export", "--input", str(records_file), "--format", "csv",
                     "--output", str(as_csv)]) == 0
    code, out, _ = run_cli(capsys, "diff", str(as_csv), str(records_file))
    assert code == 0
    assert "0 margins moved" in out


def test_numerical_failures_exit_three(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericalError("synthetic blow-up", diagnostics={"n": 7})

    monkeypatch.setattr(cli, "scan_ab", explode)
    code, _, err = run_cli(capsys, "scan-ab", "--n-min", "2", "--n-max", "5")
    assert code == 3
    assert "numerical failure" in err
    assert '"n": 7' in err


def test_import_leaves_scipy_geometry_unloaded_until_a_polytope():
    probe = (
        "import sys, dispbound.cli\n"
        "print([m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules])\n"
        "dispbound.cli.cube()\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    src = str(Path(dispbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.splitlines() == ["[]", "True"]


def test_usage_errors_from_argparse(capsys):
    assert cli.main([]) == 2
    assert cli.main(["constants", "--format", "yaml"]) == 2
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
