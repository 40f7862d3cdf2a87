"""Tests for the command-line front end (in-process via cli.main)."""

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dispbound
from dispbound import cli
from dispbound import constants as cmod
from dispbound.constants import (
    constants_row,
    constants_table,
    quoted_closed_form_h2,
    sphere_reference,
)
from dispbound.errors import NumericalError
from dispbound.geometry import CylinderBody, SphereBody, cube, geodesic, regular_polygon, save_body
from dispbound.verify import SCHEMA_VERSION, SuiteConfig, load_records_jsonl

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
    render, render_frames, notes = cli._render, cli._render_frames, []

    def keep_notes(frames, fmt, frame_notes=()):
        notes[:] = frame_notes
        return render_frames(frames, fmt, frame_notes)

    monkeypatch.setattr(cli, "_render_frames", keep_notes)
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


def _doctored_table(monkeypatch, column, index, value):
    real = cli.constants_table

    def doctored(ns, kind):
        table = real(ns, kind)
        values = getattr(table, column).copy()
        values[index] = value
        return dataclasses.replace(table, **{column: values})

    monkeypatch.setattr(cli, "constants_table", doctored)


@pytest.mark.parametrize(
    "column, value, fmt, message",
    [
        ("log_c", 700.0, "json-lines", "refusing to decode log magnitude 700"),
        ("log_a", -700.0, "csv", "refusing to decode log magnitude -700"),
        ("rho_star", math.nan, "json-lines", "Out of range float values"),
        ("log_h", math.inf, "json-lines", "Out of range float values"),
    ],
)
def test_a_refusal_in_the_last_block_leaves_no_output(
    capsys, monkeypatch, tmp_path, column, value, fmt, message
):
    # 2..40 is six blocks of 7 rows; only the last row is refused
    monkeypatch.setattr(cmod, "BLOCK", 7)
    _doctored_table(monkeypatch, column, -1, value)
    argv = ["constants", "--n-min", "2", "--n-max", "40", "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and message in err
    target = tmp_path / "table.out"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "") and message in err
    assert not target.exists()


def _refused_json_values(monkeypatch):
    """The values whose JSON encoding the CLI refuses, in order."""
    refused, encode = [], cli._json_value

    def recording(value):
        try:
            return encode(value)
        except ValueError:
            refused.append(value)
            raise

    monkeypatch.setattr(cli, "_json_value", recording)
    return refused


@pytest.mark.parametrize("fmt, doctored, message", [
    # a_n decodes before b_n, so its refusal comes first though its row is later
    ("csv", (("log_b", 3, 700.0), ("log_a", -1, -700.0)), "refusing to decode log magnitude -700"),
    # the first non-finite value in row order, whatever its column
    ("json-lines", (("rho_star", 30, math.nan), ("log_h", 10, math.inf)),
     "Out of range float values"),
], ids=["decode-column-order", "json-row-order"])
def test_the_first_refusal_is_named_whichever_block_holds_it(
    capsys, monkeypatch, tmp_path, fmt, doctored, message
):
    # 2..40 is six blocks of 7 rows; rows 3, 10, 30 and 38 lie in blocks 1, 2, 5 and 6
    monkeypatch.setattr(cmod, "BLOCK", 7)
    for column, index, value in doctored:
        _doctored_table(monkeypatch, column, index, value)
    refused = _refused_json_values(monkeypatch)
    argv = ["constants", "--n-min", "2", "--n-max", "40", "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and message in err
    target = tmp_path / "table.out"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "") and message in err
    assert not target.exists()
    assert refused == ([math.inf] * 2 if fmt == "json-lines" else [])


def test_csv_and_pretty_print_what_json_refuses(capsys, monkeypatch):
    _doctored_table(monkeypatch, "rho_star", 1, math.nan)
    for fmt, cell, line in (("csv", ",nan,", 2), ("pretty", " nan ", 3)):
        code, out, _ = run_cli(capsys, "constants", "--n-min", "2", "--n-max", "4", "--format", fmt)
        assert code == 0 and cell in out.splitlines()[line]


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_constants_and_scan_output_do_not_depend_on_the_block_size(capsys, monkeypatch, fmt):
    commands = (
        ["constants", "--n-min", "2", "--n-max", "60", "--format", fmt],
        ["constants", "--n-min", "140", "--n-max", "170", "--kind", "bezdek", "--format", fmt],
        ["scan-ab", "--n-min", "2", "--n-max", "50", "--format", fmt],
    )
    for argv in commands:
        outputs = []
        for block in (10**9, 1, 7):
            monkeypatch.setattr(cmod, "BLOCK", block)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            outputs.append(out)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_constants_streams_with_less_memory_than_its_output(tmp_path):
    # the old route held every row as a dict and the whole text at once;
    # the joined text alone was the size of the file
    target = tmp_path / "table.jsonl"
    tracemalloc.start()
    try:
        code = cli.main([
            "constants", "--n-min", "2", "--n-max", "100000",
            "--format", "json-lines", "--output", str(target),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < target.stat().st_size


def test_constants_holds_the_table_and_one_block(tmp_path):
    # past 11 whole-length columns of 8 N bytes (the table holds ten) the
    # command holds one block's rendering, about 7 MiB at 16,384 rows; one
    # more whole-length float column (1.5 MiB) would pass the bound, as
    # would whole-length reference, suboptimality or decode-check arrays
    count = 200_000 - 1
    target = tmp_path / "table.jsonl"
    tracemalloc.start()
    try:
        code = cli.main([
            "constants", "--n-min", "2", "--n-max", "200000",
            "--format", "json-lines", "--output", str(target),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak - 11 * 8 * count < 8 * 2**20


# the dict-per-row renderers the column renderer replaced, kept as its oracle


def _old_union_keys(rows):
    keys = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    return keys


def _old_render_csv(rows):
    keys = _old_union_keys(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema_version", *keys])
    for row in rows:
        writer.writerow(
            [str(SCHEMA_VERSION)]
            + [cli._cell_text(row.get(key), cli.MACHINE_DIGITS) for key in keys]
        )
    return buf.getvalue()


def _old_render_jsonl(rows):
    encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
    return "".join(encode({"schema_version": SCHEMA_VERSION, **row}) + "\n" for row in rows)


def _old_render_pretty(rows, notes=()):
    blocks = []
    for row in rows:
        signature = tuple(row)
        if blocks and blocks[-1][0] == signature:
            blocks[-1][1].append(row)
        else:
            blocks.append((signature, [row]))
    parts = []
    for signature, block in blocks:
        texts = [[cli._cell_text(row[key], cli.PRETTY_DIGITS) for key in signature] for row in block]
        numeric = [
            all(isinstance(row[key], (int, float)) or row[key] is None for row in block)
            for key in signature
        ]
        widths = [max(len(key), *(len(t[i]) for t in texts)) for i, key in enumerate(signature)]

        def line(cells):
            return "  ".join(
                c.rjust(widths[i]) if numeric[i] else c.ljust(widths[i]) for i, c in enumerate(cells)
            ).rstrip()

        parts += [line(list(signature)), line(["-" * w for w in widths])]
        parts += [line(t) for t in texts] + [""]
    parts += [f"note: {note}" for note in notes] + ([""] if notes else [])
    return "\n".join(parts[:-1]) + "\n" if parts else ""


MIXED_ROWS = [
    {"a": 1, "b": -0.0, "c": "x"},
    {"a": 2, "b": 1e-300, "c": None},
    {"a": np.int64(3), "b": np.float64(2.5), "c": True},
    {"d": 'say "hi", then go', "a": 5e300},
    {"d": "ünïcode\n", "a": False},
    {"a": 1, "b": 1 / 3, "c": "tail"},
]


def _outcome(render, *args):
    try:
        return render(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("rows", [MIXED_ROWS, MIXED_ROWS[:1], MIXED_ROWS[3:], []])
@pytest.mark.parametrize("notes", [(), ("first", "second")])
def test_render_equals_the_dict_per_row_renderers(monkeypatch, rows, notes):
    for block in (10**9, 1, 2):
        monkeypatch.setattr(cmod, "BLOCK", block)
        assert cli._render(rows, "csv", notes) == _old_render_csv(rows)
        assert cli._render(rows, "pretty", notes) == _old_render_pretty(rows, notes)
        # an np.int64 is no JSON number to either: both raise the same error
        assert _outcome(cli._render, rows, "json-lines", notes) == _outcome(_old_render_jsonl, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64(-math.inf)])
def test_render_refuses_what_the_row_encoder_refuses(bad):
    rows = [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": bad}, {"a": 5.0, "b": 6.0}]
    with pytest.raises(ValueError) as old:
        _old_render_jsonl(rows)
    with pytest.raises(ValueError) as new:
        cli._render(rows, "json-lines")
    assert str(new.value) == str(old.value)


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


@pytest.mark.parametrize("n_min, n_max, message", [
    (1, 3, "dimension must be an integer >= 2, got 1"),
    (5, 3, "empty scan range [5, 3]"),
    (2, 10**6 + 1, "scan range capped at 1e6, got n_max=1000001"),
])
def test_scan_ab_refuses_a_bad_range(capsys, n_min, n_max, message):
    # scan_ab's own range check is the only one on this path
    code, out, err = run_cli(
        capsys, "scan-ab", "--n-min", str(n_min), "--n-max", str(n_max)
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# The constants streams, pinned bit for bit to committed output
# ---------------------------------------------------------------------------

DATA = Path(__file__).resolve().parent / "data"


def _pinned_digests():
    lines = (DATA / "constants-2-5000.sha256").read_text().splitlines()  # sha256sum format
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.parametrize("kind", ["pal_firey", "bezdek"])
def test_constants_stream_has_the_committed_digest(capsys, kind):
    # a last-bit change in any column of any row changes the digest; the
    # benchmark's reference allows 8 ulp, so only this test sees it
    code, out, _ = run_cli(
        capsys, "constants", "--n-min", "2", "--n-max", "5000", "--kind", kind,
        "--format", "json-lines",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _pinned_digests()[f"constants-2-5000-{kind}.jsonl"]


def test_scan_ab_to_one_million_prints_the_committed_summary(capsys):
    code, out, _ = run_cli(
        capsys, "scan-ab", "--n-min", "2", "--n-max", "1000000", "--format", "json-lines"
    )
    assert code == 0
    assert out == (DATA / "scan-ab-2-1000000.jsonl").read_text()


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


def test_asymptotics_refuses_a_huge_bezdek_dimension(capsys):
    code, out, err = run_cli(
        capsys, "asymptotics", "--kind", "bezdek", "--quantity", "log_h_n", "--n", str(10**15)
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: double factorials are tabulated up to 10^6 + 3, got 1000000000000003"
    ]


@pytest.mark.parametrize("n", [2**63, 10**20])
def test_asymptotics_refuses_a_dimension_past_int64(capsys, n):
    # 2^63 parses to a uint64 array, 10^20 to an object array; both refused
    code, out, err = run_cli(capsys, "asymptotics", "--n", str(n))
    assert (code, out) == (2, "")
    assert err.startswith("error: dimensions must be") and str(n) in err


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


def test_verify_pretty_summarises_and_lists_skips(capsys, records_file):
    code, out, _ = run_cli(capsys, *VERIFY_ARGS)
    assert code == 0
    assert out.startswith("suite PASS")
    assert "skipped (" in out
    assert "not centrally symmetric" in out
    # the eight tightest strict margins of the same run, smallest first
    lines = out.splitlines()
    first = lines.index("tightest strict margins (relative):") + 1
    rows = [line.split() for line in lines[first:first + 8]]
    assert lines[first + 8].startswith("skipped (")
    relative = [float(row[3]) for row in rows]
    assert relative == sorted(relative) and relative[0] > 0
    strict = [r for r in load_records_jsonl(records_file) if r.status == "strict"]
    tightest = sorted(strict, key=lambda r: r.margin / max(abs(r.rhs), 1e-300))[:8]
    assert [row[:3] for row in rows] == [
        [r.theorem_id, r.body_id, r.map_id or "-"] for r in tightest
    ]


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
        capsys, "geodesic", "--from", "face-center:0",
        "--to", "face-center:5", "--subdiv", "32", "--format", "json-lines",
    )
    assert code == 0
    (row,) = parse_jsonl(out)
    assert row["body"] == "cube(edge=1)"
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


FACES = ("--from", "face-center:0", "--to", "face-center:5")


@pytest.mark.parametrize("body, args, want", [
    (None, FACES, 8),  # the default cube's own subdivision
    (cube(1.0, geodesic_subdivision=3), FACES, 3),
    (None, (*FACES, "--subdiv", "32"), 32),
    (regular_polygon(4, 1.0), ("--from", "arclength:0", "--to", "arclength:1"), None),
])
def test_geodesic_reports_the_subdivision_it_used(capsys, tmp_path, body, args, want):
    if body is not None:
        path = tmp_path / "shape.body"
        save_body(body, path)
        args = ("--body-file", str(path), *args)
    code, out, _ = run_cli(capsys, "geodesic", *args, "--format", "json-lines")
    assert code == 0
    (row,) = parse_jsonl(out)
    assert row["subdivision"] == want


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
    assert err.startswith("error: point is not on the sphere: array([0.5, 0. , 0. ])")


def _refuse(*args, **kwargs):
    raise AssertionError("a geodesic table was built for an off-boundary point")


@pytest.mark.parametrize("body, args, message", [
    (SphereBody(1.0), ("--from=0,0,0", "--to=-1,0,0"), "point is not on the sphere"),
    (CylinderBody(2, 0.25, 0.7), ("--from=0,0,0", "--to=0,0,0.35"),
     "point is not on the cylinder boundary"),
    (regular_polygon(4, 1.0), ("--from=0.1,0", "--to=vertex:0"),
     "point is not on the polygon boundary"),
    (None, ("--from=0,0,0", "--to=vertex:0", "--subdiv", "0"),
     "query point is not on the polytope boundary"),
    (None, ("--from=vertex:0", "--to=0.25,0,0", "--subdiv", "32"),
     "query point is not on the polytope boundary"),
], ids=["sphere", "cylinder", "polygon", "polytope-cached", "polytope-uncached"])
def test_geodesic_refuses_an_off_boundary_point_by_the_bodys_own_test(
        capsys, monkeypatch, tmp_path, body, args, message):
    # the polytope's m = 0 graph is the cached one every fresh pair starts from
    monkeypatch.setattr(geodesic.GeodesicGraph, "_distance_table", _refuse)
    monkeypatch.setattr(geodesic, "_relax", _refuse)
    monkeypatch.setattr(geodesic, "_relax_arcs", _refuse)
    if body is not None:
        path = tmp_path / "shape.body"
        save_body(body, path)
        args = ("--body-file", str(path), *args)
    code, out, err = run_cli(capsys, "geodesic", *args)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}: array(") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["nan,0,0", "0,inf,0"])
def test_geodesic_names_a_non_finite_endpoint(capsys, spec):
    # nan used to be reported as coinciding with the interior point
    code, out, err = run_cli(capsys, "geodesic", f"--from={spec}", "--to=vertex:0")
    assert (code, out) == (2, "")
    assert err == f"error: endpoint {spec!r} has non-finite coordinates\n"


def test_geodesic_refuses_a_malformed_body_file(capsys, malformed_body):
    code, out, err = run_cli(
        capsys, "geodesic", "--body-file", str(malformed_body.path),
        "--from=1,0,0", "--to=0,1,0",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {malformed_body.where}") and err.count("\n") == 1
    assert malformed_body.names in err


@pytest.mark.parametrize("subdiv", ["-1", "-2"])
def test_geodesic_rejects_a_negative_subdivision(capsys, subdiv):
    # -1 used to end in a ZeroDivisionError traceback, -2 in an isqrt error
    code, out, err = run_cli(
        capsys, "geodesic", "--from", "face-center:0", "--to", "face-center:5",
        "--subdiv", subdiv,
    )
    assert (code, out) == (2, "")
    assert err == "error: geodesic subdivision must be nonnegative\n"


@pytest.mark.parametrize("subdiv", [65, 10**20])
def test_geodesic_rejects_a_subdivision_past_the_cap(capsys, subdiv):
    # 3000 was killed for memory, 10^20 ended in a 44 GiB allocation traceback
    code, out, err = run_cli(
        capsys, "geodesic", "--from", "face-center:0", "--to", "face-center:5",
        "--subdiv", str(subdiv),
    )
    assert (code, out) == (2, "")
    assert err == f"error: geodesic subdivision must be at most 64, got {subdiv}\n"


def test_geodesic_rejects_misfit_endpoint_kinds(capsys):
    code, _, err = run_cli(
        capsys, "geodesic", "--from", "arclength:0", "--to", "vertex:0"
    )
    assert code == 2
    assert "polygon" in err


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


def test_export_and_diff_refuse_malformed_records(capsys, malformed_records, records_file):
    bad = str(malformed_records.path)
    for argv in (("export", "--input", bad), ("diff", str(records_file), bad),
                 ("diff", bad, str(records_file))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: {bad}, line {malformed_records.line}: ")
        assert malformed_records.names in line


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


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_numerical_failure_diagnostics_are_strict_json(capsys, monkeypatch):
    # at n = 9e18 log b_n overflows to inf and the crossing cannot be bracketed
    code, out, err = run_cli(capsys, "asymptotics", "--n", str(9 * 10**18))
    assert (code, out) == (3, "")
    diagnostics = json.loads(err.splitlines()[-1], parse_constant=_refuse_constant)
    assert diagnostics["log_b"] == "inf" and diagnostics["n"] == 9 * 10**18

    def explode(*args, **kwargs):
        raise NumericalError("synthetic", diagnostics={
            "a": math.nan, "b": -math.inf, "c": np.float64(math.inf), "d": 1.5,
        })

    monkeypatch.setattr(cli, "scan_ab", explode)
    code, _, err = run_cli(capsys, "scan-ab", "--n-min", "2", "--n-max", "5")
    assert code == 3
    assert json.loads(err.splitlines()[-1], parse_constant=_refuse_constant) == {
        "a": "nan", "b": "-inf", "c": "inf", "d": 1.5,
    }


def _probe(code: str) -> list[str]:
    """The stdout lines of ``python -c code`` with dispbound on the path."""
    src = str(Path(dispbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return result.stdout.splitlines()


# the runtime is numpy only: no probe may find scipy or a scipy.* module
_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"


def test_import_and_a_cold_geodesic_never_load_scipy():
    probe = (
        "import io, sys, contextlib, dispbound.cli\n"
        + _SCIPY_LOADED
        + "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = dispbound.cli.main(['geodesic', '--from', 'face-center:0',\n"
        "                               '--to', 'face-center:5', '--subdiv', '32'])\n"
        "print(code)\n"
        + _SCIPY_LOADED
    )
    assert _probe(probe) == ["[]", "0", "[]"]


def test_verify_with_a_random_polytope_never_loads_scipy():
    probe = (
        "import io, sys, contextlib, dispbound.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = dispbound.cli.main(['verify', '--seed', '1729', '--polytopes', '1'])\n"
        "print(code)\n"
        + _SCIPY_LOADED
    )
    assert _probe(probe)[-2:] == ["0", "[]"]


def test_verify_reads_suite_config_defaults_and_seed_check(capsys):
    args = cli.build_parser("verify").parse_args(["verify"])
    defaults = SuiteConfig()
    assert (args.seed, args.samples, args.polytopes) == (
        defaults.seed, defaults.samples, defaults.polytope_count
    )
    code, out, err = run_cli(capsys, "verify", "--seed", "-1", "--polytopes", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be >= 0") and err.count("\n") == 1


def test_python_m_dispbound_runs_the_cli():
    src = str(Path(dispbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "dispbound", "--help"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert result.returncode == 0 and "usage: dispbound" in result.stdout


# every option each subcommand takes; a setting no caller varies is a
# constant, so an option comes back only with a change to this table
OPTION_SURFACE = {
    "constants": {"--n-min", "--n-max", "--kind", "--format", "--output"},
    "scan-ab": {"--n-min", "--n-max", "--format", "--output"},
    "asymptotics": {"--quantity", "--n", "--kind", "--format", "--output"},
    "verify": {"--seed", "--samples", "--polytopes", "--format", "--output"},
    "geodesic": {"--body-file", "--from", "--to", "--subdiv", "--format", "--output"},
    "export": {"--input", "--format", "--output"},
    "diff": {"before", "after", "--format", "--output"},
}


def _option_surface(parser):
    (commands,) = [
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: {
            option
            for action in parser._actions if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings or [action.dest]
        }
        for name, parser in commands.items()
    }


def test_option_surface_is_pinned():
    assert _option_surface(cli.build_parser()) == OPTION_SURFACE
    # main builds only the chosen subcommand's parser, with the same options
    for name in OPTION_SURFACE:
        assert _option_surface(cli.build_parser(name)) == {name: OPTION_SURFACE[name]}


def _full_parser_run(argv):
    """Exit code and output of the parser of every subcommand on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.build_parser().parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["verif"], ["--help"], ["-h", "verify"], ["--bogus", "verify"],
    *([name, "--help"] for name in OPTION_SURFACE),
    *([name, "--bogus", "1"] for name in OPTION_SURFACE),
    ["verify", "--fo", "csv"], ["verify", "constants"], ["geodesic", "--to", "vertex:0"],
    ["constants", "--format", "yaml"], ["diff", "only-one.jsonl"],
], ids=" ".join)
def test_main_reads_as_the_parser_of_every_subcommand(capsys, monkeypatch, argv):
    # help and usage errors, also those naming every subcommand, are the
    # full parser's, whichever parser main builds
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == _full_parser_run(argv)


REMOVED_OPTIONS = {
    "verify --subdiv": ["verify", "--samples", "200", "--polytopes", "0", "--subdiv", "6"],
    "verify --distance-cap": [
        "verify", "--samples", "200", "--polytopes", "0", "--distance-cap", "300",
    ],
    "verify --directions": [
        "verify", "--samples", "200", "--polytopes", "0", "--directions", "10",
    ],
    "export --input-format": [
        "export", "--input", str(Path(__file__).parent / "data" / "default-suite-1729.jsonl"),
        "--input-format", "auto",
    ],
    "geodesic --body": [
        "geodesic", "--from", "face-center:0", "--to", "face-center:5", "--body", "cube",
    ],
    "geodesic --edge": [
        "geodesic", "--from", "face-center:0", "--to", "face-center:5", "--edge", "1",
    ],
    # a prefix of a surviving option is no longer read as that option
    "verify --poly": ["verify", "--samples", "200", "--polytopes", "0", "--poly", "1"],
}


@pytest.mark.parametrize("argv", REMOVED_OPTIONS.values(), ids=list(REMOVED_OPTIONS))
def test_removed_options_are_usage_errors(capsys, tmp_path, argv):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, "--output", str(out))
    assert code == 2 and not out.exists()
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_usage_errors_from_argparse(capsys):
    assert cli.main([]) == 2
    assert cli.main(["constants", "--format", "yaml"]) == 2
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
