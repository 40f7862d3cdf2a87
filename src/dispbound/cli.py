"""Command-line front end.

Subcommands expose the constants table, the a/b crossing scan, exact-versus-
asymptotic comparisons, the geometric verification suite, single geodesic
queries, record format conversion, and record diffs.  Everything runs in
one thread.

Exit codes: 0 all checks pass, 1 an inequality was violated (for ``diff``:
a status or pass flip, an added or a dropped record), 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import math
import sys
from pathlib import Path
from collections.abc import Sequence

import numpy as np

from .asymptotics import QUANTITIES, compare
from .constants import (
    DEFAULT_KIND,
    KINDS,
    constants_table,
    quoted_closed_form_h2,
    scan_ab,
)
from .errors import ConfigurationError, NumericalError
from .geometry import PolygonBoundary, Polytope3, cube, load_body
from .numerics import LOG_PI, decode_logs
from .verify import (
    SCHEMA_VERSION,
    SuiteConfig,
    SuiteReport,
    VerificationRecord,
    diff_records,
    load_records_csv,
    load_records_jsonl,
    records_to_csv,
    records_to_jsonl,
    run_suite,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

FORMATS = ("pretty", "csv", "json-lines")
MACHINE_DIGITS = 17
PRETTY_DIGITS = 6

# Linear columns stop carrying information long before float64 saturates:
# past half the safe exp range a displayed value cannot survive a single
# further linear product, so only the explicit log column is printed.
LINEAR_LOG_LIMIT = 354.0
UNDERFLOW_MARKER = "underflow"
OVERFLOW_MARKER = "overflow"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _cell_text(value, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, f".{digits}g")
    return str(value)


def _union_keys(rows: Sequence[dict]) -> list[str]:
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    return keys


def _render_csv(rows: Sequence[dict]) -> str:
    keys = _union_keys(rows)
    buf = io.StringIO()
    writer = csv_module.writer(buf, lineterminator="\n")
    writer.writerow(["schema_version", *keys])
    for row in rows:
        writer.writerow(
            [str(SCHEMA_VERSION)]
            + [_cell_text(row.get(key), MACHINE_DIGITS) for key in keys]
        )
    return buf.getvalue()


_JSONL_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _render_jsonl(rows: Sequence[dict]) -> str:
    encode = _JSONL_ENCODER.encode
    return "".join(
        encode({"schema_version": SCHEMA_VERSION, **row}) + "\n" for row in rows
    )


def _render_pretty(rows: Sequence[dict], notes: Sequence[str] = ()) -> str:
    # consecutive rows with the same keys render as one aligned block
    blocks: list[tuple[tuple[str, ...], list[dict]]] = []
    for row in rows:
        signature = tuple(row)
        if blocks and blocks[-1][0] == signature:
            blocks[-1][1].append(row)
        else:
            blocks.append((signature, [row]))
    parts: list[str] = []
    for signature, block in blocks:
        texts = [
            [_cell_text(row[key], PRETTY_DIGITS) for key in signature]
            for row in block
        ]
        numeric = [
            all(
                isinstance(row[key], (int, float)) or row[key] is None
                for row in block
            )
            for key in signature
        ]
        widths = [
            max(len(key), *(len(text[i]) for text in texts))
            for i, key in enumerate(signature)
        ]
        def line(cells: list[str]) -> str:
            padded = [
                cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])
                for i, cell in enumerate(cells)
            ]
            return "  ".join(padded).rstrip()

        parts.append(line(list(signature)))
        parts.append(line(["-" * w for w in widths]))
        parts.extend(line(text) for text in texts)
        parts.append("")
    for note in notes:
        parts.append(f"note: {note}")
    if notes:
        parts.append("")
    return "\n".join(parts[:-1]) + "\n" if parts else ""


def _render(rows: Sequence[dict], fmt: str, notes: Sequence[str] = ()) -> str:
    if fmt == "csv":
        return _render_csv(rows)
    if fmt == "json-lines":
        return _render_jsonl(rows)
    return _render_pretty(rows, notes)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output is not None:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# shared argument plumbing
# ---------------------------------------------------------------------------


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=FORMATS, default="pretty",
        help="output format (default: pretty)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="write to PATH instead of standard output",
    )


def _check_range(n_min: int, n_max: int) -> None:
    if not 2 <= n_min <= n_max <= 10**6:
        raise ConfigurationError(
            f"dimension range must satisfy 2 <= min <= max <= 10^6, "
            f"got {n_min}..{n_max}"
        )


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None
    if not values:
        raise ConfigurationError("empty dimension list")
    return values


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _linear_or_marker(log_value: float) -> float | str:
    if log_value < -LINEAR_LOG_LIMIT:
        return UNDERFLOW_MARKER
    if log_value > LINEAR_LOG_LIMIT:
        return OVERFLOW_MARKER
    return math.exp(log_value)


def cmd_constants(args: argparse.Namespace) -> int:
    _check_range(args.n_min, args.n_max)
    table = constants_table(np.arange(args.n_min, args.n_max + 1), args.kind)
    ns = table.n.tolist()
    log_h = table.log_h.tolist()
    log_reference = table.log_sphere - table.n * LOG_PI  # ln(sigma_n / pi^n)
    columns = {
        "n": ns,
        "rho_n": table.rho_n.tolist(),
        "a_n": decode_logs(table.log_a),
        "b_n": decode_logs(table.log_b),
        "c_n": decode_logs(table.log_c),
        "rho_star": table.rho_star.tolist(),
        "branch": table.branch.tolist(),
        "log_h_n": log_h,
        "h_n": [_linear_or_marker(v) for v in log_h],
        "paper_quoted": [quoted_closed_form_h2() if n == 2 else None for n in ns],
        "log_sphere_reference": log_reference.tolist(),
        "log_suboptimality": (table.log_h - log_reference).tolist(),
        "kind": [table.kind] * len(ns),
    }
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    notes = []
    if args.n_min <= 2 <= args.n_max:
        notes.append(
            "paper_quoted holds the radical closed form "
            "(pi/6)^(1/3)/(1+(pi/6)^(1/6))^2 = "
            f"{quoted_closed_form_h2():.6g}, printed beside the pipeline "
            "value on purpose: it equals a first-branch crossing against a "
            "halved comparison constant, not the crossing-pipeline h_2 "
            f"(= {rows[0]['h_n']:.6g}); "
            "see README for the reconciliation."
        )
    if any(row["h_n"] == UNDERFLOW_MARKER for row in rows):
        notes.append(
            f"h_n prints '{UNDERFLOW_MARKER}' once |log_h_n| passes "
            f"{LINEAR_LOG_LIMIT:g}; log_h_n stays exact at every n."
        )
    _emit(args, _render(rows, args.format, notes))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# scan-ab
# ---------------------------------------------------------------------------


def cmd_scan_ab(args: argparse.Namespace) -> int:
    _check_range(args.n_min, args.n_max)
    scan = scan_ab(args.n_min, args.n_max)
    rows: list[dict] = []
    if scan.ratios is not None:
        rows.extend(
            {"record": "ratio", "n": n, "a_over_b": float(ratio)}
            for n, ratio in zip(range(scan.n_min, scan.n_max + 1), scan.ratios)
        )
    rows.append(
        {
            "record": "summary",
            "n_min": scan.n_min,
            "n_max": scan.n_max,
            "violations": scan.violations,
            "min_ratio": scan.min_ratio,
            "argmin_n": scan.argmin_n,
            "ratio_at_n_max": scan.ratio_at_max,
            "gap_to_limit_2_sqrt_e": scan.limit_gap_at_max,
        }
    )
    notes = ()
    if args.format == "pretty":
        verdict = "no violations" if scan.violations == 0 else (
            f"{scan.violations} VIOLATIONS"
        )
        notes = (
            f"a_n > b_n over n = {scan.n_min}..{scan.n_max}: {verdict}; "
            f"min ratio {scan.min_ratio:.6g} at n = {scan.argmin_n}",
        )
    _emit(args, _render(rows, args.format, notes))
    return EXIT_PASS if scan.violations == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def cmd_asymptotics(args: argparse.Namespace) -> int:
    n_values = _parse_int_list(args.n)
    reports = compare(n_values, args.quantity, args.kind)
    rows = [
        {
            "n": report.n,
            "quantity": report.quantity,
            "exact": report.exact,
            "asymptotic": report.asymptotic,
            "abs_error": report.abs_error,
            "rel_error": report.rel_error,
        }
        for report in reports
    ]
    _emit(args, _render(rows, args.format))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_summary(report: SuiteReport) -> str:
    counts = dict(report.status_counts)
    return (
        f"suite {'PASS' if report.passed else 'FAIL'}: "
        f"{len(report.records)} records "
        f"(strict {counts.get('strict', 0)}, "
        f"equality {counts.get('equality', 0)}, "
        f"advisory {counts.get('advisory', 0)}, "
        f"not_applicable {counts.get('not_applicable', 0)}); "
        f"{len(report.strict_failures)} strict failures, "
        f"{len(report.equality_failures)} equality failures, "
        f"{len(report.missing_notes)} orientation-audit flags, "
        f"{len(report.skipped)} skipped; "
        f"min central distortion {report.min_central_rho_hat:.6g}; "
        f"{report.elapsed_seconds:.1f} s"
    )


def _pretty_suite(report: SuiteReport) -> str:
    lines = [_suite_summary(report)]
    for label, failures in (
        ("strict failure", report.strict_failures),
        ("equality failure", report.equality_failures),
    ):
        for theorem_id, body_id, map_id in failures:
            lines.append(f"{label}: {theorem_id} on {body_id} / {map_id or '-'}")
    for index in report.missing_notes:
        rec = report.records[index]
        lines.append(
            f"orientation audit (silent notes or unsafe strict input): "
            f"{rec.theorem_id} on {rec.body_id} / {rec.map_id or '-'}"
        )
    if report.skipped:
        lines.append(f"skipped ({len(report.skipped)}):")
        lines.extend(
            f"  {body_id} / {map_id}: {reason}"
            for body_id, map_id, reason in report.skipped
        )
    return "".join(line + "\n" for line in lines)


def cmd_verify(args: argparse.Namespace) -> int:
    config = SuiteConfig(
        seed=args.seed,
        samples=args.samples,
        polytope_count=args.polytopes,
        distance_cap=args.distance_cap,
        subdivision=args.subdiv,
        chakerian_directions=args.directions,
    )
    report = run_suite(config)
    if args.format == "csv":
        text = records_to_csv(report.records)
    elif args.format == "json-lines":
        text = records_to_jsonl(report.records)
    else:
        text = _pretty_suite(report)
    _emit(args, text)
    if args.format != "pretty":
        print(_suite_summary(report), file=sys.stderr)
    return EXIT_PASS if report.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------


def _resolve_point(body, spec: str) -> np.ndarray:
    kind, _, rest = spec.partition(":")
    if kind == "face-center":
        if not isinstance(body, Polytope3):
            raise ConfigurationError("face-center endpoints need a polytope body")
        index = _spec_index(rest, len(body.faces), "face")
        return np.asarray(body.faces[index].centroid, dtype=float)
    if kind == "vertex":
        if not isinstance(body, (Polytope3, PolygonBoundary)):
            raise ConfigurationError("vertex endpoints need a polytope or polygon")
        index = _spec_index(rest, len(body.vertices), "vertex")
        return np.asarray(body.vertices[index], dtype=float)
    if kind == "arclength":
        if not isinstance(body, PolygonBoundary):
            raise ConfigurationError("arclength endpoints need a polygon body")
        try:
            t = float(rest)
        except ValueError:
            raise ConfigurationError(f"bad arclength value {rest!r}") from None
        return body.point_at(t)
    try:
        coords = np.array([float(part) for part in spec.split(",")], dtype=float)
    except ValueError:
        raise ConfigurationError(
            f"bad endpoint {spec!r}: expected 'face-center:I', 'vertex:I', "
            "'arclength:T', or comma-separated coordinates"
        ) from None
    if coords.shape != (body.surface_dimension + 1,):
        raise ConfigurationError(
            f"endpoint {spec!r} has {coords.size} coordinates, "
            f"body lives in dimension {body.surface_dimension + 1}"
        )
    interior = body.interior_point()
    direction = coords - interior
    if not np.linalg.norm(direction) > 0.0:
        raise ConfigurationError("endpoint coincides with the interior point")
    probe = body.ray_exit(interior, direction)
    if np.linalg.norm(probe - coords) > 1e-9 * body.scale:
        raise ConfigurationError(f"endpoint {spec!r} is not on the boundary")
    return coords


def _spec_index(text: str, count: int, what: str) -> int:
    try:
        index = int(text)
    except ValueError:
        raise ConfigurationError(f"bad {what} index {text!r}") from None
    if not 0 <= index < count:
        raise ConfigurationError(
            f"{what} index {index} out of range 0..{count - 1}"
        )
    return index


def _point_text(point: np.ndarray) -> str:
    return "(" + ",".join(format(c, ".17g") for c in point) + ")"


def cmd_geodesic(args: argparse.Namespace) -> int:
    if args.body_file is not None:
        body = load_body(args.body_file)
        body_name = str(args.body_file)
    elif args.body == "cube":
        body = cube(args.edge)
        body_name = f"cube(edge={args.edge:g})"
    else:
        raise ConfigurationError(
            f"unknown body {args.body!r}; built-ins: cube (use --body-file "
            "for saved bodies)"
        )
    start = _resolve_point(body, getattr(args, "from"))
    stop = _resolve_point(body, args.to)
    if isinstance(body, Polytope3):
        values, kind = body.intrinsic_distances_batch(start[None], stop[None], args.subdiv)
        distance = float(values[0])
        subdivision = args.subdiv
    else:
        if args.subdiv is not None:
            raise ConfigurationError("--subdiv only applies to polytope bodies")
        distance, kind = body.intrinsic_distance(start, stop)
        subdivision = None
    chord = float(np.linalg.norm(stop - start))
    rows = [
        {
            "body": body_name,
            "from": _point_text(start),
            "to": _point_text(stop),
            "subdivision": subdivision,
            "distance": distance,
            "kind": kind,
            "chord": chord,
            "distance_over_chord": distance / chord if chord > 0.0 else 1.0,
        }
    ]
    _emit(args, _render(rows, args.format))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _pretty_records(records: Sequence[VerificationRecord]) -> str:
    rows = [
        {
            "theorem": rec.theorem_id,
            "body": rec.body_id,
            "map": rec.map_id or "-",
            "status": rec.status,
            "pass": rec.passed,
            "lhs": rec.lhs,
            "rhs": rec.rhs,
            "margin": rec.margin,
        }
        for rec in records
    ]
    return _render_pretty(rows)


def _load_records(path: Path, input_format: str = "auto") -> tuple[VerificationRecord, ...]:
    if input_format == "auto":
        input_format = "csv" if path.suffix.lower() == ".csv" else "json-lines"
    if input_format == "csv":
        return load_records_csv(path)
    return load_records_jsonl(path)


def cmd_export(args: argparse.Namespace) -> int:
    records = _load_records(args.input, args.input_format)
    if args.format == "csv":
        text = records_to_csv(records)
    elif args.format == "json-lines":
        text = records_to_jsonl(records)
    else:
        text = _pretty_records(records)
    _emit(args, text)
    return EXIT_PASS


def cmd_diff(args: argparse.Namespace) -> int:
    diff = diff_records(_load_records(args.before), _load_records(args.after))
    _emit(args, _render(list(diff.rows), args.format, [diff.summary()]))
    if args.format != "pretty":
        print(diff.summary(), file=sys.stderr)
    return EXIT_PASS if diff.clean else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispbound",
        description=(
            "Displacement-based area, volume, and width bounds for convex "
            "hypersurfaces: constants, asymptotics, and geometric verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "constants", help="per-dimension crossing constants table"
    )
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--kind", choices=KINDS, default=DEFAULT_KIND)
    _add_output_options(p)
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser(
        "scan-ab", help="scan the crossing-ordering ratio a_n/b_n over a range"
    )
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=100_000)
    _add_output_options(p)
    p.set_defaults(handler=cmd_scan_ab)

    p = sub.add_parser(
        "asymptotics", help="exact pipeline values against large-n formulas"
    )
    p.add_argument("--quantity", choices=QUANTITIES, default="log_h_n")
    p.add_argument(
        "--n", default="100,1000,10000", metavar="N1,N2,...",
        help="comma-separated dimensions (default: 100,1000,10000)",
    )
    p.add_argument("--kind", choices=KINDS, default=DEFAULT_KIND)
    _add_output_options(p)
    p.set_defaults(handler=cmd_asymptotics)

    p = sub.add_parser(
        "verify", help="run the geometric verification suite"
    )
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--polytopes", type=int, default=20)
    p.add_argument("--subdiv", type=int, default=6)
    p.add_argument("--distance-cap", type=int, default=300)
    p.add_argument("--directions", type=int, default=10)
    _add_output_options(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "geodesic", help="one intrinsic-distance query on a convex body"
    )
    p.add_argument(
        "--body", default="cube", help="built-in body name (default: cube)"
    )
    p.add_argument(
        "--body-file", type=Path, default=None,
        help="load the body from a saved body file instead",
    )
    p.add_argument("--edge", type=float, default=1.0, help="cube edge length")
    endpoint_help = (
        "'face-center:I', 'vertex:I', 'arclength:T', or coordinates 'x,y[,z]' "
        "(write --to=-1,0,0 when the value starts with '-')"
    )
    p.add_argument("--from", required=True, metavar="POINT", help=endpoint_help)
    p.add_argument("--to", required=True, metavar="POINT", help=endpoint_help)
    p.add_argument(
        "--subdiv", type=int, default=None,
        help="edge subdivision for polytope geodesic graphs",
    )
    _add_output_options(p)
    p.set_defaults(handler=cmd_geodesic)

    p = sub.add_parser(
        "export", help="convert verification record files between formats"
    )
    p.add_argument("--input", type=Path, required=True)
    p.add_argument(
        "--input-format", choices=("auto", "csv", "json-lines"), default="auto"
    )
    _add_output_options(p)
    p.set_defaults(handler=cmd_export)

    p = sub.add_parser(
        "diff",
        help="margin drift, status and pass flips, and added or dropped "
        "records between two record files (exit 1 on a flip, an added or "
        "a dropped record)",
    )
    p.add_argument("before", type=Path, help="records before (.jsonl or .csv)")
    p.add_argument("after", type=Path, help="records after (.jsonl or .csv)")
    _add_output_options(p)
    p.set_defaults(handler=cmd_diff)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics:
            print(
                json.dumps(diagnostics, default=str, sort_keys=True),
                file=sys.stderr,
            )
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
