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
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .asymptotics import QUANTITIES, compare
from .constants import (
    DEFAULT_KIND,
    KINDS,
    constants_table,
    quoted_closed_form_h2,
    row_blocks,
    scan_ab,
)
from .errors import ConfigurationError, NumericalError
from .geometry import PolygonBoundary, Polytope3, cube, load_body
from .numerics import LOG_PI, check_decodable, decode_logs
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


def _text_cells(column, digits: int) -> Iterator[str]:
    """A column's CSV or pretty cells, made as they are read."""
    if isinstance(column, np.ndarray):
        values = column.tolist()
        if column.dtype.kind == "f":
            return map(format, values, repeat(f".{digits}g"))
        if column.dtype.kind in "iu":
            return map(str, values)
        if column.dtype.kind == "U":
            return iter(values)
        column = values
    return (_cell_text(value, digits) for value in column)


_JSONL_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _json_value(value) -> str:
    """One value as the row encoder writes it inside an object: floats by
    repr, refusing NaN and infinities as ``allow_nan=False`` does."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    return _JSONL_ENCODER.encode(value)  # raises on a non-finite float


def _json_cells(column) -> Iterator[str]:
    """A column's JSON values, made as they are read, so the first value
    refused is the first in row order, as with a row-by-row encoder."""
    if isinstance(column, np.ndarray):
        values = column.tolist()
        if column.dtype.kind == "f" and np.isfinite(column).all():
            return map(float.__repr__, values)
        if column.dtype.kind in "iu":
            return map(int.__repr__, values)
        if column.dtype.kind == "U":
            return map(encode_basestring_ascii, values)
        column = values
    return map(_json_value, column)


def _is_numeric(column) -> bool:
    if isinstance(column, np.ndarray):
        return column.dtype.kind in "biuf"
    return all(isinstance(value, (int, float)) or value is None for value in column)


@dataclass(frozen=True)
class _Frame:
    """Consecutive rows with the same keys, held as columns: ``block(rows)``
    gives every key's values for a slice of rows, each as a numpy array or
    a list, so no row needs a dict and a block is made only when written."""

    keys: tuple[str, ...]
    size: int
    block: Callable[[slice], Sequence[Sequence]]


def _row_frames(rows: Sequence[dict]) -> list[_Frame]:
    frames = []
    for keys, group in groupby(rows, key=tuple):
        group = list(group)
        columns = [[row[key] for row in group] for key in keys]
        frames.append(_Frame(keys, len(group), lambda rows, c=columns: [v[rows] for v in c]))
    return frames


def _render_csv(frames: Sequence[_Frame]) -> Iterator[str]:
    keys: list[str] = []  # every frame's keys, in order of first appearance
    for frame in frames:
        keys.extend(key for key in frame.keys if key not in keys)
    buf = io.StringIO()
    writer = csv_module.writer(buf, lineterminator="\n")
    writer.writerow(["schema_version", *keys])
    for frame in frames:
        for rows in row_blocks(frame.size):
            columns = dict(zip(frame.keys, frame.block(rows)))
            writer.writerows(zip(
                repeat(str(SCHEMA_VERSION), rows.stop - rows.start),
                *(_text_cells(columns[key], MACHINE_DIGITS) if key in columns else repeat("")
                  for key in keys),
            ))
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
    yield buf.getvalue()  # the header, when there are no rows


def _render_jsonl(frames: Sequence[_Frame]) -> Iterator[str]:
    for frame in frames:
        # one % template per row: the keys are fixed, only the values vary
        template = "{" + ",".join(
            encode_basestring_ascii(key).replace("%", "%%") + ":%s"
            for key in ("schema_version", *frame.keys)
        ) + "}\n"
        for rows in row_blocks(frame.size):
            # no name holds a block's cells, so they are freed before the
            # next block is made
            version = repeat(_json_value(SCHEMA_VERSION), rows.stop - rows.start)
            yield from map(template.__mod__, zip(version, *map(_json_cells, frame.block(rows))))


def _render_pretty(frames: Sequence[_Frame], notes: Sequence[str] = ()) -> Iterator[str]:
    # each frame is one aligned block; its widths take a first pass, so
    # only the widths are kept, not the cells
    for index, frame in enumerate(frames):
        widths = [len(key) for key in frame.keys]
        numeric = [True] * len(frame.keys)
        for rows in row_blocks(frame.size):
            for i, column in enumerate(frame.block(rows)):
                widths[i] = max(widths[i], max(map(len, _text_cells(column, PRETTY_DIGITS))))
                numeric[i] = numeric[i] and _is_numeric(column)

        def line(cells) -> str:
            padded = [
                cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])
                for i, cell in enumerate(cells)
            ]
            return "  ".join(padded).rstrip() + "\n"

        yield line(frame.keys) + line(["-" * w for w in widths])
        for rows in row_blocks(frame.size):
            cells = (_text_cells(column, PRETTY_DIGITS) for column in frame.block(rows))
            yield "".join(map(line, zip(*cells)))
        if notes or index < len(frames) - 1:
            yield "\n"
    for note in notes:
        yield f"note: {note}\n"


def _render_frames(
    frames: Sequence[_Frame], fmt: str, notes: Sequence[str] = ()
) -> Iterator[str]:
    """The text of ``frames``, in chunks (a row, or a block of rows) made
    only as they are read."""
    if fmt == "csv":
        return _render_csv(frames)
    if fmt == "json-lines":
        return _render_jsonl(frames)
    return _render_pretty(frames, notes)


def _render(rows: Sequence[dict], fmt: str, notes: Sequence[str] = ()) -> str:
    return "".join(_render_frames(_row_frames(rows), fmt, notes))


def _emit(args: argparse.Namespace, chunks: str | Iterable[str]) -> None:
    """Write text, or its chunks as they are made.  A command that streams
    makes every refusal before this is called, so none leaves partial
    output."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_records(args: argparse.Namespace, records, pretty: Callable[[], str]) -> None:
    """Write records in the chosen format; ``pretty`` makes the pretty text."""
    if args.format == "csv":
        _emit(args, records_to_csv(records))
    elif args.format == "json-lines":
        _emit(args, records_to_jsonl(records))
    else:
        _emit(args, pretty())


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


CONSTANTS_KEYS = (
    "n", "rho_n", "a_n", "b_n", "c_n", "rho_star", "branch", "log_h_n", "h_n",
    "paper_quoted", "log_sphere_reference", "log_suboptimality", "kind",
)


def _refuse_non_finite(*columns: np.ndarray) -> None:
    """The row encoder's refusal of the first NaN or infinity in row order
    (rows across, then ``columns`` in key order), raised before any output."""
    first = [
        (int(bad[0]), j)
        for j, column in enumerate(columns)
        if (bad := np.flatnonzero(~np.isfinite(column))).size
    ]
    if first:
        i, j = min(first)
        _json_value(float(columns[j][i]))  # raises


def cmd_constants(args: argparse.Namespace) -> int:
    _check_range(args.n_min, args.n_max)
    table = constants_table(np.arange(args.n_min, args.n_max + 1), args.kind)
    blocks = row_blocks(len(table.n))

    def log_references(rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """ln(sigma_n / pi^n) and ln h_n less it, for one block of rows."""
        log_reference = table.log_sphere[rows] - table.n[rows] * LOG_PI
        return log_reference, table.log_h[rows] - log_reference

    # every refusal comes before the first byte, each check a block at a
    # time in row order, so the first refused value is the one a whole-
    # column check names: decoding a_n, b_n, c_n ...
    for log_column in (table.log_a, table.log_b, table.log_c):
        for rows in blocks:
            check_decodable(log_column[rows])
    if args.format == "json-lines":
        # ... and JSON's lack of NaN and infinity, for every column not
        # finite by construction (decoded logs are below the decode limit)
        for rows in blocks:
            _refuse_non_finite(
                table.rho_n[rows], table.rho_star[rows], table.log_h[rows],
                *log_references(rows),
            )
    quoted = quoted_closed_form_h2()

    def block(rows: slice) -> list:
        n, log_h = table.n[rows], table.log_h[rows]
        a_n, b_n, c_n = (
            np.array(decode_logs(logs[rows])) for logs in (table.log_a, table.log_b, table.log_c)
        )
        return [
            n, table.rho_n[rows], a_n, b_n, c_n, table.rho_star[rows], np.full(len(n), "second"),
            log_h, [_linear_or_marker(v) for v in log_h.tolist()],
            [quoted if v == 2 else None for v in n.tolist()],
            *log_references(rows), np.full(len(n), table.kind),
        ]

    notes = []
    if args.n_min <= 2 <= args.n_max:
        notes.append(
            "paper_quoted holds the radical closed form "
            "(pi/6)^(1/3)/(1+(pi/6)^(1/6))^2 = "
            f"{quoted:.6g}, printed beside the pipeline "
            "value on purpose: it equals a first-branch crossing against a "
            "halved comparison constant, not the crossing-pipeline h_2 "
            f"(= {_linear_or_marker(float(table.log_h[0])):.6g}); "
            "see README for the reconciliation."
        )
    if np.any(table.log_h < -LINEAR_LOG_LIMIT):
        notes.append(
            f"h_n prints '{UNDERFLOW_MARKER}' once |log_h_n| passes "
            f"{LINEAR_LOG_LIMIT:g}; log_h_n stays exact at every n."
        )
    frame = _Frame(CONSTANTS_KEYS, len(table.n), block)
    _emit(args, _render_frames([frame], args.format, notes))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# scan-ab
# ---------------------------------------------------------------------------


def cmd_scan_ab(args: argparse.Namespace) -> int:
    scan = scan_ab(args.n_min, args.n_max)
    frames = []
    if scan.ratios is not None:
        count = len(scan.ratios)
        ns = np.arange(scan.n_min, scan.n_max + 1)
        frames.append(_Frame(
            ("record", "n", "a_over_b"), count,
            lambda rows: [["ratio"] * (rows.stop - rows.start), ns[rows], scan.ratios[rows]],
        ))
    frames.extend(_row_frames([
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
    ]))
    notes = ()
    if args.format == "pretty":
        verdict = "no violations" if scan.violations == 0 else (
            f"{scan.violations} VIOLATIONS"
        )
        notes = (
            f"a_n > b_n over n = {scan.n_min}..{scan.n_max}: {verdict}; "
            f"min ratio {scan.min_ratio:.6g} at n = {scan.argmin_n}",
        )
    # at most SCAN_KEEP_RATIOS_BELOW rows: rendered whole, so a refused
    # value leaves no partial output
    _emit(args, "".join(_render_frames(frames, args.format, notes)))
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

    def relative(rec: VerificationRecord) -> float:
        return rec.margin / max(abs(rec.rhs), 1e-300)

    strict = sorted((rec for rec in report.records if rec.status == "strict"), key=relative)
    lines.append("tightest strict margins (relative):")
    lines.extend(
        f"  {rec.theorem_id:<9} {rec.body_id:<26} {rec.map_id or '-':<16} {relative(rec):.4f}"
        for rec in strict[:8]
    )
    if report.skipped:
        lines.append(f"skipped ({len(report.skipped)}):")
        lines.extend(
            f"  {body_id} / {map_id}: {reason}"
            for body_id, map_id, reason in report.skipped
        )
    return "".join(line + "\n" for line in lines)


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(
        SuiteConfig(seed=args.seed, samples=args.samples, polytope_count=args.polytopes)
    )
    _emit_records(args, report.records, lambda: _pretty_suite(report))
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
        centroids = body.face_tables.centroids
        return centroids[_spec_index(rest, len(centroids), "face")]
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
    if not np.all(np.isfinite(coords)):
        raise ConfigurationError(f"endpoint {spec!r} has non-finite coordinates")
    return coords  # the body's distance route refuses an off-boundary point


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
        body, body_name = load_body(args.body_file), str(args.body_file)
    else:
        body, body_name = cube(1.0), "cube(edge=1)"
    start = _resolve_point(body, getattr(args, "from"))
    stop = _resolve_point(body, args.to)
    if isinstance(body, Polytope3):
        values, kind = body.intrinsic_distances_batch(start[None], stop[None], args.subdiv)
        distance = float(values[0])
        subdivision = body.geodesic_subdivision if args.subdiv is None else args.subdiv
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
    return _render(rows, "pretty")


def _load_records(path: Path) -> tuple[VerificationRecord, ...]:
    if path.suffix.lower() == ".csv":
        return load_records_csv(path)
    return load_records_jsonl(path)


def cmd_export(args: argparse.Namespace) -> int:
    records = _load_records(args.input)
    _emit_records(args, records, lambda: _pretty_records(records))
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


def _constants_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--kind", choices=KINDS, default=DEFAULT_KIND)
    _add_output_options(p)
    p.set_defaults(handler=cmd_constants)


def _scan_ab_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=100_000)
    _add_output_options(p)
    p.set_defaults(handler=cmd_scan_ab)


def _asymptotics_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quantity", choices=QUANTITIES, default="log_h_n")
    p.add_argument(
        "--n", default="100,1000,10000", metavar="N1,N2,...",
        help="comma-separated dimensions (default: 100,1000,10000)",
    )
    p.add_argument("--kind", choices=KINDS, default=DEFAULT_KIND)
    _add_output_options(p)
    p.set_defaults(handler=cmd_asymptotics)


def _verify_options(p: argparse.ArgumentParser) -> None:
    defaults = SuiteConfig()
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--samples", type=int, default=defaults.samples)
    p.add_argument("--polytopes", type=int, default=defaults.polytope_count)
    _add_output_options(p)
    p.set_defaults(handler=cmd_verify)


def _geodesic_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--body-file", type=Path, default=None,
        help="load the body from a saved body file (default: the unit cube)",
    )
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


def _export_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input", type=Path, required=True, help="records to convert (.jsonl or .csv)"
    )
    _add_output_options(p)
    p.set_defaults(handler=cmd_export)


def _diff_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("before", type=Path, help="records before (.jsonl or .csv)")
    p.add_argument("after", type=Path, help="records after (.jsonl or .csv)")
    _add_output_options(p)
    p.set_defaults(handler=cmd_diff)


# subcommand -> (help, the function that adds its options)
COMMANDS = {
    "constants": ("per-dimension crossing constants table", _constants_options),
    "scan-ab": ("scan the crossing-ordering ratio a_n/b_n over a range", _scan_ab_options),
    "asymptotics": ("exact pipeline values against large-n formulas", _asymptotics_options),
    "verify": ("run the geometric verification suite", _verify_options),
    "geodesic": ("one intrinsic-distance query on a convex body", _geodesic_options),
    "export": ("convert verification record files between formats", _export_options),
    "diff": (
        "margin drift, status and pass flips, and added or dropped "
        "records between two record files (exit 1 on a flip, an added or "
        "a dropped record)",
        _diff_options,
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the one named ``command``: a
    subcommand's parser and help read the same either way."""
    # allow_abbrev=False throughout: a prefix of an option is an error, not
    # that option
    parser = argparse.ArgumentParser(
        prog="dispbound",
        allow_abbrev=False,
        description=(
            "Displacement-based area, volume, and width bounds for convex "
            "hypersurfaces: constants, asymptotics, and geometric verification."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        # the usage line of an error names every subcommand, built or not
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}",
    )
    for name, (summary, add_options) in COMMANDS.items():
        if command in (None, name):
            add_options(sub.add_parser(name, help=summary, allow_abbrev=False))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a missing or unknown command needs every subcommand for its usage error
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics:  # strict JSON: a non-finite float as its repr string
            strict = {k: repr(float(v)) if isinstance(v, float) and not math.isfinite(v)
                      else v for k, v in diagnostics.items()}
            print(json.dumps(strict, default=str, sort_keys=True, allow_nan=False), file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
