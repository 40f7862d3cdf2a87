"""Correctness gate: compare a workload's outputs with the committed
references in ``ref/`` and with the product's own invariants.

Standard library only, so the parent process never imports the program.
Every check returns a ``Gate``: ``attempted`` operations (records, table
rows, point pairs or queries), how many ``failed``, and ``problems`` that
make the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REF = Path(__file__).resolve().parent / "ref"

# log_h_n may drift from the reference by at most this many units in the
# last place (a vectorized kernel may reorder sums)
ULP_BOUND = 8

# the suite names its random polytopes after the seed they were drawn from
_SEEDED_ID = re.compile(r"^polytope-s\d+-")


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(problem)

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def ulp_distance(a: float, b: float) -> int:
    """Number of representable doubles between a and b."""
    def ordered(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)
    return abs(ordered(a) - ordered(b))


def _jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def _same_digests(gate: Gate, rounds: list[dict]) -> None:
    digests = {json.dumps(r["digest"], sort_keys=True) for r in rounds}
    gate.require(len(digests) == 1, "outputs differ between rounds of one seed")


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def record_key(record: dict) -> tuple:
    body = _SEEDED_ID.sub("polytope-", record["body_id"])
    return (record["theorem_id"], body, record["map_id"],
            tuple(sorted(record)), tuple(sorted(record["params"])))


def record_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def check_suite(rounds: list[dict], seed: int, ref: Path = REF) -> Gate:
    """Exit code 0, report passed, and the record keys (identity and field
    names, seed-free) equal to the reference's.  ``verify.records_changed``
    counts records that differ byte for byte from the reference records of
    this seed; it is 0 when no reference is committed for the seed."""
    gate = Gate()
    ref_keys = Counter(record_key(r) for r in _jsonl(ref / "suite-1729.jsonl"))
    for r in rounds:
        lines = Path(r["output"]).read_text().splitlines()
        gate.attempted += len(lines)
        gate.require(r["exit"] == 0, f"verify exited with {r['exit']}")
        gate.require(r["passed"], "suite report did not pass")
        gate.require(r["records"] == len(lines), "record count differs from report")
        gate.fail(r["strict_failures"], f"{r['strict_failures']} strict failures")
        gate.fail(r["equality_failures"], f"{r['equality_failures']} equality failures")
        gate.fail(r["missing_notes"], f"{r['missing_notes']} records miss orientation notes")
        keys = Counter(record_key(json.loads(line)) for line in lines)
        missing, extra = ref_keys - keys, keys - ref_keys
        gate.fail(sum(missing.values()), f"{sum(missing.values())} reference records missing")
        gate.fail(sum(extra.values()), f"{sum(extra.values())} records not in the reference")
    _same_digests(gate, rounds)

    expected = json.loads((ref / "suite-digests.json").read_text()).get(str(seed))
    changed = 0
    if expected is not None:
        now = Counter(map(record_digest, Path(rounds[-1]["output"]).read_text().splitlines()))
        changed = sum((Counter(expected) - now).values())
    gate.extra["verify.records_changed"] = changed
    gate.extra["verify.skipped_pairs"] = rounds[-1]["skipped"]
    gate.extra["verify.records"] = rounds[-1]["records"]
    return gate


# ---------------------------------------------------------------------------
# constants-sweep
# ---------------------------------------------------------------------------


def check_constants(rounds: list[dict], ref: Path = REF) -> Gate:
    """Exit codes 0, no scan violation, and every log_h_n within ULP_BOUND
    of the reference table."""
    gate = Gate()
    table_ref = json.loads((ref / "constants.json").read_text())
    last = rounds[-1]
    for name, code in last["exit"].items():
        gate.require(code == 0, f"{name} exited with {code}")

    table = _jsonl(last["output"]["constants"])
    ref_log_h = dict(zip(range(2, 2 + len(table_ref["log_h_n"])), table_ref["log_h_n"]))
    gate.require(len(table) <= len(ref_log_h), "table longer than the reference")
    worst = 0
    bad = 0
    for row in table:
        expected = ref_log_h.get(row["n"])
        if expected is None:
            bad += 1
            continue
        ulps = ulp_distance(row["log_h_n"], expected)
        worst = max(worst, ulps)
        bad += ulps > ULP_BOUND
    gate.fail(bad, f"{bad} table rows off the reference log_h_n by > {ULP_BOUND} ulp")

    summary = _jsonl(last["output"]["scan"])[-1]
    gate.fail(summary["violations"], f"{summary['violations']} scan violations")
    gate.require(summary["n_max"] == table_ref["scan_n_max"], "scan range differs")

    asym = _jsonl(last["output"]["asymptotics"])
    asym_bad = 0
    for row in asym:
        expected = table_ref["asymptotic_exact"].get(str(row["n"]))
        ulps = math.inf if expected is None else ulp_distance(row["exact"], expected)
        if math.isfinite(ulps):
            worst = max(worst, ulps)
        asym_bad += ulps > ULP_BOUND
    gate.fail(asym_bad, f"{asym_bad} asymptotic rows off the reference")

    per_round = len(table) + 1 + len(asym)
    gate.attempted = per_round * len(rounds)
    gate.failed *= len(rounds)  # every round produced the same bytes
    _same_digests(gate, rounds)
    gate.extra["constants.log_h_n.max_ulp"] = worst
    gate.extra["constants.rows"] = len(table)
    return gate


# ---------------------------------------------------------------------------
# geodesic-queries
# ---------------------------------------------------------------------------


def _distance_ok(distance, x, y) -> bool:
    return (
        distance is not None
        and math.isfinite(distance)
        and distance >= math.dist(x, y) * (1.0 - 1e-9)
    )


def _answers_changed(seed: int, answers: list[float], ref: Path) -> int:
    path = ref / f"geodesic-{seed}.json"
    if not path.is_file():
        return 0
    expected = json.loads(path.read_text())
    if len(expected) != len(answers):
        return max(len(expected), len(answers))
    return sum(a != b for a, b in zip(expected, answers))


def check_geodesic(rounds: list[dict], outputs: dict, seed: int, ref: Path = REF) -> Gate:
    """Every distance finite and at least the chord, every query exits 0,
    and single-pair answers equal batch answers on the same pairs."""
    gate = Gate()
    for r in rounds:
        gate.attempted += r["pairs"] + len(r["exit"])
        nonzero = sum(code != 0 for code in r["exit"])
        gate.fail(nonzero, f"{nonzero} geodesic commands exited non-zero")
    bad = mismatched = 0
    for body in outputs["warm"]:
        bad += sum(not _distance_ok(d, x, y)
                   for x, y, d in zip(body["xs"], body["ys"], body["batch"]))
        mismatched += sum(s != b for s, b in zip(body["single"], body["batch"]))
    for q in outputs["cold"]:
        bad += not _distance_ok(q["single"], q["x"], q["y"])
        mismatched += q["single"] != q["batch"]
    gate.fail(bad * len(rounds), f"{bad} distances non-finite or below the chord")
    gate.fail(mismatched * len(rounds),
              f"{mismatched} single-pair answers differ from batch answers")
    _same_digests(gate, rounds)
    answers = [d for body in outputs["warm"] for d in body["batch"]]
    answers += [q["single"] for q in outputs["cold"]]
    gate.extra["geometry.geodesic.answers_changed"] = _answers_changed(seed, answers, ref)
    return gate
