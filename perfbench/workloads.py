"""The benchmark's workloads: input generation, set-up, and one timed round.

Each workload is a closed loop with one client: operations run one after
another in the child process.  A workload's constructor is its set-up: it
builds everything a round needs from the seed.  ``run_round`` performs one
timed round and returns what the correctness gate needs.  The child writes outputs under ``work``; nothing
here checks them (see ``checks.py``).
"""

from __future__ import annotations

import hashlib
import json
import time
import zlib
from pathlib import Path

import numpy as np

import dispbound.cli as cli
from dispbound.geometry import Polytope3, cube, load_body, save_body, unit_directions
from dispbound.verify import SuiteConfig

# suite size: 1 of the default 20 random polytopes (14 vertices), beside
# the two 40-vertex shaped ones and the analytic bodies, so that a run holds
# several rounds.  Every other setting is the product default, and each
# body's seed does not depend on the polytope count, so a round's records
# are a subset of the default run's records at the same seed.
SUITE_POLYTOPES = 1

# constants-sweep sizes: the table runs over 2..CONSTANTS_N_MAX
CONSTANTS_N_MAX = 5_000
SCAN_N_MAX = 1_000_000
ASYMPTOTIC_NS = "100,1000,10000,100000"

# geodesic-queries: the cube plus seeded random polytopes with 14-25
# vertices, the suite's range.  The vertices lie on the unit sphere, so all
# of them are hull vertices and every face is a triangle: the seed moves
# the vertices, but the graph sizes, and so the work per round, stay fixed.
VERTEX_COUNTS = (14, 16, 18, 20, 22, 25)
WARM_SUBDIVISION = 6
WARM_BATCH = 300
COLD_SUBDIVISION = 32
COLD_PAIRS_PER_BODY = 1
SINGLE_PAIR_CHECKS = 5  # warm pairs per body re-answered one at a time


def _sub_seed(seed: int, *names: str) -> int:
    value = int(seed) & 0xFFFFFFFF
    for name in names:
        value = zlib.crc32(name.encode("utf-8"), value)
    return value


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _coords(point) -> str:
    return ",".join(format(float(c), ".17g") for c in point)


def _geodesic_bodies(seed: int) -> list:
    rng = np.random.default_rng(_sub_seed(seed, "geodesic-polytopes"))
    return [cube(1.0, geodesic_subdivision=WARM_SUBDIVISION)] + [
        Polytope3(
            unit_directions(rng, count, 3),
            body_id=f"sphere-hull-v{count}",
            geodesic_subdivision=WARM_SUBDIVISION,
        )
        for count in VERTEX_COUNTS
    ]


def _pairs(body, seed: int, stream: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    points = body.sample_boundary(_sub_seed(seed, stream, body.body_id), 2 * count)
    return points[:count], points[count:]


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


class Suite:
    """``dispbound verify`` at the bench seed with SUITE_POLYTOPES random
    polytopes; every other setting, ``threads=1`` included, is the product
    default."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work
        defaults = SuiteConfig()  # the CLI's verify defaults
        self.sizes = {"samples": defaults.samples,
                      "polytopes": SUITE_POLYTOPES,
                      "threads": defaults.threads}
        self.reports: list = []

    def capture_reports(self) -> None:
        """Keep each SuiteReport the CLI computes (it returns only an exit
        code).  Install after the tracer so both see the same binding."""
        inner = cli.run_suite

        def capturing(config):
            report = inner(config)
            self.reports.append(report)
            return report

        cli.run_suite = capturing

    def run_round(self, index: int) -> dict:
        out = self.work / "suite.jsonl"
        start = time.perf_counter()
        code = cli.main([
            "verify", "--seed", str(self.seed), "--polytopes", str(SUITE_POLYTOPES),
            "--format", "json-lines", "--output", str(out),
        ])
        wall = time.perf_counter() - start
        report = self.reports[-1]
        return {
            "wall": wall,
            "exit": code,
            "passed": report.passed,
            "records": len(report.records),
            "strict_failures": len(report.strict_failures),
            "equality_failures": len(report.equality_failures),
            "missing_notes": len(report.missing_notes),
            "skipped": len(report.skipped),
            "digest": _digest(out),
            "output": str(out),
        }


# ---------------------------------------------------------------------------
# constants-sweep
# ---------------------------------------------------------------------------


class ConstantsSweep:
    """Constants table, ordering scan, and asymptotic comparison; the
    inputs are fixed because the constants take no random input."""

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.sizes = {
            "constants_n_max": CONSTANTS_N_MAX,
            "scan_n_max": SCAN_N_MAX,
            "asymptotic_n": ASYMPTOTIC_NS,
        }
        self.commands = {
            "constants": ["constants", "--n-min", "2", "--n-max", str(CONSTANTS_N_MAX)],
            "scan": ["scan-ab", "--n-min", "2", "--n-max", str(SCAN_N_MAX)],
            "asymptotics": ["asymptotics", "--quantity", "log_h_n", "--n", ASYMPTOTIC_NS],
        }

    def run_round(self, index: int) -> dict:
        exits, digests, outputs = {}, {}, {}
        start = time.perf_counter()
        for name, argv in self.commands.items():
            out = self.work / f"{name}.jsonl"
            exits[name] = cli.main(argv + ["--format", "json-lines", "--output", str(out)])
            outputs[name] = str(out)
        wall = time.perf_counter() - start
        for name, path in outputs.items():
            digests[name] = _digest(Path(path))
        return {"wall": wall, "exit": exits, "digest": digests, "output": outputs}


# ---------------------------------------------------------------------------
# geodesic-queries
# ---------------------------------------------------------------------------


class GeodesicQueries:
    """The geodesic layer used two ways in one round.

    Warm: one batch of boundary pairs per body through
    ``intrinsic_distances_batch`` on graphs built during set-up, the
    suite's access pattern.  Cold: single-pair ``dispbound geodesic`` calls
    on saved bodies; each call loads the body and builds its graph afresh,
    as a CLI user does.
    """

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.sizes = {
            "bodies": 1 + len(VERTEX_COUNTS),
            "warm_subdivision": WARM_SUBDIVISION,
            "warm_batch": WARM_BATCH,
            "cold_subdivision": COLD_SUBDIVISION,
            "cold_pairs_per_body": COLD_PAIRS_PER_BODY,
        }
        self.bodies = _geodesic_bodies(seed)
        self.pairs = [_pairs(body, seed, "warm", WARM_BATCH) for body in self.bodies]
        for body, (xs, ys) in zip(self.bodies, self.pairs):
            body.intrinsic_distances_batch(xs[:1], ys[:1])  # builds the graph
        self.queries = []  # (body file, x, y)
        for body in self.bodies:
            path = work / f"{body.body_id}.body"
            save_body(body, path)
            xs, ys = _pairs(load_body(path), seed, "cold", COLD_PAIRS_PER_BODY)
            self.queries.extend((path, x, y) for x, y in zip(xs, ys))

    def run_round(self, index: int) -> dict:
        start = time.perf_counter()
        warm = []
        for body, (xs, ys) in zip(self.bodies, self.pairs):
            dists, _ = body.intrinsic_distances_batch(xs, ys)
            warm.append(dists)
        batch_s = time.perf_counter() - start

        out = self.work / "geodesic.jsonl"
        latencies, exits, cold = [], [], []
        for path, x, y in self.queries:
            t0 = time.perf_counter()
            code = cli.main([
                "geodesic", "--body-file", str(path),
                "--subdiv", str(COLD_SUBDIVISION),
                f"--from={_coords(x)}", f"--to={_coords(y)}",
                "--format", "json-lines", "--output", str(out),
            ])
            latencies.append(time.perf_counter() - t0)
            exits.append(code)
            cold.append(json.loads(out.read_text())["distance"] if code == 0 else None)
        wall = time.perf_counter() - start

        self.warm, self.cold = warm, cold
        digest = hashlib.sha256(np.concatenate(warm).tobytes())
        digest.update(json.dumps(cold).encode())
        return {
            "wall": wall,
            "pairs": len(self.bodies) * WARM_BATCH,
            "batch_s": batch_s,
            "latencies": latencies,
            "exit": exits,
            "digest": digest.hexdigest(),
        }

    def outputs(self) -> dict:
        """Answers of the last round, for the gate: warm answers beside
        single-pair answers on the first pairs of each batch, and cold
        answers beside batch answers on the same pairs and saved bodies."""
        warm = []
        for body, (xs, ys), dists in zip(self.bodies, self.pairs, self.warm):
            warm.append({
                "body": body.body_id,
                "xs": xs.tolist(),
                "ys": ys.tolist(),
                "batch": dists.tolist(),
                "single": [body.intrinsic_distance(xs[j], ys[j])[0]
                           for j in range(SINGLE_PAIR_CHECKS)],
            })
        batch = []
        for path in dict.fromkeys(path for path, _, _ in self.queries):
            mine = [(x, y) for p, x, y in self.queries if p == path]
            dists, _ = load_body(path).intrinsic_distances_batch(
                np.array([x for x, _ in mine]), np.array([y for _, y in mine]),
                COLD_SUBDIVISION,
            )
            batch.extend(float(d) for d in dists)
        cold = [
            {"body": path.stem, "x": x.tolist(), "y": y.tolist(),
             "single": single, "batch": b}
            for (path, x, y), single, b in zip(self.queries, self.cold, batch)
        ]
        return {"warm": warm, "cold": cold}


WORKLOADS = {
    "suite": Suite,
    "constants-sweep": ConstantsSweep,
    "geodesic-queries": GeodesicQueries,
}
