"""dispbound benchmark: one workload per call, each in fresh child processes.

    python3 perfbench/run.py --workload NAME [--seed 1729] [--seconds 25] [--trace 0|1]

Workloads: suite, constants-sweep, geodesic-queries
(see perfbench/README.md for why each exists and what it should move).

``--trace 0`` runs the workload untraced for ``--seconds`` (at least one
round) and set-up alone six more times, then prints the end-to-end
metrics.  Every time it prints is in reference seconds: the measured time,
less the calibration slices that ran within it, times the ``scale`` of
those slices (calib.py), so that the host's swings in speed cancel.  The
measured times are in the metadata.  ``--trace 1`` runs the workload untraced, then one round with
spans on dispbound's public functions, and prints the per-layer metrics
plus the tracing overhead.  Both check every output against ``ref/`` and
the product's invariants.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  Run metadata is printed just
before it and written, with the spans of a traced run, to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import BODY_TYPES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("suite", "constants-sweep", "geodesic-queries")
SETUP_REPEATS = 7  # set-up samples per run: the measuring child plus six
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, mode: str,
              work: Path, deadline: float) -> tuple[float, dict]:
    """Start one child; return (seconds from spawn to ready, its result)."""
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--work", str(work)]
    with open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
            line = proc.stdout.readline() if ready else b""
            setup_s = time.perf_counter() - start
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise ChildError(f"{mode} child for {workload} failed "
                         f"(exit {proc.returncode}):\n{tail}")
    return setup_s, json.loads((work / "result.json").read_text())


def gate_for(workload: str, result: dict, seed: int,
             ref: Path = checks.REF) -> checks.Gate:
    rounds = result["rounds"]
    if workload == "suite":
        return checks.check_suite(rounds, seed, ref)
    if workload == "constants-sweep":
        return checks.check_constants(rounds, ref)
    return checks.check_geodesic(rounds, result["outputs"], seed, ref)


def ref_wall(result: dict) -> float:
    """Median round wall time, in reference seconds."""
    return statistics.median(r["wall"] * r["scale"] for r in result["rounds"])


def setup_sample(spawn_to_ready: float, child: dict) -> tuple[float, float]:
    """(measured set-up seconds without the child's slices, their scale)."""
    return spawn_to_ready - child["setup"]["sampled_s"], child["setup"]["scale"]


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> dict:
    """``setups`` holds (seconds, scale) for each set-up sample."""
    return {
        "wall_ref_s": (ref_wall(result), "s"),
        "setup_s": (statistics.median(s * scale for s, scale in setups), "s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB"),
    }


def raw_times(result: dict, setups: list[tuple[float, float]]) -> dict:
    """The measured times behind the reference seconds, for the metadata."""
    rounds = result["rounds"]
    return {
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "setup_s": statistics.median(s for s, _ in setups) if setups else None,
        "slice_s": statistics.median(r["slice_s"] for r in rounds),
    }


def query_metrics(result: dict) -> dict:
    """Untraced geodesic figures: warm pairs per second and cold latency."""
    rounds = result["rounds"]
    pairs = sum(r.get("pairs", 0) for r in rounds)
    batch_s = sum(r.get("batch_s", 0.0) * r["scale"] for r in rounds)
    latencies = [x * r["scale"] for r in rounds for x in r.get("latencies", [])]
    p50 = p90 = 0.0
    if len(latencies) >= 2:
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        p50, p90 = statistics.median(latencies), deciles[8]
    return {
        "pairs_per_s": (pairs / batch_s if batch_s else 0.0, "1/s"),
        "query_p50_ms": (1000.0 * p50, "ms"),
        "query_p90_ms": (1000.0 * p90, "ms"),
    }


def per_layer(traced: dict, base: dict, gate: checks.Gate) -> dict:
    spans = traced["spans"]
    tallies = traced["tallies"]
    scale = traced["rounds"][0]["scale"]  # the traced round's

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return spans.get(name, {}).get(key, 0.0) * scale

    m: dict[str, tuple[float, str]] = {}
    m["numerics.log_gamma.calls"] = (traced["counts"].get("numerics.log_gamma", 0), "count")
    m["numerics.log_gamma_array.calls"] = (calls("numerics.log_gamma_array"), "count")
    m["numerics.log_gamma_array.s"] = (secs("numerics.log_gamma_array"), "s")
    m["constants.solve_crossing.calls"] = (calls("constants.solve_crossing"), "count")
    m["constants.solve_crossing.s"] = (secs("constants.solve_crossing"), "s")
    rows = gate.extra.get("constants.rows", 0)
    table_solves = traced["within"].get("constants.solve_crossing@constants", 0)
    m["constants.solves_per_row"] = (table_solves / rows if rows else 0.0, "ratio")
    m["constants.scan_ab.s"] = (secs("constants.scan_ab"), "s")
    m["constants.log_h_n.max_ulp"] = (gate.extra.get("constants.log_h_n.max_ulp", 0), "count")
    m["asymptotics.compare.s"] = (secs("asymptotics.compare"), "s")
    for body in BODY_TYPES:
        name = f"geometry.displacement_stats.{body}"
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".s"] = (secs(name), "s")
    samples = tallies.get("geometry.displacement_stats.Polytope3.samples", 0)
    distances = tallies.get("geometry.displacement_stats.Polytope3.distance_samples", 0)
    m["geometry.displacement_stats.distance_fraction"] = (
        distances / samples if samples else 0.0, "ratio")
    for body in BODY_TYPES:
        name = f"geometry.ray_exit.{body}"
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".s"] = (secs(name), "s")
    for name in ("geometry.faces_containing", "geometry.polytope.build",
                 "geometry.geodesic.build", "geometry.geodesic.query"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".s"] = (secs(name), "s")
    m["geometry.geodesic.query.pairs"] = (tallies.get("geometry.geodesic.query.pairs", 0), "count")
    m["geometry.geodesic.answers_changed"] = (
        gate.extra.get("geometry.geodesic.answers_changed", 0), "count")
    m["geometry.mean_width.s"] = (secs("geometry.mean_width"), "s")
    m["geometry.min_width.s"] = (secs("geometry.min_width"), "s")
    m["geometry.io.load_body.s"] = (secs("geometry.io.load_body"), "s")
    m["verify.run_suite.s"] = (secs("verify.run_suite"), "s")
    m["verify.checks.calls"] = (calls("verify.checks"), "count")
    m["verify.checks.self_s"] = (secs("verify.checks", "self_s"), "s")
    m["verify.serialize.s"] = (secs("verify.serialize"), "s")
    for name in ("verify.records", "verify.skipped_pairs", "verify.records_changed"):
        m[name] = (gate.extra.get(name, 0), "count")
    m["cli.import_s"] = (traced["import"]["s"] * traced["import"]["scale"], "s")
    m["cli.main.self_s"] = (secs("cli.main", "self_s"), "s")
    m["trace.overhead_s"] = (ref_wall(traced) - ref_wall(base), "s")
    m["trace.spans"] = (traced["span_count"], "count")
    m["calib.slice_s"] = (raw_times(base, [])["slice_s"], "s")
    m.update(query_metrics(base))
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dispbound").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dispbound" / "cli.py").is_file():
        print(f"error: no dispbound sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_file = None
    try:
        setup_s, base = run_child(args.workload, args.seed, args.seconds,
                                  "measure", work / "measure", deadline)
        if args.trace:
            _, traced = run_child(args.workload, args.seed, args.seconds,
                                  "trace", work / "trace", deadline)
            gate_base = gate_for(args.workload, base, args.seed)
            gate = gate_for(args.workload, traced, args.seed)
            gate.attempted += gate_base.attempted
            gate.failed += gate_base.failed
            gate.problems += gate_base.problems
            gate.require(traced["rounds"][0]["digest"] == base["rounds"][0]["digest"],
                         "traced outputs differ from untraced outputs")
            metrics = per_layer(traced, base, gate)
            metrics["fail_frac"] = (gate.failed / gate.attempted, "ratio")
            OUT.mkdir(exist_ok=True)
            spans_file = OUT / f"spans-{args.workload}.tsv"
            shutil.move(str(work / "trace" / "spans.tsv"), spans_file)
            measured = raw_times(base, [setup_sample(setup_s, base)])
            result = traced
        else:
            setups = [setup_sample(setup_s, base)]
            for i in range(SETUP_REPEATS - 1):
                s, child = run_child(args.workload, args.seed, args.seconds,
                                     "setup", work / f"setup{i}", deadline)
                setups.append(setup_sample(s, child))
            gate = gate_for(args.workload, base, args.seed)
            metrics = end_to_end(base, setups)
            measured = raw_times(base, setups)
            result = base
    except (ChildError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(result["rounds"]),
        "sizes": result["sizes"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        **result["versions"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "attempted_base": {
            "suite": "verification records",
            "constants-sweep": "table rows + scan summary + asymptotic rows",
            "geodesic-queries": "warm point pairs + cold single-pair queries",
        }[args.workload],
        "measured": measured,
        "problems": gate.problems,
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }
    line = {
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **line}, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value!r:>24} {unit}")
    print("meta " + json.dumps(meta))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
