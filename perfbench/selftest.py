"""Self-tests of the benchmark itself, at a smoke size (--seconds 1).

    python3 perfbench/selftest.py [--workload NAME ...]

For every workload (default: all):
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and two traced runs print every per-layer metric;
  * count metrics repeat exactly across the two traced runs;
  * the correctness gate passes on the real references and trips on a
    perturbed reference or output.
Each workload takes about a minute.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class Failure(AssertionError):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Failure(message)


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """One run at seed 1729: its result line and its metadata."""
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "1729", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600,
    )
    expect(done.returncode == 0, f"run.py exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace {trace} not correct: {done.stdout.splitlines()[-2]}")
    meta = json.loads(done.stdout.strip().splitlines()[-2].removeprefix("meta "))
    return result, meta


def check_metrics(workload: str, result: dict, declared: list[dict]) -> None:
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    expect(printed == wanted, f"{workload}: printed metrics differ from BENCHMARK.json: "
           f"missing {sorted(set(wanted) - set(printed))}, "
           f"extra {sorted(set(printed) - set(wanted))}, "
           f"units {[n for n in wanted if printed.get(n, wanted[n]) != wanted[n]]}")


def test_metrics_and_counts(workload: str) -> None:
    plain, _ = bench(workload, 0)
    check_metrics(workload, plain, SPEC["end_to_end"])
    expect(all(m["value"] > 0 for m in plain["metrics"].values()),
           f"{workload}: an end-to-end metric is not positive")
    (first, meta), (second, _) = bench(workload, 1), bench(workload, 1)
    for traced in (first, second):
        check_metrics(workload, traced, SPEC["per_layer"])
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            expect(m["value"] == second["metrics"][name]["value"],
                   f"{workload}: count {name} differs between traced runs: "
                   f"{m['value']} vs {second['metrics'][name]['value']}")
    if workload == "suite":
        # one exit per sample plus two per chord-projection direction (10),
        # on the two shaped polytopes and the random ones; 220,440 at the
        # product default of 20 random polytopes
        sizes = meta["sizes"]
        expected = (2 + sizes["polytopes"]) * (sizes["samples"] + 2 * 10)
        calls = first["metrics"]["geometry.ray_exit.Polytope3.calls"]["value"]
        expect(calls == expected,
               f"ray_exit.Polytope3.calls {calls} != {expected} at seed 1729")


def perturbed_ref(tmp: Path, edit) -> Path:
    ref = tmp / f"ref-{time.monotonic_ns()}"
    shutil.copytree(checks.REF, ref)
    edit(ref)
    return ref


def test_suite_gate(tmp: Path) -> None:
    # the committed records stand in for one round's output at seed 1729
    lines = (checks.REF / "suite-1729.jsonl").read_text().splitlines()
    out = tmp / "suite.jsonl"
    out.write_text("\n".join(lines) + "\n")
    rounds = [{"output": str(out), "exit": 0, "passed": True, "records": len(lines),
               "strict_failures": 0, "equality_failures": 0, "missing_notes": 0,
               "skipped": 25, "digest": "same"}]
    gate = checks.check_suite(rounds, 1729)
    expect(not gate.problems and gate.extra["verify.records_changed"] == 0,
           f"suite gate fails on its own reference: {gate.problems}")

    def drop_record(ref: Path) -> None:
        path = ref / "suite-1729.jsonl"
        path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        digests = json.loads((ref / "suite-digests.json").read_text())
        digests["1729"][0] = "0" * 16
        (ref / "suite-digests.json").write_text(json.dumps(digests))

    gate = checks.check_suite(rounds, 1729, perturbed_ref(tmp, drop_record))
    expect(gate.problems and gate.failed >= 1, "suite gate passes a perturbed reference")
    expect(gate.extra["verify.records_changed"] == 1, "records_changed misses a change")


def child_result(workload: str, tmp: Path) -> dict:
    deadline = time.monotonic() + run.DEADLINE_S
    work = tmp / f"{workload}-{time.monotonic_ns()}"
    _, result = run.run_child(workload, 1729, 0.0, "measure", work, deadline)
    gate = run.gate_for(workload, result, 1729)
    expect(not gate.problems, f"{workload} gate fails on real outputs: {gate.problems}")
    return result


def test_constants_gate(tmp: Path) -> None:
    result = child_result("constants-sweep", tmp)

    def nudge(ref: Path) -> None:
        table = json.loads((ref / "constants.json").read_text())
        table["log_h_n"][50] *= 1.0 + 1e-13
        (ref / "constants.json").write_text(json.dumps(table))

    gate = run.gate_for("constants-sweep", result, 1729, perturbed_ref(tmp, nudge))
    expect(gate.problems and gate.failed >= 1, "constants gate passes a perturbed reference")


def below_chord(out: dict) -> None:
    out["warm"][0]["batch"][0] = 0.0


def off_batch(out: dict) -> None:
    out["warm"][1]["single"][0] += 1.0


def non_finite(out: dict) -> None:
    out["cold"][2]["single"] = float("nan")


def test_geodesic_gate(tmp: Path) -> None:
    result = child_result("geodesic-queries", tmp)
    for edit in (below_chord, off_batch, non_finite):
        bad = copy.deepcopy(result)
        edit(bad["outputs"])
        expect(run.gate_for("geodesic-queries", bad, 1729).failed >= 1,
               f"geodesic gate passes an output edited by {edit.__name__}")

    def nudge(ref: Path) -> None:
        path = ref / "geodesic-1729.json"
        answers = json.loads(path.read_text())
        answers[3] *= 1.0 + 1e-12
        path.write_text(json.dumps(answers))

    gate = run.gate_for("geodesic-queries", result, 1729, perturbed_ref(tmp, nudge))
    expect(gate.extra["geometry.geodesic.answers_changed"] == 1,
           "answers_changed misses a perturbed reference")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    workloads = parser.parse_args().workload or list(run.WORKLOADS)
    failures = 0
    tests = [(f"metrics and counts: {w}", test_metrics_and_counts, w) for w in workloads]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        tests += [
            ("gate: suite", test_suite_gate, Path(tmp)),
            ("gate: constants-sweep", test_constants_gate, Path(tmp)),
            ("gate: geodesic-queries", test_geodesic_gate, Path(tmp)),
        ]
        for label, test, arg in tests:
            try:
                test(arg)
                print(f"PASS {label}", flush=True)
            except Failure as exc:
                failures += 1
                print(f"FAIL {label}: {exc}", flush=True)
    run.WORK.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
