"""Regenerate the committed references in perfbench/ref/ from the current
sources.  Run from the repository root on the commit whose outputs define
correct:

    PYTHONPATH=src python3 perfbench/make_refs.py [--suite-seeds 0-12] [--only PART ...]

Writes suite-1729.jsonl (the suite workload's records at the product
seed), suite-digests.json (a digest of every record, per suite seed: 1729
plus --suite-seeds, about 2 s of suite per seed), constants.json (log_h_n for
the constants-sweep table and asymptotic rows), and
geodesic-1729.json (warm then cold distances at the product seed).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1729
REF = HERE / "ref"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def suite(work: Path, extra_seeds: list[int]) -> None:
    digests = {}
    for seed in [SEED, *extra_seeds]:
        run = workloads.Suite(seed, work)
        run.capture_reports()
        r = run.run_round(0)
        if r["exit"] != 0:
            raise SystemExit(f"suite at seed {seed} failed; no reference written")
        lines = Path(r["output"]).read_text().splitlines()
        digests[str(seed)] = sorted(map(checks.record_digest, lines))
        if seed == SEED:
            shutil.copyfile(r["output"], REF / f"suite-{SEED}.jsonl")
    (REF / "suite-digests.json").write_text(json.dumps(digests, indent=0) + "\n")


def constants(work: Path, extra_seeds: list[int]) -> None:
    r = workloads.ConstantsSweep(SEED, work).run_round(0)
    if any(r["exit"].values()):
        raise SystemExit(f"constants sweep failed: {r['exit']}")

    def rows(name):
        return [json.loads(x) for x in Path(r["output"][name]).read_text().splitlines()]

    (REF / "constants.json").write_text(json.dumps({
        "log_h_n": [row["log_h_n"] for row in rows("constants")],
        "scan_n_max": rows("scan")[-1]["n_max"],
        "asymptotic_exact": {str(row["n"]): row["exact"] for row in rows("asymptotics")},
    }) + "\n")


def geodesic(work: Path, extra_seeds: list[int]) -> None:
    run = workloads.GeodesicQueries(SEED, work)
    run.run_round(0)
    out = run.outputs()
    answers = [d for body in out["warm"] for d in body["batch"]]
    answers += [q["single"] for q in out["cold"]]
    (REF / f"geodesic-{SEED}.json").write_text(json.dumps(answers) + "\n")


PARTS = {"suite": suite, "constants": constants, "geodesic": geodesic}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--suite-seeds", type=seed_range, default=[],
                        metavar="LO-HI", help="extra suite seeds to digest")
    parser.add_argument("--only", action="append", choices=PARTS,
                        help="regenerate only this part (repeatable)")
    args = parser.parse_args()
    REF.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for part in args.only or PARTS:
            PARTS[part](Path(tmp), args.suite_seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
