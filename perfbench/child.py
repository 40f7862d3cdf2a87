"""One workload process: import, set up, report ready, run timed rounds.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --mode {setup,measure,trace} --work DIR

``setup`` exits after set-up.  ``measure`` runs rounds while the next one,
as long as the mean so far, would end within ``--seconds`` (at least one).
``trace`` installs the span tracer and runs exactly one round, so its
counts repeat exactly.  The child prints ``ready`` on stdout when set-up
ends, which the parent times; results go to ``DIR/result.json``.
Calibration slices (calib.py) run from before the import of dispbound until
the last round ends.  Their time is taken out of the set-up, import and
round times reported here, and each of those gets the ``scale`` of the
slices that ran during it.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

START = time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    import calib  # beside this file, so on sys.path already

    sampler = calib.Sampler()
    sampler.start()
    import dispbound.cli  # noqa: F401  (timed on its own as cli.import_s)

    imported = time.perf_counter()
    import numpy
    import scipy

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work)
    ready = time.perf_counter()
    print("ready", flush=True)
    # the parent times set-up from spawn to "ready"; the slices are part of it
    setup = sampler.between(START, ready)
    if args.mode == "setup":
        sampler.stop()
        (args.work / "result.json").write_text(json.dumps({"setup": setup}))
        return 0
    cli_import = sampler.between(START, imported)
    cli_import["s"] = imported - START - cli_import["sampled_s"]

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if isinstance(workload, workloads.Suite):
        workload.capture_reports()

    rounds = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = len(rounds)
        t0 = time.perf_counter()
        r = workload.run_round(len(rounds))
        r.update(sampler.between(t0, time.perf_counter()))
        r["wall"] -= r["sampled_s"]
        rounds.append(r)
        elapsed = time.perf_counter() - start
        if tracer is not None or elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    sampler.stop()

    result = {
        "setup": setup,
        "import": cli_import,
        "rounds": rounds,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sizes": workload.sizes,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        # before the gate's extra calls below, which are not part of a round
        result["spans"] = tracer.summary()
        result["within"] = tracer.within_counts()
        result["tallies"] = dict(tracer.tallies)
        result["counts"] = dict(tracer.counts)
        result["span_count"] = len(tracer.span_name)
        tracer.write_spans(args.work / "spans.tsv")
    if hasattr(workload, "outputs"):
        result["outputs"] = workload.outputs()
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
