"""Run the geometric verification suite and write the full record set.

Writes records.jsonl and records.csv into --out-dir (default: reports/)
and prints the per-status summary plus the tightest strict margins.

Usage: python3 scripts/run_suite_report.py [--seed 1729] [--samples 10000]
"""

import argparse
from pathlib import Path

from dispbound.verify import (
    SuiteConfig,
    run_suite,
    write_records_csv,
    write_records_jsonl,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--polytopes", type=int, default=20)
    parser.add_argument("--out-dir", type=Path, default=Path("reports"))
    args = parser.parse_args()

    config = SuiteConfig(
        seed=args.seed,
        samples=args.samples,
        polytope_count=args.polytopes,
    )
    report = run_suite(config)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_records_jsonl(report.records, args.out_dir / "records.jsonl")
    write_records_csv(report.records, args.out_dir / "records.csv")

    print(f"suite {'PASS' if report.passed else 'FAIL'} "
          f"in {report.elapsed_seconds:.1f}s, {len(report.records)} records")
    for status, count in report.status_counts:
        print(f"  {status:>15}: {count}")
    print(f"  skipped map/body pairs: {len(report.skipped)}")
    print(f"  min sampled distortion (central maps): "
          f"{report.min_central_rho_hat:.6f}")

    strict = [r for r in report.records if r.status == "strict"]
    strict.sort(key=lambda r: r.margin / max(abs(r.rhs), 1e-300))
    print("\ntightest strict margins (relative):")
    for rec in strict[:8]:
        rel = rec.margin / max(abs(rec.rhs), 1e-300)
        print(f"  {rec.theorem_id:<9} {rec.body_id:<26} "
              f"{rec.map_id or '-':<16} {rel:.4f}")
    print(f"\nrecords written to {args.out_dir}/")


if __name__ == "__main__":
    main()
