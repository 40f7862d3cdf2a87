"""Scan the crossing-ordering ratio a_n/b_n and watch it approach 2*sqrt(e).

Usage: python3 scripts/ab_scan_demo.py [--n-max 100000]
"""

import argparse
import math
import time

import numpy as np

from dispbound.constants import constants_table, scan_ab

CHECKPOINTS = (10, 100, 1_000, 10_000, 100_000, 1_000_000)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-max", type=int, default=100_000)
    args = parser.parse_args()

    start = time.perf_counter()
    scan = scan_ab(2, args.n_max)
    elapsed = time.perf_counter() - start
    print(
        f"scan 2..{args.n_max}: {scan.violations} violations in {elapsed:.2f}s; "
        f"min ratio {scan.min_ratio:.12g} at n={scan.argmin_n}"
    )

    limit = 2.0 * math.sqrt(math.e)
    print(f"\nlimit 2*sqrt(e) = {limit:.12g}")
    print(f"{'n':>9}  {'a_n/b_n':>16}  {'gap to limit':>13}")
    ratios = constants_table(np.array(CHECKPOINTS)).ab_ratio
    for n, ratio in zip(CHECKPOINTS, ratios.tolist()):
        print(f"{n:>9}  {ratio:>16.12f}  {abs(ratio - limit):>13.3e}")


if __name__ == "__main__":
    main()
