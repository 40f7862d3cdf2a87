"""Print the crossing constants for a dimension range, then show how the
large-n formulas close in on the exact pipeline values.

Usage: python3 scripts/crossing_table.py [--n-min 2] [--n-max 12]
"""

import argparse

import numpy as np

from dispbound.asymptotics import compare
from dispbound.constants import constants_table, sphere_reference

ASYMPTOTIC_PROBES = (100, 1_000, 10_000)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--kind", default="pal_firey",
                        choices=("pal_firey", "bezdek"))
    args = parser.parse_args()

    print(f"{'n':>4}  {'rho_n':>10}  {'c_n':>12}  {'rho_star':>12}  "
          f"{'log_h_n':>12}  {'log_subopt':>12}")
    table = constants_table(np.arange(args.n_min, args.n_max + 1), args.kind)
    for row in map(table.row, range(len(table.n))):
        n = row.n
        subopt = row.log_h_n - sphere_reference(n).log_magnitude
        print(f"{n:>4}  {row.rho_n:>10.6f}  {row.c_n:>12.6g}  "
              f"{row.rho_star:>12.8f}  {row.log_h_n:>12.5f}  {subopt:>12.5f}")

    print("\nasymptotic convergence of ln h_n:")
    for report in compare(list(ASYMPTOTIC_PROBES), "log_h_n", args.kind):
        print(f"  n={report.n:>6}: exact {report.exact:.6f}, "
              f"formula {report.asymptotic:.6f}, "
              f"rel err {report.rel_error:.3e}")


if __name__ == "__main__":
    main()
