"""Acceptance gate: the shipping criteria, one test each.

Criterion 5 has no test: it asked for a series inversion of
f_N(rho) = rho^(1/N) (rho - 1) as a second route to the crossing, which the
package does not compute.  The 50-digit mpmath solve in test_constants.py
is the independent check on rho*.

Each test prints a single pass/fail line (visible with ``pytest -s`` and in
failure output).  Criterion 7 is expected to FAIL: the quoted two-decimal
value 0.2237 truncates the radical closed form 0.22379194..., which misses
the required 5e-5 window by design of the quotation, not of the code.  The
test states the criterion faithfully instead of papering over it; see
README ("The 0.2237 discrepancy") for the analysis.
"""

import json
import math
import time

import numpy as np

from dispbound import cli
from dispbound.asymptotics import compare
from dispbound.constants import (
    constants_table,
    i_bar_n,
    i_n,
    j_n,
    quoted_closed_form_h2,
    rho_n,
    solve_crossing,
)
from dispbound.geometry import (
    CylinderBody,
    SphereBody,
    displacement_stats,
    equilateral_triangle,
    half_perimeter_map,
    mean_width,
    min_width,
    regular_polygon,
)
from dispbound.verify import _CLOSED_FORM_TOL


def report(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def test_criterion_01_ab_scan_over_full_range(tmp_path):
    out = tmp_path / "scan.jsonl"
    start = time.perf_counter()
    code = cli.main(
        ["scan-ab", "--n-min", "2", "--n-max", "100000",
         "--format", "json-lines", "--output", str(out)]
    )
    elapsed = time.perf_counter() - start
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    summary = next(r for r in rows if r["record"] == "summary")
    ok = code == 0 and summary["violations"] == 0 and elapsed < 60.0
    line = report(
        1, ok,
        f"zero violations over 2..100000 in {elapsed:.2f}s "
        f"(min ratio {summary['min_ratio']:.6g} at n={summary['argmin_n']})",
    )
    assert ok, line


def test_criterion_02_ratio_limit_two_sqrt_e():
    limit = 2.0 * math.sqrt(math.e)
    ratios = constants_table(np.array([10**5, 10**6])).ab_ratio
    gaps = dict(zip((10**5, 10**6), np.abs(ratios - limit)))
    ok = gaps[10**5] <= 0.02 and gaps[10**6] <= 0.005
    line = report(
        2, ok,
        f"|a/b - 2*sqrt(e)| = {gaps[10**5]:.4g} at 1e5 (<= 0.02), "
        f"{gaps[10**6]:.4g} at 1e6 (<= 0.005)",
    )
    assert ok, line


def test_criterion_03_crossing_residual_and_branch():
    worst = 0.0
    branch_ok = True
    table = constants_table(np.arange(2, 1001))
    for n, a_above_b in zip(range(2, 1001), table.log_a > table.log_b):
        result = solve_crossing(n)
        residual = abs(
            i_n(n, result.rho_star).log_magnitude
            - j_n(n, result.rho_star).log_magnitude
        )
        worst = max(worst, residual)
        expected = "second" if a_above_b else "first"
        branch_ok = branch_ok and result.branch == expected
    ok = worst <= 1e-10 and branch_ok
    line = report(
        3, ok,
        f"n=2..1000 worst log-crossing residual {worst:.3g} (<= 1e-10), "
        f"branch flags consistent: {branch_ok}",
    )
    assert ok, line


def test_criterion_04_two_sided_bracket_threshold():
    # 1 + c - c^2/(n-1) <= rho* <= 1 + c over 2..2000 from one table: the
    # bracket holds from n0 = 2 (<= 100), so no dimension is left out
    ns = np.arange(2, 2001)
    table = constants_table(ns)
    c, rho = np.exp(table.log_c), table.rho_star
    holds = (1.0 + c - c * c / (ns - 1.0) <= rho) & (rho <= 1.0 + c)
    fails = ns[~holds]
    n0 = int(fails[-1]) + 1 if fails.size else 2
    ok = n0 == 2
    line = report(
        4, ok,
        f"bracket holds from n0={n0} (<= 100) over n=2..2000, "
        f"{fails.size} dimensions outside it",
    )
    assert ok, line


def test_criterion_06_log_h_asymptotic_error_shrinks():
    reports = compare([100, 1000, 10000], "log_h_n")
    rels = [r.rel_error for r in reports]
    ok = rels[0] > rels[1] > rels[2] and rels[2] < 0.005
    line = report(
        6, ok,
        "ln h_n rel errors " + ", ".join(f"{r:.3g}" for r in rels)
        + " monotone down, final < 0.5%",
    )
    assert ok, line


def test_criterion_07_quoted_two_decimal_closed_form(tmp_path, capsys):
    # informative clauses first: the closed form and the pipeline value are
    # both computed and reported side by side, with the discrepancy documented
    closed_form = quoted_closed_form_h2()
    radical = (math.pi / 6.0) ** (1.0 / 3.0)
    independent = radical / (1.0 + (math.pi / 6.0) ** (1.0 / 6.0)) ** 2
    assert math.isclose(closed_form, independent, rel_tol=1e-15)
    out = tmp_path / "n2.jsonl"
    assert cli.main(
        ["constants", "--n-min", "2", "--n-max", "2",
         "--format", "json-lines", "--output", str(out)]
    ) == 0
    row = json.loads(out.read_text().splitlines()[0])
    assert row["paper_quoted"] == closed_form
    assert row["h_n"] == math.exp(row["log_h_n"])  # pipeline value beside it
    assert cli.main(["constants", "--n-min", "2", "--n-max", "2"]) == 0
    pretty = capsys.readouterr().out
    assert "paper_quoted" in pretty and "note:" in pretty  # documented

    gap = abs(closed_form - 0.2237)
    ok = gap <= 5e-5
    line = report(
        7, ok,
        f"radical closed form = {closed_form:.17g}; |value - 0.2237| = "
        f"{gap:.3g} vs required 5e-5 — the two-decimal quotation truncates "
        "(rounding gives 0.2238), so this gate cannot pass; left red on "
        "purpose, see README",
    )
    assert ok, line


def test_criterion_08_cylinder_area_identity():
    worst_area = 0.0
    worst_ratio = 0.0
    for n in range(2, 7):
        for rho in (1.5, 2.0, 5.0, 20.0):
            body = CylinderBody(n, (rho - 1.0) / (2.0 * rho), 1.0 / rho)
            expected = i_bar_n(n, rho).to_float()
            worst_area = max(
                worst_area, abs(body.boundary_area() - expected) / expected
            )
            if rho >= rho_n(n):
                ratio = math.exp(
                    i_bar_n(n, rho).log_magnitude - i_n(n, rho).log_magnitude
                )
                target = (n - 1) * math.pi + (n - 1) ** 2 * math.pi / rho
                worst_ratio = max(worst_ratio, abs(ratio - target) / target)
    ok = worst_area <= 1e-12 and worst_ratio <= 1e-12
    line = report(
        8, ok,
        f"area defect {worst_area:.3g}, ratio-identity defect {worst_ratio:.3g} "
        "(both <= 1e-12) over n=2..6, rho in {1.5,2,5,20}",
    )
    assert ok, line


def test_criterion_09_triangle_suite():
    tri = equilateral_triangle(1.0)
    shift = half_perimeter_map()
    length = tri.boundary_area()
    # displacement ratio exactly 2 at the quarter-edge points (up to the
    # final rounding of the chord: the intrinsic side is binary-exact)
    ratio_defect = 0.0
    for edge in range(3):
        for fraction in (0.25, 0.75):
            p = tri.point_at(length * (edge + fraction) / 3.0)
            q = shift.apply(tri, p[None, :])[0]
            distance, _ = tri.intrinsic_distance(p, q)
            assert distance == length / 2.0  # exactly 1.5
            ratio = distance / float(np.linalg.norm(q - p))
            ratio_defect = max(ratio_defect, abs(ratio - 2.0))
    stats = displacement_stats(tri, shift, samples=800, seed=0)
    mu_defect = abs(stats.mu_hat - 1.5)
    # the vertex-to-opposite-midpoint configuration gives sqrt(3)
    p = tri.point_at(0.0)
    q = shift.apply(tri, p[None, :])[0]
    d, _ = tri.intrinsic_distance(p, q)
    alt_defect = abs(d / float(np.linalg.norm(q - p)) - math.sqrt(3.0))
    pal_defect = abs(
        tri.enclosed_volume() - min_width(tri).value ** 2 / math.sqrt(3.0)
    )
    ok = (
        ratio_defect <= 1e-14
        and mu_defect <= 1e-12
        and alt_defect <= 1e-12 * math.sqrt(3.0)
        and pal_defect <= 1e-12
    )
    line = report(
        9, ok,
        f"quarter-point ratio defect {ratio_defect:.3g}, mu defect "
        f"{mu_defect:.3g}, sqrt(3) defect {alt_defect:.3g}, equal-width "
        f"equality defect {pal_defect:.3g}",
    )
    assert ok, line


def test_criterion_10_equality_cases():
    ball = SphereBody(1.0)
    xi = mean_width(ball).value
    mu, kind = ball.intrinsic_distance(
        np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])
    )
    assert kind == "exact" and mu == math.pi
    sphere_gap = abs(xi - (2.0 * mu) / math.pi)
    worst_poly = 0.0
    for poly in (
        equilateral_triangle(1.0),
        regular_polygon(4, 1.0),
        regular_polygon(5, 1.0),
    ):
        length = poly.boundary_area()
        xi_poly = mean_width(poly).value
        worst_poly = max(worst_poly, abs(length - math.pi * xi_poly) / length)
    # both sides are exact, so both identities hold at the closed-form tolerance
    ok = sphere_gap <= _CLOSED_FORM_TOL * xi and worst_poly <= _CLOSED_FORM_TOL
    line = report(
        10, ok,
        f"sphere |Xi - 2mu/pi| = {sphere_gap:.3g}; worst polygon "
        f"|L - pi*Xi|/L = {worst_poly:.3g} (both <= {_CLOSED_FORM_TOL:g} relative)",
    )
    assert ok, line


def test_criterion_11_default_suite_green(default_suite):
    suite = default_suite.report  # dispbound verify at its defaults, seed 1729
    elapsed = suite.elapsed_seconds
    body_ids = {rec.body_id for rec in suite.records}
    analytic = {"sphere-unit", "cylinder-rho2", "cylinder-rho20"}
    polytopes = {b for b in body_ids if b.startswith("polytope-")}
    map_ids = {rec.map_id for rec in suite.records if rec.map_id}
    ok = (
        default_suite.code == 0
        and suite.passed
        and not suite.strict_failures
        and not suite.missing_notes
        and analytic <= body_ids
        and len(polytopes) == 20
        and len(map_ids) == 3
        and elapsed < 300.0
    )
    line = report(
        11, ok,
        f"{len(suite.records)} records, {len(suite.strict_failures)} strict "
        f"failures, {len(suite.missing_notes)} orientation-audit flags, "
        f"{len(polytopes)} polytopes, {len(map_ids)} map kinds, "
        f"{elapsed:.1f}s (< 300s)",
    )
    assert ok, line


def test_criterion_12_byte_identical_reruns(tmp_path):
    commands = {
        "constants": ["constants", "--n-min", "2", "--n-max", "40",
                      "--format", "csv"],
        "scan": ["scan-ab", "--n-min", "2", "--n-max", "500",
                 "--format", "json-lines"],
        "asymptotics": ["asymptotics", "--n", "100,1000",
                        "--format", "json-lines"],
        "geodesic": ["geodesic", "--body", "cube", "--from", "face-center:0",
                     "--to", "face-center:5", "--subdiv", "16",
                     "--format", "csv"],
        "verify": ["verify", "--seed", "7", "--samples", "1500",
                   "--polytopes", "3", "--format", "json-lines"],
    }
    mismatched = []
    for name, argv in commands.items():
        outputs = []
        for attempt in range(2):
            path = tmp_path / f"{name}-{attempt}"
            assert cli.main([*argv, "--output", str(path)]) == 0
            outputs.append(path.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    ok = not mismatched
    line = report(
        12, ok,
        "byte-identical reruns for "
        + ", ".join(commands) + (f"; MISMATCH: {mismatched}" if mismatched else ""),
    )
    assert ok, line
