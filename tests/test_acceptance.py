"""Acceptance gate: the twelve shipping criteria, one test each.

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
from dispbound.asymptotics import (
    Kind,
    compare,
    evaluate_inverse,
    forward_map,
    inverse_series,
    inversion_radius,
    measured_thresholds,
)
from dispbound.constants import (
    a_n,
    b_n,
    c_n,
    i_bar_n,
    i_n,
    j_n,
    quoted_closed_form_h2,
    rho_n,
    solve_crossing,
)
from dispbound.errors import DivergenceError
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
from dispbound.verify import _CLOSED_FORM_TOL, SuiteConfig, run_suite


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
    gaps = {}
    for n in (10**5, 10**6):
        ratio = math.exp(a_n(n).log_magnitude - b_n(n).log_magnitude)
        gaps[n] = abs(ratio - limit)
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
    for n in range(2, 1001):
        result = solve_crossing(n)
        residual = abs(
            i_n(n, result.rho_star).log_magnitude
            - j_n(n, result.rho_star).log_magnitude
        )
        worst = max(worst, residual)
        a_above_b = a_n(n).log_magnitude > b_n(n).log_magnitude
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
    first = measured_thresholds()
    second = measured_thresholds()
    stable = first == second
    n0 = first.bracket_start
    # re-verify the bracket directly on a slice above the threshold
    recheck = True
    for n in range(n0, 301):
        c = c_n(n).to_float()
        rho = solve_crossing(n).rho_star
        recheck = recheck and (1.0 + c - c * c / (n - 1.0) <= rho <= 1.0 + c)
    ok = stable and n0 <= 100 and recheck
    line = report(
        4, ok,
        f"bracket holds from n0={n0} (<= 100), stable across runs: {stable}, "
        f"direct recheck to n=300: {recheck}",
    )
    assert ok, line


def test_criterion_05_series_inversion_roundtrip_and_divergence():
    worst_rel = 0.0
    for n in (50, 500, 5000):
        y = c_n(n).to_float()
        series = inverse_series(n - 1, 200)
        back = forward_map(n - 1, evaluate_inverse(series, y).value)
        worst_rel = max(worst_rel, abs(back - y) / y)
    diverged = []
    for order in (1, 2, 10):
        series = inverse_series(order, 200)
        try:
            evaluate_inverse(series, 1.05 * inversion_radius(order))
            diverged.append(False)
        except DivergenceError:
            diverged.append(True)
    ok = worst_rel <= 1e-8 and all(diverged)
    line = report(
        5, ok,
        f"roundtrip rel err {worst_rel:.3g} (<= 1e-8) at n in (50,500,5000); "
        f"divergence flagged at 1.05*radius for orders (1,2,10): {diverged}",
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


def test_criterion_11_default_suite_green():
    start = time.perf_counter()
    suite = run_suite(SuiteConfig())
    elapsed = time.perf_counter() - start
    body_ids = {rec.body_id for rec in suite.records}
    analytic = {"sphere-unit", "cylinder-rho2", "cylinder-rho20"}
    polytopes = {b for b in body_ids if b.startswith("polytope-")}
    map_ids = {rec.map_id for rec in suite.records if rec.map_id}
    ok = (
        suite.passed
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
        f"failures, {len(suite.missing_notes)} missing notes, "
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
