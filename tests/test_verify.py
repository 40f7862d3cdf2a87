"""Tests for the inequality verification harness."""

import inspect
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dispbound.constants import envelope_b_n, h_n, i_n_limit, i_star_n, j_n, pal_constant, rho_star
from dispbound.errors import ConfigurationError, DomainError
from dispbound.geometry import (
    CylinderBody,
    SphereBody,
    central_point_map,
    displacement_stats,
    equilateral_triangle,
    euclidean_antipode_map,
    half_perimeter_map,
    random_polytope,
    regular_polygon,
)
from dispbound.verify import (
    CHORD_DIRECTIONS,
    ORIENTATION,
    SuiteConfig,
    VerificationRecord,
    audit_orientation_notes,
    check_area_via_isoperimetric,
    check_chord_projection,
    check_cone_vs_ball,
    check_crofton,
    check_envelope,
    check_main_theorem,
    check_mean_width,
    check_pal_firey,
    check_point_pair_bound,
    check_volume_bound,
    derive_status,
    load_records_csv,
    load_records_jsonl,
    records_to_csv,
    records_to_jsonl,
    run_suite,
)

COMMITTED_RECORDS = Path(__file__).resolve().parent / "data" / "default-suite-1729.jsonl"

# small but fully passing configuration (verified deterministic)
TEST_CONFIG = SuiteConfig(seed=7, samples=1500, polytope_count=3)


def normalized_cylinder(rho: float) -> CylinderBody:
    return CylinderBody(2, (rho - 1.0) / (2.0 * rho), 1.0 / rho)


# ---------------------------------------------------------------------------
# single checks against hand values
# ---------------------------------------------------------------------------


def test_main_theorem_sphere_margin_matches_hand_value():
    ball = SphereBody(1.0)
    stats = displacement_stats(ball, euclidean_antipode_map(), samples=500, seed=3)
    rec = check_main_theorem(ball, stats)
    assert rec.theorem_id == "thm_1_1"
    assert rec.status == "strict" and rec.passed
    assert rec.lhs == pytest.approx(4.0 * math.pi, rel=1e-12)
    # displacement is exactly pi everywhere, so the right side is h_2 pi^2
    assert rec.rhs == pytest.approx(h_n(2).to_float() * math.pi**2, rel=1e-6)
    assert rec.margin == rec.lhs - rec.rhs
    params = dict(rec.params)
    assert params["distance_kind"] == "exact"
    assert params["mu_source"] == "sampled"
    assert "sampled minimum displacement" in rec.bound_orientation_notes


def test_main_theorem_rejects_curves():
    tri = equilateral_triangle(1.0)
    with pytest.raises(DomainError):
        check_main_theorem(tri, displacement_stats(tri, half_perimeter_map(), samples=50, seed=0))


def test_point_pair_sphere_antipodes_take_starred_branch():
    ball = SphereBody(1.0)
    x, y = np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])
    rec = check_point_pair_bound(ball, x, y)
    assert rec.theorem_id == "cor_2_7"
    assert rec.status == "strict" and rec.passed
    params = dict(rec.params)
    assert params["rho_pair"] == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert params["supporting_planes"] is True
    expected = i_star_n(2, math.pi / 2.0).to_float() * math.pi**2
    assert rec.rhs == pytest.approx(expected, rel=1e-12)


def test_point_pair_nonantipodal_sphere_uses_plain_branch():
    ball = SphereBody(1.0)
    x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    rec = check_point_pair_bound(ball, x, y)
    # the chord-orthogonal planes cut through the ball, so no starred bound
    assert rec.theorem_id == "prop_2_1"
    assert dict(rec.params)["supporting_planes"] is False
    assert dict(rec.params)["rho_pair"] == pytest.approx(
        (math.pi / 2.0) / math.sqrt(2.0), rel=1e-12
    )
    assert rec.passed


def test_point_pair_cylinder_cap_centers_recover_profile_distortion():
    for rho in (2.0, 20.0):
        body = normalized_cylinder(rho)
        top = np.array([0.0, 0.0, body.height / 2.0])
        rec = check_point_pair_bound(body, top, -top)
        assert rec.theorem_id == "cor_2_7"  # caps lie in supporting planes
        assert rec.status == "strict" and rec.passed
        assert dict(rec.params)["rho_pair"] == pytest.approx(rho, rel=1e-12)
        assert dict(rec.params)["intrinsic_distance"] == pytest.approx(1.0, rel=1e-12)


def test_point_pair_degenerate_ratio_is_not_applicable():
    body = CylinderBody(2, 1.0, 1.0)
    x = np.array([0.3, 0.0, 0.5])
    y = np.array([-0.2, 0.4, 0.5])  # same flat cap: distance equals chord
    rec = check_point_pair_bound(body, x, y)
    assert rec.status == "not_applicable"
    assert rec.passed  # vacuous
    assert "ratio 1" in rec.bound_orientation_notes


def test_point_pair_on_polytope_is_strict():
    # the right side i_n(d/chord) d^n grows with d, so an upper-bound graph
    # distance can only make the check harder
    body = random_polytope(23, 18)
    pts = body.sample_boundary(1, 2)
    rec = check_point_pair_bound(body, pts[0], pts[1])
    assert rec.theorem_id == "prop_2_1"
    assert rec.status == "strict" and rec.passed
    assert dict(rec.params)["distance_kind"] == "upper_bound"
    assert "pair distance sits at or above" in rec.bound_orientation_notes


def test_volume_bound_triangle_ratio_is_four_thirds():
    tri = equilateral_triangle(1.0)
    stats = displacement_stats(tri, half_perimeter_map(), samples=300, seed=5)
    rec = check_volume_bound(tri, stats)
    assert rec.theorem_id == "prop_3_1"
    assert rec.passed
    # area (sqrt3/4) against (1/sqrt3)(3L/2 / 2)^2 = 9/(16 sqrt3): ratio 4/3
    assert rec.lhs / rec.rhs == pytest.approx(4.0 / 3.0, rel=1e-9)
    params = dict(rec.params)
    assert params["mu_hat"] == pytest.approx(1.5, abs=1e-12)
    assert params["rho_hat"] == pytest.approx(2.0, rel=1e-9)


def test_volume_bound_sphere_hand_value():
    ball = SphereBody(1.0)
    stats = displacement_stats(ball, euclidean_antipode_map(), samples=400, seed=1)
    rec = check_volume_bound(ball, stats)
    assert rec.lhs == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
    expected = pal_constant(3).to_float() * 2.0**3  # mu/rho = pi/(pi/2) = 2
    assert rec.rhs == pytest.approx(expected, rel=1e-6)
    assert rec.passed


def test_isoperimetric_area_bound_sphere():
    ball = SphereBody(1.0)
    stats = displacement_stats(ball, central_point_map(), samples=400, seed=2)
    rec = check_area_via_isoperimetric(ball, stats)
    assert rec.theorem_id == "cor_3_2"
    # J_2 scales as rho^-2, so J_2(pi/2) mu^2 = J_2(1) * 4 exactly
    assert rec.rhs == pytest.approx(j_n(2, 1.0).to_float() * 4.0, rel=1e-6)
    assert rec.passed
    assert "decreases in the distortion" in rec.bound_orientation_notes


def test_pal_firey_triangle_is_an_equality_record():
    tri = equilateral_triangle(1.0)
    rec = check_pal_firey(tri)
    assert rec.theorem_id == "thm_3_6"
    assert rec.status == "equality"
    assert rec.passed
    assert abs(rec.margin) <= 1e-12
    assert dict(rec.params)["min_width_kind"] == "exact"


def test_pal_firey_ball_and_polytope_strict():
    ball = SphereBody(1.0)
    rec = check_pal_firey(ball)
    assert rec.status == "strict" and rec.passed
    assert rec.lhs == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
    assert rec.rhs == pytest.approx(pal_constant(3).to_float() * 8.0, rel=1e-6)
    body = random_polytope(77, 20)
    rec2 = check_pal_firey(body)
    assert rec2.status == "strict" and rec2.passed
    assert dict(rec2.params)["min_width_kind"] == "exact"
    assert dict(rec2.params)["constants_kind"] == "pal_firey"
    assert "no estimate entered" in rec2.bound_orientation_notes


def test_cone_vs_ball_closed_forms():
    rec = check_cone_vs_ball(3)
    assert rec.lhs == pytest.approx(math.pi / 6.0, rel=1e-12)  # width-1 ball
    assert rec.rhs == pytest.approx(math.pi / 9.0, rel=1e-12)  # width-1 cone
    assert rec.status == "strict" and rec.passed
    assert dict(rec.params)["cone_above_floor"] is True
    for d in (4, 5, 6):
        assert check_cone_vs_ball(d).passed
    with pytest.raises(DomainError):
        check_cone_vs_ball(2)


def test_mean_width_sphere_is_equality_case():
    ball = SphereBody(1.0)
    stats = displacement_stats(ball, euclidean_antipode_map(), samples=2000, seed=9)
    rec = check_mean_width(ball, stats)
    assert rec.theorem_id == "thm_1_4"
    assert rec.status == "equality" and rec.passed
    assert rec.lhs == 2.0
    assert abs(rec.margin) <= dict(rec.params)["equality_tolerance"] == 2e-12


def test_mean_width_polygon_half_perimeter_equality_is_closed_form():
    pent = regular_polygon(5, 1.0)
    stats = displacement_stats(pent, half_perimeter_map(), samples=500, seed=4)
    rec = check_mean_width(pent, stats)
    assert rec.status == "equality" and rec.passed
    assert abs(rec.margin) <= 1e-12
    assert dict(rec.params)["mean_width_method"] == "polygon_support_integral"


def test_mean_width_polygon_central_map_is_strict():
    tri = equilateral_triangle(1.0)
    stats = displacement_stats(tri, central_point_map(), samples=500, seed=4)
    rec = check_mean_width(tri, stats)
    assert rec.status == "strict" and rec.passed
    assert rec.lhs == pytest.approx(3.0 / math.pi, rel=1e-12)


def test_crofton_identity_at_closed_form_tolerance():
    square = regular_polygon(4, 1.0)
    rec = check_crofton(square, seed=0)
    assert rec.theorem_id == "thm_2_2"
    assert rec.status == "equality" and rec.passed
    params = dict(rec.params)
    assert params["equality_tolerance"] == 1e-12 * rec.lhs
    assert params["relative_gap"] <= 1e-15
    assert params["mc_stderr"] == 0.0 and params["mean_width_samples"] == 0
    ball = SphereBody(1.0)
    with pytest.raises(DomainError):
        check_crofton(ball)


def test_chord_projection_bound_on_polytopes():
    body = random_polytope(55, 24)
    rec = check_chord_projection(body, seed=3)
    assert rec.theorem_id == "lem_2_7"
    assert rec.status == "strict" and rec.passed
    assert rec.lhs == pytest.approx(body.enclosed_volume(), rel=1e-12)
    assert dict(rec.params)["directions"] == 10
    assert 0 <= dict(rec.params)["worst_direction_index"] < 10
    ball = SphereBody(1.0)
    with pytest.raises(DomainError):
        check_chord_projection(ball)


def test_envelope_status_follows_crossing():
    # low-distortion body: exact distances, and the envelope at the sampled
    # distortion pi/2 (below the crossing) is above its limit -> strict
    ball = SphereBody(1.0)
    stats = displacement_stats(ball, euclidean_antipode_map(), samples=400, seed=6)
    rec = check_envelope(ball, stats)
    assert rec.theorem_id == "prop_4_1"
    params = dict(rec.params)
    assert params["rho_hat"] <= params["crossing"]
    assert rec.status == "strict" and rec.passed
    assert params["rho_hat_exceeds_one"] is True
    # squat cylinder: cap-center style pairs push the distortion past the
    # crossing, where the envelope is below its limit -> advisory
    squat = normalized_cylinder(20.0)
    stats = displacement_stats(squat, central_point_map(), samples=4000, seed=6)
    rec2 = check_envelope(squat, stats)
    params2 = dict(rec2.params)
    assert params2["rho_hat"] > params2["crossing"]
    assert rec2.status == "advisory"
    assert "advisory" in rec2.bound_orientation_notes


# where the envelope, j_n(1) rho^-n below the crossing, meets its limit
# i_n(inf); from n = 6 on, j_n(1) itself is below the limit
ENVELOPE_CERTIFIES_UP_TO = {2: 1.795546, 3: 1.543147, 4: 1.269077, 5: 1.071526, 6: None}


@pytest.mark.parametrize("n", range(2, 7))
def test_envelope_certifies_only_at_or_above_its_limit(n):
    limit = i_n_limit(n).to_float()
    w = math.pi ** ((n - 2) / 2) / math.gamma(n / 2)  # the unit (n-2)-ball volume
    assert limit == pytest.approx(w / (n * (n - 1) * 2 ** (n - 2)), rel=1e-12)
    assert h_n(n).to_float() < limit  # the envelope's minimum, at the crossing
    grid = np.concatenate([[1.0], np.geomspace(1.0 + 1e-6, 1e6, 500)])
    values = np.array([envelope_b_n(n, rho).to_float() for rho in grid])
    assert values[-1] < limit and values[-1] == pytest.approx(limit, rel=1e-5)
    reach = ENVELOPE_CERTIFIES_UP_TO[n]
    if reach is not None:
        assert (j_n(n, 1.0).to_float() / limit) ** (1.0 / n) == pytest.approx(reach, abs=1e-6)
        assert reach < rho_star(n)[0]
    for k, rho in enumerate(grid):
        params = {"surface_dimension": n, "constants_kind": "pal_firey",
                  "rho_hat": rho, "distance_kind": "exact"}
        status = derive_status("prop_4_1", params)[0]
        assert (status == "strict") == (values[k] >= limit)
        if reach is None or abs(rho - reach) > 1e-5:
            assert (status == "strict") == (reach is not None and rho < reach)
        if status == "strict":  # no larger distortion raises the envelope
            assert values[k:].max() == values[k]
        upper = derive_status("prop_4_1", {**params, "distance_kind": "upper_bound"})
        assert upper[0] == "advisory"
    if n == 2:  # the sphere's exact distortion pi/2 still certifies
        assert envelope_b_n(2, math.pi / 2).to_float() == pytest.approx(0.6533, abs=1e-4)


def test_sampled_checks_refuse_statistics_of_another_body():
    ball, other = SphereBody(1.0, body_id="ball"), SphereBody(2.0, body_id="other")
    stats = displacement_stats(other, euclidean_antipode_map(), samples=50, seed=1)
    for check in (check_main_theorem, check_volume_bound, check_area_via_isoperimetric,
                  check_mean_width, check_envelope):
        with pytest.raises(ConfigurationError):
            check(ball, stats)


# ---------------------------------------------------------------------------
# suite behaviour
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_suite():
    return run_suite(TEST_CONFIG)


def test_suite_passes_and_audits_clean(small_suite):
    assert small_suite.passed
    assert small_suite.strict_failures == ()
    assert small_suite.equality_failures == ()
    assert small_suite.missing_notes == ()
    counts = dict(small_suite.status_counts)
    assert counts["strict"] > 50
    assert counts["equality"] >= 10
    assert counts["advisory"] >= 5


def _toward_true_values(name, params):
    """Values of one input from its estimate toward where the true value can
    sit: a smaller minimum displacement, a larger distortion (up to 1e6) on
    exact distances, a smaller pair distance (down to the chord)."""
    steps = np.linspace(0.0, 1.0, 9)
    if name == "mu_hat":
        return params["mu_hat"] * (1.0 - steps)
    if name == "rho_hat":
        assert params["distance_kind"] == "exact"
        return np.geomspace(params["rho_hat"], 1e6, 25)
    d, chord = params["intrinsic_distance"], params["chord"]
    if params["distance_kind"] == "exact":
        return np.array([d])
    return d - (d - chord * (1.0 + 1e-9)) * steps


def test_strict_right_sides_never_rise_toward_the_true_inputs(small_suite):
    checked = 0
    for rec in small_suite.records:
        entry = ORIENTATION.get(rec.theorem_id)
        if entry is None or rec.status == "not_applicable":
            continue
        params = dict(rec.params)
        assert entry.rhs(params) == rec.rhs  # the checks' right side is the table's
        assert derive_status(rec.theorem_id, params)[1] in rec.bound_orientation_notes
        if rec.status != "strict":
            continue
        names = [name for name, _ in entry.slopes]
        grids = [_toward_true_values(name, params) for name in names]
        for values in itertools.product(*grids):
            moved = {**params, **{name: float(v) for name, v in zip(names, values)}}
            assert entry.rhs(moved) <= rec.rhs, (rec.theorem_id, rec.body_id, moved)
        checked += 1
    assert checked > 50


def test_audit_flags_strict_records_with_an_unsafe_input(small_suite):
    import dataclasses

    records = list(small_suite.records)
    advisory = next(i for i, r in enumerate(records) if r.status == "advisory")
    records[advisory] = dataclasses.replace(records[advisory], status="strict")
    exact = next(
        i for i, r in enumerate(records)
        if r.theorem_id == "cor_3_2" and dict(r.params)["distance_kind"] == "exact"
    )
    params = {**dict(records[exact].params), "distance_kind": "upper_bound"}
    records[exact] = dataclasses.replace(records[exact], params=tuple(params.items()))
    assert audit_orientation_notes(records) == tuple(sorted((advisory, exact)))


def test_suite_records_are_sorted_and_typed(small_suite):
    keys = [rec.sort_key() for rec in small_suite.records]
    assert keys == sorted(keys)
    for rec in small_suite.records:
        assert isinstance(rec, VerificationRecord)
        assert rec.margin == rec.lhs - rec.rhs
        assert rec.status in ("strict", "equality", "advisory", "not_applicable")


def test_suite_covers_every_theorem(small_suite):
    seen = {rec.theorem_id for rec in small_suite.records}
    assert seen == {
        "thm_1_1", "prop_2_1", "cor_2_7", "prop_3_1", "cor_3_2",
        "thm_3_6", "thm_1_4", "thm_2_2", "lem_2_7", "prop_4_1",
    }


def test_suite_central_maps_have_distortion_above_one(small_suite):
    assert small_suite.min_central_rho_hat > 1.0


def test_suite_skips_are_only_symmetry_mismatches(small_suite):
    assert len(small_suite.skipped) > 0
    for body_id, map_id, reason in small_suite.skipped:
        assert map_id == "euclidean-antipode"
        assert "centrally symmetric" in reason


def test_suite_determinism():
    a = run_suite(TEST_CONFIG)
    b = run_suite(TEST_CONFIG)
    assert records_to_jsonl(a.records) == records_to_jsonl(b.records)


def test_suite_keeps_one_polytope_graph_alive_at_a_time(monkeypatch):
    """Each polytope's Steiner graph, V x V table and all, is freed by
    reference counting once that polytope's checks are done: when a graph
    is built, every graph built before it is already dead."""
    import gc
    import weakref

    from dispbound.geometry import geodesic

    built, alive_at_build = [], []

    class Watched(geodesic.GeodesicGraph):
        def __init__(self, *args, **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in built))
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(geodesic, "GeodesicGraph", Watched)
    gc.disable()
    try:
        run_suite(SuiteConfig(seed=1729, polytope_count=2))
    finally:
        gc.enable()
    assert alive_at_build == [0, 0, 0, 0]  # pancake, cigar, two random polytopes


def test_suite_bodies_are_built_only_when_the_loop_asks_for_them():
    """At 10^18 polytopes a built list would never be ready; the stream's
    first 11 bodies (the sphere, two cylinders, five polygons, two shaped
    polytopes and the first random one) come at once and are those of a
    one-polytope suite."""
    from dispbound.verify import _suite_bodies

    # checked first, so a list-returning version fails here instead of
    # building 10^18 polytopes
    assert inspect.isgeneratorfunction(_suite_bodies)
    head = list(itertools.islice(_suite_bodies(SuiteConfig(polytope_count=10**18)), 11))
    one = list(_suite_bodies(SuiteConfig(polytope_count=1)))
    assert [b.body_id for b in head] == [b.body_id for b in one]
    for a, b in zip(head, one):
        assert type(a) is type(b)
        if hasattr(a, "vertices"):
            assert a.vertices.tobytes() == b.vertices.tobytes()


def test_suite_config_validation():
    with pytest.raises(ConfigurationError):
        SuiteConfig(samples=0)
    # the suite runs in one thread; the count is not a setting
    assert SuiteConfig().threads == 1
    with pytest.raises(TypeError):
        SuiteConfig(threads=4)
    with pytest.raises(TypeError):  # the suite checks the Pal-Firey constants only
        SuiteConfig(kind="bezdek")
    # fixed: subdivision 6, displacement_stats' distance cap, 10 chord directions
    for removed in ("subdivision", "distance_cap", "chakerian_directions"):
        with pytest.raises(TypeError):
            SuiteConfig(**{removed: 1})


def test_checks_and_map_factories_take_no_settings():
    # the constants kind, the chord directions and the map ids are constants;
    # records keep constants_kind and directions in their params
    functions = (
        check_main_theorem, check_volume_bound, check_area_via_isoperimetric,
        check_envelope, check_mean_width, check_pal_firey, check_chord_projection,
        central_point_map, euclidean_antipode_map, half_perimeter_map,
        displacement_stats,
    )
    assert {f.__name__: list(inspect.signature(f).parameters) for f in functions} == {
        "check_main_theorem": ["body", "stats"],
        "check_volume_bound": ["body", "stats"],
        "check_area_via_isoperimetric": ["body", "stats"],
        "check_envelope": ["body", "stats"],
        "check_mean_width": ["body", "stats"],
        "check_pal_firey": ["body", "seed"],
        "check_chord_projection": ["body", "seed"],
        "central_point_map": [],
        "euclidean_antipode_map": [],
        "half_perimeter_map": [],
        "displacement_stats": ["body", "disp_map", "samples", "seed"],
    }


# ---------------------------------------------------------------------------
# serialization and audit
# ---------------------------------------------------------------------------


def test_jsonl_and_csv_roundtrip_exactly(small_suite, tmp_path):
    jpath = tmp_path / "records.jsonl"
    cpath = tmp_path / "records.csv"
    jpath.write_text(records_to_jsonl(small_suite.records), encoding="utf-8")
    cpath.write_text(records_to_csv(small_suite.records), encoding="utf-8")
    assert load_records_jsonl(jpath) == small_suite.records
    assert load_records_csv(cpath) == small_suite.records


def test_jsonl_lines_carry_schema_version(small_suite):
    first = json.loads(records_to_jsonl(small_suite.records).splitlines()[0])
    assert first["schema_version"] == 1
    assert set(first) == {
        "schema_version", "theorem_id", "body_id", "map_id", "status", "pass",
        "lhs", "rhs", "margin", "seed", "bound_orientation_notes", "params",
    }


def test_csv_header_and_pass_encoding(small_suite):
    text = records_to_csv(small_suite.records)
    header = text.splitlines()[0]
    assert header.startswith("schema_version,theorem_id,body_id,map_id,status,pass")
    assert ",true," in text or ",false," in text


def test_loader_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema_version": 99}\n')
    with pytest.raises(ConfigurationError):
        load_records_jsonl(path)


def test_committed_records_round_trip_through_csv_byte_for_byte(tmp_path):
    # every status and params shape of the default suite, through both codecs
    as_csv = tmp_path / "records.csv"
    as_csv.write_text(records_to_csv(load_records_jsonl(COMMITTED_RECORDS)), encoding="utf-8")
    back = records_to_jsonl(load_records_csv(as_csv))
    assert back == COMMITTED_RECORDS.read_text(encoding="utf-8")


def test_loaders_refuse_malformed_records_naming_file_line_and_field(malformed_records):
    load = load_records_csv if malformed_records.path.suffix == ".csv" else load_records_jsonl
    with pytest.raises(ConfigurationError) as refused:
        load(malformed_records.path)
    message = str(refused.value)
    assert message.startswith(f"{malformed_records.path}, line {malformed_records.line}: ")
    assert malformed_records.names in message


def test_loaders_refuse_values_of_another_type(tmp_path):
    line = COMMITTED_RECORDS.read_text(encoding="utf-8").splitlines()[0]
    record = json.loads(line)
    path = tmp_path / "records.jsonl"
    for field, value in (("lhs", 1), ("seed", 1.0), ("seed", True), ("map_id", 3),
                         ("schema_version", True), ("bound_orientation_notes", None)):
        path.write_text(json.dumps({**record, field: value}) + "\n")
        with pytest.raises(ConfigurationError, match=f"line 1: field '{field}' must be"):
            load_records_jsonl(path)
    path.write_text(json.dumps({key: v for key, v in record.items() if key != "seed"}))
    with pytest.raises(ConfigurationError, match="line 1: missing field 'seed'"):
        load_records_jsonl(path)


def test_audit_flags_silent_approximations(small_suite):
    rec = small_suite.records[0]
    # strip the notes from a record that carries sampled quantities
    sampled = next(
        r for r in small_suite.records if dict(r.params).get("mu_source") == "sampled"
    )
    import dataclasses

    silent = dataclasses.replace(sampled, bound_orientation_notes="")
    assert audit_orientation_notes([rec, silent]) == (1,)
    assert audit_orientation_notes(small_suite.records) == ()


def test_chord_projection_rhs_equals_two_rays_per_direction():
    from scipy.spatial import ConvexHull

    from dispbound.geometry import substream, unit_directions

    body = random_polytope(55, 24)
    rec = check_chord_projection(body, seed=4)
    dirs = unit_directions(substream(4, "chord-projection", body.body_id), CHORD_DIRECTIONS, 3)
    center = body.solid_centroid()
    faces = body.face_tables
    rhs = []
    for u in dirs:
        ends = body.ray_exit(center, u[None]), body.ray_exit(center, -u[None])
        chord = float(np.linalg.norm(ends[0] - ends[1]))
        # Cauchy's projection formula, face by face in face order
        covered = 0.0
        for area, normal in zip(faces.areas.tolist(), faces.normals):
            covered += area * abs(float(np.vecdot(normal, u)))
        shadow = 0.5 * covered
        rhs.append(chord * shadow / 3.0)
        # oracle: the 2-d hull of the projected vertices.  Over 80 random
        # polytopes (6 to 40 vertices) x 50 directions the two areas differed
        # by at most 9 ulp, and by at most 4 ulp on this body.
        basis = np.linalg.svd(u[None, :])[2][1:]
        hull_area = float(ConvexHull(body.vertices @ basis.T).volume)
        assert abs(shadow - hull_area) <= 10 * math.ulp(hull_area)
    assert rec.rhs == max(rhs)
    assert dict(rec.params)["worst_direction_index"] == int(np.argmax(rhs))
