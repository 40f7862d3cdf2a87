"""Tests for the concrete convex bodies and their measurements."""

import math
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispbound.constants import i_bar_n
from dispbound.errors import ConfigurationError, DomainError
from dispbound.geometry import (
    ConvexBody,
    CylinderBody,
    GeodesicGraph,
    PolygonBoundary,
    Polytope3,
    SphereBody,
    central_point_map,
    cube,
    equilateral_triangle,
    euclidean_antipode_map,
    half_perimeter_map,
    load_body,
    min_width,
    random_polytope,
    regular_polygon,
    save_body,
    substream,
    unit_directions,
)
from dispbound.verify import SuiteConfig, _suite_bodies

RNG_SEED = 90125


def normalized_cylinder(n: int, rho: float) -> CylinderBody:
    """Cylinder with cap-center displacement exactly 1 and distortion rho."""
    r = (rho - 1.0) / (2.0 * rho)
    return CylinderBody(n, r, 1.0 / rho)


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def test_substream_is_deterministic_and_name_sensitive():
    a = substream(7, "alpha").random(4)
    b = substream(7, "alpha").random(4)
    c = substream(7, "beta").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_unit_directions_are_unit():
    rng = substream(RNG_SEED, "unit-test")
    dirs = unit_directions(rng, 500, 5)
    assert dirs.shape == (500, 5)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# spheres
# ---------------------------------------------------------------------------


def test_sphere_measures_match_closed_forms():
    s = SphereBody(2.0, center=[1.0, -1.0, 0.5])
    assert s.boundary_area() == pytest.approx(4 * math.pi * 4.0, rel=1e-13)
    assert s.enclosed_volume() == pytest.approx(4 * math.pi * 8.0 / 3.0, rel=1e-13)
    assert s.support([0.0, 0.0, 2.0]) == pytest.approx(2 * (0.5 + 2.0))


def test_sphere_intrinsic_distance_is_arc_length():
    s = SphereBody(3.0, center=np.zeros(4))
    x = np.array([3.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 3.0, 0.0, 0.0])
    value, kind = s.intrinsic_distance(x, y)
    assert kind == "exact"
    assert value == pytest.approx(3.0 * math.pi / 2.0, rel=1e-14)
    off = np.array([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        s.intrinsic_distance(x, off)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_sphere_antipodal_distances_are_half_great_circles(dim):
    # arccos of the dot product loses ~1e-8 next to -1; the half-chord
    # form keeps antipodal pairs at pi r to a few ulp, and no arc is below
    # its chord
    for center, radius in ((np.zeros(dim), 1.0), (np.linspace(-0.3, 0.6, dim), 2.7)):
        s = SphereBody(radius, center=center)
        u = unit_directions(substream(RNG_SEED, "antipodes", str(dim)), 2000, dim)
        x, y = center + radius * u, center - radius * u
        values, kind = s.intrinsic_distances_batch(x, y)
        assert kind == "exact"
        assert np.max(np.abs(values - math.pi * radius)) <= 4 * np.spacing(math.pi * radius)
        # nearly coincident pairs, where the arc exceeds the chord by far
        # less than an ulp
        w = u + 1e-9 * unit_directions(substream(RNG_SEED, "near", str(dim)), 2000, dim)
        near = center + radius * w / np.linalg.norm(w, axis=1)[:, None]
        for p, q in ((x, y), (x, s.sample_boundary(dim, 2000)), (x, near)):
            arcs, _ = s.intrinsic_distances_batch(p, q)
            assert np.all(arcs >= np.linalg.norm(p - q, axis=1))


def test_sphere_sampling_is_on_boundary_and_deterministic():
    s = SphereBody(1.5, center=[0.0, 0.0, 1.0])
    pts = s.sample_boundary(11, 400)
    again = s.sample_boundary(11, 400)
    assert np.array_equal(pts, again)
    radii = np.linalg.norm(pts - s.center, axis=1)
    np.testing.assert_allclose(radii, 1.5, atol=1e-12)
    # centers of mass of uniform sphere samples concentrate near the center
    assert np.linalg.norm(pts.mean(axis=0) - s.center) < 0.2


def test_sphere_ray_exit_and_validation():
    s = SphereBody(1.0)
    hit = s.ray_exit(np.array([0.3, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0]]))
    np.testing.assert_allclose(hit, [[1.0, 0.0, 0.0]], atol=1e-14)
    with pytest.raises(DomainError):
        s.ray_exit(np.array([2.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ConfigurationError):
        SphereBody(-1.0)


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("rho", [1.5, 2.0, 5.0, 20.0])
def test_normalized_cylinder_area_matches_flat_bound_constant(n, rho):
    # the cylinder with unit cap-center displacement realizes the constant
    body = normalized_cylinder(n, rho)
    expected = i_bar_n(n, rho).to_float()
    assert body.boundary_area() == pytest.approx(expected, rel=1e-12)


def test_normalized_cylinder_cap_center_distance_is_one():
    for rho in (1.5, 2.0, 7.0):
        body = normalized_cylinder(3, rho)
        top = np.zeros(4)
        top[-1] = body.height / 2.0
        value, kind = body.intrinsic_distance(top, -top)
        assert kind == "exact"
        assert value == pytest.approx(1.0, abs=1e-15)


def test_cylinder_same_cap_distance_is_chord():
    body = CylinderBody(2, 1.0, 2.0)
    x = np.array([0.5, 0.0, 1.0])
    y = np.array([-0.25, 0.5, 1.0])
    value, kind = body.intrinsic_distance(x, y)
    assert kind == "exact"
    assert value == pytest.approx(np.linalg.norm(x - y), rel=1e-15)


def test_cylinder_lateral_distance_unrolls():
    body = CylinderBody(2, 1.0, 10.0)  # tall: over-the-cap is never shorter
    x = np.array([1.0, 0.0, 1.0])
    y = np.array([math.cos(2.0), math.sin(2.0), -2.0])
    value, kind = body.intrinsic_distance(x, y)
    assert kind == "upper_bound"
    assert value == pytest.approx(math.hypot(2.0, 3.0), rel=1e-12)


def test_cylinder_short_lateral_path_crosses_cap():
    # squat cylinder: opposite lateral points connect faster over a cap
    body = CylinderBody(2, 1.0, 0.1)
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([-1.0, 0.0, 0.0])
    value, _ = body.intrinsic_distance(x, y)
    over_cap = 2.0 * math.hypot(0.05, 0.0) + 2.0  # climb, diameter, descend
    assert value <= over_cap + 1e-9
    assert value < math.pi  # strictly beats unrolling around the barrel


def test_cylinder_cap_to_lateral_distance():
    body = CylinderBody(2, 0.25, 0.5)
    x = np.array([0.1, 0.0, 0.25])  # on the top cap
    y = np.array([0.25, 0.0, 0.0])  # on the barrel, same azimuth
    value, kind = body.intrinsic_distance(x, y)
    assert kind == "upper_bound"
    assert value == pytest.approx(0.15 + 0.25, rel=1e-6)


def test_cylinder_opposite_cap_general_points():
    body = CylinderBody(2, 1.0, 1.0)
    x = np.array([0.5, 0.0, 0.5])
    y = np.array([0.5, 0.0, -0.5])
    value, kind = body.intrinsic_distance(x, y)
    assert kind == "upper_bound"
    # straight down the barrel at the same azimuth: 0.5 + 1 + 0.5
    assert value == pytest.approx(2.0, rel=1e-4)
    # never less than the Euclidean chord
    assert value >= np.linalg.norm(x - y)


def test_cylinder_distance_dominates_chord_on_samples():
    body = CylinderBody(2, 0.4, 0.9)
    xs = body.sample_boundary(3, 60)
    ys = body.sample_boundary(4, 60)
    values, _ = body.intrinsic_distances_batch(xs, ys)
    chords = np.linalg.norm(xs - ys, axis=1)
    assert np.all(values >= chords - 1e-9)


def _scalar_cylinder_distance(body, p, q):
    """The per-pair cylinder route the batch replaced, kept as its oracle:
    scalar classification and libm acos, hypot and pow.  Its cap leg is the
    batch's cancellation-free form; the old rho^2 + r^2 - 2 rho r cos(phi)
    lost ~1e-8 near the rim and could return NaN there."""
    r, h = body.base_radius, body.height
    tol = 1e-9 * max(r, h)

    def classify(x):
        perp, z = float(np.linalg.norm(x[:-1])), float(x[-1])
        if abs(z - 0.5 * h) <= tol and perp <= r + tol:
            return "cap_top", perp, z
        if abs(z + 0.5 * h) <= tol and perp <= r + tol:
            return "cap_bottom", perp, z
        assert abs(perp - r) <= tol and abs(z) <= 0.5 * h + tol
        return "lateral", perp, z

    def wrap(delta):
        return np.abs((np.asarray(delta) + np.pi) % (2.0 * np.pi) - np.pi)

    def cap_leg(rho_from, phi):
        return np.sqrt((r - rho_from) ** 2 + 4.0 * rho_from * r * np.sin(phi / 2.0) ** 2)

    piece_p, a, z_p = classify(p)
    piece_q, b, z_q = classify(q)
    if piece_p == piece_q and piece_p.startswith("cap"):
        return float(np.linalg.norm(p - q)), "exact"
    if {piece_p, piece_q} == {"cap_top", "cap_bottom"} and a <= tol and b <= tol:
        return 2.0 * r + h, "exact"
    if a < 1e-14 or b < 1e-14:
        gamma = 0.0
    else:
        gamma = math.acos(float(np.clip(p[:-1] @ q[:-1] / (a * b), -1.0, 1.0)))
    candidates = []
    if piece_p == "lateral" and piece_q == "lateral":
        candidates.append(math.hypot(r * gamma, z_p - z_q))
        u = np.linspace(-math.pi, math.pi, 49)[:, None]
        w = np.linspace(-math.pi, math.pi, 49)[None, :]
        for cap_z in (0.5 * h, -0.5 * h):
            climb = np.sqrt((r * wrap(u)) ** 2 + (cap_z - z_p) ** 2)
            cross = 2.0 * r * np.sin(wrap(w - u) / 2.0)
            descend = np.sqrt((r * wrap(gamma - w)) ** 2 + (cap_z - z_q) ** 2)
            candidates.append(float(np.min(climb + cross + descend)))
    elif piece_p.startswith("cap") != piece_q.startswith("cap"):
        if piece_q.startswith("cap"):
            a, b, piece_p, z_q = b, a, piece_q, z_p
        cap_z = 0.5 * h if piece_p == "cap_top" else -0.5 * h
        phi = np.linspace(-math.pi, math.pi, 257)
        leg2 = np.sqrt((r * wrap(gamma - phi)) ** 2 + (cap_z - z_q) ** 2)
        candidates.append(float(np.min(cap_leg(a, phi) + leg2)))
    else:
        phi = np.linspace(-math.pi, math.pi, 49)[:, None]
        psi = np.linspace(-math.pi, math.pi, 49)[None, :]
        lateral = np.sqrt((r * wrap(gamma - phi - psi)) ** 2 + h**2)
        candidates.append(float(np.min(cap_leg(a, phi) + lateral + cap_leg(b, psi))))
    return min(candidates), "upper_bound"


def _cylinder_piece_points(body, count):
    """Points on each piece: top cap, bottom cap (centers and rims among
    them) and the barrel (its two rim circles among them)."""
    n, r, h = body.n, body.base_radius, body.height
    rng = substream(RNG_SEED, "cylinder-pieces", body.body_id)
    pieces = {}
    for name, z in (("top", 0.5 * h), ("bottom", -0.5 * h)):
        pts = np.empty((count, n + 1))
        pts[:, :-1] = unit_directions(rng, count, n) * (r * rng.random((count, 1)))
        pts[:, -1] = z
        pts[0, :-1] = 0.0  # the cap center
        pts[1, :-1] *= r / np.linalg.norm(pts[1, :-1])  # a rim point
        pieces[name] = pts
    lateral = np.empty((count, n + 1))
    lateral[:, :-1] = r * unit_directions(rng, count, n)
    lateral[:, -1] = h * (rng.random(count) - 0.5)
    lateral[0, -1], lateral[1, -1] = 0.5 * h, -0.5 * h
    pieces["lateral"] = lateral
    return pieces


# Against the scalar route the batch takes arccos, hypot and squares from
# numpy instead of libm, each within an ulp or two of it.
CYLINDER_ULP_BOUND = 8


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r, h", [(0.7, 1.9), (1.0, 0.1), (0.375, 0.25)])
def test_cylinder_batch_equals_scalar_route_on_every_piece_pairing(n, r, h):
    body = CylinderBody(n, r, h)
    pieces = _cylinder_piece_points(body, 24)
    for first in pieces:
        for second in pieces:
            xs, ys = pieces[first], pieces[second][::-1].copy()
            batch, kind = body.intrinsic_distances_batch(xs, ys)
            singles = [body.intrinsic_distance(x, y) for x, y in zip(xs, ys)]
            assert np.array_equal(batch, [v for v, _ in singles])
            oracle = [_scalar_cylinder_distance(body, x, y) for x, y in zip(xs, ys)]
            assert [k for _, k in singles] == [k for _, k in oracle]
            assert kind == ("exact" if all(k == "exact" for _, k in oracle)
                            else "upper_bound")
            expected = np.array([v for v, _ in oracle])
            spacing = np.spacing(np.maximum(batch, expected))
            assert np.all(np.abs(batch - expected) <= CYLINDER_ULP_BOUND * spacing)
    # a mixed batch answers each row as the same row alone
    xs = np.concatenate(list(pieces.values()))
    ys = np.concatenate([pieces[k][::-1] for k in ("lateral", "top", "bottom")])
    batch, _ = body.intrinsic_distances_batch(xs, ys)
    assert np.array_equal(batch, [body.intrinsic_distance(x, y)[0] for x, y in zip(xs, ys)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cylinder_rim_to_barrel_distances_are_finite(n):
    # the law of cosines in its cancelling form returned NaN for about a
    # quarter of these pairs on this cylinder
    body = CylinderBody(n, 0.375, 0.25)
    rng = substream(RNG_SEED, "rim", str(n))
    xs = np.empty((300, n + 1))
    xs[:, :-1] = 0.375 * unit_directions(rng, 300, n)
    xs[:, -1] = 0.125
    ys = np.empty((300, n + 1))
    ys[:, :-1] = 0.375 * unit_directions(rng, 300, n)
    ys[:, -1] = 0.25 * (rng.random(300) - 0.5)
    values, _ = body.intrinsic_distances_batch(xs, ys)
    assert np.all(np.isfinite(values))
    assert np.all(values >= np.linalg.norm(xs - ys, axis=1) * (1.0 - 1e-12))
    # straight down the barrel from a rim point
    rim = np.zeros(n + 1)
    rim[0], rim[-1] = 0.375, 0.125
    below = rim.copy()
    below[-1] = -0.0625
    assert body.intrinsic_distance(rim, below)[0] == 0.1875


def test_cylinder_batch_rejects_off_boundary_points():
    body = CylinderBody(2, 1.0, 2.0)
    on = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(DomainError):
        body.intrinsic_distances_batch(on, np.array([[0.5, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        body.intrinsic_distances_batch(on, np.ones((2, 3)))
    assert body.intrinsic_distances_batch(on[:0], on[:0])[0].shape == (0,)


def test_cylinder_sampling_distribution_and_membership():
    body = CylinderBody(3, 0.5, 2.0)
    pts = body.sample_boundary(21, 4000)
    tol = 1e-9
    perp = np.linalg.norm(pts[:, :-1], axis=1)
    on_cap = np.abs(np.abs(pts[:, -1]) - 1.0) <= tol
    on_side = np.abs(perp - 0.5) <= tol
    assert np.all(on_cap | on_side)
    assert np.all(perp <= 0.5 + tol)
    # area split: caps 2*omega_3*r^3, lateral 3*omega_3*r^2*h
    cap_share = (2 * 0.5**3) / (2 * 0.5**3 + 3 * 0.5**2 * 2.0)
    assert abs(on_cap.mean() - cap_share) < 0.03


def test_cylinder_ray_exit_hits_boundary():
    body = CylinderBody(2, 1.0, 2.0)
    hit = body.ray_exit(np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
    np.testing.assert_allclose(hit, [[0.0, 0.0, 1.0]], atol=1e-14)
    hit = body.ray_exit(np.array([0.0, 0.0, 0.5]), np.array([[1.0, 0.0, 0.0]]))
    np.testing.assert_allclose(hit, [[1.0, 0.0, 0.5]], atol=1e-14)
    with pytest.raises(ConfigurationError):
        CylinderBody(1, 1.0, 1.0)


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------


def test_polygon_rejects_bad_vertex_lists():
    with pytest.raises(ConfigurationError):
        PolygonBoundary([[0, 0], [1, 0]])
    with pytest.raises(ConfigurationError):  # clockwise
        PolygonBoundary([[0, 0], [0, 1], [1, 0]])
    with pytest.raises(ConfigurationError):  # collinear middle vertex
        PolygonBoundary([[0, 0], [1, 0], [2, 0], [1, 1]])


def test_triangle_closed_form_measurements():
    tri = equilateral_triangle(2.0)
    assert tri.perimeter == pytest.approx(6.0, rel=1e-15)
    assert tri.boundary_area() == pytest.approx(6.0, rel=1e-15)
    assert tri.enclosed_volume() == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert min_width(tri).value == pytest.approx(math.sqrt(3.0), rel=1e-14)


def test_polygon_arclength_and_point_roundtrip():
    hexagon = regular_polygon(6, circumradius=2.0)
    s_values = np.linspace(0.0, hexagon.perimeter, 37, endpoint=False)
    pts = hexagon.point_at(s_values)
    np.testing.assert_allclose(hexagon.arclengths_of(pts), s_values, atol=1e-10)
    with pytest.raises(DomainError):
        hexagon.arclengths_of([[10.0, 10.0]])


def test_polygon_intrinsic_distance_wraps_around():
    square = PolygonBoundary([[0, 0], [1, 0], [1, 1], [0, 1]])
    value, kind = square.intrinsic_distance([0.1, 0.0], [0.0, 0.1])
    assert kind == "exact"
    assert value == pytest.approx(0.2, abs=1e-12)  # through the corner


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_polygon_support_is_sublinear(seed):
    pent = regular_polygon(5)
    rng = substream(seed, "sublinear")
    u, v = rng.standard_normal(2), rng.standard_normal(2)
    lhs = pent.support(u + v)
    assert lhs <= pent.support(u) + pent.support(v) + 1e-12


def test_polygon_sampling_lands_on_edges():
    tri = equilateral_triangle(1.0)
    pts = tri.sample_boundary(5, 500)
    s = tri.arclengths_of(pts)  # raises if any point is off the boundary
    assert s.min() >= 0.0 and s.max() < tri.perimeter


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------


def test_cube_faces_are_merged_sorted_and_measured():
    box = cube(2.0)
    faces = box.face_tables
    assert len(faces.sizes) == 6
    assert len(box.edges) == 12
    assert box.boundary_area() == pytest.approx(24.0, rel=1e-13)
    assert box.enclosed_volume() == pytest.approx(8.0, rel=1e-13)
    np.testing.assert_allclose(box.solid_centroid(), 0.0, atol=1e-12)
    # sorting by (normal, offset) puts the -x face first and +x face last
    np.testing.assert_allclose(faces.normals[0], [-1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(faces.normals[-1], [1, 0, 0], atol=1e-12)
    assert float(faces.normals[0] @ faces.normals[-1]) == pytest.approx(-1.0)


def test_cube_shadow_is_the_sum_of_absolute_direction_coordinates():
    # the unit cube's projection along a unit u has area |u1| + |u2| + |u3|
    box = cube(1.0)
    dirs = unit_directions(substream(RNG_SEED, "cube-shadow"), 500, 3)
    expected = np.abs(dirs).sum(axis=1)
    np.testing.assert_array_less(np.abs(box.projected_areas(dirs) - expected),
                                 2 * np.spacing(expected))
    # an axis direction sees one face
    assert box.projected_areas(np.eye(3)).tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(DomainError):
        box.projected_areas(dirs[0])


def test_tetrahedron_area_and_volume():
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    tet = Polytope3(verts)
    edge = 2.0 * math.sqrt(2.0)
    assert len(tet.face_tables.sizes) == 4
    assert tet.boundary_area() == pytest.approx(math.sqrt(3.0) * edge**2, rel=1e-13)
    assert tet.enclosed_volume() == pytest.approx(
        edge**3 / (6.0 * math.sqrt(2.0)), rel=1e-13
    )


def test_polytope_rejects_degenerate_input():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
    with pytest.raises(ConfigurationError):
        Polytope3(flat)


def test_random_polytope_is_deterministic_and_euler_clean():
    body = random_polytope(99, 30)
    again = random_polytope(99, 30)
    assert np.array_equal(body.vertices, again.vertices)
    v, e, f = len(body.vertices), len(body.edges), len(body.face_tables.sizes)
    assert v - e + f == 2
    assert body.enclosed_volume() > 0.0


def test_polytope_ray_exit_and_support():
    box = cube(1.0)
    hit = box.ray_exit(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
    np.testing.assert_allclose(hit, [[0.5, 0.0, 0.0]], atol=1e-14)
    assert box.support([1.0, 1.0, 1.0]) == pytest.approx(1.5)
    dirs = unit_directions(substream(RNG_SEED, "cube-support"), 64, 3)
    widths = box.support_batch(dirs) + box.support_batch(-dirs)
    assert widths.min() >= 1.0 - 1e-12  # cube width is at least the edge


def test_faces_containing_classifies_strata():
    box = cube(1.0)
    # a face point, an edge point, a corner and the centre
    points = np.array([[0.5, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0]])
    assert box.faces_containing(points).sum(axis=1).tolist() == [1, 2, 3, 0]


def test_polytope_sampling_stays_on_faces():
    body = random_polytope(5, 25)
    pts = body.sample_boundary(8, 300)
    on = body.faces_containing(pts[:50]).any(axis=1)
    assert on.all(), f"samples off the boundary: {pts[:50][~on]}"


def test_polytope_fan_areas_sum_to_face_areas():
    for body in (random_polytope(5, 25), _prism(7)):
        t = body.face_tables
        assert t.fan_areas.shape == (len(t.sizes), t.ids.shape[1] - 2)
        for fans, area, k in zip(t.fan_areas, t.areas, t.sizes.tolist()):
            assert np.all(fans[:k - 2] > 0.0) and np.all(fans[k - 2:] == 0.0)
            assert fans.sum() == pytest.approx(area, rel=1e-12)


class _LoopFace(NamedTuple):
    indices: tuple
    normal: np.ndarray
    offset: float
    area: float
    centroid: np.ndarray
    fan_areas: np.ndarray


def _per_face_faces(vertices, rows, equations):
    """Faces merged from hull facets in a Python loop over facets: kept as
    the oracle for the array-built ``_polytope_faces``.  Row i holds facet
    i's vertex ids (ids from ``len(vertices)`` on are padding) and
    ``equations[i]`` its plane (normal, -offset): qhull's simplices and
    equations, or the numpy hull's faces and planes."""
    groups = {}
    for row, eq in zip(rows.tolist(), equations):
        groups.setdefault(tuple(np.round(eq, 7)), []).extend(
            i for i in row if i < len(vertices))
    faces = []
    for eq_key, idx in groups.items():
        normal = np.array(eq_key[:3])
        normal = normal / np.linalg.norm(normal)
        unique = sorted(set(idx))
        coords = vertices[unique]
        centroid = coords.mean(axis=0)
        basis_u = coords[0] - centroid
        basis_u = basis_u / np.linalg.norm(basis_u)
        basis_v = np.cross(normal, basis_u)
        rel = coords - centroid
        order = np.argsort(np.arctan2(rel @ basis_v, rel @ basis_u))
        ordered = tuple(unique[i] for i in order)
        pts = vertices[list(ordered)]
        fans = np.cross(pts[1:-1] - pts[0], pts[2:] - pts[0])
        refit = fans.sum(axis=0)
        normal = refit / float(np.linalg.norm(refit))
        faces.append(_LoopFace(
            indices=ordered, normal=normal, offset=float(np.mean(pts @ normal)),
            area=0.5 * float(np.sum(fans @ normal)), centroid=pts.mean(axis=0),
            fan_areas=0.5 * np.linalg.norm(fans, axis=1),
        ))
    faces.sort(key=lambda f: (tuple(np.round(f.normal, 9)), round(f.offset, 9)))
    return tuple(faces)


def _prism(sides):
    angles = 2 * np.pi * np.arange(sides) / sides
    return Polytope3(np.array([[np.cos(a), np.sin(a), z] for a in angles for z in (-1.0, 1.0)]),
                     body_id=f"prism-{sides}")


def _oracle_face_bodies():
    """The cube, the regular tetrahedron, prisms (merged coplanar facets),
    random polytopes, the suite's pancake and cigar, and cubes with a corner
    moved by 1e-9, which the 7-digit grouping merges back."""
    corners = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                        for z in (-1.0, 1.0)])
    moved = [corners + np.where(np.arange(8)[:, None] == 7, shift, 0.0)
             for shift in ([1e-9, 0, 0], [0, 0, -1e-9], [1e-9, 1e-9, 1e-9])]
    tetrahedron = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    return (
        [cube(1.0), cube(2.0), Polytope3(tetrahedron)]
        + [_prism(sides) for sides in range(3, 12)]
        + [random_polytope(seed, 14 + seed % 12) for seed in range(60)]
        + [b for seed in (0, 1729) for b in _suite_bodies(SuiteConfig(seed=seed, polytope_count=0))
           if b.body_id in ("pancake-flat", "cigar-long")]
        + [Polytope3(c) for c in moved]
    )


def test_array_built_faces_equal_per_face_loop(monkeypatch):
    import dispbound.geometry.bodies as bodies

    built = []
    real = bodies._polytope_faces

    def recording(vertices, faces, planes):
        tables = real(vertices, faces, planes)
        built.append((vertices, (faces, planes), tables))
        return tables

    monkeypatch.setattr(bodies, "_polytope_faces", recording)
    names = [body.body_id for body in _oracle_face_bodies()]
    assert len(built) == len(names)
    # a k-gon prism's side rectangles are merged from two facets each
    assert [len(t.sizes) for _, _, t in built[3:12]] == [k + 2 for k in range(3, 12)]
    assert [len(t.sizes) for _, _, t in built[-3:]] == [6, 6, 6]
    for name, (vertices, hull, tables) in zip(names, built):
        _assert_tables_equal_loop(tables, _per_face_faces(vertices, *hull), len(vertices), name)


def _assert_tables_equal_loop(tables, expected, vertex_count, name):
    """The face tables equal the per-face loop's faces byte for byte."""
    assert len(tables.sizes) == len(expected), name
    for f, want in enumerate(expected):
        k = int(tables.sizes[f])
        assert tables.ids[f, :k].tolist() == list(want.indices), name
        assert np.all(tables.ids[f, k:] == vertex_count)
        assert np.all(tables.fan_areas[f, k - 2:] == 0.0)
        got = _LoopFace(tuple(tables.ids[f, :k].tolist()), tables.normals[f],
                        tables.offsets[f], tables.areas[f], tables.centroids[f],
                        tables.fan_areas[f, :k - 2])
        for field in ("normal", "offset", "area", "centroid", "fan_areas"):
            a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, field)
    # every table is read-only, and the float tables are float64
    for table in tables:
        assert not table.flags.writeable
    for table in (tables.normals, tables.offsets, tables.areas, tables.centroids,
                  tables.fan_areas):
        assert table.dtype == np.float64


def _random_cloud(seed, count):
    """The first cloud ``random_polytope(seed, count)`` tries, interior
    points and all."""
    rng = substream(seed, "random-polytope", "0")
    dirs = unit_directions(rng, count, 3)
    return dirs * (1.0 + 0.35 * (rng.random(count) - 0.5))[:, None]


def _assert_hull_equals_qhull(points, name):
    """Polytope3's vertices and face tables equal those built from qhull's
    hull, which stays in the tests as the oracle of the numpy hull."""
    from scipy.spatial import ConvexHull

    qhull = ConvexHull(points)
    body = Polytope3(points)
    assert body.vertices.tobytes() == points[qhull.vertices].tobytes(), name
    rows = np.searchsorted(qhull.vertices, qhull.simplices)  # in body.vertices' numbering
    expected = _per_face_faces(body.vertices, rows, qhull.equations)
    _assert_tables_equal_loop(body.face_tables, expected, len(body.vertices), name)


def test_numpy_hull_equals_qhull_on_oracle_bodies_and_random_clouds():
    clouds = [(body.body_id, body.vertices) for body in _oracle_face_bodies()]
    clouds += [(f"cloud-{seed}", _random_cloud(seed, 4 + seed % 57)) for seed in range(200)]
    for name, points in clouds:
        _assert_hull_equals_qhull(points, name)
    # the cubes with a corner moved by 1e-9 merge back to six faces
    assert [len(Polytope3(points).face_tables.sizes) for _, points in clouds[-203:-200]] == [6] * 3


def _box_corners():
    return np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)])


@pytest.mark.parametrize("extra", [
    [[0.0, 0.0, 1.0]],  # in a face
    [[0.3, -0.2, -1.0], [-1.0, 0.5, 0.25]],  # in two faces
    [[1.0, 0.0, 1.0]],  # on an edge
    [[-1.0, -1.0, 0.5], [0.25, 1.0, 1.0]],  # on two edges
    [[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]],  # duplicated vertices
    [[0.0, 0.0, 0.0], [0.5, 0.5, -0.5]],  # inside
])
def test_hull_leaves_out_points_that_are_no_vertices(extra):
    corners = _box_corners().tolist()
    for points in (np.vstack([extra, corners]), np.vstack([corners, extra])):
        rows = points.tolist()
        # the corners, each at its first copy, in input order
        first = [i for i, row in enumerate(rows) if row in corners and row not in rows[:i]]
        body = Polytope3(points)
        assert body.vertices.tobytes() == points[first].tobytes()
        assert len(body.face_tables.sizes) == 6 and np.all(body.face_tables.sizes == 4)
        _assert_hull_equals_qhull(points, str(extra))
    # a random polytope keeps its vertices with a point added to a face
    body = random_polytope(5, 25)
    t = body.face_tables
    inside = body.vertices[t.ids[:, :3]].mean(axis=1)
    grown = Polytope3(np.vstack([body.vertices, inside]))
    assert grown.vertices.tobytes() == body.vertices.tobytes()


@pytest.mark.parametrize("points", [
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.2, 0]],  # flat
    [[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3], [-1, -1, -1]],  # collinear
    [[1, 2, 3]] * 6,  # coincident
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [1, 0, 0]],  # three distinct
])
def test_hull_refuses_degenerate_clouds(points):
    with pytest.raises(ConfigurationError, match="degenerate vertex cloud"):
        Polytope3(np.array(points, dtype=float))


# ---------------------------------------------------------------------------
# face-table consumers: each equals the per-face loop it replaced, bit for bit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_bodies():
    """The cube, 3..15-gon prisms (merged caps with up to 13 fan triangles),
    random polytopes with 14-40 vertices and the suite's pancake and cigar."""
    return (
        [cube(1.0)] + [_prism(sides) for sides in range(3, 16)]
        + [random_polytope(seed, 14 + seed % 27) for seed in range(54)]
        + [b for seed in (0, 1729) for b in _suite_bodies(SuiteConfig(seed=seed, polytope_count=0))
           if b.body_id in ("pancake-flat", "cigar-long")]
    )


def _sequential_sum(values):
    """A float sum taken one term after another from 0, as Python 3.11's
    ``sum`` takes it."""
    total = 0
    for value in values:
        total = total + value
    return total


def _per_face_sample(body, seed, count):
    """Samples drawn face by face, one ``rng.choice`` of a fan triangle per
    picked face: kept as the oracle for ``Polytope3.sample_boundary``."""
    rng = substream(seed, "sample-boundary", body.body_id)
    t = body.face_tables
    areas = np.array([float(a) for a in t.areas])
    face_pick = rng.choice(len(areas), size=count, p=areas / areas.sum())
    out = np.empty((count, 3))
    for fi in np.unique(face_pick):
        mask = face_pick == fi
        k = int(mask.sum())
        size = int(t.sizes[fi])
        pts = body.vertices[list(t.ids[fi, :size])]
        tri_areas = t.fan_areas[fi, :size - 2]
        tri_pick = rng.choice(len(tri_areas), size=k, p=tri_areas / tri_areas.sum())
        u = np.sqrt(rng.random(k))
        v = rng.random(k)
        out[mask] = (1 - u)[:, None] * pts[0] + (u * (1 - v))[:, None] * pts[tri_pick + 1] + (
            u * v
        )[:, None] * pts[tri_pick + 2]
    return out


def _per_fan_centroid(body):
    """The solid centroid over one tetrahedron at a time: kept as the oracle
    for ``Polytope3.solid_centroid``."""
    g = body.vertices.mean(axis=0)
    total = 0.0
    acc = np.zeros(3)
    for indices, _, _ in _face_rows(body.face_tables):
        pts = body.vertices[indices]
        for i in range(1, len(pts) - 1):
            tet = np.array([pts[0], pts[i], pts[i + 1]])
            vol = float(np.dot(np.cross(tet[1] - g, tet[2] - g), tet[0] - g)) / 6.0
            acc += vol * (g + tet.sum(axis=0)) / 4.0
            total += vol
    return acc / total


def _dict_edge_sum(body):
    """Length times dihedral angle over a dict of open edges: kept as the
    oracle for ``measures._polytope_edge_sum``."""
    open_edges = {}
    total = 0.0
    for indices, normal, _ in _face_rows(body.face_tables):
        for a, b in zip(indices, indices[1:] + indices[:1]):
            other = open_edges.pop((min(a, b), max(a, b)), None)
            if other is None:
                open_edges[(min(a, b), max(a, b))] = normal
                continue
            across = np.linalg.norm(np.cross(other, normal))
            angle = math.atan2(across, other @ normal)
            total += np.linalg.norm(body.vertices[a] - body.vertices[b]) * angle
    assert not open_edges
    return float(total)


def _bits(x):
    return np.asarray(x).tobytes()


def test_face_table_sampler_equals_per_face_loop(table_bodies):
    for i, body in enumerate(table_bodies):
        for count in (0, 1, 2, 7, 300):
            got = body.sample_boundary(i, count)
            assert got.shape == (count, 3)
            assert _bits(got) == _bits(_per_face_sample(body, i, count)), (body.body_id, count)


def test_face_table_measures_equal_per_face_loops(table_bodies):
    from dispbound.geometry.measures import _polytope_edge_sum

    for body in table_bodies:
        t = body.face_tables
        g = body.vertices.mean(axis=0)
        area = float(_sequential_sum(float(a) for a in t.areas))
        volume = float(_sequential_sum(
            float(a) * (offset - normal @ g)
            for a, (_, normal, offset) in zip(t.areas, _face_rows(t))
        ) / 3.0)
        assert type(body.boundary_area()) is float and type(body.enclosed_volume()) is float
        assert body.boundary_area() == area and body.enclosed_volume() == volume
        assert _bits(body.solid_centroid()) == _bits(_per_fan_centroid(body)), body.body_id
        assert _polytope_edge_sum(body) == _dict_edge_sum(body), body.body_id


def test_polytope_refuses_an_edge_on_one_face(monkeypatch):
    import dispbound.geometry.bodies as bodies

    real = bodies._polytope_faces

    def without_last_face(vertices, faces, planes):
        t = real(vertices, faces, planes)
        return t._replace(**{name: getattr(t, name)[:-1] for name in t._fields})

    last = cube(1.0).face_tables
    k = int(last.sizes[-1])
    ring = last.ids[-1, :k].tolist()
    edges = sorted((min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1]))
    # drop the last face: its four edges now border one face only
    monkeypatch.setattr(bodies, "_polytope_faces", without_last_face)
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"hull edges {edges} do not border exactly two faces")):
        cube(1.0)


def test_face_edges_index_the_edge_table(table_bodies):
    for body in table_bodies:
        t, fe = body.face_tables, body.face_edges
        e = len(body.edges)
        real = t.ids < len(body.vertices)
        assert fe.shape == t.ids.shape and not fe.flags.writeable, body.body_id
        assert np.all(fe[~real] == e), body.body_id
        pairs = np.sort(np.stack([t.ids[real], t.after[real]], axis=1), axis=1)
        assert np.array_equal(body.edges[fe[real]], pairs), body.body_id
        assert np.all(np.bincount(fe[real], minlength=e) == 2), body.body_id


def _einsum_arclengths(body, points):
    """Arc lengths over ``(points, edges, 2)`` arrays with ``einsum`` and a
    norm over the last axis: kept as the oracle for ``arclengths_of``."""
    p = np.asarray(points, dtype=np.float64)
    rel = p[:, None, :] - body.vertices[None, :, :]
    t = np.einsum("pek,ek->pe", rel, body._edges) / body._edge_lengths**2
    t = np.clip(t, 0.0, 1.0)
    foot = body.vertices[None] + t[..., None] * body._edges[None]
    best = np.argmin(np.linalg.norm(p[:, None, :] - foot, axis=2), axis=1)
    rows = np.arange(len(p))
    return body._cum[best] + t[rows, best] * body._edge_lengths[best]


def test_polygon_arclengths_equal_einsum_route():
    polygons = [regular_polygon(s, 1.4) for s in (3, 4, 5, 6, 8, 12, 40)] + [
        equilateral_triangle(2.0)
    ] + [b for b in _suite_bodies(SuiteConfig(seed=1729, polytope_count=0))
         if isinstance(b, PolygonBoundary)]
    for body in polygons:
        for seed in range(3):
            samples = body.sample_boundary(seed, 2000)
            for points in (samples, central_point_map().apply(body, samples),
                           half_perimeter_map().apply(body, samples)):
                assert _bits(body.arclengths_of(points)) == _bits(
                    _einsum_arclengths(body, points)), body.body_id
        assert _bits(body.arclengths_of(body.vertices)) == _bits(
            _einsum_arclengths(body, body.vertices))


def test_cross_equals_np_cross_bit_for_bit():
    """The shapes its callers pass: rows against rows (the hull, solid
    centroid), a block of edges broadcast against every edge (min width),
    and face normals against face normals with signed zeros (edge sum)."""
    from dispbound.geometry.bodies import _cross

    rng = substream(RNG_SEED, "cross")
    scaled = rng.standard_normal((2, 500, 3)) * 10.0 ** rng.integers(-6, 7, (2, 500, 3))
    edges = rng.standard_normal((40, 3))
    normals = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(2, 200, 3))
    normals[:, :3] = [[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [1.0, -0.0, 0.0]]
    for a, b in ((*scaled,), (edges[:7, None], edges), (*normals,)):
        got, want = _cross(a, b), np.cross(a, b)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_blas_row_dots_equal_vecdot_at_every_batch_size():
    from dispbound.geometry.bodies import _row_dots

    rng = substream(RNG_SEED, "row-dots")
    for dim in (2, 3):
        for planes in (3, 4, 8, 56, 129):
            m = rng.standard_normal((planes, dim))
            for rows in (0, 1, 2, 10_000):
                d = rng.standard_normal((rows, dim))
                got = _row_dots(d, m)
                assert got.shape == (rows, planes)
                assert _bits(got) == _bits(np.vecdot(d[:, None, :], m)), (dim, planes, rows)


def test_support_and_ray_exit_equal_vecdot_forms_at_every_batch_size():
    """Ray exits run in blocks of b = BATCH_CELLS // F rows, so the sizes
    around b and 2b + 1 (whose last block is one row, on ``_row_dots``'s
    ``vecdot`` path) are where a block could round apart from its rows."""
    from dispbound.geometry.bodies import BATCH_CELLS, _as_directions, _nearest_exit

    def vecdot_exit(numerators, normals, d):
        denom = np.vecdot(d[:, None, :], normals)
        t = np.full(denom.shape, np.inf)
        np.divide(numerators, denom, out=t, where=denom > 1e-15)
        t[t <= 0.0] = np.inf
        return t.min(axis=1)

    bodies = [b for b in BATCH_BODIES if isinstance(b, (PolygonBoundary, Polytope3))]
    for body in bodies:
        dim = body.ambient_dimension
        o = body.interior_point()
        if isinstance(body, Polytope3):
            normals = body.face_tables.normals
            numerators = body.face_tables.offsets - np.vecdot(normals, o)
        else:
            normals = body._normals
            numerators = np.vecdot(normals, body.vertices - o)
        b = BATCH_CELLS // len(normals)
        for rows in (1, 2, 10_000, b - 1, b, b + 1, 2 * b + 1):
            raw = unit_directions(substream(RNG_SEED, "forms", body.body_id), rows, dim)
            d = _as_directions(raw, dim)  # as ray_exit normalizes them
            want = np.max(np.vecdot(d[:, None, :], body.vertices), axis=1)
            assert _bits(body.support_batch(d)) == _bits(want), (body.body_id, rows)
            best = vecdot_exit(numerators, normals, d)
            assert _bits(_nearest_exit(numerators, normals, d)) == _bits(best)
            exits = body.ray_exit(o, raw)
            assert _bits(exits) == _bits(o + best[:, None] * d), (body.body_id, rows)
        assert body.support(d[0]) == float(want[0])


def test_ray_exit_memory_stays_within_its_blocks():
    """10,000 exits from the suite's cigar (60 faces) keep the output, the
    unit directions and one block's ``(rows, F)`` temporaries, never a
    ``(10_000, F)`` array."""
    import tracemalloc

    from dispbound.geometry.bodies import BATCH_CELLS

    (body,) = [b for b in _suite_bodies(SuiteConfig(seed=1729, polytope_count=0))
               if b.body_id == "cigar-long"]
    o = body.interior_point()
    d = unit_directions(substream(RNG_SEED, "exit-memory"), 10_000, 3)
    tracemalloc.start()
    try:
        exits = body.ray_exit(o, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < exits.nbytes + 4 * 8 * BATCH_CELLS


def test_wrap_angle_equals_the_remainder_of_every_entry():
    from dispbound.geometry.bodies import _wrap_angle

    def remainder_fold(delta):
        return np.abs((np.asarray(delta) + np.pi) % (2.0 * np.pi) - np.pi)

    specials = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi,
                -3 * math.pi, np.nextafter(math.pi, 0.0), np.nextafter(-math.pi, 0.0),
                np.nextafter(math.pi, 4.0), 1e-300, -1e-300, 7.5, -7.5]
    rng = substream(RNG_SEED, "wrap")
    values = np.concatenate([specials, rng.uniform(-10.0, 10.0, 100_000)])
    assert _bits(_wrap_angle(values)) == _bits(remainder_fold(values))
    grid = values[:144].reshape(12, 12)
    assert _bits(_wrap_angle(grid)) == _bits(remainder_fold(grid))
    assert _wrap_angle(grid).shape == (12, 12)
    for x in specials + [3, np.float64(-2.5), np.array(1.25)]:
        got, want = _wrap_angle(x), remainder_fold(x)
        assert type(got) is type(want) and _bits(got) == _bits(want), x


# ---------------------------------------------------------------------------
# geodesic graph
# ---------------------------------------------------------------------------


def test_cube_face_center_distance_tightens_to_two_edges():
    box = cube(1.0)
    start = box.face_tables.centroids[0]
    goal = box.face_tables.centroids[-1]
    values = []
    for m in (1, 3, 7, 15):
        graph = GeodesicGraph(box, m)
        values.append(graph.pairwise_distances(start[None], goal[None])[0])
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # odd subdivisions include edge midpoints, so the exact answer appears
    assert values[-1] == pytest.approx(2.0, abs=1e-12)
    assert all(v >= 2.0 - 1e-12 for v in values)


def test_geodesic_distance_is_exact_on_shared_faces():
    box = cube(1.0)
    graph = GeodesicGraph(box, 2)
    x = np.array([0.5, 0.1, -0.2])
    y = np.array([0.5, -0.3, 0.4])
    value = graph.pairwise_distances(x[None], y[None])[0]
    assert value == pytest.approx(np.linalg.norm(x - y), rel=1e-12)


def test_geodesic_batch_matches_single_queries():
    body = random_polytope(17, 18)
    xs = body.sample_boundary(1, 6)
    ys = body.sample_boundary(2, 6)
    graph = GeodesicGraph(body, 4)
    batch = graph.pairwise_distances(xs, ys)
    singles = [graph.pairwise_distances(x[None], y[None])[0] for x, y in zip(xs, ys)]
    np.testing.assert_allclose(batch, singles, rtol=1e-12)


def test_geodesic_rejects_off_boundary_queries():
    box = cube(1.0)
    graph = GeodesicGraph(box, 1)
    with pytest.raises(DomainError):
        graph.pairwise_distances(np.zeros((1, 3)), np.array([[0.5, 0.0, 0.0]]))
    assert graph._table is None  # refused before the table is built


def test_polytope_distance_dominates_chord():
    body = random_polytope(31, 22)
    xs = body.sample_boundary(6, 40)
    ys = body.sample_boundary(7, 40)
    values, kind = body.intrinsic_distances_batch(xs, ys)
    assert kind == "upper_bound"
    assert np.all(values >= np.linalg.norm(xs - ys, axis=1) - 1e-9)


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: SphereBody(1.25, center=[0.1, -0.2, 0.3]),
        lambda: CylinderBody(3, 0.4, 1.1),
        lambda: regular_polygon(7, circumradius=1.5),
        lambda: random_polytope(13, 20),
    ],
)
def test_save_load_roundtrip_is_exact(tmp_path, make):
    body = make()
    path = tmp_path / "body.txt"
    save_body(body, path)
    loaded = load_body(path)
    assert loaded.body_id == body.body_id
    assert type(loaded) is type(body)
    dirs = unit_directions(substream(RNG_SEED, "io"), 32, body.ambient_dimension)
    np.testing.assert_array_equal(
        loaded.support_batch(dirs), body.support_batch(dirs)
    )
    assert loaded.boundary_area() == body.boundary_area()


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a body\n")
    with pytest.raises(ConfigurationError):
        load_body(path)
    path.write_text("dispbound-body v1\ntype klein-bottle\n")
    with pytest.raises(ConfigurationError):
        load_body(path)


def test_load_names_the_file_line_and_key_of_a_malformed_body(malformed_body):
    with pytest.raises(ConfigurationError) as err:
        load_body(malformed_body.path)
    assert str(err.value).startswith(malformed_body.where)
    assert malformed_body.names in str(err.value)


def test_readme_body_file_example_is_what_save_body_writes(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Body files\n.*?```\n(.*?)```", readme, re.S).group(1)
    triangle = equilateral_triangle(1.0)
    save_body(triangle, tmp_path / "saved.body")
    assert example == (tmp_path / "saved.body").read_text(encoding="utf-8")
    (tmp_path / "readme.body").write_text(example, encoding="utf-8")
    loaded = load_body(tmp_path / "readme.body")
    assert type(loaded) is PolygonBoundary and loaded.body_id == triangle.body_id
    assert np.array_equal(loaded.vertices, triangle.vertices)


# ---------------------------------------------------------------------------
# batch paths: a batch equals its rows one at a time, bit for bit
# ---------------------------------------------------------------------------

BATCH_BODIES = (
    [SphereBody(1.3, center=np.linspace(0.1, 0.4, d)) for d in (2, 3, 4, 5)]
    + [CylinderBody(n, r, h) for n in (2, 3, 4) for r, h in ((0.7, 1.9), (0.2, 3.0))]
    + [regular_polygon(s, 1.4) for s in (3, 4, 5, 6, 8, 12)]
    + [equilateral_triangle(2.0), cube(1.0)]
    + [random_polytope(seed, v) for seed, v in ((1, 14), (2, 20), (3, 27), (4, 33), (5, 40))]
)


def _batch_directions(body, count: int = 400) -> np.ndarray:
    """Random directions of mixed lengths plus the signed coordinate axes,
    which hit cylinder caps and rims and polytope faces head on."""
    dim = body.ambient_dimension
    rng = substream(RNG_SEED, "batch-dirs", body.body_id)
    dirs = unit_directions(rng, count, dim) * (0.1 + 3.0 * rng.random((count, 1)))
    return np.concatenate([dirs, np.eye(dim), -np.eye(dim)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body", BATCH_BODIES, ids=lambda b: b.body_id)
def test_batched_ray_exit_equals_single_rays(body):
    dim = body.ambient_dimension
    dirs = _batch_directions(body)
    shift = 0.05 * unit_directions(substream(RNG_SEED, "origin", body.body_id), 1, dim)[0]
    for origin in (body.interior_point(), body.interior_point() + shift):
        batch = body.ray_exit(origin, dirs)
        singles = np.concatenate([body.ray_exit(origin, u[None]) for u in dirs])
        assert batch.shape == (len(dirs), dim)
        assert np.array_equal(batch, singles)
    assert body.ray_exit(origin, dirs[:0]).shape == (0, dim)


def _scalar_polytope_exit(body, origin, direction):
    """One ray, one face at a time, as the scalar route computed it."""
    d = direction / np.linalg.norm(direction)
    best = math.inf
    for normal, offset in zip(body.face_tables.normals, body.face_tables.offsets.tolist()):
        denom = float(normal @ d)
        if denom > 1e-15:
            t = (offset - float(normal @ origin)) / denom
            if 0.0 < t < best:
                best = t
    return origin + best * d


@pytest.mark.parametrize("body", [b for b in BATCH_BODIES if isinstance(b, Polytope3)],
                         ids=lambda b: b.body_id)
def test_batched_polytope_ray_exit_equals_face_loop(body):
    origin = body.interior_point()
    dirs = _batch_directions(body)
    expected = np.array([_scalar_polytope_exit(body, origin, u) for u in dirs])
    assert np.array_equal(body.ray_exit(origin, dirs), expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "body, outside",
    [
        (SphereBody(1.0), [2.0, 0.0, 0.0]),
        (CylinderBody(2, 0.5, 1.0), [0.0, 0.0, 5.0]),
        (regular_polygon(5), [5.0, 0.0]),
        (cube(1.0), [5.0, 0.0, 0.0]),
    ],
    ids=["sphere", "cylinder", "polygon", "polytope"],
)
def test_ray_exit_error_paths_raise_without_warnings(body, outside):
    dim = body.ambient_dimension
    inside = body.interior_point()
    away = np.zeros(dim)
    away[np.flatnonzero(outside)[0]] = 1.0
    # an origin outside the body, for a batch of one and as one row of three
    with pytest.raises(DomainError):
        body.ray_exit(np.array(outside), away[None])
    with pytest.raises(DomainError):
        body.ray_exit(np.array(outside), np.stack([-away, away, -away]))
    # bad directions: zero, non-finite, wrong dimension, a bare vector
    for bad in (np.zeros((1, dim)), np.full((1, dim), np.nan), np.full((1, dim), np.inf),
                np.ones((1, dim + 1)), np.ones((2, dim + 1)), np.ones((2, 2, dim)), away):
        with pytest.raises(DomainError):
            body.ray_exit(inside, bad)
    with pytest.raises(DomainError):
        body.ray_exit(inside, np.stack([away, np.zeros(dim)]))
    # a bad origin
    with pytest.raises(DomainError):
        body.ray_exit(np.ones(dim + 1), away[None])
    with pytest.raises(DomainError):
        body.ray_exit(np.full(dim, np.nan), away[None])


@pytest.mark.parametrize("seed, vertices", [(1, 14), (6, 25), (9, 40)])
def test_batched_faces_containing_equals_single_points(seed, vertices):
    body = random_polytope(seed, vertices)
    samples = body.sample_boundary(seed, 200)
    a, b = np.array(body.edges).T
    midpoints = 0.5 * (body.vertices[a] + body.vertices[b])
    centre = body.interior_point()
    off = np.concatenate([centre + 0.9 * (samples[:40] - centre),
                          centre + 1.1 * (samples[40:80] - centre)])
    points = np.concatenate([samples, body.vertices, midpoints, off])
    member = body.faces_containing(points)
    assert member.shape == (len(points), len(body.face_tables.sizes)) and member.dtype == bool
    assert np.array_equal(member, np.concatenate([body.faces_containing(p[None]) for p in points]))
    # strata: at least one face per sample, two per edge midpoint, three per
    # vertex, none off the boundary
    counts = member.sum(axis=1)
    assert np.all(counts[:200] >= 1)
    assert np.all(counts[200:200 + len(body.vertices)] >= 3)
    assert np.all(counts[200 + len(body.vertices):len(points) - 80] == 2)
    assert not member[len(points) - 80:].any()


def test_batched_faces_containing_validation():
    box = cube(1.0)
    for bad in (np.ones((4, 2)), np.ones((2, 2, 3)), np.array([[0.5, 0.0, np.nan]])):
        with pytest.raises(DomainError):
            box.faces_containing(bad)
    assert box.faces_containing(np.empty((0, 3))).shape == (0, len(box.face_tables.sizes))


def _face_rows(faces):
    """Each face's vertex ids, unit normal and offset, read from the tables
    row by row."""
    for f, k in enumerate(faces.sizes.tolist()):
        yield list(faces.ids[f, :k]), faces.normals[f], float(faces.offsets[f])


def _per_face_membership(p, faces, vertices, scale):
    """Face membership as a Python loop over faces: kept as the oracle for
    the broadcast ``face_membership``."""
    tol = 1e-9 * scale
    member = np.zeros((len(p), len(faces.sizes)), dtype=bool)
    for fi, (indices, normal, offset) in enumerate(_face_rows(faces)):
        near = np.flatnonzero(np.abs(np.vecdot(p, normal) - offset) <= tol)
        if not len(near):
            continue
        pts = vertices[indices]
        edges = np.roll(pts, -1, axis=0) - pts
        rel = p[near, None, :] - pts
        member[near, fi] = np.all(
            np.cross(edges, rel) @ normal >= -tol * scale, axis=1
        )
    return member


def test_face_membership_equals_per_face_loop():
    from dispbound.geometry.bodies import face_membership

    rng = substream(RNG_SEED, "membership-hulls")
    bodies = [b for b in _suite_bodies(SuiteConfig(seed=1729))
              if isinstance(b, Polytope3)]
    bodies += [cube(1.0), random_polytope(2, 40)] + _mixed_face_polytopes() + [
        Polytope3(unit_directions(rng, count, 3)) for count in (14, 20, 25)
    ]
    for i, body in enumerate(bodies):
        samples = body.sample_boundary(i, 300)
        a, b = np.array(body.edges).T
        t = substream(i, "membership-edges").random((len(a), 1))
        centre = body.interior_point()
        points = np.concatenate([
            samples, body.vertices, 0.5 * (body.vertices[a] + body.vertices[b]),
            body.vertices[a] * (1 - t) + body.vertices[b] * t,
            body.face_tables.centroids,
            # off the boundary, some within a few tolerances of it
            *(centre + s * (samples[:50] - centre) for s in (0.9, 1.1, 1 + 1e-10, 1 + 1e-8)),
        ])
        assert np.array_equal(
            face_membership(points, body.face_tables, body.vertices, body.scale),
            _per_face_membership(points, body.face_tables, body.vertices, body.scale),
        ), body.body_id


def _per_size_membership(p, faces, vertices, scale):
    """Face membership with one edge test per face size, ``np.roll`` and
    ``np.cross``: kept as the oracle for the single padded edge test."""
    tol = 1e-9 * scale
    normals = faces.normals
    member = np.abs(np.vecdot(p[:, None, :], normals) - faces.offsets) <= tol
    for size in np.unique(faces.sizes).tolist():
        group = np.flatnonzero(faces.sizes == size)
        point, g = np.nonzero(member[:, group])
        if not len(point):
            continue
        pts = vertices[faces.ids[group, :size]]
        edges = np.roll(pts, -1, axis=1) - pts
        side = np.vecdot(np.cross(edges[g], p[point, None, :] - pts[g]),
                         normals[group[g], None, :])
        member[point, group[g]] = np.all(side >= -tol * scale, axis=1)
    return member


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["sphere", "lattice", "prism"]),
    st.integers(min_value=8, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_face_membership_equals_the_per_size_edge_tests(seed, cloud, count):
    from dispbound.geometry.bodies import face_membership

    rng = substream(seed, "membership-clouds", cloud)
    if cloud == "sphere":  # triangles
        body = Polytope3(unit_directions(rng, count, 3))
    elif cloud == "lattice":  # coplanar lattice points: faces of 3 to 5 vertices
        points = rng.integers(-2, 3, size=(count, 3)).astype(float)
        body = Polytope3(np.concatenate([points, np.eye(3) * 3, -np.eye(3) * 3]))
    else:  # two polygons of count // 2 vertices and a rim of quadrilaterals
        angles = np.sort(rng.random(count // 2)) * 2 * np.pi
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        body = Polytope3(np.concatenate([np.pad(ring, ((0, 0), (0, 1)), constant_values=z)
                                         for z in (-0.2, 0.2)]))
    tables = body.face_tables
    samples = body.sample_boundary(seed, 100)
    a, b = body.edges.T
    t = rng.random((len(a), 1))
    centre = body.interior_point()
    # in each face's plane, past its corners and edge midpoints: outside
    # the face, or inside it within the tolerance
    face, slot = np.nonzero(tables.ids < len(body.vertices))
    corner = body.vertices[tables.ids[face, slot]]
    middle = 0.5 * (corner + body.vertices[tables.after[face, slot]])
    in_plane = [
        x + s * (x - tables.centroids[face]) for x in (corner, middle) for s in (1e-12, 1e-6, 0.1)
    ]
    points = np.concatenate([
        samples, body.vertices, 0.5 * (body.vertices[a] + body.vertices[b]),
        body.vertices[a] * (1 - t) + body.vertices[b] * t, tables.centroids, *in_plane,
        *(centre + s * (samples[:30] - centre) for s in (0.9, 1.1, 1 + 1e-10, 1 + 1e-8)),
        *(centre + s * (body.vertices - centre) for s in (1 - 1e-10, 1 + 1e-6)),
    ])
    member = face_membership(points, tables, body.vertices, body.scale)
    assert np.array_equal(member, _per_size_membership(points, tables, body.vertices, body.scale))
    # the edge test both keeps and drops points near a face's plane
    near = np.abs(points @ tables.normals.T - tables.offsets) <= 1e-9 * body.scale
    assert (near & member).any() and (near & ~member).any()


def _scalar_faces_containing(body, p):
    """Per-point, per-face membership as the scalar route computed it."""
    tol = 1e-9 * body.scale
    hits = []
    for fi, (indices, normal, offset) in enumerate(_face_rows(body.face_tables)):
        if abs(float(normal @ p) - offset) > tol:
            continue
        pts = body.vertices[indices]
        edges = np.roll(pts, -1, axis=0) - pts
        if np.all(np.cross(edges, p - pts) @ normal >= -tol * body.scale):
            hits.append(fi)
    return hits


def _face_node_ids(graph):
    """Each face's node ids, ascending: the entries of its row below
    ``node_count``."""
    return [row[row < graph.node_count] for row in graph._ids]


def _dict_base_weights(graph):
    """Base-graph edge weights built in a Python dict, first-seen order."""
    weights = {}
    for ids in _face_node_ids(graph):
        pts = graph.nodes[ids]
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        iu, ju = np.triu_indices(len(ids), k=1)
        for i, j, w in zip(ids[iu], ids[ju], dists[iu, ju]):
            weights[(int(i), int(j))] = float(w)
    return weights


def _dict_route_distances(body, graph, xs, ys, weights=None):
    """The geodesic query route built from Python dicts, one query at a
    time: kept as the oracle for the array-built route."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    weights = _dict_base_weights(graph) if weights is None else weights
    k, base = len(xs), graph.node_count
    queries = np.concatenate([xs, ys], axis=0)
    extra, query_faces, face_ids = {}, [], _face_node_ids(graph)
    for qi, point in enumerate(queries):
        faces = _scalar_faces_containing(body, point)
        query_faces.append(set(faces))
        node_ids = np.unique(np.concatenate([face_ids[f] for f in faces]))
        lengths = np.linalg.norm(graph.nodes[node_ids] - point, axis=1)
        for nid, w in zip(node_ids, lengths):
            extra[(int(nid), base + qi)] = float(w)
    for i in range(k):
        if query_faces[i] & query_faces[k + i]:
            extra[(base + i, base + k + i)] = float(np.linalg.norm(xs[i] - ys[i]))
    pairs = list(weights.items()) + list(extra.items())
    rows = np.array([p[0][0] for p in pairs])
    cols = np.array([p[0][1] for p in pairs])
    vals = np.array([p[1] for p in pairs])
    matrix = csr_matrix((vals, (rows, cols)), shape=(base + 2 * k, base + 2 * k))
    dist = dijkstra(matrix, directed=False, indices=np.arange(base, base + k))
    return dist[np.arange(k), base + k + np.arange(k)]


def _oracle_pairs(body, seed, count):
    """Boundary pairs plus vertices, edge points and same-face pairs."""
    xs = body.sample_boundary(seed + 1, count)
    ys = body.sample_boundary(seed + 2, count)
    xs[:5] = body.vertices[:5]
    a, b = np.array(body.edges[:5]).T
    ys[5:10] = 0.5 * (body.vertices[a] + body.vertices[b])
    centroid = body.face_tables.centroids[0]
    xs[10:15] = centroid
    ys[10:15] = centroid + np.linspace(0.2, 0.9, 5)[:, None] * (
        body.vertices[body.face_tables.ids[0, 0]] - centroid
    )
    return xs, ys


@pytest.mark.parametrize("seed, vertices", [(2, 14), (8, 22), (12, 30)])
def test_one_source_route_of_one_pair_equals_scipy_dijkstra(seed, vertices):
    # the route a fresh single pair takes: x and y alone join the graph, so
    # a point at a vertex gives zero-length query edges
    body = random_polytope(seed, vertices)
    xs, ys = _oracle_pairs(body, seed, 30)
    for m in (0, 6, 8):
        graph = GeodesicGraph(body, m)
        weights = _dict_base_weights(graph)
        for i in range(len(xs)):
            got = graph._one_source_route(xs[i], ys[i])
            want = _dict_route_distances(body, graph, xs[i:i + 1], ys[i:i + 1], weights)
            assert np.float64(got).tobytes() == want.tobytes()


def test_one_source_route_reads_no_node_when_the_pruned_rows_keep_none():
    # x and y on one face: the bound is |x - y|, so the pruned rows hold no
    # node, and the answer is the chord, as on the full graph
    body = cube(1.0)
    centre = body.face_tables.centroids[0]
    x, y = centre, 0.7 * centre + 0.3 * body.vertices[body.face_tables.ids[0, 0]]
    gap = x - y
    chord = np.sqrt(np.vecdot(gap, gap))
    for m in (1, 6, 32):
        pruned = GeodesicGraph(body, m, within=(x, y, chord))
        assert pruned._ids.shape[1] == 0
        assert pruned._query_edges(x[None], y[None]).ids.shape == (2, 0)
        assert np.float64(pruned._one_source_route(x, y)).tobytes() == chord.tobytes()
        got, _ = body.intrinsic_distances_batch(x[None], y[None], m)
        full = GeodesicGraph(body, m)._one_source_route(x, y)
        assert got.tobytes() == np.float64(full).tobytes() == chord.tobytes()
    assert body._graphs == {}


def _scipy_table(graph):
    """The all-pairs table by scipy's Dijkstra, on the edges of the dict
    oracle: the solver's own face rows are not used."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    weights = _dict_base_weights(graph)
    (rows, cols), vals = np.array(list(weights)).T, np.array(list(weights.values()))
    n = graph.node_count
    return dijkstra(csr_matrix((vals, (rows, cols)), shape=(n, n)), directed=False)


@pytest.mark.parametrize("seed", [1729, 4242])
@pytest.mark.parametrize("m", [0, 1, 6])
def test_distance_table_equals_scipy_dijkstra_on_suite_polytopes(seed, m):
    bodies = [b for b in _suite_bodies(SuiteConfig(seed=seed)) if isinstance(b, Polytope3)]
    assert len(bodies) == 22
    for body in bodies:
        graph = GeodesicGraph(body, m)
        assert graph._distance_table().tobytes() == _scipy_table(graph).tobytes(), body.body_id


def test_scipy_dijkstra_keeps_an_explicit_zero_edge_and_so_does_the_solver():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    from dispbound.geometry.geodesic import _relax, _relax_arcs

    rows, cols, vals = np.array([0, 1, 0]), np.array([1, 2, 2]), np.array([0.0, 1.0, 5.0])
    oracle = dijkstra(csr_matrix((vals, (rows, cols)), shape=(3, 3)), directed=False, indices=0)
    assert oracle.tolist() == [0.0, 0.0, 1.0]
    # one face row per edge, padded with the id 3
    ids = np.column_stack([rows, cols])
    weights = np.zeros((3, 2, 2))
    weights[:, 0, 1] = weights[:, 1, 0] = vals
    dist = np.full((4, 1), np.inf)
    dist[0] = 0.0
    _relax(ids, weights, dist, np.arange(3))
    assert dist[:3, 0].tolist() == [0.0, 0.0, 1.0]
    arcs = np.array([0.0, np.inf, np.inf])
    _relax_arcs(np.r_[rows, cols], np.r_[cols, rows], np.r_[vals, vals], arcs)
    assert arcs.tolist() == [0.0, 0.0, 1.0]


@st.composite
def _face_graphs(draw):
    """A few nodes, faces over subsets of them (a node may be in none), one
    weight per node pair with zeros among them, sources and a face order."""
    n = draw(st.integers(min_value=1, max_value=9))
    faces = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True),
                          min_size=1, max_size=6))
    lengths = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))
    pair = {(a, b): draw(lengths) for a in range(n) for b in range(a + 1, n)}
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    order = draw(st.permutations(range(len(faces))))
    return n, [sorted(f) for f in faces], pair, sources, np.array(order)


@given(_face_graphs())
@settings(max_examples=150, deadline=None)
def test_solvers_equal_scipy_dijkstra_on_small_face_graphs(graph):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    from dispbound.geometry.geodesic import _relax, _relax_arcs

    n, faces, pair, sources, order = graph
    width = max(len(f) for f in faces)
    ids = np.full((len(faces), width), n)
    weights = np.full((len(faces), width, width), np.inf)
    edges = {}
    for f, nodes in enumerate(faces):
        ids[f, :len(nodes)] = nodes
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                weights[f, i, j] = 0.0 if a == b else pair[min(a, b), max(a, b)]
                if a < b:
                    edges[a, b] = pair[a, b]
    if edges:
        (rows, cols), vals = np.array(list(edges)).T, np.array(list(edges.values()))
    else:
        rows = cols = np.zeros(0, dtype=int)
        vals = np.zeros(0)
    # scipy keeps explicit zeros as edges; unreachable nodes stay inf
    oracle = dijkstra(csr_matrix((vals, (rows, cols)), shape=(n, n)), directed=False,
                      indices=sources)
    dist = np.full((n + 1, len(sources)), np.inf)
    dist[sources, np.arange(len(sources))] = 0.0
    _relax(ids, weights, dist, order)
    assert dist[:n].T.tobytes() == oracle.tobytes()
    for source, want in zip(sources, oracle):
        arcs = np.full(n, np.inf)
        arcs[source] = 0.0
        _relax_arcs(np.r_[rows, cols].astype(np.intp), np.r_[cols, rows].astype(np.intp),
                    np.r_[vals, vals], arcs)
        assert arcs.tobytes() == want.tobytes()


def test_table_build_memory_stays_within_its_batches_at_a_fine_subdivision():
    """At m = 32 a cube face row holds 132 nodes; the build keeps the table,
    the face lengths, one group's labels and BATCH_CELLS-sized temporaries,
    never a per-face array cubic in the row width."""
    import tracemalloc

    from dispbound.geometry.bodies import BATCH_CELLS

    body = cube(1.0)
    xs, ys = body.sample_boundary(5, 4)[:2], body.sample_boundary(6, 4)[:2]
    tracemalloc.start()
    try:
        body.intrinsic_distances_batch(xs, ys, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = body._graphs[32]._table
    assert table.shape == (392, 392)
    assert peak < 2 * table.nbytes + 4 * 8 * BATCH_CELLS


# The table route sums (|x - a| + D[a, b]) + |b - y| where the one-source
# route accumulates the same path from x, so the two may round apart by
# about one ulp per edge of the path; 2 ulps is the most seen here.
TABLE_ULP_BOUND = 16


@pytest.mark.parametrize("seed, vertices", [(2, 14), (8, 22), (12, 30)])
def test_table_route_matches_dict_route_pair_by_pair(seed, vertices):
    body = random_polytope(seed, vertices)
    xs, ys = _oracle_pairs(body, seed, 60)
    chords = np.linalg.norm(xs - ys, axis=1)
    for m in (0, 6):
        graph = GeodesicGraph(body, m)
        # the first batch builds the table
        got = graph.pairwise_distances(xs, ys)
        assert graph._table is not None
        # each pair alone: no other query point can shorten its path
        weights = _dict_base_weights(graph)
        oracle = np.array([
            _dict_route_distances(body, graph, xs[i:i + 1], ys[i:i + 1], weights)[0]
            for i in range(len(xs))
        ])
        spacing = np.spacing(np.maximum(got, oracle))
        assert np.all(np.abs(got - oracle) <= TABLE_ULP_BOUND * spacing)
        assert np.all(got >= chords)
        # a pair's answer does not depend on the rest of its batch
        singles = np.array([graph.pairwise_distances(x[None], y[None])[0]
                            for x, y in zip(xs, ys)])
        assert np.array_equal(singles, got)
        assert np.array_equal(graph.pairwise_distances(xs[::-1], ys[::-1]), got[::-1])


def _table_oracle(body, graph, x, y):
    """One pair's table answer over every (a, b) of the nodes on the faces
    that contain x and y: min of (|x - a| + D[a, b]) + |b - y|, and of
    |x - y| if the two share a face."""
    face_ids = _face_node_ids(graph)
    near, far = (set(_scalar_faces_containing(body, p)) for p in (x, y))
    a = np.unique(np.concatenate([face_ids[f] for f in near]))
    b = np.unique(np.concatenate([face_ids[f] for f in far]))
    to_a = np.linalg.norm(graph.nodes[a] - x, axis=1)
    from_b = np.linalg.norm(graph.nodes[b] - y, axis=1)
    best = ((to_a[:, None] + graph._table[np.ix_(a, b)]) + from_b[None, :]).min()
    if near & far:
        gap = x - y
        best = min(best, np.sqrt(np.vecdot(gap, gap)))
    return best


@pytest.mark.parametrize("body", [random_polytope(2, 14), random_polytope(8, 22), cube(1.0)],
                         ids=lambda body: body.body_id)
def test_table_route_equals_the_plain_minimum_bit_for_bit(body):
    xs, ys = _oracle_pairs(body, 5, 60)
    for m in (0, 6):
        graph = GeodesicGraph(body, m)
        got = graph.pairwise_distances(xs, ys)
        oracle = np.array([_table_oracle(body, graph, x, y) for x, y in zip(xs, ys)])
        assert got.tobytes() == oracle.tobytes()


def test_warm_batch_peak_memory_does_not_grow_with_the_batch():
    import tracemalloc

    body = random_polytope(1729, 25, geodesic_subdivision=6)
    xs, ys = body.sample_boundary(1, 30_000), body.sample_boundary(2, 30_000)
    body.intrinsic_distances_batch(xs[:2], ys[:2])  # builds the table
    tracemalloc.start()
    try:
        values, _ = body.intrinsic_distances_batch(xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (30_000,)
    assert peak < 4 * 2**20


def test_chunked_batch_refusal_names_the_first_off_boundary_x_then_y():
    from dispbound.geometry.bodies import BATCH_CELLS

    body = random_polytope(1729, 25, geodesic_subdivision=6)
    graph = GeodesicGraph(body, 6)
    xs, ys = body.sample_boundary(1, 2_000), body.sample_boundary(2, 2_000)
    assert len(xs) > 3 * (BATCH_CELLS // graph._ids.shape[1] ** 2)  # several chunks
    ys[1] = [0.01, 0.02, 0.03]  # inside: an early chunk
    with pytest.raises(DomainError, match=re.escape(repr(ys[1]))):
        graph.pairwise_distances(xs, ys)
    xs[-1] = [0.03, 0.02, 0.01]  # the last chunk
    with pytest.raises(DomainError, match=re.escape(repr(xs[-1]))):
        graph.pairwise_distances(xs, ys)


def test_fresh_single_pair_query_builds_no_table():
    body = Polytope3(unit_directions(substream(RNG_SEED, "cold"), 25, 3))
    x, y = body.sample_boundary(4, 2)
    values, kind = body.intrinsic_distances_batch(x[None], y[None], 32)
    full = GeodesicGraph(body, 32)
    assert kind == "upper_bound" and body._graphs == {}
    assert values[0] == full._one_source_route(x, y)


# A fresh single pair runs on the part of the graph its shortest path can
# use (see geometry/geodesic.py); it must return the full graph's one-source
# answer bit for bit.  The bodies are those of the geodesic benchmark (the
# cube and sphere hulls with 14-25 vertices), a 40-vertex polytope and two
# polytopes with faces of mixed sizes.


def _mixed_face_polytopes():
    """A triangular prism and a cube with one corner cut off: faces of
    three, four and five vertices."""
    angles = np.arange(3) * 2 * np.pi / 3
    prism = [[np.cos(a), np.sin(a), z] for a in angles for z in (-1.0, 1.0)]
    corners = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)][:-1]
    cut = corners + [[1, 1, 0.5], [1, 0.5, 1], [0.5, 1, 1]]
    return [Polytope3(np.array(prism)), Polytope3(np.array(cut, dtype=float))]


def _fresh_pair_bodies(seed):
    rng = substream(seed, "fresh-pair-bodies")
    return [cube(1.0)] + [
        Polytope3(unit_directions(rng, count, 3)) for count in (14, 18, 25)
    ] + [random_polytope(seed, 40)] + _mixed_face_polytopes()


def _fresh_pairs(body, seed):
    """Sampled pairs plus the cases a rounding slip would show in: vertices,
    points on one edge (their chords equal their path lengths), edge
    midpoints, face centres and same-face pairs."""
    rng = substream(seed, "fresh-pairs", body.body_id)
    v, (a, b) = body.vertices, np.array(body.edges).T
    e = rng.integers(0, len(a), 3)
    t = rng.random((3, 2))
    centres = body.face_tables.centroids
    face = int(rng.integers(len(centres)))
    xs = np.concatenate([
        body.sample_boundary(seed, 2),
        v[a[e]] * (1 - t[:, :1]) + v[b[e]] * t[:, :1],  # same edge
        v[a[e[:1]]],  # an edge's two ends
        v[rng.integers(0, len(v), 1)],  # a vertex
        0.5 * (v[a[e[1:2]]] + v[b[e[1:2]]]),  # an edge midpoint
        centres[rng.integers(0, len(centres), 1)],
        centres[face][None],  # same face
    ])
    ys = np.concatenate([
        body.sample_boundary(seed + 1, 2),
        v[a[e]] * (1 - t[:, 1:]) + v[b[e]] * t[:, 1:],
        v[b[e[:1]]],
        body.sample_boundary(seed + 2, 1),
        v[rng.integers(0, len(v), 1)],
        centres[rng.integers(0, len(centres), 1)],
        (0.3 * centres[face] + 0.7 * v[body.face_tables.ids[face, 0]])[None],
    ])
    return xs, ys


@pytest.mark.parametrize("seed", [1729, 4242])
def test_fresh_single_pair_equals_full_graph_bit_for_bit(seed):
    for body in _fresh_pair_bodies(seed):
        xs, ys = _fresh_pairs(body, seed)
        for m in (1, 6, 8, 15, 32):
            full = GeodesicGraph(body, m)
            for x, y in zip(xs, ys):
                got, _ = body.intrinsic_distances_batch(x[None], y[None], m)
                want = full._one_source_route(x, y)
                assert got[0] == want, (body.body_id, m, x, y)
            assert body._graphs == {}  # the chain caches no graph, its vertex graph included


def test_fresh_single_pair_refuses_off_boundary_points_as_the_full_graph():
    body = random_polytope(5, 20)
    on = body.sample_boundary(1, 1)[0]
    off = 0.5 * on
    full = GeodesicGraph(body, 32)
    for x, y in ((off, on), (on, off)):
        with pytest.raises(DomainError) as fresh:
            body.intrinsic_distances_batch(x[None], y[None], 32)
        with pytest.raises(DomainError) as built:
            full.pairwise_distances(x[None], y[None])
        assert str(fresh.value) == str(built.value)
    assert 32 not in body._graphs


def test_coarser_subdivision_nodes_are_nodes_of_the_finer_graph():
    from dispbound.geometry.geodesic import _face_weights, coarser_subdivision

    assert [coarser_subdivision(m) for m in (1, 2, 5, 6, 8, 15, 32, 63)] == [
        0, 0, 2, 0, 2, 7, 10, 31,
    ]
    for m in range(1, 100):
        c = coarser_subdivision(m)
        assert (m + 1) % (c + 1) == 0
        assert not any((m + 1) % (d + 1) == 0 for d in range(c + 1, m))
    body = random_polytope(7, 25)
    v = len(body.vertices)
    for m in (8, 15, 32):
        c = coarser_subdivision(m)
        fine, coarse = GeodesicGraph(body, m), GeodesicGraph(body, c)
        step = (m + 1) // (c + 1)
        # interior node i of edge e: v + e m + i - 1
        picks = (v + m * np.arange(len(body.edges))[:, None]
                 + step * np.arange(1, c + 1) - 1).ravel()
        assert np.array_equal(coarse.nodes[v:], fine.nodes[picks])
        # so every coarse face row is part of the fine one, with the same
        # lengths between its nodes
        ids = np.concatenate([np.arange(v), picks, [fine.node_count]])
        fine_weights = _face_weights(fine.nodes, fine._ids)
        coarse_weights = _face_weights(coarse.nodes, coarse._ids)
        for f in range(len(coarse._ids)):
            mapped = ids[coarse._ids[f]]
            real = coarse._ids[f] < coarse.node_count
            at = np.searchsorted(fine._ids[f], mapped[real])
            assert np.array_equal(fine._ids[f][at], mapped[real])
            assert (fine_weights[f][np.ix_(at, at)].tobytes()
                    == coarse_weights[f][np.ix_(real, real)].tobytes())


def test_pruned_graph_is_the_full_graph_induced_on_its_kept_nodes():
    from dispbound.geometry.geodesic import PRUNE_MARGIN, _face_weights, coarser_subdivision

    for body in _fresh_pair_bodies(1729):
        xs, ys = _fresh_pairs(body, 1729)
        for m in (6, 10, 32):
            full = GeodesicGraph(body, m)
            for x, y in zip(xs[::2], ys[::2]):
                bound = body.intrinsic_distances_batch(x[None], y[None],
                                                       coarser_subdivision(m))[0][0]
                pruned = GeodesicGraph(body, m, within=(x, y, bound))
                keep = (np.linalg.norm(full.nodes - x, axis=1)
                        + np.linalg.norm(full.nodes - y, axis=1)) <= bound * (1 + PRUNE_MARGIN)
                n = full.node_count
                full_weights = _face_weights(full.nodes, full._ids)
                pruned_weights = _face_weights(pruned.nodes, pruned._ids)
                for f in range(len(full._ids)):
                    row = full._ids[f]
                    kept = (row < n) & keep[np.minimum(row, n - 1)]
                    mine = pruned._ids[f]
                    assert np.array_equal(mine[mine < n], row[kept])
                    assert np.all(mine[kept.sum():] == n)
                    size = int(kept.sum())
                    assert (pruned_weights[f][:size, :size].tobytes()
                            == full_weights[f][np.ix_(kept, kept)].tobytes())
                assert np.array_equal(pruned.nodes, full.nodes)


def test_empty_polytope_batch_builds_no_graph():
    body = random_polytope(4, 18)
    empty = np.empty((0, 3))
    for subdivision in (None, 0, 32):
        values, kind = body.intrinsic_distances_batch(empty, empty, subdivision)
        assert values.shape == (0,) and values.dtype == np.float64
        assert kind == "upper_bound"
    assert body._graphs == {}
    with pytest.raises(DomainError):
        body.intrinsic_distances_batch(empty, np.empty((1, 3)))


def test_subdivision_must_be_a_nonnegative_integer():
    for bad in (2.5, True, "3"):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            cube(1.0, geodesic_subdivision=bad)
    assert cube(1.0, geodesic_subdivision=np.int64(3)).geodesic_subdivision == 3
    body = cube(1.0)
    x, y = body.face_tables.centroids[:1], body.face_tables.centroids[-1:]
    for bad in (-0.5, 6.9, False, "3"):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            body.intrinsic_distances_batch(x, y, bad)
    assert body._graphs == {}


def test_negative_subdivision_is_refused_without_building_a_graph():
    body = random_polytope(4, 18)
    xs, ys = body.sample_boundary(1, 2), body.sample_boundary(2, 2)
    for k in (1, 2):  # the pruned single-pair route and the batch route
        for m in (-1, -2):
            with pytest.raises(ConfigurationError, match="must be nonnegative"):
                body.intrinsic_distances_batch(xs[:k], ys[:k], m)
    assert body._graphs == {}


def test_subdivision_past_the_cap_is_refused_without_building_a_graph(tmp_path):
    from dispbound.geometry.bodies import MAX_SUBDIVISION

    assert MAX_SUBDIVISION == 64
    assert cube(1.0, geodesic_subdivision=64).geodesic_subdivision == 64
    body = random_polytope(4, 18)
    xs, ys = body.sample_boundary(1, 2), body.sample_boundary(2, 2)
    for m in (65, 10**20, np.int64(65)):
        with pytest.raises(ConfigurationError, match="must be at most 64"):
            cube(1.0, geodesic_subdivision=m)
        for k in (1, 2):  # the pruned single-pair route and the batch route
            with pytest.raises(ConfigurationError, match="must be at most 64"):
                body.intrinsic_distances_batch(xs[:k], ys[:k], m)
    assert body._graphs == {}
    path = tmp_path / "fine.body"
    save_body(cube(1.0), path)
    path.write_text(path.read_text().replace("geodesic_subdivision 8", "geodesic_subdivision 65"))
    with pytest.raises(ConfigurationError, match="must be at most 64, got 65"):
        load_body(path)


def test_dropping_a_queried_polytope_frees_its_graph():
    import gc
    import weakref

    gc.disable()
    try:
        body = random_polytope(3, 16, geodesic_subdivision=4)
        body.intrinsic_distances_batch(body.sample_boundary(1, 300),
                                       body.sample_boundary(2, 300))
        graph = weakref.ref(body._graphs[4])
        assert graph()._table is not None
        del body
        assert graph() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# one implementation per boundary primitive
# ---------------------------------------------------------------------------

STRUCTURE_BODIES = (
    [SphereBody(1.3, center=np.linspace(0.1, 0.4, d)) for d in (2, 3, 4, 5)]
    + [CylinderBody(n, 0.7, 1.9) for n in (2, 3, 4)]
    + [b for b in _suite_bodies(SuiteConfig(polytope_count=0))
       if isinstance(b, PolygonBoundary)]
    + [random_polytope(seed, v) for seed, v in ((3, 14), (8, 22))]
)


BAD_DIRECTIONS = {
    "nan": lambda dim: np.where(np.eye(2, dim) == 1.0, np.nan, 0.5),
    "wrong-dimension": lambda dim: np.ones((2, dim + 1)),
    "one-dimensional": lambda dim: np.ones(dim),
}


def _row_methods(body):
    """Every method of ``body`` that takes a ``(k, dim)`` array of points or
    directions, as a call on that array."""
    maps = [central_point_map(), half_perimeter_map() if isinstance(body, PolygonBoundary)
            else euclidean_antipode_map()]
    calls = {"support_batch": body.support_batch,
             "ray_exit": lambda rows: body.ray_exit(body.interior_point(), rows)}
    calls.update({m.map_id: lambda rows, m=m: m.apply(body, rows) for m in maps})
    if isinstance(body, PolygonBoundary):
        calls["arclengths_of"] = body.arclengths_of
    if isinstance(body, Polytope3):
        calls["faces_containing"] = body.faces_containing
    return calls


@pytest.mark.parametrize("bad", sorted(BAD_DIRECTIONS))
@pytest.mark.parametrize(
    "body",
    [SphereBody(1.0), CylinderBody(2, 0.5, 1.0), regular_polygon(5), cube(1.0)],
    ids=lambda b: type(b).__name__,
)
def test_support_batch_rejects_bad_directions(body, bad):
    # support_batch, and every other method that takes rows of points or
    # directions, refuses the rows with DomainError
    rows = BAD_DIRECTIONS[bad](body.ambient_dimension)
    for name, call in _row_methods(body).items():
        try:
            call(rows)
        except DomainError:
            continue
        pytest.fail(f"{name} accepted {bad} rows")


@pytest.mark.parametrize(
    "body",
    [SphereBody(1.3, center=[0.3, -0.7, 0.11, 2.9, -1.7]), CylinderBody(3, 0.7, 1.9),
     regular_polygon(7, 1.0), random_polytope(5, 40)],
    ids=lambda b: type(b).__name__,
)
def test_support_batch_is_row_independent(body):
    # row i of a 200-row batch has the bits of direction i alone; a matrix
    # product (d @ vertices.T) broke this in the last bit on all but the cylinder
    dirs = _batch_directions(body, 200)
    batch = body.support_batch(dirs)
    assert [body.support(u) for u in dirs] == batch.tolist()


@pytest.mark.parametrize("body", STRUCTURE_BODIES, ids=lambda b: b.body_id)
def test_scalar_primitives_are_batches_of_one(body):
    assert len(ConvexBody.__abstractmethods__) == 7
    for cls in (SphereBody, CylinderBody, PolygonBoundary, Polytope3):
        assert "support" not in vars(cls)
        assert "intrinsic_distance" not in vars(cls)
    for u in _batch_directions(body, 40):
        assert body.support(u) == body.support_batch(u[None])[0]
    # 300 pairs build a polytope's distance table, so every later answer,
    # one pair alone included, is independent of its batch
    xs, ys = body.sample_boundary(1, 300), body.sample_boundary(2, 300)
    batch, _ = body.intrinsic_distances_batch(xs, ys)
    for i in range(0, 300, 10):
        value, kind = body.intrinsic_distance(xs[i], ys[i])
        assert value == batch[i]
        one, one_kind = body.intrinsic_distances_batch(xs[i:i + 1], ys[i:i + 1])
        assert (value, kind) == (one[0], one_kind)


def _distance_domain_case(body, case):
    """A query that every batch distance route must refuse: each body
    supplies two boundary points and one point off its boundary."""
    on_x, on_y, off = {
        SphereBody: ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0]),
        CylinderBody: ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.0]),
        PolygonBoundary: ([0.5, 0.0], [1.0, 0.5], [0.5, 0.5]),
        Polytope3: ([0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]),
    }[type(body)]
    x, y = np.array([on_x]), np.array([on_y])
    if case == "off-boundary":
        return np.array([off]), y
    if case == "mismatched-shapes":
        return x, np.repeat(y, 3, axis=0)
    if case == "non-finite":
        x[0, 0] = math.nan
        return x, y
    if case == "bare-vector":
        return x[0], y[0]
    return np.append(x, [[0.0]], axis=1), np.append(y, [[0.0]], axis=1)


@pytest.mark.parametrize(
    "case", ["off-boundary", "mismatched-shapes", "non-finite", "wrong-dimension", "bare-vector"]
)
@pytest.mark.parametrize(
    "body",
    [SphereBody(1.0), CylinderBody(2, 1.0, 2.0),
     PolygonBoundary([[0, 0], [1, 0], [1, 1], [0, 1]]), cube(1.0)],
    ids=lambda b: type(b).__name__,
)
def test_batch_distances_reject_bad_queries(body, case):
    xs, ys = _distance_domain_case(body, case)
    with pytest.raises(DomainError):
        body.intrinsic_distances_batch(xs, ys)
