"""Tests for displacement maps, sampled statistics, and width measures."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.spatial import ConvexHull

from dispbound.errors import ConfigurationError, DomainError, FixedPointError
from dispbound.geometry import (
    ConvexBody,
    CylinderBody,
    DisplacementMap,
    PolygonBoundary,
    Polytope3,
    SphereBody,
    central_point_map,
    cube,
    displacement_stats,
    equilateral_triangle,
    euclidean_antipode_map,
    half_perimeter_map,
    mean_width,
    min_width,
    random_polytope,
    regular_polygon,
)
from dispbound.geometry.maps import DISTANCE_SAMPLES
from dispbound.verify import SuiteConfig, _suite_bodies

SQRT3 = math.sqrt(3.0)


def _fibonacci_sphere(count: int) -> np.ndarray:
    """Quasi-uniform directions on the 2-sphere (golden spiral): a direction
    average over them converges far faster than over random directions."""
    i = np.arange(count, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


# ---------------------------------------------------------------------------
# the maps themselves
# ---------------------------------------------------------------------------


def test_central_map_is_a_fixed_point_free_involution():
    body = random_polytope(3, 15)
    cmap = central_point_map()
    pts = body.sample_boundary(9, 40)
    images = cmap.apply(body, pts)
    back = cmap.apply(body, images)
    np.testing.assert_allclose(back, pts, atol=1e-9)
    assert np.linalg.norm(images - pts, axis=1).min() > 1e-6


def test_antipode_map_reflects_symmetric_bodies():
    ball = SphereBody(2.0, center=[1.0, 0.0, 0.0])
    amap = euclidean_antipode_map()
    img = amap.apply(ball, np.array([[3.0, 0.0, 0.0]]))
    np.testing.assert_allclose(img, [[-1.0, 0.0, 0.0]], atol=1e-12)


def test_antipode_map_rejects_asymmetric_bodies():
    tri = equilateral_triangle(1.0)
    with pytest.raises(ConfigurationError):
        euclidean_antipode_map().apply(tri, tri.sample_boundary(0, 3))
    lopsided = random_polytope(12, 20)
    with pytest.raises(ConfigurationError):
        euclidean_antipode_map().apply(lopsided, lopsided.sample_boundary(0, 3))


@pytest.mark.parametrize("body", [
    SphereBody(1.0),
    SphereBody(0.5, center=[0.3, -1.0]),
    *(CylinderBody(n, 0.25, 0.7) for n in (2, 3, 4)),
    regular_polygon(4, 1.0),
    regular_polygon(6, 1.0),
], ids=["sphere", "circle", "cylinder-2", "cylinder-3", "cylinder-4", "square", "hexagon"])
def test_antipode_check_passes_symmetric_bodies(body):
    euclidean_antipode_map().check(body)


@pytest.mark.parametrize("body", [equilateral_triangle(1.0), random_polytope(12, 20)],
                         ids=["triangle", "polytope"])
def test_antipode_check_refuses_asymmetric_bodies(body):
    with pytest.raises(ConfigurationError, match="is not centrally symmetric"):
        euclidean_antipode_map().check(body)


@pytest.mark.parametrize("seed", [1729, 4242])
def test_antipode_check_refuses_the_same_suite_bodies(seed):
    # the suite skips exactly the (body, antipode) pairs this check refuses
    refused = []
    for body in _suite_bodies(SuiteConfig(seed=seed)):
        try:
            euclidean_antipode_map().check(body)
        except ConfigurationError:
            refused.append(body.body_id)
    polygons = ["triangle-unit", "pentagon-unit", "pentagon-irregular"]
    assert refused[:5] == [*polygons, "pancake-flat", "cigar-long"]
    assert len(refused) == 25
    assert all(body_id.startswith("polytope-s") for body_id in refused[5:])


def test_half_perimeter_map_shifts_arclength():
    hexagon = regular_polygon(6)
    hmap = half_perimeter_map()
    pts = hexagon.sample_boundary(2, 50)
    images = hmap.apply(hexagon, pts)
    shifts, _ = hexagon.intrinsic_distances_batch(pts, images)
    np.testing.assert_allclose(shifts, hexagon.perimeter / 2.0, atol=1e-10)
    ball = SphereBody(1.0)
    with pytest.raises(ConfigurationError):
        hmap.apply(ball, ball.sample_boundary(0, 2))


def test_caller_arc_lengths_must_be_one_finite_value_per_point():
    hexagon = regular_polygon(6)
    xs, ys = hexagon.sample_boundary(3, 4), hexagon.sample_boundary(4, 4)
    # a single value used to broadcast into four wrong exact distances
    for bad in (np.array([0.0]), np.full(4, np.nan), np.zeros(5), np.zeros((4, 1)),
                np.array([0.0, 1.0, np.inf, 2.0])):
        with pytest.raises(DomainError):
            hexagon.intrinsic_distances_batch(xs, ys, bad)
    points = hexagon.sample_boundary(5, 3)
    for bad in ([np.nan] * 3, [0.0], [[0.0, 1.0, 2.0]]):
        with pytest.raises(DomainError):
            half_perimeter_map().apply(hexagon, points, bad)
    s = hexagon.arclengths_of(xs)
    assert (hexagon.intrinsic_distances_batch(xs, ys, list(s))[0].tobytes()
            == hexagon.intrinsic_distances_batch(xs, ys)[0].tobytes())


def test_half_perimeter_images_from_given_arc_lengths_equal_computed_ones():
    # the two ways its one image route gets arc lengths agree bit for bit
    hmap = half_perimeter_map()
    for body in (regular_polygon(6), equilateral_triangle(1.0), regular_polygon(11, 2.5)):
        pts = np.concatenate([hmap.critical_points(body), body.sample_boundary(7, 300)])
        given = hmap.apply(body, pts, body.arclengths_of(pts))
        assert np.array_equal(given, hmap.apply(body, pts))


def test_fixed_point_detection_fires():
    square = PolygonBoundary([[0, 0], [1, 0], [1, 1], [0, 1]])
    identity = DisplacementMap("identity", lambda body, pts, arclengths: pts)
    with pytest.raises(FixedPointError):
        displacement_stats(square, identity, samples=10, seed=0)


# ---------------------------------------------------------------------------
# displacement statistics
# ---------------------------------------------------------------------------


def test_sphere_antipode_stats_hit_closed_forms():
    ball = SphereBody(1.0)
    stats = displacement_stats(ball, euclidean_antipode_map(), samples=300, seed=4)
    assert stats.distance_kind == "exact"
    # arccos is ill conditioned at antipodal pairs, so only ~sqrt(eps) here
    assert stats.mu_hat == pytest.approx(math.pi, rel=1e-7)
    assert stats.rho_hat == pytest.approx(math.pi / 2.0, rel=1e-7)
    assert stats.sample_count == 300
    assert stats.distance_samples == 300


def test_triangle_half_perimeter_stats_are_exact():
    tri = equilateral_triangle(1.0)
    stats = displacement_stats(tri, half_perimeter_map(), samples=200, seed=8)
    # every point moves exactly half the perimeter along the curve
    assert stats.mu_hat == pytest.approx(1.5, abs=1e-12)
    # the chordal ratio peaks at the quarter points of each edge, value 2
    assert stats.rho_hat == pytest.approx(2.0, abs=1e-9)
    # those quarter points are declared critical, so the peak is always seen
    x = np.array(stats.argmax_ratio_point)
    s = tri.arclengths_of(x[None])[0]
    assert min(s % 1.0, 1.0 - s % 1.0) == pytest.approx(0.25, abs=1e-9)


def test_triangle_half_perimeter_vertex_ratio_is_sqrt3():
    tri = equilateral_triangle(1.0)
    hmap = half_perimeter_map()
    vertex = np.array([[0.0, 0.0]])
    image = hmap.apply(tri, vertex)
    chord = np.linalg.norm(image - vertex)
    assert 1.5 / chord == pytest.approx(SQRT3, rel=1e-12)


def test_stats_determinism_across_calls():
    body = CylinderBody(2, 0.3, 0.8)
    amap = euclidean_antipode_map()
    one = displacement_stats(body, amap, samples=500, seed=33)
    two = displacement_stats(body, amap, samples=500, seed=33)
    assert one == two
    assert one.distance_samples == DISTANCE_SAMPLES
    assert one.distance_kind == "upper_bound"


def test_cylinder_antipode_min_displacement_is_lateral_girdle():
    # opposite lateral points at mid-height are the closest antipodal pairs
    body = CylinderBody(2, 0.25, 0.5)
    stats = displacement_stats(body, euclidean_antipode_map(), samples=3000, seed=6)
    assert stats.distance_samples == DISTANCE_SAMPLES
    assert stats.mu_hat >= math.pi * 0.25 - 1e-9
    assert stats.mu_hat < math.pi * 0.25 * 1.1


def test_polytope_stats_use_geodesic_cap_and_subdivision():
    cmap = central_point_map()
    coarse = displacement_stats(
        random_polytope(41, 16, geodesic_subdivision=1),
        cmap, samples=400, seed=2,
    )
    fine = displacement_stats(
        random_polytope(41, 16, geodesic_subdivision=7),
        cmap, samples=400, seed=2,
    )
    assert coarse.distance_samples == DISTANCE_SAMPLES
    assert fine.mu_hat <= coarse.mu_hat + 1e-12  # finer graph can only shrink
    assert fine.rho_hat >= 1.0


def test_stats_validation():
    ball = SphereBody(1.0)
    amap = euclidean_antipode_map()
    with pytest.raises(ConfigurationError):
        displacement_stats(ball, amap, samples=0)


def _spied(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def spy(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, spy)
    return calls


@pytest.mark.parametrize(
    "body, disp_map",
    [
        (equilateral_triangle(1.0), euclidean_antipode_map()),
        (random_polytope(12, 20), euclidean_antipode_map()),
        (SphereBody(1.0), half_perimeter_map()),
    ],
    ids=["triangle-antipode", "polytope-antipode", "sphere-half-perimeter"],
)
def test_a_refused_body_is_never_sampled(monkeypatch, body, disp_map):
    with pytest.raises(ConfigurationError) as by_apply:
        disp_map.apply(body, body.sample_boundary(0, 3))
    sampled = _spied(monkeypatch, type(body), "sample_boundary")
    with pytest.raises(ConfigurationError) as by_stats:
        displacement_stats(body, disp_map, samples=10_000, seed=5)
    assert str(by_stats.value) == str(by_apply.value)
    assert sampled == []


def test_half_perimeter_stats_take_each_point_sets_arc_lengths_once(monkeypatch):
    hexagon, hmap = regular_polygon(6), half_perimeter_map()
    # the route that computed the points' arc lengths twice, in the map and
    # in the distances
    points = np.concatenate([hmap.critical_points(hexagon), hexagon.sample_boundary(3, 500)])
    images = hmap.apply(hexagon, points)
    dists, _ = hexagon.intrinsic_distances_batch(points, images)
    ratios = dists / np.linalg.norm(images - points, axis=1)

    calls = _spied(monkeypatch, PolygonBoundary, "arclengths_of")
    stats = displacement_stats(hexagon, hmap, samples=500, seed=3)
    assert [len(args[0]) for args in calls] == [len(points)] * 2  # points, images
    assert stats.sample_count == len(points)
    assert stats.mu_hat.hex() == float(dists.min()).hex()
    assert stats.rho_hat.hex() == float(ratios.max()).hex()


# ---------------------------------------------------------------------------
# widths
# ---------------------------------------------------------------------------


def test_width_matches_hand_values():
    # the width along u is h(u) + h(-u)
    box = cube(1.0)
    u = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    u /= np.linalg.norm(u, axis=1)[:, None]
    widths = box.support_batch(u) + box.support_batch(-u)
    np.testing.assert_allclose(widths, [1.0, SQRT3], rtol=1e-14)
    with pytest.raises(DomainError):
        box.support([0.0, math.inf, 0.0])


def test_min_width_polygon_is_exact_calipers():
    tri = equilateral_triangle(2.0)
    result = min_width(tri)
    assert result.value == pytest.approx(SQRT3, rel=1e-14)
    # the attaining direction is an edge normal
    assert abs(np.linalg.norm(result.direction) - 1.0) < 1e-12


def _width_at(body, direction):
    u = np.asarray(direction)
    return body.support(u) + body.support(-u)


def test_min_width_cube_and_box_are_face_normal_widths():
    assert min_width(cube(1.0)).value == 1.0
    box = Polytope3(
        np.array([[x, y, z] for x in (-1.5, 1.5) for y in (-0.4, 0.4) for z in (0.0, 0.7)])
    )
    result = min_width(box)
    assert result.value == pytest.approx(0.7, rel=1e-15)
    np.testing.assert_allclose(np.abs(result.direction), [0.0, 0.0, 1.0], atol=1e-15)


def _rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def test_min_width_regular_tetrahedron_is_an_edge_edge_width():
    # width a/sqrt(2) between opposite edges, below the face-to-vertex
    # height a*sqrt(2/3): only an edge-pair candidate reaches it
    a = 1.3
    corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    for seed in range(3):
        tet = Polytope3(corners * (a / math.sqrt(8.0)) @ _rotation(seed).T + 0.25)
        result = min_width(tet)
        assert result.value == pytest.approx(a / math.sqrt(2.0), rel=1e-14)
        assert _width_at(tet, result.direction) == pytest.approx(result.value, rel=1e-15)


def test_min_width_polytopes_at_most_a_dense_direction_scan():
    dirs = _fibonacci_sphere(20_000)
    for seed, vertices in ((1, 14), (2, 25), (3, 40)):
        body = random_polytope(seed, vertices)
        result = min_width(body)
        scan = float(np.min(body.support_batch(dirs) + body.support_batch(-dirs)))
        assert result.value <= scan
        assert result.value > 0.98 * scan
        # the value is the width of a direction, so not below the true minimum
        assert _width_at(body, result.direction) == pytest.approx(result.value, rel=1e-14)


def test_min_width_sphere_any_direction():
    for dim in (2, 3, 4, 5):
        ball = SphereBody(0.7, center=np.zeros(dim))
        result = min_width(ball)
        assert result.value == pytest.approx(1.4, rel=1e-15)
        assert _width_at(ball, result.direction) == pytest.approx(1.4, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_width_cylinder_is_the_thinner_of_diameter_and_height(n):
    for r, h in ((0.25, 0.3), (0.25, 0.7)):
        body = CylinderBody(n, r, h)
        result = min_width(body)
        assert result.value == min(2.0 * r, h)
        assert _width_at(body, result.direction) == result.value


def test_mean_width_cube_edge_formula_is_exact():
    box = cube(1.0)
    result = mean_width(box)
    assert result.value == pytest.approx(1.5, rel=1e-15)
    assert result.method == "polytope_edge_formula"


def test_mean_width_edge_formula_agrees_with_a_direction_average():
    dirs = _fibonacci_sphere(20_000)
    for seed, vertices in ((4, 14), (5, 25), (6, 40)):
        body = random_polytope(seed, vertices)
        average = float(np.mean(body.support_batch(dirs) + body.support_batch(-dirs)))
        assert mean_width(body).value == pytest.approx(average, rel=1e-5)


def test_mean_width_sphere_is_the_diameter():
    for dim in (2, 3, 4, 5):
        result = mean_width(SphereBody(3.0, center=np.zeros(dim)))
        assert result.value == 6.0
        assert result.method == "sphere_diameter"


def _cylinder_mean_width_by_quadrature(n, r, h):
    """Average of 2r|u'| + h|t| over the unit n-sphere, where the last
    coordinate t has density proportional to (1 - t^2)^((n - 2)/2)."""
    weight = lambda t: (1.0 - t * t) ** ((n - 2) / 2.0)  # noqa: E731
    total = integrate.quad(
        lambda t: (2.0 * r * math.sqrt(1.0 - t * t) + h * abs(t)) * weight(t),
        -1.0, 1.0, points=[0.0], epsabs=0.0, epsrel=1e-13,
    )[0]
    return total / integrate.quad(weight, -1.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]


def test_mean_width_cylinder_closed_form():
    for r, h in ((0.25, 0.5), (0.475, 0.05), (1.0, 3.0)):
        value = mean_width(CylinderBody(2, r, h)).value
        assert value == pytest.approx((h + math.pi * r) / 2.0, rel=2e-15)
        for n in (3, 4):
            value = mean_width(CylinderBody(n, r, h)).value
            assert value == pytest.approx(
                _cylinder_mean_width_by_quadrature(n, r, h), rel=1e-12
            )


def _random_convex_polygon(seed, count, offset):
    pts = np.random.default_rng(seed).standard_normal((count, 2))
    return PolygonBoundary(pts[ConvexHull(pts).vertices] + offset)


def test_mean_width_crofton_curve_is_perimeter_over_pi():
    suite = [b for b in _suite_bodies(SuiteConfig(polytope_count=0))
             if isinstance(b, PolygonBoundary)]
    assert len(suite) == 5
    randoms = [_random_convex_polygon(seed, 8 + 10 * seed, 0.0) for seed in range(6)]
    # far from the origin, where the uncentred sum loses ~1e-12
    randoms += [_random_convex_polygon(seed, 6 + 4 * seed, (1e5, -2e5)) for seed in (0, 2, 4, 5)]
    for poly in suite + randoms:
        result = mean_width(poly)
        assert result.method == "polygon_support_integral"
        assert abs(math.pi * result.value - poly.perimeter) <= 1e-12 * poly.perimeter


def test_mean_width_method_validation():
    # the body is the only argument, and a body type without a route is refused
    with pytest.raises(TypeError):
        mean_width(SphereBody(1.0), method="monte_carlo")

    class Shapeless(ConvexBody):
        ambient_dimension = 3
        body_id = "shapeless"

    Shapeless.__abstractmethods__ = frozenset()
    with pytest.raises(DomainError):
        mean_width(Shapeless())
    with pytest.raises(DomainError):
        min_width(Shapeless())


# ---------------------------------------------------------------------------
# the central-point map as one batch
# ---------------------------------------------------------------------------


def _central_map_per_point(body, points):
    """The central-point map one sample at a time: one chord, one ray."""
    p = body.interior_point()
    out = np.empty_like(points)
    for i, x in enumerate(points):
        chord = p - x
        out[i] = body.ray_exit(p, (chord / np.linalg.norm(chord))[None])[0]
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "body",
    [
        SphereBody(1.2, center=[0.1, 0.2, 0.3]),
        SphereBody(0.8, center=np.zeros(5)),
        CylinderBody(2, 0.6, 1.7),
        CylinderBody(4, 0.3, 2.5),
        regular_polygon(7, 1.3),
        equilateral_triangle(1.0),
        cube(1.0),
        random_polytope(21, 18),
        random_polytope(22, 36),
    ],
    ids=lambda b: b.body_id,
)
def test_central_map_batch_equals_per_point_rays(body):
    points = body.sample_boundary(5, 500)
    cmap = central_point_map()
    assert np.array_equal(cmap.apply(body, points), _central_map_per_point(body, points))
