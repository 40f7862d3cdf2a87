"""Concrete convex bodies, boundary self-maps, and width measures."""

from .bodies import (  # noqa: F401
    ConvexBody,
    CylinderBody,
    Face,
    PolygonBoundary,
    Polytope3,
    SphereBody,
    cube,
    equilateral_triangle,
    random_polytope,
    regular_polygon,
)
from .geodesic import GeodesicGraph  # noqa: F401
from .io import load_body, save_body  # noqa: F401
from .maps import (  # noqa: F401
    DisplacementMap,
    MapDisplacementStats,
    central_point_map,
    displacement_stats,
    euclidean_antipode_map,
    half_perimeter_map,
)
from .measures import (  # noqa: F401
    MeanWidthResult,
    WidthResult,
    mean_width,
    min_width,
)
from .sampling import fibonacci_sphere, substream, unit_directions  # noqa: F401
