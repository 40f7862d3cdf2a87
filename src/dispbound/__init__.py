"""Displacement-based area, volume, and width bounds for convex hypersurfaces.

The package has three layers: log-domain numerics and closed-form constants
(`numerics`, `constants`, `asymptotics`), concrete convex bodies with
displacement maps and measures (`geometry`), and an inequality verification
harness plus CLI (`verify`, `cli`).
"""

__version__ = "0.1.0"

from .numerics import LogReal  # noqa: F401
from .constants import ConstantsRow, CrossingResult  # noqa: F401
from .verify import SuiteConfig, SuiteReport, VerificationRecord, run_suite  # noqa: F401
