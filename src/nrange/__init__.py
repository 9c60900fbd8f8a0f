"""Numerical ranges of rectangular complex matrices.

Closed-form regions (discs, rings, ellipses, sampled convex boundaries) for
the bilinear, norm-based, projector and rank-k ranges, together with
independent sampling and power-iteration oracles and a small CLI.
"""

__version__ = "0.1.0"

from . import fov, geometry, linalg, oracles, projrange, rankk, rectrange
from .fov import fov_boundary, sharp_points, support_point
from .geometry import (
    Annulus,
    BoundaryCurve,
    Circle,
    ConvexBoundary,
    Disc,
    Ellipse,
    Empty,
    Point,
    Region,
    Segment,
    SharpPoint,
    region_contains,
    support_gap,
)
from .linalg import frobenius_inner, hermitian_eigen, random_isometry, svd
from .oracles import McReport, mc_fov_samples, mc_rect_sup, power_sigma_max
from .projrange import (
    ProjectorSetting,
    higher_range,
    lower_range,
    real_imag_blocks,
    sharp_transfer_report,
    vector_ellipse,
)
from .rankk import (
    RankKRegion,
    WitnessPair,
    find_witness,
    hermitian_rank_interval,
    projector_intersection_check,
    rank_k_contains,
    rank_k_region,
)
from .rectrange import (
    WitnessVectors,
    boundary_witness,
    center_bound_check,
    compression_radius,
    interior_witness,
    norm_range_disc,
    norm_range_union,
    range_disc,
    range_value,
    rank_one_value,
)

# the public API is exactly the names imported above
__all__ = sorted(name for name in globals() if not name.startswith("_"))
