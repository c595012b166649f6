"""Scaled relative graphs of linear operators.

The SRG of an operator T collects, over all inputs x, the gain
|Tx|/|x| as a modulus and the angle between x and Tx as an argument
(both conjugate branches).  For a matrix, mapping the plane through
the Beltrami-Klein disk model turns the SRG into the numerical range
of a bounded operator V built from the graph of T, which this package
traces by the support-function rotation method and maps back.  A scalar
rational transfer function acts as a normal multiplication operator, so
its SRG is the hyperbolic hull of its frequency response mapped into the
disk, and a brute-force sampler validates every computed region straight
from the definition.
"""

__version__ = "0.1.0"

from .cgeom import (
    EPS_DISK,
    INFINITY,
    ConvexPolygon,
    ExtComplex,
    Infinity,
    PolygonLocator,
    SrgRegion,
    bk_forward,
    bk_inverse,
    clamp_disk,
    convex_hull_2d,
    ext_conjugate,
    hull_bk,
    is_infinity,
    polygon_area,
    polygon_boundary_points,
    polygon_distance,
    polygon_hausdorff,
    polygon_signed_distance,
    region_contains,
    region_signed_distance,
)
from .errors import (
    FactorizationDegenerateError,
    IllConditionedError,
    InputError,
    NumericalError,
    OutOfDiskError,
    SrgError,
)
from .linalg import (
    as_matrix,
    frob,
    general_eig,
    poly_roots,
)
from .nrange import NRangeBoundary, nrange_boundary, nrange_contains
from .sampler import SampleReport, check_containment, sample_srg
from .srglti import (
    FreqGrid,
    LtiSrg,
    RationalTF,
    SpectralFactor,
    default_grid,
    freq_grid,
    lti_disk_point,
    lti_srg,
    rational_tf,
    spectral_factorize,
    tf_value,
)
from .srgmatrix import (
    SpectrumReport,
    VOperator,
    build_v,
    gamma_scaling_demo,
    hull_bk_spectrum,
    similarity_scaled_srg,
    spectrum_check,
    srg_complex,
    srg_real,
)

__all__ = [
    "__version__",
    "EPS_DISK",
    "INFINITY",
    "ConvexPolygon",
    "ExtComplex",
    "Infinity",
    "PolygonLocator",
    "SrgRegion",
    "bk_forward",
    "bk_inverse",
    "clamp_disk",
    "convex_hull_2d",
    "ext_conjugate",
    "hull_bk",
    "is_infinity",
    "polygon_area",
    "polygon_boundary_points",
    "polygon_distance",
    "polygon_hausdorff",
    "polygon_signed_distance",
    "region_contains",
    "region_signed_distance",
    "FactorizationDegenerateError",
    "IllConditionedError",
    "InputError",
    "NumericalError",
    "OutOfDiskError",
    "SrgError",
    "as_matrix",
    "frob",
    "general_eig",
    "poly_roots",
    "NRangeBoundary",
    "nrange_boundary",
    "nrange_contains",
    "SampleReport",
    "check_containment",
    "sample_srg",
    "FreqGrid",
    "LtiSrg",
    "RationalTF",
    "SpectralFactor",
    "default_grid",
    "freq_grid",
    "lti_disk_point",
    "lti_srg",
    "rational_tf",
    "spectral_factorize",
    "tf_value",
    "SpectrumReport",
    "VOperator",
    "build_v",
    "gamma_scaling_demo",
    "hull_bk_spectrum",
    "similarity_scaled_srg",
    "spectrum_check",
    "srg_complex",
    "srg_real",
]
