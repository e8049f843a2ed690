"""Lattice permanents for restricted displacement patterns on Z^d.

The package estimates the exponential growth rate of weighted injective and
admissible pattern counts (topological pressure of the associated shift of
finite type), and cross-checks those estimates against finite-quotient
permanents, exact one-dimensional transfer matrices, Mahler measures, and
universal permanent bounds.
"""

from .entropy import (
    EstimateReport,
    WindowSchedule,
    entropy_upper_bound,
    estimate_report,
    pressure_lower_bound,
    transfer_matrix,
    transfer_pressure,
)
from .fkdet import (
    MahlerResult,
    QuadratureConfig,
    evaluate_family,
    family_instance,
    fk_finite_sections,
    mahler_measure,
    mahler_measure_roots,
)
from .groupring import (
    CapacityError,
    GroupRingElement,
    Point,
    TorusQuotient,
    Window,
    dilate,
    interior,
    project,
    separated_on_quotient,
)
from .permanent import (
    bregman_bound,
    det_identity_check,
    finite_det_ffstar,
    matrix_permanent,
    torus_permanent,
    vdw_bound,
    window_permanent,
)

__all__ = [
    "CapacityError",
    "EstimateReport",
    "GroupRingElement",
    "MahlerResult",
    "Point",
    "QuadratureConfig",
    "TorusQuotient",
    "Window",
    "WindowSchedule",
    "bregman_bound",
    "det_identity_check",
    "dilate",
    "entropy_upper_bound",
    "estimate_report",
    "evaluate_family",
    "family_instance",
    "finite_det_ffstar",
    "fk_finite_sections",
    "interior",
    "mahler_measure",
    "mahler_measure_roots",
    "matrix_permanent",
    "pressure_lower_bound",
    "project",
    "separated_on_quotient",
    "torus_permanent",
    "transfer_matrix",
    "transfer_pressure",
    "vdw_bound",
    "window_permanent",
]

__version__ = "0.1.0"
