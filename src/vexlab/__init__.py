"""Numerical laboratory for Dirichlet problems driven by the p(x)-Laplacian
with a q(x)-power source: variable-exponent space machinery, a regularized
solver cascade, Pohozaev-type balance reports, and nonexistence verdicts."""

from .domains import (
    Domain,
    StarShapeReport,
    find_star_center,
    sample_points,
    star_shape_report,
)
from .errors import (
    CollapseToZero,
    ConfigError,
    DegenerateCell,
    ExponentTooLarge,
    InsufficientRuns,
    MeshFailure,
    NoScalingRoot,
    NonElliptic,
    NonFiniteIntegrand,
    NotStarShaped,
    VexlabError,
)
from .exponents import (
    AffineExponent,
    ConstantExponent,
    ExponentField,
    LogHolderReport,
    RadialExponent,
    TabulatedExponent,
    conjugate,
    embedding_gap,
    exponent_from_spec,
    log_holder_estimate,
    sobolev_conjugate,
)
from .fem import (
    DiscreteField,
    cutoff,
    cutoff_profile,
    field_on_quadrature,
    gradient,
    integrate,
    l2_project,
    mass_matrix,
    mesh_l2,
    mollify,
)
from .meshes import Mesh, boundary_integral, build_mesh, read_mesh, write_mesh
from .modular import (
    HolderReport,
    ModularRelationsReport,
    ModularResult,
    gradient_luxemburg_norm,
    gradient_modular,
    holder_check,
    luxemburg_norm,
    modular,
    verify_modular_relations,
)
from .pohozaev import (
    PohozaevReport,
    VerdictReport,
    boundary_term,
    class_e_integral,
    nonexistence_verdict,
    pohozaev_terms,
    radial_identity_sides,
    remainder_R,
    remainder_table,
    tloge,
    verify_pucci_serrin,
)
from .solvers import (
    SolveConfig,
    SolveResult,
    cascade,
    cascade_levels,
    mollifier_radius,
    nehari_candidate,
    operator_action,
    phi_energy,
    power_source,
    regularized_energy,
    solve_regularized,
    source_energy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
