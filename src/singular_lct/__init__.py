"""Exact computation of log-canonical thresholds and jumping numbers of
plane curve singularities and monomial ideals, through clusters of
infinitely near points, Enriques diagrams, unloading, and Newton-polygon
combinatorics."""

from types import ModuleType as _ModuleType

from .poly import BivariatePolynomial, ParseError, parse_polynomial
from .newton import (
    MonomialIdeal,
    MonomialIdealError,
    NewtonFacet,
    Staircase,
    InfiniteStaircaseError,
    UnitIdealError,
    howald_multiplier,
    integral_closure,
    jumping_numbers_monomial,
    lct_monomial,
    newton_facets,
    staircase_sum,
    term_ideal,
    triangle,
)
from .cluster import (
    BRANCH,
    UnloadingError,
    LOGDISC,
    STRICT,
    TOTAL,
    BasisVector,
    Cluster,
    ClusterError,
    WeightedCluster,
    change_basis,
    is_unloaded,
    jumping_numbers_curve,
    lct_cluster,
    log_discrepancies,
    multiplier_cluster,
    proximity_matrix,
    unload,
)
from .enriques import (
    EnriquesDiagram,
    EnriquesError,
    EnriquesTree,
    EuclidData,
    OrientationError,
    branch_coefficients,
    classify,
    cluster_to_tree,
    connected_sum,
    diagram_to_staircase,
    euclid_data,
    prune_last,
    staircase_to_diagram,
    t_pq,
    tree_to_cluster,
    union,
    verify_main_inequality,
)
from .resolution import (
    NonRationalTangentError,
    NonReducedError,
    ResolutionError,
    multiplicity,
    resolve_curve,
)
from .engine import (
    AdaptedCandidate,
    MainTheoremViolation,
    TheoremReport,
    adapted_candidates,
    check_main_theorem,
    lct_via_term_ideals,
    nondegenerate_part,
)

# the public names, without the submodules that the imports above bind
__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
