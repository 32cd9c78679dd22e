"""Exact computation of log-canonical thresholds and jumping numbers of
plane curve singularities and monomial ideals, through clusters of
infinitely near points, Enriques diagrams, unloading, and Newton-polygon
combinatorics.

Importing the package loads none of its modules: a public name, or a home
module named as an attribute, is imported on first access (PEP 562), so a
command-line call compiles only the modules its command runs."""

# the public names, under the module that defines each
_EXPORTS = {
    "poly": "BivariatePolynomial ParseError parse_polynomial",
    "newton": "InfiniteStaircaseError MonomialIdeal MonomialIdealError NewtonFacet Staircase"
    " UnitIdealError howald_multiplier integral_closure jumping_numbers_monomial"
    " lct_monomial newton_facets staircase_sum term_ideal triangle",
    "cluster": "BRANCH LOGDISC STRICT TOTAL BasisVector Cluster ClusterError UnloadingError"
    " WeightedCluster change_basis is_unloaded jumping_numbers_curve lct_cluster"
    " log_discrepancies multiplier_cluster proximity_matrix unload",
    "enriques": "EnriquesDiagram EnriquesError EnriquesTree EuclidData OrientationError"
    " branch_coefficients classify cluster_to_tree connected_sum diagram_to_staircase"
    " euclid_data prune_last staircase_to_diagram t_pq tree_to_cluster union"
    " verify_main_inequality",
    "resolution": "NonRationalTangentError NonReducedError ResolutionError multiplicity"
    " resolve_curve",
    "engine": "AdaptedCandidate MainTheoremViolation TheoremReport adapted_candidates"
    " check_main_theorem lct_via_term_ideals nondegenerate_part",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds the module here; unlike importlib.import_module,
    # __import__ takes the path that -X importtime reports
    __import__(f"{__name__}.{home}")
    if name == home:
        return globals()[home]
    value = getattr(globals()[home], name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
