"""The threshold comparison engine.

For a curve with minimal log resolution diagram D, the log-canonical
threshold can be computed two independent ways:

  * directly on the cluster as min (k+1)/e over the blown-up points;
  * as the minimum, over the finitely many adapted coordinate choices, of
    the threshold of a monomial ideal read off the diagram.

An adapted choice is indexed by the endpoint rho of a maximal chain of
free points: the associated subdiagram is the largest binary subdiagram
whose free vertices lie on the root-to-rho path, and its staircase's
Newton polygon gives the candidate's threshold.  That threshold is at
least the lct and the minimum over the candidates equals it, but one
candidate may lie above the term ideal's value: on the curve
(x^2 + y^5)*(x^4 - (1/2)*y^5)*(y^3 - 2*x^4), rho = P2 gives 2/9 and the
term ideal 3/14.  check_main_theorem verifies that the minimum and the
cluster route agree exactly, and that the threshold along every
root-to-leaf path through a witness vertex, and along the non-degenerate
part of that path, is the same value.  A root path is closed under
proximity, so its points keep their values (k+1)/e, and both path
thresholds are least values of the curve's own cluster, read in one pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from ._record import Record
from .cluster import _thresholds
from .enriques import (
    EnriquesDiagram,
    EnriquesTree,
    _free_path,
    _nondegenerate,
    diagram_to_staircase,
)
from .newton import Staircase, lct_monomial


class MainTheoremViolation(AssertionError):
    """The two independent threshold computations disagreed."""

    def __init__(self, report: "TheoremReport"):
        self.report = report
        super().__init__(
            f"lct mismatch: cluster gives {report.lct_direct}, term ideals "
            f"give {report.lct_term}\n{report}"
        )


class AdaptedCandidate(Record):
    """One adapted coordinate choice: the highest free point rho on the
    second coordinate curve, the binary subdiagram it spans, its staircase,
    and the lct of that staircase's monomial ideal, which is at least the
    lct of the curve."""

    rho: Optional[int]
    subdiagram: EnriquesDiagram
    staircase: Staircase
    lct: Fraction


class PathCheck(Record):
    witness: int
    leaf: int
    lct_path: Fraction
    lct_path_core: Fraction


class TheoremReport(Record):
    lct_direct: Fraction
    lct_term: Fraction
    equal: bool
    witness_vertices: Tuple[int, ...]
    witness_candidate: Optional[AdaptedCandidate]
    candidates: Tuple[AdaptedCandidate, ...]
    path_checks: Tuple[PathCheck, ...]
    smooth: bool = False

    def __str__(self) -> str:
        lines = [
            f"lct (cluster)     = {self.lct_direct}",
            f"lct (term ideals) = {self.lct_term}",
            f"witness vertices  = {[v + 1 for v in self.witness_vertices]}",
        ]
        for c in self.candidates:
            rho = "-" if c.rho is None else c.rho + 1
            lines.append(
                f"  candidate rho=P{rho}: lct {c.lct}, "
                f"staircase {list(c.staircase.slices())}"
            )
        return "\n".join(lines)


def nondegenerate_part(d: EnriquesDiagram) -> EnriquesDiagram:
    """Maximal subdiagram whose free vertices all have all-free root paths:
    free vertices behind a satellite are cut, satellites are kept as long
    as their ancestors are."""
    return d.restrict([v for v, kept in enumerate(_nondegenerate(d.tree)) if kept])


def adapted_candidates(d: EnriquesDiagram) -> List[AdaptedCandidate]:
    """One candidate per maximal all-free chain endpoint."""
    if len(d) == 0:
        return [
            AdaptedCandidate(None, d, Staircase.empty(), Fraction(1))
        ]
    t = d.tree
    children = t.cluster._children
    free_path = _free_path(t)
    endpoints = [
        v
        for v, kids in enumerate(children)
        if free_path[v] and not any(free_path[k] for k in kids)
    ]
    out = []
    for rho in endpoints:
        keep = []
        v: Optional[int] = rho
        while v is not None:
            keep.append(v)
            v = t.parents[v]
        for u in keep:  # grows: the satellites hanging off the kept points
            keep.extend(k for k in children[u] if t.is_satellite(k))
        sub = d.restrict(keep)
        stair = diagram_to_staircase(sub)
        out.append(
            AdaptedCandidate(rho, sub, stair, lct_monomial(stair.to_ideal()))
        )
    return out


def lct_via_term_ideals(d: EnriquesDiagram) -> Fraction:
    return min(c.lct for c in adapted_candidates(d))


def _path_checks(
    t: EnriquesTree, values: List[Fraction], witnesses: Tuple[int, ...]
) -> List[PathCheck]:
    """The least value (k+1)/e along each root-to-leaf path through a
    witness and along that path's non-degenerate prefix, the leaves below
    each witness in preorder.  Parents precede children, so one pass in
    index order carries both minima down every path."""
    keep = _nondegenerate(t)
    path_min, core_min = list(values), list(values)
    for v, p in enumerate(t.parents):
        if p is not None:
            path_min[v] = min(path_min[p], values[v])
            core_min[v] = min(core_min[p], values[v]) if keep[v] else core_min[p]
    checks = []
    for w in witnesses:
        stack = [w]  # first child on top, so the leaves come out in preorder
        while stack:
            v = stack.pop()
            kids = t.cluster._children[v]
            if not kids:
                checks.append(PathCheck(w, v, path_min[v], core_min[v]))
            stack.extend(reversed(kids))
    return checks


def check_main_theorem(d: EnriquesDiagram) -> TheoremReport:
    """Verify that the cluster threshold equals the minimum over adapted
    term ideals, exactly; raise MainTheoremViolation otherwise."""
    candidates = tuple(adapted_candidates(d))
    lct_term = min(c.lct for c in candidates)
    values = _thresholds(d.to_weighted_cluster()) if len(d) else []
    lct_direct = min(values, default=Fraction(1))  # 1 if smooth
    witnesses = tuple(a for a, v in enumerate(values) if v == lct_direct)
    witness_candidate = next((c for c in candidates if c.lct == lct_term), None)
    path_checks = tuple(_path_checks(d.tree, values, witnesses))
    equal = lct_direct == lct_term
    report = TheoremReport(
        lct_direct,
        lct_term,
        equal,
        witnesses,
        witness_candidate,
        candidates,
        path_checks,
        smooth=len(d) == 0,
    )
    if not equal:
        raise MainTheoremViolation(report)
    for chk in path_checks:
        if chk.lct_path != lct_direct or chk.lct_path_core != lct_direct:
            raise MainTheoremViolation(report)
    for c in candidates:
        if c.lct < lct_direct:
            raise MainTheoremViolation(report)
    return report
