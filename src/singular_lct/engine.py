"""The threshold comparison engine.

For a curve with minimal log resolution diagram D, the log-canonical
threshold can be computed two independent ways:

  * directly on the cluster as min (k+1)/e over the blown-up points;
  * as the minimum, over the finitely many adapted coordinate choices, of
    the threshold of a monomial ideal read off the diagram.

An adapted choice is indexed by the endpoint rho of a maximal chain of free
points: the associated subdiagram is the largest binary subdiagram whose free
vertices lie on the root-to-rho path, built on access.  Its monomial ideal is
the one `enriques._valuations` reads with the curve's own cluster and the
chain on the axis the diagram places it on, the rule `diagram_to_staircase`
reads too: m X_a + n Y_a >= e_a at each dicritical point a of the subdiagram,
X and Y the strict vectors of the two coordinate curves and e the curve's,
and its threshold is the least (X_a + Y_a)/e_a (Howald).
That threshold is at least the lct and the minimum over the candidates
equals it, but one candidate may lie above the term ideal's value: on the
curve (x^2 + y^5)*(x^4 - (1/2)*y^5)*(y^3 - 2*x^4), rho = P2 gives 2/9
and the term ideal 3/14.  check_main_theorem verifies that the minimum and the
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
from .cluster import _free_path, _nondegenerate, _thresholds
from .enriques import EnriquesDiagram, EnriquesTree, _valuations
from .newton import Staircase, UnitIdealError


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
    second coordinate curve, the binary subdiagram it spans, the staircase
    of the monomial ideal that subdiagram cuts out, and that ideal's lct,
    which is at least the lct of the curve.  Staircase and lct are read
    off the valuations at the subdiagram's dicritical points by the rule
    `diagram_to_staircase` reads, so they are the values it and
    `lct_monomial` give on the subdiagram, built on first access."""

    rho: Optional[int]
    subdiagram: EnriquesDiagram
    staircase: Staircase
    lct: Fraction

    @classmethod
    def _on(cls, rho, d: EnriquesDiagram, keep, staircase, lct) -> "AdaptedCandidate":
        c = cls.__new__(cls)  # its subdiagram, d.restrict(keep), is built on first access
        c.__dict__.update(rho=rho, staircase=staircase, lct=lct, _keep=(d, keep))
        return c

    def __getattr__(self, name):  # reached only for a name not in __dict__
        if name != "subdiagram" or "_keep" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__.setdefault(name, EnriquesDiagram.restrict(*self._keep))


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
    return d.restrict([v for v, kept in enumerate(_nondegenerate(d.tree.cluster)) if kept])


def adapted_candidates(d: EnriquesDiagram) -> List[AdaptedCandidate]:
    """One candidate per maximal all-free chain endpoint rho: the root path
    to rho and the satellites off it, a point set closed under proximity
    whose free points lie on that path, read by `enriques._valuations` with
    the curve's own strict vectors on the axis the diagram places its chain
    on, as `d.restrict(keep)` keeps it.  Its dicritical points cut out the
    complete ideal {m X_a + n Y_a >= e_a} (Zariski), whose threshold is
    min (X_a + Y_a)/e_a (Howald).  The errors are those of
    `diagram_to_staircase` and `lct_monomial` on the subdiagram, in their
    order: not unloaded, a misdrawn satellite, the unit ideal."""
    return _adapted(d)[1]


def _adapted(d: EnriquesDiagram) -> Tuple[List[int], List[AdaptedCandidate]]:
    """The curve's strict vector e and its adapted candidates."""
    if len(d) == 0:
        return [], [AdaptedCandidate(None, d, Staircase.empty(), Fraction(1))]
    t = d.tree
    children = t.cluster._children
    free_path = _free_path(t.cluster)
    e, read = _valuations(d)
    out = []
    for rho, kids in enumerate(children):
        if not free_path[rho] or any(free_path[k] for k in kids):
            continue
        keep = []
        v: Optional[int] = rho
        while v is not None:
            keep.append(v)
            v = t.parents[v]
        keep.reverse()  # the root path, parents first
        for u in keep:  # grows: the satellites hanging off the kept points
            keep.extend(k for k in children[u] if t.is_satellite(k))
        points, staircase = read(keep)
        if not points:
            raise UnitIdealError("the unit ideal has no log-canonical threshold")
        lct = min(Fraction(xa + ya, ea) for xa, ya, ea in points)
        out.append(AdaptedCandidate._on(rho, d, keep, staircase, lct))
    return e, out


def lct_via_term_ideals(d: EnriquesDiagram) -> Fraction:
    return min(c.lct for c in adapted_candidates(d))


def _path_checks(
    t: EnriquesTree, values: List[Fraction], witnesses: Tuple[int, ...]
) -> List[PathCheck]:
    """The least value (k+1)/e along each root-to-leaf path through a
    witness and along that path's non-degenerate prefix, the leaves below
    each witness in preorder.  Parents precede children, so one pass in
    index order carries the points of both minima, compared as integers."""
    nd = [(f.numerator, f.denominator) for f in values]
    path_at, core_at = list(range(len(values))), list(range(len(values)))
    for v, (p, kept) in enumerate(zip(t.parents[1:], _nondegenerate(t.cluster)[1:]), 1):
        (n, d), a, b = nd[v], path_at[p], core_at[p]
        path_at[v] = v if n * nd[a][1] < nd[a][0] * d else a
        core_at[v] = v if kept and n * nd[b][1] < nd[b][0] * d else b
    checks = []
    for w in witnesses:
        stack = [w]  # first child on top, so the leaves come out in preorder
        while stack:
            v = stack.pop()
            kids = t.cluster._children[v]
            if not kids:
                checks.append(PathCheck(w, v, values[path_at[v]], values[core_at[v]]))
            stack.extend(reversed(kids))
    return checks


def check_main_theorem(d: EnriquesDiagram) -> TheoremReport:
    """Verify that the cluster threshold equals the minimum over adapted
    term ideals, exactly; raise MainTheoremViolation otherwise."""
    e, candidates = _adapted(d)
    candidates = tuple(candidates)
    lct_term = min(c.lct for c in candidates)
    values = _thresholds(d.tree.cluster, d.weights, e) if len(d) else []
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
