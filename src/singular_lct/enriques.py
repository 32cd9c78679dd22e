"""Enriques trees and diagrams.

An Enriques tree is a rooted tree whose non-root vertices carry an edge
kind: 'slant' for free points, 'horizontal' or 'vertical' for satellites.
A point is proximate to its parent and, when satellite, to one further
ancestor: the parent of the top of the maximal run of same-kind edges
ending at the point (an L-shaped branch).

Binary diagrams are exactly the ones realizable by monomial ideals.  The
edge kinds then also record the realization: satellites hanging off the
free chain along the y-axis are drawn horizontal, those off the x-axis
chain vertical (the mirrored convention).  A free chain with no satellites
carries no such information, so the tree may mark it with `x_side` as
lying on the x-axis.  One rule places each root chain, `EnriquesTree._axes`:
a marked chain on the x-axis, else the axis its first satellite says
(`_chain_axis`), and a bare chain on a free axis, y first.  Equality,
`mirrored`, `restrict`, `union` and `_valuations` read that placement, so
equality is isomorphism that keeps each chain's axis.

The ideal of a binary unloaded diagram is one valuation rule,
`_valuations`, read on the whole diagram by `diagram_to_staircase` and on
each candidate's points by `engine.adapted_candidates`.  Its cluster side
(the strict vectors, the dicritical points, the rows) lives in `cluster`,
where the jumping numbers of a binary cluster read it with no drawing;
this module adds the axis each chain is drawn on and the drawing checks.  On binary
diagrams `union` cuts out the product of the ideals, so
`staircase_to_diagram` is the union of its Newton facets' diagrams.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._record import Record
from .cluster import (
    Cluster,
    WeightedCluster,
    _binary_witness,
    _dicritical,
    _free_path,
    _valuation_points,
    _valuation_rows,
    _valuation_vectors,
    intersection_inverse,
    log_discrepancies,
)
from .newton import Staircase, newton_facets

SLANT = "s"
HORIZONTAL = "h"
VERTICAL = "v"
_KIND_RANK = {None: 0, SLANT: 0, HORIZONTAL: 1, VERTICAL: 2}


class EnriquesError(ValueError):
    pass


class OrientationError(EnriquesError):
    """The edge kinds admit no consistent monomial realization."""


def _opposite(kind: str) -> str:
    return VERTICAL if kind == HORIZONTAL else HORIZONTAL


class EnriquesTree(Record):
    """Rooted tree with slant/horizontal/vertical edge kinds.

    parents[i] is the parent index (None for the root, vertex 0); kinds[i]
    is the kind of the edge ending at vertex i (None for the root).
    x_side marks bare root chains on the x-axis; `_axes` places them all.

    The proximity cluster the tree determines is the attribute `cluster`,
    built on first use and not a field; every walk over the tree reads its
    cached children.
    """

    parents: Tuple[Optional[int], ...]
    kinds: Tuple[Optional[str], ...]
    x_side: frozenset

    def __init__(self, parents, kinds, x_side=frozenset()):
        parents = tuple(parents)
        kinds = tuple(kinds)
        if len(parents) != len(kinds):
            raise EnriquesError("parents and kinds differ in length")
        if parents and (parents[0] is not None or kinds[0] is not None):
            raise EnriquesError("vertex 0 must be the root")
        kid_kinds: Dict[int, List[str]] = {}
        for i in range(1, len(parents)):
            p, k = parents[i], kinds[i]
            if p is None or not 0 <= p < i:
                raise EnriquesError(f"vertex {i}: parent must precede it")
            if k not in (SLANT, HORIZONTAL, VERTICAL):
                raise EnriquesError(f"vertex {i}: unknown edge kind {k!r}")
            kid_kinds.setdefault(p, []).append(k)
        for p, ks in kid_kinds.items():
            if ks.count(HORIZONTAL) > 1 or ks.count(VERTICAL) > 1:
                raise EnriquesError(
                    f"vertex {p}: two satellite children with equal edge kind"
                )
            sat = ks.count(HORIZONTAL) + ks.count(VERTICAL)
            if p == 0 and sat:
                raise EnriquesError(
                    "a satellite edge out of the root has no L-branch reading"
                )
            if p != 0 and kinds[p] == SLANT and sat > 1:
                raise EnriquesError(
                    f"vertex {p}: a free point carries at most one satellite"
                )
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "x_side", frozenset())  # read the satellites alone
        object.__setattr__(self, "x_side", self._normalize_marks(x_side))

    def _normalize_marks(self, x_side) -> frozenset:
        keep = set()
        for v in x_side:
            if not (1 <= v < len(self.parents)) or self.parents[v] != 0:
                raise EnriquesError(f"x_side mark {v} is not a root child")
            axis = _chain_axis(self, v)
            if axis is None:
                keep.add(v)
            elif axis == "V":
                raise OrientationError(
                    f"root child {v} is marked x-side but its satellites are "
                    "drawn horizontal"
                )
            # axis 'H': the kinds already say it; the mark is redundant
        return frozenset(keep)

    def __len__(self) -> int:
        return len(self.parents)

    @cached_property
    def cluster(self) -> Cluster:
        """Proximities read off the tree: parent always, plus the L-branch
        target for satellites, i.e. the parent of the top of the maximal
        run of same-kind edges ending at the point.  No satellite hangs off
        the root, so that top is never the root."""
        targets = [()] if self.parents else []
        for v in range(1, len(self.parents)):
            p, k = self.parents[v], self.kinds[v]
            if k == SLANT:
                targets.append((p,))
            else:  # a run through p passes p's target on; else it starts at p
                second = targets[p][0] if self.kinds[p] == k else self.parents[p]
                targets.append((second, p))
        return Cluster(self.parents, targets)

    def children(self, v: int) -> List[int]:
        return list(self.cluster._children[v])

    def is_free(self, v: int) -> bool:
        return self.kinds[v] in (None, SLANT)

    def is_satellite(self, v: int) -> bool:
        return self.kinds[v] in (HORIZONTAL, VERTICAL)

    def is_path(self) -> bool:
        return all(len(kids) <= 1 for kids in self.cluster._children)

    def restrict(self, keep: Sequence[int]) -> "EnriquesTree":
        """The subtree on keep, numbered in keep's order (parents first).
        A kept root child keeps the axis `_axes` places it on: it is marked
        if that is the x-axis, and the constructor drops the mark where the
        kept satellites imply it."""
        pos = {old: new for new, old in enumerate(keep)}
        for v in keep:
            p = self.parents[v]
            if p is not None and p not in pos:
                raise EnriquesError(f"restriction drops the parent of vertex {v}")
        parents = tuple(
            None if self.parents[v] is None else pos[self.parents[v]] for v in keep
        )
        kinds = tuple(self.kinds[v] for v in keep)
        marks = [pos[v] for v in keep if self._axes.get(v) == "H"]
        return EnriquesTree(parents, kinds, marks)

    def mirrored(self) -> "EnriquesTree":
        """Swap the horizontal and vertical edge kinds (x <-> y) and mark
        the y-axis chains; the constructor drops a mark the kinds imply."""
        flip = {None: None, SLANT: SLANT, HORIZONTAL: VERTICAL, VERTICAL: HORIZONTAL}
        marks = [v for v, axis in self._axes.items() if axis == "V"]
        return EnriquesTree(self.parents, tuple(flip[k] for k in self.kinds), marks)

    @cached_property
    def _axes(self) -> Dict[int, Optional[str]]:
        """Each root child's axis, the one placement every reader uses: its
        `_chain_axis`, a bare chain a free axis, y first, or None if none."""
        kids = self.cluster._children[0] if self.parents else ()
        axes = {k: _chain_axis(self, k) for k in kids}
        for k in kids:
            if axes[k] is None:
                axes[k] = next((a for a in ("V", "H") if a not in axes.values()), None)
        return axes

    def _key(self, weights=None) -> tuple:
        """Flat canonical form up to isomorphism: the postorder of (kind
        rank, x-axis bit, weight, child count), the children's subtrees in
        sorted order.  One pass from the last vertex up, since parents
        precede children; an only child's list is extended in place, and a
        flat tuple compares without recursing, however deep the tree."""
        kinds, children, axes = self.kinds, self.cluster._children, self._axes
        keys: Dict[int, list] = {}
        for v in range(len(kinds) - 1, -1, -1):
            kids = children[v]
            if len(kids) == 1:
                key = keys.pop(kids[0])
            else:
                key = sum(sorted([keys.pop(c) for c in kids]), [])
            mark = 1 if axes.get(v) == "H" else 0
            w = 0 if weights is None else weights[v]
            key += (_KIND_RANK[kinds[v]], mark, w, len(kids))
            keys[v] = key
        return tuple(keys.get(0, ()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnriquesTree):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _chain_axis(t: EnriquesTree, child: int) -> Optional[str]:
    """The axis a root child's free chain lies on: 'H' (x-axis) if marked,
    else 'V' (y-axis) if the first satellite off a free point below it is
    horizontal, 'H' if vertical; None for a chain with no satellite."""
    if child in t.x_side:
        return "H"
    children, kinds = t.cluster._children, t.kinds
    stack = [child]
    while stack:
        kids = children[stack.pop()]
        for k in kids:
            if kinds[k] != SLANT:
                return "V" if kinds[k] == HORIZONTAL else "H"
        stack.extend(kids)
    return None


class EnriquesDiagram(Record):
    """Weighted Enriques tree; equality is up to isomorphism."""

    tree: EnriquesTree
    weights: Tuple[int, ...]

    def __init__(self, tree: EnriquesTree, weights):
        weights = tuple(weights)
        for i, w in enumerate(weights):
            if type(w) is not int:
                raise EnriquesError(f"weight {i} must be an integer, not {w!r}")
        if len(weights) != len(tree):
            raise EnriquesError("weight vector length does not match the tree")
        if any(w < 0 for w in weights):
            raise EnriquesError("diagram weights must be non-negative")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.tree)

    def to_weighted_cluster(self) -> WeightedCluster:
        return WeightedCluster(self.tree.cluster, self.weights)

    def restrict(self, keep: Sequence[int]) -> "EnriquesDiagram":
        keep = sorted(keep)
        return EnriquesDiagram(self.tree.restrict(keep), [self.weights[v] for v in keep])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnriquesDiagram):
            return NotImplemented
        return self.tree._key(self.weights) == other.tree._key(other.weights)

    def __hash__(self):
        return hash(self.tree._key(self.weights))


# -- the cluster dictionary ------------------------------------------------------


def tree_to_cluster(t: EnriquesTree) -> Cluster:
    """The proximity cluster of the tree, `t.cluster`."""
    return t.cluster


def cluster_to_tree(c: Cluster) -> EnriquesTree:
    """Canonical Enriques tree of a cluster: free points get slant edges,
    and an edge from a free point to a satellite is horizontal.  `Cluster`
    admits only L-branch targets (a satellite whose parent is free is
    proximate to its parent's parent, and one whose parent is a satellite
    to its parent's parent or second target), so the L-branch rule gives
    back c and the tree keeps c as its cluster."""
    kinds: List[Optional[str]] = []
    for v in range(len(c)):
        p = c.parents[v]
        if p is None:
            kinds.append(None)
        elif c.is_free(v):
            kinds.append(SLANT)
        elif c.is_free(p):
            kinds.append(HORIZONTAL)
        elif c.second_target(v) == c.second_target(p):
            kinds.append(kinds[p])
        else:
            kinds.append(_opposite(kinds[p]))
    t = EnriquesTree(c.parents, kinds)
    t.__dict__["cluster"] = c  # seeds the cached_property
    return t


class TreeClassification(Record):
    free: Tuple[bool, ...]
    non_degenerate: bool
    binary: bool
    unibranch: bool
    witnesses: Tuple[Tuple[str, int], ...]  # (predicate, violating vertex)


def classify(t: EnriquesTree) -> TreeClassification:
    """Free/satellite status and the non-degenerate / binary / unibranch
    predicates, with a violating vertex as witness where one fails; the
    first two are the cluster's rules (`cluster._binary_witness`)."""
    free = tuple(t.is_free(v) for v in range(len(t)))
    witnesses: List[Tuple[str, int]] = []
    broken = _binary_witness(t.cluster)
    if broken is not None:
        witnesses.append(broken)
    non_deg = broken is None or broken[0] != "degenerate_free_vertex"
    unibranch = t.is_path()
    if not unibranch:
        children = t.cluster._children
        branching = next(v for v, kids in enumerate(children) if len(kids) > 1)
        witnesses.append(("branching_vertex", branching))
    return TreeClassification(free, non_deg, broken is None, unibranch, tuple(witnesses))


# -- Euclid data and the staircase trees -----------------------------------------


class EuclidData(Record):
    """Continued-fraction bookkeeping for a coprime pair p < q.

    a[j] are the quotients of the Euclid algorithm on (q, p) and r[j] the
    remainders (r[1] = p, ..., r[m] = 1).  The auxiliary sequences satisfy
    f_j = f_{j-2} + a_j d_j and d_j = d_{j-2} + a_{j-1} f_{j-2}, recover the
    remainders as r_j = d_j p - f_{j-1} q (j odd) or d_j q - f_{j-1} p
    (j even), and end with {f_m, d_{m+1}} = {p, q}.
    """

    p: int
    q: int
    a: Tuple[int, ...]
    r: Tuple[int, ...]
    f: Tuple[int, ...]  # f[-1] .. f[m], stored with offset 1
    delta: Tuple[int, ...]  # d[0] .. d[m+1]

    def f_at(self, j: int) -> int:
        return self.f[j + 1]

    def delta_at(self, j: int) -> int:
        return self.delta[j]


def euclid_data(p: int, q: int) -> EuclidData:
    if not (1 <= p < q):
        raise EnriquesError("need 1 <= p < q")
    if gcd(p, q) != 1:
        raise EnriquesError(f"{p} and {q} are not coprime")
    a: List[int] = []
    rem: List[int] = []
    hi, lo = q, p
    while lo:
        a.append(hi // lo)
        rem.append(lo)
        hi, lo = lo, hi % lo
    m = len(a)
    f = [0, 0]  # f_{-1}, f_0 at offset j+1
    delta = [1, 1]  # d_0, d_1 at offset j
    for j in range(1, m + 1):
        if j >= 2:
            delta.append(delta[j - 2] + a[j - 2] * f[j - 1])
        f.append(f[j - 1] + a[j - 1] * delta[j])
    delta.append(delta[m - 1] + a[m - 1] * f[m])
    data = EuclidData(p, q, tuple(a), tuple(rem), tuple(f), tuple(delta))
    for j in range(1, m + 1):
        if j % 2 == 1:
            expect = -data.f_at(j - 1) * q + data.delta_at(j) * p
        else:
            expect = data.delta_at(j) * q - data.f_at(j - 1) * p
        assert expect == rem[j - 1], "Euclid remainder identity failed"
    last_f, last_d = data.f_at(m), data.delta_at(m + 1)
    assert {last_f, last_d} == {p, q}, "terminal Euclid identity failed"
    return data


def t_pq(p: int, q: int, *, scale: int = 1, mirror: bool = False) -> EnriquesDiagram:
    """The diagram of the minimal log resolution of x^p - y^q (p < q
    coprime): one vertex block per Euclid quotient, edge kinds slant then
    alternating horizontal / vertical, weights the remainders.

    scale multiplies all weights (the diagram of the d-fold thickened
    staircase); mirror, read by its truth value, gives the `mirrored()`
    tree, horizontal and vertical swapped and a bare chain (p = 1) marked
    as lying on the x-axis.  Calls with the same (p, q, mirror) share the
    tree, its cluster and its axes."""
    tree, remainders = _t_pq_tree(p, q, bool(mirror))
    return EnriquesDiagram(tree, [scale * r for r in remainders])


@lru_cache(maxsize=64, typed=True)  # a germ-theorem pass reads 27 distinct trees
def _t_pq_tree(p: int, q: int, mirror: bool) -> Tuple[EnriquesTree, Tuple[int, ...]]:
    if mirror:
        tree, remainders = _t_pq_tree(p, q, False)
        return tree.mirrored(), remainders
    data = euclid_data(p, q)
    block = [j for j, aj in enumerate(data.a, start=1) for _ in range(aj)]
    # the edge into vertex i is edge number i, in block j
    kinds = [None] + [SLANT if j == 1 else VERTICAL if j % 2 else HORIZONTAL for j in block[:-1]]
    return EnriquesTree([None, *range(len(block) - 1)], kinds), tuple(data.r[j - 1] for j in block)


# -- union and connected sum -----------------------------------------------------


def union(d1: EnriquesDiagram, d2: EnriquesDiagram) -> EnriquesDiagram:
    """Union of two diagrams: the maximal common subtrees are glued,
    weights adding on the shared part, root chains matched by `_axes` (an
    operand's must differ) and other points by edge kind (an operand's
    must differ too).  On binary diagrams it is the diagram of the product of
    their ideals (Zariski).  A preorder walk: each stack entry (v1, v2,
    parent) pairs a vertex of d1 with one of d2, either of which may be
    -1, a sentinel with no kind, weight or children."""
    roots = []
    for t in (d1.tree, d2.tree):
        roots.append({a: k for k, a in t._axes.items() if a})
        if len(roots[-1]) < len(t._axes):
            raise OrientationError("a union operand has two root chains on one axis")
        if any(sum(t.kinds[k] == SLANT for k in kids) > 1 for kids in t.cluster._children[1:]):
            raise EnriquesError("union input has equal-kind siblings")
    if len(d1) == 0:
        return d2
    if len(d2) == 0:
        return d1
    t1, t2 = d1.tree, d2.tree
    k1, w1, c1 = t1.kinds + (None,), d1.weights + (0,), t1.cluster._children + ((),)
    k2, w2, c2 = t2.kinds + (None,), d2.weights + (0,), t2.cluster._children + ((),)
    parents, kinds, weights, marks = [None], [None], [w1[0] + w2[0]], set()
    by1, by2 = roots  # the y-axis chain ends on top
    stack = [(by1.get(a, -1), by2.get(a, -1), 0) for a in ("H", "V") if a in by1 or a in by2]
    while stack:
        v1, v2, parent = stack.pop()
        idx = len(parents)
        if parent == 0 and (v1 in t1.x_side or v2 in t2.x_side):
            marks.add(idx)
        parents.append(parent)
        kinds.append(k1[v1] or k2[v2])
        weights.append(w1[v1] + w2[v2])
        if v1 < 0 or v2 < 0:  # d1's first child ends on top
            for k in reversed(c2[v2]):
                stack.append((-1, k, idx))
            for k in reversed(c1[v1]):
                stack.append((k, -1, idx))
            continue
        by1, by2 = {k1[k]: k for k in c1[v1]}, {k2[k]: k for k in c2[v2]}
        for kind in (VERTICAL, HORIZONTAL, SLANT):  # slant ends on top
            if kind in by1 or kind in by2:
                stack.append((by1.get(kind, -1), by2.get(kind, -1), idx))
    return EnriquesDiagram(EnriquesTree(parents, kinds, frozenset(marks)), weights)


def connected_sum(t1: EnriquesTree, t2: EnriquesTree) -> EnriquesTree:
    """Glue the last vertex of the first unibranch tree to the root of the
    second; edge kinds are inherited from each part."""
    for t in (t1, t2):
        if not t.is_path():
            raise EnriquesError("connected sum is defined for unibranch trees")
    if len(t1) == 0:
        return t2
    if len(t2) == 0:
        return t1
    r = len(t1)
    parents = list(t1.parents)
    kinds = list(t1.kinds)
    for v in range(1, len(t2)):
        parents.append(t2.parents[v] + r - 1)
        kinds.append(t2.kinds[v])
    return EnriquesTree(parents, kinds)


def prune_last(d: EnriquesDiagram) -> EnriquesDiagram:
    """Remove the last vertex of a unibranch diagram."""
    if not d.tree.is_path():
        raise EnriquesError("prune_last is defined for unibranch diagrams")
    if len(d) < 2:
        raise EnriquesError("nothing to prune in a single-vertex diagram")
    return d.restrict(range(len(d) - 1))


# -- closed-form branch coefficients and the comparison of thresholds -----------


class BranchCoefficients(Record):
    """Closed forms for a branch divisor B_alpha of the tree of x^p - y^q:
    its last strict coordinate e_r(B_alpha) and, when defined (alpha >= 2),
    its first total coordinate w_1(B_alpha)."""

    e_last: int
    w_first: Optional[int]


def branch_coefficients(p: int, q: int, alpha: int) -> BranchCoefficients:
    data = euclid_data(p, q)
    r = sum(data.a)
    if not 1 <= alpha <= r:
        raise EnriquesError(f"alpha must lie in 1..{r}")
    prefix = 0
    j = 0
    for jj, aj in enumerate(data.a, start=1):
        if alpha <= prefix + aj:
            j, k = jj, alpha - prefix
            break
        prefix += aj
    factor = p if j % 2 == 1 else q
    e_last = (data.f_at(j - 2) + k * data.delta_at(j)) * factor

    w_first: Optional[int] = None
    if alpha >= 2:
        if k >= 2:
            jj, kk = j, k
        else:
            jj, kk = j - 1, data.a[j - 2] + 1
        if jj % 2 == 1:
            w_first = data.delta_at(jj - 1) + kk * data.f_at(jj - 1)
        else:
            w_first = data.f_at(jj - 2) + kk * data.delta_at(jj)
    return BranchCoefficients(e_last, w_first)


class InequalityRow(Record):
    alpha: int  # 0-based vertex of the connected sum
    at_junction: Fraction  # e_r(B_alpha) / (k_r + 1)
    at_end: Fraction  # e_{r+r'-1}(B_alpha) / (k_{r+r'-1} + 1)

    @property
    def holds(self) -> bool:
        return self.at_junction > self.at_end


class MainInequalityReport(Record):
    rows: Tuple[InequalityRow, ...]
    junction: int
    end: int

    @property
    def holds(self) -> bool:
        return all(row.holds for row in self.rows)


def verify_main_inequality(t: EnriquesTree, p2: int, q2: int) -> MainInequalityReport:
    """For the connected sum S of a unibranch tree t (which must contain a
    proper L-shaped branch, i.e. a satellite) with the tree of x^p2 - y^q2,
    compare e(B_alpha)/(k+1) at the junction vertex and at the last vertex
    for every alpha; the junction ratio must be strictly larger."""
    if not t.is_path():
        raise EnriquesError("the first factor must be unibranch")
    if all(t.is_free(v) for v in range(len(t))):
        raise EnriquesError(
            "the first factor has no proper L-shaped branch (no satellite)"
        )
    s = connected_sum(t, t_pq(p2, q2).tree)
    c = s.cluster
    m = intersection_inverse(c)  # m[alpha][beta] = e_beta(B_alpha)
    k = log_discrepancies(c).entries
    r = len(t) - 1  # junction, 0-based
    end = len(s) - 1
    rows = tuple(
        InequalityRow(
            alpha,
            Fraction(m[alpha][r], k[r] + 1),
            Fraction(m[alpha][end], k[end] + 1),
        )
        for alpha in range(len(s))
    )
    return MainInequalityReport(rows, r, end)


# -- diagrams <-> staircases ------------------------------------------------------


def _valuations(d: EnriquesDiagram) -> Tuple[List[int], Callable]:
    """The monomial ideal of a binary diagram, {m X_a + n Y_a >= e_a} over
    its dicritical points a, those with a positive branch coordinate
    (Zariski); e, X and Y are the strict vectors of the weights, x and y,
    as `cluster._valuation_vectors` reads them off the tree's cluster.  A
    chain lies where `_axes` places it in d and in `d.restrict(keep)`, or
    on the y-axis if that leaves it none (a third root chain).

    Returns e and the reader of the sub-diagram on keep, a point set closed
    under proximity, with every satellite child of its free points, that
    lists each point after its parent.  The reader raises if the weights
    are not unloaded on keep, if both root chains lie on one axis, and for
    a satellite off a free point drawn against its chain's axis (the y-axis
    chain first, numbered as in `d.restrict(keep)`); else it returns the
    points (X_a, Y_a, e_a) and the staircase, row j the least m with
    m X_a + j Y_a >= e_a at each of them."""
    t, w = d.tree, d.weights
    kinds, children = t.kinds, t.cluster._children
    free_path = _free_path(t.cluster)
    vectors = _valuation_vectors(t.cluster, w, free_path)
    under = vectors[3]

    def read(keep: Sequence[int]) -> Tuple[List[Tuple[int, int, int]], Staircase]:
        dicritical = _dicritical(t.cluster, w, keep)
        if dicritical is None:
            raise EnriquesError("diagram is not unloaded")
        chains: Dict[int, List[int]] = {}
        for v in keep:
            if v and free_path[v]:
                chains.setdefault(under[v], []).append(v)
        on = {t._axes[k] or "V": k for k in chains}
        if len(on) < len(chains):
            raise OrientationError("both root children lie on the same axis")
        for axis, k in sorted(on.items(), reverse=True):  # the y-axis chain first
            drawn = HORIZONTAL if axis == "V" else VERTICAL
            for u in chains[k]:
                for s in children[u]:
                    if kinds[s] not in (SLANT, drawn):
                        raise OrientationError(
                            f"vertex {sorted(keep).index(u)}: satellite child drawn "
                            f"{kinds[s]!r} on the {'y' if drawn == HORIZONTAL else 'x'}"
                            "-axis chain"
                        )
        points = _valuation_points(vectors, dicritical, on.get("H"))
        return points, Staircase.from_slices(_valuation_rows(points))

    return vectors[0], read


def diagram_to_staircase(d: EnriquesDiagram) -> Staircase:
    """Staircase of the integrally closed monomial ideal cut out by a
    binary unloaded diagram: {m X_a + n Y_a >= e_a} over its dicritical
    points, as `_valuations` reads the whole diagram.  A binary diagram has
    no free point behind a satellite, so every free point lies on one of at
    most two root chains, each on its own axis; a free point's satellite
    child must be drawn horizontal on the y-axis chain and vertical on the
    x-axis one.
    """
    cls = classify(d.tree)
    if not cls.binary:
        raise EnriquesError(f"diagram is not binary: {dict(cls.witnesses)}")
    _, read = _valuations(d)
    _, staircase = read(range(len(d)))
    return staircase


_POINT = EnriquesTree((None,), (None,))  # the tree of every facet of slope -1


def staircase_to_diagram(s: Staircase) -> EnriquesDiagram:
    """Binary unloaded diagram of the smallest integrally closed monomial
    ideal with the given staircase: the union of one thickened staircase
    tree per Newton facet, in facet order, steep facets (slope < -1) drawn
    standard on the y-axis, shallow ones mirrored on the x-axis and the
    facet of slope -1 a single point.  The ideal is the product of the
    facets' ideals, so its diagram is the union of theirs."""
    if s.is_empty():
        raise EnriquesError("the empty staircase has no diagram")
    if not s.is_finite():
        raise EnriquesError("only finite staircases correspond to diagrams")
    parts = [
        t_pq(min(f.p, f.q), max(f.p, f.q), scale=f.d, mirror=f.q < f.p)
        if f.p != f.q
        else EnriquesDiagram(_POINT, (f.d,))
        for f in newton_facets(s.to_ideal())
    ]
    return reduce(union, parts)
