"""Clusters of infinitely near points on a smooth surface.

A cluster is a finite, topologically ordered list of points, each one
either the proper point (root) or infinitely near to it.  Every non-root
point carries the set of points it is proximate to: its parent always, and
for satellites one further ancestor reachable by an L-shaped branch.

The proximity matrix Pi expresses the strict transforms of the exceptional
divisors in the total transforms: row alpha has 1 on the diagonal and -1 in
column beta exactly when P_beta is proximate to P_alpha.  A divisor in the
lattice spanned by the exceptional divisors can be written in three integer
bases, and the dictionary is

    w = e . Pi            (total from strict)
    b = w . Pi^t          (branch from total, i.e. b = w - wbar)
    k . Pi = (1, ..., 1)  (log discrepancies)

Unloading repairs a weight vector that violates a proximity inequality by
moving weight onto the violated point; it preserves the complete ideal cut
out by the cluster and terminates in the least weight vector above the
start whose branch coordinates are all non-negative.  Those coordinates of
a strict vector e are its excess vector x = e . M, where M = Pi . Pi^t has
diagonal 1 + |points proximate to a| and -1 exactly on the r - 1 edges of
the dual tree of the exceptional divisors (it is the negated intersection
matrix).  One kernel, `_repair`, unloads for `unload`, the multiplier
clusters and the jump walk: rounds that read each visited point's
excess from e on the dual tree, each visiting only the points bumped in
the last round and their dual-tree neighbours, once each (by stamps).

A binary cluster, whose free points lie on at most two chains from the
root and whose other points are all satellites, cuts out a monomial
ideal: {m X_a + n Y_a >= e_a} over its dicritical points a, with the
chains' smooth germs as the axes (Zariski).  Its curve jumping numbers
below 1 are that ideal's (Howald), read by the Newton module, which only
this route imports.  Every other cluster runs the jump walk, which
carries the completed strict vector from one jump to the next; each jump
is the least key (k + d + 1)/e . lcm(e) and raises only the points
attaining it.  Every completion and every jump walk ends with an
assertion that its result is unloaded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

from ._record import Record

TOTAL = "total"
STRICT = "strict"
BRANCH = "branch"
LOGDISC = "logdisc"


class ClusterError(ValueError):
    pass


class UnloadingError(ClusterError):
    """The unloading iteration failed to reach a fixed point."""


_MAX_ROUNDS = 100_000  # unloading rounds before UnloadingError


class BasisVector(Record):
    entries: Tuple[int, ...]
    basis: str

    def __init__(self, entries, basis: str):
        if basis not in (TOTAL, STRICT, BRANCH, LOGDISC):
            raise ClusterError(f"unknown basis {basis!r}")
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "basis", basis)


class Cluster(Record):
    """Proximity structure: parents[i] and targets[i] (points P_i is
    proximate to, parent included), indices 0-based and ordered so that
    every target precedes the point."""

    parents: Tuple[Optional[int], ...]
    targets: Tuple[Tuple[int, ...], ...]

    def __init__(self, parents, targets):
        parents = tuple(parents)
        targets = tuple(tuple(sorted(t)) for t in targets)
        if len(parents) != len(targets):
            raise ClusterError("parents and proximity lists differ in length")
        crossings = set()  # the target pairs of the satellites so far
        for i, (p, t) in enumerate(zip(parents, targets)):
            if i == 0:
                if p is not None or t:
                    raise ClusterError("the first point must be the proper point")
                continue
            if p is None:
                raise ClusterError(f"point {i}: only the first point may lack a parent")
            if not 0 <= p < i:
                raise ClusterError(f"point {i}: parent {p} does not precede it")
            if p not in t:
                raise ClusterError(f"point {i}: not proximate to its parent")
            if len(t) not in (1, 2):
                raise ClusterError(f"point {i}: proximate to {len(t)} points")
            if any(not 0 <= a < i for a in t):
                raise ClusterError(f"point {i}: proximity target out of order")
            if len(t) == 2:
                second = t[0] if t[1] == p else t[1]
                # an L-shaped branch reaches p's parent or p's own second
                # target: exactly targets[p], the root having none
                if second not in targets[p]:
                    raise ClusterError(
                        f"point {i}: satellite target {second} is not reachable "
                        "by an L-shaped branch"
                    )
                if t in crossings:
                    raise ClusterError(
                        f"point {i}: a second point on the crossing of the "
                        f"exceptional divisors of {t[0]} and {t[1]}"
                    )
                crossings.add(t)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "targets", targets)
        # adjacency read by the kernels below; plain attributes, not fields,
        # so equality, hashing, repr and serialization see only the above
        proximate: List[List[int]] = [[] for _ in parents]
        children: List[List[int]] = [[] for _ in parents]
        for b in range(1, len(parents)):
            for a in targets[b]:
                proximate[a].append(b)
            children[parents[b]].append(b)
        object.__setattr__(self, "_proximate", tuple(map(tuple, proximate)))
        object.__setattr__(self, "_children", tuple(map(tuple, children)))

    def __len__(self) -> int:
        return len(self.parents)

    @cached_property
    def _dual_tree(self):
        """The excess matrix M = Pi . Pi^t as (diag, neighbours): M[a][a] =
        diag[a] = 1 + |points proximate to a|, and M[a][b] = -1 exactly for
        b in neighbours[a].  These r - 1 pairs are the edges of the dual
        tree: each point is joined to its targets, except that a satellite
        cancels the pair of its two targets, whose proximities meet in its
        column of Pi.  Built on first use and not a field, so equality,
        hashing and serialization never see it."""
        targets = self.targets
        crossings = {t for t in targets if len(t) == 2}
        diag = [1] * len(targets)
        neighbours: List[List[int]] = [[] for _ in targets]
        for j, tj in enumerate(targets):
            for a in tj:
                diag[a] += 1
                if (a, j) not in crossings:
                    neighbours[j].append(a)
                    neighbours[a].append(j)
        assert sum(map(len, neighbours)) == 2 * max(len(targets) - 1, 0), (
            "the dual graph must have r - 1 edges"
        )
        assert diag == [1 + len(p) for p in self._proximate]
        return tuple(diag), tuple(map(tuple, neighbours))

    def proximate_to(self, alpha: int) -> List[int]:
        """Points proximate to P_alpha (they all come after it)."""
        return list(self._proximate[alpha])

    def is_free(self, alpha: int) -> bool:
        return len(self.targets[alpha]) < 2

    def second_target(self, alpha: int) -> Optional[int]:
        t = self.targets[alpha]
        if len(t) < 2:
            return None
        return t[0] if t[1] == self.parents[alpha] else t[1]

    def children(self, alpha: int) -> List[int]:
        return list(self._children[alpha])

    def restrict(self, keep: Sequence[int]) -> "Cluster":
        """Sub-cluster on the given (sorted) indices, which must be closed
        under taking proximity targets."""
        keep = sorted(keep)
        pos = {old: new for new, old in enumerate(keep)}
        for i in keep:
            for a in self.targets[i]:
                if a not in pos:
                    raise ClusterError(f"restriction drops target {a} of point {i}")
        parents = tuple(
            None if self.parents[i] is None else pos[self.parents[i]] for i in keep
        )
        targets = tuple(tuple(pos[a] for a in self.targets[i]) for i in keep)
        return Cluster(parents, targets)


EMPTY_CLUSTER = Cluster((), ())


class WeightedCluster(Record):
    cluster: Cluster
    weights: Tuple[int, ...]

    def __init__(self, cluster: Cluster, weights):
        weights = tuple(weights)
        for i, w in enumerate(weights):
            if type(w) is not int:
                raise ClusterError(f"weight {i} must be an integer, not {w!r}")
        if len(weights) != len(cluster):
            raise ClusterError("weight vector length does not match the cluster")
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "weights", weights)

    def is_empty(self) -> bool:
        return not self.weights or not any(self.weights)

    def trimmed(self) -> "WeightedCluster":
        """Drop zero-weight points that no remaining point is proximate to;
        they impose no condition on the ideal."""
        proximate = self.cluster._proximate
        kept = [False] * len(self.cluster)
        # every point proximate to i comes after it, so one reverse pass
        for i in range(len(kept) - 1, -1, -1):
            kept[i] = self.weights[i] != 0 or any(kept[b] for b in proximate[i])
        keep = [i for i, k in enumerate(kept) if k]
        if len(keep) == len(self.cluster):
            return self
        if not keep:
            return WeightedCluster(EMPTY_CLUSTER, ())
        sub = self.cluster.restrict(keep)
        return WeightedCluster(sub, tuple(self.weights[i] for i in keep))


# -- proximity matrix and exact linear algebra --------------------------------


def proximity_matrix(c: Cluster) -> Tuple[Tuple[int, ...], ...]:
    r = len(c)
    rows = [[0] * r for _ in range(r)]
    for a in range(r):
        rows[a][a] = 1
    for b in range(r):
        for a in c.targets[b]:
            rows[a][b] = -1
    return tuple(tuple(row) for row in rows)


# -- basis changes -------------------------------------------------------------


def _total_from_strict(c: Cluster, e: Sequence[int]) -> List[int]:
    return [e[b] - sum(e[g] for g in c.targets[b]) for b in range(len(c))]


def _strict_from_total(c: Cluster, w: Sequence[int]) -> List[int]:
    e: List[int] = []
    for ea, targets in zip(w, c.targets):
        for g in targets:
            ea += e[g]
        e.append(ea)
    return e


def _branch_from_total(c: Cluster, w: Sequence[int]) -> List[int]:
    return [w[a] - sum(w[b] for b in c._proximate[a]) for a in range(len(c))]


def _total_from_branch(c: Cluster, b: Sequence[int]) -> List[int]:
    w = [0] * len(c)
    for a in range(len(c) - 1, -1, -1):
        w[a] = b[a] + sum(w[x] for x in c._proximate[a])
    return w


def change_basis(v: BasisVector, target: str, c: Cluster) -> BasisVector:
    """Exact basis change among total / strict / branch coordinates."""
    if v.basis == LOGDISC or target == LOGDISC:
        raise ClusterError("log-discrepancy vectors are produced, not converted")
    if len(v.entries) != len(c):
        raise ClusterError("vector length does not match the cluster")
    if v.basis == target:
        return v
    to_total = {
        TOTAL: lambda x: list(x),
        STRICT: lambda x: _total_from_strict(c, x),
        BRANCH: lambda x: _total_from_branch(c, x),
    }
    from_total = {
        TOTAL: lambda x: list(x),
        STRICT: lambda x: _strict_from_total(c, x),
        BRANCH: lambda x: _branch_from_total(c, x),
    }
    w = to_total[v.basis](v.entries)
    return BasisVector(from_total[target](w), target)


def log_discrepancies(c: Cluster) -> BasisVector:
    """Coefficients of the relative canonical divisor on the strict
    transforms: k_alpha = 1 + sum of k over the points P_alpha is proximate
    to; equivalently k . Pi = (1, ..., 1)."""
    return BasisVector(_strict_from_total(c, [1] * len(c)), LOGDISC)


def pi_inverse(c: Cluster) -> Tuple[Tuple[int, ...], ...]:
    """Inverse of the proximity matrix (unipotent, entrywise >= 0); row i
    is the strict vector of the total transform of E_i."""
    r = len(c)
    return tuple(
        tuple(_strict_from_total(c, [int(j == i) for j in range(r)]))
        for i in range(r)
    )


def intersection_inverse(c: Cluster) -> Tuple[Tuple[int, ...], ...]:
    """(Pi . Pi^t)^{-1}; entry (alpha, beta) is the strict-basis coordinate
    e_beta of the branch divisor B_alpha."""
    r = len(c)
    units = ([int(j == a) for j in range(r)] for a in range(r))
    return tuple(
        tuple(_strict_from_total(c, _total_from_branch(c, u))) for u in units
    )


# -- unloading ------------------------------------------------------------------


def is_unloaded(kl: WeightedCluster) -> bool:
    """True iff the weights satisfy every proximity inequality
    (equivalently, the branch coordinates are all non-negative)."""
    b = _branch_from_total(kl.cluster, kl.weights)
    return all(x >= 0 for x in b)


def unload(kl: WeightedCluster) -> WeightedCluster:
    """Least unloaded weights above the given ones: the fixed point of the
    unloading procedure, which does not depend on the order of its steps.

    Runs on the completion kernel with the strict coordinates of the
    weights as demand.  The clamp to non-negative strict coordinates there
    changes nothing, since every vector with non-negative branch
    coordinates is non-negative in the strict basis.
    """
    c = kl.cluster
    e = _complete_strict(c, _strict_from_total(c, kl.weights))
    return WeightedCluster(c, _total_from_strict(c, e))


def _complete_strict(c: Cluster, demand: Sequence[int]) -> List[int]:
    """Least non-negative strict vector e >= demand whose branch coordinates
    are non-negative: the strict coordinates of the complete ideal with the
    demanded valuations.  A known lower bound for the result (e.g. the
    result at a smaller demand) can be folded into the demand as a warm
    start.

    Repairs with every point dirty (see `_repair`), and asserts that the
    result is unloaded.
    """
    e = [max(d, 0) for d in demand]
    _repair(c, e, list(range(len(c))))
    assert is_unloaded(WeightedCluster(c, _total_from_strict(c, e))), (
        "the completion left a negative excess"
    )
    return e


def _repair(c: Cluster, e: List[int], dirty: List[int]) -> None:
    """Unload e in place when only the points in `dirty` may have a
    negative excess.

    Unloading in rounds on the dual tree.  A round visits its points in
    turn, reads the excess of a from e as diag[a] * e[a] minus the sum of
    e over the dual-tree neighbours of a, and raises a violated e[a] by
    the least amount t that repairs it on its own.  That bump lowers the
    excess of each neighbour by t and of no other point, so the bumped
    points and their neighbours, stamped with the round's number as they
    first come up, make up the next round.  The order of the bumps does
    not matter, since unloading has one least fixed point.
    """
    diag, neighbours = c._dual_tree
    stamp = [0] * len(e)  # the last round each point joined
    for rnd in range(1, _MAX_ROUNDS + 1):
        if not dirty:
            return
        next_round: List[int] = []  # the bumped points and their neighbours
        for a in dirty:
            around = neighbours[a]
            xa = diag[a] * e[a]
            for b in around:
                xa -= e[b]
            if xa < 0:
                da = diag[a]
                e[a] += (da - 1 - xa) // da
                if stamp[a] != rnd:
                    stamp[a] = rnd
                    next_round.append(a)
                for b in around:
                    if stamp[b] != rnd:
                        stamp[b] = rnd
                        next_round.append(b)
        dirty = next_round
    raise UnloadingError("completion did not stabilize")


def _demand(e: Sequence[int], k: Sequence[int], n: int, m: int) -> List[int]:
    """Strict coordinates floor(xi * e_a) - k_a demanded by the multiplier
    ideal at xi = n/m, m > 0."""
    return [n * ea // m - ka for ea, ka in zip(e, k)]


# -- binary clusters and their monomial ideals --------------------------------------


def _free_path(c: Cluster) -> List[bool]:
    """Whether each point and all its ancestors are free points."""
    out = [False] * len(c)
    for v, (p, t) in enumerate(zip(c.parents, c.targets)):
        out[v] = len(t) < 2 and (p is None or out[p])
    return out


def _nondegenerate(c: Cluster) -> List[bool]:
    """Whether each point lies in the non-degenerate part of the cluster: a
    free point behind a satellite is cut, and so is everything below a cut
    point; the kept points are closed under taking ancestors."""
    free_path = _free_path(c)
    keep = [False] * len(c)
    for v, (p, t) in enumerate(zip(c.parents, c.targets)):
        keep[v] = (p is None or keep[p]) and (free_path[v] or len(t) == 2)
    return keep


def _binary_witness(c: Cluster) -> Optional[Tuple[str, int]]:
    """None for a binary cluster, else the first rule it breaks and a point
    breaking it: 'degenerate_free_vertex' (the first point cut from the
    non-degenerate part, a free one), 'outdegree' (three or more children)
    or 'two_proximate_free' (a non-root point with two free children).  So
    the free points of a binary cluster form at most two chains from the
    root, and every other point is a satellite."""
    cut = next((v for v, kept in enumerate(_nondegenerate(c)) if not kept), None)
    if cut is not None:
        return ("degenerate_free_vertex", cut)
    targets = c.targets
    for v, kids in enumerate(c._children):
        if len(kids) > 2:
            return ("outdegree", v)
        if v and sum(len(targets[k]) < 2 for k in kids) > 1:
            return ("two_proximate_free", v)
    return None


def _valuation_vectors(c: Cluster, w: Sequence[int], free_path: Sequence[bool]):
    """What the monomial ideal of a binary cluster reads off the cluster:
    e, the strict vector of the weights w; `along`, that of the smooth germ
    through every free point on a root path; `across`, that of a smooth
    germ through the root alone; and `under`, the root child each point
    lies under (0 for the root).  A strict coordinate reads only the
    point's ancestors, so under the root chain on the y-axis (x = 0) the
    valuations of x and y are (along, across), and under the x-axis chain
    (across, along)."""
    e = _strict_from_total(c, w)
    along = _strict_from_total(c, [int(f) for f in free_path])
    across = _strict_from_total(c, [int(v == 0) for v in range(len(c))])
    under = list(range(len(c)))
    for v in range(1, len(c)):
        if c.parents[v]:
            under[v] = under[c.parents[v]]
    return e, along, across, under


def _dicritical(c: Cluster, w: Sequence[int], keep: Sequence[int]) -> Optional[List[int]]:
    """The dicritical points of the sub-cluster on keep, a point set closed
    under proximity: those with a positive branch coordinate there.  None if
    a branch coordinate there is negative (the weights are not unloaded)."""
    branch = {a: w[a] for a in keep}
    for q in keep:
        for a in c.targets[q]:
            branch[a] -= w[q]
    if any(b < 0 for b in branch.values()):
        return None
    return [a for a, b in branch.items() if b > 0]


def _valuation_points(vectors, dicritical: Sequence[int], on_x) -> List[Tuple[int, int, int]]:
    """Zariski's valuation ideal of a binary cluster, {m X_a + n Y_a >=
    e_a} over its dicritical points a, as the triples (X_a, Y_a, e_a): the
    root chain under the root child on_x lies on the x-axis, any other on
    the y-axis (`_valuation_vectors`)."""
    e, along, across, under = vectors
    return [
        (across[a], along[a], e[a]) if under[a] == on_x else (along[a], across[a], e[a])
        for a in dicritical
    ]


def _valuation_rows(points: Sequence[Tuple[int, int, int]]) -> List[int]:
    """The staircase of the ideal {m X_a + n Y_a >= e_a} by rows: row n is
    the least m meeting every point, read up to row e_a / Y_a at each."""
    rows: List[int] = []
    for xa, ya, ea in points:
        own = [-((j * ya - ea) // xa) for j in range(-(-ea // ya))]
        if len(own) > len(rows):
            rows, own = own, rows
        rows[: len(own)] = map(max, rows, own)
    return rows


# -- invariants of curve clusters ------------------------------------------------


def _thresholds(c: Cluster, w: Sequence[int], e: Sequence[int]) -> List[Fraction]:
    """The value (k+1)/e at each point of a cluster with non-empty unloaded
    weights w of strict vector e; the least of them is its log-canonical
    threshold."""
    if not any(w):
        raise ClusterError("log-canonical threshold needs a non-empty cluster")
    if min(_branch_from_total(c, w)) < 0:
        raise ClusterError(
            "weights violate a proximity relation; unload the cluster first"
        )
    k = log_discrepancies(c).entries
    return [Fraction(ka + 1, ea) for ka, ea in zip(k, e)]


def lct_cluster(kl: WeightedCluster) -> Tuple[Fraction, Tuple[int, ...]]:
    """Log-canonical threshold min (k+1)/e of an unloaded weighted cluster,
    together with all indices attaining the minimum."""
    values = _thresholds(kl.cluster, kl.weights, _strict_from_total(kl.cluster, kl.weights))
    best = min(values)
    return best, tuple(a for a, v in enumerate(values) if v == best)


def multiplier_cluster(kl: WeightedCluster, xi: Fraction) -> WeightedCluster:
    """Unloaded cluster of the multiplier ideal of xi times the curve whose
    minimal log resolution has this weighted cluster; valid for 0 < xi < 1.

    The demanded strict coordinates are floor(xi * e) - k; intermediate
    weights may be negative, and the completion runs to the unique fixed
    point with non-negative weights and excesses.
    """
    xi = Fraction(xi)
    if not 0 < xi < 1:
        raise ClusterError("the curve multiplier cluster is defined for 0 < xi < 1")
    if not is_unloaded(kl):
        raise ClusterError("curve cluster must satisfy the proximity relations")
    c = kl.cluster
    e = _strict_from_total(c, kl.weights)
    k = log_discrepancies(c).entries
    completed = _complete_strict(c, _demand(e, k, xi.numerator, xi.denominator))
    return WeightedCluster(c, _total_from_strict(c, completed))


def jumping_numbers_curve(kl: WeightedCluster, bound: Fraction) -> List[Fraction]:
    """Jumping numbers of the curve divisor in (0, bound], bound <= 1;
    the integer jump at 1 (the strict transform's contribution) is excluded.

    A binary cluster reads them off a monomial ideal by Howald's formula
    (`_howald_jumps`).  Every other cluster takes the jump walk
    (`_jump_walk`), and so does a binary one whose ideal would make the
    monomial scan read more than `newton.MAX_LATTICE_POINTS` lattice points,
    which is decided before the scan starts.  The monomial route is exact:

    1. For 0 < xi < 1, J(f^xi) = pi_* O(K_pi - floor(xi sum_a e_a E_a)) on
       the blowup pi of the cluster, since the strict transform of f enters
       with coefficient floor(xi) = 0; so it depends only on the weighted
       cluster.  The walk rests on this too (Alberich-Carramiñana, Àlvarez
       Montaner and Dachs-Cadefau, Michigan Math. J. 2016).
    2. The same sheaf is J(I_K^xi) for the complete ideal I_K of the
       unloaded cluster K, because blowing up K principalizes I_K to
       O(-sum_a e_a E_a) (Lipman, "Rational singularities...", Publ. Math.
       IHÉS 36, 1969; Casas-Alvero, "Singularities of Plane Curves", 2000,
       ch. 8).  So f and I_K have the same jumping numbers below 1.
    3. In a binary cluster the free points form at most two chains from
       the root, and every other point is a satellite.  Take the smooth
       germs through the two chains as the axes.  Then every point of K is
       fixed by the torus, so I_K is monomial: Zariski's valuation ideal
       {m X_a + n Y_a >= e_a} over the dicritical points a, X and Y the
       strict vectors of the axes (`_valuation_points`).  Which chain lies
       on which axis does not matter: the jumps are symmetric in x <-> y.
    4. Howald gives the jumping numbers of a monomial ideal ("Multiplier
       ideals of monomial ideals", Trans. AMS 353, 2001;
       `newton.jumping_numbers_monomial`), and those below 1 are f's.
    """
    bound = Fraction(bound)
    if bound > 1:
        raise ClusterError("curve jumping numbers are only computed up to 1")
    if bound <= 0:
        raise ClusterError("bound must be positive")
    if not is_unloaded(kl):
        raise ClusterError("curve cluster must satisfy the proximity relations")
    if kl.is_empty():  # no points, or the zero divisor
        return []
    jumps = _howald_jumps(kl, bound)
    return _jump_walk(kl, bound) if jumps is None else jumps


def _howald_jumps(kl: WeightedCluster, bound: Fraction) -> Optional[List[Fraction]]:
    """The jumping numbers in (0, bound] of a non-empty unloaded binary
    cluster, read off its monomial ideal with one root chain on the
    x-axis; None for a cluster that is not binary or whose ideal's scan
    would pass `newton.MAX_LATTICE_POINTS`.  The ideal's top exponents are
    the least m with m X_a >= e_a and the least n with n Y_a >= e_a at
    every dicritical point, so the scan is sized before the ideal is
    built."""
    c, w = kl.cluster, kl.weights
    if _binary_witness(c) is not None:
        return None
    from . import newton  # only this route reads monomial ideals

    vectors = _valuation_vectors(c, w, _free_path(c))
    on_x = c._children[0][0] if c._children[0] else None
    points = _valuation_points(vectors, _dicritical(c, w, range(len(c))), on_x)
    m_top = max(-(-ea // xa) for xa, _, ea in points)
    n_top = max(-(-ea // ya) for _, ya, ea in points)
    if newton._scan_size(m_top, n_top, bound) > newton.MAX_LATTICE_POINTS:
        return None
    rows = _valuation_rows(points)  # non-increasing
    ideal = newton.MonomialIdeal([*zip(rows, range(len(rows))), (0, len(rows))])
    assert ideal.max_exponents() == (m_top, n_top), "the scan was sized on other exponents"
    jumps = newton.jumping_numbers_monomial(ideal, bound)
    if jumps and jumps[-1] == 1:  # the ideal's jump at 1 is not the curve's
        jumps.pop()
    return jumps


def _jump_walk(kl: WeightedCluster, bound: Fraction) -> List[Fraction]:
    """The jumping numbers in (0, bound] of a non-empty unloaded weighted
    cluster, 0 < bound <= 1, one at a time.

    Next-jump iteration (Alberich-Carramiñana, Àlvarez Montaner and
    Dachs-Cadefau, "Multiplier ideals in two-dimensional local rings with
    rational singularities", Michigan Math. J. 2016).  Let d be the
    completed strict vector of the multiplier ideal at the last jump (d = 0
    for the trivial ideal).  The demand floor(xi * e_a) - k_a stays <= d_a
    exactly while xi < (k_a + d_a + 1) / e_a, so the multiplier cluster is
    constant up to xi = min_a (k_a + d_a + 1) / e_a and changes there: that
    value is the next jump, and no jump lies before it.

    At xi = n/m the demand exceeds d only at the points attaining the
    minimum, and there by exactly 1.  So d is carried from jump to jump:
    each jump raises d by one at those points, which lowers the excesses of
    their dual-tree neighbours alone, and repairs with only the neighbours
    dirty.  The walk ends by asserting that d is unloaded.  Every e_a >=
    e_0 >= 1, so the values are compared as integer keys over L = lcm(e),
    (k_a + d_a + 1) * (L // e_a), and each jump builds one `Fraction`.
    """
    c = kl.cluster
    e = _strict_from_total(c, kl.weights)
    k1 = [ka + 1 for ka in log_discrepancies(c).entries]
    common = lcm(*e)
    scale = [common // ea for ea in e]
    neighbours = c._dual_tree[1]
    jumps: List[Fraction] = []
    d = [0] * len(c)
    while True:
        # (k_a + d_a + 1) / e_a = keys[a] / common; the least key is the jump
        keys = list(map(mul, map(add, k1, d), scale))
        m = min(keys)
        if m * bound.denominator > bound.numerator * common or m >= common:
            assert is_unloaded(WeightedCluster(c, _total_from_strict(c, d))), (
                "the jumps left a negative excess"
            )
            return jumps
        jumps.append(Fraction(m, common))
        # the demand floor(xi * e_a) - k_a is d_a + 1 where the minimum is
        # attained and at most d_a elsewhere, so max(demand, d) raises d by
        # one at those points alone: the multiplier cluster changes at xi by
        # construction, and only their neighbours' excesses drop
        dirty: List[int] = []
        for a, key in enumerate(keys):
            if key == m:
                d[a] += 1
                dirty += neighbours[a]
        _repair(c, d, dirty)
