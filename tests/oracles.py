"""Independent brute-force oracles used to freeze expected values.

Everything here avoids the library's facet machinery: membership in the
Newton polyhedron is decided by exhibiting a convex combination of two
generators dominated by the point (Caratheodory in the plane, plus the
recession orthant), with exact Fraction arithmetic throughout.

`integral_closure_by_facets`, `lct_monomial_by_facets`,
`howald_multiplier_by_facets` and `jumping_numbers_monomial_by_box_scan`
are the earlier forms of the Newton-function kernel of `newton`: one
Fraction support value per facet, and per point of a box for the jumps.
The lct and the jumps there require a pure power of each variable.  They
and `jumping_numbers` read their facets off `newton_facets_by_hull`, the
earlier body of `newton_facets` with its own hull loop, which drops
collinear points where the library merges the collinear segments of
`poly._boundary`.

`complete_strict_by_sweeps` is the earlier form of the completion kernel
`cluster._complete_strict`: every sweep visits every point, and the whole
total vector is recomputed after each one.

`complete_strict_by_dirty_points` is the next form of that kernel: sweeps
that revisit only the points whose excess a bump may have lowered, with the
excess of each visited point summed afresh over the points proximate to it.
`curve_jumps_by_warm_completions` is the next-jump loop that drove it: each
jump rebuilds the demand and completes it, warm-started from the last one.

`complete_strict_by_excess_vector` and `curve_jumps_by_excess_vector` are
the form after that: rounds on the dual tree that keep the excess vector
x = e . M, updated at each bump and checked against `excess` for every
entry a round writes and for the whole vector at the end, with the jump
loop carrying x from jump to jump and repairing only around the points it
raised.  The library reads each visited point's excess from e instead, and
asserts once per completion and once per jump walk that the result is
unloaded.

`repair_by_round_lists` is the earlier body of `cluster._repair`: the same
rounds, each next round deduplicated by rebuilding it with `dict.fromkeys`
where the library stamps each point with the round it joined.  It returns
its round count, the least `_MAX_ROUNDS` it succeeds under.

`curve_jumps_by_candidate_scan` is the reference for the next-jump
iteration of `jumping_numbers_curve`: it tests every candidate (k+j)/e,
comparing completions just below and at it, and asserts that the
multiplier cluster never changes between candidates.

`unload_by_unit_steps`, `dense_pi_inverse`, `dense_intersection_inverse`
and `trimmed_by_fixed_point_loop` are the earlier step-by-step forms of
`unload`, the two matrix inverses and `WeightedCluster.trimmed`.

`tree_to_cluster_by_scan` and `subtree_flavor_by_scan` are the earlier
forms of `EnriquesTree.cluster` and of the free-chain flavor of a root
child, which find children and L-branch targets by scanning the parent list.

`t_pq_by_euclid` is the earlier body of `enriques.t_pq`: it builds and
validates a new tree on every call, where the library shares one tree per
(p, q, mirror) between calls.

`tree_key_by_recursion`, `union_by_recursion` and `glue_at_root_by_recursion`
are recursive forms of the nested canonical key behind tree and diagram
equality, of `union` (root chains matched by the axis `root_axes_by_scan`
reads) and of its root gluing, the union of a diagram whose only root chain
lies on the y-axis with one whose only root chain lies on the x-axis: one
Python frame per tree level, where the library walks one loop, so they
overflow the interpreter's stack on deep chains.

`diagram_to_staircase_by_recursion` is the slice-sum form of the dictionary
from binary diagrams to monomial ideals, one frame per tree level: the
staircase of a root of weight c is (triangle(c) +v S(Z1)) +h S(Z2), Z1 and
Z2 the subschemes on the y- and x-axis sides.  It is the oracle of the
library's valuation rule, `enriques._valuations`, which reads the ideal as
{m X_a + n Y_a >= e_a} at the dicritical points for `diagram_to_staircase`
and for the adapted candidates alike.

`path_checks_by_restriction` is the earlier form of the path checks of
`check_main_theorem`: for each root-to-leaf path through a witness, from
`path_to_leaf_through_by_recursion`, it restricts the diagram to the path
and to the path's non-degenerate part and runs `lct_cluster` on each, where
the library takes least values of the curve's own cluster along the path.

`adapted_candidates_by_subdiagram` is the earlier form of
`engine.adapted_candidates`: for each candidate it builds the sub-diagram's
cluster and Enriques tree, classifies it, checks that it is unloaded, and
reads the staircase by the slice sums of `diagram_to_staircase_by_recursion`
and the threshold from its Newton polygon by `lct_monomial`, where the
library reads both off the valuations of the curve's own cluster at the
candidate's dicritical points.

`resolve_curve_by_recursion` is the earlier form of `resolve_curve`: two
mutually recursive closures, two Python frames per infinitely near point.
`resolve_curve_by_blowups` is the next form, one worklist that carries
every point's whole strict transform through the charts and shifts, with
the exact `smooth_measure` and `needs_blowup` tests; the library carries
each equation only modulo the monomial ideal its decisions cannot read.
`resolve_cluster_by_charts` and `resolve_at_by_charts` are the form before
the library's walk on the Newton boundary: every point carries its cut
equation as a polynomial, and its children are built by
`charts_by_shear_then_cut` (equal to the library's earlier `_charts`), the
whole x-chart shear then a cut per child.  `mapped_by_shear_then_cut`
replays a composed chart map of the walk one chart at a time on whole
equations, then cuts.

`require_reduced_by_sympy` and `tangent_roots_by_sympy` are the earlier
sympy forms of the reducedness check and of the tangent-cone roots of
`resolution`; sympy is imported inside them, so only the tests need it.

`SparseFractionPolynomial` is the earlier layout of `BivariatePolynomial`,
without its parser: a dict from (m, n) to a `Fraction` per term, with the
arithmetic, the charts and `shift_y` done term by term.

`blowup_x_chart_by_terms`, `leading_form_by_terms` and
`x_axis_order_by_support` are the earlier term-stream forms of the x-chart,
the tangent cone and the order of f(x, 0), where the library reads the
integer rows; `smooth_measure` reads its axis orders the same way.
`rational_roots_by_yun_sturm` is `poly.rational_roots` without its test
for a single root of full multiplicity, c (t - r)^k.

`shift_y_by_horner` is an earlier body of `BivariatePolynomial.shift_y`
on the integer rows: one Horner step per power of y, multiplying the
whole accumulated row by b y + a, where the library shifts each scaled
row by synthetic division.

`minimal_antichain_by_scan` and `staircase_slices_by_min` are the earlier
bodies of the staircase pass `poly._antichain` and of `Staircase.slices`,
which compare each point with every kept one and take a minimum per row.

`mul_by_row_pairs` is the earlier level-1 branch of `poly._mul`: one level-0
product and one `_add` per pair of rows.  `parse_by_char_scan` is the
earlier parser: it scans whitespace and digits one character at a time with
`str.isspace` and `str.isdigit`, builds its leaves with `monomial`, seeds
each power with the unit, takes a difference as self + (-other) and
multiplies by `mul_by_row_pairs`.  It bounds the coefficients by the
earlier rule, independent of the library's: each polynomial carries a bound
on its numerators through every sum, product and power, with the
denominators and term counts read from the `Fraction` terms, and a sum or
product is read exactly only when its bound reaches 10^MAX_DIGITS, a power
only when the bound raised (without the library's bit-length shortcut)
does.  The library reads every sum and product it builds and each power's
base instead, so on every string the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import ceil, gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from singular_lct.cluster import (
    _MAX_ROUNDS,
    EMPTY_CLUSTER,
    Cluster,
    ClusterError,
    UnloadingError,
    WeightedCluster,
    _demand,
    _free_path,
    _strict_from_total,
    _total_from_strict,
    is_unloaded,
    lct_cluster,
    log_discrepancies,
    proximity_matrix,
)
from singular_lct.engine import AdaptedCandidate, PathCheck, nondegenerate_part
from singular_lct.enriques import (
    _KIND_RANK,
    HORIZONTAL,
    SLANT,
    VERTICAL,
    EnriquesDiagram,
    EnriquesError,
    EnriquesTree,
    OrientationError,
    _opposite,
    classify,
    cluster_to_tree,
    euclid_data,
)
from singular_lct.newton import (
    InfiniteStaircaseError,
    MonomialIdeal,
    MonomialIdealError,
    NewtonFacet,
    Point,
    Staircase,
    UnitIdealError,
    lct_monomial,
    staircase_sum,
    triangle,
)
from singular_lct.poly import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_DEGREE,
    BivariatePolynomial,
    ParseError,
    PolynomialError,
    Term,
    _add,
    _extent,
    _icontent,
    _iquo,
    _poly,
    _poly_from,
    _quo,
    _ratio,
    _squarefree_parts,
    _sturm_rational_roots,
    _trim,
)
from singular_lct import resolution
from singular_lct.resolution import (
    NonRationalTangentError,
    NonReducedError,
    ResolutionError,
    _Imprecise,
    _require_reduced,
    _tangent_roots,
    _x_order,
)


def _feasible(gens, point, strict):
    """Is there g in conv(gens) with g <= point (or g < point if strict)?"""
    px, py = point
    for g in gens:
        for h in gens:
            lo, hi = Fraction(0), Fraction(1)
            lo_open = hi_open = False
            ok = True
            for gc, hc, pc in ((g[0], h[0], px), (g[1], h[1], py)):
                a, b = Fraction(gc) - Fraction(hc), Fraction(pc) - Fraction(hc)
                if a == 0:
                    if (b <= 0) if strict else (b < 0):
                        ok = False
                        break
                elif a > 0:
                    bound = b / a
                    if bound < hi or (bound == hi and strict and not hi_open):
                        hi, hi_open = bound, strict
                else:
                    bound = b / a
                    if bound > lo or (bound == lo and strict and not lo_open):
                        lo, lo_open = bound, strict
            if not ok:
                continue
            if lo < hi or (lo == hi and not lo_open and not hi_open):
                return True
    return False


def in_polyhedron(gens, point) -> bool:
    """point lies in conv(gens) + R_{>=0}^2."""
    return _feasible(gens, point, strict=False)


def in_interior(gens, point) -> bool:
    """point lies in the topological interior of conv(gens) + R_{>=0}^2."""
    return _feasible(gens, point, strict=True)


def minimal_points(points):
    pts = sorted(set(points))
    keep = []
    for p in pts:
        if not any(q[0] <= p[0] and q[1] <= p[1] for q in keep):
            keep = [q for q in keep if not (p[0] <= q[0] and p[1] <= q[1])]
            keep.append(p)
    return sorted(keep)


def closure_gens(gens):
    """Minimal lattice points of the Newton polyhedron, by enumeration."""
    mx = max(m for m, _ in gens)
    my = max(n for _, n in gens)
    inside = [
        (m, n)
        for m in range(mx + 1)
        for n in range(my + 1)
        if in_polyhedron(gens, (m, n))
    ]
    return minimal_points(inside)


def multiplier_gens(gens, xi):
    """Generators of the multiplier ideal at xi, by strict-interior scan."""
    xi = Fraction(xi)
    scaled = [(xi * m, xi * n) for m, n in gens]
    mx = ceil(xi * max(m for m, _ in gens)) + 2
    my = ceil(xi * max(n for _, n in gens)) + 2
    inside = [
        (m, n)
        for m in range(mx + 1)
        for n in range(my + 1)
        if in_interior(scaled, (m + 1, n + 1))
    ]
    return minimal_points(inside)


def jumping_numbers(gens, bound):
    """Jumping numbers by filtering candidate values through actual change
    of the multiplier ideal (evaluated just below and at each candidate).
    The candidates are the facet support values at v + (1,1) over a box,
    plus k/m_min and k/n_min for the unbounded faces off the axes."""
    bound = Fraction(bound)
    facets = newton_facets_by_hull(MonomialIdeal(gens))
    m_min, n_min = MonomialIdeal(gens).min_exponents()
    mx = max(max(m for m, _ in gens), max(n for _, n in gens))
    size = mx + ceil(bound * mx)
    candidates = set()
    for m in range(size + 1):
        for n in range(size + 1):
            for f in facets:
                value = f.support(m + 1, n + 1)
                if value <= bound:
                    candidates.add(value)
    for low in (m_min, n_min):
        if low:
            candidates.update(Fraction(k, low) for k in range(1, int(bound * low) + 1))
    jumps = []
    previous = None
    for xi in sorted(candidates):
        here = multiplier_gens(gens, xi)
        below = multiplier_gens(gens, (previous + xi) / 2 if previous else xi / 2)
        if here != below:
            jumps.append(xi)
        previous = xi
    return jumps


def newton_facets_by_hull(a: MonomialIdeal) -> List[NewtonFacet]:
    """Compact facets of Newt(a), steepest slope first: the edges of the
    lower-left hull of the generators (m ascending, so n descending)."""
    verts: List[Point] = []
    for p in a.generators:
        while len(verts) >= 2:
            (ax, ay), (bx, by) = verts[-2], verts[-1]
            if (bx - ax) * (p[1] - ay) > (by - ay) * (p[0] - ax):
                break
            verts.pop()  # non-convex or collinear: drop the middle point
        verts.append(p)
    facets = []
    for (m0, n0), (m1, n1) in zip(verts, verts[1:]):
        dm, dn = m1 - m0, n0 - n1
        d = gcd(dm, dn)
        facets.append(NewtonFacet(p=dm // d, q=dn // d, d=d, start=(m0, n0), end=(m1, n1)))
    return facets


class CosupportError(MonomialIdealError):
    """The ideal's cosupport is not the origin (no pure power on an axis)."""


def integral_closure_by_facets(a: MonomialIdeal) -> MonomialIdeal:
    """Minimal generators of the monomials lying in Newt(a)."""
    facets = newton_facets_by_hull(a)
    m_min, n_min = a.min_exponents()
    n_top = max(n for _, n in a.generators)

    def row_start(n: int) -> int:
        m = m_min
        for f in facets:
            # least m with q*m + p*n >= level
            need = f.level - f.p * n
            if need > 0:
                m = max(m, -(-need // f.q))
        return m

    gens = []
    prev = None
    for n in range(n_min, n_top + 1):
        m = row_start(n)
        if prev is None or m < prev:
            gens.append((m, n))
            prev = m
    return MonomialIdeal(gens)


def lct_monomial_by_facets(a: MonomialIdeal) -> Fraction:
    """Log-canonical threshold of a monomial ideal with 0-dimensional
    cosupport: the minimum of the facet support functions at (1, 1)."""
    if a.is_unit():
        raise UnitIdealError("the unit ideal has no log-canonical threshold")
    if a.min_exponents() != (0, 0):
        raise CosupportError(
            f"cosupport of {a} is not the origin; a pure power of each "
            "variable is required"
        )
    return min(f.support(1, 1) for f in newton_facets_by_hull(a))


def howald_multiplier_by_facets(a: MonomialIdeal, xi: Fraction) -> MonomialIdeal:
    """Multiplier ideal of xi * a: monomials v with v + (1,1) in the strict
    interior of xi * Newt(a).  Boundary points are excluded, which makes the
    threshold itself a jumping number."""
    xi = Fraction(xi)
    if xi <= 0:
        raise MonomialIdealError("scaling factor must be positive")
    num, den = xi.numerator, xi.denominator
    facets = newton_facets_by_hull(a)
    m_min, n_min = a.min_exponents()

    # strict inequalities, integer cross-multiplied:
    #   den*(m+1) > num*m_min,   den*(n+1) > num*n_min,
    #   den*(q*(m+1) + p*(n+1)) > num*level        for every facet
    n_floor = (num * n_min) // den  # least n with den*(n+1) > num*n_min
    m_floor = (num * m_min) // den

    def row_start(n: int) -> int:
        m1 = m_floor + 1  # minimal m+1 from the vertical constraint
        for f in facets:
            rhs = num * f.level - den * f.p * (n + 1)
            if rhs >= 0:
                m1 = max(m1, rhs // (den * f.q) + 1)
        return m1 - 1

    gens = []
    prev = None
    n = n_floor
    while True:
        m = row_start(n)
        if prev is None or m < prev:
            gens.append((m, n))
            prev = m
        if m == m_floor:  # the vertical-ray bound: rows stay here forever
            break
        n += 1
    return MonomialIdeal(gens)


def jumping_numbers_monomial_by_box_scan(a: MonomialIdeal, bound: Fraction) -> List[Fraction]:
    """All jumping numbers of the monomial ideal up to and including bound.

    Candidates are the values g(v + (1,1)) of the facet support functions
    over lattice points v of a bounding box; the membership threshold of v
    is the minimum over the facets, and the multiplier ideal strictly
    shrinks exactly when some threshold is attained (monomial membership is
    monotone in xi), so the attained minima are precisely the jumps.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise MonomialIdealError("bound must be positive")
    if a.is_unit():
        raise UnitIdealError("the unit ideal has no jumping numbers")
    if a.min_exponents() != (0, 0):
        raise CosupportError(f"cosupport of {a} is not the origin")
    facets = newton_facets_by_hull(a)
    max_exp = max(a.max_exponents())
    size = max_exp + ceil(bound * max_exp)
    jumps = set()
    for m in range(size + 1):
        for n in range(size + 1):
            xi = min(f.support(m + 1, n + 1) for f in facets)
            if xi <= bound:
                jumps.add(xi)
    return sorted(jumps)


def staircase_slices_from_valuations(x_vals, y_vals, e_vals):
    """Row widths of the monomial ideal {m*X + n*Y >= e componentwise}."""
    rows = []
    j = 0
    while True:
        width = 0
        for X, Y, e in zip(x_vals, y_vals, e_vals):
            need = e - j * Y
            if need > 0:
                width = max(width, -(-need // X))
        if width == 0:
            break
        rows.append(width)
        j += 1
    return tuple(rows)


def complete_strict_by_sweeps(
    c: Cluster, demand: Sequence[int], warm: Optional[Sequence[int]] = None
) -> List[int]:
    """Least non-negative strict vector e >= demand whose branch coordinates
    are non-negative: the strict coordinates of the complete ideal with the
    demanded valuations.  Batched unloading: each sweep raises every
    violated e[a] by the least amount that repairs it on its own.  `warm`
    may give a known lower bound for the fixed point (e.g. the result at a
    smaller scale)."""
    r = len(c)
    e = [max(d, 0) for d in demand]
    if warm is not None:
        e = [max(a, b) for a, b in zip(e, warm)]
    prox_to = c._proximate
    diag = [1 + len(p) for p in prox_to]
    w = _total_from_strict(c, e)
    for _ in range(100_000):
        clean = True
        for a in range(r):
            excess = w[a] - sum(w[b] for b in prox_to[a])
            if excess < 0:
                # each unit added to e[a] raises the excess by diag[a]
                t = (-excess + diag[a] - 1) // diag[a]
                e[a] += t
                # keep w consistent with the bump
                w[a] += t
                for b in prox_to[a]:
                    w[b] -= t
                clean = False
        if clean:
            return e
        assert w == _total_from_strict(c, e), (
            "unloading bumps must add whole strict transforms"
        )
    raise UnloadingError("completion did not stabilize")


def complete_strict_by_dirty_points(
    c: Cluster, demand: Sequence[int], warm: Optional[Sequence[int]] = None
) -> List[int]:
    """Least non-negative strict vector e >= demand whose branch coordinates
    are non-negative: the strict coordinates of the complete ideal with the
    demanded valuations.  `warm` may give a known lower bound for the fixed
    point (e.g. the result at a smaller scale).

    Batched unloading over dirty points.  Sweeps run in index order, and a
    violated e[a] is raised by the least amount that repairs it on its own.
    Raising e[a] lowers only the excesses of the points proximate to a,
    which come later and join the current sweep, and of the targets of a,
    which come earlier and wait for the next one; every other excess stays
    or grows.  So a sweep visits just the points whose excess may have
    dropped, and makes the same bumps in the same order as a sweep over
    every point.  The first sweep visits every point.
    """
    r = len(c)
    e = [max(d, 0) for d in demand]
    if warm is not None:
        e = [max(a, b) for a, b in zip(e, warm)]
    prox_to = c._proximate
    targets = c.targets
    w = _total_from_strict(c, e)
    dirty = list(range(r))  # sorted, hence a heap
    for _ in range(100_000):
        if not dirty:
            assert w == _total_from_strict(c, e), (
                "unloading bumps must add whole strict transforms"
            )
            return e
        queued = set(dirty)
        bumped: List[int] = []
        while dirty:
            a = heappop(dirty)
            excess = w[a] - sum(w[b] for b in prox_to[a])
            if excess < 0:
                # each unit added to e[a] raises the excess by 1 + |prox_to[a]|
                diag = 1 + len(prox_to[a])
                t = (-excess + diag - 1) // diag
                e[a] += t
                # keep w consistent with the bump
                w[a] += t
                for b in prox_to[a]:
                    w[b] -= t
                    if b not in queued:
                        queued.add(b)
                        heappush(dirty, b)
                bumped.append(a)
        # the entries of w that this sweep wrote still match e
        assert all(
            w[x] + sum(map(e.__getitem__, targets[x])) == e[x]
            for x in set(bumped).union(*(prox_to[a] for a in bumped))
        ), "unloading bumps must add whole strict transforms"
        # the targets of a bumped point precede it, so the next sweep sees them
        dirty = sorted({g for a in bumped for g in targets[a]})
    raise UnloadingError("completion did not stabilize")


def complete_strict_by_excess_vector(
    c: Cluster, demand: Sequence[int], warm: Optional[Sequence[int]] = None
) -> List[int]:
    """Least non-negative strict vector e >= demand whose branch coordinates
    are non-negative: the strict coordinates of the complete ideal with the
    demanded valuations.  `warm` may give a known lower bound for the fixed
    point (e.g. the result at a smaller scale).

    Builds the excess vector x = e . M on the dual tree and repairs it with
    every point dirty; see `repair_by_excess_vector`.
    """
    e = [max(d, 0) for d in demand]
    if warm is not None:
        e = [max(a, b) for a, b in zip(e, warm)]
    repair_by_excess_vector(c, e, excess(c, e, range(len(c))), list(range(len(c))))
    return e


def excess(c: Cluster, e: Sequence[int], points: Sequence[int]) -> List[int]:
    """Entries of the excess vector e . M at the given points, summed over
    each point's dual-tree neighbours."""
    diag, neighbours = c._dual_tree
    get = e.__getitem__
    return [diag[p] * e[p] - sum(map(get, neighbours[p])) for p in points]


def repair_by_excess_vector(c: Cluster, e: List[int], x: List[int], dirty: List[int]) -> None:
    """Unload e in place, keeping its excess vector x = e . M, when only the
    points in `dirty` may have a negative excess.

    Unloading in rounds on the dual tree.  A round visits its points in
    turn, and raises a violated e[a] by the least amount t that repairs it
    on its own: x[a] grows by t * M[a][a], and the excess of each dual-tree
    neighbour of a drops by t; no other excess moves.  The bumped points
    and their neighbours make up the next round.  The order of the bumps
    does not matter, since unloading has one least fixed point.  Every
    entry of x that a round writes is checked against e, and the whole
    vector at the end.
    """
    diag, neighbours = c._dual_tree
    for _ in range(_MAX_ROUNDS):
        if not dirty:
            assert x == excess(c, e, range(len(c))), (
                "unloading bumps must add whole strict transforms"
            )
            return
        written: List[int] = []  # the bumped points and their neighbours
        for a in dirty:
            xa = x[a]
            if xa < 0:
                da = diag[a]
                t = (da - 1 - xa) // da
                e[a] += t
                x[a] = xa + t * da
                for b in neighbours[a]:
                    x[b] -= t
                written.append(a)
                written += neighbours[a]
        dirty = list(dict.fromkeys(written))
        assert list(map(x.__getitem__, dirty)) == excess(c, e, dirty), (
            "unloading bumps must add whole strict transforms"
        )
    raise UnloadingError("completion did not stabilize")


def repair_by_round_lists(c: Cluster, e: List[int], dirty: List[int]) -> int:
    """Unload e in place when only the points in `dirty` may have a
    negative excess, and return the number of rounds, the last one
    finding nothing dirty: the least `_MAX_ROUNDS` under which the
    library's kernel succeeds.

    Unloading in rounds on the dual tree.  A round visits its points in
    turn, reads the excess of a from e as diag[a] * e[a] minus the sum of
    e over the dual-tree neighbours of a, and raises a violated e[a] by
    the least amount t that repairs it on its own.  That bump lowers the
    excess of each neighbour by t and of no other point, so the bumped
    points and their neighbours make up the next round.  The order of the
    bumps does not matter, since unloading has one least fixed point.
    """
    diag, neighbours = c._dual_tree
    for rounds in range(1, _MAX_ROUNDS + 1):
        if not dirty:
            return rounds
        next_round: List[int] = []  # the bumped points and their neighbours
        for a in dirty:
            around = neighbours[a]
            xa = diag[a] * e[a]
            for b in around:
                xa -= e[b]
            if xa < 0:
                da = diag[a]
                e[a] += (da - 1 - xa) // da
                next_round.append(a)
                next_round += around
        dirty = list(dict.fromkeys(next_round))
    raise UnloadingError("completion did not stabilize")


def curve_jumps_by_excess_vector(kl, bound):
    """Curve jumping numbers in (0, bound] by the next-jump iteration that
    carries d and its excess vector d . M from jump to jump: each jump
    raises d by one at the points attaining it, updates the excesses there
    and at their dual-tree neighbours, and repairs with only the neighbours
    dirty (`repair_by_excess_vector`)."""
    bound = Fraction(bound)
    if bound > 1:
        raise ClusterError("curve jumping numbers are only computed up to 1")
    if bound <= 0:
        raise ClusterError("bound must be positive")
    if not is_unloaded(kl):
        raise ClusterError("curve cluster must satisfy the proximity relations")
    if kl.is_empty():  # no points, or the zero divisor
        return []
    c = kl.cluster
    r = len(c)
    e = _strict_from_total(c, kl.weights)
    k = log_discrepancies(c).entries
    diag, neighbours = c._dual_tree
    jumps: List[Fraction] = []
    d = [0] * r
    x = [0] * r  # the excess vector d . M
    while True:
        # min over a of (k_a + d_a + 1) / e_a, compared by cross-multiplying,
        # and the points that attain it
        n, m = k[0] + d[0] + 1, e[0]
        attained: List[int] = []
        for a, (ka, da, ea) in enumerate(zip(k, d, e)):
            lhs, rhs = (ka + da + 1) * m, n * ea
            if lhs < rhs:
                n, m, attained = ka + da + 1, ea, [a]
            elif lhs == rhs:
                attained.append(a)
        if n * bound.denominator > bound.numerator * m or n >= m:
            return jumps
        jumps.append(Fraction(n, m))
        # the demand floor(xi * e_a) - k_a is d_a + 1 where the minimum is
        # attained and at most d_a elsewhere, so max(demand, d) raises d by
        # one at those points alone: the multiplier cluster changes at xi by
        # construction, and only their neighbours' excesses drop
        dirty: List[int] = []
        for a in attained:
            d[a] += 1
            x[a] += diag[a]
            for b in neighbours[a]:
                x[b] -= 1
            dirty += neighbours[a]
        repair_by_excess_vector(c, d, x, dirty)


def curve_jumps_by_warm_completions(kl, bound):
    """Curve jumping numbers in (0, bound] by the next-jump iteration, one
    full completion per jump: the next jump is min (k + d + 1)/e over the
    cluster points, and d becomes the completion of its demand
    floor(xi * e) - k, warm-started from the last d."""
    bound = Fraction(bound)
    if bound > 1:
        raise ClusterError("curve jumping numbers are only computed up to 1")
    if bound <= 0:
        raise ClusterError("bound must be positive")
    if not is_unloaded(kl):
        raise ClusterError("curve cluster must satisfy the proximity relations")
    c = kl.cluster
    r = len(c)
    if not r:
        return []
    e = _strict_from_total(c, kl.weights)
    k = log_discrepancies(c).entries
    jumps: List[Fraction] = []
    d = [0] * r
    while True:
        # min over a of (k_a + d_a + 1) / e_a, compared by cross-multiplying
        n, m = k[0] + d[0] + 1, e[0]
        for ka, da, ea in zip(k, d, e):
            if (ka + da + 1) * m < n * ea:
                n, m = ka + da + 1, ea
        xi = Fraction(n, m)
        if xi > bound or xi >= 1:
            return jumps
        jumps.append(xi)
        at = complete_strict_by_dirty_points(c, _demand(e, k, n, m), warm=d)
        assert at != d, "multiplier cluster did not change at the next jump"
        d = at


def curve_jumps_by_candidate_scan(kl, bound):
    """Curve jumping numbers in (0, bound] by the candidate scan.

    Candidates are (k+j)/e with j >= 1 over the cluster points; each is kept
    iff the multiplier cluster actually changes there, which is decided by
    comparing completions just below and at the candidate value.
    """
    bound = Fraction(bound)
    if bound > 1:
        raise ClusterError("curve jumping numbers are only computed up to 1")
    if bound <= 0:
        raise ClusterError("bound must be positive")
    if not is_unloaded(kl):
        raise ClusterError("curve cluster must satisfy the proximity relations")
    c = kl.cluster
    e = _strict_from_total(c, kl.weights)
    k = log_discrepancies(c).entries
    candidates = set()
    for a in range(len(c)):
        j = 1
        while True:
            xi = Fraction(k[a] + j, e[a])
            if xi > bound or xi >= 1:
                break
            candidates.add(xi)
            j += 1
    r = len(c)

    def demand_at(xi: Fraction):
        return [(xi * e[a]).__floor__() - k[a] for a in range(r)]

    jumps = []
    prev_e = [0] * r
    prev_xi = Fraction(0)
    for xi in sorted(candidates):
        mid = (prev_xi + xi) / 2
        between = complete_strict_by_sweeps(c, demand_at(mid), warm=prev_e)
        assert between == prev_e, "multiplier cluster changed off the candidate grid"
        at = complete_strict_by_sweeps(c, demand_at(xi), warm=between)
        if at != prev_e:
            jumps.append(xi)
        prev_e, prev_xi = at, xi
    return jumps


def unload_by_unit_steps(kl, max_steps=100_000, choose=None):
    """Run the unloading procedure to its fixed point.

    Each step picks a point with negative branch coordinate, adds 1 to its
    weight and subtracts 1 from the weight of every point proximate to it;
    the associated divisor grows by one strict transform, which is asserted
    at every step.  The default picks the smallest violated index; the
    fixed point does not depend on this choice.
    """
    c = kl.cluster
    w = list(kl.weights)
    e = _strict_from_total(c, w)
    prox_to = c._proximate
    for _ in range(max_steps):
        violated = [
            a for a in range(len(c)) if w[a] - sum(w[b] for b in prox_to[a]) < 0
        ]
        if not violated:
            return WeightedCluster(c, w)
        a = violated[0] if choose is None else choose(violated)
        w[a] += 1
        for b in prox_to[a]:
            w[b] -= 1
        new_e = _strict_from_total(c, w)
        diff = [x - y for x, y in zip(new_e, e)]
        assert diff == [1 if i == a else 0 for i in range(len(c))], (
            "unloading step must add exactly one strict transform"
        )
        e = new_e
    raise UnloadingError(f"no fixed point after {max_steps} steps")


def dense_pi_inverse(c):
    """Inverse of the proximity matrix by back-substitution, column by
    column."""
    pi = proximity_matrix(c)
    r = len(c)
    inv = [[0] * r for _ in range(r)]
    for j in range(r):
        col = [0] * r
        col[j] = 1
        for i in range(j - 1, -1, -1):
            s = sum(pi[i][k] * col[k] for k in range(i + 1, j + 1))
            col[i] = -s
        for i in range(r):
            inv[i][j] = col[i]
    return tuple(tuple(row) for row in inv)


def dense_intersection_inverse(c):
    """(Pi . Pi^t)^{-1} as the product Pi^{-t} . Pi^{-1}."""
    inv = dense_pi_inverse(c)
    r = len(c)
    out = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            out[i][j] = sum(inv[k][i] * inv[k][j] for k in range(r))
    return tuple(tuple(row) for row in out)


def trimmed_by_fixed_point_loop(kl):
    """Drop zero-weight points that no remaining point is proximate to, one
    at a time from the end, until nothing changes."""
    keep = list(range(len(kl.cluster)))
    weights = list(kl.weights)
    changed = True
    while changed:
        changed = False
        needed = set()
        for i in keep:
            for a in kl.cluster.targets[i]:
                needed.add(a)
        for i in reversed(keep):
            if weights[i] == 0 and i not in needed:
                keep.remove(i)
                changed = True
                break
    if len(keep) == len(kl.cluster):
        return kl
    if not keep:
        return WeightedCluster(EMPTY_CLUSTER, ())
    sub = kl.cluster.restrict(keep)
    return WeightedCluster(sub, tuple(weights[i] for i in keep))


def second_target_by_scan(t, v):
    """The non-parent point a satellite is proximate to."""
    k = t.kinds[v]
    if k not in (HORIZONTAL, VERTICAL):
        return None
    cur = t.parents[v]
    while t.kinds[cur] == k:
        cur = t.parents[cur]
    return t.parents[cur]


def tree_to_cluster_by_scan(t):
    """Proximities read off the tree: parent always, plus the L-branch
    target for satellites."""
    targets = []
    for v in range(len(t)):
        if t.parents[v] is None:
            targets.append(())
            continue
        if t.is_free(v):
            targets.append((t.parents[v],))
            continue
        second = second_target_by_scan(t, v)
        if second is None:
            raise EnriquesError(f"vertex {v}: satellite run reaches the root")
        targets.append(tuple(sorted((t.parents[v], second))))
    return Cluster(t.parents, targets)


def subtree_flavor_by_scan(parents, kinds, child):
    """Which axis the free chain from a root child lies on, read off the
    first satellite hanging on it: 'V' (y-axis) for horizontal satellites,
    'H' (x-axis) for vertical ones, None for a bare chain."""
    stack = [child]
    while stack:
        cur = stack.pop()
        kids = [i for i in range(len(parents)) if parents[i] == cur]
        sats = [i for i in kids if kinds[i] in (HORIZONTAL, VERTICAL)]
        if sats:
            return "V" if kinds[sats[0]] == HORIZONTAL else "H"
        stack.extend(i for i in kids if kinds[i] == SLANT)
    return None


def t_pq_by_euclid(p: int, q: int, *, scale: int = 1, mirror: bool = False) -> EnriquesDiagram:
    """The diagram of x^p - y^q, a new tree per call: one vertex block per
    Euclid quotient, edge kinds slant then alternating horizontal /
    vertical (swapped when mirrored, a bare chain marked on the x-axis),
    weights the remainders times scale."""
    data = euclid_data(p, q)
    block = [j for j, aj in enumerate(data.a, start=1) for _ in range(aj)]
    # the edge into vertex i is edge number i, in block j
    kinds = [None] + [
        SLANT if j == 1 else HORIZONTAL if (j % 2 == 0) != mirror else VERTICAL
        for j in block[:-1]
    ]
    weights = [scale * data.r[j - 1] for j in block]
    tree = EnriquesTree([None, *range(len(block) - 1)], kinds, [1] if mirror else ())
    return EnriquesDiagram(tree, weights)


def tree_key_by_recursion(t, v, weights=None):
    """Nested canonical key of the subtree at v: one frame per level, and
    nested tuples that compare recursively.  A root child's mark bit says
    whether `root_axes_by_scan` puts its chain on the x-axis."""
    mark = 1 if (t.parents[v] == 0 and root_axes_by_scan(t).get("H") == v) else 0
    w = 0 if weights is None else weights[v]
    kids = tuple(sorted(tree_key_by_recursion(t, c, weights) for c in t.cluster._children[v]))
    return (_KIND_RANK[t.kinds[v]], mark, w, kids)


# the parents, kinds, weights and x-side marks of a diagram being built
_Parts = Tuple[List[Optional[int]], List[Optional[str]], List[int], set]


def _copy_subtree(d: EnriquesDiagram, v: int, parent: int, out: _Parts) -> None:
    """Append the subtree of d at v, in preorder, below vertex `parent`."""
    parents, kinds, weights, marks = out
    idx = len(parents)
    parents.append(parent)
    kinds.append(d.tree.kinds[v])
    weights.append(d.weights[v])
    if parent == 0 and v in d.tree.x_side:
        marks.add(idx)
    for k in d.tree.cluster._children[v]:
        _copy_subtree(d, k, idx, out)


def _assemble(out: _Parts) -> EnriquesDiagram:
    parents, kinds, weights, marks = out
    return EnriquesDiagram(EnriquesTree(parents, kinds, frozenset(marks)), weights)


def root_axes_by_scan(t: EnriquesTree) -> Dict[str, int]:
    """The root children of t by the axis their chains lie on: the x-axis
    if marked, else the axis of the first satellite found by scanning, and
    bare chains on the free axes, y first.  A root with more than two
    children, or two chains on one axis, is refused."""
    kids = [i for i in range(len(t)) if t.parents[i] == 0]
    axis = {
        k: "H" if k in t.x_side else subtree_flavor_by_scan(t.parents, t.kinds, k) for k in kids
    }
    free_axes = [a for a in ("V", "H") if a not in axis.values()]
    for k in kids:
        if axis[k] is None and free_axes:
            axis[k] = free_axes.pop(0)
    if len(kids) > 2 or len(set(axis.values())) != len(kids):
        raise OrientationError("a union operand has two root chains on one axis")
    return {a: k for k, a in axis.items()}


def union_by_recursion(d1: EnriquesDiagram, d2: EnriquesDiagram) -> EnriquesDiagram:
    """Union of two diagrams: the maximal common subtrees are glued,
    weights adding on the shared part.  Root children are matched by the
    axis of their chains, the others by edge kind, in a greedy recursive
    match that is the unique maximal gluing because siblings carry
    distinct kinds."""
    roots = []
    for d in (d1, d2):
        roots.append(root_axes_by_scan(d.tree))
        t = d.tree
        for v in range(1, len(t)):
            if sum(t.parents[k] == v and t.kinds[k] == SLANT for k in range(len(t))) > 1:
                raise EnriquesError("union input has equal-kind siblings")
    if len(d1) == 0:
        return d2
    if len(d2) == 0:
        return d1
    out: _Parts = ([], [], [], set())
    parents, kinds, weights, marks = out

    def kids_by_kind(d: EnriquesDiagram, v: int) -> Dict[str, int]:
        return {d.tree.kinds[k]: k for k in d.tree.cluster._children[v]}

    def merge(v1: int, v2: int, parent: Optional[int]):
        idx = len(parents)
        parents.append(parent)
        kinds.append(d1.tree.kinds[v1])
        weights.append(d1.weights[v1] + d2.weights[v2])
        if parent == 0 and (v1 in d1.tree.x_side or v2 in d2.tree.x_side):
            marks.add(idx)
        if parent is None:  # the y-axis chain first
            (k1, k2), order = roots, ("V", "H")
        else:
            k1, k2 = kids_by_kind(d1, v1), kids_by_kind(d2, v2)
            order = (SLANT, HORIZONTAL, VERTICAL)
        for key in order:
            if key in k1 and key in k2:
                merge(k1[key], k2[key], idx)
            elif key in k1:
                _copy_subtree(d1, k1[key], idx, out)
            elif key in k2:
                _copy_subtree(d2, k2[key], idx, out)

    merge(0, 0, None)
    return _assemble(out)


def glue_at_root_by_recursion(dv: EnriquesDiagram, dh: EnriquesDiagram) -> EnriquesDiagram:
    """The two diagrams glued at their roots alone, dv's children first."""
    out: _Parts = ([None], [None], [dv.weights[0] + dh.weights[0]], set())
    for d in (dv, dh):
        for k in d.tree.cluster._children[0]:
            _copy_subtree(d, k, 0, out)
    return _assemble(out)


def diagram_to_staircase_by_recursion(d: EnriquesDiagram) -> Staircase:
    """Staircase of the integrally closed monomial ideal cut out by a
    binary unloaded diagram.

    Recursion on the root: with root weight c and the subschemes Z1 (child
    on the y-axis side) and Z2 (x-axis side) after one blowup, the
    staircase is the double slice sum (triangle(c) +v S(Z1)) +h S(Z2).
    The roles propagate: along the y-side, the slant child continues the
    y-chain and the (horizontal) satellite child starts the exceptional
    x-chain; at satellites the same-kind child keeps its role and the
    opposite-kind child takes the other one.
    """
    cls = classify(d.tree)
    if not cls.binary:
        raise EnriquesError(f"diagram is not binary: {dict(cls.witnesses)}")
    if not is_unloaded(d.to_weighted_cluster()):
        raise EnriquesError("diagram is not unloaded")
    t, w = d.tree, d.weights

    def split(v: int, role: str) -> Tuple[Optional[int], Optional[int]]:
        kids = t.cluster._children[v]
        if v == 0:
            # a root child lies on the x-axis if marked so, else on the axis
            # its first satellite says; bare chains take the free axes, y first
            axis = {
                k: "H" if k in t.x_side else subtree_flavor_by_scan(t.parents, t.kinds, k)
                for k in kids
            }
            free_axes = [a for a in ("V", "H") if a not in axis.values()]
            for k in kids:
                if axis[k] is None:
                    if not free_axes:
                        raise OrientationError("both root chains claim the same axis")
                    axis[k] = free_axes.pop(0)
            if len(set(axis.values())) != len(kids):
                raise OrientationError("both root children lie on the same axis")
            child_on = {a: k for k, a in axis.items()}
            return child_on.get("V"), child_on.get("H")
        if t.is_free(v):
            slant = next((k for k in kids if t.kinds[k] == SLANT), None)
            sat = next((k for k in kids if t.kinds[k] != SLANT), None)
            if sat is not None:
                want = HORIZONTAL if role == "V" else VERTICAL
                if t.kinds[sat] != want:
                    raise OrientationError(
                        f"vertex {v}: satellite child drawn {t.kinds[sat]!r} on "
                        f"the {'y' if role == 'V' else 'x'}-axis chain"
                    )
            return (slant, sat) if role == "V" else (sat, slant)
        same = next((k for k in kids if t.kinds[k] == t.kinds[v]), None)
        opp = next((k for k in kids if t.kinds[k] == _opposite(t.kinds[v])), None)
        return (same, opp) if role == "V" else (opp, same)

    def stair(v: Optional[int], role: str) -> Staircase:
        if v is None:
            return Staircase.empty()
        c = w[v]
        vchild, hchild = split(v, role)
        sv = stair(vchild, "V")
        sh = stair(hchild, "H")
        if c == 0:
            if not (sv.is_empty() and sh.is_empty()):
                raise EnriquesError(f"vertex {v}: zero weight above positive ones")
            return Staircase.empty()
        base = triangle(c)
        return staircase_sum(staircase_sum(base, sv, "vertical"), sh, "horizontal")

    return stair(0, "V") if len(d) else Staircase.empty()


def path_to_leaf_through_by_recursion(d: EnriquesDiagram, witness: int) -> List[List[int]]:
    """All root-to-leaf vertex paths passing through the witness vertex."""
    t = d.tree
    up: List[int] = []
    v: Optional[int] = witness
    while v is not None:
        up.append(v)
        v = t.parents[v]
    up.reverse()
    paths = []

    def walk(path: List[int]):
        kids = t.cluster._children[path[-1]]
        if not kids:
            paths.append(list(path))
            return
        for k in kids:
            walk(path + [k])

    walk(up)
    return paths


def adapted_candidates_by_subdiagram(d: EnriquesDiagram) -> List[AdaptedCandidate]:
    """One candidate per maximal all-free chain endpoint."""
    if len(d) == 0:
        return [
            AdaptedCandidate(None, d, Staircase.empty(), Fraction(1))
        ]
    t = d.tree
    children = t.cluster._children
    free_path = _free_path(t.cluster)
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
        stair = diagram_to_staircase_by_recursion(sub)
        out.append(
            AdaptedCandidate(rho, sub, stair, lct_monomial(stair.to_ideal()))
        )
    return out


def path_checks_by_restriction(d: EnriquesDiagram) -> Tuple[PathCheck, ...]:
    """The path checks of `check_main_theorem` for every root-to-leaf path
    through a witness: the sub-diagram on the path and its non-degenerate
    part, each with its own cluster and threshold."""
    if len(d) == 0:
        return ()
    _, witnesses = lct_cluster(d.to_weighted_cluster())
    path_checks = []
    for w in witnesses:
        for path in path_to_leaf_through_by_recursion(d, w):
            sub = d.restrict(path)
            lct_path, _ = lct_cluster(sub.to_weighted_cluster())
            core = nondegenerate_part(sub)
            lct_core, _ = lct_cluster(core.to_weighted_cluster())
            path_checks.append(PathCheck(w, path[-1], lct_path, lct_core))
    return tuple(path_checks)


def _to_sympy(f: BivariatePolynomial):
    import sympy

    _X, _Y = sympy.symbols("x y")
    return sympy.Poly.from_dict(
        {t: sympy.Rational(c.numerator, c.denominator) for t, c in f.terms.items()},
        _X,
        _Y,
        domain="QQ",
    )


def from_sympy(g) -> BivariatePolynomial:
    return BivariatePolynomial(
        {t: Fraction(int(c.p), int(c.q)) for t, c in g.as_dict().items()}
    )


def reducedness_gcd_by_sympy(f: BivariatePolynomial):
    """gcd(f, f_x, f_y) over Q as a sympy Poly in x, y (monic in lex order)."""
    import sympy

    _X, _Y = sympy.symbols("x y")
    p = _to_sympy(f)
    return sympy.Poly(sympy.gcd(sympy.gcd(p, p.diff(_X)), p.diff(_Y)), _X, _Y)


def require_reduced_by_sympy(f: BivariatePolynomial):
    """Reject a repeated factor through the origin.  g = gcd(f, f_x, f_y) is
    the product of the repeated factors (each to one power less), so the
    germ is reduced exactly when g is a unit there, i.e. g(0, 0) != 0."""
    import sympy

    _X, _Y = sympy.symbols("x y")
    g = reducedness_gcd_by_sympy(f)
    if g.total_degree() > 0 and g.eval({_X: 0, _Y: 0}) == 0:
        raise NonReducedError(from_sympy(g), f)


def tangent_roots_by_sympy(form: BivariatePolynomial) -> Tuple[List[Tuple[Fraction, int]], int]:
    """Rational roots (with multiplicity) of F(1, t) for a homogeneous form
    F, plus the multiplicity of the direction x = 0 (the t = infinity root).
    A repeated irrational factor aborts: it would force blowups at
    irrational points."""
    import sympy

    _T = sympy.symbols("t")
    inf_mult = min(m for m, _ in form.support())
    coeffs: Dict[int, sympy.Rational] = {}
    for (m, n), c in form.terms.items():
        coeffs[n] = sympy.Rational(c.numerator, c.denominator)
    phi = sympy.Poly([coeffs.get(j, 0) for j in range(max(coeffs), -1, -1)], _T, domain="QQ")
    roots: List[Tuple[Fraction, int]] = []
    _, factors = phi.factor_list()
    for fac, exp in factors:
        if fac.degree() == 1:
            c1, c0 = fac.all_coeffs()
            root = sympy.Rational(-c0, c1)
            roots.append((Fraction(int(root.p), int(root.q)), exp))
        elif exp >= 2:
            raise NonRationalTangentError(form, fac.as_expr())
        # simple irrational factors: smooth transverse branches, no blowup
    roots.sort()
    return roots, inf_mult


def tangent_roots(form: BivariatePolynomial):
    """`resolution._tangent_roots` of a whole homogeneous form."""
    return _tangent_roots(list(form._entries()), form._den)


def smooth_measure(f: BivariatePolynomial, axes) -> Tuple[int, int]:
    """Progress measure at a smooth point of the strict transform: the
    intersection order with the exceptional components through the point,
    then the number of missing components."""
    contact = 0
    for axis in axes:
        if axis == "x":  # the component {x = 0}: order of f(0, y)
            contact += min(n for m, n in f.support() if m == 0)
        else:  # {y = 0}: order of f(x, 0)
            contact += min(m for m, n in f.support() if n == 0)
    return (contact, 2 - len(axes))


def needs_blowup(g: BivariatePolynomial, axes) -> bool:
    """Is the point of the strict transform g, on the exceptional components
    `axes`, still unresolved?  A singular point or a corner of two components
    is; a smooth branch on a single component only when tangent to it."""
    if g.multiplicity() >= 2 or len(axes) == 2:
        return True
    a, b = g.coefficient(1, 0), g.coefficient(0, 1)
    return ("x" in axes and b == 0) or ("y" in axes and a == 0)


def _resolution_result(parents, targets, weights, exc_mult):
    if not parents:
        empty = WeightedCluster(EMPTY_CLUSTER, ())
        return empty, EnriquesDiagram(cluster_to_tree(EMPTY_CLUSTER), ())
    cluster = Cluster(parents, targets)
    kl = WeightedCluster(cluster, weights)
    assert is_unloaded(kl), "curve multiplicities violated a proximity relation"
    assert _strict_from_total(cluster, weights) == exc_mult, (
        "chart bookkeeping disagrees with the proximity recursion"
    )
    return kl, EnriquesDiagram(cluster_to_tree(cluster), weights)


def resolution_points_by_blowups(f: BivariatePolynomial, max_points: int = 500):
    """Parents, targets, weights and exceptional multiplicities of the
    minimal log resolution of f, whole strict transforms throughout."""
    # one entry per point still to blow up: its local equation, the
    # exceptional components through it (axis -> (ancestor index,
    # multiplicity of that component in the total transform of the curve)),
    # its parent and the parent's smooth measure; popped in preorder
    todo = [(f, {}, None, None)] if f.multiplicity() >= 2 else []
    parents: List[Optional[int]] = []
    targets: List[Tuple[int, ...]] = []
    weights: List[int] = []
    exc_mult: List[int] = []  # multiplicity of E_i in the total transform
    while todo:
        g, axes, parent, parent_measure = todo.pop()
        if len(parents) >= max_points:
            raise ResolutionError(f"resolution exceeded {max_points} blowups")
        m = g.multiplicity()
        if parent is not None:
            assert m <= weights[parent], "multiplicity grew under blowup"
        measure = smooth_measure(g, axes) if m == 1 else None
        if measure is not None and parent_measure is not None:
            assert measure < parent_measure, (
                "no progress along a smooth chain of blowups"
            )
        idx = len(parents)
        parents.append(parent)
        targets.append(tuple(sorted(anc for anc, _ in axes.values())))
        weights.append(m)
        e_here = m + sum(mult for _, mult in axes.values())
        exc_mult.append(e_here)

        roots, inf_mult = tangent_roots(g.leading_form())
        children = []
        x_chart = g.blowup_x_chart() if roots else None  # shared by the roots
        for t, _ in roots:
            child_axes = {"x": (idx, e_here)}
            if t == 0 and "y" in axes:
                child_axes["y"] = axes["y"]
            children.append((x_chart.shift_y(t), child_axes))
        if inf_mult:
            child_axes = {"y": (idx, e_here)}
            if "x" in axes:
                child_axes["x"] = axes["x"]
            children.append((g.blowup_y_chart(), child_axes))
        for h, child_axes in reversed(children):
            if needs_blowup(h, child_axes):
                todo.append((h, child_axes, idx, measure))
    return parents, targets, weights, exc_mult


def resolve_curve_by_blowups(
    f: BivariatePolynomial, max_points: int = 500
) -> Tuple[WeightedCluster, EnriquesDiagram]:
    """Weighted cluster and Enriques diagram of the minimal log resolution,
    by the exact worklist, with the reducedness check run first."""
    if f.is_zero():
        raise ResolutionError("cannot resolve the zero curve")
    if f.coefficient(0, 0):
        raise ResolutionError("the curve does not pass through the origin")
    _require_reduced(f)
    return _resolution_result(*resolution_points_by_blowups(f, max_points))


@dataclass
class _Chart:
    """Strict transform local to one infinitely near point, with the
    exceptional components through it: axis -> (ancestor index, multiplicity
    of that component in the total transform of the curve)."""

    f: BivariatePolynomial
    axes: Dict[str, Tuple[int, int]]
    parent: Optional[int]
    parent_smooth_measure: Optional[Tuple[int, int]] = None


def resolve_curve_by_recursion(
    f: BivariatePolynomial, max_points: int = 500
) -> Tuple[WeightedCluster, EnriquesDiagram]:
    """Weighted cluster and Enriques diagram of the minimal log resolution.

    Weights are the multiplicities of the strict transform at the blown-up
    points; they always satisfy the proximity relations.  A smooth curve
    needs no blowup and yields the empty cluster.
    """
    if f.is_zero():
        raise ResolutionError("cannot resolve the zero curve")
    if f.coefficient(0, 0):
        raise ResolutionError("the curve does not pass through the origin")
    _require_reduced(f)

    parents: List[Optional[int]] = []
    targets: List[Tuple[int, ...]] = []
    weights: List[int] = []
    exc_mult: List[int] = []  # multiplicity of E_i in the total transform

    def process(chart: _Chart):
        if len(parents) >= max_points:
            raise ResolutionError(f"resolution exceeded {max_points} blowups")
        m = chart.f.multiplicity()
        if chart.parent is not None:
            assert m <= weights[chart.parent], "multiplicity grew under blowup"
        measure = smooth_measure(chart.f, chart.axes) if m == 1 else None
        if measure is not None and chart.parent_smooth_measure is not None:
            assert measure < chart.parent_smooth_measure, (
                "no progress along a smooth chain of blowups"
            )
        idx = len(parents)
        parents.append(chart.parent)
        targets.append(tuple(sorted(anc for anc, _ in chart.axes.values())))
        weights.append(m)
        e_here = m + sum(mult for _, mult in chart.axes.values())
        exc_mult.append(e_here)

        form = chart.f.leading_form()
        roots, inf_mult = tangent_roots(form)
        for t, _ in roots:
            g = chart.f.blowup_x_chart().shift_y(t)
            axes: Dict[str, Tuple[int, int]] = {"x": (idx, e_here)}
            if t == 0 and "y" in chart.axes:
                axes["y"] = chart.axes["y"]
            _descend(g, axes, idx, measure)
        if inf_mult:
            g = chart.f.blowup_y_chart()
            axes = {"y": (idx, e_here)}
            if "x" in chart.axes:
                axes["x"] = chart.axes["x"]
            _descend(g, axes, idx, measure)

    def _descend(g: BivariatePolynomial, axes, idx: int, measure):
        m = g.multiplicity()
        if m >= 2 or len(axes) == 2:
            process(_Chart(g, axes, idx, measure))
            return
        # smooth branch on a single exceptional component: blow up only
        # when tangent to it
        a, b = g.coefficient(1, 0), g.coefficient(0, 1)
        tangent_to_exceptional = ("x" in axes and b == 0) or ("y" in axes and a == 0)
        if tangent_to_exceptional:
            process(_Chart(g, axes, idx, measure))

    mult0 = f.multiplicity()
    if mult0 >= 2:
        process(_Chart(f, {}, None))
    return _resolution_result(parents, targets, weights, exc_mult)


class SparseFractionPolynomial:
    """Exact polynomial in two variables x, y with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Term, Fraction] | Iterable[tuple[Term, Fraction]] = ()):
        data: Dict[Term, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (m, n), c in items:
            if m < 0 or n < 0:
                raise PolynomialError(f"negative exponent in term x^{m} y^{n}")
            c = Fraction(c)
            if c:
                data[(m, n)] = data.get((m, n), Fraction(0)) + c
                if not data[(m, n)]:
                    del data[(m, n)]
        self._terms = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "SparseFractionPolynomial":
        return cls()

    @classmethod
    def monomial(cls, m: int, n: int, coeff=1) -> "SparseFractionPolynomial":
        return cls({(m, n): Fraction(coeff)})

    # -- basic queries ---------------------------------------------------

    @property
    def terms(self) -> Dict[Term, Fraction]:
        return dict(self._terms)

    def support(self) -> set[Term]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, m: int, n: int) -> Fraction:
        return self._terms.get((m, n), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseFractionPolynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def multiplicity(self) -> int:
        """Order of vanishing at the origin (min total degree of a term)."""
        if not self._terms:
            raise PolynomialError("multiplicity of the zero polynomial")
        return min(m + n for m, n in self._terms)

    def degree(self) -> int:
        if not self._terms:
            return -1
        return max(m + n for m, n in self._terms)

    def leading_form(self) -> "SparseFractionPolynomial":
        """Sum of the terms of minimal total degree (the tangent cone)."""
        mult = self.multiplicity()
        return SparseFractionPolynomial(
            {t: c for t, c in self._terms.items() if t[0] + t[1] == mult}
        )

    def evaluate(self, xv, yv) -> Fraction:
        xv, yv = Fraction(xv), Fraction(yv)
        return sum((c * xv**m * yv**n for (m, n), c in self._terms.items()), Fraction(0))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "SparseFractionPolynomial") -> "SparseFractionPolynomial":
        data = dict(self._terms)
        for t, c in other._terms.items():
            data[t] = data.get(t, Fraction(0)) + c
        return SparseFractionPolynomial(data)

    def __neg__(self) -> "SparseFractionPolynomial":
        return SparseFractionPolynomial({t: -c for t, c in self._terms.items()})

    def __sub__(self, other: "SparseFractionPolynomial") -> "SparseFractionPolynomial":
        return self + (-other)

    def __mul__(self, other: "SparseFractionPolynomial") -> "SparseFractionPolynomial":
        data: Dict[Term, Fraction] = {}
        for (m1, n1), c1 in self._terms.items():
            for (m2, n2), c2 in other._terms.items():
                t = (m1 + m2, n1 + n2)
                data[t] = data.get(t, Fraction(0)) + c1 * c2
        return SparseFractionPolynomial(data)

    def scale(self, c) -> "SparseFractionPolynomial":
        c = Fraction(c)
        return SparseFractionPolynomial({t: c * v for t, v in self._terms.items()})

    def __pow__(self, k: int) -> "SparseFractionPolynomial":
        if k < 0:
            raise PolynomialError("negative power")
        result = SparseFractionPolynomial.monomial(0, 0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- substitutions used by blowups ------------------------------------

    def blowup_x_chart(self) -> "SparseFractionPolynomial":
        """Substitute (x, y) -> (x, x*y) and divide by x^mult.

        This is the strict transform in the chart where the exceptional
        curve is {x = 0}.  Pure exponent bookkeeping, no expansion.
        """
        mult = self.multiplicity()
        return SparseFractionPolynomial(
            {(m + n - mult, n): c for (m, n), c in self._terms.items()}
        )

    def blowup_y_chart(self) -> "SparseFractionPolynomial":
        """Substitute (x, y) -> (x*y, y) and divide by y^mult."""
        mult = self.multiplicity()
        return SparseFractionPolynomial(
            {(m, m + n - mult): c for (m, n), c in self._terms.items()}
        )

    def shift_y(self, c) -> "SparseFractionPolynomial":
        """Substitute y -> y + c (recenter at a point on the y-axis line)."""
        c = Fraction(c)
        if not c:
            return self
        data: Dict[Term, Fraction] = {}
        # group by the y-exponent to reuse binomial rows
        for (m, n), coeff in self._terms.items():
            binom = 1
            power = Fraction(1)
            for j in range(n, -1, -1):
                t = (m, j)
                data[t] = data.get(t, Fraction(0)) + coeff * binom * power
                binom = binom * j // (n - j + 1)
                power *= c
        return SparseFractionPolynomial(data)

    def derivative(self, var: str) -> "SparseFractionPolynomial":
        """Partial derivative with respect to "x" or "y"."""
        if var == "x":
            return SparseFractionPolynomial({(m - 1, n): m * c for (m, n), c in self._terms.items() if m})
        return SparseFractionPolynomial({(m, n - 1): n * c for (m, n), c in self._terms.items() if n})

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (m, n) in sorted(self._terms, key=lambda t: (t[0] + t[1], t[0])):
            c = self._terms[(m, n)]
            mono = ""
            if m:
                mono += "x" if m == 1 else f"x^{m}"
            if n:
                if mono:
                    mono += "*"
                mono += "y" if n == 1 else f"y^{n}"
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"SparseFractionPolynomial({self})"


def blowup_x_chart_by_terms(f: BivariatePolynomial, mult: int) -> BivariatePolynomial:
    """(x, y) -> (x, x y) divided by x^mult, one (m, n, numerator) term at a
    time."""
    return _poly_from(((m + n - mult, n, c) for m, n, c in f._entries()), f._den)


def blowup_y_chart_by_terms(f: BivariatePolynomial, mult: int) -> BivariatePolynomial:
    """(x, y) -> (x y, y) divided by y^mult, one (m, n, numerator) term at a
    time."""
    return _poly_from(((m, m + n - mult, c) for m, n, c in f._entries()), f._den)


def charts_by_shear_then_cut(g: BivariatePolynomial, m: int, a: int, b: int, directions):
    """`resolution._charts` by the whole x-chart shear, term by term, each
    child then cut to its ideal by `mod_monomial`."""
    c = a + b - m
    x_chart = blowup_x_chart_by_terms(g, m)
    out = []
    for t in directions:
        if t is None:
            out.append((blowup_y_chart_by_terms(g, m).mod_monomial(a, c), a, c))
        elif t:
            out.append((x_chart.mod_monomial(c, 0).shift_y(t), c, 0))
        else:
            out.append((x_chart.mod_monomial(c, b), c, b))
    return out


def mapped_by_terms(f: BivariatePolynomial, chart, cut=None) -> BivariatePolynomial:
    """`poly._mapped`: each (m, n, numerator) term moved by the exponent map
    chart = (p, q, r, s, u, v) one at a time, the images at x-exponent cut
    or above dropped."""
    p, q, r, s, u, v = chart
    moved = ((p * m + q * n - u, r * m + s * n - v, c) for m, n, c in f._entries())
    return _poly_from(((i, j, c) for i, j, c in moved if cut is None or i < cut), f._den)


def newton_boundary_by_normals(terms) -> list:
    """`poly._boundary` by brute force: the terms where w1 m + w2 n is least
    for some w1, w2 > 0, trying the normal of every pair of terms and the
    two lexicographic orders (the ends of the boundary)."""
    terms = list(terms)
    on = {min(terms)[:2], min(terms, key=lambda t: (t[1], t[0]))[:2]}
    for m1, n1, _ in terms:
        for m2, n2, _ in terms:
            w1, w2 = n1 - n2, m2 - m1
            if w1 > 0 and w2 > 0:
                least = min(w1 * m + w2 * n for m, n, _ in terms)
                on |= {(m, n) for m, n, _ in terms if w1 * m + w2 * n == least}
    return sorted(t for t in terms if t[:2] in on)


def chart_steps(chart) -> List[str]:
    """The x- and y-charts a composed chart map of the resolution walk is
    made of, outermost first, read off its matrix: the outermost is the
    x-chart when its first row is the larger."""
    p, q, r, s, *_ = chart
    steps = []
    while (p, q, r, s) != (1, 0, 0, 1):
        if p >= r and q >= s:
            steps.append("x")
            p, q = p - r, q - s
        else:
            steps.append("y")
            r, s = r - p, s - q
    return steps


def mapped_by_shear_then_cut(anchor: BivariatePolynomial, chart, cut: int) -> BivariatePolynomial:
    """`poly._mapped(anchor, chart, cut)` for a chart the resolution walk
    composes: each chart of `chart_steps` is applied to the whole equation
    at its own multiplicity, the divisions they make must add up to the
    chart's (u, v), and the result is cut at (x^cut) by `mod_monomial`."""
    u, v = chart[4:]
    g, divided = anchor, (0, 0)
    for step in reversed(chart_steps(chart)):
        m = g.multiplicity()
        if step == "x":
            g, divided = blowup_x_chart_by_terms(g, m), (sum(divided) + m, divided[1])
        else:
            g, divided = blowup_y_chart_by_terms(g, m), (divided[0], sum(divided) + m)
    assert divided == (u, v), (chart, divided)
    return g.mod_monomial(cut, 0)


def resolve_at_by_charts(f: BivariatePolynomial, precision: int, unchecked=None):
    """`resolution._resolve_at` before the walk on the Newton boundary: each
    point carries its equation modulo (x^a y^b) as a polynomial, and its
    children are built by `charts_by_shear_then_cut`."""
    unchecked = [f] if unchecked is None else unchecked
    d = f.degree()
    noether = 0  # sum of m(m - 1) so far
    todo = []
    if f.multiplicity() >= 2:
        todo.append((f.mod_monomial(precision, 0), precision, 0, {}, None, None))
    parents: List[Optional[int]] = []
    targets: List[Tuple[int, ...]] = []
    weights: List[int] = []
    exc_mult: List[int] = []  # multiplicity of E_i in the total transform
    while todo:
        g, a, b, axes, parent, parent_measure = todo.pop()
        if len(parents) >= resolution.MAX_POINTS:
            raise ResolutionError(f"resolution exceeded {resolution.MAX_POINTS} blowups")
        m = g.multiplicity() if g else a + b
        if m >= a + b:  # a + b is the least degree in the ideal
            raise _Imprecise
        noether += m * (m - 1)
        if unchecked and (len(parents) >= d or noether > d * (d - 1)):
            resolution._require_reduced(unchecked.pop())
        if parent is not None:
            assert m <= weights[parent], "multiplicity grew under blowup"
        measure = smooth_measure(g, axes) if m == 1 else None
        if measure is not None and parent_measure is not None:
            assert measure < parent_measure, (
                "no progress along a smooth chain of blowups"
            )
        idx = len(parents)
        parents.append(parent)
        targets.append(tuple(sorted(anc for anc, _ in axes.values())))
        weights.append(m)
        e_here = m + sum(mult for _, mult in axes.values())
        exc_mult.append(e_here)

        roots, inf_mult = tangent_roots(leading_form_by_terms(g, m))
        directions = [t for t, k in roots if k >= 2 or (t == 0 and "y" in axes)]
        if inf_mult >= 2 or (inf_mult == 1 and "x" in axes):
            directions.append(None)
        charts = charts_by_shear_then_cut(g, m, a, b, directions)
        for t, (h, ha, hb) in reversed(list(zip(directions, charts))):
            if t is None:
                child_axes = {"y": (idx, e_here)}
                if "x" in axes:
                    child_axes["x"] = axes["x"]
            else:
                child_axes = {"x": (idx, e_here)}
                if t == 0 and "y" in axes:
                    child_axes["y"] = axes["y"]
            assert ha >= 1 and (hb >= 1 or "y" not in child_axes)
            linear = h.coefficient(0, 1) if "x" in child_axes else h.coefficient(1, 0)
            assert len(child_axes) == 2 or not linear, "followed a resolved direction"
            todo.append((h, ha, hb, child_axes, idx, measure))
    return parents, targets, weights, exc_mult


def resolve_cluster_by_charts(f: BivariatePolynomial) -> WeightedCluster:
    """`resolution._resolve_cluster` on `resolve_at_by_charts`: the same
    precision ladder and the same one reducedness check."""
    if f.is_zero():
        raise ResolutionError("cannot resolve the zero curve")
    if f.coefficient(0, 0):
        raise ResolutionError("the curve does not pass through the origin")
    unchecked = [f]
    precision = (_x_order(f) or f.degree()) + 1
    while True:
        try:
            parents, targets, weights, exc_mult = resolve_at_by_charts(f, precision, unchecked)
            break
        except _Imprecise:
            precision *= 2
        except ResolutionError:
            if unchecked:
                resolution._require_reduced(unchecked.pop())
            raise
    cluster = Cluster(parents, targets)
    kl = WeightedCluster(cluster, weights)
    assert is_unloaded(kl), "curve multiplicities violated a proximity relation"
    assert _strict_from_total(cluster, weights) == exc_mult, (
        "chart bookkeeping disagrees with the proximity recursion"
    )
    return kl


def leading_form_by_terms(f: BivariatePolynomial, mult: int) -> BivariatePolynomial:
    """The terms of f of total degree mult, picked from the term stream."""
    return _poly_from(((m, n, c) for m, n, c in f._entries() if m + n == mult), f._den)


def x_axis_order_by_support(f: BivariatePolynomial) -> Optional[int]:
    """The order of f(x, 0), None when y divides f."""
    return min((m for m, n in f.support() if n == 0), default=None)


def rational_roots_by_yun_sturm(coeffs: Sequence):
    """Rational roots with multiplicities of sum coeffs[i] t^i, and the
    squarefree parts left without one, by Yun's split and Sturm isolation
    alone."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    f = _trim([int(c * den) for c in coeffs])
    f = _iquo(f, _icontent(f, 0), 0)
    roots: List[Tuple[Fraction, int]] = []
    rest: List[Tuple[list, int]] = []
    for mult, part in enumerate(_squarefree_parts(f), 1):
        if len(part) < 2:
            continue
        for x in _sturm_rational_roots(part):
            roots.append((x, mult))
            part = _quo(part, [-x.numerator, x.denominator], 0)
        if len(part) > 1:
            rest.append((part, mult))
    return sorted(roots), rest


def shift_y_by_horner(self: BivariatePolynomial, c) -> BivariatePolynomial:
    """Substitute y -> y + c (recenter at a point on the y-axis line).

    For c = a/b and y-degree N, each row sum r_n y^n becomes
    b^-N sum r_n b^(N-n) (b y + a)^n, by Horner on integers."""
    a, b = _ratio(c)
    if not (a and self._rows):
        return self
    top = max(map(len, self._rows)) - 1
    weight = [b ** (top - n) for n in range(top + 1)]
    rows = []
    for row in self._rows:
        acc: List[int] = []
        for n in range(len(row) - 1, -1, -1):
            # acc <- acc * (b y + a) + r_n b^(N-n)
            acc = [a * u + b * v for u, v in zip(acc + [0], [0] + acc)]
            acc[0] += row[n] * weight[n]
        rows.append(acc)
    return _poly(rows, self._den * b**top)


def minimal_antichain_by_scan(points) -> Tuple[Point, ...]:
    # lex order guarantees no later point lies below an accepted one
    keep: List[Point] = []
    for p in sorted(set(points)):
        if not any(q[0] <= p[0] and q[1] <= p[1] for q in keep):
            keep.append(p)
    return tuple(keep)


def staircase_slices_by_min(self: Staircase) -> Tuple[int, ...]:
    """Horizontal slice widths, row 0 first (a non-increasing sequence)."""
    if self.is_empty():
        return ()
    if not self.is_finite():
        raise InfiniteStaircaseError(f"staircase of {self.generators} is infinite")
    height = max(n for _, n in self.generators)
    widths = []
    for j in range(height):
        widths.append(min(m for m, n in self.generators if n <= j))
    return tuple(widths)


def mul_by_row_pairs(f, g, u: int):
    """The dense product at level u: one level u - 1 product and one `_add`
    per pair of nonzero rows."""
    if u < 0:
        return f * g
    if not f or not g:
        return []
    out = [0 if u == 0 else []] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            if u == 0:
                out[i + j] += a * b
            elif b:
                out[i + j] = _add(out[i + j], mul_by_row_pairs(a, b, u - 1), u - 1)
    return _trim(out)


def _times(f: BivariatePolynomial, g: BivariatePolynomial) -> BivariatePolynomial:
    return _poly(mul_by_row_pairs(f._rows, g._rows, 1), f._den * g._den)


def _power_from_unit(f: BivariatePolynomial, k: int) -> BivariatePolynomial:
    if k < 0:
        raise PolynomialError("negative power")
    result = BivariatePolynomial.monomial(0, 0)
    base = f
    while k:
        if k & 1:
            result = _times(result, base)
        k >>= 1
        if k:
            base = _times(base, base)
    return result


def _den(f: BivariatePolynomial) -> int:
    """The least common denominator of f's coefficients."""
    return lcm(*(c.denominator for c in f.terms.values()))


def _top(f: BivariatePolynomial) -> int:
    """The largest |numerator| of f's coefficients over `_den(f)`."""
    den = _den(f)
    return max((abs(c.numerator) * (den // c.denominator) for c in f.terms.values()), default=0)


def parse_by_char_scan(text: str) -> BivariatePolynomial:
    """`parse_polynomial` by the earlier recursive descent: whitespace and
    digits scanned one character at a time, leaves built by `monomial`,
    powers from the unit, differences as self + (-other), products by
    `mul_by_row_pairs`."""
    return _CharScanParser(text).parse()


class _CharScanParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def parse(self) -> BivariatePolynomial:
        result, _ = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected character", self.text, self.pos)
        return result

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    # with each polynomial, a bound on its numerators, as the parser keeps

    def _exact(self, what: str, f: BivariatePolynomial, at: int) -> int:
        if max(_top(f), _den(f)) >= 10**MAX_DIGITS:
            raise ParseError(
                f"{what} has a coefficient of more than {MAX_DIGITS} digits", self.text, at
            )
        return _top(f)

    def _expr(self):
        sign = 1
        ch = self._peek()
        if ch in ("+", "-"):
            if ch == "-":
                sign = -1
            self.pos += 1
        result, top = self._term()
        if sign < 0:
            result = -result
        while True:
            ch = self._peek()
            at = self.pos
            if ch == "+":
                self.pos += 1
                term, term_top = self._term()
            elif ch == "-":
                self.pos += 1
                term, term_top = self._term()
                term = -term
            else:
                return result, top
            den = lcm(_den(result), _den(term))
            top = top * den // _den(result) + term_top * den // _den(term)
            result = result + term
            if max(top, den) >= 10**MAX_DIGITS:
                top = self._exact("sum", result, at)

    def _term(self) -> BivariatePolynomial:
        # the term count of the largest power of a sum that _factor accepts
        limit = (MAX_POWER_DEGREE + 1) * (MAX_POWER_DEGREE + 2) // 2
        result, top = self._factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
            elif not ch or not (ch.isdigit() or ch in "xy("):
                return result, top
            # an explicit '*', or implicit multiplication as in "x^5y" or "2(x+y)"
            self._skip_ws()
            at = self.pos
            factor, factor_top = self._factor()
            terms = len(result.terms) * len(factor.terms)
            if terms > limit:
                raise ParseError(
                    f"product of {terms} term pairs exceeds {limit}", self.text, at
                )
            self._bound_exponents(map(sum, zip(_extent(result), _extent(factor))), at)
            top *= min(len(result.terms), len(factor.terms)) * factor_top
            den = _den(result) * _den(factor)
            result = _times(result, factor)
            if max(top, den) >= 10**MAX_DIGITS:
                top = self._exact("product", result, at)

    def _factor(self):
        base, top = self._base()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            at = self.pos
            exp = self._integer("exponent expected")
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", self.text, at)
            if len(base.terms) > 1 and base.degree() * exp > MAX_POWER_DEGREE:
                raise ParseError(
                    f"power of degree {base.degree() * exp} exceeds {MAX_POWER_DEGREE}",
                    self.text,
                    at,
                )
            self._bound_exponents((d * exp for d in _extent(base)), at)
            terms = len(base.terms)
            if max(terms * top, _den(base)) ** exp >= 10**MAX_DIGITS:
                top = _top(base)
                if max(terms * top, _den(base)) ** exp >= 10**MAX_DIGITS:
                    raise ParseError(
                        f"power may have a coefficient of more than {MAX_DIGITS} digits",
                        self.text,
                        at,
                    )
            return _power_from_unit(base, exp), (terms * top) ** exp
        return base, top

    def _bound_exponents(self, exponents: Iterable[int], at: int):
        """A ParseError at `at` when the top exponent of x or of y exceeds
        MAX_EXPONENT: the dense layout costs memory linear in each."""
        for var, e in zip("xy", exponents):
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} of {var} exceeds {MAX_EXPONENT}", self.text, at)

    def _base(self):
        ch = self._peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"nesting exceeds {MAX_NESTING}", self.text, self.pos)
            self.pos += 1
            self.depth += 1
            inner = self._expr()
            if self._peek() != ")":
                raise ParseError("missing ')'", self.text, self.pos)
            self.pos += 1
            self.depth -= 1
            return inner
        if ch == "x":
            self.pos += 1
            return BivariatePolynomial.monomial(1, 0), 1
        if ch == "y":
            self.pos += 1
            return BivariatePolynomial.monomial(0, 1), 1
        if ch.isdigit():
            num = self._integer("number expected")
            # a '/' directly after a number makes a rational coefficient
            if self._peek() == "/":
                self.pos += 1
                den = self._integer("denominator expected")
                if den == 0:
                    raise ParseError("zero denominator", self.text, self.pos - 1)
                return BivariatePolynomial.monomial(0, 0, Fraction(num, den)), num
            return BivariatePolynomial.monomial(0, 0, num), num
        raise ParseError("expected a term", self.text, self.pos)

    def _integer(self, message: str) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError(message, self.text, self.pos)
        if self.pos - start > MAX_DIGITS:
            raise ParseError("number too long", self.text, start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's limit on digits
            raise ParseError("number too long", self.text, start) from None
