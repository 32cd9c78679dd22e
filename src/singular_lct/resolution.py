"""Embedded resolution of an isolated plane-curve singularity at the origin
by iterated point blowups, over the rationals.

Each blowup is followed in the two affine charts (x, y) -> (x, x y) and
(x, y) -> (x y, y); the rational tangent directions are the rational roots
of the tangent cone, found by Yun's squarefree split and Sturm isolation
(`poly.rational_roots`), and the chart is recentered there.  The blowups
stop at a point once the strict transform is smooth and meets the
exceptional locus transversally at a smooth point of it; a point lying on
two exceptional components, or tangent to one, gets one more blowup, which
yields the minimal log resolution.

So the directions to follow are read off the tangent cone F before any
child is made.  Row 0 of the x-chart is F(1, y) and column 0 of the
y-chart is F(x, 1), so the strict transform meets the new component E in
direction t with intersection multiplicity k, the multiplicity of t as a
root of F.  For k >= 2 it is singular or tangent to E there; for k = 1 it
is smooth and transverse to E, and the point needs a blowup only as a
corner, t = 0 on {y = 0} or t = infinity on {x = 0}.  Only the followed
directions get a child, each of which asserts that it needs the blowup.

Branches whose tangent direction is irrational are only tolerated while
they need no further blowup (a simple, hence smooth and transverse, factor
of the tangent cone); a singular continuation at an irrational point raises
NonRationalTangentError, naming the offending form.

The resolution reads only the multiplicity and the tangent cone at each
point, and near the exceptional axes the lowest terms along them, so each
point carries its equation only modulo a monomial ideal (x^a y^b).  The
root is f modulo (x^P), first for P = e + 1, e the order of f(x, 0) (the
curve's intersection number with y = 0), which bounds the root's
multiplicity, or for P = deg f + 1, f itself, when y divides f.  At a
point of multiplicity m < a + b, the least degree in the ideal, the ideal
pulls back to (x^(a+b-m) y^b) in the x-chart and to (x^a y^(a+b-m)) in
the y-chart, and a shift y -> y + t, t != 0, maps (x^c y^b) into (x^c):
so each child's equation is exact outside that ideal.  The multiplicity
and the tangent cone are read only when m < a + b.  The other decisions
read the linear terms and the lowest terms along the axes through the
point, in row 0 and column 0, which lie outside the ideal: a >= 1
throughout, and b >= 1 at a point on {y = 0}, since only a y-chart puts it
there and a shift takes it away.  When m < a + b fails, the attempt gives
up and the resolution starts again from the root with P doubled.  So
every decision, error and assertion is the one the exact equations give,
and only the cost depends on P.  Success is monotone in P, as a larger P
gives every point a smaller ideal, so a germ of degree d takes at most
ceil(log2((d + 1)/(e + 1))) more attempts than from d + 1.

Between two recentrings the resolution is toric, and it walks there on
the Newton boundary (Oka 1997; Duval, Compositio Math. 70, 1989).  Call
the root and each point reached by a shift t != 0 an anchor, with its
equation G known modulo its ideal.  A point reached from its anchor by
t = 0 x-charts and y-charts alone has the equation x^-u y^-v G(x^p y^r,
x^q y^s), the exponent map (m, n) -> (p m + q n - u, r m + s n - v)
composed of the charts (m, n) -> (m + n - mult, n) and (m, n) ->
(m, m + n - mult); its entries are nonnegative and ps - qr = 1.  The point
carries G, that map and its Newton boundary: the terms on the compact
faces of its Newton polygon, read off the anchor's boundary terms under
the maps.  This is exact and decides everything the point reads:
- The map sends the Newton polyhedron of G onto that of the point, and a
  functional w > 0 on the image is w' = (p w1 + r w2, q w1 + s w2) > 0 on
  G, so the face where w is least is the image of the compact face where
  w' is least.  So the boundary of each point is the image of part of its
  parent's, and each point recomputes its own from its parent's.
- Every decision is a least value of a functional w > 0 or a term where one
  is least: the multiplicity and the tangent cone (w = (1, 1)), the orders
  along the axes and the linear terms (the vertices on the axes).
- The ideals nest: a term of G inside its ideal maps into the point's, as
  the pullbacks above show, so one cut at the end gives the successive
  cuts, and the terms of degree below a + b, the least degree in the
  point's ideal, are those of the cut equation.  So m >= a + b holds on
  the boundary exactly when it holds on the cut equation, and below it the
  two have the same tangent cone.  The other reads lie outside the ideal.
A polynomial is built only where a root t != 0 is followed: G through the
composed map of the point's x-chart, in one pass that places only the
terms outside the child's ideal (x^c), then shifted; the child is the
next anchor.

A resolution that finishes proves the germ reduced: a reduced germ of
degree d has sum m(m - 1) <= d(d - 1) over its points (Bezout bounds its
Milnor number; Milnor's and Noether's formulas), while a repeated branch
has infinitely many points, each with m >= 2.  So the gcd of
`_require_reduced` runs at most once per call: when the points outnumber
d or the sum passes d(d - 1), after which a reduced germ resolves on, and
before any ResolutionError, so that NonReducedError keeps its precedence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from .cluster import Cluster, WeightedCluster, _strict_from_total, is_unloaded
from .poly import (
    BivariatePolynomial,
    _boundary,
    _leads,
    _mapped,
    _poly_from,
    _printed,
    polynomial_gcd,
    rational_roots,
)

if TYPE_CHECKING:  # resolve_curve imports it when it builds the diagram
    from .enriques import EnriquesDiagram


MAX_POINTS = 500  # blowups before resolve_curve gives up


class ResolutionError(ValueError):
    pass


class NonReducedError(ResolutionError):
    """The curve has a repeated factor through the origin; its resolution
    never terminates.  `factor` is the repeated part gcd(f, f_x, f_y)."""

    def __init__(self, factor: BivariatePolynomial, curve: BivariatePolynomial):
        self.factor = factor
        self.curve = curve
        super().__init__(f"repeated factor {_printed(factor)} in {_printed(curve)}")


class NonRationalTangentError(ResolutionError):
    """The resolution needs a blowup at a point with irrational coordinates.
    `factor` is the binary form, a factor of the tangent cone `form`, whose
    squarefree part of multiplicity >= 2 has no rational root."""

    def __init__(self, form: BivariatePolynomial, factor: BivariatePolynomial):
        self.form = form
        self.factor = factor
        super().__init__(
            f"singular tangent direction not defined over Q: factor {_printed(factor)} "
            f"of the tangent cone {_printed(form)}"
        )


class _Imprecise(Exception):
    """A decision would read a term inside the ideal that a point's equation
    is known modulo; the resolution starts again at a higher precision."""


def multiplicity(f: BivariatePolynomial) -> int:
    """Order of vanishing at the origin."""
    if f.is_zero():
        raise ResolutionError("the zero polynomial has no multiplicity")
    return f.multiplicity()


def _require_reduced(f: BivariatePolynomial):
    """Reject a repeated factor through the origin.  g = gcd(f, f_x, f_y) is
    the product of the repeated factors (each to one power less), so the
    germ is reduced exactly when g is a unit there, i.e. g(0, 0) != 0."""
    g = polynomial_gcd(f, f.derivative("x"), f.derivative("y"))
    if g.degree() > 0 and not g.coefficient(0, 0):
        raise NonReducedError(g, f)


def _tangent_roots(cone: list, den: int) -> Tuple[List[Tuple[Fraction, int]], int]:
    """Rational roots (with multiplicity) of F(1, t) for a homogeneous form
    F, the terms (m, n, numerator) over den of `cone`, plus the multiplicity
    of the direction x = 0 (the t = infinity root).  A form of one term
    x^i y^j has only the roots 0 (j times) and infinity (i times), and no
    polynomial is built for it.  A repeated irrational factor aborts: it
    would force blowups at irrational points."""
    inf_mult = min(m for m, _, _ in cone)
    top = max(m for m, _, _ in cone)
    zero_mult = min(n for _, n, _ in cone)  # F(1, t) = t^zero_mult phi(t)
    roots = [(Fraction(0), zero_mult)] if zero_mult else []
    if inf_mult == top:
        return roots, inf_mult
    phi = [0] * (top - inf_mult + 1)  # times den, which the roots ignore
    for m, _, c in cone:
        phi[top - m] = c
    found, irrational = rational_roots(phi)
    for part, mult in irrational:
        if mult >= 2:
            # not through the constructor: a form made by arithmetic may
            # have any degree, past the constructor's MAX_EXPONENT
            k = len(part) - 1
            factor = _poly_from(((k - j, j, a) for j, a in enumerate(part) if a), 1)
            raise NonRationalTangentError(_poly_from(cone, den), factor)
        # simple irrational factors: smooth transverse branches, no blowup
    return sorted(roots + found), inf_mult


def _directions(cone: list, den: int, axes) -> list:
    """The tangent directions to blow up at a point on the exceptional
    components `axes`, from its tangent cone, the terms (m, n, numerator)
    over den of its least degree: each rational t of the x-chart, and None
    for x = 0 in the y-chart.  A simple root is a smooth point transverse
    to the new component, followed only at a corner (module docstring)."""
    roots, inf_mult = _tangent_roots(cone, den)
    directions = [t for t, k in roots if k >= 2 or (t == 0 and "y" in axes)]
    if inf_mult >= 2 or (inf_mult == 1 and "x" in axes):
        directions.append(None)
    return directions


def _smooth_measure(terms: list, axes) -> Tuple[int, int]:
    """Progress measure at a smooth point of the strict transform, from its
    Newton boundary `terms`: the intersection order with the exceptional
    components through the point, then the number of missing components.
    Decreases strictly along every smooth chain of blowups (a tangency
    drops by one, or a tangent point becomes a corner, whose single
    successor is transverse)."""
    contact = 0
    if "x" in axes:  # the component {x = 0}: order of f(0, y), a vertex
        contact += next(n for m, n, _ in terms if not m)
    if "y" in axes:  # {y = 0}: order of f(x, 0), the other end
        contact += next(m for m, n, _ in terms if not n)
    return (contact, 2 - len(axes))


def _x_order(f: BivariatePolynomial) -> Optional[int]:
    """The order of f(x, 0), read down column 0; None when y divides f."""
    return next((m for m, row in enumerate(f._rows) if row and row[0]), None)


def _needs_blowup(terms: list, axes) -> bool:
    """Is the point of the strict transform with Newton boundary `terms`, on
    the exceptional components `axes`, still unresolved?  A corner of two
    components is.  On a single component, a point is singular or tangent
    to it exactly when it has no linear term transverse to it: y on
    {x = 0}, x on {y = 0}, each a vertex of the boundary when present."""
    if len(axes) == 2:
        return True
    linear = (0, 1) if "x" in axes else (1, 0)
    return all((m, n) != linear for m, n, _ in terms)


_IDENTITY = (1, 0, 0, 1, 0, 0)  # the exponent map (p, q, r, s, u, v) of an anchor


def _resolve_at(f: BivariatePolynomial, precision: int, unchecked=None):
    """Parents, targets, weights and exceptional multiplicities of the
    resolution of f, each point's equation carried modulo the ideal the
    module docstring derives, from f modulo (x^precision) at the root.
    Raises _Imprecise when a decision would read a term inside an ideal.
    Checks f for reducedness, popping it off `unchecked` ([f] by default),
    once the points outnumber deg f or their sum m(m - 1) passes its bound."""
    unchecked = [f] if unchecked is None else unchecked
    d = f.degree()
    noether = 0  # sum of m(m - 1) so far
    # one entry per point still to blow up: its anchor (the equation of its
    # nearest recentred ancestor, or of the root), the exponent map from the
    # anchor's terms to its own, its Newton boundary (the anchor's boundary
    # terms under that map), the ideal (x^a y^b) it is known modulo, the
    # exceptional components through it (axis -> (ancestor index,
    # multiplicity of that component in the total transform of the curve)),
    # its parent and the parent's smooth measure; popped in preorder
    todo = []
    if f.multiplicity() >= 2:
        root = f.mod_monomial(precision, 0)
        todo.append((root, _IDENTITY, _boundary(_leads(root)), precision, 0, {}, None, None))
    parents: List[Optional[int]] = []
    targets: List[Tuple[int, ...]] = []
    weights: List[int] = []
    exc_mult: List[int] = []  # multiplicity of E_i in the total transform
    while todo:
        anchor, chart, terms, a, b, axes, parent, parent_measure = todo.pop()
        if len(parents) >= MAX_POINTS:
            raise ResolutionError(f"resolution exceeded {MAX_POINTS} blowups")
        m = min((i + j for i, j, _ in terms), default=a + b)
        if m >= a + b:  # a + b is the least degree in the ideal
            raise _Imprecise
        noether += m * (m - 1)
        if unchecked and (len(parents) >= d or noether > d * (d - 1)):
            _require_reduced(unchecked.pop())
        if parent is not None:
            assert m <= weights[parent], "multiplicity grew under blowup"
        measure = _smooth_measure(terms, axes) if m == 1 else None
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

        cone = [(i, j, k) for i, j, k in terms if i + j == m]
        directions = _directions(cone, anchor._den, axes)
        c = a + b - m  # the ideal's pullback, as the module docstring derives
        p, q, r, s, u, v = chart
        x_chart = (p + r, q + s, r, s, u + v + m, v)  # (x, y) -> (x, x y), over x^m
        recentred = None  # the x-chart modulo (x^c), shared by the roots t != 0
        # pushed last to first, so that the first direction is popped first
        for t in reversed(directions):
            if t is None:  # the y-chart
                child_axes = {"y": (idx, e_here)}
                if "x" in axes:
                    child_axes["x"] = axes["x"]
                h, h_chart, ha, hb = anchor, (p, q, p + r, q + s, u, u + v + m), a, c
                h_terms = _boundary([(i, i + j - m, k) for i, j, k in terms])
            elif t:  # the x-chart recentred at y = t: the next anchor
                child_axes = {"x": (idx, e_here)}
                if recentred is None:
                    recentred = _mapped(anchor, x_chart, c)
                h, h_chart, ha, hb = recentred.shift_y(t), _IDENTITY, c, 0
                h_terms = _boundary(_leads(h))
            else:
                child_axes = {"x": (idx, e_here)}
                if "y" in axes:
                    child_axes["y"] = axes["y"]
                h, h_chart, ha, hb = anchor, x_chart, c, b
                h_terms = _boundary([(i + j - m, j, k) for i, j, k in terms])
            # row 0 and, on {y = 0}, column 0 lie outside the ideal, so the
            # linear terms and the orders along the axes are known
            assert ha >= 1 and (hb >= 1 or "y" not in child_axes)
            assert _needs_blowup(h_terms, child_axes), "followed a resolved direction"
            todo.append((h, h_chart, h_terms, ha, hb, child_axes, idx, measure))
    return parents, targets, weights, exc_mult


def resolve_curve(f: BivariatePolynomial) -> Tuple[WeightedCluster, EnriquesDiagram]:
    """Weighted cluster and Enriques diagram of the minimal log resolution.

    Weights are the multiplicities of the strict transform at the blown-up
    points; they always satisfy the proximity relations.  A smooth curve
    needs no blowup and yields the empty cluster.
    """
    from .enriques import EnriquesDiagram, cluster_to_tree
    kl = _resolve_cluster(f)
    return kl, EnriquesDiagram(cluster_to_tree(kl.cluster), kl.weights)


def _resolve_cluster(f: BivariatePolynomial) -> WeightedCluster:
    """The weighted cluster of `resolve_curve`, without its diagram: all
    that the lct and the jumping numbers of the curve read."""
    if f.is_zero():
        raise ResolutionError("cannot resolve the zero curve")
    if f.coefficient(0, 0):
        raise ResolutionError("the curve does not pass through the origin")

    unchecked = [f]  # emptied by the one reducedness check, across retries
    precision = (_x_order(f) or f.degree()) + 1  # ord f(x, 0) >= 1, as f(0, 0) = 0
    while True:
        try:
            parents, targets, weights, exc_mult = _resolve_at(f, precision, unchecked)
            break
        except _Imprecise:
            precision *= 2
        except ResolutionError:
            if unchecked:  # a repeated factor outranks every other error
                _require_reduced(unchecked.pop())
            raise

    cluster = Cluster(parents, targets)
    kl = WeightedCluster(cluster, weights)
    assert is_unloaded(kl), "curve multiplicities violated a proximity relation"
    assert _strict_from_total(cluster, weights) == exc_mult, (
        "chart bookkeeping disagrees with the proximity recursion"
    )
    return kl
