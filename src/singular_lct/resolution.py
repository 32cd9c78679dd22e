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
chart is built.  Row 0 of the x-chart is F(1, y) and column 0 of the
y-chart is F(x, 1), so the strict transform meets the new component E in
direction t with intersection multiplicity k, the multiplicity of t as a
root of F.  For k >= 2 it is singular or tangent to E there; for k = 1 it
is smooth and transverse to E, and the point needs a blowup only as a
corner, t = 0 on {y = 0} or t = infinity on {x = 0}.  Only the followed
directions get a chart, each of which asserts that it needs the blowup.

Branches whose tangent direction is irrational are only tolerated while
they need no further blowup (a simple, hence smooth and transverse, factor
of the tangent cone); a singular continuation at an irrational point raises
NonRationalTangentError, naming the offending form.

The resolution reads only the multiplicity and the tangent cone at each
point, and near the exceptional axes the lowest terms along them, so each
point carries its equation only modulo a monomial ideal (x^a y^b), cut
there.  The root is f modulo (x^P), first for P = e + 1, e the order of
f(x, 0) (the curve's intersection number with y = 0), which bounds the
root's multiplicity, or for P = deg f + 1, f itself, when y divides f.
At a point of multiplicity m < a + b, the least degree in the ideal, the
ideal pulls back to (x^(a+b-m) y^b) in the x-chart and to (x^a y^(a+b-m))
in the y-chart, and a shift y -> y + t, t != 0, maps (x^c y^b) into (x^c):
so each child is cut to that ideal and its equation is still exact outside
it.  The x-chart shear places only the terms outside (x^c y^b) when t = 0
is a direction, else outside (x^c), and a t != 0 takes its rows below c.
The multiplicity and the tangent cone are read only when m < a + b.
The other decisions read the linear terms and the lowest terms along the
axes through the point, in row 0 and column 0, which lie outside the
ideal: a >= 1 throughout, and b >= 1 at a point on {y = 0}, since only a
y-chart puts it there and a shift takes it away.  When m < a + b fails,
the attempt gives up and the resolution starts again from the root with
P doubled.  So every decision, error and assertion is the one the exact
equations give, and only the cost depends on P.  Success is monotone in
P, as a larger P gives every point a smaller ideal, so a germ of degree d
takes at most ceil(log2((d + 1)/(e + 1))) more attempts than from d + 1.

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
    _blowup_x_chart,
    _blowup_y_chart,
    _leading_form,
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


def _tangent_roots(form: BivariatePolynomial) -> Tuple[List[Tuple[Fraction, int]], int]:
    """Rational roots (with multiplicity) of F(1, t) for a homogeneous form
    F, plus the multiplicity of the direction x = 0 (the t = infinity root).
    A repeated irrational factor aborts: it would force blowups at
    irrational points."""
    rows = form._rows  # row m holds at most the term x^m y^(deg - m)
    inf_mult = next(m for m, row in enumerate(rows) if row)
    zero_mult = len(rows[-1]) - 1  # F(1, t) = t^zero_mult phi(t)
    roots = [(Fraction(0), zero_mult)] if zero_mult else []
    if inf_mult == len(rows) - 1:
        return roots, inf_mult
    phi = [row[-1] if row else 0 for row in reversed(rows[inf_mult:])]  # times _den
    found, irrational = rational_roots(phi)
    for part, mult in irrational:
        if mult >= 2:
            # not through the constructor: a form made by arithmetic may
            # have any degree, past the constructor's MAX_EXPONENT
            k = len(part) - 1
            factor = _poly_from(((k - j, j, a) for j, a in enumerate(part) if a), 1)
            raise NonRationalTangentError(form, factor)
        # simple irrational factors: smooth transverse branches, no blowup
    return sorted(roots + found), inf_mult


def _smooth_measure(f: BivariatePolynomial, axes) -> Tuple[int, int]:
    """Progress measure at a smooth point of the strict transform: the
    intersection order with the exceptional components through the point,
    then the number of missing components.  Decreases strictly along every
    smooth chain of blowups (a tangency drops by one, or a tangent point
    becomes a corner, whose single successor is transverse)."""
    contact = 0
    if "x" in axes:  # the component {x = 0}: order of f(0, y), along row 0
        contact += next(n for n, c in enumerate(f._rows[0]) if c)
    if "y" in axes:  # {y = 0}: order of f(x, 0), down column 0
        contact += _x_order(f)
    return (contact, 2 - len(axes))


def _x_order(f: BivariatePolynomial) -> Optional[int]:
    """The order of f(x, 0), read down column 0; None when y divides f."""
    return next((m for m, row in enumerate(f._rows) if row and row[0]), None)


def _needs_blowup(g: BivariatePolynomial, axes) -> bool:
    """Is the point of the strict transform g, on the exceptional components
    `axes`, still unresolved?  A corner of two components is.  On a single
    component, a point is singular or tangent to it exactly when g has no
    linear term transverse to it: y on {x = 0}, x on {y = 0}."""
    if len(axes) == 2:
        return True
    return not (g.coefficient(0, 1) if "x" in axes else g.coefficient(1, 0))


def _charts(g: BivariatePolynomial, m: int, a: int, b: int, directions):
    """The equation of the point in each tangent direction of g, a rational
    t in the x-chart recentred at y = t or None for x = 0 in the y-chart,
    with the ideal (x^a' y^b') it is known modulo, for g of multiplicity m
    known modulo (x^a y^b), m < a + b."""
    c = a + b - m  # the ideal's pullback, as the module docstring derives
    x_chart = None  # shared by the rational roots, cut to (x^c y^b) if 0 is one
    out = []
    for t in directions:
        if t is None:
            out.append((_blowup_y_chart(g, m).mod_monomial(a, c), a, c))
            continue
        if x_chart is None:
            x_chart = _blowup_x_chart(g, m, c, b if 0 in directions else 0)
        if t:
            out.append((x_chart.mod_monomial(c, 0).shift_y(t), c, 0))
        else:
            out.append((x_chart, c, b))
    return out


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
    # one entry per point still to blow up: its local equation, known
    # modulo (x^a y^b), the exceptional components through it (axis ->
    # (ancestor index, multiplicity of that component in the total
    # transform of the curve)), its parent and the parent's smooth
    # measure; popped in preorder
    todo = []
    if f.multiplicity() >= 2:
        todo.append((f.mod_monomial(precision, 0), precision, 0, {}, None, None))
    parents: List[Optional[int]] = []
    targets: List[Tuple[int, ...]] = []
    weights: List[int] = []
    exc_mult: List[int] = []  # multiplicity of E_i in the total transform
    while todo:
        g, a, b, axes, parent, parent_measure = todo.pop()
        if len(parents) >= MAX_POINTS:
            raise ResolutionError(f"resolution exceeded {MAX_POINTS} blowups")
        m = g.multiplicity() if g else a + b
        if m >= a + b:  # a + b is the least degree in the ideal
            raise _Imprecise
        noether += m * (m - 1)
        if unchecked and (len(parents) >= d or noether > d * (d - 1)):
            _require_reduced(unchecked.pop())
        if parent is not None:
            assert m <= weights[parent], "multiplicity grew under blowup"
        measure = _smooth_measure(g, axes) if m == 1 else None
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

        roots, inf_mult = _tangent_roots(_leading_form(g, m))
        # a simple root of the cone is a smooth point transverse to the new
        # component, followed only at a corner (module docstring)
        directions = [t for t, k in roots if k >= 2 or (t == 0 and "y" in axes)]
        if inf_mult >= 2 or (inf_mult == 1 and "x" in axes):
            directions.append(None)
        # pushed last to first, so that the first direction is popped first
        for t, (h, ha, hb) in reversed(list(zip(directions, _charts(g, m, a, b, directions)))):
            if t is None:
                child_axes = {"y": (idx, e_here)}
                if "x" in axes:
                    child_axes["x"] = axes["x"]
            else:
                child_axes = {"x": (idx, e_here)}
                if t == 0 and "y" in axes:
                    child_axes["y"] = axes["y"]
            # row 0 and, on {y = 0}, column 0 lie outside the ideal, so the
            # linear terms and the orders along the axes are known
            assert ha >= 1 and (hb >= 1 or "y" not in child_axes)
            assert _needs_blowup(h, child_axes), "followed a resolved direction"
            todo.append((h, ha, hb, child_axes, idx, measure))
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
