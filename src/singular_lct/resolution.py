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

Branches whose tangent direction is irrational are only tolerated while
they need no further blowup (a simple, hence smooth and transverse, factor
of the tangent cone); a singular continuation at an irrational point raises
NonRationalTangentError, naming the offending form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .cluster import (
    EMPTY_CLUSTER,
    Cluster,
    WeightedCluster,
    _strict_from_total,
    is_unloaded,
)
from .enriques import EnriquesDiagram, cluster_to_tree
from .poly import BivariatePolynomial, _poly_from, polynomial_gcd, rational_roots


class ResolutionError(ValueError):
    pass


class NonReducedError(ResolutionError):
    """The curve has a repeated factor through the origin; its resolution
    never terminates.  `factor` is the repeated part gcd(f, f_x, f_y)."""

    def __init__(self, factor: BivariatePolynomial, curve: BivariatePolynomial):
        self.factor = factor
        self.curve = curve
        super().__init__(f"repeated factor {factor} in {curve}")


class NonRationalTangentError(ResolutionError):
    """The resolution needs a blowup at a point with irrational coordinates.
    `factor` is the binary form, a factor of the tangent cone `form`, whose
    squarefree part of multiplicity >= 2 has no rational root."""

    def __init__(self, form: BivariatePolynomial, factor: BivariatePolynomial):
        self.form = form
        self.factor = factor
        super().__init__(
            f"singular tangent direction not defined over Q: factor {factor} "
            f"of the tangent cone {form}"
        )


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
    support = form.support()
    inf_mult = min(m for m, _ in support)
    zero_mult = min(n for _, n in support)  # F(1, t) = t^zero_mult phi(t)
    roots = [(Fraction(0), zero_mult)] if zero_mult else []
    if len(support) == 1:
        return roots, inf_mult
    d = form.degree()
    phi = [form.coefficient(d - n, n) for n in range(zero_mult, d - inf_mult + 1)]
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
    for axis in axes:
        if axis == "x":  # the component {x = 0}: order of f(0, y)
            contact += min(n for m, n in f.support() if m == 0)
        else:  # {y = 0}: order of f(x, 0)
            contact += min(m for m, n in f.support() if n == 0)
    return (contact, 2 - len(axes))


def _needs_blowup(g: BivariatePolynomial, axes) -> bool:
    """Is the point of the strict transform g, on the exceptional components
    `axes`, still unresolved?  A singular point or a corner of two components
    is; a smooth branch on a single component only when tangent to it."""
    if g.multiplicity() >= 2 or len(axes) == 2:
        return True
    a, b = g.coefficient(1, 0), g.coefficient(0, 1)
    return ("x" in axes and b == 0) or ("y" in axes and a == 0)


def resolve_curve(
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

        roots, inf_mult = _tangent_roots(g.leading_form())
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
            if _needs_blowup(h, child_axes):
                todo.append((h, child_axes, idx, measure))

    if not parents:
        empty = WeightedCluster(EMPTY_CLUSTER, ())
        return empty, EnriquesDiagram(cluster_to_tree(EMPTY_CLUSTER), ())

    cluster = Cluster(parents, targets)
    kl = WeightedCluster(cluster, weights)
    assert is_unloaded(kl), "curve multiplicities violated a proximity relation"
    assert _strict_from_total(cluster, weights) == exc_mult, (
        "chart bookkeeping disagrees with the proximity recursion"
    )
    diagram = EnriquesDiagram(cluster_to_tree(cluster), weights)
    return kl, diagram
