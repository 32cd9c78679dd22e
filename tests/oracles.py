"""Independent brute-force oracles used to freeze expected values.

Everything here avoids the library's facet machinery: membership in the
Newton polyhedron is decided by exhibiting a convex combination of two
generators dominated by the point (Caratheodory in the plane, plus the
recession orthant), with exact Fraction arithmetic throughout.

`curve_jumps_by_candidate_scan` is the reference for the next-jump
iteration of `jumping_numbers_curve`: it tests every candidate (k+j)/e,
comparing completions just below and at it, and asserts that the
multiplier cluster never changes between candidates.
"""

from fractions import Fraction
from math import ceil

from singular_lct.cluster import (
    ClusterError,
    _complete_strict,
    _strict_from_total,
    is_unloaded,
    log_discrepancies,
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
    of the multiplier ideal (evaluated just below and at each candidate)."""
    from singular_lct import MonomialIdeal, newton_facets

    bound = Fraction(bound)
    facets = newton_facets(MonomialIdeal(gens))
    mx = max(max(m for m, _ in gens), max(n for _, n in gens))
    size = mx + ceil(bound * mx)
    candidates = set()
    for m in range(size + 1):
        for n in range(size + 1):
            for f in facets:
                value = f.support(m + 1, n + 1)
                if value <= bound:
                    candidates.add(value)
    jumps = []
    previous = None
    for xi in sorted(candidates):
        here = multiplier_gens(gens, xi)
        below = multiplier_gens(gens, (previous + xi) / 2 if previous else xi / 2)
        if here != below:
            jumps.append(xi)
        previous = xi
    return jumps


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
        between = _complete_strict(c, demand_at(mid), warm=prev_e)
        assert between == prev_e, "multiplier cluster changed off the candidate grid"
        at = _complete_strict(c, demand_at(xi), warm=between)
        if at != prev_e:
            jumps.append(xi)
        prev_e, prev_xi = at, xi
    return jumps
