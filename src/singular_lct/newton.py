"""Monomial ideals in two variables: staircases, Newton polygons, and the
combinatorial multiplier-ideal calculus.

A monomial ideal is identified with the set of exponents of its monomials;
it is stored by its minimal generators, a finite antichain in N^2.  The
Newton polygon is the convex hull of the exponent set, i.e. the hull of the
generators plus the first quadrant.  Its compact facets carry support
functions g normalized to 1 on the facet, and the multiplier ideal of
xi * a is spanned by the monomials whose exponent vector v satisfies
v + (1,1) strictly inside xi * Newt(a) (Howald's description).

Most operations that evaluate support functions require the cosupport of
the ideal to be the origin, i.e. the ideal must contain a pure power of x
and a pure power of y; then the polygon is cut out in the first quadrant by
the facet inequalities alone.  Unit and principal ideals are rejected with
distinct errors where the theory degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd
from typing import List, Sequence, Tuple

from .poly import BivariatePolynomial

Point = Tuple[int, int]


class MonomialIdealError(ValueError):
    pass


class UnitIdealError(MonomialIdealError):
    """The unit ideal was passed where a proper ideal is required."""


class CosupportError(MonomialIdealError):
    """The ideal's cosupport is not the origin (no pure power on an axis)."""


class InfiniteStaircaseError(MonomialIdealError):
    """A finite staircase was required."""


def _minimal_antichain(points) -> Tuple[Point, ...]:
    # lex order guarantees no later point lies below an accepted one
    keep: List[Point] = []
    for p in sorted(set(points)):
        if not any(q[0] <= p[0] and q[1] <= p[1] for q in keep):
            keep.append(p)
    return tuple(keep)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators (sorted antichain)."""

    generators: Tuple[Point, ...]

    def __init__(self, generators):
        gens = _minimal_antichain(generators)
        if not gens:
            raise MonomialIdealError("the zero ideal has no staircase data")
        if any(m < 0 or n < 0 for m, n in gens):
            raise MonomialIdealError("negative exponents")
        object.__setattr__(self, "generators", gens)

    def is_unit(self) -> bool:
        return self.generators == ((0, 0),)

    def contains(self, m: int, n: int) -> bool:
        return any(a <= m and b <= n for a, b in self.generators)

    def max_exponents(self) -> Point:
        return (
            max(m for m, _ in self.generators),
            max(n for _, n in self.generators),
        )

    def min_exponents(self) -> Point:
        return (
            min(m for m, _ in self.generators),
            min(n for _, n in self.generators),
        )

    def cosupport_at_origin(self) -> bool:
        """True iff the ideal contains pure powers x^a and y^b."""
        return self.min_exponents() == (0, 0)

    def __str__(self) -> str:
        def mono(m, n):
            if (m, n) == (0, 0):
                return "1"
            parts = []
            if m:
                parts.append("x" if m == 1 else f"x^{m}")
            if n:
                parts.append("y" if n == 1 else f"y^{n}")
            return "*".join(parts)

        return "(" + ", ".join(mono(m, n) for m, n in self.generators) + ")"


@dataclass(frozen=True)
class NewtonFacet:
    """Compact facet of a Newton polygon, from (m0, n0) down to (m1, n1).

    The direction is (p, -q) with gcd(p, q) = 1 and the facet covers d
    lattice steps.  The support function g(m, n) = (q*m + p*n) / level
    equals 1 exactly on the facet and is >= 1 on the whole polygon.
    """

    p: int
    q: int
    d: int
    start: Point  # upper-left vertex (smaller m, larger n)
    end: Point  # lower-right vertex

    @property
    def level(self) -> int:
        return self.q * self.start[0] + self.p * self.start[1]

    def support(self, m, n) -> Fraction:
        return Fraction(self.q * m + self.p * n, self.level)

    @property
    def slope(self) -> Fraction:
        return Fraction(-self.q, self.p)


def term_ideal(f: BivariatePolynomial) -> MonomialIdeal:
    """Monomial ideal generated by the monomials of f."""
    if f.is_zero():
        raise MonomialIdealError("term ideal of the zero polynomial")
    return MonomialIdeal(f.support())


def _hull_vertices(gens: Sequence[Point]) -> List[Point]:
    """Vertices of the lower-left boundary of conv(gens) + R_{>=0}^2."""
    pts = sorted(gens)  # m ascending; minimal antichain gives n descending
    hull: List[Point] = []
    for p in pts:
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
            if cross <= 0:  # non-convex or collinear: drop the middle point
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def newton_facets(a: MonomialIdeal) -> List[NewtonFacet]:
    """Compact facets of Newt(a), steepest slope first."""
    verts = _hull_vertices(a.generators)
    facets = []
    for (m0, n0), (m1, n1) in zip(verts, verts[1:]):
        dm, dn = m1 - m0, n0 - n1
        d = gcd(dm, dn)
        facets.append(NewtonFacet(p=dm // d, q=dn // d, d=d, start=(m0, n0), end=(m1, n1)))
    return facets


def integral_closure(a: MonomialIdeal) -> MonomialIdeal:
    """Minimal generators of the monomials lying in Newt(a)."""
    facets = newton_facets(a)
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


def lct_monomial(a: MonomialIdeal) -> Fraction:
    """Log-canonical threshold of a monomial ideal with 0-dimensional
    cosupport: the minimum of the facet support functions at (1, 1)."""
    if a.is_unit():
        raise UnitIdealError("the unit ideal has no log-canonical threshold")
    if not a.cosupport_at_origin():
        raise CosupportError(
            f"cosupport of {a} is not the origin; a pure power of each "
            "variable is required"
        )
    return min(f.support(1, 1) for f in newton_facets(a))


def howald_multiplier(a: MonomialIdeal, xi: Fraction) -> MonomialIdeal:
    """Multiplier ideal of xi * a: monomials v with v + (1,1) in the strict
    interior of xi * Newt(a).  Boundary points are excluded, which makes the
    threshold itself a jumping number."""
    xi = Fraction(xi)
    if xi <= 0:
        raise MonomialIdealError("scaling factor must be positive")
    num, den = xi.numerator, xi.denominator
    facets = newton_facets(a)
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


def jumping_numbers_monomial(a: MonomialIdeal, bound: Fraction) -> List[Fraction]:
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
    if not a.cosupport_at_origin():
        raise CosupportError(f"cosupport of {a} is not the origin")
    facets = newton_facets(a)
    max_exp = max(a.max_exponents())
    size = max_exp + ceil(bound * max_exp)
    jumps = set()
    for m in range(size + 1):
        for n in range(size + 1):
            xi = min(f.support(m + 1, n + 1) for f in facets)
            if xi <= bound:
                jumps.add(xi)
    return sorted(jumps)


@dataclass(frozen=True)
class Staircase:
    """Finite or infinite staircase in N^2, the complement of a monomial
    ideal's exponent set.  Stored by the ideal's minimal generators; the
    horizontal slice widths are derived on demand."""

    generators: Tuple[Point, ...]

    def __init__(self, generators):
        object.__setattr__(self, "generators", _minimal_antichain(generators))
        if not self.generators:
            raise MonomialIdealError("staircase of the zero ideal is all of N^2")

    @classmethod
    def from_ideal(cls, a: MonomialIdeal) -> "Staircase":
        return cls(a.generators)

    @classmethod
    def empty(cls) -> "Staircase":
        return cls(((0, 0),))

    @classmethod
    def from_slices(cls, widths: Sequence[int]) -> "Staircase":
        widths = list(widths)
        while widths and widths[-1] == 0:
            widths.pop()
        if any(w < 0 for w in widths):
            raise MonomialIdealError("negative slice width")
        if any(a < b for a, b in zip(widths, widths[1:])):
            raise MonomialIdealError("slice widths must be non-increasing")
        if not widths:
            return cls.empty()
        gens = [(widths[0], 0)]
        for j in range(1, len(widths)):
            if widths[j] < widths[j - 1]:
                gens.append((widths[j], j))
        gens.append((0, len(widths)))
        return cls(gens)

    def to_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self.generators)

    def is_finite(self) -> bool:
        return MonomialIdeal(self.generators).cosupport_at_origin() or self.is_empty()

    def is_empty(self) -> bool:
        return self.generators == ((0, 0),)

    def slices(self) -> Tuple[int, ...]:
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

    def column_slices(self) -> Tuple[int, ...]:
        """Vertical slice heights, column 0 first."""
        return Staircase(tuple((n, m) for m, n in self.generators)).slices()

    def size(self) -> int:
        return sum(self.slices())

    def __str__(self) -> str:
        return f"Staircase{self.slices() if self.is_finite() else self.generators}"


def staircase_sum(a: Staircase, b: Staircase, direction: str) -> Staircase:
    """Slicewise sum of two finite staircases.

    direction 'horizontal': row widths add; 'vertical': column heights add.
    """
    if direction not in ("horizontal", "vertical"):
        raise MonomialIdealError(f"unknown direction {direction!r}")
    if not (a.is_finite() and b.is_finite()):
        raise InfiniteStaircaseError("staircase sums require finite staircases")
    if direction == "horizontal":
        ra, rb = a.slices(), b.slices()
        rows = [x + y for x, y in zip(ra, rb)]
        longer = ra if len(ra) > len(rb) else rb
        rows.extend(longer[len(rows):])
        return Staircase.from_slices(rows)
    ca, cb = a.column_slices(), b.column_slices()
    cols = [x + y for x, y in zip(ca, cb)]
    longer = ca if len(ca) > len(cb) else cb
    cols.extend(longer[len(cols):])
    transposed = Staircase.from_slices(cols)
    return Staircase(tuple((n, m) for m, n in transposed.generators))


def triangle(c: int) -> Staircase:
    """The staircase of the c-th power of the maximal ideal: the lattice
    points with m + n < c, with slice widths (c, c-1, ..., 1)."""
    if c <= 0:
        raise MonomialIdealError("triangle needs a positive side length")
    return Staircase(tuple((i, c - i) for i in range(c + 1)))
