"""Monomial ideals in two variables: staircases, Newton polygons, and the
combinatorial multiplier-ideal calculus.

A monomial ideal is identified with the set of exponents of its monomials;
it is stored by its minimal generators, a finite antichain in N^2.  Its
Newton polygon Newt(a), the hull of the generators plus the first quadrant,
is cut out by rows c*m + d*n >= level: the compact facets and the unbounded
faces off the axes.  The lct, the integral closure, the multiplier ideals
and the jumping numbers all read one Newton function nu(v) = max{t : v in
t * Newt(a)}, the least row ratio; the multiplier ideal of xi * a is
spanned by the v with nu(v + (1,1)) > xi (Howald, "Multiplier ideals of
monomial ideals").  So every proper nonzero monomial ideal gets its values,
whether or not it contains a pure power of each variable; only the unit
ideal, which has no rows, is rejected.

The generators and facets are read off `poly`'s one Newton boundary: its
staircase pass `_antichain` and its lower hull `_boundary`, which the
resolution walks without importing this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, zip_longest
from math import gcd, lcm
from typing import List, Sequence, Tuple

from ._record import Record
from .poly import BivariatePolynomial, _antichain, _boundary, _leads

Point = Tuple[int, int]

MAX_LATTICE_POINTS = 4 * 10**6  # that jumping_numbers_monomial may read


class MonomialIdealError(ValueError):
    pass


class UnitIdealError(MonomialIdealError):
    """The unit ideal was passed where a proper ideal is required."""


class JumpingBoundError(MonomialIdealError):
    """The bound asks jumping_numbers_monomial to read more lattice points
    than MAX_LATTICE_POINTS."""


class InfiniteStaircaseError(MonomialIdealError):
    """A finite staircase was required."""


class MonomialIdeal(Record):
    """Monomial ideal given by its minimal generators (sorted antichain)."""

    generators: Tuple[Point, ...]

    def __init__(self, generators):
        gens = tuple(_antichain(set(generators)))  # an unhashable point is a TypeError
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


class NewtonFacet(Record):
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
    """Monomial ideal generated by the monomials of f, of which the row
    leads are enough."""
    if f.is_zero():
        raise MonomialIdealError("term ideal of the zero polynomial")
    return MonomialIdeal((m, n) for m, n, _ in _leads(f))


def newton_facets(a: MonomialIdeal) -> List[NewtonFacet]:
    """Compact facets of Newt(a), steepest slope first: the segments of the
    Newton boundary of the generators (m ascending, so n descending), each
    run of collinear segments one facet."""
    runs: list = []  # (p, q, d, start, end) of each facet
    hull = _boundary(a.generators)
    for (m0, n0), (m1, n1) in zip(hull, hull[1:]):
        d = gcd(m1 - m0, n0 - n1)
        p, q = (m1 - m0) // d, (n0 - n1) // d
        if runs and runs[-1][:2] == (p, q):  # collinear: one facet
            _, _, before, (m0, n0), _ = runs.pop()
            d += before
        runs.append((p, q, d, (m0, n0), (m1, n1)))
    return [NewtonFacet(*run) for run in runs]


def _rows(a: MonomialIdeal) -> List[Tuple[int, int, int]]:
    """Rows (c, d, level) with v in Newt(a) iff c*m + d*n >= level on each:
    the compact facets, then the unbounded faces off the axes."""
    m_min, n_min = a.min_exponents()
    rows = [(f.q, f.p, f.level) for f in newton_facets(a)]
    return rows + [r for r in ((1, 0, m_min), (0, 1, n_min)) if r[2]]


def _nu(rows, m: int, n: int) -> Tuple[int, int]:
    """nu(m, n), the least row ratio by cross-multiplying, as a reduced
    (numerator, denominator)."""
    top, bottom = rows[0][0] * m + rows[0][1] * n, rows[0][2]
    for c, d, level in rows[1:]:
        if (c * m + d * n) * bottom < top * level:
            top, bottom = c * m + d * n, level
    g = gcd(top, bottom)
    return top // g, bottom // g


def row_start(rows, n: int, xi: Fraction, strict: bool):
    """Least m >= 0 with nu(m, n) >= xi (> xi if strict), or None when an
    unbounded face with c = 0 rules out the whole row n."""
    m = 0
    for c, d, level in rows:
        # den*(c*m + d*n) >= num*level, or > by one more on integers
        need = xi.numerator * level - xi.denominator * d * n + strict
        if need > 0:
            if not c:
                return None
            m = max(m, -(-need // (xi.denominator * c)))
    return m


def _level_set(a: MonomialIdeal, xi: Fraction, strict: bool, shift: int, last: int):
    """Generators of {v : nu(v + (shift, shift)) >= xi (> if strict)}, read
    row by row up to row `last`, from which on the vertical face decides."""
    rows, gens = _rows(a), []
    for n in range(last + 1):
        m = row_start(rows, n + shift, xi, strict)
        if m is not None and (not gens or max(m - shift, 0) < gens[-1][0]):
            gens.append((max(m - shift, 0), n))
    return MonomialIdeal(gens)


def integral_closure(a: MonomialIdeal) -> MonomialIdeal:
    """Minimal generators of the monomials lying in Newt(a): nu(v) >= 1."""
    return _level_set(a, Fraction(1), False, 0, a.max_exponents()[1])


def lct_monomial(a: MonomialIdeal) -> Fraction:
    """Log-canonical threshold of a proper monomial ideal: nu(1, 1)."""
    if a.is_unit():
        raise UnitIdealError("the unit ideal has no log-canonical threshold")
    return Fraction(*_nu(_rows(a), 1, 1))


def howald_multiplier(a: MonomialIdeal, xi: Fraction) -> MonomialIdeal:
    """Multiplier ideal of xi * a: monomials v with v + (1,1) in the strict
    interior of xi * Newt(a), i.e. nu(v + (1,1)) > xi.  Boundary points are
    excluded, which makes the threshold itself a jumping number."""
    xi = Fraction(xi)
    if xi <= 0:
        raise MonomialIdealError("scaling factor must be positive")
    # from n + 1 > xi * n_top on, only the vertical face binds
    return _level_set(a, xi, True, 1, xi.numerator * a.max_exponents()[1] // xi.denominator)


def _scan_size(m_top: int, n_top: int, bound: Fraction) -> int:
    """The most lattice points `jumping_numbers_monomial` reads up to a
    positive bound on an ideal with top exponents (m_top, n_top)."""
    n, d = bound.numerator, bound.denominator
    return (n * m_top // d + 2) * (n * n_top // d + 3)


def jumping_numbers_monomial(a: MonomialIdeal, bound: Fraction) -> List[Fraction]:
    """All jumping numbers of the monomial ideal up to and including bound.

    The multiplier ideal loses v exactly at xi = nu(v + (1,1)), so the jumps
    are these values.  Rows n + 1 = 1, 2, ... are read up to the row start
    for bound; a row held down by the horizontal face (no row start) is read
    until its value stops changing.  Values only grow with n, so the scan
    ends at an empty row or at a row equal to the one before it, whose
    values the vertical face holds from then on.

    The scan reads at most (floor(bound M) + 2) (floor(bound N) + 3) points,
    (M, N) the top exponents of the generators, so a larger count than
    MAX_LATTICE_POINTS raises JumpingBoundError before it starts.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise MonomialIdealError("bound must be positive")
    if a.is_unit():
        raise UnitIdealError("the unit ideal has no jumping numbers")
    work = _scan_size(*a.max_exponents(), bound)
    if work > MAX_LATTICE_POINTS:
        raise JumpingBoundError(
            f"bound {bound} may read {work} lattice points, more than {MAX_LATTICE_POINTS}"
        )
    rows, jumps, previous = _rows(a), set(), None
    for n in count(1):
        end = row_start(rows, n, bound, True)
        row: List[Tuple[int, int]] = []
        for m in count(1) if end is None else range(1, end):
            value = _nu(rows, m, n)
            if row and value == row[-1]:  # held by the horizontal face from here
                break
            row.append(value)
        if not row or row == previous:
            # in the order of the integers v * common, common the lcm of the
            # denominators: no Fraction comparisons
            common = lcm(*(den for _, den in jumps))
            ordered = sorted(jumps, key=lambda v: v[0] * (common // v[1]))
            return [Fraction(*v) for v in ordered]
        jumps.update(row)
        previous = row


class Staircase(Record):
    """Finite or infinite staircase in N^2, the complement of a monomial
    ideal's exponent set.  Stored by the ideal's minimal generators; the
    horizontal slice widths are derived on demand."""

    generators: Tuple[Point, ...]

    def __init__(self, generators):
        object.__setattr__(self, "generators", tuple(_antichain(set(generators))))
        if not self.generators:
            raise MonomialIdealError("staircase of the zero ideal is all of N^2")
        if any(m < 0 or n < 0 for m, n in self.generators):
            raise MonomialIdealError("negative exponents")

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
        # the antichain runs from its least m to its least n
        gens = self.generators
        return gens[0][0] == 0 == gens[-1][1]

    def is_empty(self) -> bool:
        return self.generators == ((0, 0),)

    def slices(self) -> Tuple[int, ...]:
        """Horizontal slice widths, row 0 first (a non-increasing sequence)."""
        if self.is_empty():
            return ()
        if not self.is_finite():
            raise InfiniteStaircaseError(f"staircase of {self.generators} is infinite")
        # the generators run from (0, height) down to (width, 0); the rows
        # from n up to, not including, the previous generator's n have width m
        gens = self.generators[::-1]
        widths: List[int] = []
        for (m, n), (_, top) in zip(gens, gens[1:]):
            widths += [m] * (top - n)
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

    direction 'horizontal': row widths add; 'vertical': column heights add,
    and the rows of a sum of conjugates are the two row lists merged in
    decreasing order.
    """
    if direction not in ("horizontal", "vertical"):
        raise MonomialIdealError(f"unknown direction {direction!r}")
    if not (a.is_finite() and b.is_finite()):
        raise InfiniteStaircaseError("staircase sums require finite staircases")
    ra, rb = a.slices(), b.slices()
    if direction == "horizontal":
        rows = [x + y for x, y in zip_longest(ra, rb, fillvalue=0)]
    else:
        rows = sorted([*ra, *rb], reverse=True)
    return Staircase.from_slices(rows)


def triangle(c: int) -> Staircase:
    """The staircase of the c-th power of the maximal ideal: the lattice
    points with m + n < c, with slice widths (c, c-1, ..., 1)."""
    if c <= 0:
        raise MonomialIdealError("triangle needs a positive side length")
    return Staircase(tuple((i, c - i) for i in range(c + 1)))
