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

The jumping numbers are the values of nu at the lattice points m, n >= 1,
read as integer keys nu * L, L the lcm of the row levels.  On a row of
fixed n each face is least on one range of m, where its keys form one
arithmetic progression, so the scan adds one range per facet and row and
one per axis face, and it stops at the first row whose facets and
horizontal face have no key within the bound (`jumping_numbers_monomial`
gives the proof).

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
    run of collinear segments one facet.  A boundary point collinear with
    the two corners before it (a zero cross product) replaces the last of
    them, and each facet then takes one gcd."""
    corners: List[Point] = []
    for m, n in _boundary(a.generators):
        if len(corners) > 1:
            (m0, n0), (m1, n1) = corners[-2], corners[-1]
            if (m1 - m0) * (n - n1) == (n1 - n0) * (m - m1):  # collinear: one facet
                corners.pop()
        corners.append((m, n))
    facets = []
    for (m0, n0), (m1, n1) in zip(corners, corners[1:]):
        d = gcd(m1 - m0, n0 - n1)
        facets.append(NewtonFacet((m1 - m0) // d, (n0 - n1) // d, d, (m0, n0), (m1, n1)))
    return facets


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


def _keys(first: int, last: int, step: int) -> range:
    """The keys first, first + step, ... up to last that a face reads on a
    row: every key the jump scan reads passes through here."""
    return range(first, last + 1, step)


def jumping_numbers_monomial(a: MonomialIdeal, bound: Fraction) -> List[Fraction]:
    """All jumping numbers of the monomial ideal up to and including bound.

    The multiplier ideal loses v exactly at xi = nu(v + (1,1)), so the jumps
    are the values nu(m, n) <= bound with m, n >= 1.  They are read as
    integer keys K = nu * L, L the lcm of the facet levels and of the
    nonzero m_min and n_min: each face (c, d, level) gives (c L / level) m +
    (d L / level) n, and K is the least of these.  Let (a_0, b_0), ...,
    (a_k, b_k) be the corners of Newt(a), m ascending.  On row n the
    vertical face is least for m <= n a_0 / b_0, the facet from corner i to
    corner i + 1 for n a_i / b_i < m <= n a_(i+1) / b_(i+1), and the
    horizontal face for m > n a_k / b_k (a ratio over 0 is infinite).  These
    ranges split the row, and on each a facet's keys are one arithmetic
    progression with step alpha = q L / level, capped at floor(bound L).
    The vertical face's key m L / m_min does not depend on n, nor the
    horizontal face's n L / n_min on m.  A facet's keys on row n lie in the
    class beta n mod alpha, beta = p L / level, which is the class of row
    n' exactly when n = n' mod q; within a class both ends of the range grow
    with n, so a row adds only the keys above the last added in its class.

    Stop rule: the scan ends at the first row n* on which no facet and not
    the horizontal face has a key up to the cap.  If one of them has
    nu(m, n + 1) <= bound, then m / n > m / (n + 1) > a_0 / b_0, so (m, n)
    lies outside the vertical range of row n, and nu(m, n) <= nu(m, n + 1),
    since nu only grows with n: row n has such a key too.  So no row past
    n* has one.  For n > n* and m <= n a_0 / b_0 with m L / m_min within the
    cap, (m, n*) lies in the vertical range of row n*, or else row n* would
    have nu(m, n*) <= nu(m, n) <= bound off it.  So the vertical face's keys
    are those with m <= n* a_0 / b_0, added once at the end, and the
    horizontal face's are the multiples of L / n_min up to the cap.

    Each key a facet reads is a lattice point (m, n) with m <= bound M and
    n <= bound N, (M, N) the top exponents of the generators, and the
    vertical and horizontal faces read at most floor(bound M) and
    floor(bound N) keys.  So the scan reads fewer than (floor(bound M) + 2)
    (floor(bound N) + 3) keys, the lattice points the earlier scan of nu
    one point at a time could read; a larger count than MAX_LATTICE_POINTS
    raises JumpingBoundError before the scan starts.
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
    facets = newton_facets(a)
    (a0, b0), (_, bk) = a.generators[0], a.generators[-1]
    common = lcm(*(f.level for f in facets), a0 or 1, bk or 1)
    cap = bound.numerator * common // bound.denominator
    # per facet: alpha and beta, q, its two corners, and the last key added
    # in each class, by n mod q
    faces = [
        (f.q * common // f.level, f.p * common // f.level, f.q, *f.start, *f.end, {})
        for f in facets
    ]
    last_row = cap * bk // common  # the horizontal face has keys up to here
    keys: set = set()
    for n in count(1):
        read = False
        for alpha, beta, q, m0, n0, m1, n1, tops in faces:
            first = alpha * (n * m0 // n0 + 1) + beta * n
            last = min(alpha * (n * m1 // n1) + beta * n, cap) if n1 else cap
            if first <= last:
                read, top = True, tops.get(n % q, 0)
                if top < last:  # first and top lie in one class mod alpha
                    keys.update(_keys(first if first > top else top + alpha, last, alpha))
                    tops[n % q] = last
        if not read and n > last_row:
            break
    if a0:  # the vertical face: m <= n* a0 / b0, every m when b0 = 0
        step = common // a0
        keys.update(_keys(step, min(step * (n * a0 // b0), cap) if b0 else cap, step))
    if bk:
        keys.update(_keys(common // bk, cap, common // bk))
    return [Fraction(k, common) for k in sorted(keys)]


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
