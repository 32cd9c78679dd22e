"""Bivariate polynomials over the rationals, with a small text grammar.

A polynomial is stored as integer rows over one denominator: rows[m][n] is
the numerator of the coefficient of x^m * y^n, with no trailing zero in a
row or in the list of rows (the level-1 dense layout of the gcd code below),
and the denominator is positive and coprime to the content of the rows.  So
equal polynomials store equal data, every operation runs on integers, and a
`fractions.Fraction` is built only where a coefficient is read out.  The
layout is dense in the exponents, so the public constructor and `monomial`
reject an exponent above MAX_EXPONENT, as the parser does (below); the
arithmetic, the blowup charts and the shifts build their results directly
and are not bounded.  A shift y -> y + c runs synthetic division on each
integer row.  Everything here is immutable by convention and all
arithmetic is exact.

A product adds each nonzero term pair straight into its output row (`_mul`
at level 1); in the parser, a product by one term moves and scales the
rows of the other factor instead, and the product's term count, top
exponents and largest numerator are carried from factor to factor.  The
parser reads a lazy stream of tokens, each a digit run or one other
non-space character, with one token of lookahead; its digits are the
`str.isdecimal` ones, which `int` reads.  It builds x, y, constants and
each power of one term (c^k x^(mk) y^(nk)) as rows, bypassing the
constructor, and squares out only the powers of sums.

The Newton boundary is built here, once: `_antichain` is the staircase pass
and `_boundary` the lower hull on it, read by the resolution's walk and by
`newton`; the multiplicity and the tangent cone read the row leads.

The text grammar accepts integer or rational coefficients, the variables
x and y, the operators + - * ^, parentheses, and implicit multiplication
("x^5y" means x^5 * y).  Powers are bounded before they are expanded: an
exponent is at most MAX_EXPONENT, and a power of a sum of two or more
terms has degree at most MAX_POWER_DEGREE (its expansion grows like the
square of the degree and costs about its fourth power); a larger one is a
ParseError at the exponent.  Likewise, before each multiplication in a
product, the term counts of the product so far and of the next factor may
multiply to at most that of (x+y+1)^MAX_POWER_DEGREE, else the product is a
ParseError at that factor.  No power or product may have an exponent of x
or of y above MAX_EXPONENT either: such a power is a ParseError at its
exponent, such a product at its factor.  Parentheses nest at most
MAX_NESTING deep, so the recursive descent stays far inside the
interpreter's recursion limit; a deeper '(' is a ParseError at its position.

No constant a parse builds has more than MAX_DIGITS digits, the most a
literal may have.  A sum or product of polynomials below 10^MAX_DIGITS is
cheap, so each one is built and then read: one with a numerator or its
denominator at 10^MAX_DIGITS or more is a ParseError at its operator or
factor.  A power is bounded before it is raised: its base's term count
times largest |numerator|, or its denominator if larger, to the exponent;
a power whose bound reaches 10^MAX_DIGITS is a ParseError at its exponent,
so a tower of constant powers is never raised.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, isqrt, lcm
from typing import Iterable, List, Mapping, Sequence, Tuple

Term = Tuple[int, int]

MAX_EXPONENT = 1000
MAX_POWER_DEGREE = 40
MAX_NESTING = 100
MAX_DIGITS = 4300  # of a literal, as the interpreter's default int limit
_MAX_SIZE = 10**MAX_DIGITS  # every numerator and denominator a parse builds is below it
_MAX_BITS = _MAX_SIZE.bit_length()  # 2^(_MAX_BITS - 1) <= _MAX_SIZE
_tokens = re.compile(r"\d+|\S").finditer  # \d, \s: exactly str.isdecimal, str.isspace


class PolynomialError(ValueError):
    pass


class ParseError(PolynomialError):
    """Syntax error in a polynomial string; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        caret = text + "\n" + " " * pos + "^"
        super().__init__(f"{message} at position {pos}:\n{caret}")


def _ratio(c) -> Tuple[int, int]:
    """Numerator and positive denominator of a rational number."""
    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
    return c.numerator, c.denominator


def _wrap(rows: list, den: int) -> "BivariatePolynomial":
    """The polynomial rows / den, for trimmed integer rows over a den > 0
    that is already coprime to their content."""
    f = object.__new__(BivariatePolynomial)
    f._rows, f._den = rows, den
    return f


def _poly(rows: list, den: int = 1) -> "BivariatePolynomial":
    """The polynomial rows / den, for trimmed integer rows and den > 0."""
    g = gcd(_icontent(rows, 1), den) if den != 1 else 1
    return _wrap(rows, den) if g == 1 else _wrap(_iquo(rows, g, 1), den // g)


def _poly_from(entries: Iterable[Tuple[int, int, int]], den: int) -> "BivariatePolynomial":
    """The sum of the terms numerator / den * x^m y^n, from (m, n, numerator)."""
    rows: list = []
    for m, n, c in entries:
        rows += [[] for _ in range(m + 1 - len(rows))]
        rows[m] += [0] * (n + 1 - len(rows[m]))
        rows[m][n] += c
    return _poly(_trim([_trim(row) for row in rows]), den)


class BivariatePolynomial:
    """Exact polynomial in two variables x, y with rational coefficients,
    stored as `_rows`, the trimmed integer rows of the numerator
    (`_rows[m][n]` belongs to x^m y^n), over `_den`, a positive denominator
    coprime to their content."""

    __slots__ = ("_rows", "_den")

    def __init__(self, terms: Mapping[Term, Fraction] | Iterable[tuple[Term, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        coeffs = []
        for (m, n), c in items:
            if m < 0 or n < 0:
                raise PolynomialError(f"negative exponent in term x^{m} y^{n}")
            if max(m, n) > MAX_EXPONENT:
                # the dense rows cost memory linear in each exponent
                raise PolynomialError(f"exponent in term x^{m} y^{n} exceeds {MAX_EXPONENT}")
            coeffs.append((m, n, *_ratio(c)))
        den = lcm(*(q for _, _, _, q in coeffs))
        f = _poly_from(((m, n, p * (den // q)) for m, n, p, q in coeffs), den)
        self._rows, self._den = f._rows, f._den

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def monomial(cls, m: int, n: int, coeff=1) -> "BivariatePolynomial":
        return cls({(m, n): coeff})

    @classmethod
    def parse(cls, text: str) -> "BivariatePolynomial":
        if not isinstance(text, str):
            raise TypeError(f"a polynomial is parsed from a str, not {type(text).__name__}")
        return _Parser(text).parse()

    # -- basic queries ---------------------------------------------------

    @property
    def terms(self) -> dict[Term, Fraction]:
        return {(m, n): Fraction(c, self._den) for m, n, c in self._entries()}

    def _entries(self):
        """(m, n, numerator) for every nonzero coefficient."""
        return ((m, n, c) for m, row in enumerate(self._rows) for n, c in enumerate(row) if c)

    def support(self) -> set[Term]:
        return {(m, n) for m, n, _ in self._entries()}

    def is_zero(self) -> bool:
        return not self._rows

    def coefficient(self, m: int, n: int) -> Fraction:
        rows = self._rows
        c = rows[m][n] if 0 <= m < len(rows) and 0 <= n < len(rows[m]) else 0
        return Fraction(c, self._den)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariatePolynomial) and (
            (self._den, self._rows) == (other._den, other._rows)
        )

    def __hash__(self):
        return hash((self._den, *map(tuple, self._rows)))

    def multiplicity(self) -> int:
        """Order of vanishing at the origin (min total degree of a term), the
        least m + n over the row leads."""
        if not self._rows:
            raise PolynomialError("multiplicity of the zero polynomial")
        return min(m + n for m, n, _ in _leads(self))

    def degree(self) -> int:
        return max((m + len(row) - 1 for m, row in enumerate(self._rows) if row), default=-1)

    def leading_form(self) -> "BivariatePolynomial":
        """Sum of the terms of minimal total degree (the tangent cone): the
        row leads of that degree, as a term of least degree leads its row."""
        mult = self.multiplicity()
        return _poly_from(((m, n, c) for m, n, c in _leads(self) if m + n == mult), self._den)

    def evaluate(self, xv, yv) -> Fraction:
        xv, yv = Fraction(xv), Fraction(yv)
        return sum((c * xv**m * yv**n for m, n, c in self._entries()), Fraction(0)) / self._den

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        den = lcm(self._den, other._den)
        a = _imul(self._rows, den // self._den, 1)
        b = _imul(other._rows, den // other._den, 1)
        return _poly(_add(a, b, 1), den)

    def __neg__(self) -> "BivariatePolynomial":
        return _poly(_imul(self._rows, -1, 1), self._den)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        den = lcm(self._den, other._den)
        b = _imul(other._rows, -(den // other._den), 1)  # -other over den
        return _poly(_add(_imul(self._rows, den // self._den, 1), b, 1), den)

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return _poly(_mul(self._rows, other._rows, 1), self._den * other._den)

    def scale(self, c) -> "BivariatePolynomial":
        p, q = _ratio(c)
        return _poly(_imul(self._rows, p, 1), self._den * q)

    def __pow__(self, k: int) -> "BivariatePolynomial":
        if type(k) is not int:  # not even a bool; and raised here, since
            # NotImplemented would let the exponent's __rpow__ answer
            raise TypeError(
                "unsupported operand type(s) for ** or pow(): "
                f"'{type(self).__name__}' and '{type(k).__name__}'"
            )
        if k < 0:
            raise PolynomialError("negative power")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return _wrap([[1]], 1) if result is None else result

    # -- substitutions used by blowups ------------------------------------

    def blowup_x_chart(self) -> "BivariatePolynomial":
        """Substitute (x, y) -> (x, x*y) and divide by x^mult.

        This is the strict transform in the chart where the exceptional
        curve is {x = 0}.  Pure exponent bookkeeping, no expansion.
        """
        return _mapped(self, (1, 1, 0, 1, self.multiplicity(), 0))

    def blowup_y_chart(self) -> "BivariatePolynomial":
        """Substitute (x, y) -> (x*y, y) and divide by y^mult."""
        return _mapped(self, (1, 0, 1, 1, 0, self.multiplicity()))

    def shift_y(self, c) -> "BivariatePolynomial":
        """Substitute y -> y + c (recenter at a point on the y-axis line).

        For c = a/b and y-degree N, each row sum r_n y^n becomes
        b^-N sum_k s_k b^k y^k, where sum s_k z^k is sum r_n b^(N-n) z^n
        shifted z -> z + a by synthetic division: the classical integer
        Taylor shift (von zur Gathen and Gerhard, ISSAC 1997), O(N^2)
        integer steps per row."""
        a, b = _ratio(c)
        rows = self._rows
        if not (a and rows):
            return self
        top = max(map(len, rows)) - 1
        out = []
        for row in rows:
            q = [r * b ** (top - n) for n, r in enumerate(row)]
            for i in range(len(q) - 1):
                for j in range(len(q) - 2, i - 1, -1):
                    q[j] += a * q[j + 1]
            out.append([s * b**k for k, s in enumerate(q)])
        return _poly(out, self._den * b**top)

    def mod_monomial(self, a: int, b: int) -> "BivariatePolynomial":
        """The remainder modulo the monomial ideal (x^a y^b): the terms
        x^m y^n with m < a or n < b, so the rows from a on keep only their
        entries below y^b."""
        rows = self._rows
        if all(len(row) <= b for row in rows[a:]):
            return self
        return _poly(_trim(rows[:a] + [_trim(row[:b]) for row in rows[a:]]), self._den)

    def derivative(self, var: str) -> "BivariatePolynomial":
        """Partial derivative with respect to "x" or "y"."""
        if var == "x":
            return _poly(_diff(self._rows, 1), self._den)
        if var != "y":
            raise PolynomialError(f"no variable {var!r}: the variables are 'x' and 'y'")
        return _poly(_trim([_diff(row, 0) for row in self._rows]), self._den)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for (m, n), c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0][0])):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("x", m), ("y", n)) if e)
            body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts) or "+ 0"
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"BivariatePolynomial({_printed(self)})"


def _printed(f: BivariatePolynomial) -> str:
    """str(f), or a note where a coefficient of f is too long to print."""
    try:
        return str(f)
    except ValueError:  # past the interpreter's limit on integer strings
        return "(a polynomial with a coefficient too long to print)"


# -- the charts and the Newton boundary ---------------------------------------
#
# The resolution walks its charts on the Newton boundary (`_boundary`) and
# builds a polynomial through a composed chart map (`_mapped`) only where
# it recentres.


def _mapped(f: BivariatePolynomial, chart: Tuple[int, ...], cut=None) -> BivariatePolynomial:
    """f through the exponent map chart = (p, q, r, s, u, v), each term
    x^m y^n moved to x^(p m + q n - u) y^(r m + s n - v), modulo (x^cut)
    when a cut is given: only the terms whose new x-exponent is below it
    are placed.  The blowup charts and their composites are such maps, with
    nonnegative entries and ps - qr = 1, so each term of the image is one
    term of f; the caller keeps the new exponents nonnegative."""
    # from the top row down, each new row fills in increasing n: two terms
    # sent to one row i, from rows m' < m, have n' > n and a new exponent of
    # y larger by (m - m')/q (q = 0 sends row m to its own row alone)
    p, q, r, s, u, v = chart
    rows, out, dropped = f._rows, [], False
    for m in range(len(rows) - 1, -1, -1):
        row, i, j = rows[m], p * m - u, r * m - v  # the image of x^m
        if cut is not None and row and (i >= cut or (q and len(row) > (k := -((i - cut) // q)))):
            row, dropped = (row[:k] if i < cut else []), True
        if not row:
            continue
        out += [[] for _ in range(i + q * (len(row) - 1) + 1 - len(out))]
        for n, x in enumerate(row):
            if x:
                new, at = out[i + q * n], j + s * n
                if len(new) < at:
                    new += [0] * (at - len(new))
                new.append(x)
    return _poly(_trim(out), f._den) if dropped else _wrap(out, f._den)


def _leads(f: BivariatePolynomial):
    """(m, n, numerator) for the first term x^m y^n of each nonzero row of
    f, the only terms of f that can lie on its Newton boundary."""
    for m, row in enumerate(f._rows):
        if row:
            c = next(filter(None, row))
            yield m, row.index(c), c


def _antichain(terms: Iterable[tuple]) -> list:
    """The terms (m, n) or (m, n, c) that lie on or above no other term
    (m' <= m and n' <= n), one of each repeated (m, n), by increasing m: the
    staircase pass.  In lex order a term lies on or above a kept one exactly
    when its n is not below the last kept n, the least so far."""
    keep: list = []
    for t in sorted(terms):
        if not keep or t[1] < keep[-1][1]:
            keep.append(t)
    return keep


def _boundary(terms: Iterable[tuple]) -> list:
    """The terms (m, n) or (m, n, c) on the compact faces of the Newton
    polygon of `terms` (the Newton boundary), by increasing m: those where
    some w1 m + w2 n with w1, w2 > 0 is least.  Of the staircase pass's
    terms, the lower convex chain keeps those on its segments, collinear
    ones too, from the least m to the least n."""
    hull: list = []
    for t in _antichain(terms):
        m, n = t[0], t[1]
        while len(hull) > 1 and (
            (hull[-1][1] - hull[-2][1]) * (m - hull[-2][0])
            > (n - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()  # strictly above the segment from hull[-2] to t
        hull.append(t)
    return hull


class _Parser:
    """Recursive-descent parser for the polynomial grammar: `tok` is the
    current token, "" past the end, and `pos` its position or len(text)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokens(text)
        self.depth = 0  # open parentheses around the current position
        self._next()

    def _next(self):
        m = next(self.tokens, None)
        self.tok, self.pos = (m[0], m.start()) if m else ("", len(self.text))

    def parse(self) -> BivariatePolynomial:
        result = self._expr()
        if self.tok:
            raise ParseError("unexpected character", self.text, self.pos)
        return result

    def _expr(self) -> BivariatePolynomial:
        sign = self.tok
        if sign in ("+", "-"):
            self._next()
        result = self._term()
        if sign == "-":
            result = -result
        while (op := self.tok) in ("+", "-"):
            at = self.pos
            self._next()
            term = self._term()
            result = result + term if op == "+" else result - term
            if max(_top(result), result._den) >= _MAX_SIZE:
                raise ParseError(
                    f"sum has a coefficient of more than {MAX_DIGITS} digits", self.text, at
                )
        return result

    def _term(self) -> BivariatePolynomial:
        # the term count of the largest power of a sum that _factor accepts
        limit = (MAX_POWER_DEGREE + 1) * (MAX_POWER_DEGREE + 2) // 2
        result = self._factor()
        # carried from factor to factor, so a chain of letters reads no row twice
        count, extent, top = _term_count(result), _extent(result), _top(result)
        while True:
            if self.tok == "*":
                self._next()
            elif not (self.tok.isdecimal() or self.tok in ("x", "y", "(")):
                return result
            # an explicit '*', or implicit multiplication as in "x^5y" or "2(x+y)"
            at = self.pos
            factor = self._factor()
            factor_count = _term_count(factor)
            terms = count * factor_count
            if terms > limit:
                raise ParseError(
                    f"product of {terms} term pairs exceeds {limit}", self.text, at
                )
            # the top exponents of a nonzero product add
            extent = tuple(map(sum, zip(extent, _extent(factor))))
            self._bound_exponents(extent, at)
            if terms and 1 in (count, factor_count):  # one term moves the other side's rows
                # the factor's when the product so far is one term, but the
                # fewer when both are
                if count == 1 and (factor_count > 1 or len(factor._rows) <= len(result._rows)):
                    result, top = _times_term(factor, _top(factor), result)
                else:
                    result, top = _times_term(result, top, factor)
                count = terms
            else:
                result = result * factor
                count, extent, top = _term_count(result), _extent(result), _top(result)
            if max(top, result._den) >= _MAX_SIZE:
                raise ParseError(
                    f"product has a coefficient of more than {MAX_DIGITS} digits", self.text, at
                )

    def _factor(self) -> BivariatePolynomial:
        base = self._base()
        if self.tok != "^":
            return base
        self._next()
        at = self.pos
        exp = self._integer("exponent expected")
        if exp > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {MAX_EXPONENT}", self.text, at)
        terms = _term_count(base)
        if terms > 1 and base.degree() * exp > MAX_POWER_DEGREE:
            raise ParseError(
                f"power of degree {base.degree() * exp} exceeds {MAX_POWER_DEGREE}",
                self.text,
                at,
            )
        self._bound_exponents((d * exp for d in _extent(base)), at)
        # size^exp bounds the numerators and the denominator of the
        # power, exactly for one term
        if _reaches(max(terms * _top(base), base._den), exp):
            raise ParseError(
                f"power may have a coefficient of more than {MAX_DIGITS} digits",
                self.text,
                at,
            )
        if terms != 1:
            return base**exp
        ((m, n, c),) = base._entries()  # c x^m y^n: its power needs no squaring
        return _wrap([[] for _ in range(m * exp)] + [[0] * (n * exp) + [c**exp]], base._den**exp)

    def _bound_exponents(self, exponents: Iterable[int], at: int):
        """A ParseError at `at` when the top exponent of x or of y exceeds
        MAX_EXPONENT: the dense layout costs memory linear in each."""
        for var, e in zip("xy", exponents):
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} of {var} exceeds {MAX_EXPONENT}", self.text, at)

    def _base(self) -> BivariatePolynomial:
        if self.tok == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"nesting exceeds {MAX_NESTING}", self.text, self.pos)
            self._next()
            self.depth += 1
            inner = self._expr()
            if self.tok != ")":
                raise ParseError("missing ')'", self.text, self.pos)
            self._next()
            self.depth -= 1
            return inner
        if self.tok == "x":
            self._next()
            return _wrap([[], [1]], 1)
        if self.tok == "y":
            self._next()
            return _wrap([[0, 1]], 1)
        if self.tok.isdecimal():
            num, den = self._integer("number expected"), 1
            # a '/' after a number makes a rational coefficient
            if self.tok == "/":
                self._next()
                last = self.pos + len(self.tok) - 1  # the denominator's last digit
                den = self._integer("denominator expected")
                if den == 0:
                    raise ParseError("zero denominator", self.text, last)
            return _poly([[num]] if num else [], den)
        raise ParseError("expected a term", self.text, self.pos)

    def _integer(self, message: str) -> int:
        """The current token as an integer: a digit run, as `_tokens` reads it."""
        tok, start = self.tok, self.pos
        if not tok.isdecimal():
            raise ParseError(message, self.text, start)
        if len(tok) > MAX_DIGITS:
            raise ParseError("number too long", self.text, start)
        self._next()
        try:
            return int(tok)
        except ValueError:  # past the interpreter's limit on digits
            raise ParseError("number too long", self.text, start) from None


def parse_polynomial(text: str) -> BivariatePolynomial:
    return BivariatePolynomial.parse(text)


def _term_count(f: BivariatePolynomial) -> int:
    return sum(map(len, f._rows)) - sum(map(list.count, f._rows, repeat(0)))


def _times_term(
    f: BivariatePolynomial, top: int, g: BivariatePolynomial
) -> Tuple[BivariatePolynomial, int]:
    """f times g = c x^m y^n, one term, the last of its last row, and the
    product's largest |numerator|, from top, that of f: the rows of f moved
    down by m and right by n and scaled, with no product kernel.  The
    content of f times c meets the denominator in k, so the rows are scaled
    by c/k over the denominator over k; rows are never changed once built,
    so the m empty rows on top may be one list."""
    m, n, c = len(g._rows) - 1, len(g._rows[-1]) - 1, g._rows[-1][-1]
    den = f._den * g._den
    k = gcd(_icontent(f._rows, 1) * c, den)
    rows = [[0] * n + [a * c // k for a in row] if row else [] for row in f._rows]
    return _wrap([[]] * m + rows, den // k), top * abs(c) // k


def _top(f: BivariatePolynomial) -> int:
    """The largest |numerator| of f."""
    return max(map(abs, chain.from_iterable(f._rows)), default=0)


def _reaches(size: int, exp: int) -> bool:
    """size^exp >= 10^MAX_DIGITS, with a tower told by bit lengths alone."""
    return exp * (size.bit_length() - 1) >= _MAX_BITS or size**exp >= _MAX_SIZE


def _extent(f: BivariatePolynomial) -> Tuple[int, int]:
    """The top exponents of x and of y in f, -1 for the zero polynomial."""
    return len(f._rows) - 1, max(map(len, f._rows), default=0) - 1


# -- exact gcd and rational roots over the integers ---------------------------
#
# A dense polynomial of level u >= 0 is a list of level u-1 coefficients,
# lowest degree first and without a trailing zero; level -1 is the integers.
# Level 0 is Z[t]; level 1 is Z[y][x], one row in y per degree in x.

_HEU_GCD_ATTEMPTS = 6  # evaluation points tried before the PRS fallback


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _lead(f, u: int) -> int:
    """The integer leading coefficient (main variable first)."""
    return f if u < 0 else _lead(f[-1], u - 1)


def _norm(f, u: int) -> int:
    if u <= 0:
        return abs(f) if u < 0 else max(map(abs, f), default=0)
    return max((_norm(a, u - 1) for a in f), default=0)


def _icontent(f, u: int) -> int:
    if u < 0:
        return abs(f)
    return gcd(*f) if u == 0 else gcd(*(_icontent(a, u - 1) for a in f))


def _imul(f, c: int, u: int):
    if u < 0:
        return f * c
    if not c:
        return []
    return [a * c for a in f] if u == 0 else [_imul(a, c, u - 1) for a in f]


def _iquo(f, c: int, u: int):
    """Exact division of every integer coefficient by c."""
    if u < 0:
        return f // c
    return [a // c for a in f] if u == 0 else [_iquo(a, c, u - 1) for a in f]


def _add(f, g, u: int):
    if u < 0:
        return f + g
    if len(f) < len(g):
        f, g = g, f
    if u == 0:
        return _trim([a + b for a, b in zip(f, g)] + f[len(g) :])
    return _trim([_add(a, b, u - 1) for a, b in zip(f, g)] + f[len(g) :])


def _sub(f, g, u: int):
    return _add(f, _imul(g, -1, u), u)


def _mul(f, g, u: int):
    """The product at level u <= 1; at level 1, term pair by term pair."""
    if u < 0:
        return f * g
    if not f or not g:
        return []
    if u == 0:
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return _trim(out)
    terms = [(j, n, b) for j, row in enumerate(g) for n, b in enumerate(row) if b]
    out: list = [[] for _ in range(len(f) + len(g) - 1)]
    for i, row in enumerate(f):
        for m, a in enumerate(row):
            if a:
                for j, n, b in terms:
                    new, k = out[i + j], m + n
                    if k >= len(new):
                        new += [0] * (k + 1 - len(new))
                    new[k] += a * b
    return _trim([_trim(row) for row in out])


def _quo(f, g, u: int):
    """The exact quotient f / g, or None when g does not divide f."""
    if u < 0:
        q, r = divmod(f, g)
        return None if r else q
    if len(g) == 1:
        q = [_quo(a, g[0], u - 1) for a in f]
        return None if None in q else q
    r, dg, lc = list(f), len(g) - 1, g[-1]
    q = [0 if u == 0 else []] * max(len(f) - dg, 0)
    for k in range(len(f) - 1 - dg, -1, -1):
        if not r[k + dg]:
            continue
        c = _quo(r[k + dg], lc, u - 1)
        if c is None:
            return None
        q[k] = c
        for j, b in enumerate(g):
            r[k + j] = _sub(r[k + j], _mul(c, b, u - 1), u - 1)
    return None if any(r[:dg]) else _trim(q)


def _prem(f, g, u: int):
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) f modulo g."""
    r, dg, lc = list(f), len(g) - 1, g[-1]
    for k in range(len(f) - 1 - dg, -1, -1):
        top = r[k + dg] if k + dg < len(r) else None
        r = [_mul(a, lc, u - 1) for a in r]
        if top:
            for j, b in enumerate(g):
                r[k + j] = _sub(r[k + j], _mul(top, b, u - 1), u - 1)
        _trim(r)
    return r


def _diff(f: list, u: int) -> list:
    """The derivative in the main variable."""
    return [_imul(a, i, u - 1) for i, a in enumerate(f)][1:]


def _eval(f, xi: int, u: int):
    """f at main variable = xi, a polynomial of level u - 1."""
    acc = 0 if u == 0 else []
    for a in reversed(f):
        acc = _add(_imul(acc, xi, u - 1), a, u - 1)
    return acc


def _symmetric(h, xi: int, u: int):
    """Every integer coefficient of h reduced into (-xi/2, xi/2]."""
    if u < 0:
        r = h % xi
        return r - xi if 2 * r > xi else r
    return _trim([_symmetric(a, xi, u - 1) for a in h])


def _interpolate(h, xi: int, u: int):
    """The level-u polynomial whose symmetric base-xi digits give h."""
    out = []
    while h:
        d = _symmetric(h, xi, u - 1)
        out.append(d)
        h = _iquo(_sub(h, d, u - 1), xi, u - 1)
    return _trim(out)


def _normal(f, u: int):
    return _imul(f, -1, u) if f and _lead(f, u) < 0 else f


def _gcd(f, g, u: int):
    """gcd in Z[...] with a positive integer leading coefficient."""
    if u < 0:
        return gcd(f, g)
    if not f or not g:
        return _normal(f or g, u)
    cf, cg = _icontent(f, u), _icontent(g, u)
    f, g = _iquo(f, cf, u), _iquo(g, cg, u)
    h = _heu_gcd(f, g, u)
    if h is None:
        h = _prs_gcd(f, g, u)
    return _imul(h, gcd(cf, cg), u)


def _heu_gcd(f, g, u: int):
    """Heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 1989)
    for primitive f, g: evaluate the main variable at xi, take the gcd one
    level down, rebuild from symmetric base-xi digits.  With
    xi > 2 min(|f|, |g|) + 1, a primitive part that divides both is the gcd;
    None after the last attempt."""
    xi = 2 * min(_norm(f, u), _norm(g, u)) + 29
    for _ in range(_HEU_GCD_ATTEMPTS):
        ff, gg = _eval(f, xi, u), _eval(g, xi, u)
        if ff and gg:
            h = _interpolate(_gcd(ff, gg, u - 1), xi, u)
            h = _normal(_iquo(h, _icontent(h, u), u), u)
            if _quo(f, h, u) is not None and _quo(g, h, u) is not None:
                return h
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _prs_gcd(f, g, u: int):
    """gcd of primitive f, g by the primitive polynomial remainder sequence
    over the coefficient ring Z[...] of level u - 1."""

    def content(p):
        c = p[0]
        for a in p[1:]:
            c = _gcd(c, a, u - 1)
        return c

    def primitive(p):
        c = content(p)
        return [_quo(a, c, u - 1) for a in p]

    c = _gcd(content(f), content(g), u - 1)
    f, g = primitive(f), primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _prem(f, g, u)
        f, g = g, (primitive(r) if r else r)
    return _normal([_mul(a, c, u - 1) for a in primitive(f)], u)


def polynomial_gcd(*polys: BivariatePolynomial) -> BivariatePolynomial:
    """gcd over Q, scaled to integer coefficients with content 1 and a
    positive leading coefficient (highest power of x, then of y).  The gcd
    of zero polynomials is 0."""
    h: list = []
    for f in polys:
        h = _gcd(h, f._rows, 1)
    return _poly(_iquo(h, _icontent(h, 1), 1) if h else h)


def _squarefree_parts(f: list) -> list:
    """Yun's squarefree decomposition (SYMSAC 1976) of a primitive f in
    Z[t]: the primitive squarefree a_1, ..., a_k with f = ±a_1 a_2^2 ... a_k^k."""
    df = _diff(f, 0)
    a = _gcd(f, df, 0)
    b, c = _quo(f, a, 0), _quo(df, a, 0)
    d = _sub(c, _diff(b, 0), 0)
    parts = []
    while len(b) > 1:
        a = _gcd(b, d, 0)
        parts.append(a)
        b, c = _quo(b, a, 0), _quo(d, a, 0)
        d = _sub(c, _diff(b, 0), 0)
    return parts


def _sign_at(p: list, x: Fraction) -> int:
    """Sign of p(x), by Horner on p(x) den^deg in integers."""
    num, den = x.numerator, x.denominator
    v, w = 0, 1
    for c in reversed(p):
        v = v * num + c * w
        w *= den
    return (v > 0) - (v < 0)


def _sturm_rational_roots(p: list) -> List[Fraction]:
    """The rational roots of a squarefree p in Z[t].  A Sturm sequence
    isolates the real roots on the grid (2j+1)/(4a^2), a = |lc(p)|; no grid
    point is a root, as its denominator carries more 2s than a does.  Each
    rational root u/v has v | a, and two such fractions lie 1/a^2 apart, so
    the only candidate in a cell of width 1/(2a^2) is its midpoint's best
    approximation with denominator <= a; it counts if it lies in the cell
    and is a root by exact evaluation."""
    if len(p) == 2:
        return [Fraction(-p[0], p[1])]
    seq = [p, _diff(p, 0)]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        # -rem(a, b) times a positive number; prem multiplies by lc(b)^(d+1)
        r = _prem(a, b, 0)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = _imul(r, -1, 0)
        seq.append(_iquo(r, _icontent(r, 0), 0))
    a = abs(p[-1])
    grid = 4 * a * a
    bound = 2 + max(abs(c) for c in p) // a  # every real root lies in (-bound, bound)
    variations = {}

    def sign_changes(j: int) -> int:
        if j not in variations:
            x = Fraction(2 * j + 1, grid)
            signs = [s for s in (_sign_at(q, x) for q in seq) if s]
            variations[j] = sum(s != t for s, t in zip(signs, signs[1:]))
        return variations[j]

    roots: List[Fraction] = []
    stack = [(-bound * grid // 2 - 1, bound * grid // 2)]
    while stack:
        lo, hi = stack.pop()
        if sign_changes(lo) == sign_changes(hi):
            continue
        if hi - lo == 1:
            x = Fraction(2 * lo + 2, grid).limit_denominator(a)
            if 2 * lo + 1 < x * grid < 2 * lo + 3 and _sign_at(p, x) == 0:
                roots.append(x)
            continue
        mid = (lo + hi) // 2
        stack += [(lo, mid), (mid, hi)]
    return sorted(roots)


def _linear_power_root(p: list):
    """(r, k) when p in Z[t] of degree k >= 1 is c (t - r)^k, else None: then
    r = u/v = -p[k-1] / (k p[k]), and p v^k = p[k] (v t - u)^k."""
    k = len(p) - 1
    r = Fraction(-p[-2], k * p[-1])
    u, v = r.numerator, r.denominator
    vk = v**k
    term = p[-1] * vk  # the coefficient of t^j in p[k] (v t - u)^k, j = k
    for j in range(k, 0, -1):
        term = term * j * -u // ((k - j + 1) * v)
        if p[j - 1] * vk != term:
            return None
    return r, k


def rational_roots(coeffs: Sequence[int]):
    """Rational roots of the nonzero polynomial sum coeffs[i] t^i (integer
    coefficients), with their multiplicities, in increasing order; and the
    squarefree parts left without rational roots, as pairs (primitive
    integer coefficient list, multiplicity)."""
    f = _trim(_iquo(list(coeffs), _icontent(coeffs, 0), 0))
    if len(f) > 1 and (power := _linear_power_root(f)):
        return [power], []
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
