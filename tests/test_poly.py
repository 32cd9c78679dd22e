import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import oracles
from singular_lct import BivariatePolynomial, ParseError
from singular_lct.poly import PolynomialError

P = BivariatePolynomial.parse
F = Fraction


def test_parse_basic():
    f = P("(x^3 - y^2)^2 - x^5*y")
    assert f.terms == {
        (6, 0): Fraction(1),
        (3, 2): Fraction(-2),
        (0, 4): Fraction(1),
        (5, 1): Fraction(-1),
    }


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="the interpreter has no limit on integer strings",
)
def test_repr_never_raises_on_a_coefficient_too_long_to_print():
    # past the interpreter's limit on integer strings str() raises
    # ValueError; repr prints the note the resolution errors print
    huge = P("x").scale(10**5000)
    with pytest.raises(ValueError):
        str(huge)
    assert repr(huge) == "BivariatePolynomial((a polynomial with a coefficient too long to print))"
    assert repr(P("x").scale(F(1, 10**5000))) == repr(huge)
    assert repr(P("y^2 - 1/2*x^3")) == "BivariatePolynomial(y^2 - 1/2*x^3)"


def test_parse_implicit_multiplication():
    assert P("x^5y") == P("x^5 * y")
    assert P("2x") == P("2*x")
    assert P("3(x+y)") == P("3*x + 3*y")


def test_parse_rational_coefficients():
    f = P("1/2*x + 3/4")
    assert f.coefficient(1, 0) == Fraction(1, 2)
    assert f.coefficient(0, 0) == Fraction(3, 4)


def test_parse_unary_minus_and_nesting():
    assert P("-x + x") == P("0")
    assert P("-(x - y)") == P("y - x")


@pytest.mark.parametrize("bad", ["x +", "x^", "(x", "x**2", "z", "1/0"])
def test_parse_errors_carry_position(bad):
    with pytest.raises(ParseError) as err:
        P(bad)
    assert "^" in str(err.value)  # caret diagnostic


@pytest.mark.parametrize("bad, pos", [("", 0), (" ", 1), ("(", 1), ("x +", 3), ("-", 1)])
def test_parse_error_position_on_empty_and_blank_input(bad, pos):
    with pytest.raises(ParseError, match="expected a term") as err:
        P(bad)
    assert err.value.pos == pos


@pytest.mark.parametrize("bad", [("a", "b"), 123, b"x^2", None, ["x"]])
def test_parse_rejects_non_strings_by_type(bad):
    from singular_lct import parse_polynomial

    for parse in (P, parse_polynomial):
        with pytest.raises(TypeError, match=f"not {type(bad).__name__}$"):
            parse(bad)


def test_print_parse_roundtrip():
    for text in ["x^5 - y^7", "(x^3 - y^2)^2 - x^5*y", "x*y", "1/3*x^2*y - y"]:
        f = P(text)
        assert P(str(f)) == f


def test_multiplicity_and_leading_form():
    f = P("(x^3 - y^2)^2 - x^5*y")
    assert f.multiplicity() == 4
    assert f.leading_form() == P("y^4")
    assert P("x*y").multiplicity() == 2
    assert P("x + y^2").multiplicity() == 1


def test_blowup_charts_are_exact():
    f = P("y^2 - x^3")
    assert f.blowup_x_chart() == P("y^2 - x")  # f(x, xy) / x^2
    assert f.blowup_y_chart() == P("1 - x^3*y")  # f(xy, y) / y^2

    g = P("x^2 - y^3")
    assert g.blowup_y_chart() == P("x^2 - y")


def test_shift_recenters():
    f = P("y^2 - x")
    g = f.shift_y(Fraction(3))
    assert g == P("y^2 + 6*y + 9 - x")
    assert g.evaluate(0, -3) == f.evaluate(0, 0)


def test_arithmetic():
    f, g = P("x + y"), P("x - y")
    assert f * g == P("x^2 - y^2")
    assert (f + g) == P("2*x")
    assert f**3 == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3")


def test_powers_are_bounded_before_expanding():
    from singular_lct.poly import MAX_EXPONENT, MAX_POWER_DEGREE

    for text, pos in (
        (f"x^{MAX_EXPONENT + 1}", 2),
        (f"x - (y)^ {10**40}", 9),
        (f"(x+y+1)^{MAX_POWER_DEGREE + 1}", 8),
        ("x*(x^3 - y^2)^14", 14),
        ("((x + y)^20)^3", 13),
        ("x^" + "9" * 5000, 2),
    ):
        with pytest.raises(ParseError) as err:
            P(text)
        assert err.value.pos == pos, text
    # at the limits, and any power of a single term
    assert P(f"x^{MAX_EXPONENT}") == BivariatePolynomial.monomial(MAX_EXPONENT, 0)
    assert P(f"(2*x*y)^{MAX_EXPONENT}").coefficient(MAX_EXPONENT, MAX_EXPONENT) == 2**MAX_EXPONENT
    assert len(P(f"(x + y)^{MAX_POWER_DEGREE}").terms) == MAX_POWER_DEGREE + 1
    assert P("(x^3 - y^2)^13") == P("x^3 - y^2") ** 13


def test_constants_are_bounded_before_they_are_built():
    import time

    from singular_lct.poly import MAX_DIGITS

    nines = "9" * MAX_DIGITS  # the longest literal
    for text, message, pos in (
        ("((9^1000)^1000)^3", "power may have", 10),
        ("y^2 - ((9^1000)^1000)^1000", "power may have", 16),
        ("(9^1000)^5*(y - x^2)^2", "power may have", 9),
        (f"2*{nines}", "product has", 2),
        (f"1/{nines} * 1/2", "product has", MAX_DIGITS + 5),
        (f"x*({nines}*x + 1)^2", "power may have", MAX_DIGITS + 11),
        (f"y - ({nines} + 1)*x", "sum has", MAX_DIGITS + 6),
        (f"1/{nines} - 1/{int(nines) - 1}", "sum has", MAX_DIGITS + 3),
        # exactly 10^MAX_DIGITS; a power's bound counts the base's terms and
        # its denominator
        (f"2*5{'0' * (MAX_DIGITS - 1)}", "product has", 2),
        (f"({nines}*x + {nines}*y)^1", "power may have", 2 * MAX_DIGITS + 10),
        (f"(1/{nines}*x)^2", "power may have", MAX_DIGITS + 7),
        ("9" * (MAX_DIGITS + 1), "number too long", 0),
        (f"x^{nines}1", "number too long", 2),
    ):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"^{message}") as err:
            P(text)
        assert time.perf_counter() - start < 1, text
        assert err.value.pos == pos, text
        if message != "number too long":
            assert f"more than {MAX_DIGITS} digits" in str(err.value)
    # at the limit: a power of one term is bounded exactly, and a sum or
    # product is built and read
    assert P("(9^1000)^4").coefficient(0, 0) == 9**4000
    assert P(f"({nines}*x*y)^1").coefficient(1, 1) == int(nines)
    assert P(f"{nines}*x*1/{nines}") == P("x")
    assert P(f"x - {nines}").coefficient(0, 0) == -int(nines)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="the interpreter has no limit on integer strings",
)
def test_a_literal_past_the_interpreters_digit_limit_is_too_long():
    # below MAX_DIGITS but past a lowered limit, int() itself refuses the
    # literal; the limit is set per process, so the parse runs in its own
    import os
    import subprocess

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from singular_lct import ParseError, parse_polynomial\n"
        "try:\n"
        "    parse_polynomial('y - ' + '7' * 700 + '*x')\n"
        "except ParseError as e:\n"
        "    assert str(e).startswith('number too long at position 4:'), e\n"
        "    assert e.pos == 4, e.pos\n"
        "else:\n"
        "    raise AssertionError('a 700-digit literal parsed')\n"
        "assert parse_polynomial('7' * 640).coefficient(0, 0) == int('7' * 640)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr


def test_products_are_bounded_before_multiplying():
    import time

    from singular_lct.poly import MAX_POWER_DEGREE

    limit = (MAX_POWER_DEGREE + 1) * (MAX_POWER_DEGREE + 2) // 2
    assert limit == 861  # the term count of (x+y+1)^MAX_POWER_DEGREE
    start = time.perf_counter()
    P("(x+y+1)^20")
    first = time.perf_counter() - start
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        P("(x+y+1)^20*(x+y+1)^20*(x+y+1)^20")
    # it stops before multiplying: about the cost of the first factor (an
    # unbounded product takes ten times that)
    assert time.perf_counter() - start < 2 * first + 0.1
    assert err.value.pos == 11 and "53361" in str(err.value)
    for text, pos in (
        ("(x+y+1)^20 * (x+y+1)^2", 13),  # 231 * 6 term pairs
        ("(x+y+1)^20(x+y+1)^2", 10),  # implicit multiplication
        ("(x+y)^20*(x+y)^20*(x+y)^21", 18),  # 41 * 22 at the third factor
    ):
        with pytest.raises(ParseError) as err:
            P(text)
        assert err.value.pos == pos, text
    # at the limit, many small factors, and a germ-theorem input whose
    # factors' term counts multiply to 900 but whose multiplications stay
    # at 90 and 352 term pairs
    assert len(P("(x+y)^20*(x+y)^20*(x+y)^20").terms) == 61
    assert P("(x+1)" * 12) == P("(x+1)^12")
    assert P("x" * 50) == BivariatePolynomial.monomial(50, 0)
    P("((x + 1*y^1)^8 - (-2/3)*y^9)*(y^4 - (-2/3)*(x + 1*y^1)^7)*(y^5 - (-3)*(x + 1*y^1)^8)")


def test_parenthesis_nesting_is_bounded():
    from singular_lct.poly import MAX_NESTING

    assert P("(" * MAX_NESTING + "y^2 - x^3" + ")" * MAX_NESTING) == P("y^2 - x^3")
    for depth in (MAX_NESTING + 1, 300, 5000):
        with pytest.raises(ParseError, match=f"nesting exceeds {MAX_NESTING}") as err:
            P("(" * depth + "y^2 - x^3" + ")" * depth)
        assert err.value.pos == MAX_NESTING
    # the bound counts open parentheses, not parentheses in total
    assert P("(x)" * 200 + " + " + "(y+(x))^2" * 3) == P("x^200 + (y+x)^6")
    with pytest.raises(ParseError) as err:
        P("x*(1+" * (MAX_NESTING + 1) + "y" + ")" * (MAX_NESTING + 1))
    assert err.value.pos == 5 * MAX_NESTING + 2


def test_every_shipped_input_parses_within_the_limits():
    from singular_lct.corpus import coprime_pairs, corpus_curves

    for _, text in corpus_curves(40):
        P(text)
    for p, q in coprime_pairs(37):
        P(f"x^{p} - y^{q}")
    P("(x + 2*y^2)^9 * (y^9 - (-2/3)*(x + 2*y^2)^8)")


def test_exponents_of_products_and_powers_are_bounded_before_expanding():
    from singular_lct.poly import MAX_EXPONENT

    for text, pos, message in (
        ("y^2 - (x^1000)^1000", 15, "exponent 1000000 of x exceeds 1000"),
        ("(x^2*y)^501", 8, "exponent 1002 of x exceeds 1000"),
        ("(x*y^10)^101", 9, "exponent 1010 of y exceeds 1000"),
        ("x^1000*x", 7, "exponent 1001 of x exceeds 1000"),
        ("y^600 y^401 - x", 6, "exponent 1001 of y exceeds 1000"),
        ("x^1000" + "*x^1000" * 20, 7, "exponent 2000 of x exceeds 1000"),
    ):
        with pytest.raises(ParseError, match=message) as err:
            P(text)
        assert err.value.pos == pos, text
    # at the limit in each variable, and sums do not add exponents
    assert P("(x^2*y)^500") == BivariatePolynomial.monomial(MAX_EXPONENT, 500)
    assert P("x^600*x^400*y^1000") == BivariatePolynomial.monomial(MAX_EXPONENT, MAX_EXPONENT)
    assert P("x^1000 + y^1000 + x^1000").degree() == MAX_EXPONENT


def rows_of(f):
    return f._den, f._rows


COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
TERMS = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), COEFFS, max_size=6)


def test_powers_match_repeated_multiplication():
    # 0 to 17 covers the powers of two up to 16 and their neighbours, so the
    # square-and-multiply loop ends on every short bit pattern
    f = P("x + (-2/3)*y^2 - 3*x*y")
    power = BivariatePolynomial.monomial(0, 0)
    for k in range(18):
        assert f**k == power and rows_of(f**k) == rows_of(power), k
        power = power * f
    # the parser builds the power of one term straight from it
    for base in ("x", "y", "(-2/3)", "(3*x^2*y)", "(-1/2*y^3)", "(7/4x)", "0", "(x + 0*y)"):
        for k in range(18):
            assert rows_of(P(f"{base}^{k}")) == rows_of(P(base) ** k), (base, k)


def test_powers_take_only_ints():
    # ** reports an exponent that is not an int as a TypeError, a bool included,
    # and a Fraction too, whose __rpow__ would otherwise square the polynomial
    f = P("x - y")
    for k in (True, 2.0, "2", Fraction(2), Fraction(1, 2)):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*\*"):
            f**k
    with pytest.raises(PolynomialError, match="negative power"):
        f**-1


def test_derivatives_take_only_x_and_y():
    f = P("x^2 - y^3")
    assert (f.derivative("x"), f.derivative("y")) == (P("2*x"), P("-3*y^2"))
    for var in ("z", "X", "", None):
        with pytest.raises(PolynomialError, match=f"^no variable {var!r}"):
            f.derivative(var)


@settings(max_examples=150, deadline=None)
@given(TERMS, TERMS, COEFFS, st.integers(-3, 3), st.integers(0, 3))
def test_integer_rows_match_the_sparse_fraction_oracle(a, b, c, k, e):
    f, g = BivariatePolynomial(a), BivariatePolynomial(b)
    of, og = oracles.SparseFractionPolynomial(a), oracles.SparseFractionPolynomial(b)

    def same(ours, ref):
        assert ours.terms == ref.terms and str(ours) == str(ref)
        # the layout too: trimmed rows over a denominator prime to their content
        assert rows_of(ours) == rows_of(BivariatePolynomial(ref.terms))

    same(f, of)
    same(f + g, of + og)
    same(f - g, of - og)
    same(f * g, of * og)
    same(f**e, of**e)
    same(f.scale(c), of.scale(c))
    for t in (k, c, Fraction(k, 7)):
        same(f.shift_y(t), of.shift_y(t))
    for var in "xy":
        same(f.derivative(var), of.derivative(var))
    assert f.degree() == of.degree()
    assert f.evaluate(c, k) == of.evaluate(c, k)
    if f:
        same(f.blowup_x_chart(), of.blowup_x_chart())
        same(f.blowup_y_chart(), of.blowup_y_chart())
        same(f.leading_form(), of.leading_form())
        assert f.multiplicity() == of.multiplicity()
    else:
        for p in (f, of):
            with pytest.raises(PolynomialError):
                p.multiplicity()
    # equal polynomials store equal rows: == agrees with the oracle and hash
    assert (f == g) == (of == og)
    reordered = BivariatePolynomial(reversed(list(a.items())))
    for h in (f + g - g, reordered, f.scale(3).scale(F(1, 3))):
        assert h == f and hash(h) == hash(f)


# sparse rows up to y^300 with empty rows between, coefficients up to 2^600
# of both signs, over a denominator; shifts a/b with b up to 10^6, and 0
BIG_ROWS = st.lists(
    st.dictionaries(st.integers(0, 300), st.integers(-(2**600), 2**600), max_size=4),
    min_size=1,
    max_size=4,
)
SHIFTS = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-(2**40), -1), st.sampled_from([1, 2, 3, 10**6])),
)


@settings(max_examples=40, deadline=None)
@given(BIG_ROWS, st.integers(1, 10**6), SHIFTS)
def test_shift_matches_the_horner_oracle(rows, den, c):
    f = BivariatePolynomial(
        {(m, n): Fraction(v, den) for m, row in enumerate(rows) for n, v in row.items()}
    )
    assert rows_of(f.shift_y(c)) == rows_of(oracles.shift_y_by_horner(f, c))


def test_shift_at_the_edges():
    x, y = BivariatePolynomial.monomial(1, 0), BivariatePolynomial.monomial(0, 1)
    one = BivariatePolynomial.monomial(0, 0)
    cases = [
        (y**300 - x * y, Fraction(-1)),  # one dense output row from two terms
        (x**3 + y**5 * x, Fraction(7, 10**6)),  # a row without y
        ((y - one) ** 40, Fraction(1)),  # every coefficient cancels but the top
        (y.scale(2**600) - y**2, Fraction(-(2**600), 3)),
        ((x + y) ** 12, Fraction(-5, 6)),
        # one long shift: rows up to y^200, by a numerator of 41 digits
        ((y - one.scale(3)) ** 200 + x * y**199, Fraction(10**40 + 7, 3)),
    ]
    for f, c in cases:
        assert rows_of(f.shift_y(c)) == rows_of(oracles.shift_y_by_horner(f, c)), (f, c)
    assert rows_of(((y - one) ** 40).shift_y(1)) == rows_of(y**40)


HEAVY_GERMS = (
    # the heaviest germ-theorem germs: two of seed 211, one of seed 3
    "(y^3 - (-3)*(x + (-1)*y^2)^5)*(y^4 - (-3)*(x + (-1)*y^2)^9)"
    "*(y^7 - (-2/3)*(x + (-1)*y^2)^8)",
    "((x + 1*y^2)^5 - (-3)*y^8)*(y^3 - (1/2)*(x + 1*y^2)^8)*(y^7 - (-2/3)*(x + 1*y^2)^8)",
    "(y^3 - 1*(x + 1*y^2)^5)*(y^4 - (-2/3)*(x + 1*y^2)^9)*(y^7 - (-2/3)*(x + 1*y^2)^8)",
)


def recorded_shifts(monkeypatch):
    """The (f, c, f.shift_y(c)) of every shift made from now on."""
    calls = []
    shift = BivariatePolynomial.shift_y

    def recorded(f, c):
        g = shift(f, c)
        calls.append((f, c, g))
        return g

    monkeypatch.setattr(BivariatePolynomial, "shift_y", recorded)
    return calls


def tilted(f: BivariatePolynomial, lam) -> BivariatePolynomial:
    """f(x, y + lam x): a cone that is a power of y becomes one of y + lam x."""
    x, y = BivariatePolynomial.monomial(1, 0), BivariatePolynomial.monomial(0, 1)
    line, out = y + x.scale(lam), BivariatePolynomial()
    for (m, n), c in f.terms.items():
        out = out + (x**m * line**n).scale(c)
    return out


@pytest.mark.parametrize("text", HEAVY_GERMS)
def test_the_heavy_germs_shift_no_chart(text, monkeypatch):
    # every nonzero tangent direction these germs meet is a simple root of
    # its tangent cone, smooth and transverse there, so it gets no chart
    from singular_lct import resolve_curve

    calls = recorded_shifts(monkeypatch)
    resolve_curve(P(text))
    assert calls == []


@pytest.mark.parametrize("text", HEAVY_GERMS)
def test_every_shift_of_a_heavy_resolution_matches_the_horner_oracle(text, monkeypatch):
    # tilted by y -> y + lam x, the root's cone is (y + lam x)^14 or ^15: its
    # one direction is followed by a nonzero shift in each of the two
    # precision attempts, the second of rows up to y^31 and 372 cells
    from singular_lct import resolve_curve

    lam = dict(zip(HEAVY_GERMS, (2, F(-1, 3), 1)))[text]
    f = tilted(P(text), lam)
    calls = recorded_shifts(monkeypatch)
    resolve_curve(f)
    assert [c for _, c, _ in calls if c] == [-lam, -lam]
    for g, c, h in calls:
        assert rows_of(h) == rows_of(oracles.shift_y_by_horner(g, c)), (g, c)


def test_the_constructor_bounds_exponents():
    from singular_lct.poly import MAX_EXPONENT

    for m, n in ((10**6, 0), (0, MAX_EXPONENT + 1), (MAX_EXPONENT + 1, MAX_EXPONENT + 1)):
        with pytest.raises(PolynomialError, match=f"exceeds {MAX_EXPONENT}"):
            BivariatePolynomial.monomial(m, n)
    with pytest.raises(PolynomialError):
        BivariatePolynomial({(0, 0): 1, (0, 10**6): 2})
    top = BivariatePolynomial.monomial(MAX_EXPONENT, MAX_EXPONENT, 3)
    assert top.coefficient(MAX_EXPONENT, MAX_EXPONENT) == 3
    # arithmetic and the charts are not bounded: they only combine inputs
    y = BivariatePolynomial.monomial(0, 1)
    wide = BivariatePolynomial.monomial(0, MAX_EXPONENT) * y - BivariatePolynomial.monomial(1, 0)
    assert wide.coefficient(0, MAX_EXPONENT + 1) == 1
    assert wide.blowup_y_chart().coefficient(0, MAX_EXPONENT) == 1


def random_rows(rng):
    """Integer rows up to x^11 y^14: empty rows, gaps between the terms of
    a row, and coefficients up to 2^200 of both signs."""
    rows = []
    for _ in range(rng.randint(1, 12)):
        row = [0] * rng.randint(0, 15)
        for n in rng.sample(range(len(row)), min(len(row), rng.randint(0, 4))):
            row[n] = rng.randint(-(2**200), 2**200)
        rows.append(row)
    return rows


def test_row_reads_match_the_term_stream_oracles():
    import random

    from singular_lct.poly import _boundary, _leads, _mapped

    rng = random.Random(20)
    for _ in range(400):
        den = rng.choice([1, 2, 3**40, rng.randint(1, 10**6)])
        rows = random_rows(rng)
        f = BivariatePolynomial(
            {(m, n): F(c, den) for m, row in enumerate(rows) for n, c in enumerate(row) if c}
        )
        if f.is_zero():
            continue
        mult = f.multiplicity()
        assert mult == min(m + n for m, n in f.support())
        # x^k divides f(x, x y) and y^k divides f(x y, y) for every k <= mult
        for k in range(max(mult - 2, 0), mult + 1):
            for chart in ((1, 1, 0, 1, k, 0), (1, 0, 1, 1, 0, k)):
                assert rows_of(_mapped(f, chart)) == rows_of(oracles.mapped_by_terms(f, chart))
        # a composite of charts, cut at (x^c): the map and the place of the cut
        p, q, r, s = 1, 0, 0, 1
        for _ in range(rng.randint(0, 5)):
            p, q, r, s = (p + r, q + s, r, s) if rng.random() < 0.5 else (p, q, p + r, q + s)
        u = min(p * m + q * n for m, n in f.support()) - rng.randint(0, 2)
        v = min(r * m + s * n for m, n in f.support()) - rng.randint(0, 2)
        chart, cut = (p, q, r, s, u, v), rng.randint(0, 40)
        assert rows_of(_mapped(f, chart, cut)) == rows_of(oracles.mapped_by_terms(f, chart, cut))
        assert rows_of(f.leading_form()) == rows_of(oracles.leading_form_by_terms(f, mult))
        boundary = oracles.newton_boundary_by_normals(f._entries())
        assert _boundary(f._entries()) == _boundary(_leads(f)) == boundary


def test_flat_product_matches_the_row_pair_oracle():
    import random

    from singular_lct.poly import _mul, _trim

    rng = random.Random(7)

    def trimmed_rows(size):
        # up to x^7 y^9, with empty rows between and gaps inside the rows
        rows = []
        for _ in range(rng.randint(0, 8)):
            row = [0] * rng.randint(0, 10)
            for n in rng.sample(range(len(row)), min(len(row), rng.randint(0, 4))):
                row[n] = rng.randint(-size, size)
            rows.append(_trim(row))
        return _trim(rows)

    for trial in range(600):
        # small coefficients cancel inside the product, large ones carry
        size = 2 if trial % 2 else 2**600
        f, g = trimmed_rows(size), trimmed_rows(size)
        assert _mul(f, g, 1) == oracles.mul_by_row_pairs(f, g, 1), (f, g)
        for a, b in zip(f, g):  # the level-0 products of the gcd code
            assert _mul(a, b, 0) == oracles.mul_by_row_pairs(a, b, 0), (a, b)


# whitespace that str.isspace accepts, ASCII and not
SPACES = ("", "", " ", "  ", "\t", "\n", "\xa0", "\u2003", "\x1c")


@st.composite
def near_grammatical(draw):
    """A string of the polynomial grammar in ASCII digits, with its
    whitespace, at and past its limits, and sometimes broken by one edit."""
    from singular_lct.poly import MAX_DIGITS, MAX_EXPONENT, MAX_NESTING, MAX_POWER_DEGREE

    def rare():
        return draw(st.integers(0, 7)) == 0

    def ws():
        return draw(st.sampled_from(SPACES))

    def number():
        if rare():
            return draw(st.sampled_from(["007", "1" * 40, "9" * 1000, "9" * 4300, "9" * 4301]))
        return str(draw(st.integers(0, 12)))

    def base(depth):
        budget[0] -= 1
        kind = draw(st.integers(0, 4 if depth < 3 and budget[0] > 0 else 3))
        if kind < 2:
            return "xy"[kind]
        if kind == 2:
            return number() + (ws() + "/" + ws() + number() if draw(st.booleans()) else "")
        if kind == 3 and rare():
            nest = draw(st.sampled_from([MAX_NESTING - depth, MAX_NESTING + 1 - depth]))
            return "(" * nest + draw(st.sampled_from(["x", "y - 1", "2x + y"])) + ")" * nest
        return "(" + ws() + expr(depth + 1) + ws() + ")"

    def factor(depth):
        text = base(depth)
        if draw(st.booleans()):
            # large exponents on x and y alone: a tower of constants grows
            # without a bound, and the limit powers of sums come below
            big = text in ("x", "y") and rare()
            exponent = draw(st.sampled_from(exponents) if big else st.integers(0, 5))
            text += ws() + "^" + ws() + str(exponent)
        return text

    def term(depth):
        text = factor(depth)
        while budget[0] > 0 and draw(st.booleans()):
            text += ws() + draw(st.sampled_from(["*", "", " "])) + ws() + factor(depth)
        return text

    def expr(depth):
        text = draw(st.sampled_from(["", "-", "+"])) + ws() + term(depth)
        while budget[0] > 0 and draw(st.booleans()):
            text += ws() + draw(st.sampled_from("+-")) + ws() + term(depth)
        return text

    budget = [draw(st.integers(1, 12))]  # the factors left to draw
    exponents = [MAX_POWER_DEGREE, MAX_EXPONENT - 1, MAX_EXPONENT, MAX_EXPONENT + 1]
    text = expr(0)
    if rare():  # the largest powers and products the bounds let through, and past them
        limits = [
            f"(x+y+1)^{MAX_POWER_DEGREE}",
            f"(x - y)^{MAX_POWER_DEGREE + 1}",
            "(x + y + 1)^20",
            "(x^500 + y^500)",
            f"x^{MAX_EXPONENT}",
        ]
        text += draw(st.sampled_from(["*", " ", "+", "-"])) + draw(st.sampled_from(limits))
    if rare():  # constants at the digit limit, and sums, products and powers past it
        nines, big = "9" * MAX_DIGITS, "9" * 1000
        limits = [nines, f"({nines} + 1)", f"({big}*x + 1)^4", f"({big}*x + 1)^5"]
        text += draw(st.sampled_from(["*", " ", "+", "-"])) + draw(st.sampled_from(limits))
    if draw(st.integers(0, 3)) == 0:  # one edit breaks it, or not
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from("()^*/+-xyz0 \t\xa0\u2003\x1c")) + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    return text


def parse_outcome(parse, text):
    try:
        f = parse(text)
    except ParseError as err:
        return str(err), err.pos
    return rows_of(f), hash(f)


@seed(5119)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_grammatical())
def test_parser_matches_the_char_scan_oracle(text):
    from itertools import chain

    from singular_lct.poly import MAX_DIGITS

    ours = parse_outcome(P, text)
    assert ours == parse_outcome(oracles.parse_by_char_scan, text)
    if not isinstance(ours[0], str):  # no parse builds a constant past a literal's digits
        (den, rows), _ = ours
        assert max([den, *map(abs, chain.from_iterable(rows))]) < 10**MAX_DIGITS


def test_the_token_stream_is_read_lazily():
    # a million x's fail at the 1001st, where x^1001 passes MAX_EXPONENT; the
    # tokens are read one at a time, where a list of all of them would hold
    # about 100 MB
    import tracemalloc

    text = "x" * 1_000_000
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="^exponent 1001 of x exceeds 1000 at position 1000:"):
            P(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20, peak


def test_a_product_by_one_term_moves_rows_without_the_product_kernel(monkeypatch):
    # a chain of letters multiplies by one term at every factor: the rows
    # of the other side move and scale, no _mul runs, and the term count,
    # top exponents and largest numerator are carried, so 2,000 letters cost
    # no row list per factor; every parse or error, the products by zero
    # among them, equals the char-scan oracle's
    from singular_lct import poly
    from singular_lct.poly import MAX_DIGITS

    calls = []
    mul = poly._mul
    monkeypatch.setattr(poly, "_mul", lambda f, g, u: calls.append(u) or mul(f, g, u))
    chains = {"x" * 1000 + "y" * 1000: (1000, 1000), "xy" * 1000: (1000, 1000)}
    chains["y" * 1000 + "x" * 999] = (999, 1000)
    for text, (m, n) in chains.items():
        assert P(text) == BivariatePolynomial.monomial(m, n) and calls == []
    short = ["(-2/3)x*(9/4)y^3*6y", "x*(1/2)*(x - 2y)*(2/3)*y^2", "(x + y)*x*y*(1/2)"]
    short += ["3(x - 2y) x^998 y", "(1/2)" + "x" * 20 + "(x + (1/3)y)"]
    ours = [P(text) for text in short]
    assert calls == []
    monkeypatch.undo()
    for text, f in zip(short, ours):
        assert rows_of(f) == rows_of(oracles.parse_by_char_scan(text)), text
    for text in ("x*0*y", "0*x^5", "(x - x)*y*(x + y)", "2*(x + y)*(x - y)"):
        assert rows_of(P(text)) == rows_of(oracles.parse_by_char_scan(text)), text
    # a zero product starts the extent again; the carried top bounds digits
    big = "9" * (MAX_DIGITS // 2 + 1)
    edges = ["x^600*0*x^600", "x^600*(x - x)*x^600", "x^600*x^600*0", "(x + y)x^999y^1000x"]
    edges += [f"{big}x*{big}", f"({big}x + y)*y*{big}", f"(1/{big})*x*(1/{big})", f"{big}*0*{big}"]
    for text in edges:
        assert parse_outcome(P, text) == parse_outcome(oracles.parse_by_char_scan, text), text


@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("y^2 - x³", "unexpected character", 7),
        ("x^²", "exponent expected", 2),
        ("x²", "unexpected character", 1),
        ("2¹/3", "unexpected character", 1),
        ("²", "expected a term", 0),
    ],
)
def test_superscript_digits_are_not_digits(text, message, pos):
    # '³'.isdigit() holds but int('³') fails: the parser reads str.isdecimal digits
    with pytest.raises(ParseError, match=f"^{message} at position {pos}:") as err:
        P(text)
    assert err.value.pos == pos


def test_decimal_digits_of_other_scripts_still_parse():
    assert P("x^٣ - ٢/٣ y") == P("x^3 - 2/3 y")
