"""The stdlib gcd and tangent-cone roots against the sympy oracles.

`polynomial_gcd` (heuristic gcd with a primitive PRS fallback) must give
the same gcd(f, f_x, f_y) as sympy, and `resolution._tangent_roots`
(Yun's squarefree split plus Sturm isolation) the same roots,
multiplicities and errors as sympy's factorisation over Q.  `resolve_curve`
must give the same clusters, diagrams and errors as the recursive
`oracles.resolve_curve_by_recursion` on the same germs, and as the exact
worklist `oracles.resolve_curve_by_blowups`, which checks reducedness
before it resolves, on the longest chain, the mixed errors and random germs.
"""

import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from singular_lct import (
    BivariatePolynomial,
    NonRationalTangentError,
    NonReducedError,
    ResolutionError,
    resolve_curve,
)
from singular_lct import poly, resolution
from singular_lct.corpus import SPECIAL_CURVES, coprime_pairs, corpus_curves
from singular_lct.poly import _poly_from, polynomial_gcd, rational_roots

P = BivariatePolynomial.parse
X = BivariatePolynomial.monomial(1, 0)
Y = BivariatePolynomial.monomial(0, 1)
ONE = BivariatePolynomial.monomial(0, 0)
T = sympy.symbols("t")

CURVES = (
    [P(text) for _, text in corpus_curves(12)]
    + [P(f"x^{p} - y^{q}") for p, q in coprime_pairs(20)]
    + [P(text) for _, text in SPECIAL_CURVES]
    + [
        P(text)
        for text in (
            "(x^2-y^3)*(y^2-2*x^2)^2",
            "(y^2-2*x^2)^2 - x^5",
            "(x^2-y^3)*(x-1)^2",
            "(x^2-y^3)*(1+x+y)^3",
            "(x^2-y^3)*(y-x^2)^2",
            "x^2*y",
            "2*y^2",
            "(x + y)^2",
        )
    ]
)


def primitive(f: BivariatePolynomial) -> BivariatePolynomial:
    """f scaled to integer coefficients with content 1 and a positive
    coefficient at its lexicographically largest exponent (x first)."""
    if not f:
        return f
    terms = f.terms
    scale = Fraction(lcm(*(c.denominator for c in terms.values())))
    ints = {t: int(c * scale) for t, c in terms.items()}
    content = gcd(*ints.values()) if ints[max(ints)] > 0 else -gcd(*ints.values())
    return BivariatePolynomial({t: Fraction(c, content) for t, c in ints.items()})


def sympy_gcd(f: BivariatePolynomial) -> BivariatePolynomial:
    return primitive(oracles.from_sympy(oracles.reducedness_gcd_by_sympy(f)))


def library_gcd(f: BivariatePolynomial) -> BivariatePolynomial:
    return polynomial_gcd(f, f.derivative("x"), f.derivative("y"))


def outcome(fn, arg):
    try:
        return ("ok", fn(arg))
    except (NonReducedError, NonRationalTangentError) as exc:
        return (type(exc).__name__, exc)


def assert_reducedness_agrees(f):
    assert library_gcd(f) == sympy_gcd(f), str(f)
    ours = outcome(resolution._require_reduced, f)
    theirs = outcome(oracles.require_reduced_by_sympy, f)
    assert ours[0] == theirs[0], str(f)
    if ours[0] != "ok":
        assert ours[1].factor == primitive(theirs[1].factor)


def assert_roots_agree(form):
    ours = outcome(oracles.tangent_roots, form)
    theirs = outcome(oracles.tangent_roots_by_sympy, form)
    assert ours[0] == theirs[0], str(form)
    if ours[0] == "ok":
        assert ours[1] == theirs[1], str(form)
        return
    # our factor is one squarefree part: irreducible factors of degree >= 2
    # that all have one multiplicity >= 2 in F(1, t)
    d, k = form.degree(), ours[1].factor.degree()
    phi = sympy.Poly([rational(form.coefficient(d - n, n)) for n in range(d, -1, -1)], T, domain="QQ")
    part = sympy.Poly([rational(ours[1].factor.coefficient(k - j, j)) for j in range(k, -1, -1)], T, domain="QQ")
    mults = {fac.monic().as_expr(): e for fac, e in phi.factor_list()[1]}
    pieces = part.factor_list()[1]
    assert all(e == 1 and fac.degree() >= 2 for fac, e in pieces)
    shared = {mults[fac.monic().as_expr()] for fac, _ in pieces}
    assert len(shared) == 1 and min(shared) >= 2


def rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def visited_forms(f):
    """The tangent cones that resolve_curve factors on f."""
    forms = []
    original = resolution._tangent_roots

    def record(cone, den):
        forms.append(_poly_from(cone, den))
        return original(cone, den)

    resolution._tangent_roots = record
    try:
        resolve_curve(f)
    except ResolutionError:
        pass
    finally:
        resolution._tangent_roots = original
    return forms


def test_gcd_and_roots_match_sympy_on_the_corpus():
    for f in CURVES:
        assert_reducedness_agrees(f)
        for form in visited_forms(f):
            assert_roots_agree(form)


def test_forced_prs_fallback_matches_sympy(monkeypatch):
    monkeypatch.setattr(poly, "_HEU_GCD_ATTEMPTS", 0)
    for f in CURVES:
        assert_reducedness_agrees(f)
        for form in visited_forms(f):
            assert_roots_agree(form)


def substitute_tilt(f: BivariatePolynomial, c, k: int) -> BivariatePolynomial:
    """f(x + c y^k, y)."""
    shifted = X + (Y**k).scale(c)
    out = BivariatePolynomial()
    for (m, n), coeff in f.terms.items():
        out = out + (shifted**m * Y**n).scale(coeff)
    return out


COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def branches(draw):
    a = draw(st.integers(1, 4))
    b = draw(st.integers(a, 6))
    c = draw(COEFFS)
    if draw(st.booleans()):
        return Y**a - (X**b).scale(c)
    return X**a - (Y**b).scale(c)


@st.composite
def germs(draw):
    f = ONE
    for branch in draw(st.lists(branches(), min_size=1, max_size=3)):
        f = f * branch
    repeat = draw(st.sampled_from(["none", "origin", "unit", "line"]))
    if repeat == "origin":  # a repeated branch through the origin
        f = f * draw(branches()) ** 2
    elif repeat == "unit":  # a repeated factor that is a unit at the origin
        f = f * (ONE + X.scale(draw(COEFFS)) + Y) ** draw(st.integers(2, 3))
    elif repeat == "line":  # a repeated line off the origin
        f = f * (X - ONE.scale(draw(COEFFS))) ** 2
    if draw(st.booleans()):
        f = substitute_tilt(f, draw(COEFFS), draw(st.integers(1, 2)))
    return f


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
def test_gcd_and_roots_match_sympy_on_random_germs(f):
    assert_reducedness_agrees(f)
    for form in visited_forms(f):
        assert_roots_agree(form)


def resolution_outcome(resolve, f, **kw):
    try:
        kl, d = resolve(f, **kw)
    except ResolutionError as exc:
        return type(exc), str(exc)
    return kl, d, d.tree.parents, d.tree.kinds, d.tree.x_side


def resolve_capped(f, max_points=resolution.MAX_POINTS):
    """resolve_curve with its blowup limit set to max_points."""
    with mock.patch.object(resolution, "MAX_POINTS", max_points):
        return resolve_curve(f)


def assert_loop_matches_recursion(f):
    for kw in ({}, {"max_points": 3}):
        ours = resolution_outcome(resolve_capped, f, **kw)
        assert ours == resolution_outcome(oracles.resolve_curve_by_recursion, f, **kw), str(f)


# a cusp beside a singular irrational continuation: which error comes first
# depends on the order the points are visited in
MIXED = [P("(y^2-x^11)*((x^2-2*y^4)^2 - y^9)"), P("((y^2-2*x^4)^2 - x^9)*(x^2-y^11)")]


def test_worklist_resolution_matches_the_recursive_oracle():
    for f in CURVES + [P(text) for _, text in corpus_curves(20)] + MIXED:
        assert_loop_matches_recursion(f)


def test_resolution_at_local_precision_matches_the_exact_worklist():
    # 500 points, exactly max_points; one past it; and the errors of the
    # mixed germs, message for message
    for f, kws in (
        (P("y^2 - x^997"), ({},)),
        (P("y^2 - x^999"), ({},)),
        *((f, ({}, {"max_points": 3})) for f in MIXED),
    ):
        for kw in kws:
            ours = resolution_outcome(resolve_capped, f, **kw)
            assert ours == resolution_outcome(oracles.resolve_curve_by_blowups, f, **kw), str(f)
    assert len(resolution_outcome(resolve_curve, P("y^2 - x^997"))[0].cluster) == 500
    assert resolution_outcome(resolve_curve, P("y^2 - x^999")) == (
        ResolutionError,
        "resolution exceeded 500 blowups",
    )
    assert [resolution_outcome(resolve_curve, f)[0] for f in MIXED] == [NonRationalTangentError] * 2


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
def test_worklist_resolution_matches_the_recursive_oracle_on_random_germs(f):
    assert_loop_matches_recursion(f)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(germs())
def test_resolution_matches_the_eager_reducedness_check_on_random_germs(f):
    # the gcd runs only when a trigger or an error needs it; the resolved
    # germs keep Noether's sum of m(m - 1) within d(d - 1)
    for kw in ({"max_points": 3}, {}):  # the default last: checked below
        ours = resolution_outcome(resolve_capped, f, **kw)
        assert ours == resolution_outcome(oracles.resolve_curve_by_blowups, f, **kw), str(f)
    if not isinstance(ours[0], type):
        d = f.degree()
        assert sum(m * (m - 1) for m in ours[0].weights) <= d * (d - 1), str(f)


IRREDUCIBLE_QUADRATICS = ((0, -2), (0, 1), (1, 1), (0, -3), (2, -1), (1, -1), (3, 1), (0, -5))


@st.composite
def binary_forms(draw):
    """Products of rational lines q y - p x, irreducible quadratics
    y^2 + b x y + c x^2 and a power of x, with random multiplicities."""
    f = ONE.scale(draw(st.sampled_from([1, -1, 3, Fraction(2, 5)])))
    for _ in range(draw(st.integers(0, 3))):
        p, q = draw(st.integers(-6, 6)), draw(st.integers(1, 5))
        f = f * (Y.scale(q) - X.scale(p)) ** draw(st.integers(1, 4))
    for _ in range(draw(st.integers(0, 2))):
        b, c = draw(st.sampled_from(IRREDUCIBLE_QUADRATICS))
        f = f * (Y * Y + (X * Y).scale(b) + (X * X).scale(c)) ** draw(st.integers(1, 3))
    return f * X ** draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(binary_forms())
def test_roots_match_sympy_on_binary_forms(form):
    if form.degree() == 0:
        return
    assert_roots_agree(form)


def test_rational_roots_of_a_repeated_mix():
    # 2 (t - 2)^2 (t + 2)^2 (3t + 5) (t^2 - 2)^2
    phi = sympy.Poly(2 * (T - 2) ** 2 * (T + 2) ** 2 * (3 * T + 5) * (T**2 - 2) ** 2, T)
    roots, rest = rational_roots([int(c) for c in reversed(phi.all_coeffs())])
    assert roots == [(Fraction(-2), 2), (Fraction(-5, 3), 1), (Fraction(2), 2)]
    assert rest == [([-2, 0, 1], 2)]


def test_a_power_of_one_linear_factor_skips_yun_and_sturm(monkeypatch):
    # random c (v t - u)^k and the same with one coefficient moved by one
    # or one term added above; a miss falls through to Yun and Sturm, and
    # both agree with the oracle that has no shortcut
    rng = random.Random(20)
    powers, misses = [], []
    for _ in range(200):
        k = rng.randint(1, 8)
        u, v = rng.choice([0, rng.randint(-(10**4), 10**4)]), rng.randint(1, 100)
        p = [rng.choice([-1, 1]) * rng.randint(1, 2**40)]
        for _ in range(k):
            p = poly._mul(p, [-u, v], 0)
        powers.append((p, Fraction(u, v), k))
        j = rng.randrange(k + 2)
        near = p + [0] if j > k else list(p)
        near[j] += rng.choice([-1, 1])
        misses.append(poly._trim(near))
    for p in [p for p, _, _ in powers] + misses:
        assert rational_roots(p) == oracles.rational_roots_by_yun_sturm(p), p

    def unused(f):
        raise AssertionError("Yun's split ran on a power of a linear factor")

    monkeypatch.setattr(poly, "_squarefree_parts", unused)
    for p, r, k in powers:
        assert rational_roots(p) == ([(r, k)], []), p


def random_poly(rng, level, degree, size):
    if level < 0:
        return rng.randint(-size, size)
    return poly._trim([random_poly(rng, level - 1, degree, size) for _ in range(rng.randint(0, degree) + 1)])


def test_prs_fallback_equals_heuristic_gcd():
    rng = random.Random(5)
    checked = 0
    for trial in range(300):
        level = trial % 2
        g = random_poly(rng, level, 3, 4)
        f = poly._mul(g, random_poly(rng, level, 3, 4), level)
        h = poly._mul(g, random_poly(rng, level, 3, 4), level)
        if not f or not h:
            continue
        f = poly._iquo(f, poly._icontent(f, level), level)
        h = poly._iquo(h, poly._icontent(h, level), level)
        heuristic = poly._heu_gcd(f, h, level)
        prs = poly._prs_gcd(f, h, level)
        assert heuristic is not None
        assert heuristic == prs
        assert poly._quo(f, prs, level) is not None and poly._quo(h, prs, level) is not None
        checked += 1
    assert checked > 200


def test_heuristic_gcd_gives_up_without_attempts(monkeypatch):
    monkeypatch.setattr(poly, "_HEU_GCD_ATTEMPTS", 0)
    assert poly._heu_gcd([1, 1], [-1, 1], 0) is None
    assert polynomial_gcd(P("x^2 - y^2"), P("x^2 + 2*x*y + y^2")) == P("x + y")
