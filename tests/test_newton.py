import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from singular_lct import (
    BivariatePolynomial,
    InfiniteStaircaseError,
    MonomialIdeal,
    MonomialIdealError,
    Staircase,
    UnitIdealError,
    howald_multiplier,
    integral_closure,
    jumping_numbers_curve,
    jumping_numbers_monomial,
    lct_monomial,
    newton_facets,
    resolve_curve,
    staircase_sum,
    term_ideal,
    triangle,
)
from singular_lct import newton
from singular_lct.poly import _antichain

P = BivariatePolynomial.parse
F = Fraction


def ideal(*gens):
    return MonomialIdeal(gens)


def random_ideal(rng, max_gens=6, max_exp=12, origin_cosupport=False):
    gens = set()
    if origin_cosupport:
        gens.add((rng.randint(1, max_exp), 0))
        gens.add((0, rng.randint(1, max_exp)))
    else:
        gens.add((rng.randint(0, max_exp), rng.randint(0, max_exp)))
    for _ in range(rng.randint(0, max_gens - 1)):
        gens.add((rng.randint(0, max_exp), rng.randint(0, max_exp)))
    a = MonomialIdeal(gens)
    return a if not a.is_unit() else ideal((1, 0), (0, 1))


# -- term ideals -----------------------------------------------------------------


def test_term_ideal_double_cusp_curve():
    a = term_ideal(P("(x^3 - y^2)^2 - x^5*y"))
    assert a.generators == ((0, 4), (3, 2), (5, 1), (6, 0))


def test_term_ideal_two_terms():
    assert term_ideal(P("x^5 - y^7")).generators == ((0, 7), (5, 0))


def test_term_ideal_full_square():
    assert term_ideal(P("(x+y)^2")).generators == ((0, 2), (1, 1), (2, 0))


def test_term_ideal_zero_rejected():
    with pytest.raises(MonomialIdealError):
        term_ideal(BivariatePolynomial.zero())


# -- integral closure ------------------------------------------------------------


def test_closure_of_square_corner():
    assert integral_closure(ideal((2, 0), (0, 2))).generators == (
        (0, 2),
        (1, 1),
        (2, 0),
    )


def test_closure_adds_points_under_the_showcase_polygon():
    # (3,2) is a vertex of the polygon, but (6,1) and (2,3) also lie in it,
    # so the showcase ideal is not integrally closed; brute enumeration of
    # the polygon's lattice points is the oracle here.
    gens = ((8, 0), (3, 2), (0, 4))
    expected = tuple(oracles.closure_gens(gens))
    assert expected == ((0, 4), (2, 3), (3, 2), (6, 1), (8, 0))
    assert integral_closure(ideal(*gens)).generators == expected


def test_closure_of_cusp_pair_contains_mixed_point():
    closed = integral_closure(ideal((5, 0), (0, 7)))
    assert (3, 3) in closed.generators  # 3/5 + 3/7 >= 1
    assert closed.generators == tuple(oracles.closure_gens(((5, 0), (0, 7))))


def test_closure_idempotent_and_extensive_random():
    rng = random.Random(7)
    for _ in range(60):
        a = random_ideal(rng)
        closed = integral_closure(a)
        assert integral_closure(closed) == closed
        for g in a.generators:
            assert closed.contains(*g)
        assert closed.generators == tuple(oracles.closure_gens(a.generators))


# -- facets ----------------------------------------------------------------------


def test_facets_showcase_ideal():
    fs = newton_facets(ideal((8, 0), (3, 2), (0, 4)))
    assert [(f.p, f.q, f.d) for f in fs] == [(3, 2, 1), (5, 2, 1)]
    assert fs[0].start == (0, 4) and fs[0].end == (3, 2)


def test_facets_single_compact_face():
    fs = newton_facets(ideal((6, 0), (5, 1), (3, 2), (0, 4)))
    assert [(f.p, f.q, f.d) for f in fs] == [(3, 2, 2)]
    assert fs[0].support(1, 1) == F(5, 12)


def test_facets_two_pure_powers():
    (f,) = newton_facets(ideal((5, 0), (0, 7)))
    assert (f.p, f.q, f.d) == (5, 7, 1)


def test_facets_steepness_order():
    rng = random.Random(19)
    for _ in range(40):
        fs = newton_facets(random_ideal(rng))
        slopes = [f.slope for f in fs]
        assert slopes == sorted(slopes)


def _ideal_with_collinear_runs(rng):
    # a convex chain of one to three segments, steepest first, each keeping
    # some of its inner lattice points, and perhaps one random point besides
    steps = ((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(3))
    chain = {(p // gcd(p, q), q // gcd(p, q)) for p, q in steps}
    runs = [(p, q, rng.randint(2, 4)) for p, q in sorted(chain, key=lambda d: F(-d[1], d[0]))]
    m, n = rng.randint(0, 3), sum(q * k for _, q, k in runs) + rng.randint(0, 3)
    gens = [(m, n)]
    for p, q, k in runs:
        inner = [i for i in range(1, k) if rng.random() < 0.6] or [rng.randint(1, k - 1)]
        gens += [(m + i * p, n - i * q) for i in inner] + [(m + k * p, n - k * q)]
        m, n = m + k * p, n - k * q
    gens += [(rng.randint(0, 24), rng.randint(0, 24)) for _ in range(rng.randint(0, 1))]
    return MonomialIdeal(gens)


def test_the_facets_merge_the_collinear_runs_of_the_one_boundary():
    # newton_facets reads poly's Newton boundary, which keeps the terms
    # inside a collinear run, and merges each run into one facet: it agrees
    # with the earlier hull loop, and its facet ends are the corners of the
    # boundary the resolution walks
    from test_engine import germ_theorem_inputs

    from singular_lct.corpus import corpus_curves
    from singular_lct.poly import _boundary, _leads

    rng = random.Random(37)
    ideals = [
        _ideal_with_collinear_runs(rng) if i % 3 == 0 else random_ideal(rng, 8, 16, i % 2 == 0)
        for i in range(3000)
    ]
    runs = sum(len(_boundary(a.generators)) > len(newton_facets(a)) + 1 for a in ideals)
    assert runs >= 900, runs
    corpus = [P(text) for _, text in corpus_curves(20)]
    for a in ideals + [term_ideal(f) for f in corpus]:
        assert newton_facets(a) == oracles.newton_facets_by_hull(a), a
    for f in corpus + [P(text) for text in germ_theorem_inputs(5)]:
        hull = [t[:2] for t in _boundary(_leads(f))]
        corners = {
            b for a, b, c in zip(hull, hull[1:], hull[2:])
            if (b[0] - a[0]) * (c[1] - b[1]) != (b[1] - a[1]) * (c[0] - b[0])
        }
        facets = newton_facets(term_ideal(f))
        ends = {g.start for g in facets} | {g.end for g in facets}
        assert ends == (corners | {hull[0], hull[-1]} if len(hull) > 1 else set()), str(f)


# -- lct -------------------------------------------------------------------------


def test_lct_showcase():
    assert lct_monomial(ideal((8, 0), (3, 2), (0, 4))) == F(5, 12)


def test_lct_term_ideal_of_double_cusp_curve():
    assert lct_monomial(term_ideal(P("(x^3 - y^2)^2 - x^5*y"))) == F(5, 12)


def test_lct_maximal_ideal():
    assert lct_monomial(ideal((1, 0), (0, 1))) == F(2)


def test_lct_rejects_unit_and_principal():
    with pytest.raises(UnitIdealError):
        lct_monomial(ideal((0, 0)))
    # principal and non-convenient ideals get Howald's values
    assert lct_monomial(ideal((3, 0))) == F(1, 3)
    assert lct_monomial(ideal((3, 0), (2, 1))) == F(1, 2)


def test_lct_is_first_jumping_number_random():
    rng = random.Random(23)
    for i in range(50):
        a = random_ideal(rng, max_exp=8, origin_cosupport=i % 2 == 0)
        jumps = jumping_numbers_monomial(a, F(3))
        assert jumps[0] == lct_monomial(a)


# -- multiplier ideals ----------------------------------------------------------


def test_howald_showcase():
    a = ideal((8, 0), (3, 2), (0, 4))
    assert howald_multiplier(a, F(5, 12)).generators == ((0, 1), (1, 0))


def test_howald_below_threshold_is_trivial():
    for gens in [((8, 0), (3, 2), (0, 4)), ((2, 0), (0, 3)), ((1, 0), (0, 1))]:
        a = ideal(*gens)
        xi = lct_monomial(a) - F(1, 100)
        assert howald_multiplier(a, xi).is_unit()


def test_howald_square_at_one():
    assert howald_multiplier(ideal((2, 0), (0, 2)), F(1)).generators == (
        (0, 1),
        (1, 0),
    )


def test_howald_boundary_points_are_excluded():
    # (0,0) + (1,1) sits on the boundary of (5/12) Newt: excluded, so the
    # threshold itself is a jumping number
    a = ideal((8, 0), (3, 2), (0, 4))
    assert not howald_multiplier(a, F(5, 12)).is_unit()
    assert not howald_multiplier(a, F(5, 12)).contains(0, 0)
    assert howald_multiplier(a, F(5, 12) - F(1, 1000)).contains(0, 0)


def test_howald_monotone_shrinking_random():
    rng = random.Random(11)
    for _ in range(40):
        a = random_ideal(rng)
        x1 = F(rng.randint(1, 30), rng.randint(8, 24))
        x2 = x1 + F(rng.randint(0, 10), 7)
        small, large = howald_multiplier(a, x2), howald_multiplier(a, x1)
        for g in small.generators:
            assert large.contains(*g)


def test_howald_factors_through_closure_random():
    rng = random.Random(13)
    for _ in range(30):
        a = random_ideal(rng)
        xi = F(rng.randint(1, 40), rng.randint(10, 30))
        assert howald_multiplier(a, xi) == howald_multiplier(integral_closure(a), xi)


def test_howald_against_interior_oracle():
    rng = random.Random(17)
    for _ in range(25):
        a = random_ideal(rng, max_exp=10)
        xi = F(rng.randint(1, 90), rng.randint(2, 60))
        expected = tuple(oracles.multiplier_gens(a.generators, xi))
        assert howald_multiplier(a, xi).generators == expected


def test_howald_general_cosupport():
    # the interiority test includes the axis constraints, so principal and
    # one-axis ideals work too
    assert howald_multiplier(ideal((4, 0)), F(1, 2)).generators == ((2, 0),)
    assert howald_multiplier(ideal((1, 1)), F(1, 2)).generators == ((0, 0),)
    expected = tuple(oracles.multiplier_gens(((4, 1),), F(3, 4)))
    assert howald_multiplier(ideal((4, 1)), F(3, 4)).generators == expected


# -- jumping numbers --------------------------------------------------------------


def test_jumping_double_cusp_term_ideal():
    a = term_ideal(P("(x^3 - y^2)^2 - x^5*y"))
    jumps = jumping_numbers_monomial(a, F(1))
    assert jumps[:2] == [F(5, 12), F(7, 12)]


def test_jumping_225_cusp_ideal():
    # oracle enumeration gives (m+1)/2 + (n+1)/3 filtered by ideal change;
    # the bound is inclusive, so 3/2 (for the monomial y^2) is a jump too
    a = ideal((2, 0), (0, 3))
    expected = oracles.jumping_numbers(a.generators, F(3, 2))
    assert expected == [F(5, 6), F(7, 6), F(4, 3), F(3, 2)]
    assert jumping_numbers_monomial(a, F(3, 2)) == expected


def test_jumping_maximal_ideal():
    assert jumping_numbers_monomial(ideal((1, 0), (0, 1)), F(2)) == [F(2)]


def test_jumping_matches_change_filter_oracle_random():
    rng = random.Random(29)
    for i in range(20):
        a = random_ideal(rng, max_gens=4, max_exp=6, origin_cosupport=i % 2 == 0)
        bound = F(rng.randint(1, 5), 4)
        assert jumping_numbers_monomial(a, bound) == oracles.jumping_numbers(
            a.generators, bound
        )


def test_jumping_values_that_tie_across_facets():
    # v loses its place at nu(v + (1, 1)), and the facets (m + 4n)/6 and
    # (m + n)/3 both give 4/3: at v = (3, 0) as 8/6, at v = (1, 1) as 4/3.
    # A value reached on two facets of different levels is one jump, sorted
    # among the others
    a = ideal((6, 0), (2, 1), (0, 3))
    assert [(f.p, f.q, f.d) for f in newton_facets(a)] == [(1, 1, 2), (4, 1, 1)]
    jumps = jumping_numbers_monomial(a, F(3))
    assert jumps == oracles.jumping_numbers(a.generators, F(3))
    assert jumps == oracles.jumping_numbers_monomial_by_box_scan(a, F(3))
    assert jumps.count(F(4, 3)) == 1 and jumps == sorted(set(jumps))


# -- the Newton-function kernel against its earlier forms ---------------------------


def _convenient(a):
    return a.min_exponents() == (0, 0)


def _kernel_ideals():
    from singular_lct.corpus import coprime_pairs, corpus_curves

    for p, q in coprime_pairs(20):
        yield ideal((p, 0), (0, q))
    for _, text in corpus_curves(12):
        yield term_ideal(P(text))


def test_kernel_matches_facet_oracles_on_convenient_ideals():
    rng = random.Random(41)
    ideals = [a for a in _kernel_ideals() if _convenient(a)]
    ideals += [random_ideal(rng, max_exp=10, origin_cosupport=True) for _ in range(300)]
    assert len(ideals) > 400
    for a in ideals:
        assert lct_monomial(a) == oracles.lct_monomial_by_facets(a)
        assert integral_closure(a) == oracles.integral_closure_by_facets(a)
        for xi in (F(1, 3), lct_monomial(a), F(1), F(rng.randint(1, 60), rng.randint(1, 20))):
            assert howald_multiplier(a, xi) == oracles.howald_multiplier_by_facets(a, xi)
        for bound in (F(1), F(rng.randint(1, 8), 4)):
            assert jumping_numbers_monomial(
                a, bound
            ) == oracles.jumping_numbers_monomial_by_box_scan(a, bound)


def test_kernel_on_non_convenient_ideals():
    rng = random.Random(43)
    ideals = [a for a in _kernel_ideals() if not _convenient(a)]
    assert len(ideals) >= 5  # x*y, the triple point, the lines with curves
    while len(ideals) < 300:
        a = random_ideal(rng, max_exp=10)
        if not _convenient(a):
            ideals.append(a)
    for a in ideals:
        assert integral_closure(a) == oracles.integral_closure_by_facets(a)
        for xi in (F(1, 3), F(1), F(rng.randint(1, 60), rng.randint(1, 20))):
            assert howald_multiplier(a, xi) == oracles.howald_multiplier_by_facets(a, xi)
        jumps = jumping_numbers_monomial(a, F(2))
        assert jumps[0] == lct_monomial(a)
        assert not howald_multiplier(a, lct_monomial(a)).is_unit()
        assert howald_multiplier(a, lct_monomial(a) - F(1, 1000)).is_unit()
    for a in ideals[:12]:
        assert integral_closure(a).generators == tuple(oracles.closure_gens(a.generators))
        assert jumping_numbers_monomial(a, F(1)) == oracles.jumping_numbers(
            a.generators, F(1)
        )


def test_kernel_hand_checked_values():
    assert lct_monomial(ideal((0, 1))) == 1
    assert jumping_numbers_monomial(ideal((0, 1)), F(3)) == [1, 2, 3]
    assert jumping_numbers_monomial(ideal((1, 0)), F(3)) == [1, 2, 3]
    assert lct_monomial(ideal((1, 1))) == 1
    assert lct_monomial(ideal((0, 2), (2, 1))) == F(3, 4)
    assert jumping_numbers_monomial(ideal((0, 2), (2, 1)), F(1)) == [F(3, 4), 1]
    assert lct_monomial(ideal((2, 1), (0, 3))) == F(2, 3)
    with pytest.raises(UnitIdealError):
        jumping_numbers_monomial(ideal((0, 0)), F(1))


def test_curve_jumps_equal_term_ideal_jumps_when_non_degenerate():
    # Howald: for a germ non-degenerate with respect to its Newton polygon,
    # the jumps below 1 are those of its term ideal, convenient or not
    for text in ("y^2 + x^2*y", "x^2*y + y^3", "x*y*(x+y)", "y*(y^2 - x^5)",
                 "x*(y^2 - x^3)", "x*y"):
        f = P(text)
        kl, _ = resolve_curve(f)
        mono = [x for x in jumping_numbers_monomial(term_ideal(f), F(1)) if x < 1]
        assert jumping_numbers_curve(kl, F(1)) == mono, text
    # control: a degenerate germ, whose principal part is a square
    f = P("(y - x^2)^2 - x^5")
    kl, _ = resolve_curve(f)
    assert jumping_numbers_curve(kl, F(1)) == [F(7, 10), F(9, 10)]
    assert jumping_numbers_monomial(term_ideal(f), F(1)) == [F(3, 4), 1]


# -- staircases -------------------------------------------------------------------


def test_triangle_cells():
    assert triangle(1).slices() == (1,)
    assert triangle(3).slices() == (3, 2, 1)
    assert triangle(3).size() == 6
    assert triangle(4).to_ideal().generators == tuple(
        (i, 4 - i) for i in range(5)
    )
    with pytest.raises(MonomialIdealError):
        triangle(0)


def test_triangle_size_formula():
    for c in range(1, 12):
        assert triangle(c).size() == c * (c + 1) // 2


def test_staircase_sum_rowwise():
    s2, s1 = triangle(2), triangle(1)
    assert staircase_sum(s2, s1, "horizontal").slices() == (3, 1)


def test_staircase_sum_identity():
    a = Staircase.from_slices((4, 2, 1))
    assert staircase_sum(a, Staircase.empty(), "horizontal") == a
    assert staircase_sum(a, Staircase.empty(), "vertical") == a


def test_staircase_sum_associative_commutative_random():
    rng = random.Random(31)
    for direction in ("horizontal", "vertical"):
        for _ in range(25):
            stairs = []
            for _ in range(3):
                widths = sorted(
                    (rng.randint(0, 9) for _ in range(rng.randint(1, 5))),
                    reverse=True,
                )
                stairs.append(Staircase.from_slices(widths))
            a, b, c = stairs
            assert staircase_sum(a, b, direction) == staircase_sum(b, a, direction)
            assert staircase_sum(staircase_sum(a, b, direction), c, direction) == (
                staircase_sum(a, staircase_sum(b, c, direction), direction)
            )


def test_staircase_sums_add_rows_and_columns_random():
    # a vertical sum merges the row lists; its columns, read by transposing,
    # are the column heights added one by one
    rng = random.Random(43)

    def add(a, b):
        return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))

    for _ in range(300):
        a, b = (
            Staircase.from_slices(
                sorted((rng.randint(1, 9) for _ in range(rng.randint(0, 6))), reverse=True)
            )
            for _ in range(2)
        )
        vertical = staircase_sum(a, b, "vertical")
        assert vertical.column_slices() == add(a.column_slices(), b.column_slices())
        assert vertical.size() == a.size() + b.size()
        horizontal = staircase_sum(a, b, "horizontal")
        assert horizontal.slices() == add(a.slices(), b.slices())


def test_staircase_sum_requires_finite():
    from singular_lct import InfiniteStaircaseError

    infinite = Staircase(((3, 0),))
    with pytest.raises(InfiniteStaircaseError):
        staircase_sum(infinite, triangle(2), "horizontal")


def test_staircase_slices_roundtrip():
    rng = random.Random(37)
    for _ in range(40):
        a = random_ideal(rng, origin_cosupport=True)
        s = Staircase.from_ideal(a)
        assert Staircase.from_slices(s.slices()) == s


POINTS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=15)


@settings(max_examples=200, deadline=None)
@given(POINTS, st.integers(0, 12), st.integers(0, 12))
def test_linear_antichain_and_slices_match_the_scans(points, h, w):
    assert tuple(_antichain(points)) == oracles.minimal_antichain_by_scan(points)
    s = Staircase(points + [(0, h), (w, 0)])
    assert s.slices() == oracles.staircase_slices_by_min(s)
    flipped = Staircase(tuple((n, m) for m, n in s.generators))
    assert s.column_slices() == oracles.staircase_slices_by_min(flipped)
    if points and not Staircase(points).is_finite():
        for slices in (Staircase.slices, oracles.staircase_slices_by_min):
            with pytest.raises(InfiniteStaircaseError):
                slices(Staircase(points))


def test_the_monomial_jump_scan_reads_no_more_points_than_its_bound(monkeypatch):
    # the count the bound check reads off the generators holds on random
    # ideals, with or without pure powers, at integer and fractional bounds
    rng = random.Random(23)
    nu, reads = newton._nu, [0]

    def counted(*args):
        reads[0] += 1
        return nu(*args)

    monkeypatch.setattr(newton, "_nu", counted)
    for _ in range(600):
        a = ideal(*((rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 4))))
        if a.is_unit():
            continue
        bound = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        m_top, n_top = a.max_exponents()
        reads[0] = 0
        jumping_numbers_monomial(a, bound)
        assert reads[0] <= (int(bound * m_top) + 2) * (int(bound * n_top) + 3), (a, bound)


def test_a_bound_past_the_lattice_limit_is_refused_before_the_scan(monkeypatch):
    monkeypatch.setattr(newton, "_nu", None)  # any read would fail
    limit = newton.MAX_LATTICE_POINTS
    for a, bound in (
        (ideal((2, 0), (0, 3)), Fraction(10**8)),
        (ideal((1000, 0), (0, 1000)), Fraction(3)),
        (ideal((10, 0), (0, 10)), Fraction(1000)),
        (ideal((2, 0), (0, 3)), Fraction(816)),
    ):
        with pytest.raises(newton.JumpingBoundError, match=f"more than {limit}$"):
            jumping_numbers_monomial(a, bound)
    monkeypatch.undo()
    # x^2 + y^3 may read (2B + 2)(3B + 3) points: at B = 815 within the
    # limit, and B = 1 on the largest term ideal the parser builds
    assert 6 * 816**2 <= limit < 6 * 817**2
    assert len(jumping_numbers_monomial(ideal((2, 0), (0, 3)), Fraction(815))) == 6 * 815 - 5
    assert jumping_numbers_monomial(ideal((1000, 0), (0, 1000)), Fraction(1))[-1] == 1
