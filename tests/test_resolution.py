from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from singular_lct import (
    BivariatePolynomial,
    MonomialIdeal,
    NonRationalTangentError,
    NonReducedError,
    ResolutionError,
    check_main_theorem,
    connected_sum,
    is_unloaded,
    jumping_numbers_curve,
    jumping_numbers_monomial,
    lct_cluster,
    lct_monomial,
    multiplicity,
    resolve_curve,
    t_pq,
)
from singular_lct.cli import main
from singular_lct.cluster import _strict_from_total
from singular_lct.corpus import coprime_pairs, corpus_curves
from test_exact_algebra import germs as exact_algebra_germs

P = BivariatePolynomial.parse
F = Fraction


def test_multiplicity_examples():
    assert multiplicity(P("x*y")) == 2
    assert multiplicity(P("(x^3 - y^2)^2 - x^5*y")) == 4
    assert multiplicity(P("x + y^2")) == 1
    with pytest.raises(ResolutionError):
        multiplicity(BivariatePolynomial.zero())


def test_resolve_cusp():
    kl, d = resolve_curve(P("y^2 - x^3"))
    assert kl.weights == (2, 1, 1)
    assert d == t_pq(2, 3)
    assert lct_cluster(kl)[0] == F(5, 6)
    assert lct_monomial(MonomialIdeal(((2, 0), (0, 3)))) == F(5, 6)


def test_resolve_double_cusp_curve():
    kl, d = resolve_curve(P("(x^3 - y^2)^2 - x^5*y"))
    assert kl.weights == (4, 2, 2, 1, 1)
    assert d.tree == connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree)
    assert kl.cluster.targets == ((), (0,), (0, 1), (2,), (2, 3))


def test_resolve_node():
    kl, d = resolve_curve(P("x*y"))
    assert kl.weights == (2,)
    assert lct_cluster(kl)[0] == F(1)


def test_resolve_smooth_returns_empty():
    kl, d = resolve_curve(P("x + y^2"))
    assert len(kl.cluster) == 0 and len(d) == 0


def test_resolve_matches_staircase_tree_family():
    for p, q in coprime_pairs(12):
        kl, d = resolve_curve(P(f"x^{p} - y^{q}"))
        assert d == t_pq(p, q)
        assert is_unloaded(kl)


def test_resolution_output_always_unloaded():
    for _, expr in corpus_curves(10):
        kl, _ = resolve_curve(P(expr))
        if len(kl.cluster):
            assert is_unloaded(kl)
            assert all(w >= 1 for w in kl.weights)


def test_exceptional_multiplicities_consistent():
    # the pullback orders accumulated chart by chart must reproduce the
    # strict coordinates of the multiplicity vector
    for expr in ("x^5 - y^7", "(x^3 - y^2)^2 - x^5*y", "y^4 - x^6"):
        kl, _ = resolve_curve(P(expr))
        e = _strict_from_total(kl.cluster, kl.weights)
        assert e[0] == kl.weights[0]
        # (the equality with the recorded chart exponents is asserted inside
        # resolve_curve at every point; here we pin the first value)


def test_non_reduced_rejected():
    for expr in ("(x + y)^2", "x^2*y", "(y^2 - x^3)^2", "(x^2-y^3)*(y-x^2)^2"):
        with pytest.raises(NonReducedError):
            resolve_curve(P(expr))


def test_repeated_factor_off_the_origin_is_reduced_at_the_germ(capsys):
    # the repeated factor is a unit at the origin: the germ is a reduced cusp
    for expr in ("(x^2-y^3)*(x-1)^2", "(x^2-y^3)*(1+x+y)^3"):
        kl, d = resolve_curve(P(expr))
        assert lct_cluster(kl)[0] == F(5, 6)
        report = check_main_theorem(d)
        assert report.equal and report.lct_direct == F(5, 6)
        assert main(["lct", "--curve", expr]) == 0
        assert capsys.readouterr().out.strip() == "5/6"
        assert main(["check-theorem", "--curve", expr]) == 0
        assert "lct (term ideals) = 5/6" in capsys.readouterr().out


def test_curve_missing_origin_rejected():
    with pytest.raises(ResolutionError):
        resolve_curve(P("x + 1"))


def test_non_rational_tangent_rejected_when_singular():
    # tangent cone (y^2 - 2x^2)^2: the singularity continues into the two
    # irrational directions
    with pytest.raises(NonRationalTangentError):
        resolve_curve(P("(y^2 - 2*x^2)^2 - x^5"))


def test_irrational_tangent_factors_past_the_exponent_bound():
    import oracles
    from singular_lct.poly import MAX_EXPONENT

    # a germ built by arithmetic, not the parser: its tangent cone is
    # (y^k - 2 x^k)^2 with k one past MAX_EXPONENT, so the factor named in
    # the error has exponents the public constructor rejects.  Its first
    # point is checked through _tangent_roots: resolve_curve would spend
    # minutes in the reducedness gcd of a degree-2003 germ before it.
    x, y = BivariatePolynomial.monomial(1, 0), BivariatePolynomial.monomial(0, 1)
    for k in (MAX_EXPONENT, MAX_EXPONENT + 1):
        form = y ** (k - 1) * y - (x ** (k - 1) * x).scale(2)
        germ = form * form + x ** (k - 1) * x ** (k + 2)
        with pytest.raises(NonRationalTangentError) as err:
            oracles.tangent_roots(germ.leading_form())
        assert err.value.factor == form and err.value.form == form * form
    with pytest.raises(NonRationalTangentError) as err:
        resolve_curve(P("(y^20 - 2*x^20)^2 - x^41"))
    assert err.value.factor == P("y^20 - 2*x^20")


def test_simple_irrational_tangents_tolerated():
    # y^2 - 2x^2 is a pair of smooth transverse branches; one blowup ends it
    kl, _ = resolve_curve(P("y^2 - 2*x^2"))
    assert kl.weights == (2,)
    # and a singular rational branch next to an irrational smooth pair
    kl2, _ = resolve_curve(P("(y^2 - 2*x^2)*(y^2 - x^3)"))
    assert kl2.weights[0] == 4
    assert lct_cluster(kl2)[0] == F(1, 2)


def test_tacnode():
    kl, _ = resolve_curve(P("y^2 - x^4"))
    assert kl.weights == (2, 2)
    assert lct_cluster(kl)[0] == F(3, 4)


def test_ordinary_multiple_points():
    for k, expr in ((3, "x*y*(x + y)"), (4, "x*y*(x + y)*(x - y)")):
        kl, _ = resolve_curve(P(expr))
        assert kl.weights == (k,)
        assert lct_cluster(kl)[0] == F(2, k)


def test_cusp_family_jumping_numbers_match_howald():
    for p, q in coprime_pairs(9):
        kl, _ = resolve_curve(P(f"x^{p} - y^{q}"))
        curve = jumping_numbers_curve(kl, F(1))
        mono = jumping_numbers_monomial(MonomialIdeal(((p, 0), (0, q))), F(1))
        assert curve == [x for x in mono if x < 1]


def test_recentred_binomials_match_their_closed_forms():
    # x -> x - g(y) is a change of coordinates at the origin and x^a - y^b is
    # non-degenerate, so below 1 the multiplier ideals of (x - g)^a - y^b are
    # those of its term ideal (Howald 2003), whose jumps are the i/a + j/b
    # with i, j >= 1 (Howald, Trans. AMS 353, 2001); a and b need not be
    # coprime, and g may have a linear term, a nonzero tangent direction
    for g in ("y^2 + 3*y^3", "2*y - (1/2)*y^2", "(-2/3)*y + y^4", "5*y^3"):
        for a in range(2, 7):
            for b in range(a + 1, 3 * a + 8, 3):
                sums = {F(i, a) + F(j, b) for i in range(1, a) for j in range(1, b)}
                jumps = sorted(x for x in sums if x < 1)
                mirror = g.replace("y", "x")
                for text in (f"(x - ({g}))^{a} - y^{b}", f"(y - ({mirror}))^{a} - x^{b}"):
                    kl, _ = resolve_curve(P(text))
                    assert lct_cluster(kl)[0] == min(1, F(1, a) + F(1, b)), text
                    assert jumping_numbers_curve(kl, 1) == jumps, text


def test_errors_name_the_factor_in_the_polynomial_grammar(capsys):
    from singular_lct import parse_polynomial

    with pytest.raises(NonReducedError) as err:
        resolve_curve(P("(x^2-y^3)*(y^2-2*x^2)^2"))
    g = err.value.factor
    assert isinstance(g, BivariatePolynomial)
    assert g == P("2*x^2 - y^2")
    message = str(err.value)
    assert message.startswith(f"repeated factor {g} in ")
    assert parse_polynomial(message[len("repeated factor ") :].split(" in ")[0]) == g
    assert parse_polynomial(message.split(" in ", 1)[1]) == P("(x^2-y^3)*(y^2-2*x^2)^2")

    with pytest.raises(NonRationalTangentError) as err:
        resolve_curve(P("(y^2-2*x^2)^2 - x^5"))
    factor = err.value.factor
    assert isinstance(factor, BivariatePolynomial)
    assert str(factor) == "y^2 - 2*x^2"
    assert parse_polynomial(str(factor)) == factor
    assert f"factor {factor} of the tangent cone {err.value.form}" in str(err.value)
    assert parse_polynomial(str(err.value.form)) == P("(y^2-2*x^2)^2")

    for expr, phrase in (
        ("(x^2-y^3)*(y^2-2*x^2)^2", "repeated factor -y^2 + 2*x^2"),
        ("(y^2-2*x^2)^2 - x^5", "factor y^2 - 2*x^2 of the tangent cone"),
    ):
        assert main(["lct", "--curve", expr]) == 2
        assert phrase in capsys.readouterr().err


def test_errors_keep_their_type_when_a_coefficient_is_too_long_to_print():
    # past the interpreter's limit on integer strings, str() of such a
    # polynomial raises ValueError; the error names what it can print
    huge = 10**5000
    too_long = "(a polynomial with a coefficient too long to print)"
    curve = P("(y - x^2)^2*(x^2 - y^3)").scale(huge)
    with pytest.raises(NonReducedError) as err:
        resolve_curve(curve)
    assert err.value.curve == curve and err.value.factor == P("x^2 - y")
    assert str(err.value) == f"repeated factor {err.value.factor} in {too_long}"

    with pytest.raises(NonRationalTangentError) as err:
        resolve_curve(P("(y^2-2*x^2)^2 - x^5").scale(huge))
    assert err.value.form == P("(y^2-2*x^2)^2").scale(huge)
    assert err.value.factor == P("y^2 - 2*x^2")
    assert str(err.value) == (
        "singular tangent direction not defined over Q: factor y^2 - 2*x^2 "
        f"of the tangent cone {too_long}"
    )


def test_diagram_tree_keeps_the_resolved_cluster():
    import oracles

    for _, text in corpus_curves(12):
        kl, d = resolve_curve(P(text))
        assert d.tree.cluster is kl.cluster
        assert d.to_weighted_cluster() == kl
        assert kl.cluster == oracles.tree_to_cluster_by_scan(d.tree)


def test_deep_resolutions_do_not_depend_on_the_recursion_limit(capsys):
    import json
    import sys

    import oracles

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        # y^2 - x^997 needs 500 points, exactly max_points: one loop
        # resolves it, while two frames per point overflow the stack
        kl, d = resolve_curve(P("y^2 - x^997"))
        assert len(kl.cluster) == 500 and kl.weights[498:] == (1, 1)
        with pytest.raises(RecursionError):
            oracles.resolve_curve_by_recursion(P("y^2 - x^997"))
        assert main(["lct", "--curve", "y^2 - x^997"]) == 0
        assert capsys.readouterr().out == "999/1994\n"
        assert main(["check-theorem", "--curve", "y^2 - x^997", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["equal"] and data["lct_direct"] == data["lct_term"] == "999/1994"
        # one point more than max_points: a typed error, exit 2
        with pytest.raises(ResolutionError, match="resolution exceeded 500 blowups"):
            resolve_curve(P("y^2 - x^999"))
        assert main(["lct", "--curve", "y^2 - x^999"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: resolution exceeded 500 blowups\n")
    finally:
        sys.setrecursionlimit(limit)


def test_every_precision_gives_up_or_gives_the_exact_points():
    import oracles
    from singular_lct import resolution

    outcomes = set()
    for _, text in corpus_curves(20):
        f = P(text)
        exact = oracles.resolution_points_by_blowups(f)
        for precision in range(1, f.degree() + 4):
            try:
                points = resolution._resolve_at(f, precision)
            except resolution._Imprecise:
                points = None
            outcomes.add(points is None)
            assert points in (None, exact), (text, precision)
    assert outcomes == {True, False}


def test_each_chart_is_exact_outside_its_ideal(monkeypatch):
    # every point the exact worklist visits on the corpus, known modulo each
    # small (x^a y^b) its multiplicity can be read under, taken as an
    # anchor: each child the walk makes from it agrees with the child of the
    # whole equation outside the ideal it claims.  A child by t = 0 or in
    # the y-chart is the anchor through the chart map, uncut, whose Newton
    # boundary the walk reads off the anchor's; a recentred child is cut at
    # (x^c) before its shift and holds no term inside.  An ideal one term
    # too small fails here
    import oracles
    from singular_lct import resolution
    from singular_lct.poly import _boundary, _leads, _mapped

    points = []

    def record(h, axes):
        points.append(h)
        return needs_blowup(h, axes)

    needs_blowup = oracles.needs_blowup
    monkeypatch.setattr(oracles, "needs_blowup", record)
    for _, text in corpus_curves(10):
        points.append(P(text))
        oracles.resolution_points_by_blowups(P(text))
    monkeypatch.undo()
    checked = 0
    for g in points:
        m = g.multiplicity()
        roots, inf_mult = oracles.tangent_roots(g.leading_form())
        directions = [t for t, _ in roots] + ([None] if inf_mult else [])
        if not directions:
            continue
        whole = [g.blowup_y_chart() if t is None else g.blowup_x_chart().shift_y(t) for t in directions]
        for a in range(1, 7):
            for b in range(max(0, m + 1 - a), 6):
                anchor, c = g.mod_monomial(a, b), a + b - m
                terms = _boundary(_leads(anchor))
                for t, child in zip(directions, whole, strict=True):
                    if t:
                        h = _mapped(anchor, (1, 1, 0, 1, m, 0), c).shift_y(t)
                        assert h == child.mod_monomial(c, 0), (str(g), a, b)
                        checked += 1
                        continue
                    chart, ideal = ((1, 0, 1, 1, 0, m), (a, c)) if t is None else ((1, 1, 0, 1, m, 0), (c, b))
                    h = _mapped(anchor, chart)
                    assert h.mod_monomial(*ideal) == child.mod_monomial(*ideal), (str(g), a, b)
                    p, q, r, s, u, v = chart
                    moved = [(p * i + q * j - u, r * i + s * j - v, k) for i, j, k in terms]
                    assert _boundary(moved) == _boundary(_leads(h)), (str(g), a, b)
                    checked += 1
    assert checked > 5000


RETRYING_GERM = "(y^2 - x^3)^2 - x^5*y^2"


def test_the_ramphoid_cusp_retries_at_doubled_precision(capsys):
    # at the precision deg f + 1 = 8 the fifth point's equation is y^2
    # modulo (x^2): its multiplicity would read the dropped term -x^2.  The
    # resolution starts lower still, at ord_x f(x, 0) + 1 = 7, and success
    # is monotone in the precision, so it starts again at twice that
    import json

    import oracles
    from singular_lct import resolution

    f = P(RETRYING_GERM)
    with pytest.raises(resolution._Imprecise):
        resolution._resolve_at(f, f.degree() + 1)
    kl, d = resolve_curve(f)
    assert (kl, d) == oracles.resolve_curve_by_blowups(f)
    assert kl.weights == (4, 2, 2, 2, 2)
    assert main(["resolve", "--curve", RETRYING_GERM, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cluster"]["weights"] == [4, 2, 2, 2, 2]


# f(x, 0) has order 4 and 10: the resolution climbs from precision 5 and
# 11 to above the degree, in 5 and 6 attempts
HIGH_CONTACT_GERMS = {"(y - x^2)^2 - x^41": 5, "(y - x^5)^2 - x^201": 6}


def test_the_resolution_starts_at_the_x_axis_order(monkeypatch):
    # precision e + 1, e = ord_x f(x, 0), is at most deg f + 1, and success
    # is monotone in the precision, so doubling from e + 1 takes at most
    # ceil(log2((d + 1)/(e + 1))) attempts more than doubling from d + 1
    import math

    import oracles
    from singular_lct import resolution

    resolve_at = resolution._resolve_at
    precisions = []

    def attempt(f, precision, *args):
        precisions.append(precision)
        return resolve_at(f, precision, *args)

    def attempts_from(f, precision):
        for k in range(1, 64):
            try:
                resolve_at(f, precision << (k - 1))
                return k
            except resolution._Imprecise:
                pass

    monkeypatch.setattr(resolution, "_resolve_at", attempt)
    for text in [text for _, text in corpus_curves(20)] + list(HIGH_CONTACT_GERMS):
        f = P(text)
        precisions.clear()
        assert resolve_curve(f) == oracles.resolve_curve_by_blowups(f), text
        d, e = f.degree(), oracles.x_axis_order_by_support(f)
        start = d + 1 if e is None else e + 1
        assert precisions == [start << k for k in range(len(precisions))], text
        assert len(precisions) <= attempts_from(f, d + 1) + math.ceil(math.log2((d + 1) / start))
        if text in HIGH_CONTACT_GERMS:
            assert (attempts_from(f, d + 1), len(precisions)) == (1, HIGH_CONTACT_GERMS[text])
    precisions.clear()
    resolve_curve(P("y*(x^2 + y^3)"))  # y divides f: the root's equation is f
    assert precisions == [5]


def polynomials_built(germs):
    """Each `_mapped` call that the resolutions of `germs` make, with the
    polynomial it returned, failed attempts included."""
    from singular_lct import resolution

    mapped, calls = resolution._mapped, []

    def record(*args):
        calls.append((args, mapped(*args)))
        return calls[-1][1]

    resolution._mapped = record
    try:
        for f in germs:
            try:
                resolve_curve(f)
            except ResolutionError:
                pass
    finally:
        resolution._mapped = mapped
    return calls


def test_each_chart_matches_the_shear_then_cut_oracle():
    # the walk builds a polynomial only where it recentres, in one pass
    # through the composed chart map that places only the terms outside the
    # child's ideal (x^c); the oracle applies each chart of the map to the
    # whole equation in turn, checks the divisions add up to the map's, and
    # cuts at the end
    import oracles
    from test_engine import germ_theorem_inputs

    from singular_lct.poly import _mapped

    texts = [text for _, text in corpus_curves(20)] + list(HIGH_CONTACT_GERMS)
    texts += germ_theorem_inputs(5) + germ_theorem_inputs(2671)
    calls = polynomials_built(map(P, texts))
    for args, built in calls:
        assert built == oracles.mapped_by_shear_then_cut(*args), (str(args[0]), args[1:])
    # the x-chart of an anchor itself, and of points one or more t = 0
    # x-charts and y-charts below it; over a third of the cuts drop terms
    steps = {tuple(map(oracles.chart_steps(chart).count, "xy")) for (_, chart, _), _ in calls}
    assert {(1, 0), (2, 0), (5, 0), (1, 1), (2, 1)} <= steps, steps
    assert 3 * sum(_mapped(g, chart) != built for (g, chart, _), built in calls) > len(calls)
    # other cuts of the same maps, down to the empty polynomial
    for (g, chart, c), _ in calls[::20]:
        for cut in range(max(c - 3, 0), c + 3):
            assert _mapped(g, chart, cut) == oracles.mapped_by_shear_then_cut(g, chart, cut)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@seed(3407)
@given(exact_algebra_germs())
def test_charts_match_the_shear_then_cut_oracle_on_random_germs(f):
    import oracles

    for args, built in polynomials_built([f]):
        assert built == oracles.mapped_by_shear_then_cut(*args), (str(args[0]), args[1:])


def test_the_axis_orders_match_the_support_oracles():
    import random

    import oracles
    from test_poly import random_rows

    from singular_lct import resolution
    from singular_lct.poly import _boundary, _leads

    rng = random.Random(20)
    for _ in range(400):
        f = BivariatePolynomial(
            {(m, n): c for m, row in enumerate(random_rows(rng)) for n, c in enumerate(row) if c}
        )
        if f.is_zero():
            continue
        b = oracles.x_axis_order_by_support(f)
        assert resolution._x_order(f) == b, f
        # an axis counts where f does not vanish along it
        along = {"x": any(m == 0 for m, _ in f.support()), "y": b is not None}
        for axes in ((), ("x",), ("y",), ("x", "y")):
            if all(along[a] for a in axes):
                boundary = _boundary(_leads(f))
                assert resolution._smooth_measure(boundary, axes) == oracles.smooth_measure(f, axes), f


def noether_sum(kl):
    """Sum of m(m - 1) over the cluster: 2 delta, by Noether's formula."""
    return sum(m * (m - 1) for m in kl.weights)


def test_resolved_germs_keep_the_milnor_noether_bound():
    # 2 delta = mu + r - 1 (Milnor) with mu <= (d - 1)^2 (Bezout) and r <= d
    # branches: a reduced germ of degree d has sum m(m - 1) <= d(d - 1)
    curves = [P(text) for _, text in corpus_curves(20)]
    curves += [P(f"x^{p} - y^{q}") for p, q in coprime_pairs(20)]
    curves += [P("y^2 - x^997"), P(RETRYING_GERM)]
    for f in curves:
        kl, _ = resolve_curve(f)
        d = f.degree()
        assert noether_sum(kl) <= d * (d - 1), str(f)
    # the ordinary d-fold point attains it
    for d in range(2, 7):
        f = P("*".join(f"(y - {i}*x)" for i in range(d)))
        kl, _ = resolve_curve(f)
        assert kl.weights == (d,) and noether_sum(kl) == d * (d - 1)


def test_the_reducedness_gcd_runs_only_when_the_resolution_needs_it(monkeypatch):
    # each gcd call records the points its attempt has resolved, one set of
    # tangent directions each
    from singular_lct import resolution

    cones, calls = [], []
    resolve_at = resolution._resolve_at
    directions = resolution._directions
    require_reduced = resolution._require_reduced

    def attempt(*args):
        cones.clear()
        return resolve_at(*args)

    def count_cones(*args):
        cones.append(args)
        return directions(*args)

    def count_calls(f):
        calls.append(len(cones))
        return require_reduced(f)

    monkeypatch.setattr(resolution, "_resolve_at", attempt)
    monkeypatch.setattr(resolution, "_directions", count_cones)
    monkeypatch.setattr(resolution, "_require_reduced", count_calls)
    for _, text in corpus_curves(20):
        resolve_curve(P(text))
    resolve_curve(P("(y^3 + 3*(x - y^2)^5)*(y^4 + 3*(x - y^2)^9)"))
    assert calls == []
    # the ramphoid cusp resolves at two precisions
    resolve_curve(P(RETRYING_GERM))
    assert len(calls) <= 1
    for expr, resolved in (
        # degree 8, multiplicity 4 at every point: at the fifth point the
        # sum 5 * 12 passes 8 * 7 (this germ and the next two retry first,
        # at higher precisions)
        ("(y - x^2)^4", 4),
        # degree 6: the seventh point passes the point count first
        ("(y^2 - x^3)^2", 6),
        ("(y - x^2)^2*(x^2 - y^3)", 7),
        # NonRationalTangentError at the root: the gcd runs before it is raised
        ("(x^2-y^3)*(y^2-2*x^2)^2", 1),
    ):
        calls.clear()
        with pytest.raises(NonReducedError):
            resolve_curve(P(expr))
        assert calls == [resolved], expr
    calls.clear()
    with pytest.raises(NonRationalTangentError):
        resolve_curve(P("(y^2 - 2*x^2)^2 - x^5"))
    with pytest.raises(ResolutionError, match="exceeded 500 blowups"):
        resolve_curve(P("y^2 - x^999"))
    assert calls == [1, 500]


def test_a_repeated_factor_keeps_its_error_when_only_a_trigger_finds_it(capsys):
    # no other error comes first on these germs: the point count finds the
    # repeated factor, or, with max_points=2, the error path does
    import oracles
    from test_exact_algebra import resolve_capped

    for expr in ("(y^2 - x^3)^2", "(y - x^2)^2*(x^2 - y^3)"):
        for kw in ({}, {"max_points": 2}):
            with pytest.raises(NonReducedError) as ours:
                resolve_capped(P(expr), **kw)
            with pytest.raises(NonReducedError) as eager:
                oracles.resolve_curve_by_blowups(P(expr), **kw)
            assert (type(ours.value), str(ours.value)) == (type(eager.value), str(eager.value))
    assert main(["lct", "--curve", "(y^2 - x^3)^2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "repeated factor -y^2 + x^3" in captured.err


def resolution_outcome(resolve, f):
    try:
        kl, d = resolve(f)
    except ResolutionError as exc:
        return type(exc), str(exc)
    return kl, d, d.tree.parents, d.tree.kinds, d.tree.x_side


# simple directions at corners and beside multiple ones: the cusps put a
# simple root 0 at a point on {y = 0} and a simple infinity at a point on
# {x = 0}, each a corner to blow up; the lines are simple directions the
# resolution leaves alone, nonzero and infinite, next to multiple ones
CORNER_GERMS = (
    "x^2 - y^3",
    "y^2 - x^3",
    "x^3 - y^7",
    "(y^2 - x^3)*(y - x)*(y + 2*x)",
    "((y + x)^2 - x^3)*(y - 2*x)*(y - 3*x)",
    "((y - x)^3 - x^4)*(y + x)*x",
    "(x^2 - y^5)*(y - x)*(y - 1/2*x)*y",
    "((y - 2*x)^2 - x^5)*(y - 2*x - x^2)*(y + x)",
    "(y^2 - x^3)*(x^2 - y^3)*(y - x)",
    "((y - x)^2 - x^3)*((y + x)^2 - x^5)*(y - 3*x)*x",
)


def test_followed_directions_match_the_exact_worklist():
    import oracles

    for text in CORNER_GERMS:
        f = P(text)
        assert resolution_outcome(resolve_curve, f) == resolution_outcome(
            oracles.resolve_curve_by_blowups, f
        ), text


def test_charts_are_built_only_for_the_points_they_become(monkeypatch):
    # in the attempt that succeeds, every Newton boundary the walk reads
    # belongs to a point of the cluster, the root's among them; the exact
    # worklist builds a chart for every direction and asks needs_blowup of
    # each
    import oracles
    from singular_lct import resolution

    boundary, resolve_at = resolution._boundary, resolution._resolve_at
    needs_blowup = oracles.needs_blowup
    built, every = [], []

    def counted(terms):
        built.append(terms)
        return boundary(terms)

    def attempt(*args):
        built.clear()
        return resolve_at(*args)

    def asked(h, axes):
        every.append(h)
        return needs_blowup(h, axes)

    monkeypatch.setattr(resolution, "_boundary", counted)
    monkeypatch.setattr(resolution, "_resolve_at", attempt)
    monkeypatch.setattr(oracles, "needs_blowup", asked)
    for text in CORNER_GERMS + tuple(text for _, text in corpus_curves(12)):
        f = P(text)
        every.clear()
        kl, _ = resolve_curve(f)
        assert len(built) == len(kl.cluster), text
        assert tuple(oracles.resolution_points_by_blowups(f)[2]) == kl.weights, text
        if text in CORNER_GERMS[3:]:  # each has a simple direction off a corner
            assert len(every) > len(built) - 1, text


def test_the_walk_builds_a_polynomial_only_where_it_recentres(monkeypatch):
    # a cusp x^p - y^q is toric all the way down: after the root's equation
    # no polynomial is built.  On other germs each polynomial the walk
    # builds is shifted, and in the attempt that succeeds it shifts once
    # per nonzero root followed, as the chart-by-chart oracle does
    import oracles
    from test_engine import germ_theorem_inputs

    from singular_lct import resolution

    mapped, shift_y = resolution._mapped, BivariatePolynomial.shift_y
    built, shifted = [], []

    def counted_map(*args):
        built.append(mapped(*args))
        return built[-1]

    def counted_shift(g, t):
        shifted.append(g)
        return shift_y(g, t)

    monkeypatch.setattr(resolution, "_mapped", counted_map)
    monkeypatch.setattr(BivariatePolynomial, "shift_y", counted_shift)
    for p, q in coprime_pairs(20):
        resolve_curve(P(f"x^{p} - y^{q}"))
    assert (built, shifted) == ([], [])
    texts = [text for _, text in corpus_curves(20)] + germ_theorem_inputs(5)
    texts += list(HIGH_CONTACT_GERMS) + [RETRYING_GERM, "y^2 - x^997", "(y - x^5)^2 - x^997"]
    recentring = 0
    for text in texts:
        f = P(text)
        precision = (resolution._x_order(f) or f.degree()) + 1
        while True:  # the precision at which the resolution succeeds
            try:
                resolution._resolve_at(f, precision)
                break
            except resolution._Imprecise:
                precision *= 2
        built.clear()
        shifted.clear()
        points = resolution._resolve_at(f, precision)
        assert all(any(g is h for h in shifted) for g in built), text
        walked = len(shifted)
        shifted.clear()
        assert oracles.resolve_at_by_charts(f, precision) == points
        assert walked == len(shifted), text
        recentring += walked > 0
    assert recentring == 76, recentring


@st.composite
def tangent_branches(draw):
    """A branch tangent to the line L = y - lam x, or L = x: L - c M^b, a
    simple direction, or L^a - c M^b with a >= 2, a multiple one, M the
    other axis."""
    lam = draw(st.sampled_from([0, 1, -1, 2, F(1, 2), F(-2, 3), None]))
    x, y = BivariatePolynomial.monomial(1, 0), BivariatePolynomial.monomial(0, 1)
    line, other = (x, y) if lam is None else (y - x.scale(lam), x)
    a = draw(st.integers(1, 3))
    b = draw(st.integers(a + 1, 7))
    return line**a - (other**b).scale(draw(st.sampled_from([1, -1, 2, F(-1, 3)])))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@seed(5311)
@given(st.lists(tangent_branches(), min_size=1, max_size=3))
def test_products_of_tangent_branches_match_the_exact_worklist(branches):
    import oracles

    f = BivariatePolynomial.monomial(0, 0)
    for branch in branches:
        f = f * branch
    assert resolution_outcome(resolve_curve, f) == resolution_outcome(
        oracles.resolve_curve_by_blowups, f
    ), str(f)


# the deep germs: 500-point chains, one reached after a recentring, and
# one bound by its 220 shifts; and the germs whose reducedness gcd or
# error comes at a known point (the gcd test above)
DEEP_GERMS = ("y^2 - x^997", "x^499 - y^500", "(y - x^5)^2 - x^997", "(x - y^2 - 3*y^3)^5 - y^400")
ERROR_GERMS = (
    "(y - x^2)^4",
    "(y^2 - x^3)^2",
    "(y - x^2)^2*(x^2 - y^3)",
    "(x^2-y^3)*(y^2-2*x^2)^2",
    "(y^2 - 2*x^2)^2 - x^5",
    "y^2 - x^999",
)


def cluster_outcome(resolve, f):
    try:
        kl = resolve(f)
    except ResolutionError as exc:
        return type(exc), str(exc)
    return kl.cluster.parents, kl.cluster.targets, kl.weights


def test_the_walk_matches_the_chart_by_chart_resolution():
    # every point, error type and message of the walk on the Newton boundary
    # is that of the resolution that carries each point's polynomial
    import oracles
    from test_engine import germ_theorem_inputs

    from singular_lct.resolution import _resolve_cluster

    texts = [text for _, text in corpus_curves(20)] + list(ERROR_GERMS)
    for text in texts:  # the exact worklist too, where it is cheap
        f = P(text)
        exact = cluster_outcome(lambda f: oracles.resolve_curve_by_blowups(f)[0], f)
        assert cluster_outcome(_resolve_cluster, f) == exact, text
    texts += germ_theorem_inputs(5) + germ_theorem_inputs(2671)
    texts += list(HIGH_CONTACT_GERMS) + [RETRYING_GERM] + list(DEEP_GERMS)
    for text in texts:
        f = P(text)
        ours = cluster_outcome(_resolve_cluster, f)
        assert ours == cluster_outcome(oracles.resolve_cluster_by_charts, f), text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@seed(3631)
@given(exact_algebra_germs())
def test_the_walk_matches_the_chart_by_chart_resolution_on_random_germs(f):
    import oracles

    from singular_lct.resolution import _resolve_cluster

    ours = cluster_outcome(_resolve_cluster, f)
    assert ours == cluster_outcome(oracles.resolve_cluster_by_charts, f), str(f)
