import functools
from fractions import Fraction

import pytest

import oracles
from singular_lct import (
    BivariatePolynomial,
    EnriquesDiagram,
    EnriquesTree,
    MainTheoremViolation,
    OrientationError,
    adapted_candidates,
    check_main_theorem,
    classify,
    connected_sum,
    lct_cluster,
    lct_via_term_ideals,
    nondegenerate_part,
    prune_last,
    resolve_curve,
    t_pq,
    triangle,
)
from singular_lct.corpus import corpus_curves

P = BivariatePolynomial.parse
F = Fraction


def example_curve_diagram() -> EnriquesDiagram:
    tree = connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree)
    return EnriquesDiagram(tree, (4, 2, 2, 1, 1))


def test_nondegenerate_part_example_curve():
    core = nondegenerate_part(example_curve_diagram())
    assert core.weights == (4, 2, 2)
    assert core.tree.kinds == (None, "s", "h")


def test_nondegenerate_part_fixed_points():
    d = t_pq(5, 7)
    assert nondegenerate_part(d) == d
    single = EnriquesDiagram(EnriquesTree((None,), (None,)), (3,))
    assert nondegenerate_part(single) == single


def test_adapted_candidates_example_curve():
    (cand,) = adapted_candidates(example_curve_diagram())
    assert cand.rho == 1  # the free chain ends at the second point
    assert cand.subdiagram.weights == (4, 2, 2)
    assert cand.lct == F(5, 12)


def test_adapted_candidates_t57():
    (cand,) = adapted_candidates(t_pq(5, 7))
    assert cand.subdiagram == t_pq(5, 7)
    assert cand.lct == F(12, 35)


def test_adapted_candidate_node():
    d = EnriquesDiagram(EnriquesTree((None,), (None,)), (2,))
    (cand,) = adapted_candidates(d)
    assert cand.staircase == triangle(2)
    assert cand.lct == F(1)


def test_two_candidates_for_two_branches():
    _, d = resolve_curve(P("(x^2 - y^3)*(x^3 - y^2)"))
    cands = adapted_candidates(d)
    assert len(cands) == 2
    assert {c.lct for c in cands} == {F(1, 2)}


def test_lct_via_term_ideals_examples():
    assert lct_via_term_ideals(example_curve_diagram()) == F(5, 12)
    assert lct_via_term_ideals(t_pq(5, 7)) == F(12, 35)
    for m in (1, 2, 7):
        d = EnriquesDiagram(EnriquesTree((None,), (None,)), (m,))
        assert lct_via_term_ideals(d) == F(2, m)


def test_check_main_theorem_example_curve():
    report = check_main_theorem(example_curve_diagram())
    assert report.equal
    assert report.lct_direct == report.lct_term == F(5, 12)
    assert report.witness_vertices == (2,)
    assert report.witness_candidate.subdiagram.weights == (4, 2, 2)
    assert all(
        chk.lct_path == F(5, 12) and chk.lct_path_core == F(5, 12)
        for chk in report.path_checks
    )


def test_check_main_theorem_57():
    _, d = resolve_curve(P("x^5 - y^7"))
    report = check_main_theorem(d)
    assert report.lct_direct == report.lct_term == F(12, 35)


def test_check_main_theorem_smooth():
    _, d = resolve_curve(P("y - x^2"))
    report = check_main_theorem(d)
    assert report.smooth and report.equal and report.lct_direct == F(1)


def test_candidates_never_beat_the_cluster_threshold():
    for _, expr in corpus_curves(10):
        _, d = resolve_curve(P(expr))
        if len(d) == 0:
            continue
        direct, _ = lct_cluster(d.to_weighted_cluster())
        for cand in adapted_candidates(d):
            assert cand.lct >= direct


def test_check_main_theorem_on_full_corpus():
    curves = corpus_curves(12)
    assert len(curves) >= 50
    for name, expr in curves:
        _, d = resolve_curve(P(expr))
        report = check_main_theorem(d)  # raises on violation
        assert report.equal, name


def test_candidate_through_path_core_endpoint_attains_minimum():
    # along any root-to-leaf path through a witness vertex, the last vertex
    # of the all-free prefix points at an adapted candidate computing the
    # threshold
    from singular_lct.cluster import _free_path

    for name, expr in corpus_curves(10):
        _, d = resolve_curve(P(expr))
        if len(d) == 0:
            continue
        direct, witnesses = lct_cluster(d.to_weighted_cluster())
        candidates = adapted_candidates(d)
        free_path = _free_path(d.tree.cluster)
        for w in witnesses:
            for path in oracles.path_to_leaf_through_by_recursion(d, w):
                endpoint = max(v for v in path if free_path[v])
                through = [
                    c
                    for c in candidates
                    if c.rho is not None and _on_root_path(d, endpoint, c.rho)
                ]
                assert through, (name, endpoint)
                for c in through:
                    assert c.lct == direct, (name, endpoint, c.rho)


def _on_root_path(d, vertex, rho):
    v = rho
    while v is not None:
        if v == vertex:
            return True
        v = d.tree.parents[v]
    return False


def test_prune_preserves_lct_on_degenerate_unibranch_corpus():
    found = 0
    for name, expr in corpus_curves(12):
        _, d = resolve_curve(P(expr))
        if len(d) < 2:
            continue
        cls = classify(d.tree)
        if not cls.unibranch or cls.non_degenerate:
            continue
        found += 1
        before, _ = lct_cluster(d.to_weighted_cluster())
        after, _ = lct_cluster(prune_last(d).to_weighted_cluster())
        assert before == after, name
    assert found >= 2


def test_random_composite_curves():
    # rational-tangent products with rotated branches: the theorem and the
    # cross-route consistency must hold on every resolvable member
    import random

    from singular_lct import (
        NonRationalTangentError,
        NonReducedError,
        is_unloaded,
        jumping_numbers_curve,
    )

    rng = random.Random(73)
    x = BivariatePolynomial.monomial(1, 0)
    y = BivariatePolynomial.monomial(0, 1)

    def branch():
        a, b, c = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
        u = y - x.scale(rng.choice([0, 1, -1]))
        if rng.random() < 0.5:
            return u**a - (x**b).scale(c)
        return x**a - (u**b).scale(c)

    verified = 0
    for _ in range(60):
        f = branch()
        for _ in range(rng.randint(0, 2)):
            f = f * branch()
        try:
            kl, d = resolve_curve(f)
            report = check_main_theorem(d)
        except (NonReducedError, NonRationalTangentError):
            continue
        if len(kl.cluster):
            assert is_unloaded(kl)
            value, _ = lct_cluster(kl)
            assert value == report.lct_term
            jumps = jumping_numbers_curve(kl, F(1))
            assert (jumps[0] == value) if value < 1 else (jumps == [])
        verified += 1
    assert verified >= 50


def test_violation_carries_the_report():
    report = check_main_theorem(example_curve_diagram())
    err = MainTheoremViolation(report)
    assert err.report is report
    assert "5/12" in str(err)
    with pytest.raises(MainTheoremViolation):
        raise err


# -- the path checks against the restriction oracle -----------------------------


def _path_outcome(d):
    """The path checks of check_main_theorem, also those of the report a
    violation carries, or the type and message of its error."""
    try:
        return check_main_theorem(d).path_checks
    except MainTheoremViolation as exc:
        return exc.report.path_checks
    except ValueError as exc:
        return type(exc), str(exc)


def _path_outcome_by_restriction(d):
    """The same from the oracle, after the candidates that check_main_theorem
    builds first."""
    try:
        adapted_candidates(d)
        return oracles.path_checks_by_restriction(d)
    except ValueError as exc:
        return type(exc), str(exc)


def test_path_checks_match_restriction_on_the_corpus():
    checks = 0
    for name, expr in corpus_curves(20):
        _, d = resolve_curve(P(expr))
        got = _path_outcome(d)
        assert got == _path_outcome_by_restriction(d), name
        checks += len(got)
    assert checks > 100


def test_path_checks_match_restriction_on_random_germs():
    from hypothesis import HealthCheck, given, settings
    from test_exact_algebra import germs

    from singular_lct import ResolutionError

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(germs())
    def check(f):
        try:
            _, d = resolve_curve(f)
        except ResolutionError:
            return
        assert _path_outcome(d) == _path_outcome_by_restriction(d), str(f)

    check()


def _random_diagrams(rng, count):
    """Binary diagrams, unloaded and with random weights, and their mirrors;
    trees of random clusters with unloaded and with random weights."""
    from singular_lct import WeightedCluster, cluster_to_tree, unload
    from test_cluster import random_cluster
    from test_enriques import random_binary_diagram

    out = []
    while len(out) < count:
        d = random_binary_diagram(rng, 12)
        loaded = EnriquesDiagram(d.tree, [rng.randint(0, 4) for _ in range(len(d))])
        out += [d, EnriquesDiagram(d.tree.mirrored(), d.weights), loaded]
        c = random_cluster(rng, 12)
        weights = [rng.randint(0, 4) for _ in range(len(c))]
        unloaded = unload(WeightedCluster(c, weights)).weights
        out += [EnriquesDiagram(cluster_to_tree(c), w) for w in (weights, unloaded)]
    return out


def test_path_checks_match_restriction_on_random_diagrams():
    import random

    checks, errors = 0, set()
    for d in _random_diagrams(random.Random(29), 2500):
        got = _path_outcome(d)
        assert got == _path_outcome_by_restriction(d), d
        if got and isinstance(got[0], type):
            errors.add(got[0])
        else:
            checks += len(got)
    assert checks > 2000 and len(errors) >= 3, (checks, errors)


def _cut_by_definition(t, v):
    """Whether a free vertex on the root path of v, v included, lies behind
    a satellite, which cuts v from the non-degenerate part."""
    path = []
    while v is not None:
        path.append(v)
        v = t.parents[v]
    return any(
        t.is_free(u) and any(t.is_satellite(a) for a in path[i + 1 :])
        for i, u in enumerate(path)
    )


def test_path_minima_read_the_non_degenerate_prefix():
    # every path check of a diagram reads its lct, whichever points the
    # minima skip, so the minima are checked here on arbitrary values
    import random

    from singular_lct.engine import PathCheck, _path_checks

    rng = random.Random(37)
    differ = 0
    for d in _random_diagrams(rng, 600):
        t = d.tree
        values = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(len(t))]
        witnesses = tuple(sorted(rng.sample(range(len(t)), min(3, len(t)))))
        expected = []
        for w in witnesses:
            for path in oracles.path_to_leaf_through_by_recursion(d, w):
                core = [values[v] for v in path if not _cut_by_definition(t, v)]
                check = PathCheck(w, path[-1], min(values[v] for v in path), min(core))
                expected.append(check)
                differ += check.lct_path != check.lct_path_core
        assert _path_checks(t, values, witnesses) == expected
    assert differ > 20


def test_nondegenerate_rule_is_the_one_classify_reads():
    import random

    from singular_lct.cluster import _nondegenerate

    kinds = set()
    for d in _random_diagrams(random.Random(31), 1000):
        t = d.tree
        keep = _nondegenerate(t.cluster)
        assert keep == [not _cut_by_definition(t, v) for v in range(len(t))]
        cls = classify(t)
        assert cls.non_degenerate == all(keep)
        cut = [("degenerate_free_vertex", v) for v, kept in enumerate(keep) if not kept]
        assert [w for w in cls.witnesses if w[0] == "degenerate_free_vertex"] == cut[:1]
        kinds.add(cls.non_degenerate)
    assert kinds == {True, False}


# -- the adapted candidates against the sub-diagram oracle --------------------------


def _candidate_outcome(candidates, d):
    """The candidates, or the type and message of the error."""
    try:
        return candidates(d)
    except ValueError as exc:
        return type(exc), str(exc)


def _read_off_all_points(cand):
    """min (X_a + Y_a)/e_a and the staircase rows over every point of the
    candidate's sub-diagram, from its own cluster: X of the free chain, Y of the root, e of the
    weights, X and Y swapped when the chain lies on the x-axis."""
    from singular_lct.cluster import _strict_from_total

    sub = cand.subdiagram
    t, c = sub.tree, sub.tree.cluster
    flavor = oracles.subtree_flavor_by_scan(t.parents, t.kinds, 1) if len(t) > 1 else None
    on_x = 1 in t.x_side or flavor == "H"
    chain = _strict_from_total(c, [int(t.is_free(v)) for v in range(len(t))])
    root = _strict_from_total(c, [1] + [0] * (len(t) - 1))
    x, y = (root, chain) if on_x else (chain, root)
    e = _strict_from_total(c, sub.weights)
    slices = oracles.staircase_slices_from_valuations(x, y, e)
    return min(F(xa + ya, ea) for xa, ya, ea in zip(x, y, e)), slices


def _germ_theorem_germs(rng, count):
    """Products of one to three branches y^a - c x^b or x^a - c y^b, half
    of them composed with x -> x + lambda y^k, as the germ-theorem
    benchmark draws them."""
    from math import gcd

    pairs = [(a, b) for b in range(2, 10) for a in range(1, b) if gcd(a, b) == 1]
    coefficients = ("1", "(-1)", "2", "(-3)", "(1/2)", "(-2/3)")
    germs = []
    for j in range(count):
        tilt = rng.choice(("1", "(-1)", "2", "(1/3)"))
        x = "x" if j % 2 == 0 else f"(x + {tilt}*y^{1 + (j // 2) % 2})"
        factors = set()
        while len(factors) < 1 + j % 3:
            a, b = rng.choice(pairs)
            c = rng.choice(coefficients)
            u, v = ("y", x) if rng.random() < 0.5 else (x, "y")
            factors.add(f"({u}^{a} - {c}*{v}^{b})")
        germs.append("*".join(sorted(factors)))
    return germs


def _oracle_diagrams(rng, count):
    """Random binary diagrams, each also with one satellite flipped,
    diagrams of random closed staircases (mirrored chains and x_side marks)
    and trees of random clusters with weights 0-6, all-zero ones included."""
    from singular_lct import cluster_to_tree, staircase_to_diagram
    from test_cluster import random_cluster
    from test_enriques import random_binary_diagram, random_closed_staircase

    out = []
    while len(out) < count:
        d = random_binary_diagram(rng, 12)
        out.append(d)
        # one free point's satellite drawn against its chain's axis
        t = d.tree
        sats = [k for k in range(1, len(t)) if t.is_satellite(k) and t.kinds[t.parents[k]] == "s"]
        if sats:
            k = rng.choice(sats)
            kinds = list(t.kinds)
            kinds[k] = "h" if kinds[k] == "v" else "v"
            out.append(EnriquesDiagram(EnriquesTree(t.parents, kinds, t.x_side), d.weights))
        out.append(staircase_to_diagram(random_closed_staircase(rng)))
        c = random_cluster(rng, 10)
        top = rng.choice((0, 2, 6))
        out.append(EnriquesDiagram(cluster_to_tree(c), [rng.randint(0, top) for _ in range(len(c))]))
    return out


def test_adapted_candidates_match_the_subdiagram_oracle():
    import random

    from singular_lct import EnriquesError, OrientationError, UnitIdealError

    rng = random.Random(263)
    curves = [expr for _, expr in corpus_curves(20)] + _germ_theorem_germs(rng, 320)
    diagrams = [resolve_curve(P(expr))[1] for expr in curves]
    diagrams.append(EnriquesDiagram(EnriquesTree((), ()), ()))
    diagrams += _oracle_diagrams(rng, 1800)
    candidates, errors = 0, {}
    for d in diagrams:
        got = _candidate_outcome(adapted_candidates, d)
        # the records and their reprs: the same sub-diagrams, vertex by vertex
        want = _candidate_outcome(oracles.adapted_candidates_by_subdiagram, d)
        assert got == want and repr(got) == repr(want), d
        if isinstance(got, tuple):
            errors[got[0]] = errors.get(got[0], 0) + 1
            continue
        for cand in got:
            if cand.rho is not None:
                assert _read_off_all_points(cand) == (cand.lct, cand.staircase.slices())
            candidates += 1
    assert candidates > 2000, candidates
    assert set(errors) == {EnriquesError, OrientationError, UnitIdealError}, errors
    assert min(errors.values()) > 50, errors


def _kept_points(d, rho):
    """The root path to rho and every satellite hanging off it, with their
    satellites in turn."""
    t = d.tree
    keep, v = [], rho
    while v is not None:
        keep.append(v)
        v = t.parents[v]
    for u in keep:
        keep.extend(k for k in t.children(u) if t.is_satellite(k))
    return keep


def _counting_restrictions(monkeypatch):
    """Count the calls of `EnriquesDiagram.restrict` from here on."""
    calls = []
    restrict = EnriquesDiagram.restrict

    def counted(self, keep):
        calls.append(keep)
        return restrict(self, keep)

    monkeypatch.setattr(EnriquesDiagram, "restrict", counted)
    return calls


def test_a_candidate_builds_its_subdiagram_on_first_access(monkeypatch):
    import random

    rng = random.Random(3131)
    diagrams = [resolve_curve(P(expr))[1] for _, expr in corpus_curves(12)]
    diagrams += _oracle_diagrams(rng, 400)
    calls = _counting_restrictions(monkeypatch)
    built = 0
    for d in diagrams:
        try:
            candidates = adapted_candidates(d)
        except ValueError:
            continue
        assert calls == []
        for cand in candidates:
            if cand.rho is None:
                assert cand.subdiagram is d
                continue
            sub = cand.subdiagram
            assert len(calls) == 1
            want = d.restrict(_kept_points(d, cand.rho))
            assert sub == want and repr(sub) == repr(want)
            assert cand.subdiagram is sub and len(calls) == 2  # built once
            calls.clear()
            built += 1
    assert built > 400, built
    # a branching free chain that draws its satellites both ways: the reader
    # refuses the first candidate before any sub-diagram is built
    t = EnriquesTree((None, 0, 1, 1, 3, 2), (None, "s", "s", "s", "v", "h"))
    with pytest.raises(OrientationError, match="vertex 2: satellite child drawn 'h' on the x-axis"):
        adapted_candidates(EnriquesDiagram(t, (2, 2, 1, 1, 1, 1)))
    assert calls == []


def germ_theorem_inputs(seed):
    """The germs of the germ-theorem benchmark, as it draws them for `seed`."""
    import importlib.util
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.GermTheorem(seed).inputs


@functools.lru_cache(maxsize=1)
def _germ_theorem_diagrams(seed):
    """The diagrams of the germ-theorem benchmark's germs."""
    return [resolve_curve(P(text))[1] for text in germ_theorem_inputs(seed)]


def test_the_theorem_check_builds_no_subdiagram(monkeypatch):
    diagrams = _germ_theorem_diagrams(5)
    calls = _counting_restrictions(monkeypatch)
    reports = [check_main_theorem(d) for d in diagrams]
    assert calls == []
    assert sum(len(r.candidates) for r in reports) == 401


def test_staircase_to_diagram_shares_the_point_of_a_slope_minus_one_facet(monkeypatch):
    from singular_lct import newton_facets, staircase_to_diagram

    staircases = [
        c.staircase
        for d in _germ_theorem_diagrams(5)
        for c in check_main_theorem(d).candidates
        if not c.staircase.is_empty()
    ]
    steps = [f.p == f.q for s in staircases for f in newton_facets(s.to_ideal())]
    assert sum(steps) > 0
    # a union or a t_pq tree has at least two vertices: a one-vertex tree
    # built here would be the tree of a facet of slope -1
    built = []
    init = EnriquesTree.__init__

    def counted(self, parents, kinds, x_side=frozenset()):
        parents = tuple(parents)
        built.append(len(parents))
        init(self, parents, kinds, x_side)

    monkeypatch.setattr(EnriquesTree, "__init__", counted)
    diagrams = [staircase_to_diagram(s) for s in staircases]
    assert 1 not in built
    assert len({id(d.tree) for d in diagrams if len(d) == 1}) == 1  # one shared point
