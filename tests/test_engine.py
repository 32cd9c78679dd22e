from fractions import Fraction

import pytest

from singular_lct import (
    BivariatePolynomial,
    EnriquesDiagram,
    EnriquesTree,
    MainTheoremViolation,
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
    from singular_lct.engine import _path_to_leaf_through
    from singular_lct.enriques import _free_path

    for name, expr in corpus_curves(10):
        _, d = resolve_curve(P(expr))
        if len(d) == 0:
            continue
        direct, witnesses = lct_cluster(d.to_weighted_cluster())
        candidates = adapted_candidates(d)
        free_path = _free_path(d.tree)
        for w in witnesses:
            for path in _path_to_leaf_through(d, w):
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
