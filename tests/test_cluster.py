import json
import random
from fractions import Fraction
from math import lcm

import pytest

import oracles
from singular_lct import (
    BRANCH,
    LOGDISC,
    STRICT,
    TOTAL,
    BasisVector,
    BivariatePolynomial,
    Cluster,
    ClusterError,
    MonomialIdeal,
    UnloadingError,
    WeightedCluster,
    change_basis,
    cluster_to_tree,
    howald_multiplier,
    is_unloaded,
    jumping_numbers_curve,
    jumping_numbers_monomial,
    lct_cluster,
    log_discrepancies,
    multiplier_cluster,
    proximity_matrix,
    resolve_curve,
    t_pq,
    tree_to_cluster,
    unload,
)
from singular_lct import cluster as cluster_mod, serialize
from singular_lct.cli import main
from singular_lct.cluster import (
    EMPTY_CLUSTER,
    _complete_strict,
    _demand,
    _strict_from_total,
    _total_from_strict,
    intersection_inverse,
    pi_inverse,
)
from singular_lct.corpus import coprime_pairs, corpus_curves

F = Fraction


def cusp57_cluster() -> Cluster:
    return tree_to_cluster(t_pq(5, 7).tree)


def t23_cluster() -> Cluster:
    return tree_to_cluster(t_pq(2, 3).tree)


def random_cluster(rng, max_points=8) -> Cluster:
    parents = [None]
    targets = [()]
    for i in range(1, rng.randint(1, max_points)):
        p = rng.randrange(i)
        prox = (p,)
        second_options = []
        if parents[p] is not None:
            second_options.append(parents[p])
        second_options.extend(a for a in targets[p] if a != parents[p])
        if second_options and rng.random() < 0.5:
            pair = tuple(sorted((p, rng.choice(second_options))))
            if pair not in targets:  # each crossing carries one point only
                prox = pair
        parents.append(p)
        targets.append(prox)
    return Cluster(parents, targets)


# -- proximity matrix --------------------------------------------------------------


def test_proximity_matrix_of_57_cluster():
    assert proximity_matrix(cusp57_cluster()) == (
        (1, -1, -1, -1, 0),
        (0, 1, -1, 0, 0),
        (0, 0, 1, -1, -1),
        (0, 0, 0, 1, -1),
        (0, 0, 0, 0, 1),
    )


def test_proximity_matrix_single_point():
    assert proximity_matrix(Cluster((None,), ((),))) == ((1,),)


def test_proximity_matrix_t23():
    assert proximity_matrix(t23_cluster()) == ((1, -1, -1), (0, 1, -1), (0, 0, 1))


def test_matrix_invariants_random():
    rng = random.Random(5)
    for _ in range(50):
        c = random_cluster(rng)
        r = len(c)
        pi = proximity_matrix(c)
        inv = pi_inverse(c)
        prod = [
            [sum(pi[i][k] * inv[k][j] for k in range(r)) for j in range(r)]
            for i in range(r)
        ]
        assert prod == [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        assert all(inv[i][j] >= 0 for i in range(r) for j in range(r))
        # -Pi Pi^t is the symmetric intersection matrix: diagonal counts the
        # proximate points, off-diagonal -1 exactly at maximal L-branches
        ppt = [
            [sum(pi[i][k] * pi[j][k] for k in range(r)) for j in range(r)]
            for i in range(r)
        ]
        for a in range(r):
            assert ppt[a][a] == 1 + len(c.proximate_to(a))
            for b in range(a + 1, r):
                assert ppt[a][b] == ppt[b][a]
                meets = (a in c.targets[b]) and not any(
                    a in c.targets[g] and b in c.targets[g] for g in range(r)
                )
                assert ppt[a][b] == (-1 if meets else 0)


def test_dual_tree_is_the_off_diagonal_of_pi_pi_t():
    rng = random.Random(71)
    clusters = [
        resolve_curve(BivariatePolynomial.parse(expr))[0].cluster
        for _, expr in corpus_curves(20)
    ]
    clusters += [random_cluster(rng, max_points=25) for _ in range(300)]
    clusters += [EMPTY_CLUSTER, Cluster((None,), ((),))]
    assert max(map(len, clusters)) >= 20
    for c in clusters:
        r = len(c)
        pi = proximity_matrix(c)
        diag, neighbours = c._dual_tree
        edges = set()
        for a in range(r):
            row = [sum(x * y for x, y in zip(pi[a], pi[b])) for b in range(r)]
            assert diag[a] == row[a]
            assert [b for b in range(r) if b != a and row[b]] == sorted(neighbours[a])
            assert all(row[b] == -1 for b in neighbours[a])
            edges.update((min(a, b), max(a, b)) for b in neighbours[a])
        assert len(edges) == max(r - 1, 0)
        assert c == Cluster(c.parents, c.targets)  # the cache is not a field


def corpus_clusters():
    return [
        resolve_curve(BivariatePolynomial.parse(expr))[0].cluster
        for _, expr in corpus_curves(12)
    ]


def test_inverses_match_dense_back_substitution():
    rng = random.Random(55)
    clusters = corpus_clusters() + [EMPTY_CLUSTER, Cluster((None,), ((),))]
    clusters += [tree_to_cluster(t_pq(p, q).tree) for p, q in coprime_pairs(12)]
    clusters += [random_cluster(rng, max_points=12) for _ in range(80)]
    for c in clusters:
        inv = oracles.dense_pi_inverse(c)
        assert pi_inverse(c) == inv
        assert intersection_inverse(c) == oracles.dense_intersection_inverse(c)
        # k = (1, ..., 1) . Pi^{-1}: the column sums
        assert log_discrepancies(c).entries == tuple(map(sum, zip(*inv)))


# -- basis changes ------------------------------------------------------------------


def test_strict_vector_of_57_example():
    c = cusp57_cluster()
    w = BasisVector((5, 2, 2, 1, 1), TOTAL)
    assert change_basis(w, STRICT, c).entries == (5, 7, 14, 20, 35)


def test_branch_vector_of_57_example():
    c = cusp57_cluster()
    w = BasisVector((5, 2, 2, 1, 1), TOTAL)
    assert change_basis(w, BRANCH, c).entries == (0, 0, 0, 0, 1)


def test_single_point_bases_agree():
    c = Cluster((None,), ((),))
    v = BasisVector((7,), TOTAL)
    assert change_basis(v, STRICT, c).entries == (7,)
    assert change_basis(v, BRANCH, c).entries == (7,)


def test_change_basis_roundtrips_random():
    rng = random.Random(9)
    bases = (TOTAL, STRICT, BRANCH)
    for _ in range(60):
        c = random_cluster(rng)
        entries = tuple(rng.randint(-9, 9) for _ in range(len(c)))
        for src in bases:
            v = BasisVector(entries, src)
            for dst in bases:
                back = change_basis(change_basis(v, dst, c), src, c)
                assert back.entries == entries


def test_logdisc_vectors():
    assert log_discrepancies(cusp57_cluster()).entries == (1, 2, 4, 6, 11)
    assert log_discrepancies(t23_cluster()).entries == (1, 2, 4)
    assert log_discrepancies(Cluster((None,), ((),))).entries == (1,)


def test_logdisc_solves_k_pi_equals_one_random():
    rng = random.Random(15)
    for _ in range(40):
        c = random_cluster(rng)
        k = log_discrepancies(c).entries
        pi = proximity_matrix(c)
        prod = [
            sum(k[a] * pi[a][b] for a in range(len(c))) for b in range(len(c))
        ]
        assert prod == [1] * len(c)


def test_logdisc_is_not_converted():
    c = t23_cluster()
    with pytest.raises(ClusterError):
        change_basis(BasisVector((1, 2, 4), LOGDISC), TOTAL, c)


# -- unloading ----------------------------------------------------------------------


def test_is_unloaded_57_examples():
    c = cusp57_cluster()
    assert is_unloaded(WeightedCluster(c, (5, 2, 2, 1, 1)))
    assert not is_unloaded(WeightedCluster(c, (4, 2, 0, 2, 1)))


def test_is_unloaded_single_point():
    c = Cluster((None,), ((),))
    for w in range(4):
        assert is_unloaded(WeightedCluster(c, (w,)))


def test_unload_57_example():
    c = cusp57_cluster()
    out = unload(WeightedCluster(c, (4, 2, 0, 2, 1)))
    assert out.weights == (4, 2, 1, 1, 0)
    branch = change_basis(BasisVector(out.weights, TOTAL), BRANCH, c)
    assert branch.entries == (0, 1, 0, 1, 0)  # the divisor B_2 + B_4


def test_unload_fixed_point():
    c = cusp57_cluster()
    kl = WeightedCluster(c, (5, 2, 2, 1, 1))
    assert unload(kl).weights == kl.weights


def test_unload_t23_single_step():
    out = unload(WeightedCluster(t23_cluster(), (1, 0, 1)))
    assert out.weights == (1, 1, 0)


def test_unload_order_independent_random():
    rng = random.Random(21)
    clusters = [random_cluster(rng) for _ in range(400)] + corpus_clusters()
    for c in clusters:
        weights = tuple(rng.randint(-6, 9) for _ in range(len(c)))
        kl = WeightedCluster(c, weights)
        reference = unload(kl)
        chooser = lambda violated: rng.choice(violated)
        assert oracles.unload_by_unit_steps(kl, choose=chooser) == reference
        assert oracles.unload_by_unit_steps(kl) == reference
        assert is_unloaded(reference)
        assert all(w >= 0 for w in reference.weights)
        assert unload(reference).weights == reference.weights


def test_unload_large_weights():
    chain = Cluster((None, 0), ((), (0,)))
    assert unload(WeightedCluster(chain, (0, 10**6))).weights == (500000, 500000)
    assert unload(WeightedCluster(chain, (-(10**6), 0))).weights == (0, 0)
    for n in (1, 7, 600):
        kl = WeightedCluster(cusp57_cluster(), (0, 0, 0, 0, n))
        assert unload(kl) == oracles.unload_by_unit_steps(kl)
    out = unload(WeightedCluster(cusp57_cluster(), (0, 0, 0, 0, 10**9)))
    assert is_unloaded(out) and unload(out) == out


def test_completion_matches_sweep_oracle():
    rng = random.Random(61)
    clusters = [
        resolve_curve(BivariatePolynomial.parse(expr))[0].cluster
        for _, expr in corpus_curves(20)
    ]
    clusters += [random_cluster(rng, max_points=12) for _ in range(60)]
    for c in clusters:
        for _ in range(4):
            demand = [rng.randint(-5, 12) for _ in range(len(c))]
            warm = rng.choice([None, [rng.randint(0, 6) for _ in range(len(c))]])
            expected = oracles.complete_strict_by_sweeps(c, demand, warm)
            assert oracles.complete_strict_by_dirty_points(c, demand, warm) == expected
            assert oracles.complete_strict_by_excess_vector(c, demand, warm) == expected
            # a warm start is a lower bound folded into the demand
            warmed = demand if warm is None else [max(d, w) for d, w in zip(demand, warm)]
            assert _complete_strict(c, warmed) == expected, (c, demand, warm)
            # a completion at a smaller demand is a warm start
            larger = [d + rng.randint(0, 9) for d in demand]
            at_larger = oracles.complete_strict_by_sweeps(c, larger, expected)
            assert oracles.complete_strict_by_dirty_points(c, larger, expected) == at_larger
            assert oracles.complete_strict_by_excess_vector(c, larger, expected) == at_larger
            warmed = [max(d, w) for d, w in zip(larger, expected)]
            assert _complete_strict(c, warmed) == at_larger


def test_unload_chains_with_large_weights_match_sweep_oracle():
    # a heavy last point unloads back along the whole chain over many sweeps
    for r in (10, 50):
        c = Cluster([None, *range(r - 1)], [(), *((i,) for i in range(r - 1))])
        for top in (10**6, 10**9):
            kl = WeightedCluster(c, [0] * (r - 1) + [top])
            demand = _strict_from_total(c, kl.weights)
            e = oracles.complete_strict_by_sweeps(c, demand)
            assert oracles.complete_strict_by_dirty_points(c, demand) == e
            assert oracles.complete_strict_by_excess_vector(c, demand) == e
            assert _complete_strict(c, demand) == e
            out = unload(kl)
            assert out.weights == tuple(_total_from_strict(c, e))
            assert is_unloaded(out)


def test_repair_with_only_the_raised_points_neighbours_dirty():
    # raising points of an unloaded vector lowers the excesses of their
    # dual-tree neighbours alone, so those are all `_repair` needs to visit
    rng = random.Random(67)
    for _ in range(300):
        c = random_cluster(rng, max_points=25)
        demand = [rng.randint(-3, 12) for _ in range(len(c))]
        e = oracles.complete_strict_by_sweeps(c, demand)
        raised = rng.sample(range(len(c)), rng.randint(1, len(c)))
        for a in raised:
            e[a] += rng.randint(1, 30)
        expected = oracles.complete_strict_by_sweeps(c, e)
        neighbours = c._dual_tree[1]
        cluster_mod._repair(c, e, [b for a in raised for b in neighbours[a]])
        assert e == expected, (c, demand, raised)


def repair_cases():
    """(cluster, strict vector, dirty points): the heavy free chains with
    every point dirty, and raised unloaded vectors with only the raised
    points' neighbours dirty, as the jump walk repairs."""
    for r in (10, 50):
        c = Cluster([None, *range(r - 1)], [(), *((i,) for i in range(r - 1))])
        for top in (10**6, 10**9):
            e = [max(x, 0) for x in _strict_from_total(c, [0] * (r - 1) + [top])]
            yield c, e, list(range(r))
    rng = random.Random(71)
    for _ in range(300):
        c = random_cluster(rng, max_points=25)
        e = oracles.complete_strict_by_sweeps(c, [rng.randint(-3, 12) for _ in range(len(c))])
        raised = rng.sample(range(len(c)), rng.randint(1, len(c)))
        for a in raised:
            e[a] += rng.randint(1, 30)
        neighbours = c._dual_tree[1]
        yield c, e, [b for a in raised for b in neighbours[a]]


def test_repair_keeps_the_rounds_of_the_round_list_oracle(monkeypatch):
    # each next round is built in the order dict.fromkeys gave it, so the
    # kernel makes the same bumps in the same rounds and needs the same cap
    caps = []
    for c, e, dirty in repair_cases():
        expected = list(e)
        rounds = oracles.repair_by_round_lists(c, expected, list(dirty))
        caps.append(rounds)
        out = list(e)
        with monkeypatch.context() as m:
            m.setattr(cluster_mod, "_MAX_ROUNDS", rounds)
            cluster_mod._repair(c, out, list(dirty))
            assert out == expected, (c, e, dirty)
            m.setattr(cluster_mod, "_MAX_ROUNDS", rounds - 1)
            with pytest.raises(UnloadingError):
                cluster_mod._repair(c, list(e), list(dirty))
    assert caps[:4] == [123, 191, 2150, 3899]
    assert max(caps[4:]) > 100  # the random raises take many rounds too


def test_unloading_gives_up_at_the_round_cap(monkeypatch, tmp_path, capsys):
    r = 50
    c = Cluster([None, *range(r - 1)], [(), *((i,) for i in range(r - 1))])
    kl = WeightedCluster(c, [0] * (r - 1) + [10**9])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(serialize.cluster_to_json(kl)))
    assert is_unloaded(unload(kl))
    monkeypatch.setattr(cluster_mod, "_MAX_ROUNDS", 10)
    with pytest.raises(UnloadingError, match="completion did not stabilize"):
        unload(kl)
    assert main(["unload", "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: completion did not stabilize\n")


# -- lct ----------------------------------------------------------------------------


def test_lct_57_cluster():
    value, argmin = lct_cluster(WeightedCluster(cusp57_cluster(), (5, 2, 2, 1, 1)))
    assert value == F(12, 35) and argmin == (4,)
    # equals the monomial threshold of (x^5, y^7) by the main theorem
    from singular_lct import lct_monomial

    assert value == lct_monomial(MonomialIdeal(((5, 0), (0, 7))))


def test_lct_example_curve_cluster():
    from singular_lct import connected_sum

    tree = connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree)
    value, argmin = lct_cluster(WeightedCluster(tree_to_cluster(tree), (4, 2, 2, 1, 1)))
    assert value == F(5, 12) and argmin == (2,)


def test_lct_single_point():
    c = Cluster((None,), ((),))
    for m in (1, 2, 5):
        value, argmin = lct_cluster(WeightedCluster(c, (m,)))
        assert value == F(2, m) and argmin == (0,)


def test_lct_rejects_loaded_weights():
    with pytest.raises(ClusterError):
        lct_cluster(WeightedCluster(cusp57_cluster(), (4, 2, 0, 2, 1)))
    with pytest.raises(ClusterError):
        lct_cluster(WeightedCluster(cusp57_cluster(), (0, 0, 0, 0, 0)))


# -- multiplier clusters ------------------------------------------------------------


def test_multiplier_cluster_example_curve():
    from singular_lct import connected_sum

    tree = connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree)
    kl = WeightedCluster(tree_to_cluster(tree), (4, 2, 2, 1, 1))
    out = multiplier_cluster(kl, F(5, 12))
    assert out.weights == (1, 0, 0, 0, 0)
    assert out.trimmed().weights == (1,)
    # cross-check against the monomial route on the term ideal
    a = MonomialIdeal(((6, 0), (5, 1), (3, 2), (0, 4)))
    assert howald_multiplier(a, F(5, 12)).generators == ((0, 1), (1, 0))


def test_multiplier_cluster_below_threshold_is_trivial():
    kl = WeightedCluster(cusp57_cluster(), (5, 2, 2, 1, 1))
    out = multiplier_cluster(kl, F(1, 4))
    assert out.is_empty()
    assert out.trimmed().weights == ()


def test_multiplier_cluster_cusp():
    kl = WeightedCluster(t23_cluster(), (2, 1, 1))
    out = multiplier_cluster(kl, F(5, 6))
    assert out.trimmed().weights == (1,)


def test_multiplier_cluster_domain():
    kl = WeightedCluster(t23_cluster(), (2, 1, 1))
    for xi in (F(0), F(1), F(3, 2), F(-1, 2)):
        with pytest.raises(ClusterError):
            multiplier_cluster(kl, xi)


def test_multiplier_unloaded_and_nonnegative_random_scales():
    rng = random.Random(33)
    kl = WeightedCluster(cusp57_cluster(), (5, 2, 2, 1, 1))
    for _ in range(30):
        xi = F(rng.randint(1, 34), 35)
        out = multiplier_cluster(kl, xi)
        assert is_unloaded(out)
        assert all(w >= 0 for w in out.weights)


def append_free_point(kl: WeightedCluster, parent: int) -> WeightedCluster:
    c = kl.cluster
    parents = list(c.parents) + [parent]
    targets = list(c.targets) + [(parent,)]
    return WeightedCluster(Cluster(parents, targets), kl.weights + (0,))


def test_multiplier_cluster_resolution_independent():
    # one extra blowup (a weight-0 free point) must not change the result
    rng = random.Random(41)
    bases = [
        WeightedCluster(cusp57_cluster(), (5, 2, 2, 1, 1)),
        WeightedCluster(t23_cluster(), (2, 1, 1)),
    ]
    for kl in bases:
        for parent in range(len(kl.cluster)):
            extended = append_free_point(kl, parent)
            for _ in range(10):
                xi = F(rng.randint(1, 99), 100)
                a = multiplier_cluster(kl, xi).trimmed()
                b = multiplier_cluster(extended, xi).trimmed()
                assert a.weights == b.weights
                assert a.cluster == b.cluster


def test_trimmed_matches_fixed_point_loop():
    rng = random.Random(61)
    cases = []
    for _ in range(300):
        c = random_cluster(rng, max_points=12)
        weights = [rng.choice((0, 0, 0, 1, 2)) for _ in range(len(c))]
        cases.append(WeightedCluster(c, weights))
    for _, expr in corpus_curves(12):
        kl = resolve_curve(BivariatePolynomial.parse(expr))[0]
        if kl.weights:
            cases += [multiplier_cluster(kl, F(j, 7)) for j in range(1, 7)]
    for kl in cases:
        assert kl.trimmed() == oracles.trimmed_by_fixed_point_loop(kl)
    assert any(0 < len(kl.trimmed().weights) < len(kl.weights) for kl in cases)


# -- curve jumping numbers -----------------------------------------------------------


def test_jumping_example_curve():
    from singular_lct import connected_sum

    tree = connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree)
    kl = WeightedCluster(tree_to_cluster(tree), (4, 2, 2, 1, 1))
    jumps = jumping_numbers_curve(kl, F(1))
    assert jumps[:2] == [F(5, 12), F(15, 26)]
    assert F(15, 26) < F(7, 12)  # the curve jumps earlier than its term ideal


def test_jumping_cusp_matches_monomial_route():
    kl = WeightedCluster(t23_cluster(), (2, 1, 1))
    assert jumping_numbers_curve(kl, F(1)) == [F(5, 6)]
    monomial = jumping_numbers_monomial(MonomialIdeal(((2, 0), (0, 3))), F(1))
    assert [x for x in monomial if x < 1] == [F(5, 6)]


def test_jumping_57_matches_howald_oracle():
    kl = WeightedCluster(cusp57_cluster(), (5, 2, 2, 1, 1))
    curve = jumping_numbers_curve(kl, F(1))
    monomial = jumping_numbers_monomial(MonomialIdeal(((5, 0), (0, 7))), F(1))
    assert curve == [x for x in monomial if x < 1]


def test_jumping_bound_respected():
    kl = WeightedCluster(cusp57_cluster(), (5, 2, 2, 1, 1))
    jumps = jumping_numbers_curve(kl, F(1, 2))
    assert jumps and all(x <= F(1, 2) for x in jumps)
    with pytest.raises(ClusterError):
        jumping_numbers_curve(kl, F(3, 2))


def test_lct_is_first_curve_jump():
    for kl in (
        WeightedCluster(cusp57_cluster(), (5, 2, 2, 1, 1)),
        WeightedCluster(t23_cluster(), (2, 1, 1)),
    ):
        assert jumping_numbers_curve(kl, F(1))[0] == lct_cluster(kl)[0]


def test_jumping_smooth_germs_and_empty_cluster(capsys):
    germs = ("y", "x", "y - x^2", "x*y")
    clusters = [resolve_curve(BivariatePolynomial.parse(g))[0] for g in germs]
    assert [len(kl.cluster) for kl in clusters] == [0, 0, 0, 1]
    for kl in clusters + [WeightedCluster(EMPTY_CLUSTER, ())]:
        for bound in (F(1), F(1, 2)):
            assert jumping_numbers_curve(kl, bound) == []
    assert main(["jumping", "--curve", "y", "--bound", "1"]) == 0
    assert capsys.readouterr().out.strip() == ""


def walk(kl, bound):
    """The jump walk, which `jumping_numbers_curve` runs on every cluster
    that is not binary, on any unloaded cluster: [] on an empty one."""
    return [] if kl.is_empty() else cluster_mod._jump_walk(kl, F(bound))


def test_next_jump_matches_candidate_scan():
    resolved = lambda expr: resolve_curve(BivariatePolynomial.parse(expr))[0]
    cases = [
        (resolved(f"x^{p} - y^{q}"), bound)
        for p, q in coprime_pairs(20)
        for bound in (F(1), F(1, 2))
    ]
    cases += [(resolved(expr), F(1)) for _, expr in corpus_curves(12)]
    assert len(cases) == 2 * 108 + len(corpus_curves(12))
    for kl, bound in cases:
        expected = oracles.curve_jumps_by_candidate_scan(kl, bound)
        assert walk(kl, bound) == expected, (kl, bound)
        assert jumping_numbers_curve(kl, bound) == expected, (kl, bound)
        assert oracles.curve_jumps_by_excess_vector(kl, bound) == expected


def random_unloaded(rng, max_points):
    """A non-empty unloaded weighted cluster: random weights, unloaded."""
    while True:
        c = random_cluster(rng, max_points)
        kl = unload(WeightedCluster(c, [rng.randint(0, 4) for _ in range(len(c))]))
        if not kl.is_empty():
            return kl


def jump_cases():
    rng = random.Random(83)
    curves = [
        resolve_curve(BivariatePolynomial.parse(expr))[0]
        for _, expr in corpus_curves(20)
    ]
    curves = [kl for kl in curves if kl.weights]
    return curves + [random_unloaded(rng, 12) for _ in range(60)]


def test_multiplier_and_unload_match_excess_vector_oracle():
    # the kernel reads each excess from the strict vector; the oracle keeps
    # the excess vector x = e . M and checks every entry of it that it writes
    resolved = lambda expr: resolve_curve(BivariatePolynomial.parse(expr))[0]
    cusps = [resolved(f"x^{p} - y^{q}") for p, q in coprime_pairs(20)]
    assert len(cusps) == 108
    rng = random.Random(97)
    for kl in cusps + jump_cases():
        c = kl.cluster
        e = _strict_from_total(c, kl.weights)
        k = log_discrepancies(c).entries
        for xi in jumping_numbers_curve(kl, F(1)):
            at = _demand(e, k, xi.numerator, xi.denominator)
            expected = oracles.complete_strict_by_excess_vector(c, at)
            assert multiplier_cluster(kl, xi).weights == tuple(_total_from_strict(c, expected))
        loaded = [rng.randint(-3, 9) for _ in range(len(c))]
        expected = oracles.complete_strict_by_excess_vector(c, _strict_from_total(c, loaded))
        assert unload(WeightedCluster(c, loaded)).weights == tuple(_total_from_strict(c, expected))


def test_jumping_matches_warm_completions():
    for kl in jump_cases():
        for bound in (F(1), F(1, 2), F(7, 9), lct_cluster(kl)[0], F(1, 1000)):
            if bound > 1:
                continue
            expected = oracles.curve_jumps_by_warm_completions(kl, bound)
            assert walk(kl, bound) == expected, (kl, bound)
            assert oracles.curve_jumps_by_excess_vector(kl, bound) == expected


def test_each_jump_raises_only_the_points_attaining_it():
    raised = 0
    for kl in jump_cases():
        c = kl.cluster
        e = _strict_from_total(c, kl.weights)
        k = log_discrepancies(c).entries
        d, xis = [0] * len(c), []
        while True:
            xi = min(F(ka + da + 1, ea) for ka, da, ea in zip(k, d, e))
            if xi >= 1:
                break
            xis.append(xi)
            n, m = xi.numerator, xi.denominator
            attained = [F(ka + da + 1, ea) == xi for ka, da, ea in zip(k, d, e)]
            start = [max(x, y) for x, y in zip(_demand(e, k, n, m), d)]
            assert start == [da + at for da, at in zip(d, attained)]
            raised += sum(attained)
            d = oracles.complete_strict_by_sweeps(c, start)
        assert walk(kl, F(1)) == xis, kl
    assert raised > 1000


def test_jumping_on_the_zero_divisor_is_empty():
    c = cusp57_cluster()
    assert jumping_numbers_curve(WeightedCluster(c, (0,) * len(c)), F(1)) == []


def test_jumping_keys_over_a_large_lcm_and_at_the_bound_edges():
    # the walk compares the keys (k + d + 1)/e . lcm(e) in integers; seven
    # branches give 20 distinct multiplicities and a 104-bit lcm
    many = resolve_curve(
        BivariatePolynomial.parse(
            "(y^2-x^3)*(y^3-x^7)*(y^5-x^8)*(y^7-x^9)*(y^11-x^12)*(y^13-x^14)*(y^2-2*x^3)"
        )
    )[0]
    e = _strict_from_total(many.cluster, many.weights)
    assert len(set(e)) == len(e) == 20 and lcm(*e).bit_length() == 104
    singular = [kl for kl in jump_cases() if lct_cluster(kl)[0] < 1]  # a jump below 1
    for kl in (many, WeightedCluster(cusp57_cluster(), (5, 2, 2, 1, 1)), *singular[::8]):
        jumps = walk(kl, F(1))
        assert jumps == oracles.curve_jumps_by_warm_completions(kl, F(1))
        lct = lct_cluster(kl)[0]
        assert jumps[0] == lct
        i = len(jumps) // 2
        cases = [
            (jumps[i], jumps[: i + 1]),  # a bound at a jump keeps it
            (jumps[-1], jumps),
            (lct, [lct]),
            (lct - F(1, 10**40), []),  # just below the lct
        ]
        if i + 1 < len(jumps):  # strictly between two jumps
            cases.append(((jumps[i] + jumps[i + 1]) / 2, jumps[: i + 1]))
        for bound, expected in cases:
            assert walk(kl, bound) == expected, (kl, bound)
            assert jumping_numbers_curve(kl, bound) == expected, (kl, bound)
            assert oracles.curve_jumps_by_warm_completions(kl, bound) == expected


def test_jumping_deep_chain_closed_form():
    # y^2 = x^401 resolves into a 202-point chain; its jumps below 1 are
    # 1/2 + b/401
    kl = resolve_curve(BivariatePolynomial.parse("y^2 - x^401"))[0]
    assert len(kl.cluster) == 202
    expected = [F(1, 2) + F(b, 401) for b in range(1, 201)]
    assert walk(kl, F(1)) == expected
    assert jumping_numbers_curve(kl, F(1)) == expected


def test_binary_clusters_read_their_jumps_off_the_monomial_ideal(monkeypatch):
    # a binary cluster takes Howald's route, any other the walk, and both
    # give the same jumps at every bound: the walk's own, its jumps and the
    # midpoints between them, and the lct with a point just below it
    resolved = lambda expr: resolve_curve(BivariatePolynomial.parse(expr))[0]
    cusps = {(p, q): resolved(f"x^{p} - y^{q}") for p, q in coprime_pairs(20)}
    named = {
        # two root chains, each with satellites
        "(x^2 - y^3)*(x^3 - y^2)": [F(1, 2), F(7, 10), F(9, 10)],
        # degenerate in its own coordinates, but its cluster is binary
        "(y - x^2)^2 - x^5": [F(7, 10), F(9, 10)],
    }
    rng = random.Random(35)
    clusters = [  # corpus_curves(20): the cusps, then the special curves
        *cusps.values(),
        *(resolved(expr) for expr in named),
        *(resolved(expr) for _, expr in corpus_curves(20)[len(cusps) :]),
        *(random_unloaded(rng, 12) for _ in range(600)),
    ]
    walked = []
    real_walk = cluster_mod._jump_walk
    monkeypatch.setattr(
        cluster_mod, "_jump_walk", lambda kl, bound: walked.append(kl) or real_walk(kl, bound)
    )
    binary = 0
    for kl in clusters:
        if kl.is_empty():
            continue
        full = real_walk(kl, F(1))
        lct = lct_cluster(kl)[0]
        fixed = [b for b in (F(1), F(1, 2), F(7, 9), lct, lct - F(1, 10**40)) if b <= 1]
        for bound in fixed:
            assert real_walk(kl, bound) == [x for x in full if x <= bound], (kl, bound)
        midpoints = [(a + b) / 2 for a, b in zip(full, full[1:])]
        walked.clear()
        for bound in {*fixed, *full, *midpoints}:
            got = jumping_numbers_curve(kl, bound)
            assert got == [x for x in full if x <= bound], (kl, bound)
        is_binary = cluster_mod._binary_witness(kl.cluster) is None
        assert bool(walked) != is_binary, kl  # no scan here passes the lattice limit
        binary += is_binary
    assert 300 < binary < len(clusters) - 300, binary
    for (p, q), kl in cusps.items():  # Howald: a/p + b/q below 1, a, b >= 1
        howald = {F(a, p) + F(b, q) for a in range(1, p) for b in range(1, q)}
        assert jumping_numbers_curve(kl, F(1)) == sorted(x for x in howald if x < 1)
    for expr, jumps in named.items():
        walked.clear()
        assert jumping_numbers_curve(resolved(expr), F(1)) == jumps and not walked, expr
    for expr in ("(y^2 - x^3)^2 - x^7", "(x^3 - y^2)^2 - x^5*y"):
        kl = resolved(expr)
        walked.clear()
        assert jumping_numbers_curve(kl, F(1)) == real_walk(kl, F(1)) and walked, expr
        assert cluster_mod._binary_witness(kl.cluster) is not None


def test_a_scan_past_the_lattice_limit_falls_back_to_the_walk(monkeypatch):
    # the limit is read off the valuations before any ideal is built
    from singular_lct import newton

    kl = resolve_curve(BivariatePolynomial.parse("y^2 - x^401"))[0]
    expected = walk(kl, F(1))
    scanned = []
    real_scan = newton.jumping_numbers_monomial
    monkeypatch.setattr(
        newton, "jumping_numbers_monomial", lambda a, b: scanned.append(a) or real_scan(a, b)
    )
    assert jumping_numbers_curve(kl, F(1)) == expected and len(scanned) == 1
    # the scan reads (401 + 2) * (2 + 3) points at bound 1, (300 + 2) * (1 + 3) at 3/4
    monkeypatch.setattr(newton, "MAX_LATTICE_POINTS", 403 * 5 - 1)
    assert jumping_numbers_curve(kl, F(1)) == expected and len(scanned) == 1
    below = [x for x in expected if x <= F(3, 4)]
    assert len(below) == 100 and jumping_numbers_curve(kl, F(3, 4)) == below
    assert len(scanned) == 2


def sub_clusters(c: Cluster):
    """c itself, each proper prefix, and for every point a the restriction
    to the points whose proximity closure avoids a (renumbered)."""
    yield c
    for n in range(1, len(c)):
        yield c.restrict(range(n))
    for a in range(len(c)):
        dropped = {a}
        for b in range(a + 1, len(c)):
            if dropped.intersection(c.targets[b]):
                dropped.add(b)
        keep = [b for b in range(len(c)) if b not in dropped]
        if keep:
            yield c.restrict(keep)


def test_cached_adjacency_matches_scans():
    rng = random.Random(47)
    clusters = corpus_clusters() + [random_cluster(rng) for _ in range(40)]
    seen = 0
    for cluster in clusters:
        for c in sub_clusters(cluster):
            r = len(c)
            for a in range(r):
                assert c.proximate_to(a) == [b for b in range(r) if a in c.targets[b]]
                assert c.children(a) == [b for b in range(r) if c.parents[b] == a]
            seen += 1
    assert seen > 500


def test_cached_adjacency_stays_out_of_the_value():
    kl, _ = resolve_curve(BivariatePolynomial.parse("(x^3 - y^2)^2 - x^5*y"))
    c = kl.cluster
    assert Cluster._fields == ("parents", "targets")
    twin = Cluster(list(c.parents), [list(t) for t in c.targets])
    assert twin == c and hash(twin) == hash(c) == hash((c.parents, c.targets))
    assert repr(c) == f"Cluster(parents={c.parents!r}, targets={c.targets!r})"
    assert serialize.cluster_to_json(kl) == {
        "points": [
            {"id": 1, "parent": None, "prox": []},
            {"id": 2, "parent": 1, "prox": [1]},
            {"id": 3, "parent": 2, "prox": [1, 2]},
            {"id": 4, "parent": 3, "prox": [3]},
            {"id": 5, "parent": 4, "prox": [3, 4]},
        ],
        "weights": [4, 2, 2, 1, 1],
    }
    c.proximate_to(0).append(99)
    c.children(0).clear()
    assert c.proximate_to(0) == [1, 2] and c.children(0) == [1]
    assert c == twin


# -- cluster validation ---------------------------------------------------------------


def test_cluster_rejects_bad_structure():
    with pytest.raises(ClusterError):
        Cluster((None, None), ((), ()))  # two roots
    with pytest.raises(ClusterError):
        Cluster((None, 0), ((), ()))  # not proximate to parent
    with pytest.raises(ClusterError):
        Cluster((None, 0, 1), ((), (0,), (0, 1, 2)))  # too many targets
    with pytest.raises(ClusterError):
        # satellite target not reachable by an L-branch
        Cluster((None, 0, 1, 2), ((), (0,), (1,), (0, 2)))


def test_an_unreachable_satellite_target_is_named():
    # point 3 hangs off the free point 2, whose only target is 1
    with pytest.raises(ClusterError) as err:
        Cluster((None, 0, 1, 2), ((), (0,), (1,), (0, 2)))
    assert str(err.value) == (
        "point 3: satellite target 0 is not reachable by an L-shaped branch"
    )
    # through a satellite parent both of its targets are reachable
    assert Cluster((None, 0, 1, 2), ((), (0,), (0, 1), (0, 2))).targets[3] == (0, 2)
    assert Cluster((None, 0, 1, 2), ((), (0,), (0, 1), (1, 2))).targets[3] == (1, 2)


def test_a_second_point_on_a_crossing_fails_where_it_appears():
    with pytest.raises(ClusterError) as err:
        Cluster((None, 0, 1, 1), ((), (0,), (0, 1), (0, 1)))
    assert str(err.value) == (
        "point 3: a second point on the crossing of the exceptional divisors of 0 and 1"
    )
    # random satellites that may repeat a crossing; the first repeat is
    # found by scanning the targets before it
    rng = random.Random(47)
    repeats = 0
    for _ in range(300):
        parents, targets = [None], [()]
        for i in range(1, rng.randint(2, 10)):
            p = rng.randrange(i)
            if targets[p] and rng.random() < 0.6:  # an L-branch target
                targets.append(tuple(sorted((p, rng.choice(targets[p])))))
            else:
                targets.append((p,))
            parents.append(p)
        repeat = next(
            (i for i, t in enumerate(targets) if len(t) == 2 and t in targets[:i]), None
        )
        try:
            Cluster(parents, targets)
        except ClusterError as exc:
            a, b = targets[repeat]
            assert str(exc) == (
                f"point {repeat}: a second point on the crossing of the "
                f"exceptional divisors of {a} and {b}"
            )
            repeats += 1
        else:
            assert repeat is None
    assert repeats > 50


def test_cluster_tree_roundtrip_random():
    rng = random.Random(43)
    for _ in range(60):
        c = random_cluster(rng)
        assert tree_to_cluster(cluster_to_tree(c)) == c


def test_weighted_cluster_accepts_only_integer_weights():
    point = Cluster((None,), ((),))
    for bad in (2.7, 2.0, "3", Fraction(3), True, None):
        with pytest.raises(ClusterError, match="weight 0"):
            WeightedCluster(point, (bad,))
    with pytest.raises(ClusterError, match=r"weight 1 .*'1'"):
        WeightedCluster(Cluster((None, 0), ((), (0,))), (2, "1"))
    assert WeightedCluster(point, [3]).weights == (3,)
    assert WeightedCluster(point, (-(10**30),)).weights == (-(10**30),)
