import random
from fractions import Fraction
from math import gcd

import pytest

import oracles
from singular_lct import (
    EnriquesDiagram,
    EnriquesError,
    EnriquesTree,
    MonomialIdeal,
    OrientationError,
    Staircase,
    branch_coefficients,
    check_main_theorem,
    classify,
    cluster_to_tree,
    connected_sum,
    diagram_to_staircase,
    euclid_data,
    integral_closure,
    lct_cluster,
    lct_monomial,
    prune_last,
    staircase_to_diagram,
    t_pq,
    tree_to_cluster,
    union,
    verify_main_inequality,
)
from singular_lct.cluster import (
    WeightedCluster,
    _strict_from_total,
    _total_from_branch,
    intersection_inverse,
    pi_inverse,
    unload,
)
from singular_lct.corpus import coprime_pairs
from singular_lct.poly import BivariatePolynomial

F = Fraction
P = BivariatePolynomial.parse


# -- random generators -------------------------------------------------------------


def random_binary_diagram(rng, max_vertices=10) -> EnriquesDiagram:
    """Random binary diagram with a consistent orientation, unloaded weights
    >= 1 everywhere (no redundant vertices)."""
    parents = [None]
    kinds = [None]
    roles = {0: None}
    marks = set()
    target = rng.randint(1, max_vertices)
    while len(parents) < target:
        v = rng.randrange(len(parents))
        kids = [i for i in range(len(parents)) if parents[i] == v]
        options = []
        if v == 0:
            if len(kids) < 2:
                options.append(("s", "V" if not kids else None))
        elif kinds[v] == "s":
            if not any(kinds[k] == "s" for k in kids):
                options.append(("s", roles[v]))
            if not any(kinds[k] in "hv" for k in kids):
                kind = "h" if roles[v] == "V" else "v"
                options.append((kind, "H" if roles[v] == "V" else "V"))
        else:
            same, opp = kinds[v], ("v" if kinds[v] == "h" else "h")
            if not any(kinds[k] == same for k in kids):
                options.append((same, roles[v]))
            if not any(kinds[k] == opp for k in kids):
                options.append((opp, "H" if roles[v] == "V" else "V"))
        if not options:
            continue
        kind, role = rng.choice(options)
        if v == 0 and kids:
            # second root child takes the opposite role of the first
            role = "H" if roles[kids[0]] == "V" else "V"
        elif v == 0:
            role = rng.choice(["V", "H"])
        idx = len(parents)
        parents.append(v)
        kinds.append(kind)
        roles[idx] = role
        if v == 0 and role == "H":
            marks.add(idx)
    tree = EnriquesTree(parents, kinds, frozenset(marks))
    # unloaded weights via non-negative branch coordinates, >= 1 at the ends
    c = tree_to_cluster(tree)
    maximal = [a for a in range(len(c)) if not c.proximate_to(a)]
    b = [rng.randint(1, 3) if a in maximal else rng.randint(0, 2) for a in range(len(c))]
    return EnriquesDiagram(tree, _total_from_branch(c, b))


def random_closed_staircase(rng, max_exp=15) -> Staircase:
    gens = {(rng.randint(1, max_exp), 0), (0, rng.randint(1, max_exp))}
    for _ in range(rng.randint(0, 4)):
        gens.add((rng.randint(0, max_exp), rng.randint(0, max_exp)))
    a = MonomialIdeal(gens)
    if a.is_unit():
        a = MonomialIdeal(((1, 0), (0, 1)))
    return Staircase.from_ideal(integral_closure(a))


def random_unibranch_tree(rng, max_vertices=8) -> EnriquesTree:
    n = rng.randint(2, max_vertices)
    kinds = [None, "s"] + [rng.choice("shv") for _ in range(n - 2)]
    return EnriquesTree([None] + list(range(n - 1)), kinds)


# -- staircase trees ----------------------------------------------------------------


def test_t57():
    d = t_pq(5, 7)
    assert d.weights == (5, 2, 2, 1, 1)
    assert d.tree.kinds == (None, "s", "h", "h", "v")


def test_t23():
    d = t_pq(2, 3)
    assert d.weights == (2, 1, 1)
    assert d.tree.kinds == (None, "s", "h")


def test_t13_all_slant():
    d = t_pq(1, 3)
    assert d.weights == (1, 1, 1)
    assert d.tree.kinds == (None, "s", "s")


def test_mirrored_t_pq_swaps_the_satellite_kinds():
    swap = {"h": "v", "v": "h"}
    for p, q in [(1, q) for q in range(2, 41)] + coprime_pairs(40):
        for scale in (1, 3):
            d, m = t_pq(p, q, scale=scale), t_pq(p, q, scale=scale, mirror=True)
            assert m.tree.parents == d.tree.parents and m.weights == d.weights
            assert m.tree.kinds == tuple(swap.get(k, k) for k in d.tree.kinds)
            # only a bare chain needs the mark to lie on the x-axis
            assert d.tree.x_side == frozenset()
            assert m.tree.x_side == (frozenset({1}) if p == 1 else frozenset())


def test_t_pq_reads_mirror_by_its_truth_value():
    standard, mirrored = repr(t_pq(5, 7)), repr(t_pq(5, 7, mirror=True))
    assert t_pq(5, 7).tree.kinds == (None, "s", "h", "h", "v")
    for falsy in ("", 0, None):
        assert repr(t_pq(5, 7, mirror=falsy)) == standard, falsy
    for truthy in (2, "yes"):
        assert repr(t_pq(5, 7, mirror=truthy)) == mirrored, truthy


def test_t_pq_rejects_bad_pairs():
    for p, q in ((2, 2), (4, 6), (3, 2), (0, 5)):
        with pytest.raises(EnriquesError):
            t_pq(p, q)


def test_t_pq_shares_its_tree_and_matches_the_euclid_oracle():
    from singular_lct.enriques import _t_pq_tree

    pairs = [(p, q) for q in range(2, 21) for p in range(1, q) if gcd(p, q) == 1]
    keys = [(p, q, m) for p, q in pairs for m in (False, True)]
    size = _t_pq_tree.cache_info().maxsize
    assert len(keys) > size

    def same_as_oracle(p, q, m, scale):
        got = t_pq(p, q, scale=scale, mirror=m)
        want = oracles.t_pq_by_euclid(p, q, scale=scale, mirror=m)
        assert repr(got) == repr(want) and got == want, (p, q, m, scale)
        return got

    for p, q, m in keys:  # each key thrice in a row: built once, then shared
        trees = {id(same_as_oracle(p, q, m, scale).tree) for scale in (1, 2, 1000)}
        assert len(trees) == 1
    # more distinct keys than the cache holds: every tree is built again
    for scale in (1, 2, 1000):
        for p, q, m in keys:
            same_as_oracle(p, q, m, scale)
    assert _t_pq_tree.cache_info().currsize == size
    assert t_pq(5, 7) is not t_pq(5, 7) and t_pq(5, 7).tree is t_pq(5, 7, scale=3).tree
    # bad pairs keep their errors, and none is cached: a float never reads
    # the tree of the equal integer
    t_pq(2, 3)
    before = _t_pq_tree.cache_info()
    for p, q in ((2, 2), (4, 6), (3, 2), (0, 5), (2.0, 3), (2, 3.0)):
        for _ in range(2):
            with pytest.raises((EnriquesError, TypeError)) as got:
                t_pq(p, q)
            with pytest.raises(got.type) as want:
                oracles.t_pq_by_euclid(p, q)
            assert str(got.value) == str(want.value)
    after = _t_pq_tree.cache_info()
    assert (after.hits, after.currsize) == (before.hits, before.currsize)


def test_euclid_data_57():
    d = euclid_data(5, 7)
    assert d.a == (1, 2, 2) and d.r == (5, 2, 1)
    assert d.f == (0, 0, 1, 2, 7) and d.delta == (1, 1, 1, 3, 5)
    assert d.f_at(3) == 7 and d.delta_at(4) == 5  # q and p


def test_euclid_data_small():
    d = euclid_data(1, 2)
    assert d.a == (2,) and d.f_at(1) == 2 and d.delta_at(2) == 1
    for n in (2, 3, 7):
        dn = euclid_data(1, n)
        assert dn.a == (n,) and set(dn.delta) == {1}


def test_t_pq_cluster_invariants_up_to_20():
    for p, q in coprime_pairs(20):
        d = t_pq(p, q)
        c = tree_to_cluster(d.tree)
        e = _strict_from_total(c, d.weights)
        assert e[-1] == p * q
        value, _ = lct_cluster(d.to_weighted_cluster())
        assert value == F(1, p) + F(1, q)
        assert value == lct_monomial(MonomialIdeal(((p, 0), (0, q))))
        cls = classify(d.tree)
        assert cls.non_degenerate and cls.unibranch and cls.binary


# -- the dictionary -----------------------------------------------------------------


def test_tree_to_cluster_t57_matrix():
    from singular_lct import proximity_matrix

    assert proximity_matrix(tree_to_cluster(t_pq(5, 7).tree)) == (
        (1, -1, -1, -1, 0),
        (0, 1, -1, 0, 0),
        (0, 0, 1, -1, -1),
        (0, 0, 0, 1, -1),
        (0, 0, 0, 0, 1),
    )


def test_tree_to_cluster_single_vertex():
    c = tree_to_cluster(EnriquesTree((None,), (None,)))
    assert len(c) == 1 and c.targets == ((),)


def test_tree_to_cluster_example_curve():
    tree = connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree)
    c = tree_to_cluster(tree)
    assert c.targets == ((), (0,), (0, 1), (2,), (2, 3))


def test_satellite_edge_from_root_is_malformed():
    with pytest.raises(EnriquesError):
        EnriquesTree((None, 0), (None, "v"))


def test_classification_examples():
    assert classify(t_pq(5, 7).tree).non_degenerate
    sum23 = connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree)
    cls = classify(sum23)
    assert not cls.non_degenerate
    assert cls.witnesses == (("degenerate_free_vertex", 3),)  # free P4 behind P3
    assert hash(cls) == hash(classify(sum23))  # a value, like the other records
    u = union(union(t_pq(5, 7), t_pq(4, 7)), t_pq(3, 4))
    assert classify(u.tree).binary


def test_connected_sum_with_satellite_factor_is_degenerate():
    rng = random.Random(3)
    for _ in range(20):
        p, q = rng.choice(coprime_pairs(8))
        first = t_pq(p, q).tree
        second = t_pq(*rng.choice(coprime_pairs(8))).tree
        s = connected_sum(first, second)
        has_satellite = any(not first.is_free(v) for v in range(len(first)))
        assert classify(s).non_degenerate == (not has_satellite)


# -- union --------------------------------------------------------------------------


def test_union_figure_example():
    u = union(union(t_pq(5, 7), t_pq(4, 7)), t_pq(3, 4))
    assert len(u) == 7
    assert u.weights == (12, 6, 4, 2, 1, 1, 1)


def test_union_self_doubles():
    for d in (t_pq(5, 7), t_pq(3, 4)):
        doubled = union(d, d)
        assert doubled.tree == d.tree
        assert doubled.weights == tuple(2 * w for w in d.weights)


def test_union_shared_prefix():
    u = union(t_pq(2, 3), t_pq(1, 2))
    assert u.weights == (3, 2, 1)
    assert u.tree.kinds == (None, "s", "h")


def test_union_associative_commutative_up_to_iso():
    rng = random.Random(47)
    pairs = coprime_pairs(9)
    for _ in range(25):
        a, b, c = (t_pq(*rng.choice(pairs)) for _ in range(3))
        assert union(a, b) == union(b, a)
        assert union(union(a, b), c) == union(a, union(b, c))


def _product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    return MonomialIdeal({(m + p, n + q) for m, n in a.generators for p, q in b.generators})


def test_union_needs_root_chains_on_distinct_axes():
    # the ideal (x^3, xy, y^3) has facets on both sides of slope -1, so its
    # diagram has a root chain on each axis; its union is the product's diagram
    a = MonomialIdeal(((3, 0), (1, 1), (0, 3)))
    two_children = staircase_to_diagram(Staircase.from_ideal(a))
    assert len(two_children.tree.children(0)) == 2
    b = integral_closure(MonomialIdeal(((2, 0), (0, 3))))
    assert diagram_to_staircase(t_pq(2, 3)) == Staircase.from_ideal(b)
    product = Staircase.from_ideal(integral_closure(_product(a, b)))
    u = union(two_children, t_pq(2, 3))
    assert u == staircase_to_diagram(product) and diagram_to_staircase(u) == product
    # the two branches of (y^2 - x^3)(x^2 - y^3) draw both root chains on the
    # y-axis: no operand of a union
    from singular_lct.resolution import resolve_curve

    curve = resolve_curve(P("(y^2 - x^3)*(x^2 - y^3)"))[1]
    assert len(curve.tree.children(0)) == 2
    with pytest.raises(OrientationError, match="two root chains on one axis"):
        union(curve, t_pq(2, 3))
    with pytest.raises(OrientationError, match="two root chains on one axis"):
        union(EnriquesDiagram(EnriquesTree((), ()), ()), curve)


def test_union_refuses_equal_kind_siblings_whatever_the_other_operand():
    # below the root, union matches children by kind: two slant siblings
    # are refused whichever axis the other operand's chain lies on
    d = EnriquesDiagram(EnriquesTree((None, 0, 1, 1), (None, "s", "s", "s")), (2, 2, 1, 1))
    for other in (t_pq(1, 2), t_pq(1, 2, mirror=True), EnriquesDiagram(EnriquesTree((), ()), ())):
        for pair in ((d, other), (other, d)):
            with pytest.raises(EnriquesError, match="union input has equal-kind siblings"):
                union(*pair)


def test_union_of_a_y_and_an_x_chain_keeps_both():
    # a bare chain lies on the y-axis, its mirror on the x-axis: the union is
    # the diagram of (y^2, x) (x^2, y), whose closure is (x^3, xy, y^3)
    u = union(t_pq(1, 2, mirror=True), t_pq(1, 2))
    assert u.weights[0] == 2 and len(u.tree.children(0)) == 2
    assert [u.weights[k] for k in u.tree.children(0)] == [1, 1]
    assert diagram_to_staircase(u).generators == ((0, 3), (1, 1), (3, 0))


def test_union_is_the_diagram_of_the_product():
    # Zariski: the product of complete ideals is complete up to closure, and
    # its diagram is the union of theirs, also across the two axes
    rng = random.Random(2903)
    both_sides = 0
    for _ in range(300):
        a, b = (random_closed_staircase(rng).to_ideal() for _ in range(2))
        da, db = (staircase_to_diagram(Staircase.from_ideal(i)) for i in (a, b))
        both_sides += len(da.tree.children(0)) == 2 or len(db.tree.children(0)) == 2
        closure = Staircase.from_ideal(integral_closure(_product(a, b)))
        u = union(da, db)
        assert u == staircase_to_diagram(closure), (a, b)
        assert diagram_to_staircase(u) == closure, (a, b)
    assert both_sides > 30
    for _ in range(150):  # diagrams as drawn, not only the canonical ones
        da, db = random_binary_diagram(rng), random_binary_diagram(rng)
        a, b = (diagram_to_staircase(d).to_ideal() for d in (da, db))
        closure = Staircase.from_ideal(integral_closure(_product(a, b)))
        assert diagram_to_staircase(union(da, db)) == closure, (da, db)


# -- connected sum and pruning --------------------------------------------------------


def test_connected_sum_example_curve():
    s = connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree)
    assert s.kinds == (None, "s", "h", "s", "h")


def test_connected_sum_with_point_is_identity():
    point = EnriquesTree((None,), (None,))
    t = t_pq(5, 7).tree
    assert connected_sum(t, point) == t
    assert connected_sum(point, t) == t


def test_connected_sum_57_12():
    s = connected_sum(t_pq(5, 7).tree, t_pq(1, 2).tree)
    assert len(s) == 6
    assert s.kinds == (None, "s", "h", "h", "v", "s")


def test_prune_last_preserves_lct_on_degenerate_chain():
    tree = connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree)
    d = EnriquesDiagram(tree, (4, 2, 2, 1, 1))
    d1 = prune_last(d)
    assert d1.weights == (4, 2, 2, 1)
    assert lct_cluster(d1.to_weighted_cluster())[0] == F(5, 12)
    d2 = prune_last(d1)
    assert d2.weights == (4, 2, 2)
    assert lct_cluster(d2.to_weighted_cluster())[0] == F(5, 12)


def test_prune_last_t57_negative_control():
    d = t_pq(5, 7)
    assert lct_cluster(d.to_weighted_cluster())[0] == F(12, 35)
    pruned = prune_last(d)
    assert lct_cluster(pruned.to_weighted_cluster())[0] == F(7, 20)


def test_prune_last_rejects_small_or_branching():
    with pytest.raises(EnriquesError):
        prune_last(EnriquesDiagram(EnriquesTree((None,), (None,)), (2,)))
    branching = union(t_pq(5, 7), t_pq(4, 7))
    with pytest.raises(EnriquesError):
        prune_last(branching)


# -- branch coefficients ---------------------------------------------------------------


def test_branch_coefficients_57():
    assert branch_coefficients(5, 7, 5).e_last == 35  # = pq
    assert branch_coefficients(5, 7, 1).e_last == 5
    assert branch_coefficients(5, 7, 5).w_first == 5  # = p
    assert branch_coefficients(5, 7, 1).w_first is None


def test_branch_coefficients_match_matrices_up_to_12():
    for p, q in coprime_pairs(12):
        c = tree_to_cluster(t_pq(p, q).tree)
        r = len(c)
        m = intersection_inverse(c)
        inv = pi_inverse(c)
        for alpha in range(1, r + 1):
            bc = branch_coefficients(p, q, alpha)
            assert bc.e_last == m[alpha - 1][r - 1]
            if alpha >= 2:
                assert bc.w_first == inv[0][alpha - 1]
        assert branch_coefficients(p, q, r).w_first == p


def test_branch_coefficients_range_check():
    with pytest.raises(EnriquesError):
        branch_coefficients(5, 7, 0)
    with pytest.raises(EnriquesError):
        branch_coefficients(5, 7, 6)


def test_branch_decomposition_of_connected_sum():
    # the branch divisors of a connected sum decompose through the second
    # factor's total coordinates: checked entrywise in the total basis
    rng = random.Random(51)
    for _ in range(25):
        t = random_unibranch_tree(rng)
        p2, q2 = rng.choice(coprime_pairs(7))
        t2 = t_pq(p2, q2).tree
        s = connected_sum(t, t2)
        r, r2 = len(t), len(t2)
        inv_s = pi_inverse(tree_to_cluster(s))
        inv_2 = pi_inverse(tree_to_cluster(t2))
        for beta in range(1, r2 + 1):
            lhs = [inv_s[g][r + beta - 2] for g in range(len(s))]
            w_first = inv_2[0][beta - 1]
            b_r = [inv_s[g][r - 1] for g in range(len(s))]
            rhs = [w_first * x for x in b_r]
            rhs[r - 1] -= w_first  # minus w1' times the total transform W_r
            for a2 in range(r2):
                rhs[r + a2 - 1] += inv_2[a2][beta - 1]
            assert lhs == rhs


# -- the threshold comparison at the junction ------------------------------------------


def test_main_inequality_23_23():
    report = verify_main_inequality(t_pq(2, 3).tree, 2, 3)
    assert report.holds and len(report.rows) == 5


def test_main_inequality_57_12():
    assert verify_main_inequality(t_pq(5, 7).tree, 1, 2).holds


def test_main_inequality_needs_satellite():
    with pytest.raises(EnriquesError):
        verify_main_inequality(t_pq(1, 4).tree, 2, 3)


def test_main_inequality_grid_and_mirror():
    for p, q in coprime_pairs(8):
        t = t_pq(p, q).tree
        for p2 in range(1, 8):
            for q2 in range(max(2, p2 + 1), 9):
                if Fraction(p2, q2).denominator != q2:
                    continue
                assert verify_main_inequality(t, p2, q2).holds
                assert verify_main_inequality(t.mirrored(), p2, q2).holds


# -- diagrams <-> staircases ------------------------------------------------------------


def test_t57_staircase_is_closure_of_5_7():
    s = diagram_to_staircase(t_pq(5, 7))
    closed = integral_closure(MonomialIdeal(((5, 0), (0, 7))))
    assert s == Staircase.from_ideal(closed)
    assert s.slices() == (5, 5, 4, 3, 3, 2, 1)


def test_single_vertex_staircase_is_triangle():
    from singular_lct import triangle

    d = EnriquesDiagram(EnriquesTree((None,), (None,)), (4,))
    assert diagram_to_staircase(d) == triangle(4)
    assert staircase_to_diagram(triangle(4)) == d


def test_union_example_staircase_facets():
    from singular_lct import newton_facets

    u = union(union(t_pq(5, 7), t_pq(4, 7)), t_pq(3, 4))
    s = diagram_to_staircase(u)
    facets = {(f.p, f.q, f.d) for f in newton_facets(s.to_ideal())}
    assert facets == {(5, 7, 1), (4, 7, 1), (3, 4, 1)}
    assert staircase_to_diagram(s) == u


def test_staircase_to_diagram_23():
    s = Staircase.from_ideal(integral_closure(MonomialIdeal(((2, 0), (0, 3)))))
    assert staircase_to_diagram(s) == t_pq(2, 3)


def test_staircase_to_diagram_two_blocks():
    s = Staircase.from_ideal(integral_closure(MonomialIdeal(((8, 0), (3, 2), (0, 4)))))
    d = staircase_to_diagram(s)
    assert d.weights[0] == 4
    assert diagram_to_staircase(d) == s


def test_mirror_chains_are_distinguished():
    tall = Staircase.from_ideal(MonomialIdeal(((1, 0), (0, 3))))
    wide = Staircase.from_ideal(MonomialIdeal(((3, 0), (0, 1))))
    d_tall, d_wide = staircase_to_diagram(tall), staircase_to_diagram(wide)
    assert d_tall != d_wide  # same tree shape, opposite axis marks
    assert diagram_to_staircase(d_tall) == tall
    assert diagram_to_staircase(d_wide) == wide


def test_roundtrip_staircase_diagram_staircase():
    rng = random.Random(53)
    for _ in range(200):
        s = random_closed_staircase(rng)
        assert diagram_to_staircase(staircase_to_diagram(s)) == s


def test_roundtrip_diagram_staircase_diagram():
    rng = random.Random(59)
    for _ in range(200):
        d = random_binary_diagram(rng)
        assert staircase_to_diagram(diagram_to_staircase(d)) == d


def test_staircase_against_valuation_oracle():
    # the monomial ideal of a diagram is cut out by the valuations of x and
    # y along the exceptional divisors: an independent route to the slices
    rng = random.Random(61)
    for _ in range(120):
        d = random_binary_diagram(rng)
        t = d.tree
        c = tree_to_cluster(t)
        kids = t.children(0)
        flavors = {
            v: ("H" if v in t.x_side else oracles.subtree_flavor_by_scan(t.parents, t.kinds, v))
            for v in kids
        }
        unassigned = [v for v in kids if flavors[v] is None]
        taken = set(flavors.values())
        for v in unassigned:
            flavors[v] = "V" if "V" not in taken else "H"
            taken.add(flavors[v])
        y_axis, x_axis = {0}, {0}
        for v in kids:
            chain = []
            cur = v
            while cur is not None:
                chain.append(cur)
                nxt = [k for k in t.children(cur) if t.kinds[k] == "s"]
                cur = nxt[0] if nxt else None
            (y_axis if flavors[v] == "V" else x_axis).update(chain)
        x_vals = _strict_from_total(c, [1 if v in y_axis else 0 for v in range(len(c))])
        y_vals = _strict_from_total(c, [1 if v in x_axis else 0 for v in range(len(c))])
        e_vals = _strict_from_total(c, d.weights)
        expected = oracles.staircase_slices_from_valuations(x_vals, y_vals, e_vals)
        assert diagram_to_staircase(d).slices() == expected


def test_diagram_to_staircase_rejects_bad_input():
    loaded = EnriquesDiagram(t_pq(5, 7).tree, (1, 1, 1, 1, 1))
    with pytest.raises(EnriquesError):
        diagram_to_staircase(loaded)
    degenerate = EnriquesDiagram(
        connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree), (4, 2, 2, 1, 1)
    )
    with pytest.raises(EnriquesError):
        diagram_to_staircase(degenerate)


def test_orientation_conflict_detected():
    # two root chains both carrying horizontal satellites cannot be realized
    parents = (None, 0, 1, 0, 3)
    kinds = (None, "s", "h", "s", "h")
    tree = EnriquesTree(parents, kinds)
    d = EnriquesDiagram(tree, (4, 1, 1, 1, 1))
    with pytest.raises(OrientationError):
        diagram_to_staircase(d)


def test_staircase_errors_are_pinned():
    from singular_lct import ClusterError, adapted_candidates

    T, D = EnriquesTree, EnriquesDiagram
    three = D(T((None, 0, 0, 0), (None, "s", "s", "s")), (3, 1, 1, 1))
    degenerate = D(connected_sum(t_pq(2, 3).tree, t_pq(2, 3).tree), (4, 2, 2, 1, 1))
    one_axis = D(T((None, 0, 1, 0, 3), (None, "s", "h", "s", "h")), (4, 1, 1, 1, 1))
    # the first satellite off the chain draws it on the y-axis, vertex 3's
    # is vertical; mirrored, the chain is on the x-axis and vertex 3's is
    # horizontal
    y_chain = D(T((None, 0, 1, 1, 3), (None, "s", "h", "s", "v")), (4, 3, 1, 1, 1))
    x_chain = D(y_chain.tree.mirrored(), y_chain.weights)
    # both root chains carry a misdrawn satellite: the y-axis one is reported
    both = T([None, 0, 1, 1, 3, 0, 5, 5, 7], [None, "s", "h", "s", "v", "s", "v", "s", "h"])
    weights = (8, 3, 1, 1, 1, 3, 1, 1, 1)
    cases = [
        (three, EnriquesError, "diagram is not binary: {'outdegree': 0, 'branching_vertex': 0}"),
        (degenerate, EnriquesError, "diagram is not binary: {'degenerate_free_vertex': 3}"),
        (D(t_pq(5, 7).tree, (1,) * 5), EnriquesError, "diagram is not unloaded"),
        (one_axis, OrientationError, "both root children lie on the same axis"),
        (y_chain, OrientationError, "vertex 3: satellite child drawn 'v' on the y-axis chain"),
        (x_chain, OrientationError, "vertex 3: satellite child drawn 'h' on the x-axis chain"),
        (
            D(both, weights),
            OrientationError,
            "vertex 3: satellite child drawn 'v' on the y-axis chain",
        ),
        (
            D(both.mirrored(), weights),
            OrientationError,
            "vertex 7: satellite child drawn 'v' on the y-axis chain",
        ),
    ]
    for d, kind, message in cases:
        with pytest.raises(EnriquesError) as info:
            diagram_to_staircase(d)
        assert (type(info.value), str(info.value)) == (kind, message)
        assert _outcome(oracles.diagram_to_staircase_by_recursion, d) == (kind, message)
    # vertex 4 of the whole diagram is vertex 3 of the candidate through it,
    # which keeps the points 0, 2, 3, 4 and 5; the candidate at vertex 1 is sound
    two = D(T((None, 0, 0, 2, 2, 4), (None, "s", "s", "h", "s", "v")), (5, 1, 3, 1, 1, 1))
    message = "satellite child drawn 'v' on the y-axis chain"
    with pytest.raises(OrientationError, match=f"^vertex 4: {message}$"):
        diagram_to_staircase(two)
    with pytest.raises(OrientationError, match=f"^vertex 3: {message}$"):
        adapted_candidates(two)
    with pytest.raises(OrientationError, match=f"^vertex 3: {message}$"):
        check_main_theorem(two)
    # each candidate keeps the root and one child, and is unloaded; the
    # whole diagram is not, which the cluster route reports
    loaded = D(T((None, 0, 0), (None, "s", "s")), (2, 2, 2))
    assert [c.lct for c in adapted_candidates(loaded)] == [F(3, 4), F(3, 4)]
    with pytest.raises(EnriquesError, match="^diagram is not unloaded$"):
        diagram_to_staircase(loaded)
    with pytest.raises(ClusterError) as info:
        check_main_theorem(loaded)
    assert type(info.value) is ClusterError
    assert str(info.value) == "weights violate a proximity relation; unload the cluster first"


def test_staircase_to_diagram_rejects_empty_and_infinite():
    with pytest.raises(EnriquesError):
        staircase_to_diagram(Staircase.empty())
    with pytest.raises(EnriquesError):
        staircase_to_diagram(Staircase(((2, 0),)))


def test_mirrored_involution():
    rng = random.Random(67)
    for _ in range(30):
        d = random_binary_diagram(rng)
        t = d.tree
        assert t.mirrored().mirrored() == t


def _mirror(d: EnriquesDiagram) -> EnriquesDiagram:
    return EnriquesDiagram(d.tree.mirrored(), d.weights)


def test_restriction_keeps_the_axis():
    # a kept root chain stays on its axis when the satellites that placed
    # it are dropped, so restricting commutes with mirroring
    rng = random.Random(7)
    restrictions = 0
    for _ in range(150):
        d = random_binary_diagram(rng)
        # dropping a subtree drops every point proximate to its points
        for v in rng.sample(range(1, len(d)), min(3, len(d) - 1)):
            below = {v}
            for u in range(v + 1, len(d)):
                if d.tree.parents[u] in below:
                    below.add(u)
            keep = [u for u in range(len(d)) if u not in below]
            assert _mirror(d).restrict(keep) == _mirror(d.restrict(keep))
            restrictions += 1
    assert restrictions > 300
    for q in range(2, 13):
        for p in range(1, q):
            if gcd(p, q) == 1:
                pruned = prune_last(t_pq(p, q, mirror=True))
                assert pruned == _mirror(prune_last(t_pq(p, q)))
                assert diagram_to_staircase(pruned).generators == _transposed(
                    diagram_to_staircase(prune_last(t_pq(p, q)))
                )
    assert diagram_to_staircase(prune_last(t_pq(2, 3, mirror=True))).generators == (
        (0, 2),
        (1, 1),
        (3, 0),
    )


def _transposed(s: Staircase) -> tuple:
    return tuple(sorted((n, m) for m, n in s.generators))


def _placement_pool(rng, count):
    """Binary diagrams of random clusters, some bare root chains marked on
    the x-axis and the weights unloaded, with their staircases."""
    from test_cluster import random_cluster

    out = []
    for _ in range(count):
        t = cluster_to_tree(random_cluster(rng, max_points=6))
        bare = [k for k in t.children(0) if not oracles.subtree_flavor_by_scan(t.parents, t.kinds, k)]
        t = EnriquesTree(t.parents, t.kinds, [k for k in bare if rng.random() < 0.5])
        w = unload(WeightedCluster(t.cluster, [rng.randint(0, 3) for _ in range(len(t))])).weights
        d = EnriquesDiagram(t, w)
        try:
            out.append((d, diagram_to_staircase(d)))
        except EnriquesError:
            pass
    return out


def test_equal_diagrams_read_equal_staircases():
    # two bare root chains lie on the free axes, y first, and equality keeps
    # each chain's axis: a long chain on the x-axis is not one on the y-axis
    weights = (2, 1, 1, 1)
    long_x = EnriquesDiagram(EnriquesTree([None, 0, 0, 2], [None, "s", "s", "s"]), weights)
    long_y = EnriquesDiagram(EnriquesTree([None, 0, 1, 0], [None, "s", "s", "s"]), weights)
    assert diagram_to_staircase(long_x).slices() == (4, 1, 1)
    assert diagram_to_staircase(long_y).slices() == (3, 1, 1, 1)
    assert long_x != long_y and long_x.tree != long_y.tree
    pool = _placement_pool(random.Random(3001), 400)
    pool += [(d, diagram_to_staircase(d)) for d in (long_x, long_y)]
    equal = 0
    for i, (d1, s1) in enumerate(pool):
        for d2, s2 in pool[:i]:
            if d1 == d2:
                assert hash(d1) == hash(d2) and s1 == s2
                equal += 1
    assert equal > 500


def test_mirror_of_a_placed_bare_chain_is_the_transpose():
    # the bare chain 3 lies on the x-axis, as vertex 1's horizontal
    # satellite puts its chain on the y-axis; the mirror swaps the two
    d = EnriquesDiagram(EnriquesTree([None, 0, 1, 0], [None, "s", "h", "s"]), (4, 2, 1, 1))
    s = diagram_to_staircase(d)
    assert diagram_to_staircase(_mirror(d)).generators == _transposed(s)
    assert _mirror(_mirror(d)) == d


def test_mirrors_and_restrictions_keep_the_placements():
    rng = random.Random(3003)
    pool = _placement_pool(rng, 500)
    assert len(pool) > 300
    for d, s in pool:
        assert diagram_to_staircase(_mirror(d)).generators == _transposed(s)
        assert _mirror(_mirror(d)) == d
        axes = oracles.root_axes_by_scan(d.tree)
        keep = [0]
        for v in range(1, len(d)):
            if d.tree.parents[v] in keep and rng.random() < 0.8:
                keep.append(v)
        kept = oracles.root_axes_by_scan(d.restrict(keep).tree)
        assert kept == {a: keep.index(k) for a, k in axes.items() if k in keep}


# -- the tree's own proximity cluster against the parent scans ----------------------


def _trees_with_diagrams():
    """Trees, with their diagram where there is one: the corpus, random
    binary diagrams with their restrictions, mirrors, unions and staircase
    round trips, and the trees of random clusters."""
    from singular_lct.corpus import corpus_curves
    from singular_lct.resolution import resolve_curve
    from test_cluster import random_cluster

    diagrams = [resolve_curve(P(expr))[1] for _, expr in corpus_curves(12)]
    rng = random.Random(71)
    previous = None
    for _ in range(200):
        d = random_binary_diagram(rng)
        keep = [0]
        for v in range(1, len(d)):
            if d.tree.parents[v] in keep and rng.random() < 0.8:
                keep.append(v)
        diagrams += [d, d.restrict(keep), staircase_to_diagram(diagram_to_staircase(d))]
        # the first root chain alone, doubled and joined to the previous one
        chain = [0]
        for v in range(1, len(d)):
            if d.tree.parents[v] in chain[1:] or v == d.tree.children(0)[0]:
                chain.append(v)
        first = d.restrict(chain)
        diagrams.append(union(first, first))
        if previous is not None:
            diagrams.append(union(first, previous))
        previous = first
    out = [(d.tree, d) for d in diagrams]
    out += [(d.tree.mirrored(), None) for d in diagrams]
    out += [(cluster_to_tree(random_cluster(rng)), None) for _ in range(200)]
    return out


def test_tree_cluster_matches_parent_scans():
    from singular_lct.enriques import _chain_axis

    seen = 0
    for t, d in _trees_with_diagrams():
        n = len(t)
        assert tree_to_cluster(t) is t.cluster
        assert t.cluster == oracles.tree_to_cluster_by_scan(t)
        unmarked = EnriquesTree(t.parents, t.kinds)  # the satellites' reading alone
        for v in range(n):
            assert t.children(v) == [i for i in range(n) if t.parents[i] == v]
            by_scan = oracles.subtree_flavor_by_scan(t.parents, t.kinds, v)
            assert _chain_axis(unmarked, v) == by_scan
            assert _chain_axis(t, v) == ("H" if v in t.x_side else by_scan)
        if d is not None:
            assert d.to_weighted_cluster().cluster is d.tree.cluster
        seen += 1
    assert seen > 1500


def _reversed_siblings(d: EnriquesDiagram) -> EnriquesDiagram:
    """An isomorphic copy numbered in preorder, each vertex's children
    taken in reverse index order."""
    t = d.tree
    order, stack = [], [0] if len(d) else []
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(t.cluster._children[v])  # the last child pops first
    pos = {v: i for i, v in enumerate(order)}
    tree = EnriquesTree(
        [None if t.parents[v] is None else pos[t.parents[v]] for v in order],
        [t.kinds[v] for v in order],
        {pos[v] for v in t.x_side},
    )
    return EnriquesDiagram(tree, [d.weights[v] for v in order])


def test_tree_cluster_stays_out_of_the_value():
    assert EnriquesTree._fields == ("parents", "kinds", "x_side")
    rng = random.Random(73)
    for _ in range(60):
        d = random_binary_diagram(rng)
        t = d.tree
        twin = EnriquesTree(list(t.parents), list(t.kinds), set(t.x_side))
        # built on first use; only an x-side mark reads it at construction
        assert "cluster" not in vars(EnriquesTree(t.parents, t.kinds))
        assert repr(twin) == repr(t) == (
            f"EnriquesTree(parents={t.parents!r}, kinds={t.kinds!r}, "
            f"x_side={t.x_side!r})"
        )
        assert twin == t and hash(twin) == hash(t)
        assert EnriquesDiagram(twin, d.weights) == d
        assert hash(EnriquesDiagram(twin, d.weights)) == hash(d)
    assert hash(EnriquesTree((), ())) == hash(())


def test_equality_is_isomorphism_of_the_recursive_key():
    # == holds exactly when the earlier nested keys agree, and equal
    # objects hash equal, renumbered copies included
    rng = random.Random(79)
    pool = [EnriquesDiagram(EnriquesTree((), ()), ())]
    renumbered = 0
    for _ in range(70):
        d = random_binary_diagram(rng, max_vertices=6)
        twin = _reversed_siblings(d)
        assert twin == d and hash(twin) == hash(d)
        assert twin.tree == d.tree and hash(twin.tree) == hash(d.tree)
        renumbered += twin.tree.parents != d.tree.parents
        pool += [d, twin, d.restrict(range(len(d) - 1))]
    assert renumbered > 20

    def key(d, weights):
        if not len(d):
            return ()
        return oracles.tree_key_by_recursion(d.tree, 0, d.weights if weights else None)

    keys = [(key(d, True), key(d, False)) for d in pool]
    equal = 0
    for i, d1 in enumerate(pool):
        for j, d2 in enumerate(pool[: i + 1]):
            assert (d1 == d2) == (keys[i][0] == keys[j][0])
            assert (d1.tree == d2.tree) == (keys[i][1] == keys[j][1])
            if d1 == d2:
                assert hash(d1) == hash(d2)
                equal += i != j
            if d1.tree == d2.tree:
                assert hash(d1.tree) == hash(d2.tree)
    assert equal > 100


def _outcome(f, *args):
    """The value of f, or the type and message of its error."""
    try:
        return f(*args)
    except EnriquesError as exc:
        return type(exc), str(exc)


def _exactly(d):
    """The diagram as numbered, not up to isomorphism."""
    if not isinstance(d, EnriquesDiagram):
        return d
    return d.tree.parents, d.tree.kinds, d.tree.x_side, d.weights


def _walk_inputs(rng):
    """Random binary diagrams with their mirrors, restrictions and first
    root chains; orientation-error inputs with satellite kinds or x-side
    marks flipped; and non-binary trees of random clusters, whose
    equal-kind siblings union rejects."""
    from test_cluster import random_cluster

    out = []
    for _ in range(150):
        d = random_binary_diagram(rng)
        t = d.tree
        keep = [0]
        for v in range(1, len(d)):
            if t.parents[v] in keep and rng.random() < 0.8:
                keep.append(v)
        chain = [0]
        for v in range(1, len(d)):
            if t.parents[v] in chain[1:] or v == t.children(0)[0]:
                chain.append(v)
        out += [d, EnriquesDiagram(t.mirrored(), d.weights), d.restrict(keep), d.restrict(chain)]
        flip = {"h": "v", "v": "h", "s": "s", None: None}
        v = rng.randrange(len(d))
        kinds = [flip[k] if u >= v else k for u, k in enumerate(t.kinds)]
        marks = {u for u in t.children(0) if u not in t.x_side} if len(d) > 1 else set()
        for tree in ((t.parents, kinds, t.x_side), (t.parents, t.kinds, marks)):
            try:
                out.append(EnriquesDiagram(EnriquesTree(*tree), d.weights))
            except EnriquesError:
                pass
    for _ in range(100):
        tree = cluster_to_tree(random_cluster(rng))
        out.append(EnriquesDiagram(tree, [rng.randint(0, 3) for _ in range(len(tree))]))
    # both root chains carry a misdrawn satellite: the y-side one is reported
    t = EnriquesTree(
        [None, 0, 1, 1, 3, 0, 5, 5, 7], [None, "s", "h", "s", "v", "s", "v", "s", "h"]
    )
    weights = (8, 3, 1, 1, 1, 3, 1, 1, 1)
    return out + [EnriquesDiagram(t, weights), EnriquesDiagram(t.mirrored(), weights)]


def _only_axis(d: EnriquesDiagram):
    """The axis of the diagram's only root chain, by the oracle's reading."""
    try:
        axes = oracles.root_axes_by_scan(d.tree)
    except EnriquesError:
        return None
    return next(iter(axes)) if len(axes) == 1 else None


def test_tree_walks_match_their_recursive_oracles():
    rng = random.Random(83)
    pool = _walk_inputs(rng)
    errors = set()
    for d in pool:
        got = _outcome(diagram_to_staircase, d)
        assert got == _outcome(oracles.diagram_to_staircase_by_recursion, d)
        errors.add(got[0] if isinstance(got, tuple) else None)
    assert {None, OrientationError, EnriquesError} <= errors
    glued = 0
    for _ in range(1500):
        d1, d2 = rng.choice(pool), rng.choice(pool)
        got = _exactly(_outcome(union, d1, d2))
        assert got == _exactly(_outcome(oracles.union_by_recursion, d1, d2))
        errors.add(got[1] if got[0] in (EnriquesError, OrientationError) else None)
        # a y-axis chain and an x-axis chain share only the root, where
        # neither operand has equal-kind siblings (checked above by the oracle)
        siblings = got[1] == "union input has equal-kind siblings"
        if _only_axis(d1) == "V" and _only_axis(d2) == "H" and not siblings:
            assert got == _exactly(_outcome(oracles.glue_at_root_by_recursion, d1, d2))
            glued += 1
    assert "union input has equal-kind siblings" in errors
    assert "a union operand has two root chains on one axis" in errors
    assert glued > 20


def test_deep_trees_do_not_depend_on_the_recursion_limit():
    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        d = t_pq(1, 1500)
        assert d == t_pq(1, 1500) and hash(d) == hash(t_pq(1, 1500))
        assert d.tree == t_pq(1, 1500).tree and hash(d.tree) == hash(t_pq(1, 1500).tree)
        assert d != t_pq(1, 1499) and d.tree != t_pq(1, 1500, mirror=True).tree
        assert union(d, d) == t_pq(1, 1500, scale=2)
        with pytest.raises(RecursionError):
            oracles.union_by_recursion(d, d)
        d = t_pq(1, 1000)
        s = diagram_to_staircase(d)
        assert s.generators == ((0, 1000), (1, 0))
        assert staircase_to_diagram(s) == d
        with pytest.raises(RecursionError):
            oracles.diagram_to_staircase_by_recursion(d)
        report = check_main_theorem(d)
        assert report.lct_direct == report.lct_term == Fraction(1001, 1000)
    finally:
        sys.setrecursionlimit(limit)


def test_diagram_accepts_only_integer_weights():
    tree = t_pq(2, 3).tree
    for bad in (2.7, 2.0, "3", Fraction(3), True, None):
        with pytest.raises(EnriquesError, match="weight 0"):
            EnriquesDiagram(tree, (bad, 1, 1))
    with pytest.raises(EnriquesError, match=r"weight 2 .*True"):
        EnriquesDiagram(tree, (2, 1, True))
    assert EnriquesDiagram(tree, [2, 1, 1]).weights == (2, 1, 1)
