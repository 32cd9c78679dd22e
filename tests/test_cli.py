import json

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from singular_lct import (
    BivariatePolynomial,
    Cluster,
    MonomialIdeal,
    ResolutionError,
    Staircase,
    WeightedCluster,
    resolve_curve,
    t_pq,
)
from singular_lct.cli import main
from singular_lct import serialize
from test_poly import near_grammatical


# -- serialization round-trips -----------------------------------------------------


def test_fraction_strings():
    from fractions import Fraction

    assert serialize.fraction_to_str(Fraction(5, 12)) == "5/12"
    assert serialize.fraction_to_str(Fraction(2)) == "2"
    assert serialize.fraction_from_str("5/12") == Fraction(5, 12)
    for x in (Fraction(0), Fraction(-7), Fraction(-5, 12), Fraction(3**200, 2**90)):
        assert serialize.fraction_from_str(serialize.fraction_to_str(x)) == x
    for text, x in (("1e-1000", Fraction(1, 10**1000)), ("-2.5E+3", Fraction(-2500))):
        assert serialize.fraction_from_str(text) == x


def test_fraction_from_str_rejects_a_huge_decimal_exponent_at_once():
    # Fraction would compute 10**3000000 first, so the check runs in a
    # process of its own under a timeout
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from singular_lct.serialize import fraction_from_str\n"
        "for text in ('1e-3000000', '2.5E+40000000', '1e1001'):\n"
        "    try:\n"
        "        fraction_from_str(text)\n"
        "    except ValueError as e:\n"
        "        assert str(e) == text, e\n"
        "    else:\n"
        "        raise AssertionError(text)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 0, proc.stderr


def test_ideal_roundtrip():
    a = MonomialIdeal(((6, 0), (5, 1), (3, 2), (0, 4)))
    assert serialize.ideal_from_json(serialize.ideal_to_json(a)) == a


def test_staircase_roundtrip():
    s = Staircase.from_slices((5, 5, 4, 3, 3, 2, 1))
    assert serialize.staircase_from_json(serialize.staircase_to_json(s)) == s


def test_cluster_roundtrip():
    kl, _ = resolve_curve(BivariatePolynomial.parse("(x^3 - y^2)^2 - x^5*y"))
    data = serialize.cluster_to_json(kl)
    assert data["points"][1] == {"id": 2, "parent": 1, "prox": [1]}
    back = serialize.cluster_from_json(json.loads(json.dumps(data)))
    assert back == kl


def test_diagram_roundtrip_with_marks():
    from singular_lct import staircase_to_diagram

    wide = Staircase.from_ideal(MonomialIdeal(((3, 0), (0, 1))))
    d = staircase_to_diagram(wide)
    assert d.tree.x_side  # the chain is marked as lying on the x-axis
    back = serialize.diagram_from_json(json.loads(json.dumps(serialize.diagram_to_json(d))))
    assert back == d
    d2 = t_pq(5, 7)
    assert serialize.diagram_from_json(serialize.diagram_to_json(d2)) == d2


# -- CLI ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_lct_double_cusp_curve(capsys):
    code, out, _ = run_cli(capsys, "lct", "--curve", "(x^3-y^2)^2 - x^5*y")
    assert code == 0 and out.strip() == "5/12"


def test_cli_lct_smooth(capsys):
    code, out, _ = run_cli(capsys, "lct", "--curve", "y - x^2")
    assert code == 0 and out.strip() == "1"


def test_cli_jumping_monomial_vs_curve(capsys):
    code, out, _ = run_cli(
        capsys, "jumping", "--monomial", "(x^3-y^2)^2 - x^5*y", "--bound", "1"
    )
    assert code == 0 and out.startswith("5/12, 7/12")
    code, out, _ = run_cli(
        capsys, "jumping", "--curve", "(x^3-y^2)^2 - x^5*y", "--bound", "1"
    )
    assert code == 0 and out.startswith("5/12, 15/26")


def test_cli_tpq_json(capsys):
    code, out, _ = run_cli(capsys, "tpq", "5", "7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "singular-lct/1"
    weights = [v["weight"] for v in data["diagram"]["vertices"]]
    assert weights == [5, 2, 2, 1, 1]
    assert serialize.diagram_from_json(data["diagram"]) == t_pq(5, 7)


def test_cli_monomial_lct_from_file(tmp_path, capsys):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps([[8, 0], [3, 2], [0, 4]]))
    code, out, _ = run_cli(capsys, "monomial-lct", "--file", str(path))
    assert code == 0 and out.strip() == "5/12"


def test_cli_newton(capsys):
    code, out, _ = run_cli(capsys, "newton", "--poly", "(x^3-y^2)^2 - x^5*y", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["lct"] == "5/12"
    assert data["facets"] == [
        {"p": 3, "q": 2, "d": 2, "start": [0, 4], "end": [6, 0]}
    ]


def test_cli_monomial_commands_accept_non_convenient_term_ideals(capsys):
    # y^2 + x^2*y has no pure power of x: Howald's value, as for the curve
    assert run_cli(capsys, "monomial-lct", "--poly", "y^2 + x^2*y")[:2] == (0, "3/4\n")
    assert run_cli(capsys, "lct", "--curve", "y^2 + x^2*y")[:2] == (0, "3/4\n")
    assert run_cli(capsys, "monomial-lct", "--poly", "x*y")[:2] == (0, "1\n")
    code, out, _ = run_cli(capsys, "newton", "--poly", "x^2*y + y^3", "--json")
    assert code == 0 and json.loads(out)["lct"] == "2/3"
    code, out, _ = run_cli(capsys, "jumping", "--monomial", "y^2 + x^2*y", "--bound", "1")
    assert (code, out) == (0, "3/4, 1\n")


def test_cli_unload(tmp_path, capsys):
    kl, _ = resolve_curve(BivariatePolynomial.parse("x^5 - y^7"))
    loaded = WeightedCluster(kl.cluster, (4, 2, 0, 2, 1))
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(serialize.cluster_to_json(loaded)))
    code, out, _ = run_cli(capsys, "unload", "--file", str(path), "--json")
    data = json.loads(out)
    assert code == 0
    assert data["cluster"]["weights"] == [4, 2, 1, 1, 0]
    assert data["branch"] == [0, 1, 0, 1, 0]


def test_cli_unload_large_weights(tmp_path, capsys):
    chain = WeightedCluster(Cluster((None, 0), ((), (0,))), (0, 10**6))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(serialize.cluster_to_json(chain)))
    code, out, _ = run_cli(capsys, "unload", "--file", str(path), "--json")
    data = json.loads(out)
    assert code == 0
    assert data["cluster"]["weights"] == [500000, 500000]
    assert data["branch"] == [0, 500000] and data["was_unloaded"] is False


def test_cli_union_and_dot(tmp_path, capsys):
    paths = []
    for i, d in enumerate((t_pq(5, 7), t_pq(4, 7), t_pq(3, 4))):
        p = tmp_path / f"d{i}.json"
        p.write_text(json.dumps(serialize.diagram_to_json(d)))
        paths.append(str(p))
    dot = tmp_path / "out.gv"
    code, out, _ = run_cli(capsys, "union", *paths, "--dot", str(dot), "--json")
    assert code == 0
    data = json.loads(out)
    weights = [v["weight"] for v in data["diagram"]["vertices"]]
    assert weights == [12, 6, 4, 2, 1, 1, 1]
    text = dot.read_text()
    assert text.startswith("digraph") and text.count("->") == 6


def test_cli_union_keeps_a_y_and_an_x_chain_apart(tmp_path, capsys):
    # the same bare chain on the y-axis and, marked, on the x-axis
    code, out, _ = run_cli(capsys, "tpq", "1", "2", "--json")
    chain = json.loads(out)["diagram"]
    (tmp_path / "y.json").write_text(json.dumps(chain))
    (tmp_path / "x.json").write_text(json.dumps({**chain, "x_side": [2]}))
    code, out, _ = run_cli(capsys, "union", str(tmp_path / "y.json"), str(tmp_path / "x.json"))
    assert (code, out) == (0, "weights [2, 1, 1]\n")
    code, out, _ = run_cli(
        capsys, "union", str(tmp_path / "y.json"), str(tmp_path / "x.json"), "--json"
    )
    vertices = json.loads(out)["diagram"]["vertices"]
    assert vertices[0]["weight"] == 2
    assert [v["weight"] for v in vertices if v["parent"] == 1] == [1, 1]


def test_cli_diagram_dot_kinds(tmp_path, capsys):
    dot = tmp_path / "t57.gv"
    code, _, _ = run_cli(capsys, "tpq", "5", "7", "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.count('xlabel="h"') == 2
    assert text.count('xlabel="v"') == 1
    assert text.count('xlabel="s"') == 1


def test_cli_check_theorem(capsys):
    code, out, _ = run_cli(capsys, "check-theorem", "--curve", "x^5-y^7", "--json")
    data = json.loads(out)
    assert code == 0 and data["equal"] and data["lct_direct"] == "12/35"


def test_cli_check_theorem_reads_a_candidate_on_its_chain_s_axis(capsys):
    # the smooth branches' bare root chain lies on the x-axis, beside the
    # y-axis chain of the horizontal satellites, so candidate P3 reads its
    # staircase there: the transpose of the one it reads on the y-axis
    curve = "(x^2 - 1*y^7)*(y^1 - (1/2)*x^3)*(y^1 - (-2/3)*x^6)"
    code, out, _ = run_cli(capsys, "check-theorem", "--curve", curve)
    assert code == 0 and out.startswith("lct (cluster)     = 1/2\nlct (term ideals) = 1/2\n")
    assert "  candidate rho=P3: lct 1/2, staircase [8, 5, 2, 1]\n" in out


def test_cli_corpus_small(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--cusp-limit", "5", "--json")
    data = json.loads(out)
    assert code == 0 and data["failures"] == 0
    assert all(row["status"] == "ok" for row in data["curves"])


def test_cli_theorem_violation_exit_3(capsys, monkeypatch):
    import singular_lct.engine as engine
    from singular_lct import MainTheoremViolation, check_main_theorem
    from singular_lct import resolve_curve as rc

    def sabotage(d):
        raise MainTheoremViolation(check_main_theorem(d))

    monkeypatch.setattr(engine, "check_main_theorem", sabotage)
    code, _, err = run_cli(capsys, "check-theorem", "--curve", "x^2-y^3")
    assert code == 3 and "THEOREM VIOLATION" in err


def test_cli_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "lct")
    assert code == 1 and "usage error" in err


def test_cli_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "lct", "--curve", "x + ")
    assert code == 2 and "parse error" in err


def test_cli_empty_polynomial_is_a_parse_error(capsys):
    for argv in (
        ("lct", "--curve", ""),
        ("jumping", "--curve", "", "--bound", "1"),
        ("jumping", "--monomial", "", "--bound", "1"),
        ("monomial-lct", "--poly", ""),
        ("newton", "--poly", ""),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("parse error: expected a term at position 0"), (argv, err)


def test_cli_computation_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "lct", "--curve", "(x+y)^2")
    assert code == 2 and "repeated factor" in err


def test_cli_resolve_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--curve", "(x^3-y^2)^2 - x^5*y", "--json")
    assert code == 0
    data = json.loads(out)
    kl = serialize.cluster_from_json(data["cluster"])
    assert kl.weights == (4, 2, 2, 1, 1)
    d = serialize.diagram_from_json(data["diagram"])
    assert [k for k in d.tree.kinds] == [None, "s", "h", "s", "h"]


def test_cli_malformed_json_missing_top_level_key_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"foo": 1}))
    code, _, err = run_cli(capsys, "unload", "--file", str(path))
    assert code == 2 and "'points'" in err
    code, _, err = run_cli(capsys, "union", str(path))
    assert code == 2 and "'vertices'" in err


def test_cli_malformed_json_point_without_parent_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = {"points": [{"id": 1, "prox": []}], "weights": [2]}
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "unload", "--file", str(path))
    assert code == 2 and "point 1" in err and "'parent'" in err
    vertex = {"id": 1, "parent": None, "kind": None, "weight": "2"}
    path.write_text(json.dumps({"vertices": [vertex]}))
    code, _, err = run_cli(capsys, "union", str(path))
    assert code == 2 and "vertex 1" in err and "'weight'" in err


_POINT = {"id": 1, "parent": None, "prox": []}
_VERTEX = {"id": 1, "parent": None, "kind": None, "weight": 1}


def _cluster(*points):
    return {"points": list(points), "weights": []}


def _diagram(*vertices):
    return {"vertices": list(vertices)}


@pytest.mark.parametrize(
    "reader, doc, message",
    [
        ("cluster", [], "cluster must be a JSON object"),
        ("cluster", {"weights": []}, "cluster lacks the field 'points'"),
        ("cluster", {"points": {}, "weights": []}, "cluster: field 'points' must be an array"),
        ("cluster", {"points": [1]}, "cluster lacks the field 'weights'"),
        ("cluster", {"points": [], "weights": [True]},
         "cluster: field 'weights' must be an array of integers"),
        ("cluster", _cluster(_POINT, 2), "cluster point 2 must be a JSON object"),
        ("cluster", _cluster({"parent": "x"}), "cluster point 1 lacks the field 'id'"),
        ("cluster", _cluster({"id": "1"}), "cluster point 1: field 'id' must be an integer"),
        ("cluster", _cluster({"id": 1, "prox": 1}), "cluster point 1 lacks the field 'parent'"),
        ("cluster", _cluster({**_POINT, "parent": True}),
         "cluster point 1: field 'parent' must be an integer or null"),
        ("cluster", _cluster({"id": 1, "parent": None}), "cluster point 1 lacks the field 'prox'"),
        ("cluster", _cluster({**_POINT, "prox": [1.0]}),
         "cluster point 1: field 'prox' must be an array of integers"),
        ("cluster", _cluster(_POINT, {**_POINT, "id": 3}), "cluster ids must be 1..r"),
        ("cluster", _cluster(_POINT, _POINT), "cluster ids must be 1..r"),
        ("diagram", "vertices", "diagram must be a JSON object"),
        ("diagram", {"x_side": []}, "diagram lacks the field 'vertices'"),
        ("diagram", {"vertices": None}, "diagram: field 'vertices' must be an array"),
        ("diagram", {"vertices": [1], "x_side": [True]},
         "diagram: field 'x_side' must be an array of integers"),
        ("diagram", {"vertices": [1], "x_side": 2},
         "diagram: field 'x_side' must be an array of integers"),
        ("diagram", _diagram(_VERTEX, []), "diagram vertex 2 must be a JSON object"),
        ("diagram", _diagram({"parent": 1.5}), "diagram vertex 1 lacks the field 'id'"),
        ("diagram", _diagram({**_VERTEX, "id": None}),
         "diagram vertex 1: field 'id' must be an integer"),
        ("diagram", _diagram({"id": 1, "kind": 1}), "diagram vertex 1 lacks the field 'parent'"),
        ("diagram", _diagram({**_VERTEX, "parent": "1"}),
         "diagram vertex 1: field 'parent' must be an integer or null"),
        ("diagram", _diagram({"id": 1, "parent": None, "weight": 1}),
         "diagram vertex 1 lacks the field 'kind'"),
        ("diagram", _diagram({**_VERTEX, "kind": 0}),
         "diagram vertex 1: field 'kind' must be a string or null"),
        ("diagram", _diagram({"id": 1, "parent": None, "kind": None}),
         "diagram vertex 1 lacks the field 'weight'"),
        ("diagram", _diagram({**_VERTEX, "weight": False}),
         "diagram vertex 1: field 'weight' must be an integer"),
        ("diagram", _diagram({**_VERTEX, "id": 0}), "diagram ids must be 1..r"),
    ],
)
def test_json_readers_pin_their_messages(reader, doc, message):
    # the top-level fields are read first, then each entry's id, parent and
    # own fields in turn, then the ids; every error is a plain ValueError
    read = {"cluster": serialize.cluster_from_json, "diagram": serialize.diagram_from_json}
    with pytest.raises(ValueError) as got:
        read[reader](doc)
    assert (type(got.value), str(got.value)) == (ValueError, message)


def test_cli_ideal_json_is_type_checked(tmp_path, capsys):
    path = tmp_path / "ideal.json"
    bad = {
        "null": "ideal must be an array",
        "5": "ideal must be an array",
        "[[2.7, 0], [0, 3]]": "entry 1",
        '[[2, 0], [0, "3"]]': "entry 2",
        "[[2, 0], [0, 3, 1]]": "entry 2",
        "[[2, 0], [true, 3]]": "entry 2",
        "[[-1, 2], [3, 0]]": "negative exponents",
    }
    for text, message in bad.items():
        path.write_text(text)
        for argv in (["monomial-lct"], ["jumping", "--bound", "1"]):
            code, out, err = run_cli(capsys, *argv, "--file", str(path))
            assert code == 2 and message in err and out == "", (text, argv)
    path.write_text("[[2, 0], [0, 3]]")
    assert run_cli(capsys, "monomial-lct", "--file", str(path))[:2] == (0, "5/6\n")
    code, out, _ = run_cli(capsys, "jumping", "--file", str(path), "--bound", "1")
    assert code == 0 and out == "5/6\n"
    for text, message in bad.items():
        with pytest.raises(ValueError, match=message.replace("ideal", "staircase")):
            serialize.staircase_from_json(json.loads(text))


def test_cli_deep_chains_do_not_depend_on_the_recursion_limit(tmp_path, capsys):
    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        code, out, _ = run_cli(capsys, "tpq", "1", "1500", "--json")
        assert code == 0
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(json.loads(out)["diagram"]))
        code, out, err = run_cli(capsys, "union", str(path), str(path), "--json")
        assert (code, err) == (0, "")
        vertices = json.loads(out)["diagram"]["vertices"]
        assert len(vertices) == 1500 and {v["weight"] for v in vertices} == {2}
    finally:
        sys.setrecursionlimit(limit)


def test_cli_deeply_nested_json_is_an_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for argv in (
        ("unload", "--file", str(path)),
        ("union", str(path)),
        ("monomial-lct", "--file", str(path)),
        ("jumping", "--file", str(path), "--bound", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {path}: JSON nested too deeply\n"), argv


def test_cli_bounds_parenthesis_nesting(capsys):
    from singular_lct.poly import MAX_NESTING

    code, out, _ = run_cli(capsys, "lct", "--curve", "(" * 300 + "y^2-x^3" + ")" * 300)
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "lct", "--curve", "(" * MAX_NESTING + "y^2-x^3" + ")" * MAX_NESTING)
    assert (code, out) == (0, "5/6\n")


def test_cli_superscript_digit_is_an_unexpected_character(capsys):
    code, out, err = run_cli(capsys, "lct", "--curve", "y^2 - x³")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: unexpected character at position 7:")


def test_cli_runs_without_sympy():
    # a cold CLI call loads no sympy: the library runs on the stdlib alone;
    # and a command that prints text loads no json
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys\n"
        "import singular_lct.cli as cli\n"
        "code = cli.main(['lct', '--curve', 'x^2 - y^3'])\n"
        "assert code == 0, code\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
        "assert 'json' not in sys.modules, 'json was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "5/6"


def test_star_import_binds_no_submodule():
    import types

    import singular_lct

    assert not [
        name
        for name in singular_lct.__all__
        if isinstance(getattr(singular_lct, name), types.ModuleType)
    ]
    namespace = {"cluster": "mine"}
    exec("from singular_lct import *", namespace)
    assert namespace["cluster"] == "mine"
    assert {"Cluster", "EnriquesTree", "check_main_theorem", "tree_to_cluster"} <= set(
        singular_lct.__all__
    )


# the package's public names, in the order of __all__
PUBLIC_NAMES = [
    "AdaptedCandidate", "BRANCH", "BasisVector", "BivariatePolynomial", "Cluster",
    "ClusterError", "EnriquesDiagram", "EnriquesError", "EnriquesTree", "EuclidData",
    "InfiniteStaircaseError", "LOGDISC", "MainTheoremViolation", "MonomialIdeal",
    "MonomialIdealError", "NewtonFacet", "NonRationalTangentError", "NonReducedError",
    "OrientationError", "ParseError", "ResolutionError", "STRICT", "Staircase", "TOTAL",
    "TheoremReport", "UnitIdealError", "UnloadingError", "WeightedCluster",
    "adapted_candidates", "branch_coefficients", "change_basis", "check_main_theorem",
    "classify", "cluster_to_tree", "connected_sum", "diagram_to_staircase", "euclid_data",
    "howald_multiplier", "integral_closure", "is_unloaded", "jumping_numbers_curve",
    "jumping_numbers_monomial", "lct_cluster", "lct_monomial", "lct_via_term_ideals",
    "log_discrepancies", "multiplicity", "multiplier_cluster", "newton_facets",
    "nondegenerate_part", "parse_polynomial", "proximity_matrix", "prune_last",
    "resolve_curve", "staircase_sum", "staircase_to_diagram", "t_pq", "term_ideal",
    "tree_to_cluster", "triangle", "union", "unload", "verify_main_inequality",
]


def test_the_lazy_package_keeps_its_surface():
    import importlib
    import os
    import subprocess
    import sys

    import singular_lct

    assert singular_lct.__all__ == PUBLIC_NAMES and len(PUBLIC_NAMES) == 63
    for name in PUBLIC_NAMES:
        value = getattr(singular_lct, name)
        # the four basis names are strings, defined in cluster
        home = importlib.import_module(getattr(value, "__module__", "singular_lct.cluster"))
        assert vars(home)[name] is value, name
    assert set(PUBLIC_NAMES) <= set(dir(singular_lct))
    namespace = {}
    exec("from singular_lct import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        singular_lct.nope
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, singular_lct; assert 'singular_lct.cluster' not in sys.modules; "
        "assert singular_lct.cluster is sys.modules['singular_lct.cluster']"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True, timeout=120)


def test_cli_keeps_the_traceback_of_a_failed_assertion(monkeypatch):
    import singular_lct.cluster as cluster
    import singular_lct.engine  # noqa: F401  so main reads MainTheoremViolation first

    def broken(kl):
        raise AssertionError("an internal check failed")

    monkeypatch.setattr(cluster, "lct_cluster", broken)
    with pytest.raises(AssertionError, match="an internal check failed"):
        main(["lct", "--curve", "x^2-y^3"])


def test_cli_bound_with_zero_denominator_is_a_usage_error(capsys):
    for bound in ("1/0", "abc"):
        code, out, err = run_cli(capsys, "jumping", "--curve", "x^2-y^3", "--bound", bound)
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --bound: invalid _frac value: '{bound}'\n"


def test_cli_bound_with_a_huge_exponent_is_a_usage_error():
    # Fraction would compute 10**99999999 before the command runs, so the
    # check runs in a process of its own under a timeout
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for bound in ("1e-99999999", "2.5E+40000000", "1e1001"):
        proc = subprocess.run(
            [sys.executable, "-m", "singular_lct.cli", "jumping", "--curve", "y^2 - x^3",
             "--bound", bound],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr == f"usage error: argument --bound: invalid _frac value: '{bound}'\n"


def test_cli_huge_constants_and_monomial_bounds_fail_at_once():
    # each used to hang or to print the interpreter's digit-limit message,
    # so each runs in a process of its own under a timeout
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv, code, err in (
        (["lct", "--curve", "y^2 - ((9^1000)^1000)^1000"], 2,
         "parse error: power may have a coefficient of more than 4300 digits at position 16:\n"),
        (["lct", "--curve", "(9^1000)^5*(y - x^2)^2"], 2,
         "parse error: power may have a coefficient of more than 4300 digits at position 9:\n"),
        (["jumping", "--monomial", "x^2+y^3", "--bound", "100000000"], 1,
         "usage error: argument --bound: bound 100000000 may read 60000001200000006 lattice"
         " points, more than 4000000\n"),
        (["jumping", "--monomial", "8258(x+y) ^9(x+y)6", "--bound", "1e3"], 1,
         "usage error: argument --bound: bound 1000 may read 100050006 lattice points,"
         " more than 4000000\n"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "singular_lct.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
        assert proc.stderr.startswith(err), proc.stderr


def test_cli_tpq_refuses_a_diagram_past_its_vertex_limit(capsys):
    import os
    import subprocess
    import sys

    from singular_lct.cli import MAX_TPQ_VERTICES as limit

    code, out, _ = run_cli(capsys, "tpq", "1", str(limit), "--json")
    assert code == 0 and len(json.loads(out)["diagram"]["vertices"]) == limit
    # one vertex per Euclid step: 2k + 1 = k*2 + 1 has the quotients k and 2
    k = limit - 1
    assert run_cli(capsys, "tpq", "2", str(2 * k + 1)) == (
        1, "", f"usage error: the diagram of x^2 - y^{2 * k + 1} has {limit + 1} vertices, "
        f"more than {limit}\n",
    )
    # a pair that has no diagram keeps its computation error
    code, _, err = run_cli(capsys, "tpq", "2", "200000000")
    assert (code, err) == (2, "error: 2 and 200000000 are not coprime\n")
    # this one used to build a 10^8-vertex chain, so it runs under a timeout
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "singular_lct.cli", "tpq", "1", "100000000"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr == (
        f"usage error: the diagram of x^1 - y^100000000 has 100000000 vertices, more than {limit}\n"
    )


def test_cli_bound_exponents_up_to_the_limit_are_read(capsys):
    for bound, jumps in (("1e-1000", "\n"), ("1e0", "5/6\n"), ("0.1e+1", "5/6\n")):
        assert run_cli(capsys, "jumping", "--curve", "y^2-x^3", "--bound", bound) == (0, jumps, "")


def test_every_subcommand_has_its_own_handler():
    import argparse

    from singular_lct.cli import build_parser

    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    handlers = {name: sp.get_default("handler") for name, sp in commands.choices.items()}
    assert len(handlers) == 11
    assert all(callable(h) for h in handlers.values())
    assert len(set(handlers.values())) == len(handlers)


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    import shlex
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = [shlex.split(line, comments=True) for line in block.strip().splitlines()]
    assert len(examples) == 11 and all(argv[0] == "singular-lct" for argv in examples)
    monkeypatch.chdir(tmp_path)
    kl, _ = resolve_curve(BivariatePolynomial.parse("x^5 - y^7"))
    (tmp_path / "cluster.json").write_text(json.dumps(serialize.cluster_to_json(kl)))
    for name, (p, q) in (("d1.json", (5, 7)), ("d2.json", (4, 7))):
        (tmp_path / name).write_text(json.dumps(serialize.diagram_to_json(t_pq(p, q))))
    for argv in examples:
        assert run_cli(capsys, *argv[1:])[0] == 0, argv
        flags = [] if "--json" in argv else ["--json"]
        code, out, _ = run_cli(capsys, *argv[1:], *flags)
        assert code == 0 and json.loads(out)["schema"] == "singular-lct/1", argv
    # union reads bare diagrams, the "diagram" value of a --json document
    code, out, _ = run_cli(capsys, "tpq", "5", "7", "--json")
    (tmp_path / "whole.json").write_text(out)
    (tmp_path / "bare.json").write_text(json.dumps(json.loads(out)["diagram"]))
    assert run_cli(capsys, "union", "bare.json", "d2.json")[0] == 0
    code, _, err = run_cli(capsys, "union", "whole.json", "d2.json")
    assert code == 2 and "diagram lacks the field 'vertices'" in err


def test_cli_corpus_exit_3_counts_theorem_violations(capsys, monkeypatch):
    import singular_lct.engine as engine
    from singular_lct import MainTheoremViolation, check_main_theorem

    def sabotage(d):
        raise MainTheoremViolation(check_main_theorem(d))

    monkeypatch.setattr(engine, "check_main_theorem", sabotage)
    code, out, _ = run_cli(capsys, "corpus", "--cusp-limit", "3", "--json")
    data = json.loads(out)
    assert code == 3 and data["failures"] == len(data["curves"]) > 0
    assert {row["status"] for row in data["curves"]} == {"THEOREM VIOLATION"}


def test_cli_corpus_cusp_limit_is_bounded(capsys, monkeypatch):
    import singular_lct.corpus as corpus
    from singular_lct.corpus import SPECIAL_CURVES

    # a negative limit would drop every cusp, and x^500 - y^501, the first
    # cusp past 500, needs 501 points, one more than resolve_curve allows
    for limit in (-1, 501):
        code, out, err = run_cli(capsys, "corpus", "--cusp-limit", str(limit))
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --cusp-limit: must be between 0 and 500, not {limit}\n"
    with pytest.raises(ResolutionError, match="exceeded 500 blowups"):
        resolve_curve(BivariatePolynomial.parse("x^500 - y^501"))
    kl, _ = resolve_curve(BivariatePolynomial.parse("x^499 - y^500"))
    assert len(kl.cluster) == 500
    code, out, _ = run_cli(capsys, "corpus", "--cusp-limit", "0", "--json")
    assert code == 0 and len(json.loads(out)["curves"]) == len(SPECIAL_CURVES)
    # the largest limit is accepted (its curves are not resolved here)
    limits = []
    monkeypatch.setattr(corpus, "corpus_curves", lambda limit: limits.append(limit) or SPECIAL_CURVES[:1])
    code, _, _ = run_cli(capsys, "corpus", "--cusp-limit", "500")
    assert code == 0 and limits == [500]


# -- malformed diagram files --------------------------------------------------------

_JUNK = ("1", 1.5, True, None, [], {}, -1, 10**30, "s", [1])


@st.composite
def near_diagram_json(draw):
    """Diagram JSON one or a few edits away from a valid tree: wrong types,
    parents out of order, unknown kinds, satellites off the root, x_side
    marks on non-root vertices, marks that contradict their satellites, and
    two root chains, bare or beside one with a satellite, marked or not."""
    n = draw(st.integers(0, 6))
    vertices = []
    for i in range(1, n + 1):
        parent = None if i == 1 else draw(st.integers(1, i - 1))
        kind = None if i == 1 else "s" if parent == 1 else draw(st.sampled_from("shv"))
        vertices.append({"id": i, "parent": parent, "kind": kind, "weight": draw(st.integers(0, 4))})
    doc = {"vertices": vertices}
    if draw(st.booleans()):
        doc["x_side"] = draw(st.lists(st.integers(-1, n + 1), max_size=3))
    for edit in draw(st.lists(st.integers(0, 7), max_size=3)):
        i = draw(st.integers(1, n)) if n else 0  # the id the vertex was drawn with
        v = vertices[i - 1] if n else {}
        if edit == 0:  # a field of the wrong type, or missing
            key = draw(st.sampled_from(("id", "parent", "kind", "weight")))
            if draw(st.booleans()):
                v[key] = draw(st.sampled_from(_JUNK))
            else:
                v.pop(key, None)
        elif edit == 1:  # a parent at or after its child, or no vertex
            v["parent"] = draw(st.sampled_from((i, i + 1, n + 1, 0, -1)))
        elif edit == 2:  # an unknown kind
            v["kind"] = draw(st.sampled_from(("x", "", "H", "slant", "s ")))
        elif edit == 3:  # a satellite off the root, or a root with a kind
            v["parent"], v["kind"] = draw(st.sampled_from(((1, "h"), (1, "v"), (None, "s"))))
        elif edit == 4:  # a mark on any vertex, or an ill-typed x_side
            doc["x_side"] = draw(
                st.sampled_from(([i], [0], "1", [1.0], [True], {}, None))
            )
        elif edit == 5 and len(vertices) >= 3:  # a marked chain drawn horizontal
            vertices[1].update(parent=1, kind="s")
            vertices[2].update(parent=2, kind="h")
            doc["x_side"] = [2]
        elif edit == 6:  # a negative or huge weight
            v["weight"] = draw(st.sampled_from((-1, 10**40)))
        elif edit == 7 and len(vertices) >= 4:  # two root chains, marks on either
            vertices[1].update(parent=1, kind="s")
            vertices[2].update(parent=1, kind="s")
            vertices[3].update(parent=draw(st.sampled_from((2, 3))), kind=draw(st.sampled_from("shv")))
            doc["x_side"] = draw(st.lists(st.sampled_from((2, 3)), max_size=2))
    if draw(st.integers(0, 19)) == 7:  # the document is not a diagram object
        doc = draw(st.sampled_from(([], "vertices", 3, {"vertex": []})))
    return doc


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@seed(2807)
@given(near_diagram_json(), near_diagram_json(), st.booleans())
def test_union_of_malformed_diagram_files_exits_cleanly(tmp_path, first, second, as_json):
    # a malformed file is an error (exit 2), never a traceback or exit 3
    import contextlib
    import io

    paths = []
    for name, doc in (("a.json", first), ("b.json", second)):
        (tmp_path / name).write_text(json.dumps(doc))
        paths.append(str(tmp_path / name))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["union", *paths, *(["--json"] if as_json else [])])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# -- malformed cluster files --------------------------------------------------------


@st.composite
def near_cluster_json(draw):
    """Cluster JSON one or a few edits away from a valid cluster: wrong,
    missing or bool fields, ids not 1..r, parents at or after their child,
    prox without the parent or with three targets, unreachable satellite
    targets, repeated crossings, negative or huge weights, a weight count
    that does not match, and documents that are not objects."""
    n = draw(st.integers(0, 6))
    points = []
    for i in range(1, n + 1):
        parent = None if i == 1 else draw(st.integers(1, i - 1))
        prox = [] if parent is None else [parent]
        grand = points[parent - 1]["parent"] if parent else None
        if grand and draw(st.booleans()):  # a satellite on the grandparent's divisor
            prox.append(grand)
        points.append({"id": i, "parent": parent, "prox": prox})
    weights = [draw(st.integers(0, 4)) for _ in range(n)]
    doc = {"points": points, "weights": weights}
    for edit in draw(st.lists(st.integers(0, 7), max_size=3)):
        i = draw(st.integers(1, n)) if n else 0  # the id the point was drawn with
        p = points[i - 1] if n else {}
        if edit == 0:  # a field of the wrong type, a bool, or missing
            key = draw(st.sampled_from(("id", "parent", "prox", "points", "weights")))
            target = doc if key in ("points", "weights") else p
            if draw(st.booleans()):
                target[key] = draw(st.sampled_from(_JUNK + (False, [True])))
            else:
                target.pop(key, None)
        elif edit == 1:  # ids that are not 1..r
            p["id"] = draw(st.sampled_from((0, i + 1, n + 1, -1, 1)))
        elif edit == 2:  # a parent at or after its child, or no point
            p["parent"] = draw(st.sampled_from((i, i + 1, n + 1, 0, -1)))
        elif edit == 3:  # prox without the parent, or with three targets
            p["prox"] = draw(st.sampled_from(([], [i - 1, i - 2], [i - 1, 1, 2], [1, 2, 3])))
        elif edit == 4:  # a satellite target that may be out of reach
            p["prox"] = [p.get("parent"), draw(st.integers(1, max(i - 1, 1)))]
        elif edit == 5 and n >= 4:  # two points on one crossing
            points[1].update(parent=1, prox=[1])
            points[2].update(parent=2, prox=[2, 1])
            points[3].update(parent=2, prox=[2, 1])
        elif edit == 6 and n and isinstance(weights, list):  # a negative or huge weight
            weights[i - 1] = draw(st.sampled_from((-1, -(10**40), 10**40)))
        elif edit == 7:  # a weight count that does not match
            doc["weights"] = weights[:-1] if draw(st.booleans()) else weights + [1]
    if draw(st.integers(0, 19)) == 7:  # the document is not a cluster object
        doc = draw(st.sampled_from(([], "points", 3, None, {"point": []})))
    return doc


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@seed(3203)
@given(near_cluster_json(), st.booleans())
def test_unload_of_malformed_cluster_files_exits_cleanly(tmp_path, doc, as_json):
    # a malformed file is an error (exit 2), never a traceback
    import contextlib
    import io

    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["unload", "--file", str(path), *(["--json"] if as_json else [])])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# -- malformed ideal files and bounds -----------------------------------------------


@st.composite
def near_ideal_text(draw):
    """Ideal JSON text one or a few edits away from [[m, n], ...]: wrong
    types, bools, floats, entries that are not pairs, negatives, an empty
    array, the unit ideal, huge integers, documents that are not arrays, and
    deep nesting."""
    size = draw(st.integers(1, 4))
    doc = [[draw(st.integers(0, 6)), draw(st.integers(0, 6))] for _ in range(size)]
    depth = 0
    for edit in draw(st.lists(st.integers(0, 5), max_size=3)):
        i = draw(st.integers(0, len(doc) - 1)) if doc else None
        pair = doc[i] if i is not None and isinstance(doc[i], list) and len(doc[i]) == 2 else None
        k = draw(st.integers(0, 1))
        if edit == 0 and pair:  # a wrong type, a bool or a float
            pair[k] = draw(st.sampled_from(_JUNK + (False, 2.0, -0.5)))
        elif edit == 1 and doc:  # an entry that is not a pair
            doc[i] = draw(st.sampled_from(([1], [1, 2, 3], [], 5, "1,2", None, {"m": 1})))
        elif edit == 2 and pair:  # a negative exponent
            pair[k] = -draw(st.integers(1, 3))
        elif edit == 3 and pair:  # a huge exponent
            pair[k] = draw(st.sampled_from((10**40, 2**64)))
        elif edit == 4:  # the empty array, or the unit ideal among the generators
            doc = [] if draw(st.booleans()) else doc + [[0, 0]]
        elif edit == 5:  # deep nesting, past the decoder's recursion limit or not
            depth = draw(st.sampled_from((1, 3, 10**5)))
    if draw(st.integers(0, 9)) == 7:  # the document is not an array
        doc = draw(st.sampled_from(({}, "x^2", 3, None, True, {"ideal": [[1, 0]]})))
    return "[" * depth + json.dumps(doc) + "]" * depth


BOUNDS = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 12), st.integers(0, 7)),  # with 1/0
    st.builds("{}e{}".format, st.sampled_from(("1", "2.5", "-1", "0")), st.integers(-1002, 1002)),
    st.sampled_from(("0", "0.0", "-1", "1", "0.5", "1.25", "-0.75", "1e", "e3", "abc")),
)


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@seed(3311)
@given(near_ideal_text(), BOUNDS, st.booleans())
def test_ideal_commands_on_malformed_files_and_bounds_exit_cleanly(tmp_path, text, bound, as_json):
    # a malformed file is an error (exit 2) and a bad bound a usage error
    # (exit 1), never a traceback or exit 3
    import contextlib
    import io

    path = tmp_path / "ideal.json"
    path.write_text(text)
    flags = ["--json"] if as_json else []
    for argv in (
        ["jumping", "--file", str(path), "--bound", bound, *flags],
        ["monomial-lct", "--file", str(path), *flags],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())


# -- near-grammatical polynomials ---------------------------------------------------


class _Deadline(Exception):
    pass


def _past_deadline(signum, frame):
    raise _Deadline


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@seed(3407)
@given(near_grammatical())
def test_polynomial_commands_on_near_grammatical_input_exit_cleanly(text):
    # a curve the grammar or the resolution refuses is an error (exit 1 or
    # 2) with a message, never a traceback or exit 3; each call has a
    # deadline.  resolve and diagram reach the resolution's walk and the
    # diagram it builds, jumping the cluster's jumps and check-theorem the
    # engine and the staircase round trips
    import contextlib
    import io
    import signal

    handler = signal.signal(signal.SIGALRM, _past_deadline)
    try:
        for argv in (
            ["lct", "--curve", text],
            ["newton", "--json", "--poly", text],
            ["resolve", "--json", "--curve", text],
            ["diagram", "--json", "--curve", text],
            ["jumping", "--curve", text, "--bound", "1"],
            ["check-theorem", "--curve", text],
        ):
            out, err = io.StringIO(), io.StringIO()
            signal.alarm(20)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            finally:
                signal.alarm(0)
            assert code in (0, 1, 2), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())
    finally:
        signal.signal(signal.SIGALRM, handler)
