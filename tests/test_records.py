"""The value records: fields, construction, equality, hashing, repr and
immutability, for every record class of the package."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from singular_lct import (
    AdaptedCandidate,
    BasisVector,
    Cluster,
    EnriquesDiagram,
    EnriquesTree,
    MonomialIdeal,
    Staircase,
    TheoremReport,
    WeightedCluster,
    branch_coefficients,
    check_main_theorem,
    classify,
    euclid_data,
    newton_facets,
    t_pq,
)
from singular_lct.engine import PathCheck
from singular_lct.enriques import InequalityRow, MainInequalityReport

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CLUSTER = Cluster((None, 0, 1), ((), (0,), (0, 1)))
TREE = EnriquesTree((None, 0, 1), (None, "s", "h"))
DIAGRAM = EnriquesDiagram(TREE, (2, 1, 1))
ROW = InequalityRow(alpha=0, at_junction=Fraction(2, 5), at_end=Fraction(4, 11))
PATH = PathCheck(witness=2, leaf=2, lct_path=Fraction(5, 6), lct_path_core=Fraction(5, 6))
CANDIDATE = AdaptedCandidate(
    rho=1, subdiagram=DIAGRAM, staircase=Staircase([(0, 3), (1, 2), (2, 0)]), lct=Fraction(5, 6)
)

_TREE_REPR = "EnriquesTree(parents=(None, 0, 1), kinds=(None, 's', 'h'), x_side=frozenset())"
_DIAGRAM_REPR = f"EnriquesDiagram(tree={_TREE_REPR}, weights=(2, 1, 1))"
_CANDIDATE_REPR = (
    f"AdaptedCandidate(rho=1, subdiagram={_DIAGRAM_REPR}, "
    "staircase=Staircase(generators=((0, 3), (1, 2), (2, 0))), lct=Fraction(5, 6))"
)
_PATH_REPR = "PathCheck(witness=2, leaf=2, lct_path=Fraction(5, 6), lct_path_core=Fraction(5, 6))"

# (record, its field names, its repr as the dataclass records printed it)
CASES = [
    (BasisVector([1, 2], "total"), ("entries", "basis"), "BasisVector(entries=(1, 2), basis='total')"),
    (
        CLUSTER,
        ("parents", "targets"),
        "Cluster(parents=(None, 0, 1), targets=((), (0,), (0, 1)))",
    ),
    (
        WeightedCluster(CLUSTER, (2, 1, 1)),
        ("cluster", "weights"),
        "WeightedCluster(cluster=Cluster(parents=(None, 0, 1), targets=((), (0,), (0, 1))), "
        "weights=(2, 1, 1))",
    ),
    (
        MonomialIdeal([(0, 3), (2, 0), (2, 5)]),
        ("generators",),
        "MonomialIdeal(generators=((0, 3), (2, 0)))",
    ),
    (
        newton_facets(MonomialIdeal([(0, 3), (2, 0)]))[0],
        ("p", "q", "d", "start", "end"),
        "NewtonFacet(p=2, q=3, d=1, start=(0, 3), end=(2, 0))",
    ),
    (Staircase([(0, 3), (2, 0)]), ("generators",), "Staircase(generators=((0, 3), (2, 0)))"),
    (TREE, ("parents", "kinds", "x_side"), _TREE_REPR),
    (DIAGRAM, ("tree", "weights"), _DIAGRAM_REPR),
    (
        classify(TREE),
        ("free", "non_degenerate", "binary", "unibranch", "witnesses"),
        "TreeClassification(free=(True, True, False), non_degenerate=True, binary=True, "
        "unibranch=True, witnesses=())",
    ),
    (
        euclid_data(2, 3),
        ("p", "q", "a", "r", "f", "delta"),
        "EuclidData(p=2, q=3, a=(1, 2), r=(2, 1), f=(0, 0, 1, 2), delta=(1, 1, 1, 3))",
    ),
    (
        branch_coefficients(2, 3, 2),
        ("e_last", "w_first"),
        "BranchCoefficients(e_last=3, w_first=1)",
    ),
    (
        ROW,
        ("alpha", "at_junction", "at_end"),
        "InequalityRow(alpha=0, at_junction=Fraction(2, 5), at_end=Fraction(4, 11))",
    ),
    (
        MainInequalityReport(rows=(ROW,), junction=2, end=4),
        ("rows", "junction", "end"),
        "MainInequalityReport(rows=(InequalityRow(alpha=0, at_junction=Fraction(2, 5), "
        "at_end=Fraction(4, 11)),), junction=2, end=4)",
    ),
    (CANDIDATE, ("rho", "subdiagram", "staircase", "lct"), _CANDIDATE_REPR),
    (PATH, ("witness", "leaf", "lct_path", "lct_path_core"), _PATH_REPR),
    (
        check_main_theorem(t_pq(2, 3)),
        (
            "lct_direct",
            "lct_term",
            "equal",
            "witness_vertices",
            "witness_candidate",
            "candidates",
            "path_checks",
            "smooth",
        ),
        "TheoremReport(lct_direct=Fraction(5, 6), lct_term=Fraction(5, 6), equal=True, "
        f"witness_vertices=(2,), witness_candidate={_CANDIDATE_REPR}, "
        f"candidates=({_CANDIDATE_REPR},), path_checks=({_PATH_REPR},), smooth=False)",
    ),
]

# equality and hashing up to isomorphism, not by the field tuple
_OWN_EQUALITY = (EnriquesTree, EnriquesDiagram)


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_every_record_class_is_covered():
    import singular_lct
    from singular_lct._record import Record

    classes = {type(r) for r, _, _ in CASES}
    assert len(classes) == len(CASES) == 16
    for module in (singular_lct.cluster, singular_lct.newton, singular_lct.enriques, singular_lct.engine):
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Record) and value is not Record:
                assert value in classes, value


@pytest.mark.parametrize("record, fields, text", CASES, ids=[type(r).__name__ for r, _, _ in CASES])
def test_record_contract(record, fields, text):
    cls = type(record)
    assert cls._fields == fields
    assert repr(record) == text
    twin = cls(**dict(zip(fields, values(record))))
    assert twin == record and not twin != record
    if cls in _OWN_EQUALITY:
        assert hash(twin) == hash(record)
    else:
        assert hash(twin) == hash(record) == hash(values(record))
    # another class with the same field values is not equal
    assert record.__eq__(object()) is NotImplemented and record != object()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equality_needs_the_same_class():
    gens = ((0, 3), (2, 0))
    ideal, stairs = MonomialIdeal(gens), Staircase(gens)
    assert values(ideal) == values(stairs) == (gens,)
    assert ideal.__eq__(stairs) is NotImplemented and ideal != stairs
    assert hash(ideal) == hash(stairs) == hash((gens,))
    assert MonomialIdeal([(0, 2), (2, 0)]) != ideal


def test_generic_constructor():
    report = check_main_theorem(t_pq(2, 3))
    args = values(report)[:-1]
    assert TheoremReport(*args).smooth is False
    assert TheoremReport(*args, smooth=True).smooth is True
    assert TheoremReport(*args) == report != TheoremReport(*args, smooth=True)
    assert PathCheck(2, 2, lct_path=Fraction(5, 6), lct_path_core=Fraction(5, 6)) == PATH
    with pytest.raises(TypeError):
        PathCheck(2, 2, Fraction(5, 6))
    with pytest.raises(TypeError):
        PathCheck(2, 2, Fraction(5, 6), Fraction(5, 6), 0)
    with pytest.raises(TypeError):
        PathCheck(2, 2, Fraction(5, 6), Fraction(5, 6), witness=2)
    with pytest.raises(TypeError):
        PathCheck(2, 2, Fraction(5, 6), Fraction(5, 6), depth=0)


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # the cold start the records are built for; -S keeps site's imports out
    code = (
        "import sys, singular_lct.cli; "
        "assert not {'dataclasses', 'inspect'} & set(sys.modules), "
        "{'dataclasses', 'inspect'} & set(sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True)


def _loaded_after(calls, modules):
    """The modules of `modules` that a fresh interpreter has loaded after
    running the CLI command lines `calls`."""
    code = (
        "import io, sys, contextlib, singular_lct.cli as cli\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        f"print(sorted(m for m in {modules!r} if 'singular_lct.' + m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_a_cli_command_imports_only_the_modules_it_runs():
    # the lct of a curve reads its cluster alone
    lct = [["lct", "--curve", "y^2 - x^3"]]
    assert _loaded_after(lct, ("enriques", "newton", "engine", "corpus")) == "[]"
    # its jumping numbers read a binary cluster's monomial ideal, never a diagram
    jumping = [["jumping", "--curve", "y^2 - x^3", "--bound", "1"]]
    assert _loaded_after(jumping, ("enriques", "newton", "engine", "corpus")) == "['newton']"
    newton = [["newton", "--json", "--poly", "x^2 - y^3"]]
    assert _loaded_after(newton, ("cluster", "enriques", "resolution", "engine")) == "[]"
    # the check itself: a command that runs the engine loads it
    assert _loaded_after([["check-theorem", "--curve", "y^2 - x^3"]], ("engine",)) == "['engine']"
