"""JSON encoding of the domain values.

Rationals are strings "num/den" (all arithmetic is exact, floats never
appear).  Monomial ideals and staircases are arrays of [m, n] exponent
pairs.  Clusters and diagrams share one numbering rule: one object
{"id", "parent", ...} per vertex, ids 1..r in tree order, each parent the
id of the vertex's parent (null at the root); a reader sorts them by id.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List

from .poly import MAX_EXPONENT

if TYPE_CHECKING:  # the constructors import their classes when called
    from .cluster import WeightedCluster
    from .enriques import EnriquesDiagram
    from .newton import MonomialIdeal, Staircase

SCHEMA = "singular-lct/1"


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def fraction_from_str(s: str) -> Fraction:
    """The rational of "num/den" or a decimal.  Fraction would compute 10**exp
    at once, so a decimal exponent above MAX_EXPONENT is a ValueError."""
    _, e, exp = s.lower().rpartition("e")
    if e and abs(int(exp)) > MAX_EXPONENT:
        raise ValueError(s)
    return Fraction(s)


def ideal_to_json(a: MonomialIdeal) -> List[List[int]]:
    return [[m, n] for m, n in a.generators]


def _exponent_pairs(data, what: str):
    """[[m, n], ...] as integer pairs; ValueError naming the first entry
    that is not a pair of integers."""
    if not _JSON_TYPES["an array"](data):
        raise ValueError(f"{what} must be an array of [m, n] pairs")
    for n, pair in enumerate(data, 1):
        if not (_JSON_TYPES["an array of integers"](pair) and len(pair) == 2):
            raise ValueError(f"{what} entry {n} must be a pair of integers: {pair!r}")
    return tuple((m, n) for m, n in data)


def ideal_from_json(data) -> MonomialIdeal:
    from .newton import MonomialIdeal
    return MonomialIdeal(_exponent_pairs(data, "ideal"))


def staircase_to_json(s: Staircase) -> List[List[int]]:
    return [[m, n] for m, n in s.generators]


def staircase_from_json(data) -> Staircase:
    from .newton import Staircase
    return Staircase(_exponent_pairs(data, "staircase"))


def cluster_to_json(kl: WeightedCluster) -> dict:
    prox = [[a + 1 for a in targets] for targets in kl.cluster.targets]
    return {"points": _numbered_to_json(kl.cluster.parents, prox=prox), "weights": list(kl.weights)}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_JSON_TYPES = {
    "an array": lambda x: isinstance(x, list),
    "an integer": _is_int,
    "an integer or null": lambda x: x is None or _is_int(x),
    "a string or null": lambda x: x is None or isinstance(x, str),
    "an array of integers": lambda x: isinstance(x, list) and all(map(_is_int, x)),
}


def _field(obj, key: str, kind: str, where: str):
    """obj[key] checked against a JSON type in _JSON_TYPES; ValueError
    naming the field when obj is not an object, or the field is missing or
    ill-typed."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} lacks the field {key!r}")
    if not _JSON_TYPES[kind](obj[key]):
        raise ValueError(f"{where}: field {key!r} must be {kind}")
    return obj[key]


def _numbered_to_json(parents, **columns) -> List[dict]:
    """The numbering rule: one {"id", "parent", *columns} object per vertex."""
    return [
        {"id": i + 1, "parent": None if p is None else p + 1, **dict(zip(columns, row))}
        for i, (p, *row) in enumerate(zip(parents, *columns.values()))
    ]


def _numbered_from_json(entries, what: str, noun: str, **columns: str):
    """The numbering rule read back: each entry's "id", "parent" and columns
    checked in turn against _JSON_TYPES, as "{what} {noun} n"; then the
    entries sorted by id, which must be 1..r, and their 0-based parents."""
    fields = {"id": "an integer", "parent": "an integer or null", **columns}
    for n, entry in enumerate(entries, 1):
        for key, kind in fields.items():
            _field(entry, key, kind, f"{what} {noun} {n}")
    entries = sorted(entries, key=lambda e: e["id"])
    if [e["id"] for e in entries] != list(range(1, len(entries) + 1)):
        raise ValueError(f"{what} ids must be 1..r")
    return entries, [None if e["parent"] is None else e["parent"] - 1 for e in entries]


def cluster_from_json(data) -> WeightedCluster:
    from .cluster import Cluster, WeightedCluster
    points = _field(data, "points", "an array", "cluster")
    weights = _field(data, "weights", "an array of integers", "cluster")
    points, parents = _numbered_from_json(points, "cluster", "point", prox="an array of integers")
    targets = [tuple(a - 1 for a in p["prox"]) for p in points]
    return WeightedCluster(Cluster(parents, targets), weights)


def diagram_to_json(d: EnriquesDiagram) -> dict:
    out = {"vertices": _numbered_to_json(d.tree.parents, kind=d.tree.kinds, weight=d.weights)}
    if d.tree.x_side:
        out["x_side"] = sorted(v + 1 for v in d.tree.x_side)
    return out


def diagram_from_json(data) -> EnriquesDiagram:
    from .enriques import EnriquesDiagram, EnriquesTree
    vertices = _field(data, "vertices", "an array", "diagram")
    x_side = _field(data, "x_side", "an array of integers", "diagram") if "x_side" in data else []
    vertices, parents = _numbered_from_json(
        vertices, "diagram", "vertex", kind="a string or null", weight="an integer"
    )
    marks = frozenset(v - 1 for v in x_side)
    tree = EnriquesTree(parents, [v["kind"] for v in vertices], marks)
    return EnriquesDiagram(tree, [v["weight"] for v in vertices])
