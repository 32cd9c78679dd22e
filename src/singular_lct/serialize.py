"""JSON encoding of the domain values.

Rationals are strings "num/den" (all arithmetic is exact, floats never
appear).  Monomial ideals and staircases are arrays of [m, n] exponent
pairs.  Clusters and diagrams use 1-based vertex ids in tree order.
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
    points = []
    for i in range(len(kl.cluster)):
        parent = kl.cluster.parents[i]
        points.append(
            {
                "id": i + 1,
                "parent": None if parent is None else parent + 1,
                "prox": [a + 1 for a in kl.cluster.targets[i]],
            }
        )
    return {"points": points, "weights": list(kl.weights)}


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


def cluster_from_json(data) -> WeightedCluster:
    from .cluster import Cluster, WeightedCluster
    points = _field(data, "points", "an array", "cluster")
    weights = _field(data, "weights", "an array of integers", "cluster")
    for n, p in enumerate(points, 1):
        _field(p, "id", "an integer", f"cluster point {n}")
        _field(p, "parent", "an integer or null", f"cluster point {n}")
        _field(p, "prox", "an array of integers", f"cluster point {n}")
    points = sorted(points, key=lambda p: p["id"])
    ids = [p["id"] for p in points]
    if ids != list(range(1, len(ids) + 1)):
        raise ValueError("cluster ids must be 1..r")
    parents = [None if p["parent"] is None else p["parent"] - 1 for p in points]
    targets = [tuple(a - 1 for a in p["prox"]) for p in points]
    cluster = Cluster(parents, targets)
    return WeightedCluster(cluster, weights)


def diagram_to_json(d: EnriquesDiagram) -> dict:
    vertices = []
    for i in range(len(d)):
        parent = d.tree.parents[i]
        vertices.append(
            {
                "id": i + 1,
                "parent": None if parent is None else parent + 1,
                "kind": d.tree.kinds[i],
                "weight": d.weights[i],
            }
        )
    out = {"vertices": vertices}
    if d.tree.x_side:
        out["x_side"] = sorted(v + 1 for v in d.tree.x_side)
    return out


def diagram_from_json(data) -> EnriquesDiagram:
    from .enriques import EnriquesDiagram, EnriquesTree
    vertices = _field(data, "vertices", "an array", "diagram")
    x_side = []
    if "x_side" in data:
        x_side = _field(data, "x_side", "an array of integers", "diagram")
    for n, v in enumerate(vertices, 1):
        _field(v, "id", "an integer", f"diagram vertex {n}")
        _field(v, "parent", "an integer or null", f"diagram vertex {n}")
        _field(v, "kind", "a string or null", f"diagram vertex {n}")
        _field(v, "weight", "an integer", f"diagram vertex {n}")
    vertices = sorted(vertices, key=lambda v: v["id"])
    ids = [v["id"] for v in vertices]
    if ids != list(range(1, len(ids) + 1)):
        raise ValueError("diagram ids must be 1..r")
    parents = [None if v["parent"] is None else v["parent"] - 1 for v in vertices]
    kinds = [v["kind"] for v in vertices]
    weights = [v["weight"] for v in vertices]
    marks = frozenset(v - 1 for v in x_side)
    return EnriquesDiagram(EnriquesTree(parents, kinds, marks), weights)
