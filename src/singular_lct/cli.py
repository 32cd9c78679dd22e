"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 a theorem
check failed (never expected).  Machine output is versioned JSON with a
"schema" field; all rationals are rendered exactly as "num/den".

Each handler imports the modules it runs, so a command loads only those:
`lct` never compiles the Enriques diagrams or the theorem engine.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from . import serialize
from .poly import BivariatePolynomial, ParseError

if TYPE_CHECKING:
    from .cluster import WeightedCluster
    from .enriques import EnriquesDiagram
    from .newton import MonomialIdeal

_fts = serialize.fraction_to_str

MAX_TPQ_VERTICES = 10_000  # that `tpq` builds: about 0.2 s and 1 MB of JSON


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _frac(s: str) -> Fraction:
    # argparse reports only ValueError/TypeError, with the text alone
    try:
        return serialize.fraction_from_str(s)
    except ZeroDivisionError:
        raise ValueError(s) from None


def build_parser() -> _Parser:
    p = _Parser(prog="singular-lct", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--json", action="store_true", help="machine JSON output")
        sp.set_defaults(handler=handler)
        return sp

    sp = add("lct", _lct, help="log-canonical threshold of a curve at the origin")
    sp.add_argument("--curve", required=True, metavar="POLY")

    sp = add("monomial-lct", _monomial_lct, help="lct of a monomial ideal / term ideal")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", metavar="POLY", help="use the term ideal of POLY")
    src.add_argument("--file", metavar="PATH", help="ideal as JSON [[m,n],...]")

    sp = add("newton", _newton, help="term ideal, closure, facets and lct")
    sp.add_argument("--poly", required=True, metavar="POLY")

    sp = add("jumping", _jumping, help="jumping numbers")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", metavar="POLY")
    src.add_argument("--monomial", dest="poly", metavar="POLY", help="term ideal of POLY")
    src.add_argument("--file", metavar="PATH", help="ideal as JSON [[m,n],...]")
    sp.add_argument("--bound", type=_frac, required=True)

    sp = add("resolve", _resolve, help="minimal log resolution cluster and diagram")
    sp.add_argument("--curve", required=True, metavar="POLY")

    sp = add("unload", _unload, help="unload a weighted cluster (JSON file)")
    sp.add_argument("--file", required=True, metavar="PATH")

    sp = add("tpq", _tpq, help="staircase tree of x^p - y^q")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--dot", metavar="PATH")

    sp = add("union", _union, help="union of diagrams (JSON files)")
    sp.add_argument("files", nargs="+", metavar="PATH")
    sp.add_argument("--dot", metavar="PATH")

    sp = add("diagram", _diagram, help="Enriques diagram of a curve, with DOT export")
    sp.add_argument("--curve", required=True, metavar="POLY")
    sp.add_argument("--dot", metavar="PATH")

    sp = add("check-theorem", _check_theorem, help="compare the two lct computations")
    sp.add_argument("--curve", required=True, metavar="POLY")

    sp = add("corpus", _corpus, help="run the built-in curve corpus")
    sp.add_argument("--cusp-limit", type=int, default=12)
    return p


def export_dot(d: EnriquesDiagram, path: str) -> None:
    """Write a DOT graph with pinned positions: slant edges at 45 degrees,
    horizontal at 0, vertical at 90, mimicking the usual figures."""
    pos = {0: (0, 0)}
    taken = {(0, 0)}
    step = {"s": (1, 1), "h": (1, 0), "v": (0, 1)}
    for v in range(1, len(d)):
        px, py = pos[d.tree.parents[v]]
        dx, dy = step[d.tree.kinds[v]]
        x, y = px + dx, py + dy
        while (x, y) in taken:
            x += 1
        pos[v] = (x, y)
        taken.add((x, y))
    styles = {"s": "solid", "h": "dashed", "v": "dotted"}
    lines = ["digraph enriques {", '  graph [layout=neato];', "  node [shape=circle];"]
    for v in range(len(d)):
        x, y = pos[v]
        lines.append(f'  n{v + 1} [label="{d.weights[v]}", pos="{x},{y}!"];')
    for v in range(1, len(d)):
        kind = d.tree.kinds[v]
        lines.append(
            f"  n{d.tree.parents[v] + 1} -> n{v + 1} "
            f'[style={styles[kind]}, xlabel="{kind}"];'
        )
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_json(path: str):
    import json
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses once per nested array
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _curve(args) -> Tuple[WeightedCluster, EnriquesDiagram]:
    from .resolution import resolve_curve
    return resolve_curve(BivariatePolynomial.parse(args.curve))


def _curve_cluster(args) -> WeightedCluster:
    """The curve's cluster alone, for the commands that read no diagram."""
    from .resolution import _resolve_cluster
    return _resolve_cluster(BivariatePolynomial.parse(args.curve))


def _ideal(args) -> MonomialIdeal:
    """The term ideal of --poly (or --monomial), else the ideal in --file."""
    if args.poly is not None:
        from .newton import term_ideal
        return term_ideal(BivariatePolynomial.parse(args.poly))
    return serialize.ideal_from_json(_read_json(args.file))


def _drawn(args, d: EnriquesDiagram, text: str) -> Tuple[dict, str]:
    if args.dot:
        export_dot(d, args.dot)
    return {"diagram": serialize.diagram_to_json(d)}, text


def _weights_and_kinds(d: EnriquesDiagram) -> str:
    return f"weights {list(d.weights)}  kinds {list(d.tree.kinds[1:])}"


# Each handler serves one subcommand and returns its (JSON payload, text).


def _lct(args):
    from .cluster import lct_cluster
    kl = _curve_cluster(args)
    value = Fraction(1) if kl.is_empty() else lct_cluster(kl)[0]  # 1 if smooth
    return {"lct": _fts(value)}, _fts(value)


def _monomial_lct(args):
    from .newton import lct_monomial
    value = lct_monomial(_ideal(args))
    return {"lct": _fts(value)}, _fts(value)


def _newton(args):
    from .newton import integral_closure, lct_monomial, newton_facets
    a = _ideal(args)
    closure = integral_closure(a)
    facets = newton_facets(a)
    value = lct_monomial(a)
    payload = {
        "term_ideal": serialize.ideal_to_json(a),
        "integral_closure": serialize.ideal_to_json(closure),
        "facets": [
            {"p": f.p, "q": f.q, "d": f.d, "start": list(f.start), "end": list(f.end)}
            for f in facets
        ],
        "lct": _fts(value),
    }
    text = "\n".join(
        [
            f"term ideal       {a}",
            f"integral closure {closure}",
            "facets           "
            + ", ".join(f"(p={f.p}, q={f.q}, d={f.d})" for f in facets),
            f"lct              {_fts(value)}",
        ]
    )
    return payload, text


def _jumping(args):
    if args.curve is not None:
        from .cluster import jumping_numbers_curve
        jumps = jumping_numbers_curve(_curve_cluster(args), args.bound)
    else:
        from .newton import JumpingBoundError, jumping_numbers_monomial
        a = _ideal(args)  # its errors keep their exit code
        try:
            jumps = jumping_numbers_monomial(a, args.bound)
        except JumpingBoundError as exc:
            raise _UsageError(f"argument --bound: {exc}") from None
    values = [_fts(x) for x in jumps]
    return {"jumping_numbers": values}, ", ".join(values)


def _resolve(args):
    kl, diagram = _curve(args)
    payload = {
        "cluster": serialize.cluster_to_json(kl),
        "diagram": serialize.diagram_to_json(diagram),
    }
    lines = [f"{len(kl.cluster)} infinitely near points"]
    for i in range(len(kl.cluster)):
        prox = ",".join(f"P{a + 1}" for a in kl.cluster.targets[i])
        lines.append(
            f"  P{i + 1}: weight {kl.weights[i]}"
            + (f", proximate to {prox}" if prox else " (proper point)")
        )
    return payload, "\n".join(lines)


def _unload(args):
    from .cluster import BRANCH, TOTAL, BasisVector, change_basis, is_unloaded, unload
    kl = serialize.cluster_from_json(_read_json(args.file))
    result = unload(kl)
    branch = change_basis(BasisVector(result.weights, TOTAL), BRANCH, result.cluster)
    payload = {
        "cluster": serialize.cluster_to_json(result),
        "branch": list(branch.entries),
        "was_unloaded": is_unloaded(kl),
    }
    return payload, f"weights {list(result.weights)}  branch {list(branch.entries)}"


def _tpq(args):
    from .enriques import euclid_data, t_pq
    # one vertex per Euclid step, counted before any is built; a pair that
    # is not coprime with p < q keeps its error from euclid_data
    vertices = sum(euclid_data(args.p, args.q).a)
    if vertices > MAX_TPQ_VERTICES:
        raise _UsageError(
            f"the diagram of x^{args.p} - y^{args.q} has {vertices} vertices, "
            f"more than {MAX_TPQ_VERTICES}"
        )
    d = t_pq(args.p, args.q)
    return _drawn(args, d, _weights_and_kinds(d))


def _union(args):
    from .enriques import union
    diagrams = [serialize.diagram_from_json(_read_json(path)) for path in args.files]
    out = diagrams[0]
    for d in diagrams[1:]:
        out = union(out, d)
    return _drawn(args, out, f"weights {list(out.weights)}")


def _diagram(args):
    _, d = _curve(args)
    return _drawn(args, d, _weights_and_kinds(d))


def _check_theorem(args):
    from .engine import check_main_theorem
    _, d = _curve(args)
    report = check_main_theorem(d)
    payload = {
        "lct_direct": _fts(report.lct_direct),
        "lct_term": _fts(report.lct_term),
        "equal": report.equal,
        "witness_vertices": [v + 1 for v in report.witness_vertices],
        "candidates": [
            {
                "rho": None if c.rho is None else c.rho + 1,
                "lct": _fts(c.lct),
                "staircase": serialize.staircase_to_json(c.staircase),
            }
            for c in report.candidates
        ],
    }
    return payload, str(report)


def _corpus(args):
    from .corpus import corpus_curves
    from .engine import MainTheoremViolation, check_main_theorem
    from .resolution import MAX_POINTS, resolve_curve

    # the cusp x^(q-1) - y^q needs q points, so a larger limit holds a
    # cusp past the blowups resolve_curve allows; the number of coprime
    # pairs grows with the square of the limit
    if not 0 <= args.cusp_limit <= MAX_POINTS:
        raise _UsageError(
            f"argument --cusp-limit: must be between 0 and {MAX_POINTS}, not {args.cusp_limit}"
        )
    rows = []
    failures = 0
    for name, curve in corpus_curves(args.cusp_limit):
        try:
            _, d = resolve_curve(BivariatePolynomial.parse(curve))
            report = check_main_theorem(d)
            rows.append((name, curve, _fts(report.lct_direct), "ok"))
        except MainTheoremViolation:
            failures += 1
            rows.append((name, curve, "-", "THEOREM VIOLATION"))
    width = max(len(r[0]) for r in rows)
    text = "\n".join(
        f"{name:<{width}}  {status:<4}  lct={value}  {curve}"
        for name, curve, value, status in rows
    )
    text += f"\n{len(rows)} curves, {failures} failures"
    payload = {
        "curves": [
            {"name": n, "curve": c, "lct": v, "status": s} for n, c, v, s in rows
        ],
        "failures": failures,
    }
    return payload, text


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, text = args.handler(args)
        if args.json:
            import json
            payload = {"schema": serialize.SCHEMA, **payload}
            text = json.dumps(payload, indent=2, sort_keys=True)
        print(text)
        return 3 if payload.get("failures") else 0  # corpus counts violations
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a MainTheoremViolation is an AssertionError raised in the engine,
        # so it can occur only once the engine is loaded; any other failed
        # assertion is a bug and keeps its traceback
        engine = sys.modules.get("singular_lct.engine")
        if engine is None or not isinstance(exc, engine.MainTheoremViolation):
            raise
        print(f"THEOREM VIOLATION\n{exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
