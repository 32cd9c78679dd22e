"""The benchmark's three workloads: seeded inputs, one op each, the oracle
that checks an op's answer, and the exact work counters of an op.

Each workload is built from ``(seed, limit)`` alone; the library only ever
sees the generated strings (or command lines).  An op is split in three so
that the timed region holds nothing but calls into the library:

* ``run(i, span)`` makes the library calls for input ``i``, each wrapped in
  ``span(name, fn, *args)`` so that the traced run can time it by layer;
* ``check(i, result)`` compares the answer with an oracle (untimed);
* ``count(i, result, counters)`` adds the op's exact work counts (untimed).

Every counter and layer name is ``<module>.<name>``, after the modules of
``src/singular_lct``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from singular_lct import (
    STRICT,
    TOTAL,
    BasisVector,
    MonomialIdeal,
    change_basis,
    check_main_theorem,
    diagram_to_staircase,
    jumping_numbers_curve,
    jumping_numbers_monomial,
    lct_cluster,
    lct_monomial,
    log_discrepancies,
    parse_polynomial,
    resolve_curve,
    staircase_to_diagram,
)
from singular_lct import cli
from singular_lct.corpus import SPECIAL_CURVES, coprime_pairs

COUNTERS = (
    "poly.parse_calls",
    "poly.input_terms",
    "resolution.resolve_calls",
    "resolution.points",
    "resolution.errors",
    "cluster.candidates",
    "cluster.jumps",
    "newton.lattice_points",
    "engine.theorem_calls",
    "engine.adapted_candidates",
    "engine.path_checks",
    "enriques.roundtrips",
    "cli.exit_nonzero",
)


class Workload:
    name = ""
    fresh_process = False  # does an op run in a fresh process?

    def __init__(self, seed: int, limit: int | None = None, root: str = "."):
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = self.generate()[:limit]

    def digest(self) -> str:
        """sha256 over the generated inputs, in op order."""
        h = hashlib.sha256()
        for item in self.inputs:
            h.update(repr(item).encode() + b"\n")
        return h.hexdigest()


# -- cusp-jumps -------------------------------------------------------------------


class CuspJumps(Workload):
    """All curves x^p - y^q with coprime 1 < p < q <= 20, in seeded order.
    Nearly all of the time goes to cluster completions in
    jumping_numbers_curve; every tangent root is 0, so poly.shift_y is a
    no-op, and engine/enriques are never entered."""

    name = "cusp-jumps"

    def generate(self):
        pairs = coprime_pairs(20)
        self.rng.shuffle(pairs)
        return [(p, q, f"x^{p} - y^{q}") for p, q in pairs]

    def run(self, i, span):
        p, q, text = self.inputs[i]
        f = span("poly.parse", parse_polynomial, text)
        kl, _ = span("resolution.resolve", resolve_curve, f)
        lct, _ = span("cluster.lct", lct_cluster, kl)
        curve_jumps = span("cluster.jumping", jumping_numbers_curve, kl, Fraction(1))
        ideal = MonomialIdeal(((p, 0), (0, q)))
        mono_lct = span("newton.lct", lct_monomial, ideal)
        mono_jumps = span("newton.jumping", jumping_numbers_monomial, ideal, Fraction(1))
        return f, kl, lct, curve_jumps, mono_lct, mono_jumps

    def check(self, i, result) -> bool:
        p, q, _ = self.inputs[i]
        _, _, lct, curve_jumps, mono_lct, mono_jumps = result
        # Howald: the jumps of x^p - y^q below 1 are a/p + b/q, a, b >= 1
        howald = sorted(
            x
            for x in {Fraction(a, p) + Fraction(b, q) for a in range(1, p) for b in range(1, q)}
            if x < 1
        )
        expected = Fraction(1, p) + Fraction(1, q)
        return (
            lct == expected
            and mono_lct == expected
            and curve_jumps == [x for x in mono_jumps if x < 1] == howald
        )

    def count(self, i, result, counters):
        f, kl, _, curve_jumps, _, _ = result
        p, q, _ = self.inputs[i]
        counters["poly.parse_calls"] += 1
        counters["poly.input_terms"] += len(f.terms)
        counters["resolution.resolve_calls"] += 1
        counters["resolution.points"] += len(kl.cluster)
        counters["cluster.candidates"] += len(candidates_below_one(kl))
        counters["cluster.jumps"] += len(curve_jumps)
        ideal = MonomialIdeal(((p, 0), (0, q)))
        max_exp = max(ideal.max_exponents())
        counters["newton.lattice_points"] += (2 * max_exp + 1) ** 2  # bound 1


def candidates_below_one(kl):
    """The distinct values (k_a + j)/e_a < 1, j >= 1, that the candidate
    scan of jumping_numbers_curve tries, rebuilt from public functions."""
    c = kl.cluster
    e = change_basis(BasisVector(kl.weights, TOTAL), STRICT, c).entries
    k = log_discrepancies(c).entries
    return {
        Fraction(k[a] + j, e[a])
        for a in range(len(c))
        for j in range(1, e[a] - k[a])
    }


# -- germ-theorem -----------------------------------------------------------------


COEFFICIENTS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
TILTS = (1, -1, 2, Fraction(1, 3))
GERMS = 300


def _coeff(c) -> str:
    return f"({c})" if isinstance(c, Fraction) or c < 0 else str(c)


class GermTheorem(Workload):
    """About 300 seeded reduced germs plus the corpus special curves.  A germ
    is a product of 1-3 distinct branches y^a - c x^b or x^a - c y^b
    (1 <= a < b <= 9, gcd(a, b) = 1); half are composed with
    x -> x + lambda y^k, k in {1, 2}, which puts infinitely near points at
    non-zero tangent roots, so poly.shift_y and resolution carry the op.  Germs are never
    multiplied by units: the germ-versus-global reducedness defect must not
    make ops fail fast here."""

    name = "germ-theorem"

    def generate(self):
        # The shapes of the germs (number of branches, which variable leads,
        # exponent pairs, tilt degree) are one fixed balanced design; the
        # seed picks the coefficients, the tilts and the order.  So every
        # seed does nearly the same work, and its slowest germs are alike.
        shape = random.Random(self.name)
        rng = self.rng
        pairs = [(a, b) for b in range(2, 10) for a in range(1, b) if math.gcd(a, b) == 1]
        deck = []
        germs = []
        for j in range(GERMS):
            branches = set()
            while len(branches) < 1 + j % 3:
                if not deck:
                    deck = shape.sample(pairs, len(pairs))
                a, b = deck.pop()
                lead = shape.choice("xy")
                branch = (lead, a, b, rng.choice(COEFFICIENTS))
                while branch in branches:
                    branch = (lead, a, b, rng.choice(COEFFICIENTS))
                branches.add(branch)
            tilt = None
            if j % 2:
                tilt = (rng.choice(TILTS), 1 + (j // 2) % 2)
            germs.append(_germ_text(sorted(branches, key=str), tilt))
        germs += [text for _, text in SPECIAL_CURVES]
        rng.shuffle(germs)
        return germs

    def run(self, i, span):
        f = span("poly.parse", parse_polynomial, self.inputs[i])
        kl, d = span("resolution.resolve", resolve_curve, f)
        report = span("engine.theorem", check_main_theorem, d)
        trips = []
        for cand in report.candidates:
            if cand.staircase.is_empty():
                continue
            back = span("enriques.to_diagram", staircase_to_diagram, cand.staircase)
            trips.append(
                (cand.staircase, span("enriques.to_staircase", diagram_to_staircase, back))
            )
        return f, kl, report, trips

    def check(self, i, result) -> bool:
        # check_main_theorem raises MainTheoremViolation on any mismatch
        _, _, report, trips = result
        return report.lct_direct == report.lct_term and all(s == t for s, t in trips)

    def count(self, i, result, counters):
        f, kl, report, trips = result
        counters["poly.parse_calls"] += 1
        counters["poly.input_terms"] += len(f.terms)
        counters["resolution.resolve_calls"] += 1
        counters["resolution.points"] += len(kl.cluster)
        counters["engine.theorem_calls"] += 1
        counters["engine.adapted_candidates"] += len(report.candidates)
        counters["engine.path_checks"] += len(report.path_checks)
        counters["enriques.roundtrips"] += len(trips)


def _germ_text(branches, tilt) -> str:
    x = "x" if tilt is None else f"(x + {_coeff(tilt[0])}*y^{tilt[1]})"
    factors = []
    for var, a, b, c in branches:
        u, v = ("y", x) if var == "y" else (x, "y")
        factors.append(f"({u}^{a} - {_coeff(c)}*{v}^{b})")
    return "*".join(factors)


# -- cli-cold ---------------------------------------------------------------------


# small curves whose term ideal has finite colength, as `newton` requires
CLI_CURVES = [
    "x^2 - y^3",
    "x^3 - y^4",
    "x^2 - y^5",
    "x^3 - y^5",
    "x^4 - y^5",
    "y^2 - x^4",
    "(x + y)^2 - x^3",
    "(x^3 - y^2)^2 - x^5*y",
    "(x^2 - y^3)*(x^3 - y^2)",
    "(y^2 - x^3)^2 - x^7",
]
CLI_COMMANDS = (
    lambda c: ["lct", "--curve", c],
    lambda c: ["jumping", "--curve", c, "--bound", "1"],
    lambda c: ["check-theorem", "--curve", c],
    lambda c: ["newton", "--json", "--poly", c],
    lambda c: ["resolve", "--json", "--curve", c],
)
CLI_CURVES_PER_PASS = 8  # 40 command lines: a tail with ten beyond p75


def cli_env(root: str) -> dict:
    """Environment of every cold CLI call.  Bytecode caching is pinned off,
    so each call compiles the package from source, whatever the caller's
    environment and whatever __pycache__ directories exist."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


class CliCold(Workload):
    """Each op is a fresh ``python -m singular_lct.cli`` process, so the
    import (sympy above all) dominates; compute on these small curves is
    negligible.  The expected stdout of every command line is computed
    in-process during set-up."""

    name = "cli-cold"
    fresh_process = True

    def __init__(self, seed, limit=None, root="."):
        super().__init__(seed, limit, root)
        self.env = cli_env(root)
        self.expected = [self._in_process(argv) for _, argv in self.inputs]

    def generate(self):
        curves = self.rng.sample(CLI_CURVES, CLI_CURVES_PER_PASS)
        ops = [(c, cmd(c)) for c in curves for cmd in CLI_COMMANDS]
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _in_process(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"in-process {argv} exited {code}")
        return out.getvalue()

    def _call(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "singular_lct.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def run(self, i, span):
        return span("cli.call", self._call, self.inputs[i][1])

    def check(self, i, result) -> bool:
        return result.returncode == 0 and result.stdout == self.expected[i]

    def count(self, i, result, counters):
        counters["cli.exit_nonzero"] += result.returncode != 0
        counters["poly.input_terms"] += len(parse_polynomial(self.inputs[i][0]).terms)


WORKLOADS = {w.name: w for w in (CuspJumps, GermTheorem, CliCold)}
