"""Benchmark of singular_lct: seeded workloads through the public API, every
answer checked against an oracle.

    python3 bench/run.py --workload cusp-jumps --seed 1 --seconds 30 --trace 0

Workloads (workloads.py says why each was chosen): cusp-jumps,
germ-theorem, cli-cold.  Ops run in a closed loop from one client: each op
starts when the previous one has finished.  A run goes over the workload's
whole input set in passes (at least one, two when traced) and starts
another pass only while it is expected to end within --seconds; every pass
does the same work, so the metrics do not depend on where the clock ran
out.  An input's latency is its median over the passes.

Every time is rescaled to a reference machine speed by a gauge (gauge.py):
ops in this process by a stdlib arithmetic kernel, and anything run in a
fresh process by a fresh stdlib-only interpreter, each timed just before
and after.  The raw wall times are printed beside them and saved.

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh processes of process start to ready for
               the first op (interpreter, imports, input generation, and
               for cli-cold the expected outputs)
  ops_per_s    verified ops per second of op time
  op_p50_ms    median latency over the inputs
  op_tail_ms   latency at the highest of the percentiles 99.9, 99, 95, 90,
               75, 50 that leaves at least ten inputs beyond it
  ok_frac      verified ops / ops attempted, i.e. 1 - fail_frac (fail_frac
               itself is printed with its base; a metric may never be 0)
  peak_rss_mb  peak resident memory of the process that runs the ops: this
               one, or for cli-cold the largest CLI process
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: self seconds per pass of each layer call (median over traced
passes), the exact work counters of one pass, and the import times of a
fresh CLI process; also a self-time table and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The environment, input digest, counters,
errors and spans go to .bench_out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# every process compiles the package from source: none writes a
# __pycache__, so no run starts warmer than another
sys.dont_write_bytecode = True

from gauge import Gauge  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SAMPLE_PERIOD = 0.1  # seconds between gauge samples taken during in-process ops
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
LAYER_SPANS = (
    "poly.parse",
    "resolution.resolve",
    "cluster.lct",
    "cluster.jumping",
    "newton.lct",
    "newton.jumping",
    "enriques.to_staircase",
    "enriques.to_diagram",
    "engine.theorem",
    "cli.call",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, help="use only the first N inputs (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(1, math.ceil(len(s) * pct / 100)) - 1]


def per_input(ops, n, seconds):
    """Each input's latency: its median over the passes."""
    by_input = [[] for _ in range(n)]
    for op in ops:
        by_input[op[1] % n].append(seconds(op))
    return [statistics.median(v) for v in by_input]


def tail_percentile(count):
    return next(
        (p for p in TAIL_PERCENTILES if count * (100 - p) / 100 >= 10),
        TAIL_PERCENTILES[-1],
    )


def environment(cli_env):
    import sympy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        # pinned off whatever the caller set: every process compiles the
        # package from source
        "caller_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bytecode_writes": not sys.dont_write_bytecode,
        "cli_bytecode_writes": cli_env.get("PYTHONDONTWRITEBYTECODE") != "1",
        "platform": platform.platform(),
    }


def gauged(gauge, fn, samples):
    """Run ``fn`` ``samples`` times between gauge samples; return the
    rescaled and the raw results, each the median over the runs."""
    raw, spans = [], []
    for _ in range(samples):
        gauge.tick()
        t0 = time.perf_counter()
        raw.append(fn())
        spans.append((t0, time.perf_counter()))
    gauge.tick()
    scaled = [[x * gauge.scale(*span) for x in r] for r, span in zip(raw, spans)]
    return [statistics.median(col) for col in zip(*scaled)], [
        statistics.median(col) for col in zip(*raw)
    ]


def setup_probe(args, env):
    """Seconds from spawning a fresh process until it is ready for the
    first op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    return [elapsed]


def import_probe(env):
    """Cumulative import seconds of singular_lct.cli and of sympy in a fresh
    interpreter, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import singular_lct.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
    total = sym = 0
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        if name in (" singular_lct", " singular_lct.cli"):  # top level only
            total += int(fields[1])
        elif name.strip() == "sympy":
            sym = int(fields[1])
    return [total / 1e6, sym / 1e6]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "singular_lct")):
        print(f"error: no singular_lct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from singular_lct import ResolutionError
    from tracing import Tracer, untraced
    from workloads import COUNTERS, WORKLOADS, cli_env

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.limit, ROOT)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    n = len(wl.inputs)
    if not n:
        print("error: empty input set", file=sys.stderr)
        return 2

    gauge = Gauge.process() if wl.fresh_process else Gauge.kernel()
    probe_gauge = Gauge.process()
    tracer = Tracer(gauge.clock)
    ops = []  # (traced, op id, start, end, seconds busy, ok)
    pass_counters, errors = [], []
    loop_start = time.perf_counter()
    passes = 0
    cpus = os.sched_getaffinity(0)
    if not wl.fresh_process:
        # ops and kernel gauge on one CPU, so that the gauge measures the
        # CPU the ops run on; fresh processes are left to the scheduler,
        # which the process gauge tracks only when it is not pinned
        os.sched_setaffinity(0, {min(cpus)})
        gauge.sample_every(SAMPLE_PERIOD)
    min_passes = 2 if args.trace else 1
    while passes < min_passes or (
        (time.perf_counter() - loop_start) * (passes + 1) / passes <= args.seconds
    ):
        traced = bool(args.trace) and passes % 2 == 1
        counters = dict.fromkeys(COUNTERS, 0)
        gc.collect()
        for i in range(n):
            op_id = passes * n + i
            gauge.tick()
            t0, paused = time.perf_counter(), gauge.paused
            try:
                if traced:
                    result = tracer.op(op_id, wl.run, i, tracer.call)
                else:
                    result = wl.run(i, untraced)
                t1 = time.perf_counter()
                ok = wl.check(i, result)
                wl.count(i, result, counters)
                error = None if ok else "wrong answer"
            except Exception as exc:  # a failed op is counted, never dropped
                t1 = time.perf_counter()
                ok = False
                counters["resolution.errors"] += isinstance(exc, ResolutionError)
                error = f"{type(exc).__name__}: {exc}"
            ops.append((traced, op_id, t0, t1, t1 - t0 - (gauge.paused - paused), ok))
            if error:
                errors.append(f"op {i} {wl.inputs[i]!r}: {error}")
        gauge.tick()  # closes the interval of the pass's last op
        pass_counters.append(counters)
        passes += 1
    gauge.sample_every(0)
    os.sched_setaffinity(0, cpus)

    rss_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    ).ru_maxrss
    env = cli_env(ROOT)
    attempted = len(ops)
    failed = sum(not op[5] for op in ops)
    counters = pass_counters[0]
    counters_repeat = all(c == counters for c in pass_counters)
    correct = failed == 0 and counters_repeat
    wall = {op[1]: op[4] for op in ops}
    scale = {op[1]: gauge.scale(op[2], op[3]) for op in ops}

    def throughput(rows, rescale=True):
        busy = sum(wall[r[1]] * (scale[r[1]] if rescale else 1) for r in rows)
        return sum(r[5] for r in rows) / busy

    untraced_ops = [op for op in ops if not op[0]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": n,
        "input_digest": "sha256:" + wl.digest(),
        "env": environment(env),
        "passes": passes,
        "fail_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "counters": counters,
        "counters_repeat": counters_repeat,
        "errors": errors[:20],
        "ops": [  # input index, pass, traced, wall seconds, rescaled seconds, ok
            [op[1] % n, op[1] // n, op[0], wall[op[1]], wall[op[1]] * scale[op[1]], op[5]]
            for op in ops
        ],
    }
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {n} inputs, {record['input_digest']}, "
          f"{passes} passes, closed loop, 1 client")
    print(f"  fail_frac {failed / attempted:g} ({failed} of {attempted} ops)")
    if not counters_repeat:
        print("  FAILED: work counters differ between passes", file=sys.stderr)
    for line in errors[:5]:
        print(f"  FAILED {line}", file=sys.stderr)

    if not args.trace:
        setup, setup_raw = gauged(probe_gauge, lambda: setup_probe(args, env), SETUP_SAMPLES)
        raw = per_input(untraced_ops, n, lambda op: wall[op[1]])
        lat = per_input(untraced_ops, n, lambda op: wall[op[1]] * scale[op[1]])
        tail = tail_percentile(n)
        metrics = {
            "setup_s": (setup[0], "s"),
            "ops_per_s": (throughput(untraced_ops), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (percentile(lat, tail) * 1e3, "ms"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        record["raw_wall"] = {
            "setup_s": setup_raw[0],
            "ops_per_s": throughput(untraced_ops, rescale=False),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": percentile(raw, tail) * 1e3,
        }
        print(f"  op_tail_ms is p{tail:g} over {n} inputs, {len(untraced_ops)} ops")
        print("  raw wall: " + ", ".join(f"{k} {v:.6g}" for k, v in record["raw_wall"].items()))
    else:
        traced_ops = [op for op in ops if op[0]]
        per_pass = [
            tracer.self_times({op[1]: scale[op[1]] for op in traced_ops if op[1] // n == p})
            for p in range(1, passes, 2)
        ]

        def layer_s(name):
            return statistics.median(t.get(name, 0.0) for t in per_pass)

        metrics = {name + "_s": (layer_s(name), "s") for name in LAYER_SPANS}
        metrics.update((name, (counters[name], "count")) for name in COUNTERS)
        jumps, cands = counters["cluster.jumps"], counters["cluster.candidates"]
        metrics["cluster.jump_yield"] = (jumps / cands if cands else 0.0, "frac")
        (import_s, sympy_s), _ = gauged(probe_gauge, lambda: import_probe(env), IMPORT_SAMPLES)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["cli.sympy_import_s"] = (sympy_s, "s")
        overhead = throughput(untraced_ops) / throughput(traced_ops) - 1
        record["trace_overhead"] = overhead
        record["spans"] = tracer.to_json()
        names = ("op", *LAYER_SPANS)
        total = sum(layer_s(k) for k in names)
        print(f"  self time per pass, median of {len(per_pass)} traced passes "
              "('op' is the harness around the calls):")
        for name in names:
            if layer_s(name):
                print(f"    {name:<24} {layer_s(name):10.4f} s  {100 * layer_s(name) / total:5.1f}%")
        print(f"  cluster.jump_yield {metrics['cluster.jump_yield'][0]:g} "
              f"({jumps} jumps of {cands} candidates)")
        print(f"  tracing overhead {100 * overhead:+.1f}% (untraced over traced ops_per_s)")

    record["gauges"] = {"ops": gauge.record(), "processes": probe_gauge.record()}
    for key, g in record["gauges"].items():
        print(f"  {key} gauge: {g['reference']} reference, median {g['median_ms']:.4g} ms, "
              f"times rescaled to {g['nominal_ms']:g} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
