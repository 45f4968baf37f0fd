#!/usr/bin/env python3
"""holoflux benchmark: one closed-loop client driving the layers directly.

    python3 perfbench/run.py --workload weyl-ops --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 25

One process, one client: each op is issued only after the previous one has
completed, with BLAS pinned to one thread.  Set-up (import, the per-seed
inputs and the first pass drawn from the seed, warm-up) happens before the
first timed op.  ``setup_s`` is the median of this process's set-up and
SETUP_PROBES more in fresh processes (``--setup-only``), so no sample is
taken on a process that is already warm.  The timed phase runs whole passes
and ends after the pass that brings it nearest to ``--seconds``; the items
of each later pass are drawn between passes, outside the timing.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
nominal host speed.  Before the first op and after every op, outside the
timing, the run times a fixed pure-Python reference slice (integer
arithmetic, then building and summing a dict of tuples).  Each op's latency
is multiplied by REF_NOMINAL_S / (median of the REF_WINDOW slices before it
and the REF_WINDOW after it), and each set-up by REF_NOMINAL_S / (median of
SETUP_REF_SLICES slices timed right after it).  A median of several slices,
not the slices next to the op alone, because one slice is noisy and
dividing by a noisy time biases the scaled latency upwards.  The host's speed
drifts by tens of per cent over minutes, and the scaling takes most of that
drift out; the times as measured, the median factor and the slice times are
in the report line.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  The traced passes are passes 0, 1, 2, ... of the
untraced run, so they see the same inputs; the untraced passes between them
draw from other pass indices.  Counts come from the first traced pass, so
they repeat exactly for a seed; repeat shares cover every traced pass;
times are averaged over the traced passes.  ``--workload all`` runs every
workload untraced and traced, each in its own process, and prints every
metric with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any op failed its check or raised, 2 on a usage error or when the
holoflux sources are missing.  All measurement is process-local
(``time.perf_counter``, ``resource.getrusage``); nothing traces the system.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("weyl-ops", "strat-certify", "scene-fresh", "mc-oracle")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # set-ups in fresh processes, besides this process's own
REF_ITERS = 20_000  # one reference slice: about 2 ms of pure Python
REF_NOMINAL_S = 0.002  # the slice time of the nominal host the times are scaled to
REF_WINDOW = 5  # slices on each side of an op that set its host speed
SETUP_REF_SLICES = 9  # slices timed after each set-up, for its host speed
UNTRACED_PASS_BASE = 1 << 20  # pass indices of the untraced passes of a traced run

END_TO_END = {  # name -> unit
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("liegroup", "geometry", "connections", "cylindrical", "weylops",
          "stratmaps", "estimates", "scene")
PER_LAYER = {}  # name -> unit, in report order
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.self_s": "s",
                      f"{_layer}.self_frac": "1", f"{_layer}.errors": "count"})
PER_LAYER.update({
    "geometry.decompose_minimal.calls": "count",
    "geometry.decompose_minimal.self_s": "s",
    "geometry.decompose_repeat_frac": "1",
    "weylops.apply_weyl.self_s": "s",
    "weylops.apply_weyl.us_per_monomial": "us",
    "cylindrical.monomials_out": "count",
    "cylindrical.term_keys": "count",
    "stratmaps.point_evals": "count",
    "stratmaps.point_evals_per_s": "1/s",
    "liegroup.evaluate.calls": "count",
    "liegroup.evaluate_repeat_frac": "1",
    "liegroup.elements_built": "count",
    "cylindrical.mc_samples_per_s": "1/s",
    "estimates.assignments_per_s": "1/s",
    "scene.bytes_written": "B",
    "scene.bytes_read": "B",
    "trace.spans": "count",
    "trace.overhead_frac": "1",
})


class NullCtx:
    """Counter sink of untraced passes."""

    op_id = -1

    def count(self, name, n):
        pass


def environment():
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "clients": 1,
        "loop": "closed",
        "measurement": "process-local (time.perf_counter, resource.getrusage); "
                       "no system-wide tracing",
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Runner:
    """Runs ops one at a time and counts those that fail their check or raise."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, item, ctx):
        self.attempted += 1
        t = time.perf_counter()
        try:
            self.wl.run(item, ctx)
        except Exception as exc:  # a failed op is counted, never fatal
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t

    def run_pass(self, items, ctx, latencies=None, refs=None):
        """Run the items; return the pass's time less any reference slices."""
        t = time.perf_counter()
        ref_s = 0.0
        for k, item in enumerate(items):
            ctx.op_id = k
            dt = self.op(item, ctx)
            if latencies is not None:
                latencies.append(dt)
            if refs is not None:
                refs.append(reference_slice())
                ref_s += refs[-1]
        return time.perf_counter() - t - ref_s


def reference_slice():
    """Time fixed pure-Python work, which tracks the host's current speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    table = {(i, i % 13): [i, acc] for i in range(REF_ITERS // 8)}
    acc += sum(v[0] for v in table.values())
    return time.perf_counter() - t


def set_up(name, seed):
    """Import the layers, draw the per-seed inputs and pass 0, warm up."""
    t = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import holoflux  # noqa: F401
    import bench_workloads

    if Path(holoflux.__file__).resolve().parent != (SRC / "holoflux").resolve():
        raise ImportError(f"holoflux was imported from {holoflux.__file__}, not {SRC}")
    runner = Runner(bench_workloads.WORKLOADS[name]())
    warmup = runner.wl.make_pool(seed)
    first = runner.wl.pass_items(0)
    runner.run_pass(warmup, NullCtx())
    return runner, first, time.perf_counter() - t


def setup_sample(setup_s):
    """(set-up time as measured, median reference slice timed right after it)."""
    return setup_s, statistics.median(reference_slice() for _ in range(SETUP_REF_SLICES))


def setup_probes(name, seed):
    """Set-up samples of SETUP_PROBES fresh processes, one after the other."""
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_sample"]))
    return out


def next_pass(runner, i, gen):
    """The items of pass i, drawn outside the timed passes."""
    t = time.perf_counter()
    items = runner.wl.pass_items(i)
    gen[0] += time.perf_counter() - t
    return items


def latency_metrics(lat, wall):
    lat = sorted(lat)
    n = len(lat)
    # the highest order statistic with 10 samples beyond it (never below the
    # median, when a run is too short to have one)
    tail_i = max(n - 11, n // 2)
    metrics = {
        "ops_per_s": n / wall,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * lat[tail_i],
    }
    return metrics, {"tail_percentile": 100.0 * (tail_i + 1) / n,
                     "tail_samples_beyond": n - 1 - tail_i}


def untraced(runner, first, seconds):
    """Time whole passes; return (scaled metrics, metrics as measured, report)."""
    latencies, pass_s, gen = [], [], [0.0]
    refs = [reference_slice()]  # refs[k] and refs[k + 1] bracket op k
    items, i = first, 0
    gc.collect()
    while True:
        pass_s.append(runner.run_pass(items, NullCtx(), latencies, refs))
        i += 1
        if sum(pass_s) + pass_s[-1] / 2 > seconds:  # end nearest to --seconds
            break
        items = next_pass(runner, i, gen)
    # each op's latency at the host speed of the slices around it
    scaled = [REF_NOMINAL_S * t / statistics.median(refs[max(0, k + 1 - REF_WINDOW):
                                                        k + 1 + REF_WINDOW])
              for k, t in enumerate(latencies)]
    metrics, tail = latency_metrics(scaled, sum(scaled))
    as_measured, _ = latency_metrics(latencies, sum(pass_s))
    ref = statistics.median(refs)
    report = {
        "passes": i,
        "pass_s": pass_s,
        "ops": len(latencies),
        "wall_s": sum(pass_s),
        "pass_generation_s": gen[0],
        "failed_ops_frac": runner.failed / max(runner.attempted, 1),
        **tail,
        "ref_slice_ms": {"median": 1e3 * ref, "min": 1e3 * min(refs),
                         "max": 1e3 * max(refs), "nominal": 1e3 * REF_NOMINAL_S},
        "host_scale": REF_NOMINAL_S / ref,
    }
    return metrics, as_measured, report


def traced(runner, first_items, seconds, spans_path):
    from bench_trace import Tracer

    tracer = Tracer(LAYERS)
    first = None
    walls = {"untraced": 0.0, "traced": 0.0}
    gen = [0.0]
    batch, passes = first_items, 0
    gc.collect()
    while True:
        plain = next_pass(runner, UNTRACED_PASS_BASE + passes, gen)
        before = sum(walls.values())
        if passes % 2:  # alternate the order, so drift within a pair cancels
            walls["untraced"] += runner.run_pass(plain, NullCtx())
        tracer.begin_pass()
        with tracer:
            walls["traced"] += runner.run_pass(batch, tracer)
        if not passes % 2:
            walls["untraced"] += runner.run_pass(plain, NullCtx())
        passes += 1
        if first is None:
            first = (dict(tracer.calls), dict(tracer.errors), dict(tracer.counts),
                     tracer.span_count())
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(spans_path)
        pair = sum(walls.values()) - before
        if sum(walls.values()) + pair / 2 > seconds:
            break
        batch = next_pass(runner, passes, gen)
    calls, errors, counts, spans = first
    tot_self, tot_incl, tot_count = tracer.total_self, tracer.total_incl, tracer.total_count
    tot_calls = tracer.total_calls

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = layer_sum(calls, layer)
        m[f"{layer}.self_s"] = layer_sum(tot_self, layer) / passes
        m[f"{layer}.self_frac"] = layer_sum(tot_self, layer) / walls["traced"]
        m[f"{layer}.errors"] = layer_sum(errors, layer)
    dm = "geometry.decompose_minimal"
    ev = "liegroup.Irrep.evaluate"
    aw = "weylops.apply_weyl"
    m.update({
        f"{dm}.calls": calls.get(dm, 0),
        f"{dm}.self_s": tot_self.get(dm, 0.0) / passes,
        "geometry.decompose_repeat_frac": ratio(tot_count.get("geometry.decompose_repeats", 0),
                                                tot_calls.get(dm, 0)),
        f"{aw}.self_s": tot_self.get(aw, 0.0) / passes,
        f"{aw}.us_per_monomial": ratio(1e6 * tot_self.get(aw, 0.0),
                                       tot_count.get(f"{aw}.monomials_out", 0)),
        "cylindrical.monomials_out": counts.get("cylindrical.monomials_out", 0),
        "cylindrical.term_keys": counts.get("cylindrical.term_keys", 0),
        "stratmaps.point_evals": counts.get("stratmaps.point_evals", 0),
        "stratmaps.point_evals_per_s": ratio(tot_count.get("stratmaps.point_evals", 0),
                                             layer_sum(tot_self, "stratmaps")),
        "liegroup.evaluate.calls": calls.get(ev, 0),
        "liegroup.evaluate_repeat_frac": ratio(tot_count.get("liegroup.evaluate_repeats", 0),
                                               tot_calls.get(ev, 0)),
        "liegroup.elements_built": counts.get("liegroup.elements_built", 0),
        "cylindrical.mc_samples_per_s": ratio(tot_count.get("cylindrical.mc_samples", 0),
                                              tot_incl.get("cylindrical.inner_product_mc", 0.0)),
        "estimates.assignments_per_s": ratio(tot_count.get("estimates.assignments", 0),
                                             tot_incl.get("estimates.winding_average_check", 0.0)),
        "scene.bytes_written": counts.get("scene.bytes_written", 0),
        "scene.bytes_read": counts.get("scene.bytes_read", 0),
        "trace.spans": spans,
        "trace.overhead_frac": walls["traced"] / walls["untraced"] - 1.0,
    })
    report = {"traced_passes": passes, "wall_s": walls, "pass_generation_s": gen[0],
              "spans_file": str(spans_path)}
    return m, report


def run_one(args):
    try:
        runner, first, setup_s = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import the holoflux layers from {SRC}: {exc}", file=sys.stderr)
        return 2
    sample = setup_sample(setup_s)
    if args.setup_only:
        print(json.dumps({"setup_sample": sample}))
        return 0
    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        values, report = traced(runner, first, args.seconds, spans)
        units = PER_LAYER
    else:
        values, measured, report = untraced(runner, first, args.seconds)
        values["peak_rss_mb"] = peak_rss_mb()  # before the probes, other processes
        samples = [sample] + setup_probes(args.workload, args.seed)
        measured["setup_s"] = statistics.median(t for t, _ in samples)
        values["setup_s"] = statistics.median(t * REF_NOMINAL_S / ref for t, ref in samples)
        report.update(as_measured=measured, setup_samples_s_ref_s=samples)
        units = END_TO_END
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures, env=environment())
    print(json.dumps({"report": report}))
    for name, unit in units.items():
        print(f"# {args.workload:14s} {name:40s} {values[name]:>16.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    rows, attempted, failed, status = {}, 0, 0, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            status = max(status, proc.returncode)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                continue
            res = json.loads(lines[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            rows.update({f"{name}/{k}": v for k, v in res["metrics"].items()})
            if not trace:
                rows[f"{name}/failed_ops_frac"] = {
                    "value": res["failed"] / max(res["attempted"], 1), "unit": "1"}
                report = next(json.loads(ln)["report"] for ln in lines
                              if ln.startswith('{"report"'))
                print(f"# {name}: tail = p{report['tail_percentile']:.2f} of {report['ops']} ops "
                      f"({report['tail_samples_beyond']} beyond), {report['passes']} passes")
    for key, v in rows.items():
        print(f"{key:55s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0 and status == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": rows}))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {\"setup_sample\": [seconds, reference slice "
                         "seconds]} and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must not be negative")
    if not (SRC / "holoflux" / "__init__.py").is_file():
        print(f"holoflux sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave the checkout as it was
    for var in BLAS_VARS:  # before numpy is first imported, in set_up
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
