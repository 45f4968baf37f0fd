#!/usr/bin/env python3
"""Self-check of the holoflux benchmark.

    python3 perfbench/selfcheck.py

Checks, in order:

1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, with the
   same units.
2. Tracing restores every wrapped holoflux binding to the original object.
3. The items of a pass are the same for the same seed and pass index, and
   their random draws differ from one pass to the next; only the states of
   ``weyl-ops`` are the same objects in every pass.
4. A short run of every workload (one pass) has no failed op.
5. Two traced runs with the same seed give identical counts: ``*.calls``,
   ``cylindrical.monomials_out``, ``stratmaps.point_evals`` and every other
   metric counted in ``count`` or bytes.
6. In a directory holding only ``BENCHMARK.json`` and the benchmark's
   files, the benchmark exits nonzero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

SEED = 7
COUNT_UNITS = ("count", "B")  # *.calls, monomials, point evaluations, bytes, ...


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *map(str, args)], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") else None
    return proc.returncode, result


def check_manifest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, f"end_to_end differs: {e2e} vs {run.END_TO_END}"
    assert layer == run.PER_LAYER, "per_layer differs from run.PER_LAYER"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def check_restore():
    import bench_workloads as bw
    from bench_trace import Tracer

    def bindings():
        out = {}
        for name, mod in sys.modules.items():
            if name == "holoflux" or name.startswith("holoflux."):
                out.update({(name, k): v for k, v in vars(mod).items()})
                for cname, cls in vars(mod).items():
                    if isinstance(cls, type) and cls.__module__ == name:
                        out.update({(name, cname, k): v for k, v in vars(cls).items()})
        return out

    before = bindings()
    wl = bw.WORKLOADS["weyl-ops"]()
    warmup = wl.make_pool(SEED)
    tracer = Tracer(run.LAYERS)
    with tracer:
        replaced = tracer.wrapped_bindings()
        assert replaced, "tracing wrapped nothing"
        wl.run(warmup[0], tracer)
    assert tracer.calls.get("weylops.apply_weyl"), "apply_weyl was not traced"
    after = bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, f"not restored: {changed[:5]}"
    print(f"ok  restore: {len(replaced)} bindings wrapped and put back")


def fingerprint(obj):
    """The strings, numbers and matrices inside a pool item."""
    if isinstance(obj, (str, int, float)):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [x for o in obj for x in fingerprint(o)]
    matrix = getattr(obj, "matrix", obj)
    return [matrix.tobytes()] if hasattr(matrix, "tobytes") else []


def check_passes():
    import bench_workloads as bw

    for name in run.WORKLOAD_NAMES:
        wl = bw.WORKLOADS[name]()
        wl.make_pool(SEED)
        one, again, two = wl.pass_items(1), wl.pass_items(1), wl.pass_items(2)
        assert fingerprint(one) == fingerprint(again), f"{name}: pass 1 is not reproducible"
        assert fingerprint(one) != fingerprint(two), f"{name}: passes 1 and 2 draw the same"
        if name == "weyl-ops":
            assert all(a[1][0] is b[1][0] for a, b in zip(one, two)), \
                "weyl-ops: states differ between passes"
    print("ok  passes: reproducible per (seed, pass), fresh draws in every pass")


def check_runs():
    for name in run.WORKLOAD_NAMES:
        code, res = bench("--workload", name, "--seed", SEED, "--seconds", 1, "--trace", 0)
        assert code == 0 and res and res["failed"] == 0 and res["attempted"] > 0, \
            f"{name}: exit {code}, result {res}"
        counts = []
        for _ in range(2):
            code, res = bench("--workload", name, "--seed", SEED, "--seconds", 1, "--trace", 1)
            assert code == 0 and res and res["failed"] == 0, f"{name} traced: exit {code}"
            counts.append({k: v["value"] for k, v in res["metrics"].items()
                           if v["unit"] in COUNT_UNITS})
        assert counts[0] == counts[1], f"{name}: traced counts differ between runs"
        print(f"ok  {name}: no failed op; traced counts repeat ({len(counts[0])} compared)")


def check_bare():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, res = bench("--workload", "weyl-ops", "--seed", 1, "--seconds", 1, "--trace", 0,
                          cwd=bare, script=bare / BENCH_DIR.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and res is None, f"bare directory: exit {code}, result {res}"
    print(f"ok  bare directory: exit {code}, no result")


def main():
    failures = 0
    for step in (check_manifest, check_restore, check_passes, check_runs, check_bare):
        try:
            step()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {step.__name__}: {exc}")
    print("selfcheck:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
