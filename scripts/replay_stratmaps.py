#!/usr/bin/env python3
"""Compare the stratified maps of two trees, output for output.

    python3 scripts/replay_stratmaps.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories holding a ``holoflux`` package.
The script loads each tree's ``holoflux/stratmaps.py`` by file path, which
works because that module imports only numpy and the standard library, and
builds the same maps in both from the public constructors, with the
parameters of the ``strat-certify`` benchmark workload
(``perfbench/bench_workloads.py``):

* the eight maps of the ``strat-diffeo`` suite;
* the winding maps of the workload's warm-up and pass 0 at seed 42;
* the inverses of all of them.

On every map it compares, with ``==`` or ``np.array_equal`` (NaN equal to
NaN, shapes and dtype kinds equal): ``forward``, ``inverse``,
``piece_name`` and ``pieces_at`` on seeded points (uniform in and around
the bbox, the boundary sampler's points and the bbox corners, each with its
+-1e-6 stencil); ``path_break_params`` on the segments between consecutive
points and, for a winding map, on the workload's axis; and
``verify_stratified`` at two seeds.  It prints the number of comparisons
per output and every mismatch; it exits with 1 on any mismatch, 0
otherwise.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 42
OUTPUTS = ("forward", "inverse", "piece_name", "pieces_at", "path_break_params",
           "verify_stratified")
VERIFY_SEEDS = (3, 808)
VERIFY_SAMPLES = 256  # the workload's samples per certificate


def load_stratmaps(src: Path, name: str):
    path = src / "holoflux" / "stratmaps.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def build_maps(bench, SM) -> dict:
    """name -> (map, axis or None) of the workload's maps built with SM, and
    their inverses."""
    bench.SM = SM  # the workload builds its maps through this name
    wl = bench.WORKLOADS["strat-certify"]()
    maps = {name: (m, None) for name, m in wl.maps.items()}
    items = [("warmup", wl.make_pool(SEED)), ("pass0", wl.pass_items(0))]
    for tag, batch in items:
        windings = [args for kind, args in batch if kind == "winding"]
        for k, (phi, axis, *_rest) in enumerate(windings):
            ends = np.asarray(axis.vertices, dtype=float)
            maps[f"winding:{tag}:{k}"] = (phi, (ends[0], ends[-1]))
    maps.update({f"inverse({name})": (m.inverted(), axis)
                 for name, (m, axis) in list(maps.items())})
    return maps


def points(m, rng) -> np.ndarray:
    lo, hi = m.bbox
    span = hi - lo
    base = np.concatenate([
        lo - 0.25 * span + rng.uniform(size=(200, m.dim)) * 1.5 * span,
        np.asarray(m.boundary_sampler(rng, 100), dtype=float).reshape(-1, m.dim),
        np.array(list(itertools.product(*zip(lo, hi))), dtype=float),
    ])
    steps = 1e-6 * np.eye(m.dim)
    return np.concatenate([base] + [base + e for e in steps] + [base - e for e in steps])


def outputs(SM, m, pts: np.ndarray, axis) -> dict:
    """output name -> [values] of m, a map of module SM, on the points, the
    segments and the verification seeds."""
    starts, ends = pts[:-1], pts[1:]
    breaks = [m.path_break_params(starts, ends)]
    if axis is not None:
        breaks.append(m.path_break_params(*axis))
    return {
        "forward": [m.forward(pts), m.forward(pts[0])],
        "inverse": [m.inverse(pts), m.inverse(pts[0])],
        "piece_name": [m.piece_name(pts), m.piece_name(pts[0])],
        "pieces_at": m.pieces_at(pts),
        "path_break_params": breaks,
        "verify_stratified": [SM.verify_stratified(m, VERIFY_SAMPLES, np.random.default_rng(s))
                              for s in VERIFY_SEEDS],
    }


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return (a.shape == b.shape and a.dtype.kind == b.dtype.kind
                and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b


def compare(old_sm, old_maps: dict, new_sm, new_maps: dict) -> tuple:
    """(comparisons per output, mismatch messages)."""
    counts = Counter()
    bad = []
    for i, (name, (old, axis)) in enumerate(old_maps.items()):
        new, _axis = new_maps[name]
        pts = points(old, np.random.default_rng([SEED, i]))
        got, want = outputs(new_sm, new, pts, axis), outputs(old_sm, old, pts, axis)
        for out in OUTPUTS:
            for k, (w, g) in enumerate(zip(want[out], got[out])):
                counts[out] += 1
                if not same(w, g):
                    bad.append(f"{name}: {out} [{k}] differs")
            if len(want[out]) != len(got[out]):
                bad.append(f"{name}: {out} gives {len(got[out])} values, not {len(want[out])}")
    return counts, bad


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_src, new_src = Path(argv[1]).resolve(), Path(argv[2]).resolve()
    # the workload module imports the package; its maps come from the loaded modules
    sys.path.insert(0, str(old_src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench_workloads

    old_sm = load_stratmaps(old_src, "replayed_stratmaps_old")
    new_sm = load_stratmaps(new_src, "replayed_stratmaps_new")
    old, new = build_maps(bench_workloads, old_sm), build_maps(bench_workloads, new_sm)
    if old.keys() != new.keys():
        print("the two trees build different map lists")
        return 1
    counts, bad = compare(old_sm, old, new_sm, new)
    print(f"{len(old)} maps")
    for out in OUTPUTS:
        print(f"{out:20s} {counts[out]:6d} comparisons")
    print(f"{'total':20s} {sum(counts.values()):6d} comparisons, {len(bad)} mismatches")
    for line in bad[:20]:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
