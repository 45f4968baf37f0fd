#!/usr/bin/env python3
"""Replay recorded geometry calls through another tree's ``geometry.py``.

    python3 scripts/replay_geometry.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories holding a ``holoflux`` package.
With OLD_SRC on the import path, the script runs three sources of
geometry calls and records every call of the geometry functions in
``RECORDED``, nested calls included, with its arguments and its result (or
the error it raised):

* the warm-up and pass 0 at seed 42 of the benchmark workloads
  ``scene-fresh``, ``strat-certify`` and ``weyl-ops``
  (``perfbench/bench_workloads.py``), whose surfaces are all of
  codimension 1 and whose pieces are all external;
* the ``decomposition`` suite at seed 42, whose 2-D scenes have internal
  pieces;
* ``r3_scenes``: seeded R^3 scenes whose surfaces hold segment and point
  pieces (codimension 2 and 3), met by paths at points and along runs.

It then loads NEW_SRC's ``holoflux/geometry.py`` by file path, which works
because that module imports nothing from the package, rebuilds each call's
paths, surfaces and affine maps from their public fields in the loaded
module, and makes the call again.  Stratified maps (``map_path`` in
``strat-certify``) are passed to the replayed call as they are: the replay
hands OLD_SRC's stratified map to NEW_SRC's ``geometry.py``, so it does not
gate a change to ``stratmaps``; ``scripts/replay_stratmaps.py`` and the
reference tests in ``tests/test_stratmaps.py`` do.

Inputs must rebuild to the recorded ones, compared on the fields a
dataclass takes at construction; fields it derives (such as a simplex's
integer rows) may differ between the trees.  Results are compared in full
with ``==`` after reducing them to plain values that keep every type: vertex
coordinates and their types, the float breakpoints ``_cum`` of each path,
the fields of every dataclass (pieces, statuses, parameters, points,
signs), and graphs as their edge ids and paths.  The script prints the
number of calls per function, how many internal pieces the replayed
decompositions returned and how many codimension >= 2 simplices the
replayed calls took, and every mismatch; it exits with 1 on any mismatch,
0 otherwise.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 42
WORKLOADS = ("scene-fresh", "strat-certify", "weyl-ops")
RECORDED = ("decompose_minimal", "punctures", "completely_transversal",
            "sigma_eval", "build_graph", "_segment_simplex_events",
            "_strictly_between", "_segment_segment", "map_path", "map_surface")
R3_SCENES = 40


class NullCtx:
    """The counter sink a workload op expects; counts nothing."""

    op_id = -1

    def count(self, name, n):
        pass


def record(old_src: Path) -> list:
    """[(name, args, kwargs, outcome)] of every recorded call, in call order."""
    sys.path.insert(0, str(old_src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import holoflux
    import holoflux.geometry as G
    import holoflux.suites

    if Path(holoflux.__file__).resolve().parent != (old_src / "holoflux").resolve():
        raise SystemExit(f"holoflux was imported from {holoflux.__file__}, not {old_src}")
    import bench_workloads

    calls = []

    def wrap(name, fn):
        def recorded(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                calls.append((name, args, kwargs, ("raised", type(exc).__name__, str(exc))))
                raise
            calls.append((name, args, kwargs, ("returned", out)))
            return out
        return recorded

    # rebind each function wherever a holoflux module or the workloads hold it
    targets = {}
    for name in RECORDED:
        fn = getattr(G, name)
        targets[id(fn)] = fn, wrap(name, fn)
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n.startswith("holoflux") or n == "bench_workloads")]
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            hit = targets.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    for wl_name in WORKLOADS:
        wl = bench_workloads.WORKLOADS[wl_name]()
        items = wl.make_pool(SEED) + wl.pass_items(0)
        for item in items:
            wl.run(item, NullCtx())
    holoflux.suites.run_checks("decomposition", {}, SEED)
    r3_scenes(G, SEED)
    return calls


def r3_scenes(G, seed: int) -> None:
    """Decompose, puncture and graph paths against R3_SCENES seeded surfaces
    in R^3 made of a segment, a point and, in some, a triangle.  The paths
    run along the segment and leave it, cross it at its midpoint, pass
    through its end and through the point."""
    rng = np.random.default_rng(seed)

    def vec(lo, hi, den):
        return tuple(Fraction(int(v), den) for v in rng.integers(lo, hi + 1, size=3))

    def add(p, u, c=1):
        return tuple(x + c * y for x, y in zip(p, u))

    done = 0
    while done < R3_SCENES:
        den = int(rng.choice([1, 2, 3]))
        a, u, w, p = vec(-3, 3, den), vec(-2, 2, den), vec(-2, 2, den), vec(-3, 3, den)
        if not any(u) or parallel(u, w):
            continue
        b = add(a, u, 2)
        flags = tuple(bool(f) for f in rng.integers(2, size=2))
        pieces = [G.Simplex([a, b], closed_facets=flags), G.Simplex([p])]
        if rng.integers(2):
            z = Fraction(int(rng.integers(4, 7)))
            pieces.append(G.Simplex([(0, 0, z), (3, 0, z), (0, 3, z)], normal=(0, 0, 1)))
        try:
            surface = G.OrientedSurface(pieces)
            paths = [
                G.PolyPath([add(a, u, -1), add(a, u), add(add(a, u), w)]),  # run, then leave
                G.PolyPath([add(add(a, u), w, -1), add(add(a, u), w)]),     # cross the middle
                G.PolyPath([add(a, w, -1), a, add(b, w)]),                  # through an end
                G.PolyPath([add(p, w, -1), add(p, w), add(b, w, 2)]),       # through the point
            ]
        except G.GeometryError:
            continue
        for path in paths:
            G.decompose_minimal(path, surface)
            G.punctures(path, surface)
            G.completely_transversal(path, surface)
        G.build_graph(paths)
        done += 1


def parallel(u, w) -> bool:
    """Whether two exact vectors are parallel: every 2 by 2 minor of (u, w)
    vanishes."""
    return all(u[i] * w[j] == u[j] * w[i]
               for i in range(len(u)) for j in range(i + 1, len(u)))


def load_geometry(src: Path):
    path = src / "holoflux" / "geometry.py"
    spec = importlib.util.spec_from_file_location("replayed_geometry", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def rebuild(x, G):
    """x with every path and surface rebuilt from its public fields in G."""
    name = type(x).__name__
    if isinstance(x, (list, tuple)):
        return type(x)(rebuild(v, G) for v in x)
    if name == "PolyPath":
        return G.PolyPath(x.vertices, validate=False)
    if name == "Simplex":
        return G.Simplex(x.vertices, closed_facets=x.closed_facets, normal=x.normal)
    if name == "AffineMap":
        return G.AffineMap(x.matrix, x.offset)
    if name == "OrientedSurface":
        pieces = [rebuild(s, G) for s in x.pieces]
        return G.OrientedSurface(pieces, rule=x.rule, inverted=x.inverted,
                                 piece_ids=x.piece_ids, validate=False)
    return x


def plain(x, init_only=False):
    """x as nested tuples of (type name, value), comparable across modules;
    with init_only, a dataclass keeps only the fields it is built from."""
    name = type(x).__name__
    if isinstance(x, (list, tuple)):
        return name, tuple(plain(v, init_only) for v in x)
    if isinstance(x, dict):
        return name, tuple((k, plain(v, init_only)) for k, v in x.items())
    if name == "PolyPath":
        return name, plain(x.vertices), plain(x._cum), x.dim
    if name == "OrientedSurface":
        return name, plain(x.pieces, init_only), x.rule, x.inverted, x.piece_ids
    if name == "Graph":
        return name, plain(x.edges)
    if name == "AffineMap":
        return name, plain(x.matrix), plain(x.offset)
    if hasattr(x, "forward"):
        return name, id(x)  # a stratified map: replayed as the same object
    if dataclasses.is_dataclass(x):
        return name, tuple((f.name, plain(getattr(x, f.name), init_only))
                           for f in dataclasses.fields(x) if f.init or not init_only)
    return name, x


def coverage(name: str, args: tuple, outcome: tuple) -> tuple:
    """(internal pieces returned, codimension >= 2 simplices taken, alone or
    as surface pieces) by one recorded call."""
    internal = 0
    if name == "decompose_minimal" and outcome[0] == "returned":
        internal = sum(p.status == "internal" for p in outcome[1].pieces)
    simplices = [s for x in args if type(x).__name__ == "OrientedSurface" for s in x.pieces]
    simplices += [x for x in args if type(x).__name__ == "Simplex"]
    return internal, sum(s.dim < s.ambient_dim - 1 for s in simplices)


def replay(calls: list, G) -> tuple:
    """(calls per function and coverage counts, mismatch messages) of the
    calls made through G."""
    counts = Counter()
    bad = []
    for k, (name, args, kwargs, outcome) in enumerate(calls):
        counts[name] += 1
        internal, codim2 = coverage(name, args, outcome)
        counts["internal pieces"] += internal
        counts["codim >= 2 pieces"] += codim2
        new_args = rebuild(args, G)
        if plain(new_args, True) != plain(args, True):
            bad.append(f"call {k} {name}: inputs do not rebuild")
            continue
        try:
            got = ("returned", getattr(G, name)(*new_args, **kwargs))
        except Exception as exc:
            got = ("raised", type(exc).__name__, str(exc))
        if plain(got) != plain(outcome):
            bad.append(f"call {k} {name}: {outcome!r:.300} -> {got!r:.300}")
    return counts, bad


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_src, new_src = Path(argv[1]).resolve(), Path(argv[2]).resolve()
    calls = record(old_src)
    counts, bad = replay(calls, load_geometry(new_src))
    for name in RECORDED:
        print(f"{name:24s} {counts[name]:6d} calls")
    total = sum(counts[name] for name in RECORDED)
    print(f"{'total':24s} {total:6d} calls, {len(bad)} mismatches")
    for name in ("internal pieces", "codim >= 2 pieces"):
        print(f"{name:24s} {counts[name]:6d} replayed")
    for line in bad[:20]:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
