#!/usr/bin/env python3
"""Replay recorded geometry calls through another tree's ``geometry.py``.

    python3 scripts/replay_geometry.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories holding a ``holoflux`` package.
With OLD_SRC on the import path, the script runs the warm-up and pass 0 at
seed 42 of the benchmark workloads ``scene-fresh``, ``strat-certify`` and
``weyl-ops`` (``perfbench/bench_workloads.py``) and records every call of
the geometry functions in ``RECORDED``, nested calls included, with its
arguments and its result (or the error it raised).  It then loads
NEW_SRC's ``holoflux/geometry.py`` by file path, which works because that
module imports nothing from the package, rebuilds each call's paths and
surfaces from their public fields in the loaded module, and makes the call
again.

Results are compared with ``==`` after reducing them to plain values that
keep every type: vertex coordinates and their types, the float breakpoints
``_cum`` of each path, the fields of every dataclass (pieces, statuses,
parameters, points, signs), and graphs as their edge ids and paths.  The
script prints the number of calls per function and every mismatch, and
exits with 1 on any mismatch, 0 otherwise.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 42
WORKLOADS = ("scene-fresh", "strat-certify", "weyl-ops")
RECORDED = ("decompose_minimal", "punctures", "completely_transversal",
            "sigma_eval", "build_graph")


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
    return calls


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
    if name == "OrientedSurface":
        pieces = [G.Simplex(s.vertices, closed_facets=s.closed_facets, normal=s.normal)
                  for s in x.pieces]
        return G.OrientedSurface(pieces, rule=x.rule, inverted=x.inverted,
                                 piece_ids=x.piece_ids, validate=False)
    return x


def plain(x):
    """x as nested tuples of (type name, value), comparable across modules."""
    name = type(x).__name__
    if isinstance(x, (list, tuple)):
        return name, tuple(plain(v) for v in x)
    if isinstance(x, dict):
        return name, tuple((k, plain(v)) for k, v in x.items())
    if name == "PolyPath":
        return name, plain(x.vertices), plain(x._cum), x.dim
    if name == "OrientedSurface":
        return name, plain(x.pieces), x.rule, x.inverted, x.piece_ids
    if name == "Graph":
        return name, plain(x.edges)
    if dataclasses.is_dataclass(x):
        return name, tuple((f.name, plain(getattr(x, f.name))) for f in dataclasses.fields(x))
    return name, x


def replay(calls: list, G) -> tuple:
    """(calls per function, mismatch messages) of the calls made through G."""
    counts = Counter()
    bad = []
    for k, (name, args, kwargs, outcome) in enumerate(calls):
        counts[name] += 1
        new_args = rebuild(args, G)
        if plain(new_args) != plain(args):
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
    print(f"{'total':24s} {sum(counts.values()):6d} calls, {len(bad)} mismatches")
    for line in bad[:20]:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
