"""JSON serialization for scenes, cylindrical functions, and Weyl labels.

Scene files carry PL paths and oriented simplicial surfaces.  A coordinate
is a JSON number when a double holds it exactly and a "p/q" string otherwise,
so a scene written and read back is the same scene:

    {"schema": 1, "dimension": k,
     "paths": [{"id": ..., "vertices": [[...], ...]}, ...],
     "surfaces": [{"id": ..., "simplices": [[[...], ...], ...],
                   "normals": [[...] | null, ...], "rule": "natural",
                   "open_faces": [[facet indices], ...]}, ...]}

A surface's "rule" is "natural", "topological" or "inverse", the last an
inverted natural surface; an inverted topological surface has no form here.

Cylindrical functions and Weyl descriptors follow the same conventions:
coefficients as [re, im] pairs, factors as {"irrep": "su2:1/2", "m": 0,
"n": 1} or "trivial", group elements as matrices of [re, im] entries.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .connections import SurfaceLabel
from .cylindrical import CylFun, cylfun
from .geometry import Graph, OrientedSurface, PolyPath, Simplex
from .liegroup import GroupElement
from .weylops import WeylDescriptor

__all__ = [
    "SceneError",
    "scene_to_json",
    "scene_from_json",
    "load_scene",
    "dump_scene",
    "cylfun_to_json",
    "cylfun_from_json",
    "weyl_to_json",
    "weyl_from_json",
    "emit_scene_template",
]

SCHEMA = 1


class SceneError(ValueError):
    """Malformed scene or function description."""


def _num(x):
    """A JSON number when a double holds x exactly, else the string "p/q"."""
    f = float(x)
    return f if f == x else str(x)


def _point(coords) -> tuple:
    """Exact coordinates from JSON numbers or "p/q" strings."""
    try:
        return tuple(Fraction(c) for c in coords)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SceneError(f"bad coordinates {coords!r}: {exc}") from None


def scene_to_json(dimension: int, paths: dict, surfaces: dict) -> dict:
    out = {"schema": SCHEMA, "dimension": dimension, "paths": [], "surfaces": []}
    for pid, path in paths.items():
        out["paths"].append(
            {"id": pid, "vertices": [[_num(c) for c in v] for v in path.vertices]}
        )
    for sid, surf in surfaces.items():
        if surf.inverted and surf.rule != "natural":
            # "inverse" reads back as an inverted natural surface
            raise SceneError(f"surface {sid!r}: the format holds no inverted {surf.rule} surface")
        simplices = []
        normals = []
        open_faces = []
        for piece in surf.pieces:
            simplices.append([[_num(c) for c in v] for v in piece.vertices])
            normals.append(
                [_num(c) for c in piece.normal] if piece.normal is not None else None
            )
            open_faces.append(
                [i for i, closed in enumerate(piece.closed_facets) if not closed]
            )
        out["surfaces"].append(
            {
                "id": sid,
                "simplices": simplices,
                "normals": normals,
                "rule": "inverse" if surf.inverted else surf.rule,
                "open_faces": open_faces,
            }
        )
    return out


def scene_from_json(obj: dict):
    if obj.get("schema") != SCHEMA:
        raise SceneError("unsupported scene schema")
    dimension = int(obj["dimension"])
    paths = {}
    for p in obj.get("paths", []):
        paths[p["id"]] = PolyPath([_point(v) for v in p["vertices"]])
    surfaces = {}
    for s in obj.get("surfaces", []):
        pieces = []
        normals = s.get("normals") or [None] * len(s["simplices"])
        opens = s.get("open_faces") or [[] for _ in s["simplices"]]
        for verts, nrm, open_list in zip(s["simplices"], normals, opens):
            closed = [True] * len(verts)
            for i in open_list:
                closed[i] = False
            pieces.append(Simplex([_point(v) for v in verts], closed_facets=closed,
                                  normal=None if nrm is None else _point(nrm)))
        rule = s.get("rule", "natural")
        inverted = rule == "inverse"
        surfaces[s["id"]] = OrientedSurface(
            pieces,
            rule="natural" if inverted else rule,
            inverted=inverted,
            piece_ids=tuple(f"{s['id']}.{i}" for i in range(len(pieces))),
        )
    if any(p.dim != dimension for p in paths.values()):
        raise SceneError("path dimension mismatch")
    if any(s.dim != dimension for s in surfaces.values()):
        raise SceneError("surface dimension mismatch")
    return dimension, paths, surfaces


def load_scene(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return scene_from_json(json.load(fh))


def dump_scene(path: str, dimension: int, paths: dict, surfaces: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_json(dimension, paths, surfaces), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Cylindrical functions
# ---------------------------------------------------------------------------


def cylfun_to_json(f: CylFun, graph_id: str) -> dict:
    monomials = []
    for coeff, factors in f.monomials():
        fac_json = {}
        for eid in f.graph.edges:
            fac = factors.get(eid)
            if fac is None:
                fac_json[eid] = "trivial"
            else:
                rho_key, m, n = fac
                fac_json[eid] = {"irrep": rho_key, "m": m, "n": n}
        monomials.append({"coeff": [coeff.real, coeff.imag], "factors": fac_json})
    return {"schema": SCHEMA, "graph": graph_id, "monomials": monomials}


def cylfun_from_json(obj: dict, graph: Graph, group: str) -> CylFun:
    if obj.get("schema") != SCHEMA:
        raise SceneError("unsupported function schema")
    monomials = []
    for mono in obj["monomials"]:
        re, im = mono["coeff"]
        factors = {}
        for eid, fac in mono["factors"].items():
            if fac == "trivial":
                factors[eid] = None
            else:
                factors[eid] = (fac["irrep"], int(fac["m"]), int(fac["n"]))
        monomials.append((complex(re, im), factors))
    return cylfun(graph, group, monomials)


# ---------------------------------------------------------------------------
# Weyl descriptors
# ---------------------------------------------------------------------------


def _matrix_to_json(m: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def weyl_to_json(w: WeylDescriptor, surface_id: str) -> dict:
    labels = {}
    if w.label.per_stratum is None:
        raise SceneError("only per-stratum constant labels are serializable")
    for pid, g in w.label.per_stratum.items():
        labels[pid] = _matrix_to_json(g.matrix)
    return {"schema": SCHEMA, "surface": surface_id, "rule": w.rule, "labels": labels}


def weyl_from_json(obj: dict, surface: OrientedSurface, group: str) -> WeylDescriptor:
    if obj.get("schema") != SCHEMA:
        raise SceneError("unsupported descriptor schema")
    labels = {
        pid: GroupElement(group, _matrix_from_json(rows))
        for pid, rows in obj["labels"].items()
    }
    missing = set(surface.piece_ids) - set(labels)
    if missing:
        raise SceneError(f"labels missing for strata {sorted(missing)}")
    return WeylDescriptor(
        surface, SurfaceLabel(surface, group, per_stratum=labels), obj.get("rule", "natural")
    )


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


def emit_scene_template(kind: str) -> str:
    """A minimal valid scene exercising the named suite."""
    if kind == "crossing":
        paths = {"gamma": PolyPath([(-1, 0, 0), (1, 0, 0)])}
        tri = Simplex([(0, -2, -2), (0, 3, -2), (0, -2, 3)], normal=(1, 0, 0))
        surfaces = {"wall": OrientedSurface([tri], piece_ids=("wall.0",))}
        obj = scene_to_json(3, paths, surfaces)
    elif kind == "nice-surface":
        paths = {
            "gamma": PolyPath([(0, 0, 0), (3, 0, 0)]),
            "spectator": PolyPath([(0, 0, 0), (0, 1, 0)]),
        }
        surfaces = {}
        for i, x0 in enumerate((1, 2), start=1):
            tri = Simplex([(x0, -1, -1), (x0, 2, -1), (x0, -1, 2)], normal=(1, 0, 0))
            surfaces[f"disk{i}"] = OrientedSurface([tri], piece_ids=(f"disk{i}.0",))
        obj = scene_to_json(3, paths, surfaces)
    elif kind == "winding":
        height, eps = 0.6, 0.3
        paths = {"axis": PolyPath([(0, 0, 0), (5, 0, 0)])}
        tri = Simplex(
            [(-7.5, height, -0.2), (12.5, height, -0.2), (2.5, height, 0.2)],
            normal=(0, 1, 0),
        )
        surfaces = {"strip0": OrientedSurface([tri], piece_ids=("strip0.0",))}
        obj = scene_to_json(3, paths, surfaces)
        obj["winding"] = {"taus": [1.0, 2.0], "levels": [0, 0],
                          "z_targets": [0.0], "eps": eps, "height": height}
    elif kind == "diffeo":
        paths = {"chord": PolyPath([(-1, 0), (1, 0)])}
        obj = scene_to_json(2, paths, {})
        obj["rotation"] = {"angle": 0.7, "r1": 1.05, "r2": 1.0}
    else:
        raise SceneError(f"unknown template kind {kind!r}")
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
