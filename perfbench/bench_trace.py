"""Span tracing of the holoflux layers, installed from outside ``src/``.

``Tracer`` replaces every public function of the layer modules (each
module's ``__all__``) and a few public methods with timing wrappers, at every
place a holoflux module binds them, so a call from one layer into another
nests under its caller.  Spans are kept in memory as typed columns
(name, start, end, parent, op id) and written out by ``save``.  Self time is
a span's duration minus the time its child spans cover.  Leaving the
``with`` block puts every original object back.

Besides spans, the wrappers keep the counters the per-layer metrics need:
repeat shares of ``decompose_minimal`` and ``Irrep.evaluate`` inputs,
monomials in returned cylindrical functions, stratified-map point
evaluations, Monte Carlo samples and winding assignments.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, class, attribute) wrapped on top of each module's __all__
EXTRA_METHODS = (
    ("liegroup", "Irrep", "evaluate"),
    ("liegroup", "GroupElement", "__init__"),
    ("connections", "SurfaceLabel", "at"),
    ("geometry", "OrientedSurface", "contains"),
    ("stratmaps", "StratMap", "forward"),
    ("stratmaps", "StratMap", "inverse"),
)

# counted (no span): every monomial key built, including intermediate ones
COUNT_ONLY = (("cylindrical", "_term_key", "cylindrical.term_keys"),)


def _holoflux_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "holoflux" or name.startswith("holoflux."))]


class Tracer:
    """Context manager that wraps the layers while it is active.

    Counts and spans describe one traced pass; ``begin_pass`` clears them and
    keeps the totals, so times can be averaged over passes while counts stay
    those of a fixed amount of work.  The inputs already seen, which decide
    the repeat counts, are kept over every traced pass.
    """

    def __init__(self, layers):
        import holoflux.cylindrical as cyl

        self.layers = tuple(layers)  # holoflux module names whose __all__ is wrapped
        self._cylfun_type = cyl.CylFun
        self.names = []
        self._index = {}
        self._restore = []
        self._stack = []
        self.op_id = -1
        self.total_self = {}  # name -> self seconds over every traced pass
        self.total_incl = {}  # name -> inclusive seconds over every traced pass
        self.total_count = {}  # counter -> value over every traced pass
        self.total_calls = {}  # name -> calls over every traced pass
        self._seen_decompose = set()
        self._seen_evaluate = set()
        self._surface_keys = {}
        self.begin_pass()

    # -- per-pass state ---------------------------------------------------

    def begin_pass(self):
        self.calls = {}
        self.errors = {}
        self.counts = {}
        self._next_id = 0
        self.sp_name = array("H")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_op = array("i")

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n
        self.total_count[name] = self.total_count.get(name, 0) + n

    # -- installation -----------------------------------------------------

    def __enter__(self):
        mods = _holoflux_modules()
        by_short = {m.__name__.rpartition(".")[2]: m for m in mods}
        targets = {}  # id(original) -> (original, wrapper)
        for layer in self.layers:
            mod = by_short[layer]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    targets[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for layer, attr, counter in COUNT_ONLY:
            obj = getattr(by_short[layer], attr)
            targets[id(obj)] = (obj, self._counting(obj, counter))
        # rebind each original wherever a holoflux module holds it
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, attr in EXTRA_METHODS:
            cls = getattr(by_short[layer], cls_name)
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            name = f"{layer}.{cls_name}.{attr}"
            setattr(cls, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)
        return False

    def wrapped_bindings(self):
        """(owner, attribute, original) for every binding currently replaced."""
        return list(self._restore)

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _hook_for(self, name):
        if name == "geometry.decompose_minimal":
            return self._on_decompose
        if name == "liegroup.Irrep.evaluate":
            return self._on_evaluate
        if name in ("stratmaps.StratMap.forward", "stratmaps.StratMap.inverse"):
            return lambda args, kwargs, result: self.count("stratmaps.point_evals", 1)
        if name == "liegroup.GroupElement.__init__":
            return lambda args, kwargs, result: self.count("liegroup.elements_built", 1)
        if name == "cylindrical.inner_product_mc":
            return self._on_mc
        if name == "estimates.winding_average_check":
            return lambda args, kwargs, result: self.count(
                "estimates.assignments", result["assignments"])
        if name.split(".")[0] in ("cylindrical", "weylops", "estimates"):
            return lambda args, kwargs, result: self._on_cylfun(name, result)
        return None

    def _wrap(self, fn, name):
        k = self._name_id(name)
        hook = self._hook_for(name)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._close(k, name, sid, t0, t1, frame[1], parent, failed)
            if hook is not None:
                hook(args, kwargs, result)
            if parent is not None:
                # the hook's bookkeeping is tracing cost, not the caller's work
                parent[1] += perf_counter() - t0
            return result

        return wrapper

    def _close(self, k, name, sid, t0, t1, child, parent, failed):
        dur = t1 - t0
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_calls[name] = self.total_calls.get(name, 0) + 1
        if failed:
            self.errors[name] = self.errors.get(name, 0) + 1
            if parent is not None:
                parent[1] += dur
        self.total_self[name] = self.total_self.get(name, 0.0) + (dur - child)
        self.total_incl[name] = self.total_incl.get(name, 0.0) + dur
        self.sp_name.append(k)
        self.sp_start.append(t0)
        self.sp_end.append(t1)
        self.sp_parent.append(-1 if parent is None else parent[0])
        self.sp_op.append(self.op_id)

    def _counting(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(counter, 1)
            return fn(*args, **kwargs)

        return wrapper

    # -- counter hooks ----------------------------------------------------

    def _surface_key(self, surface):
        hit = self._surface_keys.get(id(surface))
        if hit is None or hit[0] is not surface:
            key = (
                tuple((p.vertices, p.closed_facets, p.normal) for p in surface.pieces),
                surface.rule,
                surface.inverted,
            )
            hit = (surface, key)
            self._surface_keys[id(surface)] = hit
        return hit[1]

    def _on_decompose(self, args, kwargs, result):
        path, surface = args[0], args[1]
        key = (path.vertices, self._surface_key(surface))
        if key in self._seen_decompose:
            self.count("geometry.decompose_repeats", 1)
        else:
            self._seen_decompose.add(key)

    def _on_evaluate(self, args, kwargs, result):
        rho, g = args[0], args[1]
        key = (rho.group, rho.label, g.matrix.tobytes())
        if key in self._seen_evaluate:
            self.count("liegroup.evaluate_repeats", 1)
        else:
            self._seen_evaluate.add(key)

    def _on_mc(self, args, kwargs, result):
        n = args[2] if len(args) > 2 else kwargs["n_samples"]
        self.count("cylindrical.mc_samples", int(n))

    def _on_cylfun(self, name, result):
        items = result if isinstance(result, tuple) else (result,)
        n = sum(len(f.terms) for f in items if isinstance(f, self._cylfun_type))
        if n:
            self.count("cylindrical.monomials_out", n)
            self.count(f"{name}.monomials_out", n)

    # -- output -----------------------------------------------------------

    def span_count(self):
        return len(self.sp_name)

    def save(self, path):
        """Write the current pass's spans as columns of an ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.sp_name, dtype=np.uint16),
            start=np.frombuffer(self.sp_start, dtype=np.float64),
            end=np.frombuffer(self.sp_end, dtype=np.float64),
            parent=np.frombuffer(self.sp_parent, dtype=np.int32),
            op=np.frombuffer(self.sp_op, dtype=np.int32),
        )
