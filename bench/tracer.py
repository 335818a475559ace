"""Per-layer tracing of odolab from outside, by wrapping its functions.

`Tracer.install()` replaces every public function of the layer modules, the
public methods of their classes, and a few named private kernels with timing
wrappers.  It also rebinds each name that another module imported with
`from .x import y`, since patching only the defining module would miss those
calls.  `uninstall()` puts every original back.

Each wrapper keeps a call count and self time (its duration minus that of
wrapped calls beneath it).  Metric groups (coordinate access, transports,
DPs, ...) add the inclusive time and count of their outermost calls, so
nested members of one group are not counted twice.  Parent-linked spans are
kept only at coarse boundaries: operation, witness construction, criterion
evaluation and transport.
"""
from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

LAYERS = ("space", "maps", "criteria", "functions", "witness", "gallery", "cli")

ACCESSORS = ("m", "mu", "mu_weight", "eta", "delta", "interval_measure",
             "subset_measure", "sup_shift_ratio")

# group -> qualified names ("module.function" or "module.Class.method")
GROUPS = {
    "coord": [f"space.SystemSpec.{a}" for a in ACCESSORS],
    "truncation": ["space.build_truncation", "space.TruncatedSpace.digits",
                   "space.TruncatedSpace.index",
                   "space.TruncatedSpace.cell_measure",
                   "space.TruncatedSpace.all_measures",
                   "space.DepthSet.to_cells", "space.DepthSet.explicit",
                   "space.SimpleFunction.indicator",
                   "space.SimpleFunction.constant"],
    "transport": ["maps._carry_chain_measure", "maps.odometer_pullback_measure",
                  "maps.odometer_pushforward_measure",
                  "maps.translation_set_shift", "maps.preimage_measure",
                  "maps.forward_image_measure"],
    "dp": ["criteria.disjoint_shift_set_zplus", "criteria.alpha_shift_witness",
           "criteria._alpha_float", "criteria._mwis_path",
           "criteria._mwis_cycle"],
    "theta": ["criteria.theta", "criteria.theta_witness"],
    "gamma": ["criteria.gamma_odometer", "criteria.gamma_witness",
              "criteria._gamma_exhaustive", "criteria._gamma_sweep",
              "criteria.gamma_translation", "criteria.gamma_tilde",
              "criteria.gamma_tilde_witness"],
    "evaluate": ["criteria.evaluate"],
    "norm": ["functions.lp_norm_pow", "functions.lp_norm",
             "functions.lp_distance", "functions.lp_distance_pow"],
    "compose": ["functions.apply_composition", "functions.period_of",
                "maps.InducedBijection.forward",
                "maps.InducedBijection.inverse",
                "maps.InducedBijection.as_permutation"],
    "orbit": ["functions.orbit_trace"],
    "construct": [f"witness.{f}" for f in (
        "transitivity_witness", "mixing_witness", "fhc_witness", "ufhc_count",
        "src_search", "translation_witnesses", "rigidity_probe",
        "shift_fhc_witness")],
    "emit": ["cli.write_tsv", "cli.write_json",
             "criteria.CriteriaTable.to_tsv_rows", "criteria.Verdict.to_document",
             "maps.BoundReport.to_tsv_rows", "functions.OrbitTrace.to_tsv_rows",
             "witness.WitnessReport.to_document"],
    "build": ["cli.load_spec", "gallery.get_spec", "space.SystemSpec.from_config"],
}
SPAN_GROUPS = {"construct": "witness", "evaluate": "criterion",
               "transport": "transport"}
# Classes whose methods only run beneath the SystemSpec accessors.
SKIP_CLASSES = {"AlphabetRule", "MeasureFamily", "ShiftWeights"}


class Tracer:
    def __init__(self):
        self.stack = [0.0]          # time of wrapped children, per open call
        self.stats = {}             # qualified name -> [calls, self seconds]
        self.groups = {g: [0, 0, 0.0, 0] for g in GROUPS}  # depth, outer calls, seconds, calls
        self.coords = set()         # coordinate indices seen in this operation
        self.distinct = [0]         # distinct indices of earlier operations
        self.cells = [0]            # cells measured through all_measures
        self.spans = []             # (id, parent, name, label, start, end)
        self.span_stack = [None]
        self._patches = []

    # -- installation -------------------------------------------------------
    def install(self):
        member_groups = {}
        for g, names in GROUPS.items():
            for name in names:
                member_groups.setdefault(name, []).append(g)
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"odolab.{layer}")
            for name, obj in list(vars(mod).items()):
                qual = f"{layer}.{name}"
                if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    if isinstance(obj, type):
                        self._wrap_class(layer, obj, member_groups)
                    elif not name.startswith("_") or qual in member_groups:
                        wrapped = self._wrapper(obj, qual, member_groups.get(qual, ()))
                        originals[id(obj)] = (obj, wrapped)
                        self._patch(mod, name, wrapped)
        # rebind names other odolab modules imported from the layer modules
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("odolab"):
                continue
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _wrap_class(self, layer, cls, member_groups):
        if cls.__name__.startswith("_") or issubclass(cls, BaseException) or any(
                base.__name__ in SKIP_CLASSES for base in cls.__mro__):
            return
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            groups = member_groups.get(qual, ())
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(
                    self._wrapper(attr.__func__, qual, groups)))
            elif callable(attr) and not isinstance(attr, (type, classmethod)):
                self._patch(cls, name, self._wrapper(attr, qual, groups))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0]
        for g in self.groups.values():
            g[:] = [0, 0, 0.0, 0]
        self.coords.clear()
        self.distinct[0] = 0
        self.cells[0] = 0

    def next_op(self):
        """Count coordinate indices per operation: each builds its own spec."""
        self.distinct[0] += len(self.coords)
        self.coords.clear()

    # -- wrappers -----------------------------------------------------------
    def _wrapper(self, fn, qual, groups):
        stack, clock = self.stack, time.perf_counter
        stat = self.stats.setdefault(qual, [0, 0.0])
        gs = tuple(self.groups[g] for g in groups)
        span_name = next((SPAN_GROUPS[g] for g in groups if g in SPAN_GROUPS), None)
        coords = self.coords if "coord" in groups else None
        cells = self.cells if qual.endswith("TruncatedSpace.all_measures") else None
        spans, span_stack = self.spans, self.span_stack

        def close(t0):
            dt = clock() - t0
            child = stack.pop()
            stack[-1] += dt
            stat[0] += 1
            stat[1] += dt - child
            for g in gs:
                g[0] -= 1
                g[3] += 1
                if not g[0]:
                    g[1] += 1
                    g[2] += dt
            return dt

        if span_name is None and cells is None:
            def wrapper(*args, **kwargs):       # the hot path: counts and times only
                if coords is not None and len(args) > 1:
                    coords.add(args[1])
                stack.append(0.0)
                for g in gs:
                    g[0] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(t0)
        else:
            def wrapper(*args, **kwargs):
                opened = span_name is not None and all(g[0] == 0 for g in gs)
                if opened:
                    sid = len(spans)
                    spans.append([sid, span_stack[-1], span_name, qual, 0.0, 0.0])
                    span_stack.append(sid)
                stack.append(0.0)
                for g in gs:
                    g[0] += 1
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                    if cells is not None:
                        cells[0] += len(out)
                    return out
                finally:
                    dt = close(t0)
                    if opened:
                        span_stack.pop()
                        spans[sid][4:] = [t0, t0 + dt]
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def span(self, name: str, label: str):
        """A span around code the benchmark runs itself, such as one operation."""
        sid = len(self.spans)
        self.spans.append([sid, self.span_stack[-1], name, label, 0.0, 0.0])
        self.span_stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.span_stack.pop()
            self.spans[sid][4:] = [t0, time.perf_counter()]

    # -- results ------------------------------------------------------------
    def group(self, name: str):
        _, outer, seconds, calls = self.groups[name]
        return outer, seconds, calls

    def layer_metrics(self) -> dict:
        """Counts and seconds of one traced round (see README for the map)."""
        g = {name: self.group(name) for name in GROUPS}
        coord_calls = g["coord"][2]
        distinct = self.distinct[0] + len(self.coords)
        transports, transport_s = g["transport"][:2]
        cell_calls = self.stats.get("space.TruncatedSpace.cell_measure", [0])[0]
        out = {
            "space.coord_calls": coord_calls,
            "space.coord_s": g["coord"][1],
            "space.calls_per_coord": coord_calls / distinct if distinct else 0.0,
            "space.cell_measures": cell_calls + self.cells[0],
            "space.truncation_s": g["truncation"][1],
            "maps.transports": transports,
            "maps.transport_s": transport_s,
            "maps.transport_us": 1e6 * transport_s / transports if transports else 0.0,
            "criteria.dp_calls": g["dp"][0],
            "criteria.dp_s": g["dp"][1],
            "criteria.theta_s": g["theta"][1],
            "criteria.gamma_s": g["gamma"][1],
            "criteria.evaluate_s": g["evaluate"][1],
            "functions.norm_calls": g["norm"][0],
            "functions.norm_s": g["norm"][1],
            "functions.compose_s": g["compose"][1],
            "functions.orbit_s": g["orbit"][1],
            "witness.construct_s": g["construct"][1],
            "cli.emit_s": g["emit"][1],
            "gallery.build_s": g["build"][1],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for q, (_, s) in self.stats.items()
                                         if q.split(".", 1)[0] == layer)
        return out
