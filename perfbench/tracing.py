"""Spans around the public functions of every spineforge layer.

`Tracer.install()` rebinds each listed function in every `spineforge.*`
namespace that binds it (and in `randgen`, which builds the plans), so
calls made inside the package are traced too: the re-validations inside
`attach_surface` show as child spans of it.  Spans stay in memory until
`write()` saves those of one pass.  A span's self time is its duration
minus its children's, which cannot overlap in one thread.
"""

from __future__ import annotations

import json
import sys
import time

# layer -> traced functions; "Class.method" spans are reported per class
TRACED = {
    "subsurfaces": ("find_closed_surfaces", "make_selection"),
    "core": ("validate_polyhedron", "euler_characteristic", "strand_circles"),
    "surgery": ("attach_surface", "check_attachment_hypotheses",
                "normalize_into_disk"),
    "bornmap": ("validate_born_map", "region_counts"),
    "arrangement": ("validate_arrangement", "winding_numbers",
                    "ArrangementBuilder.insert_circle",
                    "ArrangementBuilder.insert_route",
                    "ArrangementBuilder.freeze"),
    "obstruction": ("s3_obstruction", "build_graph", "maximal_graph"),
    "homology": ("cellulate", "z2_homology"),
    "formats": ("parse_spoly", "parse_arr", "parse_plan",
                "emit_spoly", "emit_arr", "emit_plan"),
    "render": ("render_svg",),
    "cli": ("build_parser", "main", "_write_atomic"),
    "gallery": ("round_reeb", "build_base_example"),
}

SPAN_NAMES = {"cli._write_atomic": "cli.write"}

# per-layer metric -> (unit, better); order is the report order
LAYER_METRICS = {
    "subsurfaces.find_closed_surfaces.self_ms": ("ms", "lower"),
    "subsurfaces.find_closed_surfaces.examined": ("count", "lower"),
    "subsurfaces.find_closed_surfaces.selections": ("count", "higher"),
    "subsurfaces.find_closed_surfaces.yield": ("ratio", "higher"),
    "subsurfaces.find_closed_surfaces.truncated": ("count", "lower"),
    "subsurfaces.make_selection.calls": ("count", "lower"),
    "subsurfaces.make_selection.self_ms": ("ms", "lower"),
    "core.validate_polyhedron.calls": ("count", "lower"),
    "core.validate_polyhedron.self_ms": ("ms", "lower"),
    "core.validate_polyhedron.repeat_ratio": ("ratio", "lower"),
    "core.euler_characteristic.self_ms": ("ms", "lower"),
    "core.strand_circles.calls": ("count", "lower"),
    "core.strand_circles.self_ms": ("ms", "lower"),
    "surgery.attach_surface.self_ms": ("ms", "lower"),
    "surgery.check_attachment_hypotheses.self_ms": ("ms", "lower"),
    "surgery.normalize_into_disk.self_ms": ("ms", "lower"),
    "bornmap.validate_born_map.calls": ("count", "lower"),
    "bornmap.validate_born_map.self_ms": ("ms", "lower"),
    "bornmap.region_counts.self_ms": ("ms", "lower"),
    "arrangement.validate_arrangement.calls": ("count", "lower"),
    "arrangement.validate_arrangement.self_ms": ("ms", "lower"),
    "arrangement.winding_numbers.self_ms": ("ms", "lower"),
    "arrangement.ArrangementBuilder.self_ms": ("ms", "lower"),
    "obstruction.s3_obstruction.self_ms": ("ms", "lower"),
    "obstruction.build_graph.self_ms": ("ms", "lower"),
    "obstruction.maximal_graph.self_ms": ("ms", "lower"),
    "homology.cellulate.self_ms": ("ms", "lower"),
    "homology.z2_homology.self_ms": ("ms", "lower"),
    **{f"formats.{fn}.{m}": (unit, "lower")
       for fn in TRACED["formats"]
       for m, unit in (("self_ms", "ms"), ("bytes", "bytes"))},
    "render.render_svg.self_ms": ("ms", "lower"),
    "cli.build_parser.self_ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.write.self_ms": ("ms", "lower"),
    "gallery.round_reeb.self_ms": ("ms", "lower"),
    "gallery.build_base_example.self_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# counts that must repeat exactly from pass to pass and run to run
EXACT_COUNTS = tuple(name for name, (unit, _) in LAYER_METRICS.items()
                     if unit in ("count", "bytes"))

# gallery builds inputs, so its self time includes the traced set-up
SETUP_LAYERS = ("gallery.",)


def _span_name(layer, attr):
    name = f"{layer}.{attr.split('.')[0]}"
    return SPAN_NAMES.get(name, name)


def _namespaces():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "spineforge" or name.startswith("spineforge.")
                 or name == "randgen")]


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent, op)
        self.extra = {}          # span index -> size or search counts
        self.distinct = {}       # op -> distinct polyhedra validated
        self.op = "setup"
        self._validated = {}     # id -> polyhedron, kept so ids stay unique
        self._stack = []
        self._restore = []

    def begin(self, op):
        """Attribute the following spans to operation `op`."""
        self.distinct[self.op] = len(self._validated)
        self._validated = {}
        self.op = op

    def install(self):
        for layer, attrs in TRACED.items():
            module = sys.modules[f"spineforge.{layer}"]
            for attr in attrs:
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = vars(owner)[method]
                    self._rebind(owner, method,
                                 self._wrap(_span_name(layer, attr), original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(_span_name(layer, attr), original)
                for namespace in _namespaces():
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._rebind(namespace, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _rebind(self, owner, key, wrapper):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        measure = _EXTRA.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            if measure is not None:
                measure(tracer, index, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self, ops):
        """Per-layer metrics over the spans of the operations in `ops`,
        plus the set-up spans for the layers in SETUP_LAYERS."""
        ops = set(ops)
        self_ns, calls = {}, {}
        child_ns = [0] * len(self.spans)
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                child_ns[parent] += end - start
        totals = {}
        for index, (name, start, end, _, op) in enumerate(self.spans):
            setup = op == "setup" and name.startswith(SETUP_LAYERS)
            if op not in ops and not setup:
                continue
            own = end - start - child_ns[index]
            self_ns[name] = self_ns.get(name, 0) + own
            calls[name] = calls.get(name, 0) + 1
            for key, value in self.extra.get(index, {}).items():
                total = f"{name}.{key}"
                totals[total] = totals.get(total, 0) + value
        distinct = sum(self.distinct.get(op, 0) for op in ops)

        metrics = {}
        for metric in LAYER_METRICS:
            name, _, kind = metric.rpartition(".")
            if kind == "self_ms":
                metrics[metric] = self_ns.get(name, 0) / 1e6
            elif kind == "calls":
                metrics[metric] = calls.get(name, 0)
            else:
                metrics[metric] = totals.get(metric, 0)
        search = "subsurfaces.find_closed_surfaces"
        examined = metrics[f"{search}.examined"]
        metrics[f"{search}.yield"] = \
            metrics[f"{search}.selections"] / examined if examined else 0.0
        validations = metrics["core.validate_polyhedron.calls"]
        metrics["core.validate_polyhedron.repeat_ratio"] = \
            validations / distinct if distinct else 0.0
        return metrics

    def write(self, path, ops):
        """Spans of the set-up and of the operations in `ops`, one JSON
        array per line after a header line naming the fields."""
        ops = set(ops)
        with open(path, "w") as handle:
            handle.write(json.dumps(["id", "name", "start_ns", "end_ns",
                                     "parent", "op", "extra"]) + "\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                if op == "setup" or op in ops:
                    handle.write(json.dumps(
                        [index, name, start, end, parent, op,
                         self.extra.get(index, {})]) + "\n")


def _text_in(tracer, index, args, result):
    tracer.extra[index] = {"bytes": len(args[0])}


def _text_out(tracer, index, args, result):
    tracer.extra[index] = {"bytes": len(result)}


def _search(tracer, index, args, result):
    tracer.extra[index] = {"examined": result.examined,
                           "selections": len(result.selections),
                           "truncated": int(result.truncated)}


def _validated(tracer, index, args, result):
    tracer._validated[id(args[0])] = args[0]


_EXTRA = {
    **{f"formats.{fn}": _text_in for fn in ("parse_spoly", "parse_arr",
                                            "parse_plan")},
    **{f"formats.{fn}": _text_out for fn in ("emit_spoly", "emit_arr",
                                             "emit_plan")},
    "subsurfaces.find_closed_surfaces": _search,
    "core.validate_polyhedron": _validated,
}
