"""In-memory span tracer that wraps the program's layer entry points.

The traced run installs a :class:`Tracer` over the functions listed in
:data:`TARGETS`.  Every wrapped call records one span (name, layer, start,
end, parent span, and the ticket/arrival id where the call exposes one)
and updates per-name aggregates (calls, total time, self time), so the
per-layer metrics are read from the aggregates while the full span list
is exported as Chrome/Perfetto JSON at exit.

Module-level functions are wrapped under every name a caller can look
them up by: ``serve/service.py`` does ``from .numerics import
group_scan_values``, so patching only ``repro.serve.numerics`` would miss
those calls.  :meth:`Tracer.install` therefore rebinds the function in
every loaded module whose globals hold that same object.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

#: (layer, module, attribute) — ``attribute`` is ``Class.method``,
#: ``Class.property`` or a module-level function name.  Layers are the
#: program's packages; ``ops`` serves the paper's radix sort / compress.
TARGETS = [
    ("shard", "repro.shard.scheduler", "run_traffic"),
    ("shard", "repro.shard.scheduler", "TrafficScheduler.run"),
    ("shard", "repro.shard.scheduler", "TrafficScheduler.offer"),
    ("shard", "repro.shard.scheduler", "TrafficScheduler._stage"),
    ("shard", "repro.shard.scheduler", "TrafficScheduler._dispatch"),
    ("shard", "repro.shard.service", "PoolScanService.submit"),
    ("shard", "repro.shard.service", "PoolScanService.submit_graph"),
    ("shard", "repro.shard.service", "PoolScanService._prepare"),
    ("shard", "repro.shard.service", "PoolScanService.flush"),
    ("shard", "repro.shard.service", "PoolScanService._dispatch"),
    ("serve", "repro.serve.service", "ScanService._prepare"),
    ("serve", "repro.serve.service", "ScanService._prepare_graph"),
    ("serve", "repro.serve.service", "ScanService.enqueue"),
    ("serve", "repro.serve.service", "ScanService.flush"),
    ("serve", "repro.serve.service", "ScanService._serve_batched"),
    ("serve", "repro.serve.service", "ScanService._serve_singles"),
    ("serve", "repro.serve.service", "ScanService._replay_with_retry"),
    ("serve", "repro.serve.service", "ScanService.resolve_deferred"),
    ("serve", "repro.serve.batcher", "RequestBatcher.add"),
    ("serve", "repro.serve.batcher", "RequestBatcher.drain"),
    ("serve", "repro.serve.numerics", "group_scan_values"),
    ("serve", "repro.serve.numerics", "assemble_rows"),
    ("serve", "repro.serve.plan", "PlanCache.get_1d"),
    ("serve", "repro.serve.plan", "PlanCache.get_batched"),
    ("core", "repro.core.api", "ScanPlan.replay_timing"),
    ("core", "repro.core.api", "ScanPlan.time_ns"),
    ("core", "repro.core.api", "ScanContext.build_plan"),
    ("core", "repro.core.api", "ScanContext.build_batched_plan"),
    ("core", "repro.core.api", "ScanContext.scan"),
    ("core", "repro.core.api", "ScanContext.batched_scan"),
    ("hw", "repro.hw.device", "AscendDevice.trace_kernel"),
    ("hw", "repro.hw.device", "AscendDevice.replay"),
    ("hw", "repro.hw.device", "AscendDevice.time_traced"),
    ("ops", "repro.ops.driver", "AscendOps.radix_sort"),
    ("ops", "repro.ops.driver", "AscendOps.compress"),
    ("graph", "repro.graph.interp", "GraphRunner.lower"),
    ("graph", "repro.graph.fuse", "fuse_graph"),
    ("graph", "repro.graph.service", "graph_oracle_job"),
    # graph requests are replayed node by node inside the serve layer
    ("graph", "repro.serve.service", "ScanService._serve_graph"),
    ("tune", "repro.tune.warmup", "warm_pool"),
    ("tune", "repro.tune.warmup", "warm_tune_store"),
    ("tune", "repro.tune.warmup", "warm_service"),
    ("tune", "repro.tune.tuner", "tune_workload"),
    ("tune", "repro.tune.store", "TuneStore.lookup_1d"),
    ("tune", "repro.tune.store", "TuneStore.lookup_batched"),
]

#: every public method and property of ServiceStats is a span, so the
#: bookkeeping cost (which grows with run length today) is measured
STATS_CLASS = ("serve", "repro.serve.stats", "ServiceStats")


def _ident(args, kwargs):
    """The request identity a call exposes: an arrival index, a launch
    group's first request id, or a request's id.  None otherwise."""
    for value in list(args[1:3]) + list(kwargs.values())[:2]:
        index = getattr(value, "index", None)
        if isinstance(index, int):
            return index
        requests = getattr(value, "requests", None)
        if isinstance(requests, list) and requests:
            return getattr(requests[0], "req_id", None)
        req_id = getattr(value, "req_id", None)
        if isinstance(req_id, int):
            return req_id
    return None


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: "list[str]" = []
        self.layers: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        #: (name id, start s, end s, parent span index or -1, ident, phase)
        self.spans: list = []
        #: (phase, name id) -> [calls, total s, self s]
        self.agg: "dict[tuple[str, int], list]" = {}
        #: open frames: [span index, start, child seconds]
        self._stack: list = []
        self._patches: list = []
        self.phase = "setup"
        #: simulated ops scheduled by wrapped ``AscendDevice.replay`` calls
        self.replayed_ops = 0
        self.t0 = time.perf_counter()

    # -- recording ------------------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        key = f"{layer}:{name}"
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
            self.layers.append(layer)
        return nid

    def _wrap(self, layer: str, name: str, fn):
        nid = self._name_id(layer, name)
        # a lowering that built a program is its own span name, so build
        # cost and cache-hit cost are read apart
        build_nid = (
            self._name_id(layer, name + "[build]")
            if name == "GraphRunner.lower"
            else None
        )
        count_ops = name == "AscendDevice.replay"
        stack = self._stack
        spans = self.spans
        agg = self.agg
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0, 0.0]
            spans.append(None)
            stack.append(frame)
            used = nid
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if build_nid is not None and result[1]:
                    used = build_nid
                elif count_ops:
                    self.replayed_ops += len(result.ops)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                spans[frame[0]] = (
                    used, frame[1], end, parent, _ident(args, kwargs), self.phase
                )
                entry = agg.get((self.phase, used))
                if entry is None:
                    entry = agg[(self.phase, used)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[2]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------------

    def _setattr(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, layer, module_name, attr):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        wrapped = self._wrap(layer, attr, fn)
        # rebind under every name a caller looks it up by, the benchmark's
        # own modules included
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    self._setattr(mod, key, wrapped)

    def _patch_member(self, layer, cls, attr):
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, property):
            value = property(self._wrap(layer, name, raw.fget))
        else:
            value = self._wrap(layer, name, raw)
        self._setattr(cls, attr, value)

    def install(self) -> "Tracer":
        for layer, module_name, attr in TARGETS:
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(importlib.import_module(module_name), cls_name)
                self._patch_member(layer, cls, member)
            else:
                self._patch_function(layer, module_name, attr)
        layer, module_name, cls_name = STATS_CLASS
        cls = getattr(importlib.import_module(module_name), cls_name)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, property) or callable(raw):
                self._patch_member(layer, cls, attr)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------------

    def stat(self, name: str, phase: "str | None" = "run") -> "tuple[int, float, float]":
        """(calls, total s, self s) for ``layer:Name`` in ``phase``
        (None = every phase)."""
        nid = self._name_ids.get(name)
        calls = total = self_s = 0.0
        for (ph, key), (c, t, s) in self.agg.items():
            if key == nid and (phase is None or ph == phase):
                calls += c
                total += t
                self_s += s
        return int(calls), total, self_s

    def layer_self(self, phase: str = "run") -> "dict[str, float]":
        out: "dict[str, float]" = {}
        for (ph, nid), (_, _, self_s) in self.agg.items():
            if ph == phase:
                layer = self.layers[nid]
                out[layer] = out.get(layer, 0.0) + self_s
        return out

    def coverage(self, phase: str = "run") -> "tuple[float, float]":
        """(attributed s, traced s): time the benchmark spent inside its
        top-level program calls, and the part of it that wrapped callees
        account for (the rest is the entry calls' own self time)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        traced = attributed = 0.0
        for i, span in enumerate(self.spans):
            if span is not None and span[5] == phase and span[3] == -1:
                traced += span[2] - span[1]
                attributed += child[i]
        return attributed, traced

    def chrome_events(self) -> list:
        """Chrome trace events (``ph: X``, microseconds), one lane per
        layer, parent/ident in ``args`` — same shape as the engine lanes
        of :meth:`repro.hw.trace.Trace.to_chrome_trace`."""
        events = []
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            nid, start, end, parent, ident, phase = span
            args = {"span": i, "parent": parent, "phase": phase}
            if ident is not None:
                args["id"] = ident
            events.append(
                {
                    "name": self.names[nid].split(":", 1)[1],
                    "cat": self.layers[nid],
                    "ph": "X",
                    "ts": (start - self.t0) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": "host",
                    "tid": self.layers[nid],
                    "args": args,
                }
            )
        return events


#: host spans written to the Chrome export (the first ones); the file
#: stays loadable in a browser while aggregates cover every span
MAX_EXPORTED_SPANS = 20_000


def write_chrome_trace(path, tracer: Tracer, sim_traces=()) -> int:
    """Write host spans plus the engine lanes of ``sim_traces`` (simulated
    clock, ``pid`` prefixed ``sim``) as one Chrome/Perfetto JSON file;
    returns the number of events written."""
    events = tracer.chrome_events()[:MAX_EXPORTED_SPANS]
    for k, trace in enumerate(sim_traces):
        for ev in json.loads(trace.to_chrome_trace())["traceEvents"]:
            ev["pid"] = f"sim{k} {trace.label} {ev['pid']}"
            events.append(ev)
    with open(path, "w") as fh:
        json.dump(
            {
                "traceEvents": events,
                "displayTimeUnit": "ns",
                "otherData": {
                    "host_spans": len(tracer.spans),
                    "host_spans_written": min(len(tracer.spans), MAX_EXPORTED_SPANS),
                },
            },
            fh,
        )
    return len(events)
