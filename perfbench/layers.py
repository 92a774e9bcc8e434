"""Per-layer cost, measured from outside the program.

:class:`LayerTracer` replaces a layer's public function with a timing
wrapper everywhere a ``repro`` module holds a reference to it, so a
caller that imported the name (``from .events import
canonical_event_line``) sees the wrapper too. Wrappers nest through a
per-thread stack: a layer's *self* time is its inclusive time minus
the time spent in wrapped layers it called, so the self times of one
thread's layers add up to the wall time of its outermost wrapped call.

:func:`install` hooks every layer the workloads touch and
:func:`layer_metrics` turns the tracer and the program's own counters
(``get_registry().snapshot()``) into the ``per_layer`` metrics of
``BENCHMARK.json``. A hook whose target a later program version no
longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field

from harness import percentile


@dataclass
class LayerStat:
    """Accumulated cost of one layer."""

    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    extra: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def add(self, key: str, n: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + n


class LayerTracer:
    """Timing wrappers installed on a program's layer boundaries."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.stats: dict[str, LayerStat] = {}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> LayerStat:
        return self.stats.setdefault(name, LayerStat())

    def _wrap(self, name: str, fn, observe=None, *, timed: bool = True,
              samples: bool = False):
        st = self.stat(name)
        tls, lock = self._tls, self._lock

        if not timed:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                with lock:
                    st.calls += 1
                    if observe is not None:
                        observe(st, args, result)
                return result
            return counting

        @functools.wraps(fn)
        def timing(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            frame = [0.0]
            stack.append(frame)
            result = ok = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with lock:
                    st.calls += 1
                    st.total_s += dt
                    st.child_s += frame[0]
                    if samples:
                        st.samples.append(dt)
                    if ok and observe is not None:
                        observe(st, args, result)
        return timing

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, name: str, observe=None,
                 **kw) -> None:
        """Wrap ``module.attr`` and every ``repro`` alias of it."""
        orig = getattr(sys.modules.get(module), attr, None)
        if orig is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = self._wrap(name, orig, observe, **kw)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro"
                                   or modname.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def method(self, module: str, cls: str, attr: str, name: str,
               observe=None, **kw) -> None:
        """Wrap a method on the class and on every subclass that
        overrides it."""
        root = getattr(sys.modules.get(module), cls, None)
        if root is None or not hasattr(root, attr):
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        todo, seen = [root], set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            if attr in klass.__dict__:
                self._set(klass, attr,
                          self._wrap(name, klass.__dict__[attr], observe,
                                     **kw))

    def remove(self) -> None:
        """Put every original back (reverse order handles aliases)."""
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# -- the layer map ------------------------------------------------------------

def _rhs(st, args, result):
    st.add("rhs", len(result))


def _op_bytes(st, args, result):
    st.add("bytes", getattr(args[1], "nbytes", 0))


def _jobs(st, args, result):
    st.add("jobs", len(result))


def _events(st, args, result):
    st.add("events", len(result))


def _line(st, args, result):
    st.add("lines", 1)
    st.add("bytes", len(result) + 1)


def _probe_one(st, args, result):
    st.add("probes", 1)


def _probe_many(st, args, result):
    st.add("probes", len(result))


def _checkpoint(st, args, result):
    st.add("writes", 1)
    path = getattr(args[0], "checkpoint_path", None)
    if path is not None and os.path.exists(path):
        st.add("bytes", os.path.getsize(path))


def install(tracer: LayerTracer) -> None:
    """Hook every layer boundary the three workloads cross."""
    import repro.config  # noqa: F401  (load every hooked module)
    import repro.core.campaign  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.thermal.hotspot  # noqa: F401

    t = tracer
    t.method("repro.thermal.network", "ThermalNetwork", "solve_many",
             "thermal.solve_many", _rhs)
    t.function("repro.thermal.response", "build_response_operator",
               "thermal.response_build")
    t.method("repro.thermal.response", "ResponseStore", "store",
             "thermal.store_write", _op_bytes)
    t.method("repro.thermal.response", "ResponseStore", "load",
             "thermal.store_load")
    t.method("repro.thermal.response", "ResponseOperator", "temperatures",
             "thermal.matvec")
    t.method("repro.thermal.hotspot", "ThermalModel", "max_temperature_c",
             "thermal.probe", _probe_one, timed=False)
    t.method("repro.thermal.hotspot", "ThermalModel",
             "max_temperatures_many", "thermal.probe", _probe_many,
             timed=False)
    t.method("repro.floorplan.floorplan", "Floorplan", "power_map",
             "floorplan.power_map")
    t.function("repro.core.freqopt", "max_frequency", "core.max_frequency")
    t.function("repro.core.campaign", "evaluate_point",
               "core.campaign_point", samples=True)
    t.method("repro.core.campaign", "CampaignRunner", "run",
             "core.campaign")
    t.method("repro.core.campaign", "CampaignRunner", "_write_checkpoint",
             "core.checkpoint", _checkpoint, timed=False)
    t.method("repro.config", "ExperimentSpec", "result_from_point",
             "perfsim.npb")
    t.method("repro.serve.broker", "Broker", "submit", "serve.submit")
    t.function("repro.serve.runner", "run_spec_resilient",
               "serve.evaluate")
    t.function("repro.fleet.sim", "simulate", "fleet.run")
    t.function("repro.fleet.sim", "build_board_ladder", "fleet.ladder_build")
    t.function("repro.fleet.workload", "generate_arrivals",
               "fleet.arrivals", _jobs)
    t.function("repro.fleet.faults", "generate_fault_timeline",
               "fleet.fault_timeline", _events)
    t.method("repro.fleet.policies", "PlacementPolicy", "select",
             "fleet.placement")
    t.method("repro.fleet.sim", "BoardLadder", "step_for_water",
             "fleet.dtm")
    t.function("repro.fleet.events", "canonical_event_line",
               "fleet.event_log", _line)


# -- program counters ---------------------------------------------------------

def registry_snapshot() -> dict:
    """The program's own counters and histogram sums, flattened."""
    from repro.obs import get_registry
    snap = get_registry().snapshot()
    flat = dict(snap["counters"])
    for name, hist in snap["histograms"].items():
        flat[name + ".sum"] = hist["sum"]
        flat[name + ".count"] = hist["count"]
    return flat


def registry_delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Per-layer metrics read straight off a wrapped layer: its calls,
#: inclusive or self time, or a quantity its observer counted.
_STAT_FIELDS = {
    "thermal.solve_many": ("calls", "rhs", "total_s"),
    "thermal.response_build": ("calls", "total_s", "self_s"),
    "thermal.store_write": ("calls", "bytes", "total_s"),
    "thermal.store_load": ("calls", "total_s"),
    "thermal.matvec": ("calls", "total_s"),
    "floorplan.power_map": ("calls", "total_s"),
    "core.max_frequency": ("calls", "total_s"),
    "core.campaign_point": ("calls",),
    "core.checkpoint": ("writes", "bytes"),
    "perfsim.npb": ("calls", "total_s"),
    "serve.submit": ("calls", "total_s"),
    "serve.evaluate": ("calls", "total_s"),
    "fleet.arrivals": ("jobs", "total_s"),
    "fleet.fault_timeline": ("events", "total_s"),
    "fleet.placement": ("calls", "total_s"),
    "fleet.dtm": ("calls", "total_s"),
    "fleet.event_log": ("lines", "bytes", "total_s"),
}

#: Program counters (registry deltas) reported as they are.
_COUNTERS = {
    "thermal.factorize.count": "thermal.splu_factorizations",
    "thermal.factorize.total_s": "thermal.factorize_seconds.sum",
    "thermal.op_cache.hit": "response.cache_hit",
    "thermal.op_cache.miss": "response.cache_miss",
    "thermal.op_cache.evict": "response.cache_eviction",
    "thermal.disk.hit": "response.disk_hit",
    "thermal.disk.miss": "response.disk_miss",
    "resilience.retries": "resilience.retries",
    "resilience.degraded": "resilience.degrade_rung",
    "serve.cache_hit": "serve.cache_hit",
    "serve.coalesced": "serve.coalesced_total",
    "serve.shed": "serve.shed_total",
    "serve.expired": "serve.expired_total",
    "serve.failed": "serve.failed_total",
}

#: Figures only the workload knows (job timestamps, set-up timings).
_EXTRA = {
    "serve.queue_wait.p50_ms": "ms", "serve.queue_wait.p99_ms": "ms",
    "serve.run.p50_ms": "ms", "serve.run.p99_ms": "ms",
    "fleet.ladder_build.total_s": "s",
    "obs.untraced_s": "s", "obs.traced_s": "s", "obs.latency_p99_ms": "ms",
}


def _unit(field: str) -> str:
    if field.endswith("_s"):
        return "s"
    return "bytes" if field == "bytes" else "count"


#: Every per-layer metric with its unit; ``layer_metrics`` fills each.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{layer}.{f}": _unit(f)
       for layer, fields in _STAT_FIELDS.items() for f in fields},
    **{name: _unit(name.rpartition(".")[2]) for name in _COUNTERS},
    **_EXTRA,
    "thermal.op_cache.hit_ratio": "ratio",
    "core.max_frequency.probes_per_call": "ratio",
    "core.campaign_point.p50_s": "s",
    "core.campaign_point.p90_s": "s",
    "core.campaign.self_s": "s",
    "serve.hit_ratio": "ratio",
    "serve.coalesce_ratio": "ratio",
    "fleet.step.self_s": "s",
    "obs.trace_overhead_frac": "ratio",
}


def layer_metrics(tracer: LayerTracer, counters: dict,
                  extra: dict) -> dict[str, float]:
    """Assemble every ``per_layer`` metric (0 where a layer is idle).

    ``counters`` is the registry delta over the traced phase; ``extra``
    carries what only the workload knows (job timestamps, the
    set-up's ladder build, the traced/untraced comparison).
    """
    s = tracer.stat
    m: dict[str, float] = {}
    for layer, fields in _STAT_FIELDS.items():
        st = s(layer)
        for f in fields:
            m[f"{layer}.{f}"] = (getattr(st, f) if f in ("calls", "total_s",
                                                         "self_s")
                                 else st.extra.get(f, 0))
    for name, counter in _COUNTERS.items():
        m[name] = counters.get(counter, 0)
    for name in _EXTRA:
        m[name] = extra.get(name, 0.0)

    m["thermal.op_cache.hit_ratio"] = _ratio(
        m["thermal.op_cache.hit"],
        m["thermal.op_cache.hit"] + m["thermal.op_cache.miss"])
    m["core.max_frequency.probes_per_call"] = _ratio(
        s("thermal.probe").extra.get("probes", 0),
        m["core.max_frequency.calls"])
    points = s("core.campaign_point")
    m["core.campaign_point.p50_s"] = percentile(points.samples, 50)
    m["core.campaign_point.p90_s"] = percentile(points.samples, 90)
    m["core.campaign.self_s"] = s("core.campaign").total_s - points.total_s
    requests = counters.get("serve.requests_total", 0)
    m["serve.hit_ratio"] = _ratio(m["serve.cache_hit"], requests)
    m["serve.coalesce_ratio"] = _ratio(m["serve.coalesced"], requests)
    m["fleet.step.self_s"] = s("fleet.run").self_s
    m["obs.trace_overhead_frac"] = _ratio(
        m["obs.traced_s"] - m["obs.untraced_s"], m["obs.untraced_s"])
    return m
