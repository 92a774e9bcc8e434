"""Tests for the observability layer (tracer, metrics, manifests)."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    Tracer,
    build_manifest,
    config_hash,
    get_registry,
    get_tracer,
    log_event,
    log_spaced_edges,
    set_verbosity,
    span,
    spans_from_chrome,
    validate_manifest,
)


# -- tracer ------------------------------------------------------------------

class TestTracer:
    def test_nesting_records_parent(self):
        tr = Tracer(enabled=True)
        with tr.span("outer") as outer:
            with tr.span("inner"):
                pass
        spans = {s.name: s for s in tr.spans}
        assert spans["inner"].parent_id == outer.span.span_id
        assert spans["outer"].parent_id is None

    def test_durations_monotonic_and_contained(self):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.002)
        spans = {s.name: s for s in tr.spans}
        assert spans["inner"].duration_s > 0
        assert spans["outer"].duration_s >= spans["inner"].duration_s
        assert spans["outer"].start_ns <= spans["inner"].start_ns
        assert spans["inner"].end_ns <= spans["outer"].end_ns

    def test_attrs_at_open_and_via_set(self):
        tr = Tracer(enabled=True)
        with tr.span("s", cooling="water") as sp:
            sp.set("max_temp_c", 71.5)
        (s,) = tr.spans
        assert s.attrs == {"cooling": "water", "max_temp_c": 71.5}

    def test_exception_marks_span_and_propagates(self):
        tr = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("x")
        (s,) = tr.spans
        assert s.attrs["error"] == "ValueError"
        assert s.end_ns is not None

    def test_thread_parent_attribution(self):
        """Each thread keeps its own span stack: workers' children
        attach to the worker's root, never to another thread's span."""
        tr = Tracer(enabled=True)
        n = 4
        barrier = threading.Barrier(n)

        def worker(i: int) -> None:
            with tr.span(f"root-{i}"):
                barrier.wait()          # all roots open simultaneously
                with tr.span(f"child-{i}"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = {s.name: s for s in tr.spans}
        assert len(spans) == 2 * n
        for i in range(n):
            root, child = spans[f"root-{i}"], spans[f"child-{i}"]
            assert root.parent_id is None
            assert child.parent_id == root.span_id
            assert child.thread_id == root.thread_id

    def test_span_ids_unique_under_threads(self):
        tr = Tracer(enabled=True)

        def worker() -> None:
            for _ in range(50):
                with tr.span("w"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [s.span_id for s in tr.spans]
        assert len(ids) == 200
        assert len(set(ids)) == 200

    def test_disabled_returns_null_singleton(self):
        tr = Tracer(enabled=False)
        assert tr.span("x", a=1) is NULL_SPAN
        with tr.span("x") as sp:
            sp.set("k", "v")        # must be a silent no-op
        assert tr.spans == ()

    def test_global_helper_respects_enabled_flag(self):
        tracer = get_tracer()
        assert not tracer.enabled   # disabled by default
        assert span("x") is NULL_SPAN
        tracer.enable()
        try:
            with span("y"):
                pass
            assert any(s.name == "y" for s in tracer.spans)
        finally:
            tracer.disable()
            tracer.reset()

    def test_reset_restarts_ids(self):
        import os

        from repro.obs import split_span_id
        tr = Tracer(enabled=True)
        with tr.span("a"):
            pass
        tr.reset()
        with tr.span("b"):
            pass
        (s,) = tr.spans
        # Ids are pid-namespaced; reset restarts the *local* counter.
        pid, local = split_span_id(s.span_id)
        assert local == 1
        assert pid == os.getpid()
        assert s.pid == os.getpid()


class TestTraceExport:
    def _traced(self) -> Tracer:
        tr = Tracer(enabled=True)
        with tr.span("outer", cooling="water"):
            with tr.span("inner", step=3):
                pass
        return tr

    def test_jsonl_one_object_per_line(self):
        tr = self._traced()
        buf = io.StringIO()
        tr.write_jsonl(buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert {r["name"] for r in records} == {"outer", "inner"}
        assert all(r["duration_s"] >= 0 for r in records)

    def test_chrome_trace_shape(self):
        doc = self._traced().chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert ev["dur"] >= 0
            assert isinstance(ev["ts"], float)
            assert "span_id" in ev["args"]

    def test_chrome_roundtrip_preserves_tree_and_timing(self):
        """Export -> JSON text -> reimport reconstructs names, the
        parent/child tree, and timings to microsecond rounding."""
        tr = self._traced()
        doc = json.loads(json.dumps(tr.chrome_trace()))
        back = {r["name"]: r for r in spans_from_chrome(doc)}
        orig = {s.name: s for s in tr.spans}
        assert set(back) == set(orig)
        for name, s in orig.items():
            r = back[name]
            assert r["span_id"] == s.span_id
            assert r["parent_id"] == s.parent_id
            assert r["attrs"] == {k: v for k, v in s.attrs.items()}
            assert abs(r["start_ns"] - s.start_ns) <= 1_000
            assert abs(r["end_ns"] - s.end_ns) <= 2_000

    def test_chrome_trace_is_loadable_json_file(self, tmp_path):
        path = tmp_path / "t.json"
        self._traced().write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 2


# -- metrics -----------------------------------------------------------------

class TestMetrics:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.counter("a").value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("a").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(2)
        reg.gauge("g").set(7.5)
        assert reg.gauge("g").value == 7.5

    def test_name_must_keep_one_type(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError, match="Counter"):
            reg.gauge("x")

    def test_log_spaced_edges(self):
        edges = log_spaced_edges(-6, 2, 4)
        assert len(edges) == 33
        assert edges[0] == pytest.approx(1e-6)
        assert edges[-1] == pytest.approx(1e2)
        # exactly log-spaced: constant ratio of 10^(1/4)
        ratios = [b / a for a, b in zip(edges, edges[1:])]
        assert all(r == pytest.approx(10 ** 0.25) for r in ratios)

    def test_histogram_bucket_edges_upper_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", edges=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 1.5, 10.0, 10.1, 100.0, 1000.0):
            h.observe(v)
        # bucket i holds edges[i-1] < v <= edges[i]; last is overflow
        assert h.bucket_counts == (2, 2, 2, 1)
        assert h.count == 7
        assert h.sum == pytest.approx(0.5 + 1.0 + 1.5 + 10.0 + 10.1
                                      + 100.0 + 1000.0)
        snap = h.snapshot()
        assert snap["min"] == 0.5 and snap["max"] == 1000.0

    def test_histogram_default_edges_cover_timings(self):
        reg = MetricsRegistry()
        h = reg.histogram("t")
        assert len(h.bucket_counts) == len(h.edges) + 1
        h.observe(1e-9)     # below the lowest edge -> first bucket
        h.observe(1e9)      # beyond the highest edge -> overflow
        assert h.bucket_counts[0] == 1
        assert h.bucket_counts[-1] == 1

    def test_snapshot_groups_by_type(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        path = tmp_path / "m.json"
        reg.write_json(path)
        assert json.loads(path.read_text())["counters"]["c"] == 3

    def test_thread_safe_counting(self):
        reg = MetricsRegistry()

        def worker() -> None:
            for _ in range(1000):
                reg.counter("n").inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n").value == 8000


# -- structured logging ------------------------------------------------------

class TestSlog:
    def test_log_event_json_lines(self):
        buf = io.StringIO()
        set_verbosity(1, stream=buf)
        try:
            log_event("retry", attempt=2, error="TransientSolverError")
            log_event("span_detail", level=2, name="x")   # above level
        finally:
            set_verbosity(0)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["event"] == "retry"
        assert rec["attempt"] == 2

    def test_silent_by_default(self):
        buf = io.StringIO()
        set_verbosity(0, stream=buf)
        log_event("anything", x=1)
        assert buf.getvalue() == ""


# -- manifests ---------------------------------------------------------------

class TestManifest:
    CONFIG = {"points": ["freq/low-power-cmp/n1/water"], "seedless": False}

    def test_deterministic_for_fixed_inputs(self):
        a = build_manifest(name="campaign", config=dict(self.CONFIG),
                           seed=7, metrics={"counters": {"x": 1}},
                           wall_time_s=1.25, timestamp="2026-08-06T00:00:00")
        b = build_manifest(name="campaign", config=dict(self.CONFIG),
                           seed=7, metrics={"counters": {"x": 1}},
                           wall_time_s=1.25, timestamp="2026-08-06T00:00:00")
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_config_hash_ignores_key_order(self):
        assert (config_hash({"a": 1, "b": 2})
                == config_hash({"b": 2, "a": 1}))
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_validates_and_roundtrips(self):
        doc = build_manifest(name="x", config={"k": 1}, seed=0)
        validate_manifest(doc)
        validate_manifest(json.loads(json.dumps(doc)))

    def test_missing_field_rejected(self):
        doc = build_manifest(name="x", config={"k": 1})
        del doc["config_hash"]
        with pytest.raises(ConfigurationError, match="config_hash"):
            validate_manifest(doc)

    def test_tampered_config_rejected(self):
        doc = build_manifest(name="x", config={"k": 1})
        doc["config"]["k"] = 2
        with pytest.raises(ConfigurationError, match="config_hash"):
            validate_manifest(doc)

    def test_unknown_field_rejected(self):
        doc = build_manifest(name="x", config={})
        doc["surprise"] = True
        with pytest.raises(ConfigurationError, match="surprise"):
            validate_manifest(doc)

    def test_unserializable_config_rejected(self):
        with pytest.raises(ConfigurationError, match="serializable"):
            config_hash({"bad": {1, 2}})


# -- disabled-path overhead --------------------------------------------------

class TestOverhead:
    def test_disabled_tracer_is_near_noop_for_freq_run(self):
        """Acceptance: with tracing off, instrumentation adds <5% to a
        small freq run. Measured as (per-disabled-span cost) x (spans
        such a run actually opens) against the run's wall time."""
        from repro.cooling import get_cooling
        from repro.core.freqopt import max_frequency
        from repro.power import get_chip
        from repro.stack import StackConfig
        from repro.thermal import ThermalModel, response_cache

        tracer = get_tracer()
        assert not tracer.enabled

        def freq_run() -> None:
            # Cold caches every run: a warm superposition-kernel run
            # answers the whole ladder from the process-global operator
            # cache (sub-ms, zero spans), and the timed run, the traced
            # run, and the 5% bar must all measure the same work.
            response_cache().clear()
            model = ThermalModel(
                StackConfig(chip=get_chip("low-power-cmp"), n_chips=2),
                get_cooling("water"))
            max_frequency(model)

        # Wall time of the uninstrumented-equivalent (tracer off) run.
        t0 = time.perf_counter()
        freq_run()
        run_s = time.perf_counter() - t0

        # How many spans the same run opens when tracing is on.
        tracer.enable()
        try:
            tracer.reset()
            freq_run()
            n_spans = len(tracer.spans)
        finally:
            tracer.disable()
            tracer.reset()
        assert n_spans > 0

        # Per-call cost of the disabled fast path.
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with span("overhead.probe", a=1):
                pass
        per_call_s = (time.perf_counter() - t0) / n

        overhead = per_call_s * n_spans
        assert overhead < 0.05 * run_s, (
            f"disabled tracer would add {overhead * 1e3:.3f} ms over "
            f"{n_spans} spans to a {run_s * 1e3:.1f} ms freq run")
