"""Cross-process trace propagation and repatriation.

The tentpole guarantee: one campaign (or served request) run with
tracing on yields ONE merged trace in which every span — including
those recorded inside forked pool workers — chains through its
parents back to the submitting process's root span, with no id
collisions between processes. These tests pin that end to end over
:func:`repro.parallel.run_chunked` (inline, supervised, and bare-
executor paths) and :class:`repro.parallel.service.WorkerPool`, plus
the lossless Chrome ``trace_event`` round-trip of a multi-pid trace.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.obs import (
    Tracer,
    get_registry,
    get_tracer,
    spans_from_chrome,
    split_span_id,
)
from repro.parallel import ParallelConfig, run_chunked
from repro.parallel.service import WorkerPool


def _traced_point(payload, item):
    """Module-level task that opens its own span (like the thermal
    pipeline does) — must be picklable for the pool."""
    from repro.obs import span
    with span("thermal.solve", index=item):
        # Long enough that chunks overlap across workers; short enough
        # that the whole file stays cheap.
        time.sleep(0.02)
    return item * item


@pytest.fixture
def tracer():
    """The global tracer, enabled and empty; restored afterwards."""
    tr = get_tracer()
    tr.disable()
    tr.reset()
    tr.enable()
    yield tr
    tr.disable()
    tr.reset()


def _chain_to_root(span, by_id):
    """Walk parents to the root; fails if a parent id is missing."""
    cur = span
    hops = 0
    while cur.parent_id is not None:
        assert cur.parent_id in by_id, \
            f"{cur.name} references missing parent {cur.parent_id}"
        cur = by_id[cur.parent_id]
        hops += 1
        assert hops < 32, "parent cycle"
    return cur


class TestMergedTrace:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_every_span_chains_to_the_single_root(self, tracer, workers):
        items = list(range(8))
        with tracer.span("test.root"):
            out = run_chunked(
                items, _traced_point, None,
                config=ParallelConfig(workers=workers, chunk_size=1))
        assert out == [i * i for i in items]

        spans = tracer.spans
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids)), "duplicate span ids"
        by_id = {s.span_id: s for s in spans}
        roots = [s for s in spans if s.name == "test.root"]
        assert len(roots) == 1
        for s in spans:
            assert _chain_to_root(s, by_id) is roots[0]

        solves = [s for s in spans if s.name == "thermal.solve"]
        assert len(solves) == len(items)
        # Ids are pid-namespaced and agree with the recording pid.
        for s in spans:
            pid, local = split_span_id(s.span_id)
            assert local >= 1
            if s.pid:
                assert pid == s.pid

    def test_multi_worker_trace_spans_multiple_pids(self, tracer):
        with tracer.span("test.root"):
            run_chunked(list(range(8)), _traced_point, None,
                        config=ParallelConfig(workers=2, chunk_size=1))
        worker_pids = {s.pid for s in tracer.spans
                       if s.name == "worker.point"}
        assert len(worker_pids) >= 2, worker_pids
        assert os.getpid() not in worker_pids
        # The chunk spans are remote-parented onto the parent process's
        # parallel.run span.
        by_id = {s.span_id: s for s in tracer.spans}
        for s in tracer.spans:
            if s.name == "supervisor.chunk":
                parent = by_id[s.parent_id]
                assert parent.name == "parallel.run"
                assert parent.pid == os.getpid()

    def test_repatriation_counter_increments(self, tracer):
        before = get_registry().snapshot()["counters"].get(
            "trace.spans_repatriated", 0)
        with tracer.span("test.root"):
            run_chunked(list(range(4)), _traced_point, None,
                        config=ParallelConfig(workers=2, chunk_size=2))
        after = get_registry().snapshot()["counters"].get(
            "trace.spans_repatriated", 0)
        # 2 chunks x (1 chunk span + 2 point spans + 2 solve spans).
        assert after - before == 10

    def test_disabled_tracer_ships_and_records_nothing(self):
        tr = get_tracer()
        tr.disable()
        tr.reset()
        out = run_chunked(list(range(4)), _traced_point, None,
                          config=ParallelConfig(workers=2, chunk_size=2))
        assert out == [i * i for i in range(4)]
        assert tr.spans == ()

    def test_fork_inherited_stack_does_not_shadow_remote_parent(
            self, tracer):
        """The serve shape: the pool forks while one span (cli.serve)
        is open, but tasks are submitted under another (broker.
        dispatch). The worker must parent its chunk onto the span open
        at *submit* time — the shipped context — not the stale stack
        entry its main thread inherited through fork."""
        with tracer.span("startup"):
            pool = WorkerPool(_traced_point, None, workers=1)
        try:
            with tracer.span("dispatch"):
                assert pool.submit(3).result(timeout=60) == 9
        finally:
            pool.close()
        by_id = {s.span_id: s for s in tracer.spans}
        chunks = [s for s in tracer.spans if s.name == "supervisor.chunk"]
        assert chunks, [s.name for s in tracer.spans]
        for s in chunks:
            assert by_id[s.parent_id].name == "dispatch"

    def test_worker_pool_merges_before_future_resolves(self, tracer):
        with WorkerPool(_traced_point, None, workers=2) as pool:
            with tracer.span("test.root", kind="serve"):
                futs = [pool.submit(i) for i in range(4)]
                assert [f.result(timeout=60) for f in futs] == \
                    [i * i for i in range(4)]
        spans = tracer.spans
        by_id = {s.span_id: s for s in spans}
        root = next(s for s in spans if s.name == "test.root")
        points = [s for s in spans if s.name == "worker.point"]
        assert len(points) == 4
        for s in points:
            assert _chain_to_root(s, by_id) is root


class TestChromeRoundTrip:
    def test_multi_pid_roundtrip_is_lossless(self, tracer):
        with tracer.span("test.root"):
            run_chunked(list(range(4)), _traced_point, None,
                        config=ParallelConfig(workers=2, chunk_size=1))
        orig = tracer.spans
        doc = json.loads(json.dumps(tracer.chrome_trace()))
        back = spans_from_chrome(doc)
        assert len(back) == len(orig)
        by_id = {r["span_id"]: r for r in back}
        for s in orig:
            r = by_id[s.span_id]
            assert r["name"] == s.name
            assert r["parent_id"] == s.parent_id
            assert r["pid"] == s.pid or (s.pid == 0
                                         and r["pid"] == os.getpid())

    def test_adopting_roundtripped_records_preserves_tree(self, tracer):
        with tracer.span("test.root"):
            run_chunked(list(range(4)), _traced_point, None,
                        config=ParallelConfig(workers=2, chunk_size=1))
        records = spans_from_chrome(
            json.loads(json.dumps(tracer.chrome_trace())))
        fresh = Tracer()
        assert fresh.adopt_spans(records) == len(tracer.spans)
        assert {s.span_id: s.parent_id for s in fresh.spans} == \
            {s.span_id: s.parent_id for s in tracer.spans}
