"""Chunked execution with deterministic result ordering.

The engine is deliberately generic: callers hand it a list of items, a
module-level function ``fn(payload, item) -> result``, and a picklable
payload; it returns one result per item *in item order*, however the
chunks were scheduled. The campaign runner and the sweep drivers build
their hot loops on it.

Three properties the rest of the system relies on:

* **Deterministic ordering** — results are collected by item index, so
  a 4-worker run and a 1-worker run produce identical output lists
  (any per-item randomness must come from seeds derived per item, see
  :mod:`repro.parallel.seeds`).
* **Chunked scheduling** — items are grouped into contiguous chunks;
  ``on_chunk`` fires as each chunk completes, which is where the
  campaign runner rewrites its checkpoint. Chunk size trades
  scheduling overhead against checkpoint granularity.
* **Supervised workers** — above one worker, chunks run on the
  :class:`~repro.parallel.supervisor.SupervisedPool`, which restarts
  crashed or hung workers and quarantines chunks that keep crashing.
  Each chunk returns the delta of the worker's metrics registry (and,
  when the parent tracer is enabled, its finished spans), so worker
  counters land in campaign manifests and one Chrome trace covers
  every contributing process.

``workers=1`` runs every chunk inline — no pool, no pickling — and is
the reference the multi-worker paths are tested bit-for-bit against.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError
from ..obs import counter, histogram, log_event, span

__all__ = [
    "ParallelConfig",
    "chunk_indices",
    "run_chunked",
    "snapshot_delta",
]


@dataclass(frozen=True)
class ParallelConfig:
    """How a parallel run schedules its work.

    Attributes:
        workers: process count; 1 = inline (no pool).
        chunk_size: items per scheduled chunk (None = auto: enough
            chunks for ~4 rounds per worker, capped at 8 items so
            checkpoints stay reasonably fresh).
        start_method: multiprocessing start method (None = ``fork``
            where available — cheap and inherits imports — else the
            platform default).
        heartbeat_interval_s: worker heartbeat period.
        heartbeat_timeout_s: silence budget before a worker is
            declared hung (None disables).
        task_timeout_s: wall-clock budget per chunk before its worker
            is killed and the chunk retried (None disables).
        max_task_crashes: crash count at which a chunk is quarantined
            as poison instead of retried.
    """

    workers: int = 1
    chunk_size: int | None = None
    start_method: str | None = None
    heartbeat_interval_s: float = 0.2
    heartbeat_timeout_s: float | None = 30.0
    task_timeout_s: float | None = None
    max_task_crashes: int = 2

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1 or None")

    def supervisor_config(self):
        """The :class:`~repro.parallel.supervisor.SupervisorConfig`
        equivalent of this config's supervision fields."""
        from .supervisor import SupervisorConfig
        return SupervisorConfig(
            workers=self.workers,
            start_method=self.start_method,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            task_timeout_s=self.task_timeout_s,
            max_task_crashes=self.max_task_crashes)

    def resolve_chunk_size(self, n_items: int) -> int:
        """The chunk size actually used for ``n_items`` items."""
        if self.chunk_size is not None:
            return self.chunk_size
        if n_items <= 0:
            return 1
        per_round = -(-n_items // (self.workers * 4))  # ceil
        return max(1, min(8, per_round))

    def context(self) -> multiprocessing.context.BaseContext:
        """The multiprocessing context for the pool."""
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()


def chunk_indices(n_items: int, chunk_size: int) -> list[range]:
    """Contiguous index ranges covering ``0..n_items-1``."""
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    return [range(lo, min(lo + chunk_size, n_items))
            for lo in range(0, n_items, chunk_size)]


def snapshot_delta(before: dict[str, Any],
                   after: dict[str, Any]) -> dict[str, Any]:
    """The metrics accumulated between two registry snapshots.

    Counters and histogram bucket counts subtract element-wise;
    histogram min/max are forwarded only when the interval moved them
    (a chunk that did not change the extremum cannot be blamed for
    it). Gauges forward their latest value.
    """
    out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for name, value in after.get("counters", {}).items():
        d = value - before.get("counters", {}).get(name, 0)
        if d:
            out["counters"][name] = d
    out["gauges"] = dict(after.get("gauges", {}))
    for name, h in after.get("histograms", {}).items():
        prev = before.get("histograms", {}).get(name)
        if prev is None:
            out["histograms"][name] = h
            continue
        if h["count"] == prev["count"]:
            continue
        out["histograms"][name] = {
            "edges": h["edges"],
            "counts": [a - b for a, b in zip(h["counts"], prev["counts"])],
            "count": h["count"] - prev["count"],
            "sum": h["sum"] - prev["sum"],
            "min": (h["min"] if prev["min"] is None
                    or (h["min"] is not None and h["min"] < prev["min"])
                    else None),
            "max": (h["max"] if prev["max"] is None
                    or (h["max"] is not None and h["max"] > prev["max"])
                    else None),
        }
    return out


def run_chunked(items: Sequence[Any],
                fn: Callable[[Any, Any], Any],
                payload: Any, *,
                config: ParallelConfig | None = None,
                on_chunk: Callable[[list[tuple[int, Any]]], None] | None
                = None,
                fault_plan=None) -> list[Any]:
    """Evaluate ``fn(payload, item)`` for every item, possibly in a pool.

    Args:
        items: the work list; results come back in this order.
        fn: module-level (picklable) task function.
        payload: shared picklable context handed to every call.
        config: worker/chunking configuration (None = inline).
        on_chunk: called after each chunk completes with its
            ``[(index, result), ...]`` (in-chunk order). Chunks may
            complete out of order under ``workers > 1``; callers
            needing deterministic *aggregate* state must rebuild it
            from accumulated results keyed by index (the campaign
            runner rebuilds its checkpoint this way).
        fault_plan: optional
            :class:`~repro.resilience.faults.ProcessFaultPlan`
            executed inside supervised workers (chaos testing). Forces
            the supervised pool path even at ``workers == 1``.

    Returns:
        ``[fn(payload, item) for item in items]`` — same values, any
        scheduling. Items of a quarantined chunk (crashed its worker
        past the threshold) come back as
        :class:`~repro.parallel.supervisor.Poisoned` markers instead
        of results; callers that never see crashes never see them.
    """
    cfg = config if config is not None else ParallelConfig()
    n = len(items)
    if n == 0:
        return []
    chunk_size = cfg.resolve_chunk_size(n)
    chunks = [[(i, items[i]) for i in r]
              for r in chunk_indices(n, chunk_size)]
    results: dict[int, Any] = {}
    with span("parallel.run", items=n, workers=cfg.workers,
              chunks=len(chunks), chunk_size=chunk_size):
        if cfg.workers == 1 and fault_plan is None:
            for chunk in chunks:
                t0 = time.perf_counter()
                done = [(idx, fn(payload, item)) for idx, item in chunk]
                _note_chunk(done, time.perf_counter() - t0, inline=True)
                results.update(done)
                if on_chunk is not None:
                    on_chunk(done)
        else:
            _run_supervised(chunks, fn, payload, cfg, results,
                            on_chunk, fault_plan)
    return [results[i] for i in range(n)]


def _note_chunk(done: list[tuple[int, Any]], wall: float, *,
                inline: bool) -> None:
    counter("parallel.chunks_completed").inc()
    counter("parallel.items_completed").inc(len(done))
    histogram("parallel.chunk_size").observe(len(done))
    histogram("parallel.chunk_seconds").observe(wall)
    log_event("parallel_chunk", items=len(done),
              wall_ms=round(wall * 1e3, 3), inline=inline)


def _chunk_key(chunk: list[tuple[int, Any]]) -> str:
    """Stable task key for a chunk — depends only on item indices, so
    fault plans fire identically at any worker count."""
    return f"chunk/{chunk[0][0]}-{chunk[-1][0]}"


def _run_supervised(chunks, fn, payload, cfg: ParallelConfig,
                    results: dict[int, Any], on_chunk,
                    fault_plan) -> None:
    from .supervisor import Poisoned, SupervisedPool
    from ..errors import WorkerCrashError
    with SupervisedPool(fn, payload, cfg.supervisor_config(),
                        fault_plan=fault_plan) as pool:
        futures = {pool.submit(chunk, key=_chunk_key(chunk)): chunk
                   for chunk in chunks}
        for fut, chunk in futures.items():
            try:
                done, wall = fut.result()
            except WorkerCrashError as exc:
                done = [(idx, Poisoned(key=exc.task_key,
                                       crashes=exc.crashes,
                                       reason=exc.reason))
                        for idx, _ in chunk]
                wall = 0.0
            with span("parallel.chunk_merge", items=len(done)):
                _note_chunk(done, wall, inline=False)
                results.update(done)
                if on_chunk is not None:
                    on_chunk(done)
