"""Persistent item-at-a-time worker pool for the serving layer.

:func:`repro.parallel.pool.run_chunked` is a batch API: it owns its
pool for the duration of one grid and tears it down. A request broker
(:mod:`repro.serve`) has the opposite shape — the pool outlives any
single request and items arrive one at a time — so :class:`WorkerPool`
keeps a :class:`~repro.parallel.supervisor.SupervisedPool` warm behind
a ``submit(item) -> Future`` interface while preserving the guarantees
the batch engine established:

* workers start through the same supervised worker entry as the
  batch engine's, so serve workers and campaign workers are
  interchangeable task targets;
* every item repatriates the *delta* of its worker-side metrics
  registry (:func:`~repro.parallel.pool.snapshot_delta`), merged into
  the parent registry on completion, so served requests show up in
  manifests exactly like campaign points do;
* when the parent tracer is enabled, :meth:`WorkerPool.submit`
  captures the submitting thread's trace context (the broker's open
  ``broker.dispatch`` span) and the worker's spans come back merged
  into the parent tracer before the item's future resolves — a served
  request's trace crosses the process boundary intact;
* a worker crash no longer breaks the pool: supervision restarts the
  worker, retries the item once, and only then fails that item's
  future with a structured :class:`~repro.errors.WorkerCrashError` —
  the pool keeps serving subsequent requests either way.

Submitting to a closed pool raises
:class:`~repro.errors.PoolClosedError` (the serve broker catches it
and rebuilds the pool transparently; the CLI maps it to exit 75).
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Callable

from ..errors import ConfigurationError, PoolClosedError
from ..obs import histogram
from .supervisor import SupervisedPool, SupervisorConfig

__all__ = ["WorkerPool"]


class WorkerPool:
    """A long-lived supervised pool evaluating one item per submission.

    Args:
        fn: module-level (picklable) task function
            ``fn(payload, item) -> result``.
        payload: shared picklable context handed to every call.
        workers: process count (>= 1).
        start_method: multiprocessing start method (None = ``fork``
            where available, matching :class:`~repro.parallel.pool.
            ParallelConfig`).
        heartbeat_timeout_s: silence budget before a busy worker is
            declared hung and restarted (None disables).
        task_timeout_s: wall-clock budget per item before its worker
            is killed and the item retried (None disables).
        max_item_crashes: crash count at which an item's future fails
            with :class:`~repro.errors.WorkerCrashError` instead of
            being retried on a fresh worker.
        fault_plan: optional process-level fault schedule executed in
            the workers (chaos testing).
    """

    def __init__(self, fn: Callable[[Any, Any], Any], payload: Any, *,
                 workers: int = 1,
                 start_method: str | None = None,
                 heartbeat_timeout_s: float | None = 30.0,
                 task_timeout_s: float | None = None,
                 max_item_crashes: int = 2,
                 fault_plan=None) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self._seq = 0
        self._pool: SupervisedPool | None = SupervisedPool(
            fn, payload,
            SupervisorConfig(workers=workers,
                             start_method=start_method,
                             heartbeat_timeout_s=heartbeat_timeout_s,
                             task_timeout_s=task_timeout_s,
                             max_task_crashes=max_item_crashes),
            fault_plan=fault_plan)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._pool is None

    def submit(self, item: Any) -> "Future[Any]":
        """Schedule one item; the future resolves to ``fn``'s result.

        The worker's metrics delta (and, with tracing on, its span
        dicts) is folded into the parent registry before the returned
        future resolves, so a caller observing the result also
        observes its instruments. If the item crashes its
        worker past the retry budget, the future fails with
        :class:`~repro.errors.WorkerCrashError`; the pool itself stays
        healthy.
        """
        if self._pool is None:
            raise PoolClosedError()
        self._seq += 1
        inner = self._pool.submit([(0, item)], key=f"item/{self._seq}")
        outer: Future[Any] = Future()

        def _done(fut: "Future") -> None:
            try:
                done, wall = fut.result()
            except BaseException as exc:  # crash quarantine or task error
                outer.set_exception(exc)
                return
            histogram("parallel.item_seconds").observe(wall)
            outer.set_result(done[0][1])

        inner.add_done_callback(_done)
        return outer

    def close(self, *, wait: bool = True) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.close(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
