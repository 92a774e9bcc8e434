"""Supervised worker pool: crash/hang recovery and poison quarantine.

A bare :class:`~concurrent.futures.ProcessPoolExecutor` has one fatal
property for months-long campaigns: a single worker segfault,
OOM-kill, or hang raises ``BrokenProcessPool`` and aborts the whole
run. :class:`SupervisedPool` is a supervision tree in the datacenter
tradition instead:

* every worker owns a duplex pipe to the supervisor and sends
  **heartbeats** from a background thread at a fixed interval;
* the supervisor multiplexes worker pipes *and* process sentinels
  through :func:`multiprocessing.connection.wait`, so a **crash**
  (sentinel fires while a task is in flight) is seen immediately;
* a **hang** is caught two ways — a heartbeat deadline (frozen or
  starved process) and an optional per-task wall-clock deadline (the
  task function itself wedged) — and the worker is killed;
* dead workers are **restarted with capped exponential backoff**, and
  the in-flight task is re-enqueued at the front of the queue;
* a task that crashes its worker ``max_task_crashes`` times (default
  2) is **quarantined**: its future fails with a structured
  :class:`~repro.errors.WorkerCrashError` instead of being retried
  forever, and every *other* task completes normally. The campaign
  runner converts quarantined chunks into ``poison`` ledger entries,
  preserving byte-identical results for all surviving points at any
  worker count.

Process-level fault injection rides the same rails: a
:class:`~repro.resilience.faults.ProcessFaultPlan` handed to the pool
is consulted *inside the worker* before each task, so ``worker_kill``
/ ``worker_hang`` / ``slow_heartbeat`` exercise the real recovery
paths (``repro chaos`` drives this end to end).

Everything is instrumented through :mod:`repro.obs`:
``supervisor.restarts``, ``supervisor.heartbeat_misses``,
``supervisor.worker_crashes``, ``supervisor.task_timeouts``,
``supervisor.task_retries``, ``supervisor.tasks_poisoned``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable

from ..errors import ConfigurationError, PoolClosedError, WorkerCrashError
from ..obs import counter, gauge, get_registry, get_tracer, log_event

__all__ = ["Poisoned", "SupervisedPool", "SupervisorConfig"]

#: Supervisor loop tick when nothing else wakes it (deadline checks).
_TICK_S = 0.05


@dataclass(frozen=True)
class SupervisorConfig:
    """How the supervision tree watches and revives its workers.

    Attributes:
        workers: worker process count (>= 1).
        start_method: multiprocessing start method (None = ``fork``
            where available, matching :class:`~repro.parallel.pool.
            ParallelConfig`).
        heartbeat_interval_s: how often each worker beats.
        heartbeat_timeout_s: a busy worker silent this long is
            declared hung and killed (None = no heartbeat deadline).
        task_timeout_s: wall-clock budget per task (chunk); a task in
            flight longer than this gets its worker killed (None = no
            per-task deadline). This is the *process-level* backstop —
            the campaign's ``point_timeout_s`` thread budget still
            applies inside the worker.
        max_task_crashes: quarantine threshold — a task that has
            crashed its worker this many times fails with
            :class:`~repro.errors.WorkerCrashError` instead of being
            re-enqueued.
        restart_backoff_s: first restart delay for a worker slot.
        restart_backoff_cap_s: exponential backoff ceiling.
    """

    workers: int = 2
    start_method: str | None = None
    heartbeat_interval_s: float = 0.2
    heartbeat_timeout_s: float | None = 30.0
    task_timeout_s: float | None = None
    max_task_crashes: int = 2
    restart_backoff_s: float = 0.05
    restart_backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError("heartbeat_interval_s must be > 0")
        if (self.heartbeat_timeout_s is not None
                and self.heartbeat_timeout_s <= self.heartbeat_interval_s):
            raise ConfigurationError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigurationError("task_timeout_s must be > 0 or None")
        if self.max_task_crashes < 1:
            raise ConfigurationError("max_task_crashes must be >= 1")
        if self.restart_backoff_s <= 0 or self.restart_backoff_cap_s <= 0:
            raise ConfigurationError("restart backoff must be > 0")

    def context(self):
        """The multiprocessing context for worker processes."""
        from .pool import ParallelConfig
        return ParallelConfig(workers=self.workers,
                              start_method=self.start_method).context()

    def backoff_s(self, restarts: int) -> float:
        """Capped exponential restart delay after ``restarts`` deaths."""
        return min(self.restart_backoff_cap_s,
                   self.restart_backoff_s * (2 ** max(0, restarts - 1)))


@dataclass(frozen=True)
class Poisoned:
    """Per-item marker for a quarantined (repeatedly crashing) task.

    :func:`~repro.parallel.pool.run_chunked` substitutes one of these
    for each item of a chunk whose worker crashes past the quarantine
    threshold, so the batch completes positionally intact; the
    campaign runner turns them into ``poison`` point records and
    ledger entries.
    """

    key: str
    crashes: int
    reason: str


# -- worker side -------------------------------------------------------------

def _init_worker() -> None:
    """Reset the tracer a forked child inherited from its parent.

    Without this a worker would repatriate copies of spans the parent
    already holds, duplicating them in the merged trace. Tracing is
    re-enabled per task when a trace context arrives with it.
    """
    tracer = get_tracer()
    tracer.disable()
    tracer.reset()


def _worker_main(conn, fn: Callable[[Any, Any], Any], payload: Any,
                 heartbeat_interval_s: float, fault_plan) -> None:
    """Worker process entry: heartbeat thread + task loop.

    Protocol (worker -> supervisor): ``("hb",)``, ``("done", task_id,
    results, metrics_delta, wall, spans)``, ``("err", task_id,
    exception)``. Supervisor -> worker: ``("task", task_id, key,
    attempt, chunk, trace_ctx)`` and ``("stop",)``.

    ``trace_ctx`` is the submitting thread's
    :meth:`~repro.obs.Tracer.propagation_context` (None while tracing
    is off). When present, the worker tracer is enabled for the task,
    the chunk runs under a ``supervisor.chunk`` span remote-parented to
    the shipped context (each item under a ``worker.point`` span), and
    the finished span dicts ride back on the ``done`` message beside
    the metrics delta.
    """
    from .pool import snapshot_delta
    _init_worker()
    send_lock = threading.Lock()
    hb_muted_until = [0.0]
    stop = threading.Event()

    def _beat() -> None:
        while not stop.is_set():
            if time.monotonic() >= hb_muted_until[0]:
                try:
                    with send_lock:
                        conn.send(("hb",))
                except (OSError, ValueError, BrokenPipeError):
                    return               # supervisor went away
            stop.wait(heartbeat_interval_s)

    threading.Thread(target=_beat, name="supervisor-heartbeat",
                     daemon=True).start()
    registry = get_registry()
    tracer = get_tracer()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return                   # supervisor went away
            if msg[0] == "stop":
                return
            _, task_id, key, attempt, chunk, trace_ctx = msg
            if fault_plan is not None:
                kind = fault_plan.draw(key, attempt)
                if kind == "worker_kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif kind == "worker_hang":
                    while True:          # caught by task_timeout_s
                        time.sleep(3600)
                elif kind == "slow_heartbeat":
                    hb_muted_until[0] = (time.monotonic()
                                         + fault_plan.stall_s)
            if trace_ctx is not None:
                tracer.enabled = True
                tracer.set_remote_parent(trace_ctx.get("parent_id"))
            else:
                tracer.enabled = False
            before = registry.snapshot()
            t0 = time.perf_counter()
            try:
                results = []
                with tracer.span("supervisor.chunk", key=key,
                                 items=len(chunk), attempt=attempt):
                    for idx, item in chunk:
                        with tracer.span("worker.point", index=idx):
                            results.append((idx, fn(payload, item)))
            except BaseException as exc:
                tracer.drain_span_dicts()     # drop the failed task's spans
                tracer.set_remote_parent(None)
                _send_err(conn, send_lock, task_id, exc)
                continue
            wall = time.perf_counter() - t0
            delta = snapshot_delta(before, registry.snapshot())
            spans = tracer.drain_span_dicts() if trace_ctx is not None else []
            tracer.set_remote_parent(None)
            try:
                with send_lock:
                    conn.send(("done", task_id, results, delta, wall,
                               spans))
            except (OSError, EOFError, BrokenPipeError):
                return
            except Exception as exc:     # unpicklable result
                _send_err(conn, send_lock, task_id, RuntimeError(
                    f"task result could not be returned: "
                    f"{type(exc).__name__}: {exc}"))
    finally:
        stop.set()


def _send_err(conn, send_lock, task_id: int, exc: BaseException) -> None:
    """Report a task exception, degrading to a repr if it won't pickle."""
    try:
        with send_lock:
            conn.send(("err", task_id, exc))
    except (OSError, EOFError, BrokenPipeError):
        pass
    except Exception:
        try:
            with send_lock:
                conn.send(("err", task_id, RuntimeError(
                    f"{type(exc).__name__}: {exc}")))
        except Exception:
            pass


# -- supervisor side ---------------------------------------------------------

class _Task:
    """One scheduled chunk and its accounting."""

    __slots__ = ("id", "key", "chunk", "future", "crashes", "started_at",
                 "trace_ctx")

    def __init__(self, task_id: int, key: str,
                 chunk: list[tuple[int, Any]],
                 trace_ctx: dict[str, Any] | None = None) -> None:
        self.id = task_id
        self.key = key
        self.chunk = chunk
        self.future: "Future[tuple[list[tuple[int, Any]], float]]" \
            = Future()
        self.crashes = 0
        self.started_at = 0.0
        self.trace_ctx = trace_ctx


class _Slot:
    """One worker seat: process + pipe + liveness state."""

    __slots__ = ("index", "proc", "conn", "current", "last_hb",
                 "restarts", "ready_at")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.conn = None
        self.current: _Task | None = None
        self.last_hb = 0.0
        self.restarts = 0
        self.ready_at = 0.0


class SupervisedPool:
    """A self-healing process pool with a ``submit(chunk) -> Future``
    interface.

    Args:
        fn: module-level (picklable) task function
            ``fn(payload, item) -> result``.
        payload: shared picklable context handed to every call.
        config: supervision knobs.
        fault_plan: optional process-level fault schedule, executed in
            the workers (chaos testing).

    Each submitted task is a chunk ``[(index, item), ...]``; its
    future resolves to ``(results, wall_seconds)`` with the worker's
    metrics delta already merged into the parent registry, or fails
    with the task's own exception, or — after the quarantine
    threshold — with :class:`~repro.errors.WorkerCrashError`.
    """

    def __init__(self, fn: Callable[[Any, Any], Any], payload: Any,
                 config: SupervisorConfig | None = None, *,
                 fault_plan=None) -> None:
        self.config = config if config is not None else SupervisorConfig()
        self._fn = fn
        self._payload = payload
        self._fault_plan = fault_plan
        self._ctx = self.config.context()
        self._lock = threading.Lock()
        self._pending: deque[_Task] = deque()
        self._inflight: dict[int, _Task] = {}
        self._seq = 0
        self._closed = False
        self._cancel = False
        self._slots = [_Slot(i) for i in range(self.config.workers)]
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        for slot in self._slots:
            self._spawn(slot)
        self._thread = threading.Thread(target=self._loop,
                                        name="pool-supervisor",
                                        daemon=True)
        self._thread.start()

    # -- public API ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def submit(self, chunk: list[tuple[int, Any]], *,
               key: str = "") -> "Future[tuple[list[tuple[int, Any]], float]]":
        """Schedule one chunk; returns its future (see class docs).

        The submitting thread's trace context is captured here, so
        worker spans parent to whatever span is open at the call site
        (a re-enqueued crash retry keeps the original context).
        """
        if not chunk:
            raise ConfigurationError("cannot submit an empty chunk")
        trace_ctx = get_tracer().propagation_context()
        with self._lock:
            if self._closed:
                raise PoolClosedError()
            self._seq += 1
            task = _Task(self._seq, key or f"task/{self._seq}",
                         list(chunk), trace_ctx)
            self._pending.append(task)
        self._wake()
        return task.future

    def close(self, *, wait: bool = True) -> None:
        """Stop the pool (idempotent).

        ``wait=True`` lets outstanding tasks finish (crashes included —
        supervision keeps running until every future resolves);
        ``wait=False`` fails outstanding futures with
        :class:`~repro.errors.PoolClosedError` and kills the workers.
        """
        with self._lock:
            if self._closed and not wait:
                self._cancel = True
            self._closed = True
            if not wait:
                self._cancel = True
        self._wake()
        self._thread.join()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._fn, self._payload,
                  self.config.heartbeat_interval_s, self._fault_plan),
            name=f"supervised-worker-{slot.index}",
            daemon=True)
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn
        slot.last_hb = time.monotonic()
        gauge("supervisor.workers_alive").set(
            sum(1 for s in self._slots if s.proc is not None))

    def _kill(self, slot: _Slot) -> None:
        if slot.proc is not None and slot.proc.is_alive():
            slot.proc.kill()
            slot.proc.join(timeout=5.0)

    def _reap(self, slot: _Slot) -> None:
        """Release a dead slot's process and pipe."""
        if slot.proc is not None:
            slot.proc.join(timeout=5.0)
            slot.proc.close()
            slot.proc = None
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:
                pass
            slot.conn = None
        gauge("supervisor.workers_alive").set(
            sum(1 for s in self._slots if s.proc is not None))

    def _on_worker_death(self, slot: _Slot, reason: str) -> None:
        """Crash bookkeeping: re-enqueue or quarantine, then backoff."""
        task = slot.current
        slot.current = None
        self._kill(slot)
        self._reap(slot)
        counter("supervisor.worker_crashes").inc()
        slot.restarts += 1
        delay = self.config.backoff_s(slot.restarts)
        slot.ready_at = time.monotonic() + delay
        log_event("supervisor_worker_death", slot=slot.index,
                  reason=reason, restarts=slot.restarts,
                  backoff_s=round(delay, 4),
                  task_key=task.key if task is not None else None)
        if task is None:
            return
        task.crashes += 1
        self._inflight.pop(task.id, None)
        if task.crashes >= self.config.max_task_crashes:
            counter("supervisor.tasks_poisoned").inc()
            log_event("supervisor_task_poisoned", task_key=task.key,
                      crashes=task.crashes, reason=reason)
            task.future.set_exception(WorkerCrashError(
                f"task {task.key!r} crashed its worker "
                f"{task.crashes}x (last: {reason}); quarantined",
                task_key=task.key, crashes=task.crashes, reason=reason))
        else:
            counter("supervisor.task_retries").inc()
            with self._lock:
                self._pending.appendleft(task)

    # -- supervisor loop ----------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"w")
        except (OSError, ValueError):
            pass

    def _outstanding(self) -> bool:
        with self._lock:
            return bool(self._pending) or bool(self._inflight)

    def _loop(self) -> None:
        while True:
            if self._cancel:
                self._drop_outstanding()
            if self._closed and not self._outstanding():
                break
            self._maintain()
            self._assign()
            ready = connection.wait(self._wait_objects(),
                                    timeout=_TICK_S)
            self._drain(ready)
            self._check_deaths()
            self._check_deadlines()
        self._stop_workers()

    def _wait_objects(self) -> list:
        objs: list = [self._wake_r]
        for slot in self._slots:
            if slot.proc is not None:
                objs.append(slot.conn)
                objs.append(slot.proc.sentinel)
        return objs

    def _maintain(self) -> None:
        """Restart due slots — lazily: only when there is work for them."""
        now = time.monotonic()
        with self._lock:
            needed = len(self._pending)
        if not needed:
            return
        for slot in self._slots:
            if (slot.proc is None and not self._closed
                    and now >= slot.ready_at and needed > 0):
                self._spawn(slot)
                counter("supervisor.restarts").inc()
                log_event("supervisor_worker_restarted",
                          slot=slot.index, restarts=slot.restarts)
                needed -= 1

    def _assign(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if slot.proc is None or slot.current is not None:
                continue
            with self._lock:
                task = self._pending.popleft() if self._pending else None
                if task is not None:
                    self._inflight[task.id] = task
            if task is None:
                return
            try:
                slot.conn.send(("task", task.id, task.key,
                                task.crashes, task.chunk,
                                task.trace_ctx))
            except (OSError, EOFError, BrokenPipeError):
                # worker died between checks; re-enqueue, reap below
                with self._lock:
                    self._inflight.pop(task.id, None)
                    self._pending.appendleft(task)
                continue
            task.started_at = now
            slot.current = task
            slot.last_hb = now

    def _drain(self, ready: list) -> None:
        if self._wake_r in ready:
            try:
                while self._wake_r.poll():
                    self._wake_r.recv()
            except (OSError, EOFError):
                pass
        for slot in self._slots:
            if slot.conn is None or slot.conn not in ready:
                continue
            self._drain_slot(slot)

    def _drain_slot(self, slot: _Slot) -> None:
        while slot.conn is not None:
            try:
                if not slot.conn.poll():
                    return
                msg = slot.conn.recv()
            except (EOFError, OSError):
                return        # death handled via the sentinel pass
            slot.last_hb = time.monotonic()
            if msg[0] == "hb":
                continue
            if msg[0] == "done":
                _, task_id, results, delta, wall, spans = msg
                task = self._inflight.pop(task_id, None)
                if slot.current is not None \
                        and slot.current.id == task_id:
                    slot.current = None
                if task is not None:
                    get_registry().merge_snapshot(delta)
                    if spans:
                        get_tracer().adopt_spans(spans)
                        counter("trace.spans_repatriated").inc(len(spans))
                    task.future.set_result((results, wall))
            elif msg[0] == "err":
                _, task_id, exc = msg
                task = self._inflight.pop(task_id, None)
                if slot.current is not None \
                        and slot.current.id == task_id:
                    slot.current = None
                if task is not None:
                    task.future.set_exception(exc)

    def _check_deaths(self) -> None:
        for slot in self._slots:
            if slot.proc is not None and not slot.proc.is_alive():
                # collect any result the worker flushed before dying
                self._drain_slot(slot)
                self._on_worker_death(slot, "worker process died")

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        hb_timeout = self.config.heartbeat_timeout_s
        task_timeout = self.config.task_timeout_s
        for slot in self._slots:
            if slot.proc is None or slot.current is None:
                continue
            if (hb_timeout is not None
                    and now - slot.last_hb > hb_timeout):
                self._drain_slot(slot)        # not actually late?
                if slot.current is None \
                        or now - slot.last_hb <= hb_timeout:
                    continue
                counter("supervisor.heartbeat_misses").inc()
                self._on_worker_death(
                    slot, f"no heartbeat for {now - slot.last_hb:.2f} s")
                continue
            if (task_timeout is not None
                    and now - slot.current.started_at > task_timeout):
                self._drain_slot(slot)
                if slot.current is None:
                    continue
                counter("supervisor.task_timeouts").inc()
                self._on_worker_death(
                    slot, f"task exceeded its {task_timeout:g} s "
                          f"wall-clock deadline")

    def _drop_outstanding(self) -> None:
        """close(wait=False): fail everything still unresolved."""
        with self._lock:
            dropped = list(self._pending) + list(self._inflight.values())
            self._pending.clear()
            self._inflight.clear()
        for slot in self._slots:
            slot.current = None
        for task in dropped:
            if not task.future.done():
                task.future.set_exception(PoolClosedError(
                    f"pool closed with task {task.key!r} unresolved"))

    def _stop_workers(self) -> None:
        for slot in self._slots:
            if slot.proc is None:
                continue
            try:
                slot.conn.send(("stop",))
            except (OSError, EOFError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 1.0
        for slot in self._slots:
            if slot.proc is None:
                continue
            slot.proc.join(timeout=max(0.0,
                                       deadline - time.monotonic()))
            self._kill(slot)
            self._reap(slot)
        for end in (self._wake_r, self._wake_w):
            try:
                end.close()
            except OSError:
                pass
