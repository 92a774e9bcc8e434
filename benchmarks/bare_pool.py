"""The yardstick for the supervised pool's overhead bar.

:func:`bare_map` maps the same contiguous chunks that
:func:`repro.parallel.run_chunked` schedules over a bare
:class:`~concurrent.futures.ProcessPoolExecutor`: no heartbeats, no
restarts, no metric or span repatriation, and a worker crash aborts
the whole map. ``benchmarks/bench_supervisor.py`` and
``scripts/bench_to_json.py --bench supervisor`` both time the
supervised pool against it on the CPU-bound :func:`spin` workload.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.parallel import ParallelConfig, chunk_indices


def spin(payload: int, item: int) -> int:
    """Deterministic CPU-bound unit of work (module-level: picklable)."""
    acc = item & 0xFFFFFFFF
    for _ in range(payload):
        acc = (acc * 1664525 + 1013904223) & 0xFFFFFFFF
    return acc


def _map_chunk(fn, payload, chunk: list) -> list:
    return [fn(payload, item) for item in chunk]


def bare_map(items: list, fn, payload, *, workers: int,
             chunk_size: int) -> list:
    """``[fn(payload, item) for item in items]`` on a bare pool."""
    chunks = [[items[i] for i in r]
              for r in chunk_indices(len(items), chunk_size)]
    ctx = ParallelConfig(workers=workers).context()
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        done = pool.map(_map_chunk, [fn] * len(chunks),
                        [payload] * len(chunks), chunks)
        return [result for chunk in done for result in chunk]
