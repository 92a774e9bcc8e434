"""serve_mix — one caller's stream of mixed requests into the broker.

A closed loop: a single client thread submits the next request of a
seeded stream to an in-process ``Broker`` at its default settings (two
dispatcher threads) as soon as the previous reply arrives, until
``seconds`` have passed. About 20% of requests repeat one of the last
16 (the result cache); the rest are new ``ExperimentSpec``s — threshold,
thread count and NPB set varied over more geometries than the 8-entry
in-memory operator cache holds. Set-up pre-builds every geometry into
a fresh on-disk operator store, so no request pays a cold build: the
path measured is admission -> queue -> dispatch -> store load ->
matvec -> NPB model -> reply, timed from submit to reply.

Why not an open loop: on a 2-core host, an open loop at 60-120
requests/s left the vCPUs idle between arrivals and overlapped requests
on the interpreter lock, and its latencies swung with the host (p99
21-66 ms across seeds, generator lateness p99 5-18 ms, p50 spread 0.30
over ten seeds). One caller keeps one request in flight; its p50
spread over ten seeds was 0.10.
"""

from __future__ import annotations

import itertools
import os
import random
import time

from harness import (CheckFailed, Context, fresh_import, median,
                     percentile, reset_program_caches)

#: Set-ups per run; ``setup_s`` is their median (each is about 3 s).
SETUP_REPS = 3
MODULES = ("repro.serve",)
CHIPS = ("low-power-cmp", "high-frequency-cmp")   # one shared floorplan
COOLANTS = ("air", "water_pipe", "mineral_oil", "fluorinert", "water")
HEIGHTS = {"full": (1, 2, 3, 4, 6), "small": (1, 2)}
THRESHOLDS = (None, 70.0, 72.5, 75.0, 77.5, 82.5, 85.0, 90.0)
THREADS = (None, 1, 2, 4, 8, 16)
NPB_SETS = (None, ("ep",), ("cg", "mg"), ("ft", "is", "lu"))
REPEAT_FRACTION = 0.2
RECENT = 16
#: Served replies re-run through ``ExperimentSpec.run()`` per phase,
#: drawn from the first ``SAMPLE_WINDOW`` answered requests.
SAMPLE = {"full": 40, "small": 8}
SAMPLE_WINDOW = 1000
#: ``ops_per_s`` is the median rate over this many slices of a run.
SLICES = 10
STORE_ENV = "REPRO_RESPONSE_CACHE_DIR"


def requests(ctx: Context):
    """The request stream, from the seed alone (endless)."""
    from repro.config import ExperimentSpec
    rng = random.Random(f"serve_mix:{ctx.seed}")
    combos = list(itertools.product(HEIGHTS[ctx.size], COOLANTS, CHIPS,
                                    THRESHOLDS, THREADS, NPB_SETS))
    rng.shuffle(combos)
    fresh = itertools.cycle(combos)
    recent: list = []
    while True:
        if recent and rng.random() < REPEAT_FRACTION:
            yield rng.choice(recent)
            continue
        h, cool, chip, thr, threads, npb = next(fresh)
        spec = ExperimentSpec(chip=chip, n_chips=h, cooling=cool,
                              threshold_c=thr, threads=threads,
                              benchmarks=npb)
        recent = (recent + [spec])[-RECENT:]
        yield spec


def setup(ctx: Context) -> dict:
    """Import in a fresh interpreter and pre-build every geometry into
    a fresh operator store."""
    from repro.config import ExperimentSpec
    fresh_import(ctx, MODULES)
    os.environ[STORE_ENV] = str(ctx.fresh_dir("serve-store"))
    reset_program_caches()
    for h in HEIGHTS[ctx.size]:
        for cool in COOLANTS:
            ExperimentSpec(chip=CHIPS[0], n_chips=h, cooling=cool).run()
    return {}


def check(ctx: Context, window: list, answered: int) -> str:
    """Re-run a seeded sample of the answered requests directly; the
    replies must be byte-identical.

    ``window`` holds ``(spec, reply)`` of the first answered requests;
    the sample is drawn from it after the timed phase, and a run that
    cannot re-run ``min(SAMPLE, answered)`` replies fails.
    """
    from repro.serve import result_to_json
    want = min(SAMPLE[ctx.size], answered)
    rng = random.Random(f"serve_mix-check:{ctx.seed}")
    picked = rng.sample(window, min(want, len(window)))
    if answered == 0 or len(picked) < want:
        raise CheckFailed(f"serve: {len(picked)} replies to re-run, "
                          f"{want} needed ({answered} answered)")
    for spec, reply in picked:
        if result_to_json(reply) != result_to_json(spec.run()):
            raise CheckFailed(f"serve: reply for {spec} differs from "
                              f"ExperimentSpec.run()")
    return f"{len(picked)} sampled replies identical to direct runs"


def _slice_rates(times: list[float], start: float,
                 elapsed: float) -> list[float]:
    """Answers per second in each of ``SLICES`` equal slices of the
    timed phase; their median, like the other workloads' median unit,
    leaves out a slice the host stalled."""
    width = elapsed / SLICES
    counts = [0] * SLICES
    for t in times:
        counts[min(int((t - start) / width), SLICES - 1)] += 1
    return [c / width for c in counts]


def measure(ctx: Context, state: dict, seconds: float) -> dict:
    """Submit, wait, repeat until ``seconds`` have passed; then check."""
    from repro.serve import Broker
    latencies, waits, runs, submit_s, window = [], [], [], [], []
    answered_at: list[float] = []
    failed = 0
    reset_program_caches()
    broker = Broker()
    try:
        start = time.monotonic()
        end = start + seconds
        for spec in requests(ctx):
            t0 = time.monotonic()
            if t0 >= end:
                break
            try:
                job = broker.submit(spec)
                submit_s.append(time.monotonic() - t0)
                outcome = job.wait(timeout=60)
            except Exception:  # shed, expired, failed: counted, not raised
                failed += 1
                latencies.append(float("inf"))
                continue
            answered_at.append(time.monotonic())
            latencies.append(job.finished_at - t0)
            if job.started_at is not None:
                waits.append(job.started_at - job.submitted_at)
                runs.append(job.finished_at - job.started_at)
            if len(window) < SAMPLE_WINDOW:
                window.append((spec, outcome.result))
        elapsed = time.monotonic() - start
    finally:
        broker.shutdown(drain=True, timeout=60)
    n = len(latencies)
    ctx.note("check serve_mix: " + check(ctx, window, n - failed))
    return {
        "ops_per_s": median(_slice_rates(answered_at, start, elapsed)),
        "latencies_s": latencies,
        "attempted": n,
        "failed": failed,
        "wall_s": elapsed,
        # the service work the layers account for: every submit plus
        # every computed job's run
        "busy_s": sum(submit_s) + sum(runs),
        "units": n,
        "serve.queue_wait.p50_ms": percentile(waits, 50) * 1e3,
        "serve.queue_wait.p99_ms": percentile(waits, 99) * 1e3,
        "serve.run.p50_ms": percentile(runs, 50) * 1e3,
        "serve.run.p99_ms": percentile(runs, 99) * 1e3,
    }
