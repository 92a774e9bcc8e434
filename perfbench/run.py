"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload frontier_cold --seed 0 \
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with every
layer wrapped (see ``layers.py``) and prints the per-layer metrics.
Every run checks the program's outputs; a failed check exits 1 and
reports no numbers. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The run works in ``.perfbench_work/`` inside the checkout and removes
it on exit. ``--size small`` exists for the benchmark's own smoke test.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frontier_cold", "serve_mix", "fleet_day")

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    return ap.parse_args(argv)


def _end_to_end(ctx, phase: dict, setup_s: list[float]) -> dict:
    from harness import median, peak_rss_mb, percentile
    lat = phase["latencies_s"]
    cap = phase.get("wall_s", sum(x for x in lat if x != math.inf))

    def ms(q):
        # a failed request misses any latency limit; when one lands on
        # the percentile, report the whole measured span as its floor
        v = percentile(lat, q)
        if v == math.inf:
            ctx.note(f"latency p{q:g} falls on a failed request")
            v = cap
        return v * 1e3

    # the tail is reported but not gated: on a 2-core host, slow host
    # periods doubled serve_mix's p99 (README, Steadiness)
    ctx.note(f"latency p99 {ms(99):.6g} ms over {len(lat)} units "
             f"(not gated)")
    return {
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - phase["failed"] / phase["attempted"],
        "ops_per_s": phase["ops_per_s"],
        "latency_p50_ms": ms(50),
    }


def _per_layer(wl, ctx, state, seconds: float) -> tuple[dict, dict]:
    from harness import percentile
    from layers import (LayerTracer, install, layer_metrics,
                        registry_delta, registry_snapshot)
    untraced = wl.measure(ctx, state, seconds)
    tracer = LayerTracer()
    install(tracer)
    before = registry_snapshot()
    try:
        traced = wl.measure(ctx, state, seconds)
    finally:
        tracer.remove()
    counters = registry_delta(before, registry_snapshot())
    if tracer.missing:
        ctx.note("layers not found (reading 0): "
                 + ", ".join(tracer.missing))
    extra = {k: v for k, v in traced.items()
             if k.startswith(("serve.", "fleet."))}
    extra["obs.latency_p99_ms"] = percentile(
        [x for x in traced["latencies_s"] if x != math.inf], 99) * 1e3
    extra["obs.traced_s"] = traced["busy_s"]
    extra["obs.untraced_s"] = _per_unit(untraced) / _per_unit(traced) \
        * traced["busy_s"]
    return traced, layer_metrics(tracer, counters, extra)


def _per_unit(phase: dict) -> float:
    """Typical cost of one unit of work: the median campaign or
    scenario, or the mean request (whose costs vary by design)."""
    from harness import median
    if "unit_s" in phase:
        return median(phase["unit_s"])
    return phase["busy_s"] / phase["units"]


def run(args) -> int:
    from harness import CheckFailed, Context, host_facts
    ctx = Context(root=ROOT, work=args.work, seed=args.seed,
                  size=args.size)
    wl = importlib.import_module(args.workload)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    phase = {"attempted": 0, "failed": 0}
    try:
        setup_s = []
        for _ in range(wl.SETUP_REPS):
            t0 = time.perf_counter()
            state = wl.setup(ctx)
            setup_s.append(time.perf_counter() - t0)
        print("host " + json.dumps(host_facts(ROOT), sort_keys=True))
        if args.trace:
            from layers import PER_LAYER_UNITS as units
            phase, metrics = _per_layer(wl, ctx, state, args.seconds)
        else:
            phase = wl.measure(ctx, state, args.seconds)
            metrics = _end_to_end(ctx, phase, setup_s)
            units = E2E_UNITS
    except CheckFailed as exc:
        for line in ctx.notes:
            print(line)
        print(f"FAIL {exc}")
        print(json.dumps({"correct": False,
                          "attempted": max(phase["attempted"], 1),
                          "failed": phase["failed"], "metrics": {}}))
        return 1
    for line in ctx.notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".perfbench_work"
    args.work = work_root / f"{args.workload}-{os.getpid()}"
    args.work.mkdir(parents=True)
    # keep every temporary file the program makes inside the checkout
    os.environ["TMPDIR"] = str(args.work)
    tempfile.tempdir = str(args.work)
    try:
        return run(args)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
