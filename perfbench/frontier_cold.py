"""frontier_cold — the Figs. 7/8 frequency-frontier campaign, run cold.

Both CMPs x the five paper coolants x a thinned set of stack heights
(15-high stays in), through ``CampaignRunner`` at its default settings
with a checkpoint. Every campaign starts from empty in-process caches
and a fresh, empty on-disk operator store, so the thermal cold path —
operator builds, multi-RHS solves, rasterization, store writes and
checkpoint fsyncs — does nearly all the work. The seed shuffles the
point order; the work per campaign does not depend on it.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import time

from harness import (REFERENCE_DIR, CheckFailed, Context, fresh_import,
                     median, reset_program_caches)

#: Set-ups per run; ``setup_s`` is their median (each is about 1 s).
SETUP_REPS = 7
#: What a fresh interpreter imports before it can run a campaign.
MODULES = ("repro.core.campaign",)
CHIPS = ("low-power-cmp", "high-frequency-cmp")
COOLANTS = ("air", "water_pipe", "mineral_oil", "fluorinert", "water")
HEIGHTS = {"full": (1, 3, 5, 8, 11, 15), "small": (1, 3)}
#: The documented switch that points the operator store at a directory.
STORE_ENV = "REPRO_RESPONSE_CACHE_DIR"


def _points(ctx: Context, rep: int) -> list:
    from repro.core.campaign import frequency_grid
    points = [p for chip in CHIPS
              for p in frequency_grid(chip, HEIGHTS[ctx.size], COOLANTS)]
    random.Random(f"frontier_cold:{ctx.seed}:{rep}").shuffle(points)
    return points


def _prepare(ctx: Context, rep: int, points=None):
    """A campaign runner over a fresh directory and empty caches."""
    from repro.core.campaign import CampaignRunner
    run_dir = ctx.fresh_dir(f"frontier-{rep}")
    os.environ[STORE_ENV] = str(run_dir / "opstore")
    reset_program_caches()
    return CampaignRunner(points if points is not None
                          else _points(ctx, rep),
                          checkpoint_path=run_dir / "campaign.json")


def setup(ctx: Context) -> dict:
    """Import in a fresh interpreter, warm lazy imports with a
    one-point campaign, and prepare a cold campaign."""
    from repro.core.campaign import frequency_grid
    fresh_import(ctx, MODULES)
    _prepare(ctx, -1, frequency_grid(CHIPS[0], (1,), COOLANTS[-1:])
             ).run(resume=False)
    _prepare(ctx, 0)
    with open(REFERENCE_DIR / "frontier.json") as fh:
        return {"reference": json.load(fh)}


def check(reference: dict, runner, result) -> float:
    """Every point matches the recorded frontier; the checkpoint
    verifies. Returns the largest temperature deviation."""
    from repro.core.campaign import verify_checkpoint
    tol = reference["max_temp_tolerance_c"]
    ref = reference["points"]
    records = result.records
    if len(records) != len(runner.points):
        raise CheckFailed(f"frontier: {len(records)} records for "
                          f"{len(runner.points)} points")
    worst = 0.0
    for key, rec in records.items():
        want = ref.get(key)
        if want is None:
            raise CheckFailed(f"frontier: no reference for {key}")
        if rec.status != want["status"] or rec.f_ghz != want["f_ghz"]:
            raise CheckFailed(
                f"frontier: {key} gave {rec.status} at {rec.f_ghz} GHz, "
                f"reference {want['status']} at {want['f_ghz']} GHz")
        d_t = abs(rec.max_temp_c - want["max_temp_c"])
        if not d_t <= tol:
            raise CheckFailed(f"frontier: {key} max_temp_c off by "
                              f"{d_t:.3e} C (tolerance {tol:g} C)")
        worst = max(worst, d_t)
    summary = verify_checkpoint(runner.checkpoint_path)
    if summary["points"] != len(records) or summary["checksum_ok"] is not True:
        raise CheckFailed(f"frontier: checkpoint does not verify: {summary}")
    return worst


def measure(ctx: Context, state: dict, seconds: float) -> dict:
    """Cold campaigns back to back until ``seconds`` have passed."""
    walls, attempted, failed, rep, worst = [], 0, 0, 0, 0.0
    t_start = time.perf_counter()
    while True:
        runner = _prepare(ctx, rep)
        t0 = time.perf_counter()
        result = runner.run(resume=False)
        walls.append(time.perf_counter() - t0)
        n = len(runner.points)
        attempted += n
        failed += sum(1 for r in result.records.values()
                      if r.status == "failed" or r.degraded)
        worst = max(worst, check(state["reference"], runner, result))
        shutil.rmtree(runner.checkpoint_path.parent)
        # free this campaign's cycles before the next one starts, so the
        # peak memory is one campaign's, not the collector's timing
        del runner, result
        gc.collect()
        rep += 1
        if time.perf_counter() - t_start >= seconds:
            break
    ctx.note(f"check frontier_cold: {len(walls)} campaigns x {n} points "
             f"match the reference (max |dT| {worst:.1e} C), every "
             f"checkpoint verifies")
    return {
        "ops_per_s": median([n / w for w in walls]),
        "latencies_s": walls,
        "attempted": attempted,
        "failed": failed,
        "busy_s": sum(walls),
        "unit_s": walls,
    }
