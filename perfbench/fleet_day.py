"""fleet_day — one simulated day of the stall-prone immersion fleet.

``repro.fleet.simulate`` on the plant ``BENCH_fleet`` times: 16 tanks x
32 boards, 58 C supply water, a weak exchanger, thermal-aware
placement, 24 simulated hours, plus a seeded fault plan at modest
rates so the fault timeline and incident response are on the measured
path while most steps stay fault-free. After the one ladder build in
set-up it does no thermal solves: arrivals -> placement -> DTM ladder
-> tank update -> event log -> incidents. The seed is the scenario
seed; a run repeats its scenario until ``seconds`` have passed.
"""

from __future__ import annotations

import json
import time

from harness import (REFERENCE_DIR, CheckFailed, Context, fresh_import,
                     median, reset_program_caches)

#: Set-ups per run; ``setup_s`` is their median (each is about 1.2 s).
SETUP_REPS = 5
MODULES = ("repro.fleet",)
#: The seed whose event-log digest and result bytes are recorded.
REFERENCE_SEED = 0
SIZES = {
    # tanks, boards per tank, simulated hours
    "full": (16, 32, 24.0),
    "small": (2, 4, 2.0),
}


def scenario(ctx: Context):
    from repro.fleet import (FleetConfig, FleetFaultPlan, FleetScenario,
                             WorkloadConfig)
    tanks, boards, hours = SIZES[ctx.size]
    fleet = FleetConfig(n_tanks=tanks, boards_per_tank=boards,
                        supply_temp_c=58.0, exchange_flow_m3_s=1e-4)
    # offered load scales with the board count, as in BENCH_fleet
    workload = WorkloadConfig(rate_per_s=0.6 * fleet.n_boards / 512.0,
                              work_gcycles=600.0)
    faults = FleetFaultPlan(aging_years_per_sim_hour=0.05,
                            chip_mttf_years=100.0,
                            pump_loss_per_tank_hour=0.01,
                            fouling_per_tank_hour=0.01,
                            sensor_fault_per_tank_hour=0.02)
    return FleetScenario(fleet=fleet, workload=workload,
                         policy="thermal-aware", seed=ctx.seed,
                         duration_s=hours * 3600.0, faults=faults)


def setup(ctx: Context) -> dict:
    """Import in a fresh interpreter and build the board ladder cold."""
    from repro.fleet import build_board_ladder
    fresh_import(ctx, MODULES)
    sc = scenario(ctx)
    reset_program_caches()
    t0 = time.perf_counter()
    build_board_ladder(sc.fleet)
    ladder_s = time.perf_counter() - t0
    with open(REFERENCE_DIR / "fleet.json") as fh:
        reference = json.load(fh)
    return {"scenario": sc, "ladder_build_s": ladder_s,
            "reference": reference}


def down_board_steps(result) -> int:
    """Board-steps lost, recomputed from the incident ledger alone: a
    board is down at step k while a retirement or chip death covers it
    or its tank is isolated (overlaps counted once)."""
    cfg = result.scenario.fleet
    step_us = int(round(cfg.step_s * 1e6))
    horizon = result.steps * step_us
    spans: dict[int, list[tuple[int, int]]] = {}
    for inc in result.incidents:
        end = inc["t_end_us"] if inc["t_end_us"] is not None else horizon
        if inc["kind"] == "tank_isolated":
            first = inc["index"] * cfg.boards_per_tank
            boards = range(first, first + cfg.boards_per_tank)
        elif inc["scope"] == "board" and inc["kind"] in ("board_retire",
                                                         "chip_death"):
            boards = (inc["index"],)
        else:
            continue
        for b in boards:
            spans.setdefault(b, []).append((inc["t_start_us"], end))
    down = 0
    for intervals in spans.values():
        # steps k with start <= k * step_us < end, unioned per board
        covered: set[int] = set()
        for start, end in intervals:
            k0 = -(-start // step_us)
            k1 = min(-(-end // step_us), result.steps)
            covered.update(range(max(k0, 0), k1))
        down += len(covered)
    return down


def check(ctx: Context, state: dict, results: list) -> None:
    """Ledger closes, availability reconciles, runs repeat exactly,
    and the reference seed reproduces its recorded bytes."""
    from repro.fleet import results_json
    first = results[0]
    for r in results:
        if not r.conservation_relative_residual < 1e-6:
            raise CheckFailed(f"fleet: energy ledger residual "
                              f"{r.conservation_relative_residual:.3e}")
        if r.to_json() != first.to_json():
            raise CheckFailed("fleet: repeated runs of one scenario differ")
    av = first.availability
    total = first.steps * first.scenario.fleet.n_boards
    down = down_board_steps(first)
    if (av["incidents_total"] != len(first.incidents)
            or av["board_steps_total"] != total
            or av["board_steps_down"] != down
            or abs(av["availability"] - (1.0 - down / total)) > 1e-12):
        raise CheckFailed(f"fleet: availability does not reconcile with "
                          f"the incident ledger ({down} board-steps down "
                          f"by the ledger, {av})")
    note = (f"check fleet_day: {len(results)} identical runs, residual "
            f"{first.conservation_relative_residual:.1e}, "
            f"{len(first.incidents)} incidents reconcile")
    ref = state["reference"]
    if ctx.seed == ref["seed"]:
        want = ref[ctx.size]
        if first.event_digest != want["event_digest"]:
            raise CheckFailed(f"fleet: event digest {first.event_digest} "
                              f"!= reference {want['event_digest']}")
        if results_json([first]) != want["results_json"]:
            raise CheckFailed("fleet: results_json bytes differ from "
                              "the reference")
        note += ", digest and results_json match the reference"
    ctx.note(note)


def measure(ctx: Context, state: dict, seconds: float) -> dict:
    """The scenario back to back until ``seconds`` have passed."""
    from repro.fleet import simulate
    sc = state["scenario"]
    walls, results = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = simulate(sc)
        except Exception as exc:  # a scenario that raises is a failed op
            failed += 1
            ctx.note(f"fleet_day: scenario raised {type(exc).__name__}: "
                     f"{exc}")
        else:
            walls.append(time.perf_counter() - t0)
            results.append(result)
        if time.perf_counter() - t_start >= seconds:
            break
    if not results:
        raise CheckFailed("fleet: every scenario raised")
    check(ctx, state, results)
    board_steps = sc.fleet.n_boards * results[0].steps
    return {
        "ops_per_s": median([board_steps / w for w in walls]),
        "latencies_s": walls,
        "attempted": attempted,
        "failed": failed,
        "busy_s": sum(walls),
        "unit_s": walls,
        "fleet.ladder_build.total_s": state["ladder_build_s"],
    }
