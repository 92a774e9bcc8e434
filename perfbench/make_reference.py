"""Record the reference outputs the benchmark checks against.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/frontier.json`` (status, frequency and
hottest-die temperature of every ``frontier_cold`` point) and
``perfbench/reference/fleet.json`` (event-log digest and
``results_json`` bytes of the ``fleet_day`` scenario at its reference
seed, for both sizes). Re-record only when the program's answers are
meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Temperatures may move by reordered exact arithmetic (a new sparse
#: ordering agrees to ~1e-14 C), never by a model change.
MAX_TEMP_TOLERANCE_C = 1e-6


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import fleet_day
    import frontier_cold
    from harness import REFERENCE_DIR, Context
    from repro.fleet import results_json, simulate

    out = REFERENCE_DIR
    out.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(root=ROOT, work=work, seed=0)
        runner = frontier_cold._prepare(ctx, 0)
        result = runner.run(resume=False)
        points = {key: {"status": r.status, "f_ghz": r.f_ghz,
                        "max_temp_c": r.max_temp_c}
                  for key, r in sorted(result.records.items())}
        with open(out / "frontier.json", "w") as fh:
            json.dump({"max_temp_tolerance_c": MAX_TEMP_TOLERANCE_C,
                       "points": points}, fh, indent=1, sort_keys=True)
            fh.write("\n")

        fleet = {"seed": fleet_day.REFERENCE_SEED}
        for size in fleet_day.SIZES:
            ctx = Context(root=ROOT, work=work,
                          seed=fleet_day.REFERENCE_SEED, size=size)
            r = simulate(fleet_day.scenario(ctx))
            fleet[size] = {"event_digest": r.event_digest,
                           "results_json": results_json([r])}
        with open(out / "fleet.json", "w") as fh:
            json.dump(fleet, fh, indent=1, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
