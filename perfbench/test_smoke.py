"""The benchmark's own smoke test: tiny sizes, and proof the checks bite.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs at ``--size small`` and must print a correct
result. Then each check must bite: a perturbed reference frontier and
a wrong fleet digest (in a copy of the benchmark, with ``src/`` linked
in), and a broker whose evaluator answers wrongly (patched in-process
before the benchmark starts), must each make the command fail. The repo's
own test suite does not collect this file (its ``testpaths`` is
``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


ARGS = ("--seed", "0", "--seconds", "1", "--size", "small")

#: Runs the benchmark in-process after ``PATCH`` has altered the program.
PATCHED_RUN = """
import sys
sys.path[:0] = ["src", "perfbench"]
{patch}
import run
sys.exit(run.main(sys.argv[1:]))
"""

#: The broker answers with a frequency 0.1 GHz off what the model gives.
WRONG_REPLY = """
import dataclasses
import repro.serve.broker as broker
real = broker.run_spec_resilient
def wrong(spec, options=None):
    out = real(spec, options)
    result = dataclasses.replace(out.result, f_ghz=out.result.f_ghz + 0.1)
    return dataclasses.replace(out, result=result)
broker.run_spec_resilient = wrong
"""


def bench(workload: str, trace: int = 0, root: Path = ROOT,
          patch: str | None = None):
    args = ["--workload", workload, "--trace", str(trace), *ARGS]
    if patch is None:
        cmd = [sys.executable, f"{HERE.name}/run.py", *args]
    else:
        cmd = [sys.executable, "-c", PATCHED_RUN.format(patch=patch), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checkout(tmp_path: Path, with_src: bool = True) -> Path:
    """``BENCHMARK.json`` and a copy of the benchmark's files, with the
    program's ``src/`` linked in unless ``with_src`` is false."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def perturb(root: Path, name: str, change) -> None:
    """Apply ``change`` to the copy's reference file ``name``."""
    path = root / HERE.name / "reference" / name
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload",
                         ["frontier_cold", "serve_mix", "fleet_day"])
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_is_correct_and_complete(workload, trace):
    proc = bench(workload, trace=trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    spec = _benchmark_json()
    names = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_perturbed_frontier_fails(tmp_path):
    root = checkout(tmp_path)
    key = "freq/low-power-cmp/n3/water"

    def change(doc):
        doc["points"][key]["f_ghz"] += 0.1
    perturb(root, "frontier.json", change)
    proc = bench("frontier_cold", root=root)
    assert proc.returncode == 1
    assert result_of(proc)["correct"] is False
    assert key in proc.stdout


def test_frontier_temperature_beyond_tolerance_fails(tmp_path):
    root = checkout(tmp_path)

    def change(doc):
        doc["points"]["freq/high-frequency-cmp/n1/air"]["max_temp_c"] += 1e-3
    perturb(root, "frontier.json", change)
    proc = bench("frontier_cold", root=root)
    assert proc.returncode == 1
    assert "max_temp_c off by" in proc.stdout


def test_patched_program_runs_correctly():
    """The patched-run harness alone changes nothing."""
    proc = bench("serve_mix", patch="")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result_of(proc)["correct"] is True


def test_mismatched_served_reply_fails():
    proc = bench("serve_mix", patch=WRONG_REPLY)
    assert proc.returncode == 1
    assert result_of(proc)["correct"] is False
    assert "differs from ExperimentSpec.run()" in proc.stdout


def test_wrong_fleet_digest_fails(tmp_path):
    root = checkout(tmp_path)

    def change(doc):
        doc["small"]["event_digest"] = "0" * 64
    perturb(root, "fleet.json", change)
    proc = bench("fleet_day", root=root)
    assert proc.returncode == 1
    assert result_of(proc)["correct"] is False
    assert "event digest" in proc.stdout


def test_without_program_source_it_fails_fast(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: nonzero exit, no
    result line."""
    root = checkout(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fleet_day",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
