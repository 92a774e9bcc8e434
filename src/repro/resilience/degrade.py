"""Graceful-degradation ladders.

A ladder is an ordered list of (rung name, thunk) pairs, highest
fidelity first. :meth:`DegradationLadder.run` tries each rung under the
retry policy; rung failures classified *degradable* (or retryable
errors that exhausted their attempts) fall to the next rung, fatal
errors propagate, and the outcome records which rung produced the
value, whether it is degraded, and every error absorbed on the way
down.

Two concrete ladders cover the pipeline's expensive tiers:

* :func:`freq_point_rungs` — sparse-LU grid
  :class:`~repro.thermal.hotspot.ThermalModel` falling back to the
  closed-form :class:`~repro.thermal.analytic.AnalyticStackModel`;
* :func:`perf_model_rungs` — flit-level-measured NoC latencies
  (:func:`noc_cycles_flitlevel`) falling back to the packet-formula
  analytic tier (:mod:`repro.perfsim.analytic`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError, DegradedResultWarning
from ..obs import counter, gauge, log_event, span
from .faults import FaultInjector, FaultyThermalModel, drop_vfs_steps
from .retry import RetryPolicy, classify_error, with_retry

Rung = tuple[str, Callable[[], Any]]


@dataclass(frozen=True)
class LadderOutcome:
    """Provenance of one laddered evaluation.

    Attributes:
        value: the rung's return value.
        rung: name of the rung that produced it.
        rung_index: 0 = full fidelity.
        degraded: True when any rung below the first produced the value.
        attempts: total call attempts across all rungs tried.
        errors: stringified errors absorbed along the way.
    """

    value: Any
    rung: str
    rung_index: int
    degraded: bool
    attempts: int
    errors: tuple[str, ...] = ()


class DegradationLadder:
    """Ordered fallback rungs, highest fidelity first."""

    def __init__(self, rungs: Sequence[Rung]) -> None:
        if not rungs:
            raise ConfigurationError("a ladder needs at least one rung")
        names = [name for name, _ in rungs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate rung names in {names}")
        self.rungs: tuple[Rung, ...] = tuple(rungs)

    def run(self, *, retry_policy: RetryPolicy | None = None,
            sleep: Callable[[float], None] | None = None,
            allow_degraded: bool = True) -> LadderOutcome:
        """Evaluate down the ladder until a rung succeeds.

        Args:
            retry_policy: per-rung retry policy for transient errors.
            sleep: backoff sleep function (injectable for tests).
            allow_degraded: when False only the first rung may answer;
                its failure propagates to the caller (the campaign
                runner then records the point in the failure ledger).

        Raises:
            The offending exception when a fatal error occurs, when
            ``allow_degraded`` forbids falling, or when the last rung
            fails too.
        """
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        absorbed: list[str] = []
        attempts = 0
        last = len(self.rungs) - 1
        for idx, (name, fn) in enumerate(self.rungs):
            try:
                with span("resilience.rung", rung=name, rung_index=idx):
                    out = with_retry(fn, policy=policy, sleep=sleep)
            except BaseException as exc:
                kind = classify_error(exc)
                attempts += (policy.max_attempts if kind == "retry" else 1)
                if (kind not in ("retry", "degrade")
                        or idx == last or not allow_degraded):
                    # Provenance for the caller's failure ledger.
                    exc._ladder_attempts = attempts
                    exc._ladder_rungs = tuple(
                        n for n, _ in self.rungs[:idx + 1])
                    raise
                absorbed.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            attempts += out.attempts
            degraded = idx > 0
            if degraded:
                counter("resilience.degrade_rung").inc()
                gauge("resilience.last_degrade_rung").set(idx)
                log_event("degraded", rung=name, rung_index=idx,
                          absorbed=len(absorbed))
                warnings.warn(DegradedResultWarning(
                    f"rung {name!r} (index {idx}) supplied the result "
                    f"after: {'; '.join(absorbed)}"
                ), stacklevel=2)
            return LadderOutcome(
                value=out.value, rung=name, rung_index=idx,
                degraded=degraded, attempts=attempts,
                errors=tuple(absorbed) + out.errors,
            )
        raise AssertionError("unreachable")  # pragma: no cover


# -- thermal ladder ---------------------------------------------------------

def _search_max_frequency(model, threshold_c, injector: FaultInjector | None):
    """Max-frequency search with optional VFS-step-drop faults.

    Clean runs use the bisection in :func:`repro.core.freqopt.
    max_frequency`; when a ``drop_vfs`` fault fires, the surviving
    sub-ladder is scanned top-down (temperature is monotone in
    frequency, so the first feasible step is the answer).
    """
    from ..core.freqopt import OperatingPoint, max_frequency
    dropped = None
    if injector is not None:
        spec = injector.draw("vfs")
        if spec is not None and spec.kind == "drop_vfs":
            dropped = drop_vfs_steps(
                tuple(float(f) for f in
                      model.stack.chip.ladder.frequencies()),
                injector.vfs_rng())
    if dropped is None:
        return max_frequency(model, threshold_c)
    chip = model.stack.chip
    limit = threshold_c if threshold_c is not None else chip.threshold_c
    for f in reversed(dropped):
        t = model.max_temperature_c(f)
        if t <= limit + 1e-9:
            return OperatingPoint(
                f_hz=f, max_temp_c=t, feasible=True,
                chip_power_w=chip.total_power_w(f),
                total_power_w=model.stack.total_power_w(f),
            )
    return OperatingPoint(
        f_hz=0.0, max_temp_c=model.max_temperature_c(dropped[0]),
        feasible=False, chip_power_w=0.0, total_power_w=0.0,
    )


def freq_point_rungs(chip: str, n_chips: int, cooling: str, *,
                     threshold_c: float | None = None,
                     rotations: tuple[bool, ...] = (),
                     params=None,
                     injector: FaultInjector | None = None
                     ) -> tuple[Rung, ...]:
    """The thermal ladder for one max-frequency point.

    Rung 0 (``sparse-lu``) builds a *fresh* grid
    :class:`~repro.thermal.hotspot.ThermalModel` — deliberately not the
    memoized :func:`~repro.thermal.hotspot.model_for`, so a resumed
    campaign provably re-solves nothing for checkpointed points — and
    wraps it in the fault harness when an injector is active. Rung 1
    (``analytic``) answers from the closed-form
    :class:`~repro.thermal.analytic.AnalyticStackModel`.

    A fresh model also keeps memory bounded: a cached model would pin
    its dense response operator beyond the bound of the operator cache.
    The operator itself is still shared through
    :func:`~repro.thermal.response.response_cache` and the disk store.
    """
    from ..cooling.options import get_cooling
    from ..power.processors import get_chip
    from ..stack.chipstack import StackConfig
    from ..thermal.analytic import AnalyticStackModel
    from ..thermal.hotspot import ThermalModel
    from ..thermal.package import DEFAULT_PACKAGE
    pkg = params if params is not None else DEFAULT_PACKAGE

    def _stack() -> StackConfig:
        return StackConfig(chip=get_chip(chip), n_chips=n_chips,
                           rotations=rotations)

    def sparse_lu():
        model = ThermalModel(_stack(), get_cooling(cooling), pkg)
        if injector is not None and injector.enabled:
            model = FaultyThermalModel(model, injector)
        return _search_max_frequency(model, threshold_c, injector)

    def analytic():
        from ..core.freqopt import max_frequency
        model = AnalyticStackModel(_stack(), get_cooling(cooling), pkg)
        return max_frequency(model, threshold_c)

    return (("sparse-lu", sparse_lu), ("analytic", analytic))


# -- performance (NoC) ladder ----------------------------------------------

def noc_cycles_flitlevel(topo, router=None, *, legs: int = 2,
                         injector: FaultInjector | None = None) -> float:
    """Expected coherence-transaction cycles, flit-level reference.

    Measures each packet class's single-hop latency on the flit-level
    wormhole model (:func:`repro.perfsim.noc.flitlevel.
    zero_load_flit_latency`) and extends it over the mean hop distance
    with head-flit pipelining — the reference the packet formula
    (:func:`repro.perfsim.noc.network.expected_noc_cycles`)
    approximates. A ``noc_stall`` fault simulates the microsimulator
    failing to drain.
    """
    from ..errors import SimulationError
    from ..perfsim.noc.flitlevel import zero_load_flit_latency
    from ..perfsim.noc.network import MeshNetwork
    from ..perfsim.noc.router import DEFAULT_ROUTER
    params = router if router is not None else DEFAULT_ROUTER
    if legs not in (2, 3):
        raise SimulationError(
            f"coherence transactions have 2 or 3 legs, got {legs}")
    if injector is not None:
        spec = injector.draw("noc")
        if spec is not None and spec.kind == "noc_stall":
            raise SimulationError(
                "fault injection: flit link did not drain")
    h = max(1, round(MeshNetwork(topo, params).mean_hop_distance()))
    per_hop_head = params.pipeline_stages + params.link_cycles
    control = (zero_load_flit_latency(params.control_flits, params)
               + (h - 1) * per_hop_head)
    data = (zero_load_flit_latency(params.data_flits, params)
            + (h - 1) * per_hop_head)
    if legs == 2:
        return float(control + data)
    return float(2 * control + data)


def perf_model_rungs(config, threads: int | None = None, *,
                     injector: FaultInjector | None = None
                     ) -> tuple[Rung, ...]:
    """The performance ladder for one system configuration.

    Rung 0 (``flit-noc``) feeds flit-level-measured NoC latencies into
    the analytic execution-time model; rung 1 (``analytic``) is the
    plain packet-formula tier.
    """
    from ..perfsim.analytic import AnalyticModel
    from ..perfsim.noc.topology import MeshTopology

    def flit_noc():
        topo = MeshTopology(config.mesh_width, config.mesh_height,
                            config.n_chips)
        n2 = noc_cycles_flitlevel(topo, config.router, legs=2,
                                  injector=injector)
        n3 = noc_cycles_flitlevel(topo, config.router, legs=3,
                                  injector=injector)
        return AnalyticModel(config, threads=threads,
                             noc2_cycles=n2, noc3_cycles=n3)

    def analytic():
        return AnalyticModel(config, threads=threads)

    return (("flit-noc", flit_noc), ("analytic", analytic))
