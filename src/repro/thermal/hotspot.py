"""High-level HotSpot-like facade.

:class:`ThermalModel` wraps one (stack, cooling) configuration: it
builds and factorizes the network once, then answers steady-state
worst-case queries at any VFS step. This is the object the frequency
optimizer and the sweep drivers hold onto.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..obs import span
from ..stack.chipstack import StackConfig
from .network import ThermalNetwork, ThermalResult
from .package import (
    DEFAULT_PACKAGE,
    PackageParams,
    build_network,
    die_layer_names,
    stack_power_maps,
)
from .response import (
    ResponseOperator,
    block_power_vector,
    build_response_operator,
    geometry_digest,
    response_cache,
    response_enabled,
)

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from ..cooling.options import CoolingOption


class ThermalModel:
    """Steady-state thermal model of one stack under one cooling option.

    The conductance matrix depends only on the configuration, so the
    sparse LU factorization is computed once and reused for every
    frequency. Die-observable queries go further: they resolve the
    geometry's :class:`~repro.thermal.response.ResponseOperator`
    (content-addressed, shared in memory and on disk across models and
    processes) and answer from ``t0 + R @ p`` — a dense matvec with no
    sparse solve at all. Full-stack queries (:meth:`result`,
    :meth:`results_many`) and runs with ``REPRO_RESPONSE_DISABLE`` set
    fall back to the sparse path.

    Args:
        stack: the 3-D chip stack.
        cooling: the cooling option.
        params: package geometry/calibration constants.
    """

    def __init__(self, stack: StackConfig, cooling: CoolingOption,
                 params: PackageParams = DEFAULT_PACKAGE) -> None:
        self.stack = stack
        self.cooling = cooling
        self.params = params
        self.network: ThermalNetwork = build_network(stack, cooling, params)
        self._die_names = die_layer_names(stack)
        self._result_cache: dict[float, ThermalResult] = {}
        self._response_op: ResponseOperator | None = None
        self._response_temp_cache: dict[float, np.ndarray] = {}

    @property
    def die_names(self) -> tuple[str, ...]:
        """Die layer names, bottom first (the layers the threshold sees)."""
        return self._die_names

    def power_maps(self, f_hz: float) -> dict[str, np.ndarray]:
        """Per-die power maps at a VFS step (worst-case activity)."""
        with span("power.stack_maps", f_ghz=f_hz / 1e9,
                  n_chips=self.stack.n_chips):
            return stack_power_maps(self.stack, f_hz, self.params)

    def result(self, f_hz: float) -> ThermalResult:
        """Full solution at a VFS step (cached per frequency)."""
        key = round(float(f_hz), 3)
        cached = self._result_cache.get(key)
        if cached is None:
            cached = self.network.solve(self.power_maps(f_hz))
            self._result_cache[key] = cached
        return cached

    def results_many(self, f_hz_seq) -> list[ThermalResult]:
        """Full solutions at several VFS steps in one batched solve.

        Frequencies already in the per-frequency cache are answered
        from it; the misses are solved together through
        :meth:`ThermalNetwork.solve_many` (one (n, k) triangular-solve
        block against the cached factor) and cached for later scalar
        queries, so a batched ladder probe and a point-by-point one
        return identical objects.
        """
        keys = [round(float(f), 3) for f in f_hz_seq]
        missing: list[tuple[float, float]] = []
        seen: set[float] = set()
        for f, key in zip(f_hz_seq, keys):
            if key not in self._result_cache and key not in seen:
                seen.add(key)
                missing.append((float(f), key))
        if missing:
            solved = self.network.solve_many(
                [self.power_maps(f) for f, _ in missing])
            for (_, key), res in zip(missing, solved):
                self._result_cache[key] = res
        return [self._result_cache[key] for key in keys]

    def response_operator(self) -> ResponseOperator | None:
        """This geometry's superposition operator (None = disabled).

        Resolved through the process-wide content-addressed cache
        (memory over disk over build), so sibling models, pool workers,
        and the serve broker all share one dense operator per geometry.
        """
        if not response_enabled():
            return None
        if self._response_op is None:
            digest = geometry_digest(self.stack, self.cooling, self.params)
            self._response_op = response_cache().get_or_build(
                digest,
                lambda: build_response_operator(
                    self.stack, self.cooling, self.params,
                    network=self.network))
        return self._response_op

    def _response_temps(self, f_hz: float) -> np.ndarray | None:
        """Die temperatures via the operator (cached per frequency).

        Always a single matvec per frequency — never a batched matmul —
        so scalar probes and ladder batches record bitwise-identical
        temperatures (checkpoint byte-identity depends on it).
        """
        op = self.response_operator()
        if op is None:
            return None
        key = round(float(f_hz), 3)
        t = self._response_temp_cache.get(key)
        if t is None:
            t = op.temperatures(block_power_vector(self.stack, float(f_hz)))
            self._response_temp_cache[key] = t
        return t

    def max_temperature_c(self, f_hz: float) -> float:
        """Hottest die-cell temperature at a VFS step, Celsius.

        The paper's constraint applies to junction temperature, so only
        die layers are inspected (the heatsink is always cooler).
        """
        t = self._response_temps(f_hz)
        if t is not None:
            return float(t.max())
        return self.result(f_hz).max_over(self._die_names)

    def max_temperatures_many(self, f_hz_seq) -> tuple[float, ...]:
        """Hottest die-cell temperature at each VFS step, batched.

        The batched counterpart of :meth:`max_temperature_c`: the
        frequency optimizer evaluates whole ladder brackets per probe
        round through this method, and the ladder sweeps solve every
        step of a figure in one call. With the response operator this
        is a matvec per step; the sparse fallback pushes all steps
        through one multi-RHS solve.
        """
        op = self.response_operator()
        if op is not None:
            return tuple(float(self._response_temps(f).max())
                         for f in f_hz_seq)
        return tuple(res.max_over(self._die_names)
                     for res in self.results_many(f_hz_seq))

    def die_temperature_fields(self, f_hz: float) -> dict[str, np.ndarray]:
        """Per-die (grid, grid) temperature fields — the Figs. 9/16/18 maps."""
        op = self.response_operator()
        if op is not None:
            return op.die_fields(self._response_temps(f_hz))
        res = self.result(f_hz)
        return {name: res.layer(name) for name in self._die_names}

    def die_temperature_fields_many(self, f_hz_seq
                                    ) -> list[dict[str, np.ndarray]]:
        """Per-die temperature fields at several VFS steps, batched."""
        op = self.response_operator()
        if op is not None:
            return [op.die_fields(self._response_temps(f)) for f in f_hz_seq]
        return [{name: res.layer(name) for name in self._die_names}
                for res in self.results_many(f_hz_seq)]

    def per_die_max_c(self, f_hz: float) -> tuple[float, ...]:
        """Maximum temperature of each die, bottom first."""
        op = self.response_operator()
        if op is not None:
            return op.per_die_max(self._response_temps(f_hz))
        res = self.result(f_hz)
        return tuple(res.max_of(name) for name in self._die_names)

    def meets_threshold(self, f_hz: float,
                        threshold_c: float | None = None) -> bool:
        """True if the hottest die cell stays at/below the threshold."""
        limit = (threshold_c if threshold_c is not None
                 else self.stack.chip.threshold_c)
        return self.max_temperature_c(f_hz) <= limit + 1e-9


def model_for(chip_name: str, n_chips: int, cooling_name: str,
              rotations: tuple[bool, ...] = (),
              params: PackageParams = DEFAULT_PACKAGE) -> ThermalModel:
    """A fresh model for a library chip and cooling option, by name.

    Nothing is memoized here: construction is cheap (the network is
    assembled lazily) and the costly per-geometry state, the response
    operator, is shared through :func:`~repro.thermal.response.
    response_cache`, whose bound then holds for every caller.
    """
    from ..cooling.options import get_cooling
    from ..power.processors import get_chip
    stack = StackConfig(chip=get_chip(chip_name), n_chips=n_chips,
                        rotations=tuple(rotations))
    return ThermalModel(stack, get_cooling(cooling_name), params)
