"""Maximum-frequency-under-threshold search (the paper's core loop).

Given a number of stacked chips, a cooling option, and a temperature
threshold, find the highest VFS ladder step at which the hottest die
cell stays at/below the threshold, with all chips clocked identically —
exactly the quantity plotted in the paper's Figs. 1, 7, 8, 15, 17.

Temperature is strictly increasing in frequency (power is increasing in
f and the network is linear with a positive inverse), so the search is a
bisection over the discrete ladder; each probe is one triangular solve
against the cached factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cooling.options import CoolingOption
from ..errors import InfeasibleError
from ..thermal.hotspot import ThermalModel
from ..thermal.package import DEFAULT_PACKAGE, PackageParams
from ..stack.chipstack import StackConfig


@dataclass(frozen=True)
class OperatingPoint:
    """The outcome of a max-frequency search.

    Attributes:
        f_hz: the selected VFS step (0.0 when infeasible).
        max_temp_c: hottest die-cell temperature at that step.
        feasible: False when even the lowest step violates the threshold
            (the paper then simply omits the point from its figures).
        chip_power_w: per-chip power at the operating point.
        total_power_w: stack power at the operating point.
    """

    f_hz: float
    max_temp_c: float
    feasible: bool
    chip_power_w: float
    total_power_w: float

    @property
    def f_ghz(self) -> float:
        """Frequency in GHz (0.0 when infeasible)."""
        return self.f_hz / 1e9


#: Ladder steps probed per batched solve round (see :func:`max_frequency`).
DEFAULT_PROBE_BATCH = 8


def max_frequency(model: ThermalModel,
                  threshold_c: float | None = None, *,
                  probe_batch: int | None = None) -> OperatingPoint:
    """Highest feasible VFS step for a prepared thermal model.

    Models exposing ``max_temperatures_many`` (the grid
    :class:`~repro.thermal.hotspot.ThermalModel`) are searched with a
    batched bracket: each round solves up to ``probe_batch`` ladder
    steps as one multi-RHS block against the cached factorization,
    which collapses the log2(n) sequential triangular solves of plain
    bisection into one or two batched calls. Models without the batch
    API (the analytic fallback, the fault-injection wrapper) keep the
    exact probe-at-a-time bisection — including its query sequence, on
    which seeded fault injection depends. Both searches return the same
    operating point: temperature is monotone in frequency, so any probe
    schedule converges to the same boundary step.

    Args:
        model: the (stack, cooling) thermal model.
        threshold_c: temperature limit; defaults to the chip's own
            (80 C for the CMPs, 78 C for the Xeon E5).
        probe_batch: ladder steps per batched round (None =
            :data:`DEFAULT_PROBE_BATCH`; 1 forces probe-at-a-time
            bisection — the benchmark baseline).

    Returns:
        The operating point; ``feasible=False`` with ``f_hz=0`` when no
        ladder step satisfies the constraint.
    """
    chip = model.stack.chip
    limit = threshold_c if threshold_c is not None else chip.threshold_c
    freqs = chip.ladder.frequencies()
    batch = DEFAULT_PROBE_BATCH if probe_batch is None else probe_batch
    if batch > 1 and hasattr(model, "max_temperatures_many"):
        best, t_best, t_bottom = _batched_boundary(model, freqs, limit,
                                                   batch)
    else:
        best, t_best, t_bottom = _bisect_boundary(model, freqs, limit)
    if best is None:
        return OperatingPoint(f_hz=0.0, max_temp_c=t_bottom,
                              feasible=False, chip_power_w=0.0,
                              total_power_w=0.0)
    f = float(freqs[best])
    return OperatingPoint(
        f_hz=f,
        max_temp_c=t_best,
        feasible=True,
        chip_power_w=chip.total_power_w(f),
        total_power_w=model.stack.total_power_w(f),
    )


def _bisect_boundary(model, freqs, limit):
    """Probe-at-a-time bisection (the legacy search, query-for-query)."""

    def temp(idx: int) -> float:
        return model.max_temperature_c(float(freqs[idx]))

    # Infeasible even at the bottom step?
    t0 = temp(0)
    if t0 > limit + 1e-9:
        return None, 0.0, t0
    # Feasible at the top step?
    if temp(len(freqs) - 1) <= limit + 1e-9:
        best = len(freqs) - 1
    else:
        # Bisect the boundary: temp(lo) <= limit < temp(hi).
        lo, hi = 0, len(freqs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if temp(mid) <= limit + 1e-9:
                lo = mid
            else:
                hi = mid
        best = lo
    return best, temp(best), t0


def _batched_boundary(model, freqs, limit, batch):
    """Bracket narrowing with up to ``batch`` probes per solve round."""
    known: dict[int, float] = {}

    def probe(idxs: list[int]) -> None:
        fresh = [i for i in idxs if i not in known]
        if fresh:
            temps = model.max_temperatures_many(
                [float(freqs[i]) for i in fresh])
            known.update(zip(fresh, temps))

    top = len(freqs) - 1
    probe([0, top])
    if known[0] > limit + 1e-9:
        return None, 0.0, known[0]
    if known[top] <= limit + 1e-9:
        return top, known[top], known[0]
    lo, hi = 0, top           # temp(lo) <= limit < temp(hi)
    while hi - lo > 1:
        m = min(batch, hi - lo - 1)
        idxs = sorted({lo + round((hi - lo) * j / (m + 1))
                       for j in range(1, m + 1)} - {lo, hi})
        probe(idxs)
        for i in idxs:
            if known[i] <= limit + 1e-9:
                lo = max(lo, i)
            else:
                hi = min(hi, i)
    return lo, known[lo], known[0]


def max_frequency_for(stack: StackConfig, cooling: CoolingOption,
                      threshold_c: float | None = None,
                      params: PackageParams = DEFAULT_PACKAGE
                      ) -> OperatingPoint:
    """Convenience wrapper: build the model, then search."""
    model = ThermalModel(stack, cooling, params)
    return max_frequency(model, threshold_c)


def require_feasible(point: OperatingPoint, context: str) -> OperatingPoint:
    """Raise :class:`InfeasibleError` when a point is infeasible.

    Benches for figures where the paper omits infeasible bars use this to
    turn a missing configuration into an explicit, typed failure.
    """
    if not point.feasible:
        raise InfeasibleError(
            f"{context}: no VFS step satisfies the temperature threshold "
            f"(coolest achievable maximum is {point.max_temp_c:.1f} C)"
        )
    return point
