"""Cross-cutting property-based tests (hypothesis).

The invariants that must hold for *any* input, not just the paper's
configurations: conductance-matrix structure, pointwise monotonicity,
conservation under transforms, coherence-transaction well-formedness,
tank monotonicity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cooling.options import get_cooling
from repro.floorplan import baseline_16tile, rotate_180
from repro.floorplan.geometry import Rect
from repro.perfsim.coherence import DirectoryModel, TransactionKind
from repro.perfsim.noc.topology import MeshTopology, NodeId
from repro.power.processors import get_chip
from repro.stack.chipstack import StackConfig, flip_even_layers
from repro.thermal.layers import Boundary, GridLayer
from repro.thermal.materials import SILICON
from repro.thermal.network import ThermalNetwork
from repro.thermal.package import DEFAULT_PACKAGE
from repro.thermal.response import build_response_operator


def _network(n=4, h=200.0):
    layer = GridLayer("slab", Rect(0, 0, 0.01, 0.01), 1e-3, SILICON, n, n)
    return ThermalNetwork([layer], [],
                          [Boundary("slab", "top", h_w_m2k=h)])


class TestConductanceMatrix:
    def test_symmetric(self):
        g = _network().conductance_matrix()
        asym = abs(g - g.T).max()
        assert asym < 1e-12

    def test_positive_diagonal(self):
        g = _network().conductance_matrix()
        assert np.all(g.diagonal() > 0)

    def test_diagonally_dominant(self):
        g = _network().conductance_matrix().toarray()
        off = np.abs(g).sum(axis=1) - np.abs(g.diagonal())
        # Boundary conductance makes rows strictly dominant.
        assert np.all(g.diagonal() >= off - 1e-12)

    def test_row_sums_equal_boundary_conductance(self):
        net = _network()
        g = net.conductance_matrix().toarray()
        np.testing.assert_allclose(g.sum(axis=1),
                                   net.boundary_conductances(),
                                   rtol=1e-9, atol=1e-15)

    @given(st.integers(min_value=0, max_value=15),
           st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_pointwise_monotonicity_in_power(self, cell, extra):
        """Adding power anywhere raises temperature everywhere
        (inverse of an M-matrix is non-negative)."""
        net = _network()
        base = np.full((4, 4), 1.0)
        t0 = net.solve({"slab": base}).layer("slab")
        bumped = base.copy()
        bumped[cell // 4, cell % 4] += extra
        t1 = net.solve({"slab": bumped}).layer("slab")
        assert np.all(t1 >= t0 - 1e-12)

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=30, deadline=None)
    def test_reciprocity(self, cell):
        """Symmetric G: the rise at j from 1 W at i equals the rise at
        i from 1 W at j."""
        net = _network()
        i, j = cell, (cell + 7) % 16
        pi = np.zeros((4, 4)); pi[i // 4, i % 4] = 1.0
        pj = np.zeros((4, 4)); pj[j // 4, j % 4] = 1.0
        ti = net.solve({"slab": pi}).layer("slab").ravel()
        tj = net.solve({"slab": pj}).layer("slab").ravel()
        assert ti[j] == pytest.approx(tj[i], rel=1e-9)


class TestPackageReciprocity:
    """Reciprocity on the real package network, not only the slab.

    With B the matrix whose columns are the rasterized unit block power
    maps, the block-to-block response Q = B^T R is B^T G^-1 B restricted
    to the dies, so a symmetric G makes Q symmetric.
    """

    @pytest.mark.parametrize("flipped", [False, True])
    @pytest.mark.parametrize("n_chips", [3, 6])
    @pytest.mark.parametrize("cooling_name", ["air", "water", "fluorinert"])
    def test_block_response_is_symmetric(self, cooling_name, n_chips,
                                         flipped):
        chip = get_chip("low-power-cmp")
        stack = (flip_even_layers(chip, n_chips) if flipped
                 else StackConfig(chip=chip, n_chips=n_chips))
        op = build_response_operator(stack, get_cooling(cooling_name),
                                     DEFAULT_PACKAGE)
        g = DEFAULT_PACKAGE.die_grid
        fps = stack.die_floorplans()
        cells = g * g
        basis = np.zeros((len(fps) * cells, len(fps) * len(fps[0].blocks)))
        col = 0
        for i, fp in enumerate(fps):
            for b in fp.blocks:
                basis[i * cells:(i + 1) * cells, col] = fp.power_map(
                    {b.name: 1.0}, g, g).ravel()
                col += 1
        q = basis.T @ np.asarray(op.arr)[:, 1:]
        assert abs(q - q.T).max() <= 1e-12 * abs(q).max()


class TestTransformConservation:
    @given(st.integers(min_value=2, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_rotation_preserves_power_total(self, n):
        fp = baseline_16tile()
        power = {b.name: 0.5 for b in fp.blocks}
        plain = fp.power_map(power, n, n).sum()
        rot = rotate_180(fp).power_map(power, n, n).sum()
        assert rot == pytest.approx(plain, rel=1e-9)

    @given(st.integers(min_value=1, max_value=24),
           st.integers(min_value=1, max_value=24))
    @settings(max_examples=30, deadline=None)
    def test_power_total_grid_independent(self, nx, ny):
        fp = baseline_16tile()
        power = {b.name: 1.25 for b in fp.blocks}
        assert fp.power_map(power, nx, ny).sum() == pytest.approx(
            1.25 * len(fp.blocks), rel=1e-9)


class TestCoherenceProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_transaction_wellformed(self, seed):
        """Every sampled transaction starts at the requester, ends with
        a data response back to it, and legs chain src->dst."""
        d = DirectoryModel(l1_mpki=30.0, l2_mpki=10.0,
                           sharing_fraction=0.4, seed=seed)
        topo = MeshTopology(4, 4, 2)
        requester = NodeId(0, 1, 0)
        home = NodeId(1, 2, 3)
        mem = NodeId(0, 3, 3)
        kind = d.sample_kind()
        owner = (d.sample_owner((NodeId(0, 0, 0), NodeId(1, 3, 0)),
                                requester)
                 if kind is TransactionKind.L2_HIT_FORWARD else None)
        txn = d.build_transaction(kind, requester, home, owner, mem)
        assert txn.legs[0].src == requester
        assert txn.legs[-1].dst == requester
        assert txn.legs[-1].is_data
        assert txn.legs[0].message_class == "request"
        for leg in txn.legs:
            assert topo.contains(leg.src) and topo.contains(leg.dst)

    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40)
    def test_kind_frequencies_match_parameters(self, l2_share, sharing):
        l1 = 50.0
        l2 = l1 * min(l2_share / 50.0, 1.0)
        d = DirectoryModel(l1_mpki=l1, l2_mpki=l2,
                           sharing_fraction=sharing, seed=1)
        kinds = [d.sample_kind() for _ in range(1500)]
        frac_miss = np.mean([k is TransactionKind.L2_MISS for k in kinds])
        assert frac_miss == pytest.approx(l2 / l1, abs=0.06)


class TestTankProperties:
    @given(st.floats(min_value=1e-5, max_value=1.0),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_water_temp_monotone(self, flow, boards):
        from repro.cooling import TankConfig
        tank = TankConfig(exchange_flow_m3_s=flow)
        assert (tank.bulk_water_temp_c(boards + 1)
                > tank.bulk_water_temp_c(boards))

    @given(st.floats(min_value=0.005, max_value=0.2))
    @settings(max_examples=40)
    def test_crowding_in_unit_interval(self, pitch):
        from repro.cooling import TankConfig
        tank = TankConfig(board_pitch_m=pitch)
        assert 0.0 < tank.crowding_factor() <= 1.0


class TestVfsProperties:
    @given(st.floats(min_value=1.05e9, max_value=3.55e9),
           st.floats(min_value=1.05e9, max_value=3.55e9))
    @settings(max_examples=40)
    def test_power_monotone_pairwise(self, f1, f2):
        from repro.power import HIGH_FREQUENCY_CMP as chip
        lo, hi = sorted((max(f1, 1.25e9), max(f2, 1.25e9)))
        if hi - lo < 1e6:
            return
        assert chip.total_power_w(lo) <= chip.total_power_w(hi) + 1e-9

    @given(st.floats(min_value=1.3e9, max_value=3.6e9))
    @settings(max_examples=40)
    def test_voltage_within_technology_window(self, f):
        from repro.power import HIGH_FREQUENCY_CMP as chip
        v = chip.curve.voltage_for(f)
        assert chip.tech.vdd_min_v - 1e-9 <= v <= chip.tech.vdd_max_v + 1e-9
