"""Tests for the HotSpot-style package builder and ThermalModel facade."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cooling.options import get_cooling
from repro.power.processors import get_chip
from repro.stack.chipstack import StackConfig, flip_even_layers
from repro.thermal.hotspot import ThermalModel
from repro.thermal.package import (
    DEFAULT_PACKAGE,
    build_network,
    die_layer_names,
    stack_power_maps,
)
from repro.units import ghz


@pytest.fixture(scope="module")
def lp():
    return get_chip("low-power-cmp")


class TestPackageParams:
    def test_table2_geometry(self):
        p = DEFAULT_PACKAGE
        assert p.sink_side_m == pytest.approx(0.12)
        assert p.spreader_side_m == pytest.approx(0.06)
        assert p.spreader_thickness_m == pytest.approx(0.001)
        assert p.sink_fin_area_m2 == pytest.approx(0.3024)
        assert p.ambient_c == 25.0

    def test_fin_multiplier_21x(self):
        assert DEFAULT_PACKAGE.fin_multiplier == pytest.approx(21.0)

    def test_invalid_param_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            replace(DEFAULT_PACKAGE, sink_fin_area_m2=0.0)


class TestBuildNetwork:
    def test_layer_stack_order(self, lp, fast_params):
        stack = StackConfig(chip=lp, n_chips=3)
        net = build_network(stack, get_cooling("water"), fast_params)
        names = [la.name for la in net.layers]
        assert names == ["board", "substrate", "die0", "die1", "die2",
                         "spreader", "sink"]

    def test_die_layer_names(self, lp):
        stack = StackConfig(chip=lp, n_chips=2)
        assert die_layer_names(stack) == ("die0", "die1")

    def test_interfaces_count(self, lp, fast_params):
        stack = StackConfig(chip=lp, n_chips=4)
        net = build_network(stack, get_cooling("air"), fast_params)
        # board-substrate, substrate-die0, 3 inter-die, die3-spreader,
        # spreader-sink = 7
        assert len(net.interfaces) == 7

    def test_boundaries_sink_and_board(self, lp, fast_params):
        net = build_network(StackConfig(chip=lp, n_chips=1),
                            get_cooling("water"), fast_params)
        layers = {b.layer for b in net.boundaries}
        assert layers == {"sink", "board"}

    def test_cold_plate_has_no_fin_multiplier(self, lp, fast_params):
        net = build_network(StackConfig(chip=lp, n_chips=1),
                            get_cooling("water_pipe"), fast_params)
        top = [b for b in net.boundaries if b.layer == "sink"][0]
        assert top.area_multiplier == 1.0

    def test_air_fin_utilization_applied(self, lp, fast_params):
        net = build_network(StackConfig(chip=lp, n_chips=1),
                            get_cooling("air"), fast_params)
        top = [b for b in net.boundaries if b.layer == "sink"][0]
        expected = fast_params.fin_multiplier * fast_params.air_fin_utilization
        assert top.area_multiplier == pytest.approx(expected)

    def test_immersion_wets_board_with_coolant_h(self, lp, fast_params):
        oil = build_network(StackConfig(chip=lp, n_chips=1),
                            get_cooling("mineral_oil"), fast_params)
        board = [b for b in oil.boundaries if b.layer == "board"][0]
        assert board.h_w_m2k == pytest.approx(160.0)

    def test_water_board_h_includes_film(self, lp, fast_params):
        net = build_network(StackConfig(chip=lp, n_chips=1),
                            get_cooling("water"), fast_params)
        board = [b for b in net.boundaries if b.layer == "board"][0]
        # film (120um/0.14) in series with 1/800
        expected = 1.0 / (120e-6 / 0.14 + 1.0 / 800.0)
        assert board.h_w_m2k == pytest.approx(expected)

    def test_non_immersion_board_sees_air(self, lp, fast_params):
        for cool in ("air", "water_pipe"):
            net = build_network(StackConfig(chip=lp, n_chips=1),
                                get_cooling(cool), fast_params)
            board = [b for b in net.boundaries if b.layer == "board"][0]
            assert board.h_w_m2k == pytest.approx(14.0)


class TestStackPowerMaps:
    def test_keys_and_conservation(self, lp, fast_params):
        stack = StackConfig(chip=lp, n_chips=3)
        maps = stack_power_maps(stack, ghz(2.0), fast_params)
        assert set(maps) == {"die0", "die1", "die2"}
        for m in maps.values():
            assert m.sum() == pytest.approx(47.2, rel=1e-9)

    def test_rotation_reverses_map(self, lp, fast_params):
        plain = stack_power_maps(StackConfig(chip=lp, n_chips=2),
                                 ghz(2.0), fast_params)
        flipped = stack_power_maps(
            StackConfig(chip=lp, n_chips=2, rotations=(False, True)),
            ghz(2.0), fast_params)
        np.testing.assert_allclose(flipped["die0"], plain["die0"])
        np.testing.assert_allclose(flipped["die1"],
                                   plain["die1"][::-1, ::-1], atol=1e-12)


class TestThermalModel:
    def test_temperature_monotone_in_frequency(self, lp_water_4, lp):
        freqs = lp.ladder.frequencies()
        temps = [lp_water_4.max_temperature_c(float(f)) for f in freqs]
        assert all(a < b for a, b in zip(temps, temps[1:]))

    def test_temperature_monotone_in_chips(self, lp, fast_params):
        temps = []
        for n in (1, 2, 4):
            m = ThermalModel(StackConfig(chip=lp, n_chips=n),
                             get_cooling("water"), fast_params)
            temps.append(m.max_temperature_c(ghz(1.5)))
        assert temps[0] < temps[1] < temps[2]

    def test_coolant_ordering_at_fixed_point(self, lp, fast_params):
        temps = {}
        for cool in ("air", "water_pipe", "mineral_oil", "fluorinert",
                     "water"):
            m = ThermalModel(StackConfig(chip=lp, n_chips=2),
                             get_cooling(cool), fast_params)
            temps[cool] = m.max_temperature_c(ghz(1.5))
        assert (temps["air"] > temps["water_pipe"] > temps["mineral_oil"]
                >= temps["fluorinert"] > temps["water"])

    def test_result_cache_hits(self, lp_water_4):
        r1 = lp_water_4.result(ghz(1.5))
        r2 = lp_water_4.result(ghz(1.5))
        assert r1 is r2

    def test_per_die_max_len(self, lp_water_4):
        assert len(lp_water_4.per_die_max_c(ghz(1.0))) == 4

    def test_fields_shape(self, lp_water_4, fast_params):
        fields = lp_water_4.die_temperature_fields(ghz(1.0))
        assert set(fields) == {"die0", "die1", "die2", "die3"}
        for f in fields.values():
            assert f.shape == (fast_params.die_grid, fast_params.die_grid)

    def test_meets_threshold(self, lp_water_4):
        assert lp_water_4.meets_threshold(ghz(1.0))

    def test_energy_balance_full_package(self, lp_water_4):
        pm = lp_water_4.power_maps(ghz(1.5))
        res = lp_water_4.network.solve(pm)
        inj, ext = lp_water_4.network.heat_balance(pm, res)
        assert ext == pytest.approx(inj, rel=1e-8)

    def test_flip_reduces_peak_at_high_power(self, fast_params):
        hf = get_chip("high-frequency-cmp")
        plain = ThermalModel(StackConfig(chip=hf, n_chips=4),
                             get_cooling("water"), fast_params)
        flip = ThermalModel(flip_even_layers(hf, 4),
                            get_cooling("water"), fast_params)
        assert (flip.max_temperature_c(ghz(3.6))
                < plain.max_temperature_c(ghz(3.6)))

    def test_film_thickness_increases_temperature(self, lp, fast_params):
        base = get_cooling("water")
        thick = base.with_film_thickness(500e-6)
        t_base = ThermalModel(StackConfig(chip=lp, n_chips=2), base,
                              fast_params).max_temperature_c(ghz(2.0))
        t_thick = ThermalModel(StackConfig(chip=lp, n_chips=2), thick,
                               fast_params).max_temperature_c(ghz(2.0))
        assert t_thick > t_base
