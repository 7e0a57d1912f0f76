import math

import numpy as np
import pytest

from thzlink.atmosphere import (
    AtmosphericState,
    build_layers,
    layer_bounds,
    profile_at,
    water_vapor_vmr,
)
from thzlink.errors import InvalidRange, ThzLinkError


class TestProfileAt:
    def test_sea_level_matches_published_tables(self):
        state = profile_at(0.0)
        assert state.pressure == pytest.approx(101_325.0)
        assert state.temperature == pytest.approx(288.15)

    def test_tropopause_matches_published_tables(self):
        # published values at the 11 km level: 216.65 K, 22632 Pa
        # (geometric-altitude evaluation lands within a few tenths of a
        # percent through the geopotential conversion)
        state = profile_at(11_000.0)
        assert state.temperature == pytest.approx(216.65, abs=0.2)
        assert state.pressure == pytest.approx(22_632.0, rel=5e-3)

    def test_above_top_rejected(self):
        with pytest.raises(InvalidRange, match="altitude 600000.0 m outside"):
            profile_at(600_000.0)
        with pytest.raises(InvalidRange, match=r"altitude -1.0 m outside"):
            profile_at(-1.0)

    def test_pressure_strictly_decreasing(self):
        altitudes = np.linspace(0.0, 500_000.0, 2001)
        pressures = [profile_at(h).pressure for h in altitudes]
        assert all(p1 > p2 for p1, p2 in zip(pressures, pressures[1:]))

    def test_continuous_across_86km_junction(self):
        below = profile_at(85_999.0).pressure
        above = profile_at(86_001.0).pressure
        assert below > above
        assert below == pytest.approx(above, rel=1e-3)

    def test_mixing_ratios_normalized(self):
        for h in (0.0, 5_000.0, 30_000.0, 86_000.0, 200_000.0):
            state = profile_at(h)
            total = sum(state.mixing_ratios.values())
            assert total <= 1.0 + 1e-3
            assert all(0.0 <= v <= 1.0 for v in state.mixing_ratios.values())

    def test_dry_composition_constant_below_86km(self):
        # dry constituents keep their sea-level proportions of the dry air
        low = profile_at(1_000.0)
        high = profile_at(80_000.0)
        for name in ("N2", "O2", "Ar", "CO2"):
            low_dry = low.mixing_ratios[name] / (1 - low.mixing_ratios["H2O"])
            high_dry = high.mixing_ratios[name] / (1 - high.mixing_ratios["H2O"])
            assert low_dry == pytest.approx(high_dry, rel=1e-12)

    def test_humidity_override_pins_sea_level(self):
        state = profile_at(0.0, ground_humidity=0.02)
        assert state.mixing_ratios["H2O"] == pytest.approx(0.02)
        aloft = profile_at(2_000.0, ground_humidity=0.02)
        assert aloft.mixing_ratios["H2O"] == pytest.approx(
            0.02 * np.exp(-1.0), rel=1e-12)

    def test_water_profile_scale_height(self):
        assert water_vapor_vmr(4_000.0, 0.0078, 2_000.0) == pytest.approx(
            0.0078 * np.exp(-2.0))

    def test_deterministic(self):
        a = profile_at(12_345.0)
        b = profile_at(12_345.0)
        assert a == b


class TestBuildLayers:
    def test_full_stack_layer_count(self):
        stack = build_layers(0.0, 500_000.0, 500.0)
        assert len(stack) == 1000
        assert stack.top_altitude == 500_000.0

    def test_remainder_layer_truncated(self):
        stack = build_layers(0.0, 1_250.0, 500.0)
        assert len(stack) == 3
        assert (stack[2].lower, stack[2].upper) == (1_000.0, 1_250.0)

    def test_range_far_below_resolution_is_one_layer(self):
        # the range over the resolution underflows to 0
        stack = build_layers(0.0, 5e-321, 50_000.0)
        assert len(stack) == 1
        assert (stack[0].lower, stack[0].upper) == (0.0, 5e-321)

    def test_contiguous(self):
        stack = build_layers(0.0, 20_000.0, 500.0)
        for below, above in zip(stack.layers, stack.layers[1:]):
            assert below.upper == above.lower

    def test_midpoint_sampling(self):
        stack = build_layers(0.0, 2_000.0, 1_000.0)
        assert stack[0].state.altitude == 500.0
        assert stack[1].state.altitude == 1_500.0

    def test_pressure_monotone_over_stack(self):
        stack = build_layers(0.0, 500_000.0, 500.0)
        pressures = [layer.state.pressure for layer in stack.layers]
        assert all(p1 > p2 for p1, p2 in zip(pressures, pressures[1:]))

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            build_layers(1_000.0, 1_000.0, 500.0)
        with pytest.raises(InvalidRange):
            build_layers(0.0, 1_000.0, 0.0)

    @pytest.mark.parametrize("h_top, resolution", [
        (1.0, 5e-324), (math.inf, 1.0), (1.0, math.nan),
    ], ids=["overflowing_ratio", "infinite_top", "nan_resolution"])
    @pytest.mark.parametrize("make", [layer_bounds, build_layers])
    def test_non_finite_layer_count_is_invalid_range(self, make, h_top,
                                                     resolution):
        with pytest.raises(InvalidRange):
            make(0.0, h_top, resolution)


class TestStateRules:
    """An unphysical state is an InvalidRange: a ThzLinkError, which the CLI
    reports with exit 3, and a ValueError, as it was before."""

    @pytest.mark.parametrize("pressure, temperature, ratios", [
        (0.0, 288.0, {"H2O": 0.01}),
        (101_325.0, -1.0, {"H2O": 0.01}),
        (101_325.0, 288.0, {"H2O": 1.5}),
        (math.nan, 288.0, {"H2O": 0.01}),
        (math.inf, 288.0, {"H2O": 0.01}),
        (101_325.0, math.nan, {"H2O": 0.01}),
        (101_325.0, math.inf, {"H2O": 0.01}),
    ], ids=["pressure", "temperature", "mixing_ratio", "nan_pressure",
            "inf_pressure", "nan_temperature", "inf_temperature"])
    def test_each_rule_raises_invalid_range(self, pressure, temperature,
                                            ratios):
        with pytest.raises(InvalidRange) as caught:
            AtmosphericState(0.0, pressure, temperature, ratios)
        assert isinstance(caught.value, ThzLinkError)
        assert isinstance(caught.value, ValueError)
