import math
import re

import numpy as np
import pytest
from scipy.special import erfc, erfcinv

from thzlink.constants import BOLTZMANN, PLANCK
from thzlink.errors import InvalidRange
from thzlink.link import (
    SkyPath,
    TransceiverConfig,
    bit_error_probability,
    brightness_temperature_planck,
    brightness_temperature_rj,
    _emission,
    _planck,
    capacity,
    modulation_threshold,
    snr,
    thermal_noise_psd,
    total_noise_psd,
)


def radiative_transfer_oracle(temps, taus):
    """Independent discrete recursion: walk the path from the receiver,
    accumulating each slab's emission through the transmittance so far."""
    brightness = 0.0
    through = 1.0
    for t, tau in zip(temps, taus):
        brightness += through * t * (1.0 - tau)
        through *= tau
    return brightness


class TestBrightnessTemperatureRJ:
    def test_transparent_atmosphere_is_silent(self):
        assert brightness_temperature_rj(296.0, 1.0) == 0.0

    def test_opaque_uniform_atmosphere_is_blackbody(self):
        assert brightness_temperature_rj(296.0, 1e-12) == pytest.approx(
            296.0, rel=1e-9)

    def test_two_layer_against_oracle(self):
        temps = [250.0, 290.0]
        taus = [0.7, 0.4]
        got = brightness_temperature_rj(temps, taus)
        want = radiative_transfer_oracle(temps, taus)
        assert got == pytest.approx(want, abs=2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_many_layers_against_fine_integral(self, rng):
        # a 40-slab profile against a 4000-slab refinement of the same path
        temps = 230.0 + 60.0 * rng.random(40)
        depths = 0.05 * rng.random(40)
        coarse = brightness_temperature_rj(temps, np.exp(-depths))
        fine_temps = np.repeat(temps, 100)
        fine_taus = np.exp(-np.repeat(depths / 100.0, 100))
        fine = brightness_temperature_rj(fine_temps, fine_taus)
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_frequency_axis_broadcasting(self):
        temps = np.array([250.0, 290.0])
        taus = np.array([[0.7, 0.5], [0.4, 0.9]])
        got = brightness_temperature_rj(temps, taus)
        assert got.shape == (2,)
        for j in range(2):
            assert got[j] == pytest.approx(
                radiative_transfer_oracle(temps, taus[:, j]))

    def test_effective_temperature_definition(self):
        # T_eff is the RJ sum over the path emissivity 1 - tau_total
        temps = [250.0, 290.0]
        taus = [0.7, 0.4]
        t_rj, emissivity = _emission(np.array(temps),
                                     1.0 - np.array([[0.7], [0.4]]))
        total_tau = 0.7 * 0.4
        assert emissivity[0] == pytest.approx(1.0 - total_tau, rel=1e-15)
        assert t_rj[0] == pytest.approx(
            brightness_temperature_rj(temps, taus), rel=1e-12)
        t_eff = t_rj[0] / emissivity[0]
        assert 250.0 < t_eff < 290.0

    def test_layer_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            brightness_temperature_rj([250.0, 290.0], [0.5])


class TestBrightnessTemperaturePlanck:
    def test_emissivity_one_returns_physical_temperature(self):
        for f in (100e9, 1e12, 10e12):
            assert brightness_temperature_planck(f, 296.0, 0.0) == \
                pytest.approx(296.0, rel=1e-12)

    def test_transparent_is_silent(self):
        assert brightness_temperature_planck(300e9, 296.0, 1.0) == 0.0

    def test_against_rj_at_300ghz_half_transmittance(self):
        # hf/kT = 0.049: the blackbody-equivalent temperature sits a few
        # kelvin above the Rayleigh-Jeans value at tau = 0.5 (closed-form
        # evaluation of both models; they converge only as tau -> 0)
        t, tau, f = 296.0, 0.5, 300e9
        planck = brightness_temperature_planck(f, t, tau)
        rj = brightness_temperature_rj(t, tau)
        x = PLANCK * f / (BOLTZMANN * t)
        expected = (x * t) / math.log1p(math.expm1(x) / (1.0 - tau))
        assert planck == pytest.approx(expected, rel=1e-12)
        assert planck - rj == pytest.approx(3.51, abs=0.05)

    def test_agreement_with_rj_in_low_frequency_thin_regime(self):
        t = 296.0
        for tau in (1e-6, 0.05, 0.15):
            for x in (1e-3, 0.03, 0.0999):
                f = x * BOLTZMANN * t / PLANCK
                planck = brightness_temperature_planck(f, t, tau)
                rj = brightness_temperature_rj(t, tau)
                assert abs(planck - rj) / rj < 0.01


# (temperatures, transmittances, the refused value as the message names it)
BAD_SKIES = {
    "tau_above_one": ([250.0, 290.0], [0.5, 1.2], "1.2"),
    "tau_negative": ([250.0, 290.0], [[0.5], [-0.5]], "-0.5"),
    "tau_nan": ([250.0, 290.0], [0.5, math.nan], "nan"),
    "temperature_zero": ([250.0, 0.0], [0.5, 0.5], "0.0"),
    "temperature_negative": ([-10.0, 290.0], [0.5, 0.5], "-10.0"),
    "temperature_inf": ([250.0, math.inf], [0.5, 0.5], "inf"),
    "temperature_nan": ([math.nan, 290.0], [0.5, 0.5], "nan"),
}


@pytest.mark.parametrize("function", [
    brightness_temperature_rj,
    lambda temps, taus: brightness_temperature_planck(300e9, temps, taus),
], ids=["rj", "planck"])
@pytest.mark.parametrize("case", sorted(BAD_SKIES))
def test_bad_sky_is_invalid_range(function, case):
    temps, taus, value = BAD_SKIES[case]
    with pytest.raises(InvalidRange, match=re.escape(value)):
        function(temps, taus)


class TestNearTransparentSky:
    # a hot layer that emits nothing among four that barely emit
    TEMPS = np.array([220.0, 1000.0, 260.0, 300.0, 240.0])
    SHAPE = np.array([3.0, 0.0, 1.0, 2.0, 5.0])

    @staticmethod
    def walk(temps, emissivities):
        """Sum T_i a_i and sum a_i by a walk outward from the receiver."""
        brightness = emissivity = 0.0
        through = 1.0
        for t, e in zip(temps, emissivities):
            brightness += through * e * t
            emissivity += through * e
            through *= 1.0 - e
        return brightness, emissivity

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", 10.0 ** -np.arange(8, 17))
    def test_effective_temperature_is_continuous(self, scale):
        # no threshold: below 1e-12 as above it, T_eff is the
        # absorption-weighted mean, never the mean over every layer
        eps = self.SHAPE * scale
        t_rj, emissivity = _emission(self.TEMPS, eps[:, None])
        t_eff = t_rj[0] / emissivity[0]
        walk_rj, walk_emissivity = self.walk(self.TEMPS, eps)
        assert t_eff == pytest.approx(walk_rj / walk_emissivity, rel=1e-12)
        # attenuation moves each weight by at most the path's sum of eps
        weighted = np.sum(self.TEMPS * eps) / np.sum(eps)
        assert t_eff == pytest.approx(weighted, rel=1e-12 + eps.sum())
        # the layer that emits nothing does not enter, bit for bit
        emitting = self.SHAPE > 0.0
        without = _emission(self.TEMPS[emitting], eps[emitting, None])
        assert t_rj.tobytes() == without[0].tobytes()
        assert emissivity.tobytes() == without[1].tobytes()
        f = np.array([300e9])
        x = PLANCK * f / (BOLTZMANN * t_eff)
        expected = (PLANCK * f / BOLTZMANN) / np.log1p(
            np.expm1(x) / emissivity)
        np.testing.assert_allclose(_planck(f, self.TEMPS, eps[:, None]),
                                   expected, rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_or_silent_sky_is_thermal_noise_bit_for_bit(self):
        rx = TransceiverConfig(1e-3, 5e9, 300e9, noise_figure=10.0)
        grid = np.logspace(9, 13.5, 40)
        thermal = thermal_noise_psd(grid, rx.rx_temperature, rx.noise_figure)
        for sky in (SkyPath(np.empty(0), np.empty((0, grid.size))),
                    SkyPath(self.TEMPS, np.zeros((self.TEMPS.size,
                                                  grid.size)))):
            got = total_noise_psd(grid, sky, rx)
            assert got.tobytes() == thermal.tobytes()


class TestThermalNoise:
    def test_rayleigh_jeans_limit_at_10ghz(self):
        got = thermal_noise_psd(10e9, 296.0)
        assert got == pytest.approx(BOLTZMANN * 296.0, rel=5e-3)

    def test_quantum_crossover_point(self):
        # hf = kT at 6.168 THz for 296 K; the roll-off there is
        # 1/(e - 1) = -2.35 dB
        f_cross = BOLTZMANN * 296.0 / PLANCK
        assert f_cross == pytest.approx(6.168e12, abs=1e9)
        eta = thermal_noise_psd(f_cross, 296.0) / (BOLTZMANN * 296.0)
        assert 10.0 * math.log10(eta) == pytest.approx(-2.35, abs=0.01)

    def test_ten_terahertz_rolloff(self):
        eta = thermal_noise_psd(10e12, 296.0) / (BOLTZMANN * 296.0)
        assert 10.0 * math.log10(eta) == pytest.approx(-3.99, abs=0.05)

    def test_noise_figure_scales(self):
        assert thermal_noise_psd(100e9, 296.0, 10.0) == pytest.approx(
            10.0 * thermal_noise_psd(100e9, 296.0), rel=1e-12)

    def test_monotone_decreasing_in_frequency(self):
        f = np.logspace(9, 13.5, 200)
        psd = thermal_noise_psd(f, 296.0)
        assert np.all(np.diff(psd) < 0.0)
        assert np.all(psd > 0.0)


class TestTotalNoise:
    def test_vacuum_path_is_thermal_only(self):
        rx = TransceiverConfig(1e-3, 5e9, 300e9, noise_figure=10.0)
        vacuum = SkyPath(np.empty(0), np.empty((0, 1)))
        got = total_noise_psd(300e9, vacuum, rx)
        assert got == pytest.approx(
            thermal_noise_psd(300e9, 296.0, 10.0), rel=1e-12)

    def test_opaque_sky_adds_antenna_temperature(self):
        rx = TransceiverConfig(1e-3, 5e9, 100e9, noise_figure=10.0)
        sky = SkyPath(np.array([296.0]), np.array([[1.0 - 1e-12]]))
        got = float(total_noise_psd(np.array([100e9]), sky, rx)[0])
        expected = BOLTZMANN * 296.0 + thermal_noise_psd(100e9, 296.0, 10.0)
        assert got == pytest.approx(expected, rel=1e-3)

    def test_band_noise_power_closed_form(self):
        # 5 GHz, NF 10 dB, negligible sky: about kT * 10 * W = 2.04e-10 W
        rx = TransceiverConfig(1e-3, 5e9, 300e9, noise_figure=10.0)
        grid = np.linspace(297.5e9, 302.5e9, 65)
        vacuum = SkyPath(np.empty(0), np.empty((0, grid.size)))
        psd = total_noise_psd(grid, vacuum, rx)
        power = float(np.trapezoid(psd, grid))
        assert power == pytest.approx(2.04e-10, rel=0.05)
        assert 10.0 * math.log10(power) == pytest.approx(-96.9, abs=0.3)

    def test_noise_strictly_positive(self):
        rx = TransceiverConfig(1e-3, 5e9, 300e9)
        grid = np.logspace(10, 13, 50)
        sky = SkyPath(np.array([250.0]),
                      1.0 - np.tile(np.linspace(0.1, 1.0, 50), (1, 1)))
        assert np.all(total_noise_psd(grid, sky, rx) > 0.0)


class TestSnrAndCapacity:
    def test_tx_power_linearity(self):
        pl = np.full(11, 1e20)
        noise = np.full(11, 1e-20)
        one = snr(pl, noise, TransceiverConfig(1e-3, 5e9, 300e9))
        two = snr(pl, noise, TransceiverConfig(2e-3, 5e9, 300e9))
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)

    def test_snr_decreases_with_added_loss(self):
        noise = np.full(11, 1e-20)
        tx = TransceiverConfig(1e-3, 5e9, 300e9)
        dry = snr(np.full(11, 1e20), noise, tx)
        wet = snr(np.full(11, 1e20) * 10 ** 0.3, noise, tx)
        assert np.all(wet < dry)

    def test_unit_snr_capacity_equals_bandwidth(self):
        grid = np.linspace(297.5e9, 302.5e9, 129)
        assert capacity(grid, np.ones(129)) == pytest.approx(5e9, rel=1e-12)

    def test_zero_snr_zero_capacity(self):
        grid = np.linspace(297.5e9, 302.5e9, 129)
        assert capacity(grid, np.zeros(129)) == 0.0


class TestModulationThresholds:
    def test_bpsk_at_1e_minus_6(self):
        threshold = modulation_threshold("BPSK", 1e-6)
        assert 10.0 * math.log10(threshold) == pytest.approx(10.53, abs=0.05)
        assert bit_error_probability("BPSK", threshold) == pytest.approx(
            1e-6, rel=1e-6)

    def test_16qam_needs_more_snr_than_bpsk(self):
        bpsk = modulation_threshold("BPSK", 1e-6)
        qam = modulation_threshold("16QAM", 1e-6)
        assert qam > bpsk
        assert bit_error_probability("16QAM", qam) == pytest.approx(
            1e-6, rel=1e-6)

    @pytest.mark.parametrize("p", [1e-12, 1e-6, 1e-3, 0.1, 0.3])
    def test_thresholds_match_scipys_erfcinv(self, p):
        # the closed forms of the standard library's normal quantile
        assert modulation_threshold("BPSK", p) == pytest.approx(
            erfcinv(2.0 * p) ** 2, rel=1e-14)
        assert modulation_threshold("16QAM", p) == pytest.approx(
            10.0 * erfcinv(2.0 * p / 0.75) ** 2, rel=1e-14)

    def test_bep_matches_scipys_erfc(self):
        for x in np.linspace(0.0, 8.0, 801).tolist():
            snr_linear = x * x / 2.0
            assert bit_error_probability("BPSK", snr_linear) == pytest.approx(
                0.5 * erfc(math.sqrt(2.0 * snr_linear) / math.sqrt(2.0)),
                rel=1e-14)

    def test_half_bep_degenerates_to_zero_snr(self):
        assert modulation_threshold("BPSK", 0.5) == 0.0

    def test_unsupported_scheme(self):
        with pytest.raises(InvalidRange,
                           match="unsupported modulation scheme '1024QAM'"):
            modulation_threshold("1024QAM", 1e-6)

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError, match="SNR must be nonnegative"):
            bit_error_probability("BPSK", -1.0)

    @pytest.mark.parametrize("target", [0.0, -0.1, 0.6])
    def test_target_outside_the_range_rejected(self, target):
        with pytest.raises(ValueError, match=r"must be in \(0, 0\.5\]"):
            modulation_threshold("BPSK", target)

    def test_bep_monotone_in_snr(self):
        snrs = np.linspace(0.0, 30.0, 40)
        beps = [bit_error_probability("BPSK", s) for s in snrs]
        assert all(a >= b for a, b in zip(beps, beps[1:]))
