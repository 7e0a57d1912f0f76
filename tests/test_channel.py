import csv
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thzlink import channel
from thzlink.absorption import AbsorptionSpectrum, absorption_coefficient
from thzlink.atmosphere import AtmosphericState, build_layers, profile_at
from thzlink.channel import (
    AntennaConfig,
    cloud_attenuation,
    dish_gain,
    rain_attenuation,
    spreading_loss,
    total_path_loss,
    transmittance,
)
from thzlink.errors import (
    ConfigError,
    InvalidRange,
    ThzLinkError,
)
from thzlink.geometry import atmospheric_path_length, layer_path_segments
from thzlink.scenario import make_grid

DATA_DIR = Path(__file__).parent.parent / "src" / "thzlink" / "data"


def db(gain):
    return -10.0 * np.log10(gain)


class TestSpreadingLoss:
    def test_300ghz_one_meter(self):
        assert db(spreading_loss(300e9, 1.0)) == pytest.approx(81.99,
                                                               abs=0.01)

    def test_doubling_distance_adds_inverse_square_step(self):
        step = db(spreading_loss(300e9, 2.0)) - db(spreading_loss(300e9, 1.0))
        assert step == pytest.approx(6.0206, abs=1e-3)

    def test_geo_distance(self):
        assert db(spreading_loss(300e9, 36_000e3)) == pytest.approx(233.1,
                                                                    abs=0.1)


class TestTransmittance:
    def make_uniform_spectrum(self, grid, kappa_value):
        state = AtmosphericState(0.0, 101325.0, 288.0, {"H2O": 0.01})
        return AbsorptionSpectrum(grid=grid,
                                  kappa=np.full_like(grid, kappa_value),
                                  state=state)

    def test_no_absorption_is_transparent(self):
        grid = np.linspace(1e11, 2e11, 5)
        tau = transmittance(grid, [(0, 1_000.0)],
                            {0: self.make_uniform_spectrum(grid, 0.0)})
        assert np.all(tau == 1.0)

    def test_beer_lambert_exact(self):
        grid = np.linspace(1e11, 2e11, 5)
        tau = transmittance(grid, [(0, 1_000.0)],
                            {0: self.make_uniform_spectrum(grid, 1e-3)})
        np.testing.assert_allclose(tau, math.exp(-1.0), rtol=1e-15)

    def test_misaligned_layers_rejected(self):
        grid = np.linspace(1e11, 2e11, 5)
        spectrum = self.make_uniform_spectrum(grid, 1e-3)
        with pytest.raises(InvalidRange, match="no spectrum for layer 1"):
            transmittance(grid, [(0, 1.0), (1, 1.0)], {0: spectrum})
        other_grid = np.linspace(1e11, 2e11, 7)
        with pytest.raises(InvalidRange, match="layer 0 spectrum grid differs"):
            transmittance(other_grid, [(0, 1.0)], {0: spectrum})

    def test_other_grid_objects_are_compared(self):
        grid = np.linspace(1e11, 2e11, 5)
        spectrum = self.make_uniform_spectrum(grid, 1e-3)
        tau = transmittance(grid, [(0, 1.0)], {0: spectrum})
        assert transmittance(grid.copy(), [(0, 1.0)],
                             {0: spectrum}).tobytes() == tau.tobytes()
        with pytest.raises(InvalidRange, match="layer 0 spectrum grid differs"):
            transmittance(grid + 1.0, [(0, 1.0)], {0: spectrum})

    def test_refinement_convergence(self, mini_catalog):
        # ten-fold layer refinement moves tau by less than 0.1% everywhere
        # on a path entering above the dense troposphere
        grid = np.linspace(200e9, 400e9, 60)

        def tau_for(resolution):
            stack = build_layers(0.0, 500e3, resolution)
            segments = layer_path_segments(11e3, math.pi / 2, stack)
            spectra = {
                i: absorption_coefficient(mini_catalog, stack[i].state, grid)
                for i, _ in segments
            }
            return transmittance(grid, segments, spectra)

        coarse = tau_for(500.0)
        fine = tau_for(50.0)
        assert np.max(np.abs(fine - coarse) / fine) < 1e-3


class TestDishGain:
    def test_half_meter_dish_at_300ghz(self):
        gain = dish_gain(AntennaConfig(0.5, 1.0), 300e9)
        assert 10.0 * math.log10(gain) == pytest.approx(63.93, abs=0.01)

    def test_frequency_doubling_adds_6db(self):
        a = AntennaConfig(0.5, 1.0)
        step = 10.0 * math.log10(dish_gain(a, 600e9) / dish_gain(a, 300e9))
        assert step == pytest.approx(6.0206, abs=1e-3)

    def test_efficiency(self):
        ideal = dish_gain(AntennaConfig(0.5, 1.0), 300e9)
        lossy = dish_gain(AntennaConfig(0.5, 0.5), 300e9)
        assert 10.0 * math.log10(lossy / ideal) == pytest.approx(-3.0103,
                                                                 abs=1e-3)

    def test_validation(self):
        for diameter, efficiency, key in (
                (0.0, 1.0, "dish_diameter_m"),
                (math.inf, 1.0, "dish_diameter_m"),
                (math.nan, 1.0, "dish_diameter_m"),
                (0.5, 1.5, "dish_efficiency"),
                (0.5, 0.0, "dish_efficiency"),
                (0.5, math.nan, "dish_efficiency")):
            with pytest.raises(ConfigError) as err:
                AntennaConfig(diameter, efficiency)
            assert err.value.field == key


def bundled_rain_coefficients(f_ghz):
    """Log-log interpolation of the shipped table, written independently."""
    rows = []
    with (DATA_DIR / "rain_p838.csv").open() as fh:
        for row in csv.DictReader(r for r in fh if not r.startswith("#")):
            rows.append((float(row["freq_ghz"]), float(row["k"]),
                         float(row["alpha"])))
    rows.sort()
    freqs = np.log([r[0] for r in rows])
    k = np.exp(np.interp(math.log(f_ghz), freqs, np.log([r[1] for r in rows])))
    a = np.exp(np.interp(math.log(f_ghz), freqs,
                         np.log([r[2] for r in rows])))
    return k, a


def rain(f_hz, rain_rate, path):
    return rain_attenuation(np.array([f_hz]), rain_rate, path)


def cloud(f_hz, density, path, t):
    return cloud_attenuation(np.array([f_hz]), density, path, t)


class TestRainAttenuation:
    def test_no_rain_no_loss(self):
        att = rain(100e9, 0.0, 1_000.0)
        assert att.db.tolist() == [0.0]
        assert att.extrapolated.tolist() == [False]

    def test_moderate_rain_few_decibels(self):
        att = rain(100e9, 5.0, 1_000.0)
        assert not att.extrapolated[0]
        assert 1.0 < att.db[0] < 10.0
        k, alpha = bundled_rain_coefficients(100.0)
        assert att.db[0] == pytest.approx(k * 5.0 ** alpha, rel=1e-6)

    def test_overflowing_rate_is_infinite_loss(self):
        # near 5 GHz the exponent exceeds 1, so the rate's power overflows
        att = rain(5.3e9, 1e300, 1_000.0)
        assert att.db[0] == math.inf

    def test_slant_scales_linearly_with_path(self):
        psi = math.radians(45.0)
        vertical = atmospheric_path_length(0.0, math.pi / 2, 700.0)
        slant = atmospheric_path_length(0.0, psi, 700.0)
        assert slant / vertical == pytest.approx(math.sqrt(2.0), rel=1e-3)
        a_vertical = rain(100e9, 5.0, vertical).db[0]
        a_slant = rain(100e9, 5.0, slant).db[0]
        assert a_slant / a_vertical == pytest.approx(slant / vertical,
                                                     rel=1e-12)

    def test_above_table_clamps_and_flags(self):
        db, flags = rain_attenuation(np.array([1000e9, 2000e9]), 5.0,
                                     1_000.0)
        assert flags.tolist() == [False, True]
        assert db[1] == pytest.approx(db[0], rel=1e-9)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            rain(100e9, -1.0, 1.0)


class TestWeatherRules:
    """A negative rain rate or cloud density is an InvalidRange: a
    ThzLinkError, which the CLI reports with exit 3, and a ValueError."""

    def test_negative_rain_rate(self):
        with pytest.raises(InvalidRange) as caught:
            rain_attenuation(np.array([100e9]), -1.0, 1_000.0)
        assert isinstance(caught.value, ThzLinkError)
        assert isinstance(caught.value, ValueError)

    def test_negative_cloud_density(self):
        with pytest.raises(InvalidRange) as caught:
            cloud_attenuation(np.array([100e9]), -0.5, 1_000.0, 280.0)
        assert isinstance(caught.value, ThzLinkError)
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rain_rate(self, value):
        with pytest.raises(InvalidRange, match="finite"):
            rain_attenuation(np.array([100e9]), value, 1_000.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_cloud_density(self, value):
        with pytest.raises(InvalidRange, match="finite"):
            cloud_attenuation(np.array([100e9]), value, 1_000.0, 280.0)


class TestCloudAttenuation:
    def test_no_cloud_no_loss(self):
        att = cloud(150e9, 0.0, 1_000.0, 280.0)
        assert att.db.tolist() == [0.0]
        assert att.extrapolated.tolist() == [False]

    def test_nimbostratus_at_150ghz(self):
        # 1 km thick deck at 0.5 g/m^3: positive, finite, inside validity
        att = cloud(150e9, 0.5, 1_000.0, 280.0)
        assert not att.extrapolated[0]
        assert 0.5 < att.db[0] < 20.0
        assert math.isfinite(att.db[0])

    def test_beyond_200ghz_flagged(self):
        att = cloud(300e9, 0.5, 1_000.0, 280.0)
        assert att.extrapolated[0]
        assert att.db[0] > 0.0

    def test_linear_in_density_and_path(self):
        base = cloud(150e9, 0.5, 1_000.0, 280.0).db[0]
        assert cloud(150e9, 1.0, 1_000.0, 280.0).db[0] == \
            pytest.approx(2 * base, rel=1e-12)
        assert cloud(150e9, 0.5, 2_000.0, 280.0).db[0] == \
            pytest.approx(2 * base, rel=1e-12)


@functools.lru_cache(maxsize=1)
def _rain_table_rows():
    with (DATA_DIR / "rain_p838.csv").open(newline="") as fh:
        rows = [(float(row["freq_ghz"]), float(row["k"]), float(row["alpha"]))
                for row in csv.DictReader(
                    r for r in fh if not r.startswith("#"))]
    return tuple(np.array(column) for column in zip(*rows))


@functools.lru_cache(maxsize=1)
def _cloud_table_rows():
    with (DATA_DIR / "cloud_p840.csv").open(newline="") as fh:
        reader = csv.reader(r for r in fh if not r.startswith("#"))
        header = next(reader)
        temps = np.array([float(name[3:-1]) for name in header[1:]])
        data = np.array([[float(v) for v in row] for row in reader])
    return data[:, 0], temps, data[:, 1:]


def scalar_rain_attenuation(f, rain_rate, path):
    """The per-frequency rain formula the array code replaced, kept as the
    reference: dB and the extrapolation flag of one frequency."""
    if rain_rate == 0.0 or path <= 0.0:
        return 0.0, False
    freqs, ks, alphas = _rain_table_rows()
    f_ghz = f / 1e9
    extrapolated = not 1.0 <= f_ghz <= 1000.0
    f_ghz = min(max(f_ghz, freqs[0]), freqs[-1])
    log_f = math.log(f_ghz)
    k = math.exp(np.interp(log_f, np.log(freqs), np.log(ks)))
    alpha = math.exp(np.interp(log_f, np.log(freqs), np.log(alphas)))
    try:
        db = k * rain_rate ** alpha * (path / 1000.0)
    except OverflowError:
        db = math.inf
    return db, extrapolated


def scalar_cloud_attenuation(f, density, path, t):
    """The per-frequency cloud formula the array code replaced, kept as the
    reference."""
    if density == 0.0 or path <= 0.0:
        return 0.0, False
    freqs, temps, kl = _cloud_table_rows()
    f_ghz = f / 1e9
    extrapolated = f_ghz > 200.0 or f_ghz < freqs[0]
    f_ghz = min(max(f_ghz, freqs[0]), freqs[-1])
    t = min(max(t, temps[0]), temps[-1])
    log_f = math.log(f_ghz)
    per_temp = np.array([
        math.exp(np.interp(log_f, np.log(freqs), np.log(kl[:, j])))
        for j in range(len(temps))
    ])
    coefficient = np.interp(t, temps, per_temp)
    return coefficient * density * (path / 1000.0), extrapolated


WEATHER_GRIDS = {
    "survey_0.1ghz": make_grid(100e9, 1000e9, 0.1e9),
    # below the rain table, around 5 GHz where a huge rate overflows, and
    # on both sides of the cloud flag at 200 GHz and the clamps at 1000 GHz
    "edges": np.array([0.1e9, 0.5e9, 0.999e9, 1e9, 1.001e9, 5.3e9, 150e9,
                       199.9e9, 200e9, 200.1e9, 999.9e9, 1000e9, 1000.1e9,
                       1100e9, 2000e9, 3000e9]),
    "log_0.1_to_3000ghz": np.geomspace(0.1e9, 3000e9, 401),
}


EPS = 2.0 ** -52


def rain_bound(rain_rate):
    """Relative bound on rain dB: R ** alpha scales alpha's last-bit error
    by ln R."""
    return 16 * EPS * (1 + abs(math.log(rain_rate)))


CLOUD_BOUND = 16 * EPS


def assert_same_weather(got, expected, bound):
    """The scalar references' flags and inf positions exactly, and each dB
    within ``bound`` relative of theirs, or one step below the normal
    range, where a subnormal result keeps no relative precision."""
    assert got.extrapolated.dtype == bool
    assert got.extrapolated.tolist() == [e[1] for e in expected]
    np.testing.assert_allclose(got.db, [e[0] for e in expected],
                               rtol=bound, atol=math.ulp(0.0))


class TestWeatherBytes:
    """The array weather functions give the scalar formulas' flags at every
    frequency, and their dB within a few units in the last place."""

    @pytest.mark.parametrize("grid", sorted(WEATHER_GRIDS))
    @pytest.mark.parametrize("rate", [1e-3, 25.0, 1e300])
    def test_rain(self, grid, rate):
        f = WEATHER_GRIDS[grid]
        assert_same_weather(
            rain_attenuation(f, rate, 1_555.6),
            [scalar_rain_attenuation(float(x), rate, 1_555.6) for x in f],
            rain_bound(rate))

    def test_rain_overflow_reaches_the_reference(self):
        db = rain_attenuation(WEATHER_GRIDS["edges"], 1e300, 1_000.0).db
        assert np.isinf(db).any() and np.isfinite(db).any()

    @pytest.mark.parametrize("grid", sorted(WEATHER_GRIDS))
    @pytest.mark.parametrize("t", [200.0, 240.0, 268.4, 300.0,
                                   math.nextafter(310.0, 0.0), 310.0, 330.0])
    def test_cloud(self, grid, t):
        f = WEATHER_GRIDS[grid]
        assert_same_weather(
            cloud_attenuation(f, 0.37, 1_555.2, t),
            [scalar_cloud_attenuation(float(x), 0.37, 1_555.2, t) for x in f],
            CLOUD_BOUND)

    @pytest.mark.parametrize("t", [200.0, 240.0, 268.4, 300.0, 330.0])
    def test_cloud_evaluates_at_most_the_bracketing_columns(
            self, monkeypatch, t):
        # (grid size, column) of each np.interp over the table's log K_l
        _, _, temps, log_kl = channel._cloud_table()
        columns = []

        def spy(x, xp, fp, *args, **kwargs):
            if np.shares_memory(fp, log_kl):
                columns.append((np.asarray(x).size, next(
                    j for j in range(log_kl.shape[1])
                    if np.array_equal(fp, log_kl[:, j]))))
            return interp(x, xp, fp, *args, **kwargs)

        interp = np.interp
        monkeypatch.setattr(np, "interp", spy)
        f = WEATHER_GRIDS["survey_0.1ghz"]
        cloud_attenuation(f, 0.37, 1_555.2, t)
        j = int(np.searchsorted(temps, t, side="right"))
        bracketing = {max(j - 1, 0), min(j, temps.size - 1)}
        assert 1 <= len(columns) <= 2
        assert {size for size, _ in columns} == {f.size}
        assert {column for _, column in columns} <= bracketing

    def test_no_weather_is_zero_and_unflagged(self):
        f = WEATHER_GRIDS["edges"]
        for att in (rain_attenuation(f, 0.0, 1e3),
                    rain_attenuation(f, 5.0, 0.0),
                    cloud_attenuation(f, 0.0, 1e3, 280.0),
                    cloud_attenuation(f, 0.5, 0.0, 280.0)):
            assert att.db.tobytes() == np.zeros(f.size).tobytes()
            assert not att.extrapolated.any()


@settings(deadline=None)
@given(f_ghz=st.lists(st.floats(0.1, 3000.0), min_size=1, max_size=8),
       rain_rate=st.floats(1e-3, 1e3), path=st.floats(0.0, 1e5),
       density=st.floats(0.01, 5.0), t=st.floats(180.0, 340.0))
def test_weather_within_its_bound_of_the_scalar_references(
        f_ghz, rain_rate, path, density, t):
    f = np.array(f_ghz) * 1e9
    assert_same_weather(
        rain_attenuation(f, rain_rate, path),
        [scalar_rain_attenuation(float(x), rain_rate, path) for x in f],
        rain_bound(rain_rate))
    assert_same_weather(
        cloud_attenuation(f, density, path, t),
        [scalar_cloud_attenuation(float(x), density, path, t) for x in f],
        CLOUD_BOUND)


class TestTotalPathLoss:
    def test_vacuum_isotropic_reduces_to_fspl(self):
        grid = np.array([100e9, 300e9, 1000e9])
        r = 1_000.0
        pl = total_path_loss(grid, r, np.ones(3))
        expected = (4.0 * math.pi * r * grid / 299792458.0) ** 2
        np.testing.assert_allclose(pl, expected, rtol=1e-12)

    def test_weather_factorizes_exactly(self):
        grid = np.array([100e9])
        dry = total_path_loss(grid, 1e3, np.array([0.9]))
        wet = total_path_loss(grid, 1e3, np.array([0.9]), rain_db=3.0)
        assert wet[0] / dry[0] == pytest.approx(10 ** 0.3, rel=1e-12)

    def test_never_below_fspl_over_gains(self, mini_catalog):
        grid = np.linspace(100e9, 1000e9, 91)
        state = profile_at(0.0)
        kappa = absorption_coefficient(mini_catalog, state, grid).kappa
        tau = np.exp(-kappa * 1_000.0)
        g_tx = dish_gain(AntennaConfig(0.5), grid)
        g_rx = dish_gain(AntennaConfig(1.0), grid)
        pl = total_path_loss(grid, 1e3, tau, g_tx, g_rx, rain_db=1.0)
        floor = (4.0 * math.pi * 1e3 * grid / 299792458.0) ** 2 / (g_tx * g_rx)
        assert np.all(pl >= floor)

    def test_tau_monotone_in_kappa_and_length(self):
        grid = np.linspace(1e11, 2e11, 4)
        state = AtmosphericState(0.0, 101325.0, 288.0, {"H2O": 0.01})
        weak = AbsorptionSpectrum(grid, np.full(4, 1e-4), state)
        strong = AbsorptionSpectrum(grid, np.full(4, 2e-4), state)
        tau_weak = transmittance(grid, [(0, 1e3)], {0: weak})
        tau_strong = transmittance(grid, [(0, 1e3)], {0: strong})
        tau_long = transmittance(grid, [(0, 2e3)], {0: weak})
        assert np.all(tau_strong < tau_weak)
        assert np.all(tau_long < tau_weak)
