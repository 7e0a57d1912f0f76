import dataclasses
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import wofz

from thzlink import absorption as absorption_module
from thzlink.absorption import (
    DEFAULT_WING_CUTOFF,
    DOPPLER_WINDOW,
    AbsorptionSpectrum,
    _LN2,
    _dominance,
    _faddeeva_re,
    _line_blocks,
    _line_windows,
    _partition_fits,
    _reference_partition,
    _scaled_intensity,
    _vvh_shape,
    absorbing_layers,
    absorption_coefficient,
    doppler_halfwidth,
    doppler_shape,
    line_center,
    lorentz_halfwidth,
    lorentz_shape,
    number_density,
    partition_function,
    voigt_shape,
)
from thzlink.atmosphere import AtmosphericState, build_layers, profile_at
from thzlink.catalog import (
    ISOTOPOLOGUE_ABUNDANCES,
    MOLAR_MASSES_U,
    MOLECULE_NAMES,
    LineCatalog,
    SpectralLine,
)
from thzlink.constants import (
    AVOGADRO,
    BOLTZMANN,
    GAS_CONSTANT,
    INTENSITY_CM_TO_SI,
    PLANCK,
    SPEED_OF_LIGHT,
    STANDARD_PRESSURE,
    STANDARD_TEMPERATURE,
)
from thzlink.errors import InvalidRange, NonFiniteAbsorption, ThzLinkError
from thzlink.scenario import load_scenario_catalog, make_grid

P0 = STANDARD_PRESSURE
T0 = STANDARD_TEMPERATURE
CM = 100.0 * SPEED_OF_LIGHT  # Hz per 1/cm


class TestLineCenter:
    def test_zero_pressure(self, sample_line):
        assert line_center(sample_line, 0.0) == pytest.approx(
            sample_line.nu0 * CM, rel=1e-15)

    def test_standard_pressure(self, sample_line):
        expected = (sample_line.nu0 + sample_line.delta_air) * CM
        assert line_center(sample_line, P0) == pytest.approx(expected,
                                                             rel=1e-15)

    def test_half_pressure_shift(self, sample_line):
        # delta = -0.01 1/cm per atm at half standard pressure:
        # shift = -0.005 * 100 c = -149.896 MHz
        line = SpectralLine(**{**sample_line.__dict__, "delta_air": -0.01})
        shift = line_center(line, P0 / 2.0) - line.nu0 * CM
        assert shift == pytest.approx(-149.896229e6, rel=1e-6)


class TestLorentzHalfwidth:
    def test_foreign_only_at_reference(self, sample_line):
        got = lorentz_halfwidth(sample_line, P0, T0, 0.0)
        assert got == pytest.approx(sample_line.alpha_air * CM, rel=1e-15)

    def test_zero_pressure(self, sample_line):
        assert lorentz_halfwidth(sample_line, 0.0, T0, 0.5) == 0.0

    def test_temperature_exponent_closed_form(self, sample_line):
        line = SpectralLine(**{**sample_line.__dict__,
                               "alpha_air": 0.1, "gamma_t": 0.7})
        got = lorentz_halfwidth(line, P0, 2.0 * T0, 0.0)
        expected = 0.1 * 0.5 ** 0.7 * CM  # 1.845 GHz
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.8454e9, rel=1e-4)

    def test_self_broadening_mix(self, sample_line):
        mixed = lorentz_halfwidth(sample_line, P0, T0, 0.3)
        expected = (0.7 * sample_line.alpha_air
                    + 0.3 * sample_line.alpha_self) * CM
        assert mixed == pytest.approx(expected, rel=1e-12)


class TestDopplerHalfwidth:
    def test_square_root_temperature_scaling(self, sample_line):
        assert doppler_halfwidth(sample_line, 4.0 * T0) == pytest.approx(
            2.0 * doppler_halfwidth(sample_line, T0), rel=1e-12)

    def test_water_557ghz_at_296k(self, sample_line):
        # m(H2O) = 18.0106 u: alpha_D = (f0/c) sqrt(2 ln2 kT/m) = 0.809 MHz
        assert doppler_halfwidth(sample_line, 296.0) == pytest.approx(
            8.086e5, rel=2e-3)

    def test_quarter_temperature_halves(self, sample_line):
        assert doppler_halfwidth(sample_line, 74.0) == pytest.approx(
            0.5 * doppler_halfwidth(sample_line, 296.0), rel=1e-12)
        assert doppler_halfwidth(sample_line, 74.0) == pytest.approx(
            4.04e5, rel=2e-3)

    def test_unknown_species(self, sample_line):
        # a line's molecule is a named one, so every line has a mass
        with pytest.raises(ValueError, match="unknown molecule 99"):
            SpectralLine(**{**sample_line.__dict__, "molecule_id": 99})


class TestShapes:
    def test_vvh_at_line_center(self):
        # dominant term is the Lorentz peak 1/(pi alpha_L); the mirror
        # resonance adds alpha_L / (pi (4 fc^2 + alpha_L^2))
        fc, al, t = 300e9, 1e9, 296.0
        got = float(van_vleck_huber_shape(np.array([fc]), fc, al, t)[0])
        expected = 1.0 / (math.pi * al) + al / (
            math.pi * (4.0 * fc * fc + al * al))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_voigt_matches_quadrature_oracle(self):
        # direct numeric convolution of the Lorentz and Doppler shapes
        fc, al, ad = 300e9, 1e6, 1.3e6
        sigma = ad / math.sqrt(2.0 * math.log(2.0))

        def convolution(f):
            def integrand(t):
                lorentz = (al / math.pi) / ((f - fc - t) ** 2 + al * al)
                gauss = math.exp(-0.5 * (t / sigma) ** 2) / (
                    sigma * math.sqrt(2.0 * math.pi))
                return lorentz * gauss

            pieces = sorted({0.0, f - fc})
            bounds = [-80.0 * ad] + pieces + [80.0 * ad]
            return sum(
                quad(integrand, a, b, limit=800, epsabs=1e-18,
                     epsrel=1e-12)[0]
                for a, b in zip(bounds, bounds[1:]))

        for offset in (0.0, 0.5e6, 2e6, 5e6, 20e6):
            got = float(voigt_shape(fc + offset, fc, al, ad))
            want = convolution(fc + offset)
            assert got == pytest.approx(want, rel=1e-4)

    def test_voigt_lorentz_limit_pointwise(self):
        # alpha_D -> 0: Voigt approaches Lorentz within 0.1% everywhere
        fc, al = 300e9, 1e9
        ad = 1e-4 * al
        f = np.linspace(fc - 10 * al, fc + 10 * al, 801)
        v = voigt_shape(f, fc, al, ad)
        l = lorentz_shape(f - fc, al)
        assert np.max(np.abs(v - l) / l) < 1e-3

    def test_voigt_doppler_limit_pointwise(self):
        fc, ad = 300e9, 1e6
        al = 1e-5 * ad
        f = np.linspace(fc - 3 * ad, fc + 3 * ad, 801)
        v = voigt_shape(f, fc, al, ad)
        d = doppler_shape(f, fc, ad)
        assert np.max(np.abs(v - d) / d) < 1e-3

    def test_voigt_limits_at_ratio_100_within_one_percent_of_peak(self):
        fc = 300e9
        for al, ad, reference in (
            (1e9, 1e7, lambda f: lorentz_shape(f - fc, 1e9)),
            (1e4, 1e6, lambda f: doppler_shape(f, fc, 1e6)),
        ):
            half_width = max(al, ad)
            f = np.linspace(fc - 10 * half_width, fc + 10 * half_width, 2001)
            deviation = np.max(np.abs(voigt_shape(f, fc, al, ad)
                                      - reference(f)))
            assert deviation / np.max(reference(f)) < 1e-2

    def test_doppler_normalization(self):
        fc, ad = 300e9, 1e6
        spans = [(fc - 5000 * ad, fc - 40 * ad), (fc - 40 * ad, fc + 40 * ad),
                 (fc + 40 * ad, fc + 5000 * ad)]
        total = sum(quad(lambda f: doppler_shape(f, fc, ad), a, b,
                         limit=400)[0] for a, b in spans)
        assert total == pytest.approx(1.0, abs=1e-2)

    def test_doppler_shape_has_the_bytes_of_its_formula(self):
        f = np.linspace(299.99e9, 300.01e9, 401)
        f_c = np.array([[300e9], [300.002e9], [299.995e9]])
        alpha_d = np.array([[3e5], [4e5], [5e5]])
        x = (f - f_c) / alpha_d
        want = math.sqrt(_LN2 / math.pi) / alpha_d * np.exp(-_LN2 * x * x)
        assert doppler_shape(f, f_c, alpha_d).tobytes() == want.tobytes()
        x = (300.0004e9 - 300e9) / 3e5
        alone = doppler_shape(300.0004e9, 300e9, 3e5)
        assert np.shape(alone) == ()
        assert np.float64(alone).tobytes() == np.float64(
            math.sqrt(_LN2 / math.pi) / 3e5 * np.exp(-_LN2 * x * x)).tobytes()

    def test_lorentz_pair_normalization(self):
        # the symmetric resonance pair under the asymmetric prefactor
        fc, al = 300e9, 1e6
        total = quad(lambda f: lorentz_shape(f - fc, al)
                     + lorentz_shape(f + fc, al),
                     fc - 5000 * al, fc + 5000 * al, limit=400)[0]
        assert total == pytest.approx(1.0, abs=2e-2)


# The Voigt branch's y = alpha_L sqrt(ln 2)/alpha_D, at half-width ratios of
# 1/5 to 5, with points between.
VOIGT_Y = (math.sqrt(_LN2) / 5.0, 0.5, 1.0, 2.5, 5.0 * math.sqrt(_LN2))


def around(x, ulps=2):
    """``x`` and its neighbours up to ``ulps`` doubles either side."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


class TestFaddeeva:
    """The kernel's own Re w(x + iy) against scipy's ``wofz``, whose
    branches and operation order it repeats away from the core |x| <= 6."""

    @staticmethod
    def wing_points(y):
        x = [6.5, 10.0, 100.0, 3000.0,                      # continued fraction
             4500.0, 1e5, 3e6, 9.9e6,                       # two terms
             2e7, 1e10, 1e15]                               # one term
        for edge in (4000.0, 1e7):
            x += around(edge - y)
        x += around(np.nextafter(6.0, np.inf))[2:]           # |x| just above 6
        x = np.array(x)
        return np.concatenate([x, -x])

    def test_the_wings_have_wofz_bits(self):
        for y in VOIGT_Y:
            x = self.wing_points(y)
            s = np.abs(x) + y
            for edge in (4000.0, 1e7):
                assert (s <= edge).any() and (s > edge).any()
            want = wofz(x + 1j * y).real
            got = _faddeeva_re(x, y)
            assert got.tobytes() == want.tobytes(), y

    def test_a_row_per_line_has_the_same_bits(self):
        # as the kernel calls it: one row of x per line, y a column
        y = np.array(VOIGT_Y)[:, None]
        x = np.stack([self.wing_points(v) for v in VOIGT_Y])
        want = wofz(x + 1j * y).real
        assert _faddeeva_re(x, y).tobytes() == want.tobytes()

    def test_the_core_within_1e_10(self):
        x = np.concatenate([np.linspace(-6.0, 6.0, 2401), [0.0, 1e-300]])
        for y in np.linspace(VOIGT_Y[0], VOIGT_Y[-1], 9):
            want = wofz(x + 1j * y).real
            got = _faddeeva_re(x, y)
            assert np.max(np.abs(got - want) / want) < 1e-10, y

    def test_a_scalar_f_gives_the_bytes_of_its_entry_in_a_column(self):
        # x of 1.4 (core), 7.3 and 330 (continued fraction), 2.1e4 (two
        # terms) and 1.2e7 (one term)
        f_c = np.array([[300e9], [300.004e9], [300.2e9], [310e9], [20e9]])
        alpha_l = np.array([[1e5], [3e5], [1e6], [5e5], [2e4]])
        alpha_d = np.array([[3e5], [4e5], [5e5], [4e5], [2e4]])
        f = 300.0005e9
        column = voigt_shape(f, f_c, alpha_l, alpha_d)
        assert column.shape == f_c.shape
        for row, args in zip(column, zip(f_c[:, 0], alpha_l[:, 0],
                                         alpha_d[:, 0])):
            alone = voigt_shape(f, *args)
            assert np.shape(alone) == ()
            assert np.float64(alone).tobytes() == row[0].tobytes()


def branch(alpha_l, alpha_d):
    """The kernel's shape branch for a line of these half-widths."""
    collisional, thermal = _dominance(alpha_l, alpha_d)
    return "vvh" if collisional else "doppler" if thermal else "voigt"


def one_line_kappa(line, f, p, t, mu):
    """The kernel's kappa for a catalog of ``line`` alone in a state of
    pressure ``p``, temperature ``t`` and water mixing ratio ``mu``."""
    state = AtmosphericState(0.0, p, t, {"H2O": mu})
    return absorption_coefficient(LineCatalog((line,), "one-line"), state,
                                  f).kappa


class TestSelectionRule:
    def test_rule_boundaries(self):
        assert branch(5.1e6, 1e6) == "vvh"
        assert branch(4.9e6, 1e6) == "voigt"
        assert branch(1e6, 4.9e6) == "voigt"
        assert branch(1e6, 5.1e6) == "doppler"

    def test_line_shape_dispatch(self, sample_line):
        f = np.array([sample_line.nu0 * CM])
        for p, t, shape in (
                # sea level: collision broadened
                (P0, T0, lambda f_c: van_vleck_huber_shape(
                    f, f_c, lorentz_halfwidth(sample_line, P0, T0, 0.01),
                    T0)),
                # near vacuum: thermal broadened
                (1e-3, 200.0, lambda f_c: doppler_shape(
                    f, f_c, doppler_halfwidth(sample_line, 200.0)))):
            f_c = line_center(sample_line, p)
            strength = (number_density(p, t, 0.01) * sample_line.abundance
                        * line_intensity(sample_line, t, f_c)
                        * INTENSITY_CM_TO_SI)
            np.testing.assert_allclose(
                one_line_kappa(sample_line, f, p, t, 0.01),
                strength * shape(f_c), rtol=1e-12)

    def test_center_jump_across_selection_boundaries(self, sample_line):
        # Sweep pressure so the line crosses both selection boundaries.
        # At the collision/Voigt boundary (ratio 5) the model discontinuity
        # at line center stays below 5%. At the Voigt/Doppler boundary the
        # ratio-5 rule leaves an inherent ~20% step (erfcx(sqrt(ln2)/5) is
        # 0.836), documented rather than hidden; it stays below 25%. The
        # kernel's kappa over pressure is the shape times a constant, since
        # the number density is proportional to pressure.
        t, mu = 200.0, 1e-9
        pressures = np.logspace(math.log10(500.0), math.log10(0.5), 1200)
        f = np.array([line_center(sample_line, 0.0)])
        previous = None
        jumps = {}
        for p in pressures:
            kind = branch(lorentz_halfwidth(sample_line, p, t, mu),
                          doppler_halfwidth(sample_line, t))
            value = float(one_line_kappa(sample_line, f, p, t, mu)[0]) / p
            if previous is not None and kind != previous[0]:
                step = abs(value - previous[1]) / previous[1]
                jumps[(previous[0], kind)] = step
            previous = (kind, value)
        assert set(jumps) == {("vvh", "voigt"), ("voigt", "doppler")}
        assert jumps[("vvh", "voigt")] < 0.05
        assert 0.15 < jumps[("voigt", "doppler")] < 0.25


class TestLineIntensity:
    def test_reference_temperature_identity(self, sample_line):
        assert line_intensity(sample_line, T0) == sample_line.S0_ref

    def test_zero_energy_low_frequency_limit(self, sample_line):
        # E_lower = 0 and f_c -> 0 leave only the partition ratio
        line = SpectralLine(**{**sample_line.__dict__, "E_lower": 0.0})
        t = 250.0
        got = line_intensity(line, t, f_c=1.0)
        expected = line.S0_ref * (partition_function(1, T0)
                                  / partition_function(1, t))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_closed_form_at_250k(self, sample_line):
        line = SpectralLine(**{**sample_line.__dict__, "E_lower": 100.0})
        t = 250.0
        f_c = line.nu0 * CM
        q = partition_function(1, T0) / partition_function(1, t)
        c2e = PLANCK * SPEED_OF_LIGHT * 100.0 * 100.0  # hc * E_lower
        boltz = math.exp(-c2e / (BOLTZMANN * t)) / math.exp(
            -c2e / (BOLTZMANN * T0))
        stim = (1.0 - math.exp(-PLANCK * f_c / (BOLTZMANN * t))) / (
            1.0 - math.exp(-PLANCK * f_c / (BOLTZMANN * T0)))
        expected = line.S0_ref * q * boltz * stim
        assert line_intensity(line, t) == pytest.approx(expected, rel=1e-12)


class TestPartitionFunction:
    def test_reference_ratio_is_one(self):
        assert partition_function("H2O", T0) / partition_function(
            "H2O", T0) == 1.0

    def test_rigid_linear_rotor_scaling(self):
        # CO is close to an ideal linear rotor: Q doubles with T within 10%
        ratio = partition_function("CO", 2 * T0) / partition_function("CO", T0)
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_out_of_range(self):
        with pytest.raises(InvalidRange, match=r"T = 50.0 K outside"):
            partition_function("H2O", 50.0)
        with pytest.raises(InvalidRange, match=r"T = 3500.0 K outside"):
            partition_function("H2O", 3500.0)

    def test_unknown_species(self):
        with pytest.raises(InvalidRange,
                           match="no partition data for species 'XYZ'"):
            partition_function("XYZ", 296.0)
        with pytest.raises(InvalidRange,
                           match="no partition data for species 99"):
            partition_function(99, 296.0)

    def test_accepts_molecule_ids(self):
        assert partition_function(1, 296.0) == partition_function("H2O", 296.0)

    def test_continuous_at_piece_boundaries(self):
        pieces = _partition_fits()["H2O"]
        boundaries = sorted({t_high for _, t_high, _ in pieces[:-1]})
        for t in boundaries:
            if not 70.0 < t < 3000.0:
                continue
            below = partition_function("H2O", t - 0.01)
            above = partition_function("H2O", t + 0.01)
            assert below == pytest.approx(above, rel=5e-3)

    def test_the_species_tables_agree(self):
        # a line's molecule is one MOLECULE_NAMES names; each such molecule
        # has a mass, abundances and partition pieces over 70-3000 K
        names = set(MOLECULE_NAMES.values())
        assert len(names) == len(MOLECULE_NAMES)
        assert set(MOLAR_MASSES_U) == set(MOLECULE_NAMES)
        assert {m for m, _ in ISOTOPOLOGUE_ABUNDANCES} == set(MOLECULE_NAMES)
        fits = _partition_fits()
        assert set(fits) == names
        for name, pieces in fits.items():
            assert pieces[0][0] <= 70.0, name
            reach = pieces[0][1]
            for t_low, t_high, _ in pieces[1:]:
                assert t_low <= reach, (name, t_low)   # no gap
                reach = max(reach, t_high)
            assert reach >= 3000.0, name

    def test_each_temperature_takes_the_first_piece_that_holds_it(self):
        for name, pieces in _partition_fits().items():
            ends = [t for t_low, t_high, _ in pieces for t in (t_low, t_high)]
            for t in sorted({*np.arange(70.0, 3000.0, 2.5).tolist(), 3000.0,
                             *(t for t in ends if 70.0 <= t <= 3000.0)}):
                c = next(c for t_low, t_high, c in pieces
                         if t_low <= t <= t_high)
                want = c[0] + t * (c[1] + t * (c[2] + t * c[3]))
                assert partition_function(name, t) == want, (name, t)


class TestNumberDensity:
    def test_standard_conditions(self):
        # p0 N_A / (R T0) = 2.479e25 per m^3
        assert number_density(P0, T0, 1.0) == pytest.approx(2.479e25,
                                                            rel=1e-3)

    def test_density_doubles_exactly_with_pressure(self):
        assert number_density(2 * P0, T0, 0.3) == 2.0 * number_density(
            P0, T0, 0.3)


def scalar_oracle_kappa(line, state, f):
    """Straight-line scalar reimplementation of one line's contribution,
    written independently of the engine (math module only)."""
    p, t = state.pressure, state.temperature
    mu = state.mixing_ratios["H2O"]
    f_c = (line.nu0 + line.delta_air * p / 101325.0) * 100.0 * 299792458.0
    alpha_l = (((1.0 - mu) * line.alpha_air + mu * line.alpha_self)
               * (p / 101325.0) * (296.0 / t) ** line.gamma_t
               * 100.0 * 299792458.0)
    n = p * mu * AVOGADRO / (GAS_CONSTANT * t) * line.abundance
    s_si = line.S0_ref * 299792458.0 / 100.0  # t == T0: no rescaling applies
    half_quantum = PLANCK / (2.0 * BOLTZMANN * t)
    prefactor = (f / f_c) * math.tanh(half_quantum * f) / math.tanh(
        half_quantum * f_c)
    pair = (alpha_l / math.pi / ((f - f_c) ** 2 + alpha_l ** 2)
            + alpha_l / math.pi / ((f + f_c) ** 2 + alpha_l ** 2))
    return n * s_si * prefactor * pair


class TestAbsorptionCoefficient:
    def test_empty_catalog_gives_zero(self):
        cat = LineCatalog((), "empty")
        state = profile_at(0.0)
        grid = np.linspace(100e9, 400e9, 31)
        spectrum = absorption_coefficient(cat, state, grid)
        assert np.all(spectrum.kappa == 0.0)

    def test_single_line_matches_scalar_oracle(self, sample_line):
        state = AtmosphericState(0.0, P0, T0, {"H2O": 0.0078})
        cat = LineCatalog((sample_line,), "one-line")
        f_c = sample_line.nu0 * CM
        grid = np.array([f_c - 40e9, f_c - 3e9, f_c, f_c + 3e9, f_c + 40e9])
        spectrum = absorption_coefficient(cat, state, grid)
        for i, f in enumerate(grid):
            want = scalar_oracle_kappa(sample_line, state, float(f))
            assert spectrum.kappa[i] == pytest.approx(want, rel=1e-10)

    def test_kappa_nonnegative_across_states(self, mini_catalog):
        grid = np.linspace(50e9, 1200e9, 400)
        for h in (0.0, 5e3, 20e3, 60e3, 120e3):
            spectrum = absorption_coefficient(mini_catalog, profile_at(h),
                                              grid)
            assert np.all(spectrum.kappa >= 0.0)

    def test_wing_cutoff_limits_contributions(self, sample_line):
        state = AtmosphericState(0.0, P0, T0, {"H2O": 0.0078})
        cat = LineCatalog((sample_line,), "one-line")
        f_c = sample_line.nu0 * CM
        grid = np.array([f_c - 800e9, f_c, f_c + 800e9])
        spectrum = absorption_coefficient(cat, state, grid,
                                          wing_cutoff=750e9)
        assert spectrum.kappa[0] == 0.0
        assert spectrum.kappa[1] > 0.0
        assert spectrum.kappa[2] == 0.0

    def test_absent_species_contribute_nothing(self, mini_catalog):
        dry = AtmosphericState(0.0, P0, T0, {"N2": 0.78})
        grid = np.linspace(100e9, 700e9, 200)
        spectrum = absorption_coefficient(mini_catalog, dry, grid)
        assert np.all(spectrum.kappa == 0.0)

    def test_temperature_out_of_fit_propagates(self, sample_line):
        cat = LineCatalog((sample_line,), "one-line")
        hot = AtmosphericState(0.0, P0, 3200.0, {"H2O": 0.01})
        with pytest.raises(InvalidRange, match=r"T = 3200.0 K outside"):
            absorption_coefficient(cat, hot, np.array([300e9, 310e9]))

    # finite as parsed, but past what the line formulas can carry: the
    # intensity's Boltzmann ratio is 0/0, the collision width overflows
    @pytest.mark.parametrize("field, value", [
        ("E_lower", 1e300), ("gamma_t", 9e99), ("alpha_air", 9e300)])
    def test_line_out_of_range_names_the_line(self, sample_line, field,
                                              value):
        line = dataclasses.replace(sample_line, **{field: value})
        cat = LineCatalog((line,), "one-line")
        cold = AtmosphericState(0.0, P0, 250.0, {"H2O": 0.0078})
        grid = np.linspace(550e9, 560e9, 11)
        # the stack pass marks the layer without a floating-point warning
        assert absorbing_layers(cat, [cold], grid).tolist() == [True]
        with pytest.raises(NonFiniteAbsorption,
                           match=r"^catalog line of H2O \(molecule 1, "
                                 r"isotopologue 1\) at 18\.577339 1/cm makes "
                                 r"kappa nan at 5\.5e\+11 Hz, p = 101325 Pa, "
                                 r"T = 250 K$"):
            absorption_coefficient(cat, cold, grid)

    # a temperature exponent far out of range underflows the collision
    # width to 0.0: below 296 K when negative, above it when positive
    @pytest.mark.parametrize("gamma_t, t", [
        (-9e9, 250.0), (9e99, 300.0), (9e99, 1000.0)])
    def test_underflowed_collision_width_names_the_line(self, sample_line,
                                                        gamma_t, t):
        line = dataclasses.replace(sample_line, gamma_t=gamma_t)
        cat = LineCatalog((line,), "one-line")
        state = AtmosphericState(0.0, 100.0, t, {"H2O": 0.0078})
        dry = AtmosphericState(0.0, 100.0, t, {"N2": 0.78})
        message = (r"^catalog line of H2O \(molecule 1, isotopologue 1\) at "
                   r"18\.577339 1/cm has collision half-width 0 Hz, "
                   rf"p = 100 Pa, T = {t:g} K$")
        # a grid over the line, and one inside its wing cutoff but past
        # the Doppler window the zero width would give it
        f0 = line.f0
        for grid in (np.linspace(550e9, 560e9, 11),
                     np.array([f0 + 1e9, f0 + 2e9])):
            with pytest.raises(NonFiniteAbsorption, match=message):
                absorption_coefficient(cat, state, grid)
            with pytest.raises(NonFiniteAbsorption, match=message):
                absorbing_layers(cat, [dry, state], grid)
            # where the species is absent the width does not matter
            assert not absorption_coefficient(cat, dry, grid).kappa.any()
            assert absorbing_layers(cat, [dry], grid).tolist() == [False]

    def test_kappa_overflow_names_the_line(self, sample_line):
        # every quantity of the first line is finite, but its collision
        # shape's factor (f / f_c) tanh(hf/2kT) / tanh(hf_c/2kT) overflows
        tiny = dataclasses.replace(sample_line, nu0=1e-300, delta_air=0.0)
        cat = LineCatalog((tiny, sample_line), "two-line")
        state = AtmosphericState(0.0, P0, T0, {"H2O": 0.0078})
        with pytest.raises(NonFiniteAbsorption,
                           match=r"^catalog line of H2O \(molecule 1, "
                                 r"isotopologue 1\) at 1e-300 1/cm makes "
                                 r"kappa inf at 5\.5e\+11 Hz, p = 101325 Pa"):
            absorption_coefficient(cat, state, np.linspace(550e9, 560e9, 11))
        # beyond its 750 GHz window the line is not evaluated
        far = absorption_coefficient(cat, state, np.array([760e9, 770e9]))
        assert np.isfinite(far.kappa).all() and far.kappa.all()

    def test_grid_must_increase(self, mini_catalog):
        state = profile_at(0.0)
        with pytest.raises(ValueError):
            absorption_coefficient(mini_catalog, state,
                                   np.array([2e11, 1e11]))

    def test_grid_must_not_be_empty(self, mini_catalog):
        with pytest.raises(ValueError, match="non-empty"):
            absorption_coefficient(mini_catalog, profile_at(0.0),
                                   np.array([]))


def line_intensity(line, t, f_c=None):
    """Intensity of one line at ``t`` through the kernel's
    ``_scaled_intensity``, its stimulated emission at ``f_c`` (the unshifted
    center by default)."""
    if f_c is None:
        f_c = line.f0
    q_ratio = (_reference_partition(line.molecule_id)
               / partition_function(line.molecule_id, t))
    return _scaled_intensity(line.S0_ref, line.E_lower, t, f_c, q_ratio)


def van_vleck_huber_shape(f, f_c, alpha_l, t):
    """The kernel's ``_vvh_shape`` at temperature ``t``; centers and widths
    may be a column, one row per line."""
    half_quantum = PLANCK / (2.0 * BOLTZMANN * t)
    return _vvh_shape(f, np.tanh(half_quantum * f), f_c,
                      np.tanh(half_quantum * f_c), alpha_l)


def two_lorentz_shape(f, tanh_f, f_c, tanh_fc, alpha_l):
    """The collision shape as kernel version 3 wrote it: the prefactor
    times a pair of Lorentz profiles, four divisions per element."""
    prefactor = (f / f_c) * tanh_f / tanh_fc
    return prefactor * (lorentz_shape(f - f_c, alpha_l)
                        + lorentz_shape(f + f_c, alpha_l))


class TestVanVleckHuberShape:
    """``_vvh_shape`` against exact arithmetic on its own arguments, and
    against :func:`two_lorentz_shape` where values overflow or underflow."""

    @staticmethod
    def exact(f, tanh_f, f_c, tanh_fc, alpha_l):
        """The shape in rational arithmetic, with pi as ``math.pi``."""
        f, tanh_f, f_c, tanh_fc, alpha_l = map(
            Fraction, (f, tanh_f, f_c, tanh_fc, alpha_l))
        a2 = alpha_l * alpha_l
        return (f * tanh_f / (f_c * tanh_fc) * alpha_l / Fraction(math.pi)
                * (1 / ((f - f_c) ** 2 + a2) + 1 / ((f + f_c) ** 2 + a2)))

    def test_within_4e_15_of_exact_arithmetic(self):
        rng = np.random.default_rng(35)
        n = 2000
        f = 10.0 ** rng.uniform(9.0, 13.0, n)            # 1 GHz to 10 THz
        f_c = 10.0 ** rng.uniform(9.0, 13.0, n)
        near = rng.random(n) < 0.25                      # centers near f
        f_c[near] = f[near] * (1.0 + rng.uniform(-1e-4, 1e-4, near.sum()))
        alpha_l = 10.0 ** rng.uniform(4.0, 11.0, n)
        half_quantum = PLANCK / (2.0 * BOLTZMANN
                                 * rng.uniform(150.0, 350.0, n))
        args = (f, np.tanh(half_quantum * f), f_c,
                np.tanh(half_quantum * f_c), alpha_l)
        # one row per draw, each argument a column
        got = _vvh_shape(*(x[:, None] for x in args))[:, 0]
        errors = [abs(Fraction(value) - want) / want for value, want
                  in zip(got, map(self.exact, *args))]
        assert max(errors) < Fraction(4e-15)

    @pytest.mark.parametrize("t", [150.0, 296.0, 350.0])
    def test_finite_and_zero_where_the_earlier_form_is(self, t):
        # grids far above any band, where A and B overflow, and centers
        # down to the smallest double, where f/f_c and 1/(f_c tanh_fc) do
        half_quantum = PLANCK / (2.0 * BOLTZMANN * t)
        cases = [(np.array([1e80, 1e160]), f_c)
                 for f_c in (1e9, 3e11, 1e12, -3e11)]
        cases += [(np.logspace(0.0, 13.0, 27), 10.0 ** -k)
                  for k in range(324)]
        cases += [(np.logspace(0.0, 13.0, 27), f_c)
                  for f_c in (5e-324, 0.0, -1e-145)]
        with np.errstate(all="ignore"):
            for f, f_c in cases:
                for alpha_l in (1e4, 1e7, 1e9, 1e11):
                    args = (f, np.tanh(half_quantum * f),
                            np.array([[f_c]]),
                            np.tanh(half_quantum * np.array([[f_c]])),
                            np.array([[alpha_l]]))
                    got, before = _vvh_shape(*args), two_lorentz_shape(*args)
                    assert not (np.isfinite(before)
                                & ~np.isfinite(got)).any(), (f_c, alpha_l)
                    assert not ((before == 0.0) & (got != 0.0)).any(), (
                        f_c, alpha_l)

    def test_a_call_holds_two_blocks(self):
        # blocks of 2 MB, so that numpy's fixed iterator buffers, 64 kB
        # each, count for little; the earlier form held five blocks
        lines, points = 64, 4096
        f = np.linspace(299e9, 301e9, points)
        f_c = np.linspace(299.5e9, 300.5e9, lines)[:, None]
        args = (f, np.tanh(1e-13 * f), f_c, np.tanh(1e-13 * f_c),
                np.full((lines, 1), 1e9))
        block = lines * points * 8
        tracemalloc.start()
        try:
            _vvh_shape(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * block


def per_line_kappa(catalog, state, grid, wing_cutoff=DEFAULT_WING_CUTOFF):
    """The kernel as a loop over every catalog line with a full wing window,
    kept as it stood before the array pass: the reference that pass must
    match bit for bit."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")

    p, t = state.pressure, state.temperature
    kappa = np.zeros_like(grid)
    for line in catalog:
        mu = state.mixing_ratios.get(MOLECULE_NAMES.get(line.molecule_id), 0.0)
        if mu <= 0.0:
            continue
        f_c = line_center(line, p)
        lo = np.searchsorted(grid, f_c - wing_cutoff, "left")
        hi = np.searchsorted(grid, f_c + wing_cutoff, "right")
        if lo >= hi:
            continue
        alpha_l = lorentz_halfwidth(line, p, t, mu)
        alpha_d = doppler_halfwidth(line, t)
        strength = (number_density(p, t, mu) * line.abundance
                    * line_intensity(line, t, f_c) * INTENSITY_CM_TO_SI)
        window = grid[lo:hi]
        kind = branch(alpha_l, alpha_d)
        if kind == "vvh":
            shape = van_vleck_huber_shape(window, f_c, alpha_l, t)
        elif kind == "doppler":
            shape = doppler_shape(window, f_c, alpha_d)
        else:
            shape = voigt_shape(window, f_c, alpha_l, alpha_d)
        kappa[lo:hi] += strength * shape
    return AbsorptionSpectrum(grid=grid, kappa=kappa, state=state)


def synthetic_line(molecule_id, f_hz, **fields):
    values = dict(molecule_id=molecule_id, isotopologue_id=1, nu0=f_hz / CM,
                  S0_ref=1e-21, alpha_air=0.08, alpha_self=0.4,
                  E_lower=50.0, gamma_t=0.7, delta_air=-0.002,
                  abundance=ISOTOPOLOGUE_ABUNDANCES[(molecule_id, 1)])
    values.update(fields)
    return SpectralLine(**values)


# 299.9-300.1 GHz in 0.25 MHz steps: Doppler half-widths near 300 GHz are
# 0.2-0.4 MHz, so the 40-half-width window spans about 100 points. Lines sit
# inside, at the edge of and outside the grid, so windows are partial.
FINE_GRID = np.linspace(299.9e9, 300.1e9, 801)
SYNTHETIC = LineCatalog((
    synthetic_line(1, 299.700e9),
    synthetic_line(7, 299.895e9, S0_ref=3e-24, gamma_t=0.75),
    synthetic_line(1, 299.905e9, E_lower=400.0),
    synthetic_line(1, 300.000e9, S0_ref=5e-20, gamma_t=0.64),
    synthetic_line(7, 300.010e9, S0_ref=1e-24, delta_air=0.001),
    synthetic_line(1, 300.098e9, alpha_air=0.03, gamma_t=0.5),
    synthetic_line(7, 300.300e9, S0_ref=4e-24),
), "synthetic")
# sea level to 110 km: collision, Voigt and Doppler shapes
SYNTHETIC_STATES = [profile_at(h) for h in np.arange(0.0, 110e3 + 1, 5e3)]


def assert_same_bytes(catalog, states, grid, wing_cutoff=DEFAULT_WING_CUTOFF):
    for state in states:
        got = absorption_coefficient(catalog, state, grid, wing_cutoff).kappa
        want = per_line_kappa(catalog, state, grid, wing_cutoff).kappa
        assert got.tobytes() == want.tobytes(), state.altitude


# One line each of a collision, Doppler and Voigt shape, four times over,
# at 57 km: the Doppler windows are narrower than the others.
MIXED = LineCatalog(tuple(
    synthetic_line(1 if i % 2 else 7, 299.92e9 + i * 15e6,
                   alpha_air=width, alpha_self=width)
    for i, width in enumerate((0.5, 0.004, 0.05) * 4)), "mixed")
MIXED_STATE = profile_at(57e3)


def live_kinds(catalog, state, grid):
    """The shape kind ('c', 't' or 'v') and window of each live line."""
    w = _line_windows(catalog, state.pressure, state.temperature,
                      catalog.mixing_ratios(state.mixing_ratios), grid,
                      DEFAULT_WING_CUTOFF)
    live = np.flatnonzero(w.live)
    kinds = "".join("c" if c else "t" if t else "v" for c, t in
                    zip(w.collisional[live], w.thermal[live]))
    return kinds, w.lo[live].tolist(), w.hi[live].tolist()


def dense_catalog(rng, n):
    """``n`` lines, 60% H2O and 40% O2, spread below 38.36 1/cm with
    log-uniform intensities, as a synthetic dense catalog."""
    lines = []
    for _ in range(n):
        water = rng.random() < 0.6
        low, high = (1e-26, 1e-22) if water else (1e-27, 1e-24)
        lines.append(synthetic_line(
            1 if water else 7, rng.uniform(0.5, 38.36) * CM,
            S0_ref=math.exp(rng.uniform(math.log(low), math.log(high))),
            alpha_air=rng.uniform(0.02, 0.1),
            alpha_self=rng.uniform(0.1, 0.5),
            E_lower=rng.uniform(0.0, 2000.0), gamma_t=rng.uniform(0.5, 0.8),
            delta_air=rng.uniform(-0.005, 0.005)))
    return LineCatalog(tuple(sorted(lines, key=lambda ln: ln.nu0)), "dense")


def error_of(kernel, *args):
    """The type and message of the thzlink error ``kernel(*args)`` raises,
    or None."""
    try:
        kernel(*args)
    except ThzLinkError as exc:
        return type(exc), str(exc)
    return None


@pytest.fixture(scope="module")
def default_stack(default_scenario):
    """(catalog, states, grid, wing cutoff) of every layer of the default
    E2S stack, on the survey grid merged with the capacity band."""
    scenario = dataclasses.replace(default_scenario, kind="E2S")
    survey = make_grid(scenario.f_min, scenario.f_max, scenario.f_step)
    grid = np.union1d(survey, scenario.transceiver.band)
    catalog = load_scenario_catalog(scenario, survey)
    stack = build_layers(0.0, scenario.atmosphere_top,
                         scenario.layer_resolution,
                         ground_humidity=scenario.ground_humidity,
                         water_scale_height=scenario.water_scale_height)
    assert len(stack) == 1000
    return (catalog, [layer.state for layer in stack], grid,
            scenario.wing_cutoff)


class TestKernelBitIdentity:
    def test_every_layer_of_the_default_stack(self, default_stack):
        assert_same_bytes(*default_stack)

    def test_synthetic_catalog_hits_every_branch_with_partial_windows(self):
        kinds, clipped = set(), 0
        for state in SYNTHETIC_STATES:
            p, t = state.pressure, state.temperature
            for line in SYNTHETIC:
                mu = state.mixing_ratios[MOLECULE_NAMES[line.molecule_id]]
                alpha_d = doppler_halfwidth(line, t)
                kind = branch(lorentz_halfwidth(line, p, t, mu), alpha_d)
                kinds.add(kind)
                reach = DOPPLER_WINDOW * alpha_d
                f_c = line_center(line, p)
                if (kind == "doppler" and FINE_GRID[0] < f_c + reach
                        and f_c - reach < FINE_GRID[0]):
                    clipped += 1
        assert kinds == {"vvh", "voigt", "doppler"}
        assert clipped > 0
        assert_same_bytes(SYNTHETIC, SYNTHETIC_STATES, FINE_GRID)

    def test_wing_cutoff_inside_the_doppler_window(self):
        wing = 5e6
        alpha_d = doppler_halfwidth(SYNTHETIC.lines[3], 200.0)
        assert wing < DOPPLER_WINDOW * alpha_d
        assert_same_bytes(SYNTHETIC, SYNTHETIC_STATES, FINE_GRID, wing)

    def test_absent_species(self):
        dry = [AtmosphericState(s.altitude, s.pressure, s.temperature,
                                {k: v for k, v in s.mixing_ratios.items()
                                 if k != "H2O"})
               for s in SYNTHETIC_STATES]
        assert_same_bytes(SYNTHETIC, dry, FINE_GRID)
        assert any(absorption_coefficient(SYNTHETIC, s, FINE_GRID).kappa.any()
                   for s in dry)

    @pytest.mark.parametrize("cap", [None, 5 * FINE_GRID.size, 2 * 801 + 1,
                                     1])
    def test_interleaved_branches_inside_and_across_blocks(
            self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(absorption_module, "_BLOCK_ELEMENTS", cap)
        kinds, lo, hi = live_kinds(MIXED, MIXED_STATE, FINE_GRID)
        assert kinds == "ctv" * 4
        assert len(set(zip(lo, hi))) > 1    # Doppler windows are narrower
        blocks = list(_line_blocks(lo, hi))
        if cap is None:
            assert [b[:2] for b in blocks] == [(0, 12)]
        elif cap == 1:
            assert all(stop - start == 1 for start, stop, *_ in blocks)
        else:
            # every block holds more than one kind
            assert len(blocks) > 1
            assert all(len(set(kinds[start:stop])) > 1
                       for start, stop, *_ in blocks)
        assert_same_bytes(MIXED, [MIXED_STATE, *SYNTHETIC_STATES], FINE_GRID)

    def test_a_grid_so_wide_that_a_block_holds_one_line(self):
        grid = np.linspace(299.0e9, 301.0e9, 20_001)
        assert grid.size > absorption_module._BLOCK_ELEMENTS
        _, lo, hi = live_kinds(MIXED, MIXED_STATE, grid)
        assert [stop - start for start, stop, *_ in _line_blocks(lo, hi)] \
            == [1] * len(lo)
        assert_same_bytes(MIXED, [MIXED_STATE, profile_at(0.0)], grid)

    def test_seeded_dense_catalog_on_a_short_stack(self, default_scenario):
        catalog = dense_catalog(random.Random(20260808), 800)
        survey = make_grid(100e9, 400e9, 1e9)
        grid = np.union1d(survey, default_scenario.transceiver.band)
        stack = build_layers(0.0, 11e3, 500.0)
        assert len(stack) == 22
        states = [layer.state for layer in stack]
        assert_same_bytes(catalog, states, grid)
        # blocks of many lines, not one line each
        _, lo, hi = live_kinds(catalog, states[0], grid)
        assert len(lo) > 700
        assert len(list(_line_blocks(lo, hi))) < len(lo) / 10

    @pytest.mark.parametrize("first", ["o2 first", "h2o first"])
    def test_the_same_error_as_a_loop_over_lines(self, first):
        o2 = [synthetic_line(7, 300.0e9 + i * 1e6) for i in range(3)]
        h2o = [synthetic_line(1, 300.01e9 + i * 1e6) for i in range(3)]
        lines = o2 + h2o if first == "o2 first" else h2o + o2
        catalog = LineCatalog(tuple(lines), first)
        grid = FINE_GRID
        mixing = {"H2O": 0.01, "O2": 0.21}
        mild = AtmosphericState(0.0, P0, 250.0, mixing)
        hot = AtmosphericState(0.0, P0, 3200.0, mixing)
        for state in (mild, hot):
            want = error_of(per_line_kappa, catalog, state, grid)
            got = error_of(absorption_coefficient, catalog, state, grid)
            assert got == want
        assert error_of(absorption_coefficient, catalog, mild, grid) is None
        assert error_of(absorption_coefficient, catalog, hot, grid) == (
            InvalidRange, "T = 3200.0 K outside the fitted range [70, 3000] K")


@st.composite
def mixed_spectra(draw):
    """A catalog of collision, Doppler and Voigt lines in any order around a
    grid of 1 to 64 points near 300 GHz, a state and a wing cutoff: some
    windows cover the grid, some end inside it, and some miss it."""
    points = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 64)))
    step = draw(st.sampled_from([0.25e6, 1e6, 4e6, 20e6]))
    grid = 299.9e9 + draw(st.integers(0, 40)) * 2.5e6 + step * np.arange(
        points)
    span = grid[-1] - grid[0]
    lines = draw(st.lists(st.builds(
        lambda molecule, width, at, off: synthetic_line(
            molecule, grid[0] + at * span + off, alpha_air=width,
            alpha_self=width),
        st.sampled_from([1, 7]),
        st.sampled_from([0.5, 0.05, 0.004, 0.001]),   # 0.004: Doppler at 57 km
        st.floats(0.0, 1.0),
        st.floats(-30e6, 30e6)), min_size=1, max_size=24))
    state = profile_at(draw(st.sampled_from([0.0, 20e3, 57e3, 90e3])))
    wing_cutoff = draw(st.sampled_from([DEFAULT_WING_CUTOFF, 50e6, 5e6]))
    return LineCatalog(tuple(lines), "drawn"), state, grid, wing_cutoff


class TestRunReduction:
    """What the kernel's bytes rest on: numpy's reduction over the rows of a
    run adds them in order, and runs of every size give the loop's bytes."""

    @pytest.mark.parametrize("width", [2, 3, 7, 8, 9, 429, 9001])
    def test_a_reduction_over_rows_adds_them_in_order(self, width):
        rng = np.random.default_rng(width)
        counts = [1, 2, 3, 8, 9, 16, 17, 37, 38, 128, 129, 300,
                  *rng.integers(1, 301, 8).tolist()]
        for rows in counts:
            block = 10.0 ** rng.uniform(-30.0, 5.0, (rows, width))
            want = block[0].copy()
            for row in block[1:]:
                want += row
            got = np.empty(width)
            np.add.reduce(block, axis=0, out=got)
            assert got.tobytes() == want.tobytes(), rows

    def test_a_column_adds_in_order_by_accumulate(self):
        # numpy sums a single column pairwise, so the kernel accumulates it
        rng = np.random.default_rng(1)
        for rows in range(1, 301):
            column = 10.0 ** rng.uniform(-30.0, 5.0, rows)
            want = 0.0
            for value in column.tolist():
                want += value
            assert np.add.accumulate(column)[-1] == want, rows

    @settings(max_examples=300)
    @given(mixed_spectra())
    def test_runs_of_every_size_give_the_loops_bytes(self, spectrum):
        want = per_line_kappa(*spectrum).kappa.tobytes()
        default = absorption_module._BLOCK_ELEMENTS
        try:
            for cap in (1, 2, 37, 1 << 14):
                absorption_module._BLOCK_ELEMENTS = cap
                got = absorption_coefficient(*spectrum).kappa
                assert got.tobytes() == want, cap
        finally:
            absorption_module._BLOCK_ELEMENTS = default

    def test_one_point_grids_of_a_dense_catalog(self):
        # the live lines are one run of width 1, the grid the bisection in
        # absorption_coefficient uses; a point's loop sum is its entry in
        # the loop over the whole grid
        catalog = dense_catalog(random.Random(1), 800)
        state = profile_at(3e3)
        grid = np.linspace(100e9, 400e9, 50)
        want = per_line_kappa(catalog, state, grid).kappa
        _, lo, hi = live_kinds(catalog, state, grid[:1])
        assert len(lo) > 500
        for f, value in zip(grid, want):
            got = absorption_coefficient(catalog, state, np.array([f])).kappa
            assert got.tobytes() == value.tobytes(), f


class TestKernelMemory:
    def test_peak_follows_the_block_cap_not_the_line_count(self):
        grid = np.linspace(299.0e9, 301.0e9, 20_001)
        lines = 200
        catalog = LineCatalog(
            tuple(synthetic_line(1 if i % 2 else 7, 299.0e9 + i * 10e6)
                  for i in range(lines)), "full windows")
        # a few arrays as long as the grid or a block, some complex
        bound = 16 * 8 * max(absorption_module._BLOCK_ELEMENTS, grid.size)
        assert 10 * bound < lines * grid.size * 8
        for state in (profile_at(0.0), MIXED_STATE):
            kinds, lo, hi = live_kinds(catalog, state, grid)
            assert len(lo) == lines and set(zip(lo, hi)) == {(0, grid.size)}
            absorption_coefficient(catalog, state, grid)
            tracemalloc.start()
            try:
                absorption_coefficient(catalog, state, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (kinds, peak)


def assert_dead_layers_give_zero(catalog, states, grid,
                                 wing_cutoff=DEFAULT_WING_CUTOFF):
    """Check every state :func:`absorbing_layers` leaves unmarked against the
    kernel: its kappa must be +0.0 at every grid point, byte for byte.
    Returns the marks and whether each state's kappa has a nonzero."""
    marks = absorbing_layers(catalog, states, grid, wing_cutoff)
    zero = np.zeros_like(grid).tobytes()
    nonzero = []
    for state, live in zip(states, marks.tolist()):
        kappa = absorption_coefficient(catalog, state, grid, wing_cutoff).kappa
        if not live:
            assert kappa.tobytes() == zero, state.altitude
        nonzero.append(bool(kappa.any()))
    return marks, np.array(nonzero)


def assert_block_gives_the_kernels_windows(monkeypatch, catalog, states,
                                           grid, wing_cutoff):
    """The rows :func:`absorbing_layers` gets from :func:`_line_windows` for
    its blocks must hold, state by state, the bytes of the kernel's own call
    for that state alone."""
    blocks = []

    def recording(*args):
        blocks.append(_line_windows(*args))
        return blocks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(absorption_module, "_line_windows", recording)
        absorbing_layers(catalog, states, grid, wing_cutoff)
    rows = [np.concatenate(field) for field in zip(*blocks)]
    for row, state in enumerate(states):
        alone = _line_windows(
            catalog, state.pressure, state.temperature,
            catalog.mixing_ratios(state.mixing_ratios), grid, wing_cutoff)
        for name, got, want in zip(alone._fields, rows, alone):
            assert got[row].tobytes() == want.tobytes(), (name, row)


# Starts 20 MHz above the 300.098 GHz water line and ends short of the
# 300.3 GHz oxygen line. Up to about 60 km the lines' windows are the wing
# cutoff; above, they are Doppler-shaped and 40 half-widths reach the grid
# only where the thermosphere is hot, so dead layers lie between live ones.
GAP_GRID = np.linspace(300.118e9, 300.2e9, 329)
TALL_STATES = [profile_at(h) for h in np.arange(0.0, 500e3 + 1, 5e3)]


class TestAbsorbingLayers:
    def test_every_layer_of_the_default_stack(self, default_stack):
        marks, nonzero = assert_dead_layers_give_zero(*default_stack)
        # all layers above about 92 km are dead, and no live layer is
        # merely a layer whose kappa happens to be zero
        assert np.count_nonzero(~marks) == 816
        assert marks.tolist() == nonzero.tolist()

    @pytest.mark.parametrize("wing_cutoff", [DEFAULT_WING_CUTOFF, 5e6])
    def test_synthetic_states_on_the_fine_grid(self, wing_cutoff):
        marks, nonzero = assert_dead_layers_give_zero(
            SYNTHETIC, SYNTHETIC_STATES, FINE_GRID, wing_cutoff)
        assert marks.tolist() == nonzero.tolist()

    def test_a_dead_layer_below_live_ones(self):
        marks, nonzero = assert_dead_layers_give_zero(SYNTHETIC, TALL_STATES,
                                                      GAP_GRID)
        first_dead = marks.tolist().index(False)
        assert marks[0] and marks[first_dead:].any()
        # a Doppler line adds +0.0 between 32.8 and 40 half-widths, so a
        # live layer may still have no nonzero
        assert (marks & ~nonzero).any()

    def test_each_line_alone(self):
        for line in SYNTHETIC:
            marks, nonzero = assert_dead_layers_give_zero(
                LineCatalog((line,), "one-line"), TALL_STATES, FINE_GRID)
            assert marks.tolist() == nonzero.tolist(), line.f0

    def test_absent_species_keep_no_layer_live(self):
        dry = [AtmosphericState(s.altitude, s.pressure, s.temperature,
                                {k: v for k, v in s.mixing_ratios.items()
                                 if k != "H2O"})
               for s in TALL_STATES]
        marks, nonzero = assert_dead_layers_give_zero(SYNTHETIC, dry,
                                                      GAP_GRID)
        assert marks.tolist() == nonzero.tolist()

    @pytest.mark.parametrize("catalog, states, grid, wing_cutoff", [
        (SYNTHETIC, SYNTHETIC_STATES, FINE_GRID, DEFAULT_WING_CUTOFF),
        (SYNTHETIC, SYNTHETIC_STATES, FINE_GRID, 5e6),
        (SYNTHETIC, TALL_STATES, GAP_GRID, DEFAULT_WING_CUTOFF),
    ])
    def test_a_block_gives_the_kernels_windows(self, monkeypatch, catalog,
                                               states, grid, wing_cutoff):
        assert_block_gives_the_kernels_windows(monkeypatch, catalog, states,
                                               grid, wing_cutoff)

    def test_default_stack_block_gives_the_kernels_windows(
            self, monkeypatch, default_stack):
        assert_block_gives_the_kernels_windows(monkeypatch, *default_stack)
        # in blocks of 3 layers, the last one short
        monkeypatch.setattr(absorption_module, "_BLOCK_PAIRS",
                            3 * len(default_stack[0]))
        assert_block_gives_the_kernels_windows(monkeypatch, *default_stack)

    def test_blocks_do_not_change_the_marks(self, monkeypatch,
                                            default_stack):
        marks = []
        for rows in (1000, 3):   # one block; blocks of 3, the last one short
            monkeypatch.setattr(absorption_module, "_BLOCK_PAIRS",
                                rows * len(default_stack[0]))
            marks.append(absorbing_layers(*default_stack).tolist())
        assert marks[0] == marks[1]

    def test_no_states_and_no_lines(self):
        assert absorbing_layers(SYNTHETIC, [], FINE_GRID).shape == (0,)
        empty = LineCatalog((), "empty")
        assert not absorbing_layers(empty, SYNTHETIC_STATES, FINE_GRID).any()


class TestKernelErrors:
    """Errors of a line's intensity or width come only from lines with a
    grid point in their window, since only those lines contribute; a
    collision width that is not positive is the exception, refused for any
    line (``test_underflowed_collision_width_names_the_line``)."""

    def test_temperature_out_of_fit_past_the_wing_cutoff(self, sample_line):
        cat = LineCatalog((sample_line,), "one-line")
        hot = AtmosphericState(0.0, P0, 3200.0, {"H2O": 0.0078})
        f0 = sample_line.nu0 * CM
        with pytest.raises(InvalidRange, match=r"T = 3200.0 K outside"):
            absorption_coefficient(cat, hot, np.array([f0, f0 + 1e9]))
        beyond_wing = np.array([f0 + 800e9, f0 + 801e9])
        kappa = absorption_coefficient(cat, hot, beyond_wing).kappa
        assert not kappa.any()

    def test_temperature_out_of_fit_outside_the_doppler_window(
            self, sample_line):
        cat = LineCatalog((sample_line,), "one-line")
        hot = AtmosphericState(0.0, 1e-3, 3200.0, {"H2O": 0.01})
        f0 = sample_line.nu0 * CM
        assert DOPPLER_WINDOW * doppler_halfwidth(sample_line, 3200.0) < 1e9
        with pytest.raises(InvalidRange, match=r"T = 3200.0 K outside"):
            absorption_coefficient(cat, hot, np.array([f0, f0 + 1e6]))
        # inside the wing cutoff but past the exact Doppler window: the line
        # adds +0.0 everywhere, so it is not evaluated and cannot raise
        outside = np.array([f0 + 1e9, f0 + 2e9])
        assert not absorption_coefficient(cat, hot, outside).kappa.any()
        with pytest.raises(InvalidRange, match=r"T = 3200.0 K outside"):
            per_line_kappa(cat, hot, outside)


class TestLoneLineAndColumn:
    """A lone :class:`SpectralLine` and its entry in the catalog's columns
    give the same bits, whatever the temperature exponent."""

    @pytest.mark.parametrize("gamma_t", [-1.0, 0.0, 0.5, 1.0, 2.0])
    def test_width_intensity_and_shape(self, gamma_t):
        catalog = LineCatalog(tuple(
            dataclasses.replace(line, gamma_t=gamma_t) for line in SYNTHETIC),
            f"gamma {gamma_t}")
        for state in SYNTHETIC_STATES:
            p, t = state.pressure, state.temperature
            mu = catalog.mixing_ratios(state.mixing_ratios)
            f_c = line_center(catalog, p)
            widths = lorentz_halfwidth(catalog, p, t, mu)
            q_ratio = np.array([
                _reference_partition(line.molecule_id)
                / partition_function(line.molecule_id, t) for line in catalog])
            intensities = _scaled_intensity(catalog.S0_ref, catalog.E_lower,
                                            t, f_c, q_ratio)
            shapes = van_vleck_huber_shape(FINE_GRID, f_c[:, None],
                                           widths[:, None], t)
            for j, line in enumerate(catalog):
                width = lorentz_halfwidth(line, p, t, mu[j])
                assert np.float64(width).tobytes() == widths[j].tobytes()
                assert (np.float64(line_intensity(line, t, f_c[j])).tobytes()
                        == intensities[j].tobytes())
                assert (van_vleck_huber_shape(FINE_GRID, f_c[j], width,
                                              t).tobytes()
                        == shapes[j].tobytes())
        assert_same_bytes(catalog, SYNTHETIC_STATES, FINE_GRID)


class TestNoPerElementCalls:
    def test_the_kernel_calls_no_scalar_math(self, monkeypatch,
                                             default_scenario):
        catalog = dense_catalog(random.Random(20260808), 800)
        survey = make_grid(100e9, 400e9, 1e9)
        grid = np.union1d(survey, default_scenario.transceiver.band)
        states = [layer.state for layer in build_layers(0.0, 11e3, 500.0)]
        calls = []
        for module, name in ((math, "exp"), (math, "expm1"), (math, "tanh"),
                             (operator, "pow")):
            def spy(*args, _function=getattr(module, name), _name=name):
                calls.append(_name)
                return _function(*args)
            monkeypatch.setattr(module, name, spy)
        assert absorbing_layers(catalog, states, grid).all()
        kappas = [absorption_coefficient(catalog, s, grid).kappa
                  for s in states]
        monkeypatch.undo()
        assert calls == []
        assert all(kappa.any() for kappa in kappas)
