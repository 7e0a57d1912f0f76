"""Line-by-line molecular absorption coefficients.

For each catalog line the engine computes the pressure-shifted resonance
frequency, the pressure (Lorentz) and thermal (Doppler) half-widths, the
temperature-scaled line intensity, and a line-shape value chosen dynamically:
a pressure-broadened shape when collisions dominate, the Doppler Gaussian
when thermal motion dominates, and the Voigt convolution in between. The
per-line contributions N_i S_i(T) F_i(f) are summed over a frequency grid.

Catalog quantities stay in their native units (1/cm, 1/cm per atm); every
public function returns SI.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import wofz

from .atmosphere import AtmosphericState
from .catalog import (
    LineCatalog,
    LineColumns,
    MOLECULE_NAMES,
    SpectralLine,
)
from .constants import (
    AVOGADRO,
    BOLTZMANN,
    GAS_CONSTANT,
    INTENSITY_CM_TO_SI,
    PLANCK,
    SPEED_OF_LIGHT,
    STANDARD_PRESSURE,
    STANDARD_TEMPERATURE,
)
from .errors import TemperatureOutOfFitRange, UnknownSpecies, UnknownSpeciesMass

_LN2 = math.log(2.0)
_WAVENUMBER_TO_HZ = 100.0 * SPEED_OF_LIGHT

DEFAULT_WING_CUTOFF = 750e9  # Hz, contributions farther from line center drop

# Doppler half-widths from line center beyond which exp(-ln2 x^2) is exactly
# 0.0 in double precision (it underflows past |x| of about 32.8).
DOPPLER_WINDOW = 40.0

# Half-width ratio beyond which a single broadening mechanism dominates and
# the Voigt convolution is skipped in favor of the dominant shape.
SHAPE_SELECTION_RATIO = 5.0

# Line-layer pairs that :func:`absorbing_layers` evaluates at once. A block's
# arrays and pow operands then stay well under a megabyte; on the default
# E2S stack larger and smaller blocks were both slower.
_BLOCK_PAIRS = 1 << 12


def line_center(line: SpectralLine | LineColumns, p: float):
    """Pressure-shifted resonance frequency in Hz.

    This and the half-widths take one :class:`SpectralLine` or a catalog's
    :class:`LineColumns`, which gives an array over every line.
    """
    return (line.nu0 + line.delta_air * (p / STANDARD_PRESSURE)) * _WAVENUMBER_TO_HZ


def lorentz_halfwidth(line: SpectralLine | LineColumns, p: float, t: float,
                      mu_i):
    """Collision-broadened half-width in Hz.

    ``mu_i`` is the volume mixing ratio of the line's species; it weights
    self- against foreign-broadening. The catalog's temperature exponent
    applies to the pressure broadening only.
    """
    alpha = ((1.0 - mu_i) * line.alpha_air + mu_i * line.alpha_self)
    alpha *= (p / STANDARD_PRESSURE)
    alpha *= _libm_pow(STANDARD_TEMPERATURE / t, line.gamma_t)
    return alpha * _WAVENUMBER_TO_HZ


def _libm_pow(base, exponent):
    """``base ** exponent``, element-wise through the C library's pow.

    Either argument may be an array; they broadcast. numpy's power differs
    from it in the last bit on some inputs.
    """
    if isinstance(base, np.ndarray) or isinstance(exponent, np.ndarray):
        b, e = np.broadcast_arrays(base, exponent)
        return np.array([x ** y for x, y in zip(b.ravel().tolist(),
                                                e.ravel().tolist())],
                        dtype=float).reshape(b.shape)
    return base ** exponent


def doppler_halfwidth(line: SpectralLine | LineColumns, t: float):
    """Thermal half-width at half maximum in Hz.

    A :class:`SpectralLine` of unknown molar mass raises
    :class:`UnknownSpeciesMass`; in :class:`LineColumns` its width is NaN.
    """
    return (line.f0 / SPEED_OF_LIGHT) * np.sqrt(
        2.0 * _LN2 * BOLTZMANN * t / line.mass)


def lorentz_shape(df, alpha_l: float):
    """Lorentz profile evaluated at an offset from the resonance, 1/Hz."""
    return (alpha_l / math.pi) / (df * df + alpha_l * alpha_l)


def van_vleck_huber_shape(f, f_c: float, alpha_l: float, t: float):
    """Collision shape with radiation-field (far-wing) adjustments, 1/Hz."""
    half_quantum = PLANCK / (2.0 * BOLTZMANN * t)
    prefactor = (f / f_c) * np.tanh(half_quantum * f) / math.tanh(
        half_quantum * f_c)
    return prefactor * (lorentz_shape(f - f_c, alpha_l)
                        + lorentz_shape(f + f_c, alpha_l))


def doppler_shape(f, f_c: float, alpha_d: float):
    """Thermal Gaussian of half-width ``alpha_d``, 1/Hz."""
    x = (f - f_c) / alpha_d
    return math.sqrt(_LN2 / math.pi) / alpha_d * np.exp(-_LN2 * x * x)


def voigt_shape(f, f_c: float, alpha_l: float, alpha_d: float):
    """Voigt profile, the convolution of Lorentz and Doppler shapes, 1/Hz.

    Evaluated through the Faddeeva function; relative error is far below
    the 1e-4 contract checked against direct quadrature in the test suite.
    """
    scale = math.sqrt(_LN2) / alpha_d
    z = (np.asarray(f, dtype=float) - f_c + 1j * alpha_l) * scale
    return wofz(z).real * (scale / math.sqrt(math.pi))


def _dominance(alpha_l, alpha_d):
    """Whether collisions, and whether thermal motion, dominate the width.

    Element-wise on arrays of half-widths; at most one of the two holds.
    """
    return (alpha_l > SHAPE_SELECTION_RATIO * alpha_d,
            alpha_d > SHAPE_SELECTION_RATIO * alpha_l)


@lru_cache(maxsize=1)
def _partition_fits():
    path = Path(__file__).parent / "data" / "partition_fits.csv"
    fits: dict[str, list[tuple[float, float, tuple[float, ...]]]] = {}
    with path.open(newline="") as fh:
        for row in csv.DictReader(r for r in fh if not r.startswith("#")):
            coeffs = tuple(float(row[f"c{i}"]) for i in range(4))
            fits.setdefault(row["species"], []).append(
                (float(row["t_low"]), float(row["t_high"]), coeffs))
    for pieces in fits.values():
        pieces.sort()
    return fits


def partition_function(species, t: float) -> float:
    """Total internal partition sum Q(T) from bundled polynomial fits.

    ``species`` is a molecule id or name. Valid from 70 K to 3000 K.
    """
    name = MOLECULE_NAMES.get(species, species)
    fits = _partition_fits()
    if name not in fits:
        raise UnknownSpecies(f"no partition data for species {species!r}")
    if not 70.0 <= t <= 3000.0:
        raise TemperatureOutOfFitRange(
            f"T = {t} K outside the fitted range [70, 3000] K")
    for t_low, t_high, c in fits[name]:
        if t_low <= t <= t_high:
            return c[0] + t * (c[1] + t * (c[2] + t * c[3]))
    raise TemperatureOutOfFitRange(f"T = {t} K not covered by any fit piece")


@lru_cache(maxsize=None)
def _reference_partition(molecule_id: int) -> float:
    """Q(296 K) of a species, computed once per species."""
    return partition_function(molecule_id, STANDARD_TEMPERATURE)


def line_intensity(line: SpectralLine, t: float,
                   f_c: float | None = None) -> float:
    """Line intensity scaled from the 296 K reference to ``t``.

    Same units as the catalog intensity. The Boltzmann factor uses the
    lower-state energy in 1/cm, hence the hc conversion; the stimulated
    emission factor uses the resonance frequency (the unshifted center by
    default).
    """
    if f_c is None:
        f_c = line.f0
    t0 = STANDARD_TEMPERATURE
    q_ratio = (_reference_partition(line.molecule_id)
               / partition_function(line.molecule_id, t))
    hc_e_lower = PLANCK * SPEED_OF_LIGHT * 100.0 * line.E_lower
    boltzmann = math.exp(-hc_e_lower / (BOLTZMANN * t)) / math.exp(
        -hc_e_lower / (BOLTZMANN * t0))
    stimulated = (-math.expm1(-PLANCK * f_c / (BOLTZMANN * t))) / (
        -math.expm1(-PLANCK * f_c / (BOLTZMANN * t0)))
    return line.S0_ref * q_ratio * boltzmann * stimulated


def number_density(p: float, t: float, mu_i: float) -> float:
    """Molecules per cubic meter of one species by the ideal gas law."""
    return p * mu_i * AVOGADRO / (GAS_CONSTANT * t)


class LineWindows(NamedTuple):
    """Per-line quantities of :func:`_line_windows`, each an array over the
    catalog's lines, or over a block of layers by the catalog's lines."""

    f_c: np.ndarray            # Hz, pressure-shifted center
    alpha_l: np.ndarray        # Hz, Lorentz half-width
    alpha_d: np.ndarray        # Hz, Doppler half-width
    collisional: np.ndarray    # bool, collision-shaped
    thermal: np.ndarray        # bool, Doppler-shaped
    lo: np.ndarray             # first grid index of the window
    hi: np.ndarray             # one past its last grid index
    live: np.ndarray           # bool, a present species with a window point


def _line_windows(columns: LineColumns, p, t, mu, grid: np.ndarray,
                 wing_cutoff: float) -> LineWindows:
    """Each line's center, half-widths, shape branch and window on ``grid``.

    ``p`` and ``t`` are one layer's pressure and temperature, with ``mu``
    the mixing ratio of each line; or columns of them over a block of
    layers, with one row of ``mu`` per layer. The window is ``wing_cutoff``
    each side of the center, and no more than ``DOPPLER_WINDOW`` half-widths
    for a Doppler-shaped line. Element by element the result is the same
    whether a layer is passed alone or in a block.
    """
    f_c = line_center(columns, p)
    alpha_l = lorentz_halfwidth(columns, p, t, mu)
    alpha_d = doppler_halfwidth(columns, t)
    collisional, thermal = _dominance(alpha_l, alpha_d)
    half = np.where(thermal, np.minimum(wing_cutoff, DOPPLER_WINDOW * alpha_d),
                    wing_cutoff)
    lo = np.searchsorted(grid, f_c - half, "left")
    hi = np.searchsorted(grid, f_c + half, "right")
    return LineWindows(f_c, alpha_l, alpha_d, collisional, thermal, lo, hi,
                       (lo < hi) & ~(mu <= 0.0))


def absorbing_layers(catalog: LineCatalog,
                     states: Sequence[AtmosphericState], grid: np.ndarray,
                     wing_cutoff: float = DEFAULT_WING_CUTOFF) -> np.ndarray:
    """Which ``states`` have a live line on ``grid``, one bool per state.

    A line is live as :func:`absorption_coefficient` decides it, through the
    same :func:`_line_windows`; a state without one has kappa +0.0 at every
    grid point. The states are taken in blocks of at most
    ``_BLOCK_PAIRS`` line-layer pairs, so memory does not grow with the
    number of states times the number of lines.
    """
    columns = catalog.columns
    marks = np.zeros(len(states), dtype=bool)
    rows = max(1, _BLOCK_PAIRS // max(1, len(catalog)))
    for start in range(0, len(states), rows):
        block = states[start:start + rows]
        p = np.array([[s.pressure] for s in block])
        t = np.array([[s.temperature] for s in block])
        mu = np.array([columns.mixing_ratios(s.mixing_ratios) for s in block],
                      dtype=float).reshape(len(block), len(catalog))
        windows = _line_windows(columns, p, t, mu, grid, wing_cutoff)
        marks[start:start + len(block)] = windows.live.any(axis=1)
    return marks


@dataclass(frozen=True)
class AbsorptionSpectrum:
    """Absorption coefficient on a frequency grid for one atmospheric state."""

    grid: np.ndarray     # Hz, strictly increasing
    kappa: np.ndarray    # 1/m, nonnegative
    state: AtmosphericState


def absorption_coefficient(
    catalog: LineCatalog,
    state: AtmosphericState,
    grid,
    wing_cutoff: float = DEFAULT_WING_CUTOFF,
) -> AbsorptionSpectrum:
    """Summed absorption coefficient kappa(f) in 1/m over a frequency grid.

    Each line contributes N_i S_i(T) F_i(f) inside ``wing_cutoff`` of its
    center, where N_i is the ideal-gas number density of the species scaled
    by the isotopologue abundance. A Doppler-shaped line contributes only
    within ``DOPPLER_WINDOW`` half-widths, beyond which its Gaussian is
    exactly 0.0 in double precision. Lines of species absent from the
    state's mixing ratios contribute nothing. Centers, half-widths, shape
    kinds and windows are computed for all lines at once; intensities and
    shapes only for lines with a grid point in their window, whose errors
    (:class:`UnknownSpeciesMass`, :class:`TemperatureOutOfFitRange`) are
    raised. The catalog is only read, and the summation order over lines is
    fixed by the catalog ordering.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")

    p, t = state.pressure, state.temperature
    columns = catalog.columns
    mu = columns.mixing_ratios(state.mixing_ratios)
    w = _line_windows(columns, p, t, mu, grid, wing_cutoff)
    live = np.flatnonzero(w.live)

    kappa = np.zeros_like(grid)
    for i, start, stop, f_ci, a_l, a_d, mu_i in zip(
            live.tolist(), w.lo[live].tolist(), w.hi[live].tolist(),
            w.f_c[live].tolist(), w.alpha_l[live].tolist(),
            w.alpha_d[live].tolist(), mu[live].tolist()):
        line = catalog.lines[i]
        if math.isnan(columns.mass[i]):
            raise UnknownSpeciesMass(
                f"no molar mass for molecule {line.molecule_id}")
        strength = (number_density(p, t, mu_i) * line.abundance
                    * line_intensity(line, t, f_ci) * INTENSITY_CM_TO_SI)
        window = grid[start:stop]
        if w.collisional[i]:
            shape = van_vleck_huber_shape(window, f_ci, a_l, t)
        elif w.thermal[i]:
            shape = doppler_shape(window, f_ci, a_d)
        else:
            shape = voigt_shape(window, f_ci, a_l, a_d)
        kappa[start:stop] += strength * shape
    return AbsorptionSpectrum(grid=grid, kappa=kappa, state=state)
