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
from .errors import InvalidRange, NonFiniteAbsorption

_LN2 = math.log(2.0)
_WAVENUMBER_TO_HZ = 100.0 * SPEED_OF_LIGHT

DEFAULT_WING_CUTOFF = 750e9  # Hz, contributions farther from line center drop

# Raised by any change that may move a bit of kappa, so that spectra cached on
# disk by an older kernel miss instead of being served.
KERNEL_VERSION = 3

# Doppler half-widths from line center beyond which exp(-ln2 x^2) is exactly
# 0.0 in double precision (it underflows past |x| of about 32.8).
DOPPLER_WINDOW = 40.0

# Half-width ratio beyond which a single broadening mechanism dominates and
# the Voigt convolution is skipped in favor of the dominant shape.
SHAPE_SELECTION_RATIO = 5.0

# Line-layer pairs that :func:`absorbing_layers` evaluates at once. A block's
# arrays then stay well under a megabyte; on the default E2S stack larger and
# smaller blocks were both slower.
_BLOCK_PAIRS = 1 << 12

# Elements, lines times grid points, of one block of line shapes in
# :func:`absorption_coefficient`. Each of a block's temporaries then stays
# near 128 kB, in cache; a line whose window alone is wider is a block of
# its own.
_BLOCK_ELEMENTS = 1 << 14


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
    # not np.power, which takes sqrt for a scalar exponent of 0.5 and so
    # would part a lone line from its column in the last bit
    alpha *= np.exp(line.gamma_t * np.log(STANDARD_TEMPERATURE / t))
    return alpha * _WAVENUMBER_TO_HZ


def doppler_halfwidth(line: SpectralLine | LineColumns, t: float):
    """Thermal half-width at half maximum in Hz."""
    return (line.f0 / SPEED_OF_LIGHT) * np.sqrt(
        2.0 * _LN2 * BOLTZMANN * t / line.mass)


def lorentz_shape(df, alpha_l: float):
    """Lorentz profile evaluated at an offset from the resonance, 1/Hz."""
    return (alpha_l / math.pi) / (df * df + alpha_l * alpha_l)


def _vvh_shape(f, tanh_f, f_c, tanh_fc, alpha_l):
    """Collision shape with radiation-field (far-wing) adjustments, 1/Hz,
    given tanh(hf/2kT) at ``f`` and at ``f_c``. Centers and widths may be a
    column, one row per line."""
    prefactor = (f / f_c) * tanh_f / tanh_fc
    return prefactor * (lorentz_shape(f - f_c, alpha_l)
                        + lorentz_shape(f + f_c, alpha_l))


def doppler_shape(f, f_c: float, alpha_d: float):
    """Thermal Gaussian of half-width ``alpha_d``, 1/Hz.

    This and :func:`voigt_shape` also take a column of centers and widths,
    giving one row per line.
    """
    x = (f - f_c) / alpha_d
    return math.sqrt(_LN2 / math.pi) / alpha_d * np.exp(-_LN2 * x * x)


def voigt_shape(f, f_c: float, alpha_l: float, alpha_d: float):
    """Voigt profile, the convolution of Lorentz and Doppler shapes, 1/Hz.

    Evaluated through the real part of the Faddeeva function w(x + iy), at
    x = (f - f_c) sqrt(ln 2)/alpha_d and y = alpha_l sqrt(ln 2)/alpha_d, by
    :func:`_faddeeva_re`; its relative error is far below the 1e-4 contract
    checked against direct quadrature in the test suite. Each element's
    value depends on its own arguments alone, so a scalar ``f`` gives the
    bytes of its entry in a column of lines.
    """
    scale = math.sqrt(_LN2) / alpha_d
    x = np.asarray(f, dtype=float) - f_c
    x *= scale
    shape = _faddeeva_re(x, alpha_l * scale)
    shape *= scale / math.sqrt(math.pi)
    return shape


# 1/sqrt(pi) as the Faddeeva package (Johnson, MIT) writes it; with its
# branches and operation order outside the core, the wings get its bits.
_ISPI = 0.56418958354775628694807945156

# Elements of Re w that :func:`_faddeeva_re` recomputes off its two-term form
# at once, so that their temporaries stay small however many there are.
_SPECIAL_SLICE = 1 << 12


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _faddeeva_re(x, y):
    """Re w(x + iy), for arrays or scalars ``x`` and ``y`` > 0 that
    broadcast together.

    Away from the core |x| <= 6 it takes the Faddeeva package's branches
    and operation order: the one-term form for |x| + y > 1e7, the two-term
    form for |x| + y > 4000, else the continued fraction of Poppe & Wijers
    (ACM TOMS 16 (1990) 38) with the package's term count. The core takes
    Weideman's N = 32 rational form (SIAM J. Numer. Anal. 31 (1994) 1497),
    within 1e-10 relative for y in [0.16, 4.2], the Voigt branch's range.
    The two-term form is computed everywhere, its overflow unwarned, and
    the few other elements, in a row of lines runs at its ends and around
    its center, are recomputed by their region's form in slices.
    """
    s = np.abs(x) + y
    if s.ndim == 0:
        return _faddeeva_re(np.atleast_1d(x), y)[0]
    if np.shape(x) != s.shape:
        x = np.broadcast_to(x, s.shape)
    regions = []
    if not s.max() <= 1e7:
        regions.append((np.flatnonzero(s > 1e7), _faddeeva_re_far))
    if not s.min() > 4000.0:
        near = np.flatnonzero(s <= 4000.0)
        wing = np.abs(x.flat[near]) > 6.0
        regions += [(near[wing], _faddeeva_re_fraction),
                    (near[~wing], _weideman_re)]
    del s
    dr = x * x
    dr -= y * y
    dr -= 0.5
    di = x * (2.0 * y)       # the package's 2*x*y: doubling is exact
    re = dr * dr
    re += di * di
    np.divide(_ISPI, re, out=re)
    di *= x
    dr *= y
    di -= dr
    re *= di
    del dr, di
    for k, form in regions:
        y_at = np.broadcast_to(y, re.shape).flat
        for start in range(0, k.size, _SPECIAL_SLICE):
            j = k[start:start + _SPECIAL_SLICE]
            re.flat[j] = form(x.flat[j], y_at[j])
    return re


def _faddeeva_re_far(x, y):
    """Re w(x + iy) of 1-D ``x`` and ``y`` whose |x| + y is above 1e7, by
    the one-term form i/(sqrt(pi) z)."""
    yax = y / x
    re = (_ISPI / (x + yax * y)) * yax
    steep = ~(np.abs(x) > y)
    if steep.any():
        xya = x[steep] / y[steep]
        re[steep] = _ISPI / (xya * x[steep] + y[steep])
    return re


def _faddeeva_re_fraction(x, y):
    """Re w(x + iy) of 1-D ``x`` and ``y`` whose |x| + y is at most 4000 and
    |x| above 6, by the continued fraction."""
    # w = i/(sqrt(pi) v), v = z - nu/v for nu from each element's first
    # down to 0.5 in halves, and v = z before; the elements run together
    # from the largest first nu, each joining once nu reaches its own
    first = np.floor(3.9 + 11.398 / (0.08254 * abs(x) + 0.1421 * y + 0.2023))
    first = 0.5 * (first - 1.0)
    wr, wi = x.copy(), y.copy()
    nu = first.max()
    while nu > 0.4:
        run = first >= nu
        d = nu / (wr * wr + wi * wi)
        np.subtract(x, wr * d, out=wr, where=run)
        np.add(y, wi * d, out=wi, where=run)
        nu -= 0.5
    return (_ISPI / (wr * wr + wi * wi)) * wi


@lru_cache(maxsize=1)
def _weideman_coefficients():
    """Weideman's L and his N = 32 coefficients, highest power first."""
    n = 32
    big_l = math.sqrt(n / math.sqrt(2.0))
    t = big_l * np.tan(np.arange(1 - 2 * n, 2 * n) * (math.pi / (4 * n)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (big_l * big_l + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (4 * n)
    return big_l, a[n:0:-1].tolist()


def _weideman_re(x, y):
    """Re w(x + iy) by Weideman's w = 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi)
    (L - iz)), Z = (L + iz)/(L - iz), in real arithmetic, so that every
    element takes the same operations wherever it lies in its array."""
    big_l, coefficients = _weideman_coefficients()
    u = big_l + y                  # L - iz = u - ix
    q = u * u + x * x
    zr = (big_l * big_l - y * y - x * x) / q
    zi = (2.0 * big_l) * x / q
    pr, pi = np.full_like(x, coefficients[0]), np.zeros_like(x)
    for c in coefficients[1:]:
        pr, pi = pr * zr - pi * zi + c, pr * zi + pi * zr
    # 1/(L - iz)^2 = (u^2 - x^2 + 2iux)/q^2
    return (2.0 * (pr * (u * u - x * x) - pi * (2.0 * u * x)) / q
            + _ISPI * u) / q


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

    ``species`` is a molecule id or name. Valid from 70 K to 3000 K, which
    each species' pieces cover with no gap.
    """
    name = MOLECULE_NAMES.get(species, species)
    fits = _partition_fits()
    if name not in fits:
        raise InvalidRange(f"no partition data for species {species!r}")
    if not 70.0 <= t <= 3000.0:
        raise InvalidRange(f"T = {t} K outside the fitted range [70, 3000] K")
    c = next(c for _, t_high, c in fits[name] if t <= t_high)
    return c[0] + t * (c[1] + t * (c[2] + t * c[3]))


@lru_cache(maxsize=None)
def _reference_partition(species) -> float:
    """Q(296 K) of a species, a molecule id or name, computed once each."""
    return partition_function(species, STANDARD_TEMPERATURE)


def _scaled_intensity(s0_ref, e_lower, t: float, f_c, q_ratio):
    """Line intensity scaled from the 296 K reference to ``t``, given
    Q(296 K) / Q(t) as ``q_ratio``. The line's values may be arrays over
    lines.

    Same units as the catalog intensity. The Boltzmann factor uses the
    lower-state energy in 1/cm, hence the hc conversion; the stimulated
    emission factor uses the resonance frequency ``f_c``.
    """
    t0 = STANDARD_TEMPERATURE
    hc_e_lower = PLANCK * SPEED_OF_LIGHT * 100.0 * e_lower
    boltzmann = (np.exp(-hc_e_lower / (BOLTZMANN * t))
                 / np.exp(-hc_e_lower / (BOLTZMANN * t0)))
    stimulated = (-np.expm1(-PLANCK * f_c / (BOLTZMANN * t))) / (
        -np.expm1(-PLANCK * f_c / (BOLTZMANN * t0)))
    return s0_ref * q_ratio * boltzmann * stimulated


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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def absorbing_layers(catalog: LineCatalog,
                     states: Sequence[AtmosphericState], grid: np.ndarray,
                     wing_cutoff: float = DEFAULT_WING_CUTOFF) -> np.ndarray:
    """Which ``states`` have a live line on ``grid``, one bool per state.

    A line is live as :func:`absorption_coefficient` decides it, through the
    same :func:`_line_windows`; a state without one has kappa +0.0 at every
    grid point. The states are taken in blocks of at most
    ``_BLOCK_PAIRS`` line-layer pairs, so memory does not grow with the
    number of states times the number of lines. A line whose collision
    half-width is not positive raises, live or not, as in the kernel.
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
        _refuse_unbroadened(catalog, block, windows.alpha_l, mu)
        marks[start:start + len(block)] = windows.live.any(axis=1)
    return marks


@dataclass(frozen=True)
class AbsorptionSpectrum:
    """Absorption coefficient on a frequency grid for one atmospheric state."""

    grid: np.ndarray     # Hz, strictly increasing
    kappa: np.ndarray    # 1/m, nonnegative
    state: AtmosphericState


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    kinds and windows are computed for all lines at once; intensities only
    for lines with a grid point in their window, so only those raise for a
    temperature outside the partition fits, and shapes for those lines in
    blocks of consecutive lines, one array per shape kind over the block's
    grid span. A block holds at most
    ``_BLOCK_ELEMENTS`` lines times span, so memory does not grow with the
    number of lines. Each line's row is then added over its own window in
    catalog order, so every element sums in the same order as a loop over
    lines. The catalog is only read.

    Numpy's floating-point warnings are silenced here, and
    :class:`NonFiniteAbsorption` names a line instead: one of a present
    species whose collision half-width is not positive, in or out of its
    window, or else the first in catalog order whose contribution makes a
    kappa not finite, as a half-width or strength out of range does.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")

    kappa = _kappa(catalog, state, grid, wing_cutoff)
    finite = np.isfinite(kappa)
    if not finite.all():
        # Bisect for the shortest catalog prefix whose kappa is not finite at
        # the first such point. The point has the same bytes on a one-point
        # grid, and a sum once inf or NaN stays so as lines are added.
        i = int(finite.argmin())
        good, bad = 0, len(catalog)
        while bad - good > 1:
            mid = (good + bad) // 2
            prefix = LineCatalog(catalog.lines[:mid], catalog.source_id)
            if np.isfinite(_kappa(prefix, state, grid[i:i + 1],
                                  wing_cutoff)[0]):
                good = mid
            else:
                bad = mid
        raise _blame(catalog.lines[good], state,
                     f"makes kappa {kappa[i]} at {grid[i]:.10g} Hz")
    return AbsorptionSpectrum(grid=grid, kappa=kappa, state=state)


def _blame(line: SpectralLine, state: AtmosphericState, what: str):
    """A :class:`NonFiniteAbsorption` naming ``line``, ``what``, p and T."""
    return NonFiniteAbsorption(
        f"catalog line of {MOLECULE_NAMES[line.molecule_id]} (molecule "
        f"{line.molecule_id}, isotopologue {line.isotopologue_id}) at "
        f"{line.nu0} 1/cm {what}, p = {state.pressure:.6g} Pa, "
        f"T = {state.temperature:.6g} K")


def _refuse_unbroadened(catalog: LineCatalog,
                        states: Sequence[AtmosphericState], alpha_l, mu):
    """Raise for the first line, by state then catalog order, of a species
    present in ``states`` whose collision half-width ``alpha_l`` (a row
    over the lines per state, as ``mu``) is not positive: underflowed, as
    by a far-out temperature exponent, it passes for a Doppler line."""
    unbroadened = ~(alpha_l > 0.0) & (mu > 0.0)
    if unbroadened.any():
        row, j = divmod(k := int(unbroadened.argmax()), len(catalog))
        raise _blame(catalog.lines[j], states[row],
                     f"has collision half-width {alpha_l.flat[k]:.6g} Hz")


def _kappa(catalog: LineCatalog, state: AtmosphericState, grid: np.ndarray,
           wing_cutoff: float) -> np.ndarray:
    """kappa in 1/m on a checked ``grid``, as :func:`absorption_coefficient`
    describes it."""
    p, t = state.pressure, state.temperature
    columns = catalog.columns
    mu = columns.mixing_ratios(state.mixing_ratios)
    w = _line_windows(columns, p, t, mu, grid, wing_cutoff)
    _refuse_unbroadened(catalog, (state,), w.alpha_l, mu)
    live = np.flatnonzero(w.live)
    kappa = np.zeros_like(grid)
    if live.size == 0:
        return kappa

    # columns over the live lines, one row per line
    f_c, alpha_l, alpha_d = (x[live][:, None] for x in (w.f_c, w.alpha_l,
                                                        w.alpha_d))
    strength = _strengths(columns, live, f_c[:, 0], p, t, mu[live])[:, None]
    collisional, thermal = w.collisional[live], w.thermal[live]
    if collisional.any():
        # tanh(hf/2kT) over the grid depends on the layer alone, and an
        # element's bytes do not depend on the slice it is computed in
        half_quantum = PLANCK / (2.0 * BOLTZMANN * t)
        tanh_grid = np.tanh(half_quantum * grid)
        tanh_c = np.tanh(half_quantum * f_c)
    other = ~(collisional | thermal)
    branches = [(m, np.flatnonzero(m)) for m in (collisional, thermal, other)
                if m.any()]
    lo, hi = w.lo[live].tolist(), w.hi[live].tolist()
    for start, stop, b0, b1 in _line_blocks(lo, hi):
        f = grid[b0:b1]
        own = [None] * (stop - start)   # each line's row over its window
        for branch, members in branches:
            k = members[np.searchsorted(members, start):
                        np.searchsorted(members, stop)]
            if k.size == 0:
                continue
            if branch is collisional:
                shape = _vvh_shape(f, tanh_grid[b0:b1], f_c[k], tanh_c[k],
                                   alpha_l[k])
            elif branch is thermal:
                shape = doppler_shape(f, f_c[k], alpha_d[k])
            else:
                shape = voigt_shape(f, f_c[k], alpha_l[k], alpha_d[k])
            for row, j in zip(strength[k] * shape, k.tolist()):
                own[j - start] = row[lo[j] - b0:hi[j] - b0]
        # catalog order, so each element sums as a loop over lines would
        for j, row in enumerate(own, start):
            kappa[lo[j]:hi[j]] += row
    return kappa


def _strengths(columns: LineColumns, live: np.ndarray, f_c: np.ndarray,
               p: float, t: float, mu: np.ndarray) -> np.ndarray:
    """N_i S_i(T) in SI of the lines ``live``, centered at ``f_c`` with
    mixing ratios ``mu``. Q(T) is computed once per species in catalog
    order, so a temperature outside the partition fits is raised as a loop
    over the lines would raise it."""
    species = columns.species_index[live].tolist()
    names = columns.species
    q_ratio = {s: (_reference_partition(names[s])
                   / partition_function(names[s], t))
               for s in dict.fromkeys(species)}
    intensity = _scaled_intensity(columns.S0_ref[live],
                                  columns.E_lower[live], t, f_c,
                                  np.array([q_ratio[s] for s in species]))
    return (number_density(p, t, mu) * columns.abundance[live] * intensity
            * INTENSITY_CM_TO_SI)


def _line_blocks(lo: list[int], hi: list[int]):
    """Runs of consecutive windows ``lo[j]:hi[j]`` whose line count times
    the width of their union is at most ``_BLOCK_ELEMENTS``, as
    ``(start, stop, union start, union stop)``; a window wider than that
    is a run of its own."""
    start, b0, b1 = 0, lo[0], hi[0]
    for j in range(1, len(lo)):
        u0 = lo[j] if lo[j] < b0 else b0
        u1 = hi[j] if hi[j] > b1 else b1
        if (j + 1 - start) * (u1 - u0) > _BLOCK_ELEMENTS:
            yield start, j, b0, b1
            start, u0, u1 = j, lo[j], hi[j]
        b0, b1 = u0, u1
    yield start, len(lo), b0, b1
