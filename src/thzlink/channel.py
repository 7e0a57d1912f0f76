"""Per-frequency channel losses: spreading, layered molecular transmittance,
aperture antenna gains, and rain/cloud attenuation.

Rain and cloud specific-attenuation coefficients come from the bundled
tables ``rain_p838.csv`` and ``cloud_p840.csv``, interpolated log-log in
frequency. Queries beyond a table's formal validity are clamped or
computed and flagged as extrapolated rather than refused, since weather
loss above the models' formal band limits is still of qualitative interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .absorption import AbsorptionSpectrum
from .constants import SPEED_OF_LIGHT, data_table
from .errors import ConfigError, InvalidRange

CLOUD_VALID_MAX_GHZ = 200.0


@dataclass(frozen=True)
class AntennaConfig:
    """Circular-aperture dish described by diameter and efficiency."""

    diameter: float          # m
    efficiency: float = 1.0  # (0, 1]

    def __post_init__(self):
        # the comparisons are false for NaN, so they also reject it; the
        # keys drop the tx_ or rx_ prefix of the end the dish sits at
        if not 0.0 < self.diameter < math.inf:
            raise ConfigError(f"must be positive and finite, got "
                              f"{self.diameter:g}", field="dish_diameter_m")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError(f"must be in (0, 1], got {self.efficiency:g}",
                              field="dish_efficiency")


class Attenuation(NamedTuple):
    """Attenuation in dB at each frequency, and which frequencies lie beyond
    the table's formal range."""

    db: np.ndarray
    extrapolated: np.ndarray   # bool


def spreading_loss(f, r: float):
    """Power gain (c / 4 pi f r)^2 of an isotropic pair at distance r."""
    return (SPEED_OF_LIGHT / (4.0 * math.pi * np.asarray(f, dtype=float) * r)) ** 2


def dish_gain(antenna: AntennaConfig, f):
    """Boresight gain of a fixed circular aperture, dimensionless."""
    f = np.asarray(f, dtype=float)
    return antenna.efficiency * (
        math.pi * antenna.diameter * f / SPEED_OF_LIGHT) ** 2


def transmittance(
    grid,
    segments: Sequence[tuple[int, float]],
    layer_spectra: Mapping[int, AbsorptionSpectrum],
):
    """Beer-Lambert transmittance over a segmented path, in (0, 1].

    ``segments`` pairs layer indices with path lengths; ``layer_spectra``
    maps the same indices to absorption spectra on the same grid.
    """
    grid = np.asarray(grid, dtype=float)
    kappa = np.empty((len(segments), grid.size))
    for row, (index, _) in zip(kappa, segments):
        spectrum = layer_spectra.get(index)
        if spectrum is None:
            raise InvalidRange(f"no spectrum for layer {index}")
        if not np.array_equal(spectrum.grid, grid):
            raise InvalidRange(
                f"layer {index} spectrum grid differs from the path grid")
        row[:] = spectrum.kappa
    return np.exp(-_optical_depth(kappa, [length for _, length in segments]))


def _optical_depth(layers: np.ndarray, lengths) -> np.ndarray:
    """Scale rows of kappa (1/m) by ``lengths`` (m) in place; sum in order."""
    layers *= np.reshape(lengths, (-1, 1))
    return sum(layers, np.zeros(layers.shape[1]))


@lru_cache(maxsize=1)
def _rain_table():
    """Table frequencies in GHz, and the logs of frequency, k and alpha."""
    table = data_table("rain_p838.csv")
    freqs, ks, alphas = (np.array([float(v) for v in table[name]])
                         for name in ("freq_ghz", "k", "alpha"))
    return freqs, np.log(freqs), np.log(ks), np.log(alphas)


def _no_attenuation(f_ghz) -> Attenuation:
    return Attenuation(np.zeros_like(f_ghz), np.zeros(f_ghz.shape, bool))


def rain_attenuation(f, rain_rate: float, path: float) -> Attenuation:
    """Rain attenuation A = k R^alpha * path over ``path`` meters, in dB, at
    each frequency of the array ``f`` (Hz).

    Coefficients are log-log interpolated from the bundled table covering
    1-1000 GHz; outside that band the edge value is used and the frequency
    is flagged extrapolated.
    """
    if not 0.0 <= rain_rate < math.inf:
        raise InvalidRange("rain_rate must be nonnegative and finite")
    f_ghz = np.asarray(f, dtype=float) / 1e9
    if rain_rate == 0.0 or path <= 0.0:
        return _no_attenuation(f_ghz)
    freqs, log_freqs, log_ks, log_alphas = _rain_table()
    extrapolated = ~((freqs[0] <= f_ghz) & (f_ghz <= freqs[-1]))
    log_f = np.log(np.clip(f_ghz, freqs[0], freqs[-1]))
    k = np.exp(np.interp(log_f, log_freqs, log_ks))
    alpha = np.exp(np.interp(log_f, log_freqs, log_alphas))
    with np.errstate(over="ignore"):  # a huge rate's power is an inf loss
        db = k * rain_rate ** alpha * (path / 1000.0)
    return Attenuation(db, extrapolated)


@lru_cache(maxsize=1)
def _cloud_table():
    """Table frequencies in GHz and their logs, the temperatures in K, and
    the logs of K_l with one column per temperature."""
    table = data_table("cloud_p840.csv")
    temps = np.array([float(name[3:-1]) for name in list(table)[1:]])
    data = np.array([list(map(float, row)) for row in zip(*table.values())])
    return data[:, 0], np.log(data[:, 0]), temps, np.log(data[:, 1:])


def cloud_attenuation(f, density: float, path: float,
                      t: float) -> Attenuation:
    """Cloud/fog attenuation over ``path`` meters of droplets, in dB, at each
    frequency of the array ``f`` (Hz).

    Rayleigh-regime specific attenuation K_l(f, T) is interpolated log-log
    in frequency and linearly in temperature from the bundled table. The
    underlying model is formally valid up to 200 GHz; higher frequencies
    get the computed value and are flagged extrapolated.
    """
    if not 0.0 <= density < math.inf:
        raise InvalidRange("cloud density must be nonnegative and finite")
    f_ghz = np.asarray(f, dtype=float) / 1e9
    if density == 0.0 or path <= 0.0:
        return _no_attenuation(f_ghz)
    freqs, log_freqs, temps, log_kl = _cloud_table()
    extrapolated = (f_ghz > CLOUD_VALID_MAX_GHZ) | (f_ghz < freqs[0])
    log_f = np.log(np.clip(f_ghz, freqs[0], freqs[-1]))

    def column(j: int) -> np.ndarray:
        return np.exp(np.interp(log_f, log_freqs, log_kl[:, j]))

    # np.interp(t, temps, row) at every frequency: the edge column outside
    # the table, else its slope formula on the one bracketing pair. At a
    # table temperature the formula adds 0.0 to the finite column, and a
    # NaN carries through.
    j = min(int(np.searchsorted(temps, t, side="right")), temps.size - 1) - 1
    if j < 0:
        coefficient = column(0)
    elif t >= temps[-1]:
        coefficient = column(-1)
    else:
        low = column(j)
        slope = (column(j + 1) - low) / (temps[j + 1] - temps[j])
        coefficient = slope * (t - temps[j]) + low
    return Attenuation(coefficient * density * (path / 1000.0), extrapolated)


def total_path_loss(
    grid,
    r: float,
    tau,
    g_tx=1.0,
    g_rx=1.0,
    rain_db: float = 0.0,
    cloud_db: float = 0.0,
):
    """Total linear path loss (>= 1): spreading, absorption, weather, gains.

    With isotropic antennas, full transmittance, and no weather this reduces
    to the bare free-space loss (4 pi r f / c)^2.
    """
    grid = np.asarray(grid, dtype=float)
    weather = 10.0 ** ((rain_db + cloud_db) / 10.0)
    # tau underflows to 0 at opaque line centers; the loss is then inf
    with np.errstate(divide="ignore"):
        return weather / (spreading_loss(grid, r) * np.asarray(tau)
                          * np.asarray(g_tx) * np.asarray(g_rx))
