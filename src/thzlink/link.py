"""Receiver-side physics: sky brightness temperature, quantum-corrected
thermal noise, SNR, Shannon capacity, and modulation SNR thresholds.

The absorbing atmosphere along the path is also an emitter; its radiation
enters the receiving antenna as noise. A discrete radiative-transfer
recursion over the traversed layers (each layer's emission attenuated by
the layers nearer the receiver) gives the sky brightness temperature. The
receiver's own thermal floor rolls off at high frequency where the photon
energy exceeds the per-Hz thermal energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .constants import BOLTZMANN, PLANCK
from .errors import ConfigError, UnsupportedScheme


@dataclass(frozen=True)
class TransceiverConfig:
    tx_power: float              # W
    bandwidth: float             # Hz
    center_frequency: float      # Hz
    noise_figure: float = 0.0    # dB
    rx_temperature: float = 296.0  # K

    def __post_init__(self):
        # the comparisons are false for NaN, so they also reject it
        for key, value in (("tx_power_mw", self.tx_power),
                           ("bandwidth_ghz", self.bandwidth),
                           ("center_frequency_ghz", self.center_frequency),
                           ("rx_temperature_k", self.rx_temperature)):
            if not 0.0 < value < math.inf:
                raise ConfigError(f"must be positive and finite in SI units, "
                                  f"got {value:g}", field=key)
        density = self.tx_power / self.bandwidth
        if not 0.0 < density < math.inf:
            raise ConfigError(f"gives a transmit density of {density:g} W/Hz "
                              f"over {self.bandwidth:g} Hz; it must be finite "
                              f"and nonzero", field="tx_power_mw")
        try:
            factor = 10.0 ** (self.noise_figure / 10.0)
        except OverflowError:
            factor = math.inf
        if not 0.0 < factor < math.inf:
            raise ConfigError(
                f"must be finite and nonzero as a linear factor, got "
                f"{self.noise_figure:g} dB", field="noise_figure_db")


@dataclass(frozen=True)
class SkyPath:
    """Atmosphere seen from the receiver: layer temperatures and
    transmittances ordered nearest-to-farthest from the receiving antenna."""

    temperatures: np.ndarray        # (n_layers,), K
    transmittances: np.ndarray      # (n_layers,) or (n_layers, n_freq)
    # K, taken where the path is transparent; None is the plain mean of
    # ``temperatures``. A path without its non-absorbing layers passes the
    # mean over every layer, so leaving them out changes nothing.
    transparent_temperature: float | None = None


def _normalize_sky(t_profile, tau_path):
    """Shape per-layer temperatures (n,) and transmittances (n, n_freq).

    Accepts scalars (single uniform layer), per-layer 1-D transmittances,
    or a (n_layers, n_freq) array. Returns the arrays plus a flag telling
    whether the caller passed frequency-free (scalar-per-layer) input.
    """
    temps = np.atleast_1d(np.asarray(t_profile, dtype=float))
    taus = np.asarray(tau_path, dtype=float)
    per_layer_scalars = taus.ndim <= 1
    if taus.ndim == 0:
        taus = taus.reshape(1, 1)
    elif taus.ndim == 1:
        taus = taus.reshape(-1, 1)
    if taus.shape[0] != temps.size:
        raise ValueError(
            f"{temps.size} layer temperatures but {taus.shape[0]} layer "
            f"transmittances")
    return temps, taus, per_layer_scalars


def _rayleigh_jeans(temps, taus):
    """RJ brightness temperature of arrays shaped by :func:`_normalize_sky`."""
    emitted = temps[:, None] * (1.0 - taus)
    emitted[1:] *= np.cumprod(taus[:-1], axis=0)
    return np.sum(emitted, axis=0)


def _effective_temperature(temps, taus, transparent_temperature=None):
    """T_eff and the emissivity 1 - tau_total of arrays shaped by
    :func:`_normalize_sky`; a transparent path takes
    ``transparent_temperature``, by default the mean of ``temps``."""
    if transparent_temperature is None:
        transparent_temperature = np.mean(temps)
    emissivity = 1.0 - np.prod(taus, axis=0)
    opaque = emissivity > 1e-12
    t_eff = np.where(opaque, _rayleigh_jeans(temps, taus)
                     / np.where(opaque, emissivity, 1.0),
                     transparent_temperature)
    return t_eff, emissivity


def brightness_temperature_rj(t_profile, tau_path):
    """Rayleigh-Jeans sky brightness temperature, K.

    ``t_profile`` holds per-layer temperatures; ``tau_path`` the matching
    per-layer transmittances (optionally per frequency along the second
    axis), ordered from the receiver outward. Each layer's emission is
    attenuated by the layers nearer the receiver; the result equals the
    absorption-weighted mean path temperature times (1 - tau_total).
    """
    temps, taus, scalar_out = _normalize_sky(t_profile, tau_path)
    t_b = _rayleigh_jeans(temps, taus)
    return float(t_b[0]) if scalar_out else t_b


def effective_path_temperature(t_profile, tau_path):
    """Absorption-weighted mean temperature T_eff with T_b = T_eff (1 - tau).

    For a transparent path (no absorption to weight by) the plain mean of
    the profile is returned; the brightness temperature is zero there
    regardless.
    """
    temps, taus, scalar_out = _normalize_sky(t_profile, tau_path)
    t_eff = _effective_temperature(temps, taus)[0]
    return float(t_eff[0]) if scalar_out else t_eff


def brightness_temperature_planck(f, t_profile, tau_path,
                                  transparent_temperature=None):
    """Planck-law sky brightness temperature, K.

    The blackbody-equivalent temperature of the path emission: for total
    transmittance tau and effective path temperature T it solves
    B(f, T_b) = (1 - tau) B(f, T). Returns T exactly for an opaque path
    and 0 for a transparent one. Where the emissivity is positive but too
    small to weight by, T is ``transparent_temperature``, by default the
    mean of ``t_profile``.
    """
    temps, taus, scalar_tau = _normalize_sky(t_profile, tau_path)
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    t_eff, emissivity = _effective_temperature(temps, taus,
                                               transparent_temperature)
    x = PLANCK * f_arr / (BOLTZMANN * t_eff)
    with np.errstate(divide="ignore", over="ignore"):
        t_b = (PLANCK * f_arr / BOLTZMANN) / np.log1p(
            np.expm1(x) / np.where(emissivity > 0.0, emissivity, np.inf))
    t_b = np.where(emissivity <= 0.0, 0.0, t_b)
    if np.ndim(f) == 0 and scalar_tau:
        return float(t_b.reshape(-1)[0])
    return t_b


def thermal_noise_psd(f, t: float, noise_figure_db: float = 0.0):
    """Receiver thermal noise density, W/Hz, with quantum roll-off.

    hf/(e^{hf/kT} - 1) scaled by the noise figure; approaches kT at low
    frequency and falls a few dB by 10 THz at room temperature.
    """
    f = np.asarray(f, dtype=float)
    x = PLANCK * f / (BOLTZMANN * t)
    psd = np.where(x > 0.0, PLANCK * f / np.expm1(np.where(x > 0.0, x, 1.0)),
                   BOLTZMANN * t)
    return psd * 10.0 ** (noise_figure_db / 10.0)


def total_noise_psd(f, sky: SkyPath | None, rx: TransceiverConfig):
    """Total noise density at the receiver, W/Hz.

    Antenna noise k_B T_b from the Planck-based sky brightness temperature
    plus the receiver thermal term. ``sky`` None means a vacuum path.
    """
    thermal = thermal_noise_psd(f, rx.rx_temperature, rx.noise_figure)
    if sky is None:
        return thermal
    t_b = brightness_temperature_planck(f, sky.temperatures,
                                        sky.transmittances,
                                        sky.transparent_temperature)
    return BOLTZMANN * np.asarray(t_b) + thermal


def snr(grid, path_loss, noise_psd, tx: TransceiverConfig):
    """Per-frequency SNR for a flat transmit density X = P_tx / W."""
    x = tx.tx_power / tx.bandwidth
    return x / (np.asarray(path_loss) * np.asarray(noise_psd))


def capacity(grid, snr_values) -> float:
    """Shannon capacity in bit/s: trapezoidal integral of log2(1 + SNR)."""
    grid = np.asarray(grid, dtype=float)
    return float(np.trapezoid(np.log2(1.0 + np.asarray(snr_values)), grid))


@dataclass(frozen=True)
class LinkBudget:
    """Per-frequency budget plus the band-integrated capacity."""

    grid: np.ndarray        # Hz
    path_loss: np.ndarray   # linear, >= 1
    noise_psd: np.ndarray   # W/Hz
    snr: np.ndarray         # linear
    capacity: float         # bit/s


def _q_function(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


def bit_error_probability(scheme: str, snr_linear: float) -> float:
    """Uncoded AWGN bit-error probability at a given SNR.

    BPSK: Q(sqrt(2 SNR)). Gray-coded square 16-QAM: the standard per-bit
    approximation 0.75 Q(sqrt(SNR / 5)). No channel coding is modeled.
    """
    scheme = scheme.upper()
    if snr_linear < 0.0:
        raise ValueError("SNR must be nonnegative")
    if scheme == "BPSK":
        return float(_q_function(math.sqrt(2.0 * snr_linear)))
    if scheme in ("16QAM", "16-QAM"):
        return float(0.75 * _q_function(math.sqrt(snr_linear / 5.0)))
    raise UnsupportedScheme(f"unsupported modulation scheme {scheme!r}")


def modulation_threshold(scheme: str, target_bep: float) -> float:
    """Linear SNR at which the scheme's uncoded BEP reaches ``target_bep``.

    Inverts :func:`bit_error_probability`. Targets at or above the zero-SNR
    error rate return 0 (no SNR needed).
    """
    if not 0.0 < target_bep <= 0.5:
        raise ValueError("target_bep must be in (0, 0.5]")
    if bit_error_probability(scheme, 0.0) <= target_bep:
        return 0.0
    lo, hi = 0.0, 1.0
    while bit_error_probability(scheme, hi) > target_bep:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"no SNR reaches BEP {target_bep}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bit_error_probability(scheme, mid) > target_bep:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)
