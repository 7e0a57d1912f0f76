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
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .constants import BOLTZMANN, PLANCK
from .errors import ConfigError, InvalidRange

# frequencies of the capacity band, the Shannon integral's grid
BAND_POINTS = 129


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
        if not self.center_frequency - self.bandwidth / 2.0 > 0.0:
            raise ConfigError("band must not extend below 0 Hz",
                              field="center_frequency_ghz")
        if not np.all(np.diff(self.band) > 0.0):
            raise ConfigError(
                f"{self.bandwidth:g} Hz around {self.center_frequency:g} Hz "
                f"does not hold {BAND_POINTS} distinct frequencies",
                field="bandwidth_ghz")

    @cached_property
    def band(self) -> np.ndarray:
        """The capacity integral's :data:`BAND_POINTS` frequencies."""
        return np.linspace(self.center_frequency - self.bandwidth / 2.0,
                           self.center_frequency + self.bandwidth / 2.0,
                           BAND_POINTS)


@dataclass(frozen=True)
class SkyPath:
    """Atmosphere seen from the receiver: layer temperatures and
    emissivities ordered nearest-to-farthest from the receiving antenna."""

    temperatures: np.ndarray        # (n_layers,), K
    emissivities: np.ndarray        # (n_layers, n_freq), 1 - transmittance

    @property
    def transmittances(self) -> np.ndarray:
        return 1.0 - self.emissivities


def _normalize_sky(t_profile, tau_path):
    """Per-layer temperatures (n,) and emissivities 1 - tau (n, n_freq).

    Accepts scalars (single uniform layer), per-layer 1-D transmittances,
    or a (n_layers, n_freq) array. Returns the arrays plus a flag telling
    whether the caller passed frequency-free (scalar-per-layer) input.
    """
    temps = np.atleast_1d(np.asarray(t_profile, dtype=float))
    taus = np.asarray(tau_path, dtype=float)
    per_layer_scalars = taus.ndim <= 1
    if per_layer_scalars:
        taus = taus.reshape(-1, 1)
    if taus.shape[0] != temps.size:
        raise ValueError(
            f"{temps.size} layer temperatures but {taus.shape[0]} layer "
            f"transmittances")
    # the comparisons are false for NaN, so they also reject it
    for values, ok, rule in (
            (taus, (taus >= 0.0) & (taus <= 1.0), "a transmittance in [0, 1]"),
            (temps, (temps > 0.0) & (temps < math.inf),
             "a positive and finite layer temperature in K")):
        if not ok.all():
            raise InvalidRange(f"{values[~ok][0]} is not {rule}")
    return temps, 1.0 - taus, per_layer_scalars


def _emission(temps, emissivities):
    """Sum T_i a_i, the RJ brightness temperature, and sum a_i, the path
    emissivity, over a_i = eps_i prod_{j<i} (1 - eps_j): the part of layer
    i's emission that reaches the receiver, with the layers ordered from it.
    Sum a_i equals 1 - prod (1 - eps_j) without its cancellation."""
    reach = np.empty(emissivities.shape)
    reach[:1] = 1.0
    np.subtract(1.0, emissivities[:-1], out=reach[1:])
    np.cumprod(reach, axis=0, out=reach)
    np.multiply(reach, emissivities, out=reach)
    emissivity = np.sum(reach, axis=0)
    np.multiply(reach, temps[:, None], out=reach)
    return np.sum(reach, axis=0), emissivity


def _planck(f, temps, emissivities):
    """Planck brightness temperature of a sky shaped by :func:`_normalize_sky`
    from the absorption-weighted mean layer temperature; 0 where none emits."""
    t_rj, emissivity = _emission(temps, emissivities)
    emits = emissivity > 0.0
    t_eff = np.divide(t_rj, emissivity, out=np.zeros_like(t_rj), where=emits)
    with np.errstate(divide="ignore", over="ignore"):
        x = PLANCK * f / (BOLTZMANN * t_eff)
        t_b = (PLANCK * f / BOLTZMANN) / np.log1p(np.expm1(x) / emissivity)
    return np.where(emits, t_b, 0.0)


def brightness_temperature_rj(t_profile, tau_path):
    """Rayleigh-Jeans sky brightness temperature, K.

    ``t_profile`` holds per-layer temperatures; ``tau_path`` the matching
    per-layer transmittances (optionally per frequency along the second
    axis), ordered from the receiver outward. Each layer emits its
    emissivity 1 - tau times its temperature, attenuated by the layers
    nearer the receiver. Raises :class:`InvalidRange` for a transmittance
    outside [0, 1] and a temperature that is not positive and finite.
    """
    temps, emissivities, scalar_out = _normalize_sky(t_profile, tau_path)
    t_b = _emission(temps, emissivities)[0]
    return float(t_b[0]) if scalar_out else t_b


def brightness_temperature_planck(f, t_profile, tau_path):
    """Planck-law sky brightness temperature, K.

    The blackbody-equivalent temperature of the path emission: for path
    emissivity e and the absorption-weighted mean path temperature T it
    solves B(f, T_b) = e B(f, T). Returns T exactly for an opaque path and
    0 for a transparent one. Takes and refuses what
    :func:`brightness_temperature_rj` does.
    """
    temps, emissivities, scalar_tau = _normalize_sky(t_profile, tau_path)
    t_b = _planck(np.asarray(f, dtype=float), temps, emissivities)
    return float(t_b[0]) if np.ndim(f) == 0 and scalar_tau else t_b


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


def total_noise_psd(f, sky: SkyPath, rx: TransceiverConfig):
    """Total noise density at the receiver, W/Hz.

    Antenna noise k_B T_b from the Planck-based sky brightness temperature
    plus the receiver thermal term. A sky with no layers emits nothing.
    """
    thermal = thermal_noise_psd(f, rx.rx_temperature, rx.noise_figure)
    return BOLTZMANN * _planck(np.asarray(f, dtype=float), sky.temperatures,
                               sky.emissivities) + thermal


def snr(path_loss, noise_psd, tx: TransceiverConfig):
    """Per-frequency SNR for a flat transmit density X = P_tx / W."""
    x = tx.tx_power / tx.bandwidth
    return x / (np.asarray(path_loss) * np.asarray(noise_psd))


def capacity(grid, snr_values) -> float:
    """Shannon capacity in bit/s: trapezoidal integral of log2(1 + SNR)."""
    grid = np.asarray(grid, dtype=float)
    return float(np.trapezoid(np.log2(1.0 + np.asarray(snr_values)), grid))


@dataclass(frozen=True)
class LinkBudget:
    """The band-integrated capacity."""

    capacity: float         # bit/s


def _q_function(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


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
    raise InvalidRange(f"unsupported modulation scheme {scheme!r}")


def modulation_threshold(scheme: str, target_bep: float) -> float:
    """Linear SNR at which the scheme's uncoded BEP reaches ``target_bep``.

    Inverts :func:`bit_error_probability` in closed form with the normal
    quantile z: BPSK needs z(p)^2 / 2, 16-QAM 5 z(p / 0.75)^2. Targets at or
    above the zero-SNR error rate return 0 (no SNR needed).
    """
    if not 0.0 < target_bep <= 0.5:
        raise ValueError("target_bep must be in (0, 0.5]")
    if bit_error_probability(scheme, 0.0) <= target_bep:
        return 0.0
    if scheme.upper() == "BPSK":
        return NormalDist().inv_cdf(target_bep) ** 2 / 2.0
    return 5.0 * NormalDist().inv_cdf(target_bep / 0.75) ** 2
