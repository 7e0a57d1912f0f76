"""US Standard Atmosphere 1976 profiles and layer discretization.

Below 86 km geometric altitude the analytic piecewise model is evaluated in
geopotential height. Above 86 km a bundled table is interpolated (linear in
temperature, linear in log pressure). Dry-constituent volume mixing ratios
are held at their sea-level values below 86 km and follow the table above;
water vapor follows a configurable exponential profile since the model
atmosphere itself is dry.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .constants import data_table
from .errors import InvalidRange

MAX_ALTITUDE = 500_000.0          # m, top of the modeled atmosphere
DEFAULT_LAYER_RESOLUTION = 500.0  # m
DEFAULT_GROUND_HUMIDITY = 0.0078  # sea-level water vapor volume mixing ratio
DEFAULT_WATER_SCALE_HEIGHT = 2000.0  # m

# Geopotential layer bases (m'), base temperatures (K), lapse rates (K/m'),
# and base pressures (Pa) of the 1976 standard below 86 km.
_H_BASE = (0.0, 11_000.0, 20_000.0, 32_000.0, 47_000.0, 51_000.0, 71_000.0)
_T_BASE = (288.15, 216.65, 216.65, 228.65, 270.65, 270.65, 214.65)
_LAPSE = (-6.5e-3, 0.0, 1.0e-3, 2.8e-3, 0.0, -2.8e-3, -2.0e-3)
_P_BASE = (101_325.0, 22_632.06, 5_474.889, 868.0187, 110.9063, 66.93887,
           3.956420)
_H_TOP = 84_852.0  # m', geopotential height of the 86 km geometric level

_G0 = 9.80665          # m/s^2
_R_STAR = 8.31432      # J/(mol K), gas constant used by the 1976 standard
_M_AIR = 0.0289644     # kg/mol
_R0_GEOPOT = 6_356_766.0  # m, radius used for the geopotential conversion

# Sea-level dry-air composition (volume mixing ratios).
DRY_AIR_COMPOSITION = {
    "N2": 0.78084,
    "O2": 0.209476,
    "Ar": 0.00934,
    "CO2": 3.14e-4,
    "CH4": 2.0e-6,
}


@dataclass(frozen=True)
class AtmosphericState:
    """Pressure, temperature, and composition at one altitude."""

    altitude: float                      # m above sea level
    pressure: float                      # Pa
    temperature: float                   # K
    mixing_ratios: Mapping[str, float]   # species name -> volume mixing ratio

    def __post_init__(self):
        for name, value in (("pressure", self.pressure),
                            ("temperature", self.temperature)):
            if not 0.0 < value < math.inf:   # also false for NaN
                raise InvalidRange(f"{name} {value} is not positive and finite")
        for name, vmr in self.mixing_ratios.items():
            if not 0.0 <= vmr <= 1.0:
                raise InvalidRange(f"{name} mixing ratio {vmr} out of [0, 1]")


@dataclass(frozen=True)
class Layer:
    lower: float
    upper: float
    state: AtmosphericState


@dataclass(frozen=True)
class LayerStack:
    """Contiguous, non-overlapping atmosphere layers, bottom to top."""

    layers: tuple[Layer, ...]
    top_altitude: float

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]


def _geopotential(z: float) -> float:
    return _R0_GEOPOT * z / (_R0_GEOPOT + z)


def _pressure_temperature_below_86km(z: float) -> tuple[float, float]:
    h = _geopotential(z)
    idx = bisect_right(_H_BASE, h) - 1
    t_b, l_b, p_b, h_b = _T_BASE[idx], _LAPSE[idx], _P_BASE[idx], _H_BASE[idx]
    dh = min(h, _H_TOP) - h_b
    if l_b == 0.0:
        t = t_b
        p = p_b * math.exp(-_G0 * _M_AIR * dh / (_R_STAR * t_b))
    else:
        t = t_b + l_b * dh
        p = p_b * (t_b / t) ** (_G0 * _M_AIR / (_R_STAR * l_b))
    return p, t


@lru_cache(maxsize=1)
def _upper_atmosphere_table():
    """The table's altitudes, ascending, and its rows in the same order."""
    table = data_table("ussa1976_upper.csv")
    rows = sorted(zip(*(map(float, table[name]) for name in (
        "altitude_m", "pressure_pa", "temperature_k", "n2_vmr", "o2_vmr"))))
    return [row[0] for row in rows], rows


def _interp_upper(z: float) -> tuple[float, float, float, float]:
    """Table state at ``z`` in (86 km, 500 km], the table's span, from the
    first bracket z0 < z <= z1."""
    altitudes, table = _upper_atmosphere_table()
    i = bisect_left(altitudes, z)
    (z0, p0, t0, n20, o20), (z1, p1, t1, n21, o21) = table[i - 1], table[i]
    w = (z - z0) / (z1 - z0)
    p = math.exp(math.log(p0) * (1 - w) + math.log(p1) * w)
    return (p,
            t0 * (1 - w) + t1 * w,
            n20 * (1 - w) + n21 * w,
            o20 * (1 - w) + o21 * w)


def water_vapor_vmr(
    altitude: float,
    ground_humidity: float = DEFAULT_GROUND_HUMIDITY,
    scale_height: float = DEFAULT_WATER_SCALE_HEIGHT,
) -> float:
    """Exponential water-vapor profile pinned to the sea-level mixing ratio."""
    return ground_humidity * math.exp(-altitude / scale_height)


def profile_at(
    altitude: float,
    ground_humidity: float = DEFAULT_GROUND_HUMIDITY,
    water_scale_height: float = DEFAULT_WATER_SCALE_HEIGHT,
) -> AtmosphericState:
    """Standard-atmosphere state at a geometric altitude in [0, 500 km].

    ``ground_humidity`` is the sea-level water vapor volume mixing ratio,
    by default a moderate humidity. Dry constituents are scaled by (1 - w)
    so the ratios stay normalized in moist air.
    """
    if not 0.0 <= altitude <= MAX_ALTITUDE:
        raise InvalidRange(
            f"altitude {altitude} m outside [0, {MAX_ALTITUDE:.0f}] m")
    if altitude <= 86_000.0:
        pressure, temperature = _pressure_temperature_below_86km(altitude)
        n2, o2 = DRY_AIR_COMPOSITION["N2"], DRY_AIR_COMPOSITION["O2"]
    else:
        pressure, temperature, n2, o2 = _interp_upper(altitude)

    w = water_vapor_vmr(altitude, ground_humidity, water_scale_height)
    dry = 1.0 - w
    ratios = {
        "H2O": w,
        "N2": n2 * dry,
        "O2": o2 * dry,
        "Ar": DRY_AIR_COMPOSITION["Ar"] * dry,
        "CO2": DRY_AIR_COMPOSITION["CO2"] * dry,
        "CH4": DRY_AIR_COMPOSITION["CH4"] * dry,
    }
    return AtmosphericState(altitude, pressure, temperature, ratios)


def layer_count(h_bottom: float, h_top: float,
                resolution: float) -> int | float:
    """Layers :func:`layer_bounds` makes: ceil((h_top - h_bottom) / resolution)
    but at least 1; a ratio that is not finite is returned as it is."""
    ratio = (h_top - h_bottom) / resolution
    return max(1, math.ceil(ratio)) if math.isfinite(ratio) else ratio


def layer_bounds(h_bottom: float, h_top: float,
                 resolution: float) -> list[tuple[float, float, float]]:
    """(lower, upper, sampled altitude) of each layer :func:`build_layers`
    makes, sampled at its midpoint; stacks from one ``h_bottom`` and
    ``resolution`` share their full layers exactly."""
    if not h_bottom < h_top:
        raise InvalidRange(f"need h_bottom < h_top, got {h_bottom} >= {h_top}")
    if resolution <= 0:
        raise InvalidRange(f"resolution must be positive, got {resolution}")
    if not math.isfinite(count := layer_count(h_bottom, h_top, resolution)):
        raise InvalidRange(f"{h_bottom} to {h_top} m in steps of "
                           f"{resolution} m is not a finite number of layers")
    bounds = [(h_bottom + i * resolution,
               min(h_bottom + (i + 1) * resolution, h_top))
              for i in range(count)]
    return [(lower, upper, 0.5 * (lower + upper)) for lower, upper in bounds]


def build_layers(
    h_bottom: float,
    h_top: float,
    resolution: float = DEFAULT_LAYER_RESOLUTION,
    ground_humidity: float = DEFAULT_GROUND_HUMIDITY,
    water_scale_height: float = DEFAULT_WATER_SCALE_HEIGHT,
) -> LayerStack:
    """Discretize [h_bottom, h_top] into contiguous layers.

    ceil((h_top - h_bottom)/resolution) layers are produced; the last one is
    truncated at ``h_top``. Each layer's state is sampled at its midpoint,
    second-order accurate for smooth profiles.
    """
    layers = tuple(
        Layer(lower, upper, profile_at(z, ground_humidity, water_scale_height))
        for lower, upper, z in layer_bounds(h_bottom, h_top, resolution))
    return LayerStack(layers, layers[-1].upper)
