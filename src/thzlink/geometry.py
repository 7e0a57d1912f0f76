"""Curved-Earth link geometry: slant ranges, elevation angles, and per-layer
traversal lengths through a discretized atmosphere.

A spherical Earth of radius 6371 km is assumed. All angles are radians
internally. The plane-parallel model is provided for comparison; it
overestimates slant paths at low elevation because flat layers never thin
out toward the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH_RADIUS
from .errors import DegenerateGeometry, GeometryError
from .atmosphere import LayerStack


@dataclass(frozen=True)
class LinkEndpoints:
    """Two terminals seen from the Earth's center.

    Parameters
    ----------
    h_low : float
        Altitude of the lower terminal (m).
    h_high : float
        Altitude of the higher terminal (m).
    rho : float
        Central angle between the terminals (rad).
    """

    h_low: float
    h_high: float
    rho: float

    def __post_init__(self):
        if not 0.0 <= self.h_low <= self.h_high:
            raise GeometryError(
                f"need 0 <= h_low <= h_high, got {self.h_low}, {self.h_high}")
        if not 0.0 <= self.rho < math.pi / 2:
            raise GeometryError(f"central angle out of [0, pi/2): {self.rho}")


def slant_range(ep: LinkEndpoints) -> float:
    """Terminal-to-terminal distance (m) by the law of cosines."""
    r1 = EARTH_RADIUS + ep.h_low
    r2 = EARTH_RADIUS + ep.h_high
    return math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(ep.rho))


def elevation_angle(ep: LinkEndpoints) -> float:
    """Elevation of the ray at the lower terminal, in (-pi/2, pi/2].

    Zenith (pi/2) when the central angle is zero; negative values mean the
    line of sight starts below the local horizontal.
    """
    r_as = slant_range(ep)
    if r_as == 0.0:
        raise DegenerateGeometry("coincident terminals have no elevation")
    c = (EARTH_RADIUS + ep.h_low) * math.sin(ep.rho)
    alpha = math.asin(min(1.0, max(-1.0, c / r_as)))
    return (math.pi / 2 - ep.rho) - alpha


def atmospheric_path_length(
    h_start: float, psi: float, atmosphere_top: float
) -> float:
    """Ray length (m) from ``h_start`` to the sphere bounding the atmosphere.

    Solves the law-of-cosines quadratic for the ray leaving altitude
    ``h_start`` at elevation ``psi``; at zenith it reduces to
    ``atmosphere_top - h_start`` exactly.
    """
    if not 0.0 <= h_start < atmosphere_top:
        raise GeometryError(
            f"need 0 <= h_start < atmosphere_top, got {h_start}, "
            f"{atmosphere_top}")
    if not 0.0 < psi <= math.pi / 2:
        raise GeometryError(f"elevation must be in (0, pi/2], got {psi}")
    return float(_ray_lengths(h_start, psi, atmosphere_top))


def _ray_lengths(h_start: float, psi: float, top):
    """:func:`atmospheric_path_length` without its checks, elementwise over
    an array of tops."""
    r, sin_psi = EARTH_RADIUS + h_start, math.sin(psi)
    b = EARTH_RADIUS + top
    # -r sin(psi) is r cos(psi + 90 deg); the discriminant is never
    # negative here since b >= r.
    return -r * sin_psi + np.sqrt(r * r * sin_psi ** 2 + (b * b - r * r))


def _layers_above(h_start: float, layers: LayerStack):
    """Index, lower and upper bounds of the layers that reach above
    ``h_start``, which must be below the stack top."""
    top = layers.top_altitude
    if h_start >= top:
        raise GeometryError(
            f"start altitude {h_start} m is above the stack top {top} m")
    lower, upper = np.array([(layer.lower, layer.upper)
                             for layer in layers.layers]).reshape(-1, 2).T
    index = np.flatnonzero(upper > h_start)
    return index, lower[index], upper[index]


def layer_path_segments(
    h_start: float, psi: float, layers: LayerStack
) -> tuple[tuple[int, float], ...]:
    """Per-layer path lengths along the ray from ``h_start`` to the stack top.

    Each segment is :func:`atmospheric_path_length` to the layer's upper
    boundary, less that to its lower boundary where it is above
    ``h_start``; at zenith every segment equals the layer's (possibly
    partial) vertical extent exactly.
    """
    index, lower, upper = _layers_above(h_start, layers)
    if index.size:   # the rules on h_start and psi, as the first layer's
        atmospheric_path_length(h_start, psi, float(upper[0]))
    lengths = _segment_lengths(h_start, psi, lower, upper)
    return tuple(zip(index.tolist(), lengths.tolist()))


def _segment_lengths(h_start: float, psi: float, lower, upper) -> np.ndarray:
    """Exact lengths, unchecked, of the ray from h_start inside shells; a
    shell it does not cross, empty or below h_start, has length 0."""
    lower = np.maximum(lower, h_start)
    upper = np.maximum(upper, lower)
    to_upper, to_lower = _ray_lengths(h_start, psi, np.array([upper, lower]))
    lengths = to_upper - np.where(lower > h_start, to_lower, 0.0)
    lengths[upper <= lower] = 0.0
    return lengths


def plane_parallel_segments(
    h_start: float, psi: float, layers: LayerStack
) -> tuple[tuple[int, float], ...]:
    """Flat-layer comparison model: thickness / sin(elevation) per layer."""
    if not 0.0 < psi <= math.pi / 2:   # the path diverges at psi <= 0
        raise GeometryError(f"elevation must be in (0, pi/2], got {psi}")
    index, lower, upper = _layers_above(h_start, layers)
    lengths = (upper - np.maximum(lower, h_start)) / math.sin(psi)
    return tuple(zip(index.tolist(), lengths.tolist()))


def central_angle_for_elevation(
    h_low: float, h_high: float, psi: float
) -> float:
    """Invert :func:`elevation_angle`: central angle giving elevation ``psi``.

    Valid for distinct endpoint altitudes and psi in (0, pi/2].
    """
    if not 0.0 < psi <= math.pi / 2:
        raise GeometryError(f"elevation must be in (0, pi/2], got {psi}")
    if h_high <= h_low:
        raise DegenerateGeometry(
            "equal endpoint altitudes do not determine a central angle")
    if psi == math.pi / 2:
        return 0.0
    r1 = EARTH_RADIUS + h_low
    r2 = EARTH_RADIUS + h_high
    rho_horizon = math.acos(r1 / r2)  # tangent-ray limit, elevation -> 0

    def mismatch(rho: float) -> float:
        return elevation_angle(LinkEndpoints(h_low, h_high, rho)) - psi

    lo, hi = 0.0, rho_horizon
    f_lo = mismatch(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = mismatch(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)
