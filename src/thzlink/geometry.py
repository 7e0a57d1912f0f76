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
from .errors import DegenerateGeometry, GeometryError, ZeroElevation
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
    r = EARTH_RADIUS + h_start
    b = EARTH_RADIUS + atmosphere_top
    # -r sin(psi) is r cos(psi + 90 deg); the discriminant is never
    # negative here since b >= r.
    disc = r * r * math.sin(psi) ** 2 + (b * b - r * r)
    return -r * math.sin(psi) + math.sqrt(disc)


def layer_path_segments(
    h_start: float, psi: float, layers: LayerStack
) -> tuple[tuple[int, float], ...]:
    """Per-layer path lengths along the ray from ``h_start`` to the stack top.

    Each segment is the layer's :func:`shell_path_length`, the difference of
    :func:`atmospheric_path_length` taken to its upper and lower boundaries;
    at zenith every segment equals the layer's (possibly partial) vertical
    extent exactly.
    """
    top = layers.top_altitude
    if h_start >= top:
        raise GeometryError(
            f"start altitude {h_start} m is above the stack top {top} m")
    upper = np.array([layer.upper for layer in layers.layers])
    index = np.flatnonzero(upper > h_start)
    if index.size:   # the rules on h_start and psi, as the first layer's
        atmospheric_path_length(h_start, psi, float(upper[index[0]]))
    upper = upper[index]
    lower = np.maximum([layers[i].lower for i in index], h_start)
    # atmospheric_path_length to each upper and lower bound, in its order of
    # IEEE operations, so each segment equals its shell_path_length exactly
    r, sin_psi = EARTH_RADIUS + h_start, math.sin(psi)
    b = EARTH_RADIUS + np.array([upper, lower])
    to_upper, to_lower = (-r * sin_psi
                          + np.sqrt(r * r * sin_psi ** 2 + (b * b - r * r)))
    lengths = to_upper - np.where(lower > h_start, to_lower, 0.0)
    lengths[upper <= lower] = 0.0
    return tuple(zip(index.tolist(), lengths.tolist()))


def shell_path_length(h_start: float, psi: float, lower: float,
                      upper: float) -> float:
    """Length (m) of the ray from ``h_start`` inside the shell [lower, upper].

    The part of the shell below ``h_start`` is not on the ray; a shell
    entirely below it, or an empty one, has length 0.
    """
    lower = max(lower, h_start)
    if upper <= lower:
        return 0.0
    to_upper = atmospheric_path_length(h_start, psi, upper)
    to_lower = (0.0 if lower <= h_start
                else atmospheric_path_length(h_start, psi, lower))
    return to_upper - to_lower


def plane_parallel_segments(
    h_start: float, psi: float, layers: LayerStack
) -> tuple[tuple[int, float], ...]:
    """Flat-layer comparison model: thickness / sin(elevation) per layer."""
    if psi <= 0.0:
        raise ZeroElevation(
            "plane-parallel path diverges at zero or negative elevation")
    if psi > math.pi / 2:
        raise GeometryError(f"elevation must be in (0, pi/2], got {psi}")
    top = layers.top_altitude
    if h_start >= top:
        raise GeometryError(
            f"start altitude {h_start} m is above the stack top {top} m")
    sin_psi = math.sin(psi)
    segments = []
    for index, layer in enumerate(layers.layers):
        if layer.upper <= h_start:
            continue
        thickness = layer.upper - max(layer.lower, h_start)
        segments.append((index, thickness / sin_psi))
    return tuple(segments)


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
