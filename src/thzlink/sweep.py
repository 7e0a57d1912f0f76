"""Parameter sweeps over frequency, altitude, or elevation.

A sweep re-resolves the scenario at each axis point; :mod:`thzlink.output`
writes the results as one long-format CSV. Sweep points run one after
another over one spectrum cache that holds each layer stack as arrays: a
point adds at most a truncated top layer and reads its live rows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Iterable, Iterator

from .errors import ConfigError
from .scenario import (
    ResolvedLink,
    Scenario,
    SpectrumCache,
    _grid_span,
    make_grid,
    resolve,
)

AXES = ("frequency", "altitude", "elevation")
# Altitude and elevation sweeps with more points are refused up front.
MAX_SWEEP_POINTS = 10_000


def sweep_points(start: float, stop: float, step: float) -> list[float]:
    """``start`` to at most ``stop``, inclusive, in steps of ``step``."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"non-finite sweep bound in {start}, {stop}, {step}")
    if step <= 0.0:
        raise ConfigError("sweep step must be positive", field="step")
    if stop < start:
        raise ConfigError("sweep range is empty (stop < start)", field="to")
    if not _grid_span(start, stop, step) < MAX_SWEEP_POINTS:
        raise ConfigError(f"more than {MAX_SWEEP_POINTS} sweep points",
                          field="step")
    return make_grid(start, stop, step).tolist()


@contextlib.contextmanager
def _at(point: str):
    """Report a scenario rule broken inside the block at sweep ``point``."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{point}: {exc}") from None


def _scenario_at(base: Scenario, axis: str, value: float) -> Scenario:
    if axis == "altitude":
        if "A" not in (base.kind[0], base.kind[2]):
            raise ConfigError(
                f"altitude sweep needs an airplane terminal, kind is "
                f"{base.kind}", field="axis")
        with _at(f"altitude {value:g} m"):
            return dataclasses.replace(base, h_airplane=value)
    with _at(f"elevation {value:g} deg"):
        return base.at_elevation(value)


def _resolved(scenarios: Iterable[Scenario], cache: SpectrumCache | None,
              with_capacity: bool) -> Iterator[ResolvedLink]:
    """Resolve ``scenarios``, which share one grid and band, as they are
    drawn, over one cache, in memory if none is given, and one catalog."""
    if cache is None:
        cache = SpectrumCache()
    catalog = None
    for scenario in scenarios:
        resolved = resolve(scenario, cache, catalog, with_capacity)
        catalog = resolved.catalog
        yield resolved


def run_sweep(
    base: Scenario,
    axis: str,
    start: float,
    stop: float,
    step: float,
    cache: SpectrumCache | None = None,
) -> tuple[list[float], list[ResolvedLink]]:
    """Resolve the scenario across the axis range. Returns (points, results).

    Axis units: frequency in GHz, altitude in m, elevation in degrees. A
    frequency sweep is one result, on the grid from ``start`` to ``stop``
    with no capacity band, and one point, ``start``; its bounds obey the
    scenario's ``f_*`` rules.
    """
    if axis not in AXES:
        raise ConfigError(f"axis must be one of {', '.join(AXES)}",
                          field="axis")
    if axis == "frequency":
        with _at(f"frequency {start:g} to {stop:g} GHz"):
            scenarios = [dataclasses.replace(
                base, f_min=start * 1e9, f_max=stop * 1e9, f_step=step * 1e9)]
        points = [start]
    else:
        points = sweep_points(start, stop, step)
        scenarios = [_scenario_at(base, axis, value) for value in points]
    return points, list(_resolved(scenarios, cache, axis != "frequency"))


def crossover_altitude(
    base: Scenario,
    frequency: float,
    altitudes: Iterable[float],
    cache: SpectrumCache | None = None,
) -> float | None:
    """Altitude where the airplane-satellite loss drops below the
    airplane-ground loss at ``frequency`` (Hz), or None if no sign change.

    Both links are evaluated zenith with the scenario's antennas, so antenna
    gains cancel in the comparison.
    """
    def links():
        for h in sorted(altitudes):
            down = dataclasses.replace(
                base, kind="A2E", h_airplane=h, central_angle=0.0,
                f_min=frequency, f_max=frequency + 2 * base.f_step)
            yield down
            yield dataclasses.replace(down, kind="A2S")

    resolved = _resolved(links(), cache, with_capacity=False)
    previous = None
    for down, up in zip(resolved, resolved):
        h = down.scenario.h_airplane
        delta = down.path_loss_db[0] - up.path_loss_db[0]
        if previous is not None and previous[1] < 0.0 <= delta:
            h0, d0 = previous
            return h0 + (h - h0) * (-d0) / (delta - d0)
        previous = (h, delta)
    return None
