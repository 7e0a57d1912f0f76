"""Parameter sweeps over frequency, altitude, or elevation.

A sweep re-resolves the scenario at each axis point and emits one long-format
CSV, ``axis_value,frequency_hz,metric,value``, with a deterministic row
order (axis ascending, then metric name, then frequency). Sweep points run
one after another; the shared spectrum cache makes altitude sweeps cheap
because the layer states repeat across points.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Iterable

from .errors import ConfigError
from .scenario import (
    ResolvedLink,
    Scenario,
    SpectrumCache,
    _float_columns,
    _grid_span,
    _write_csv,
    load_scenario_catalog,
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
    frequency sweep is one result, on the grid from ``start`` to ``stop``,
    and one point, ``start``; its bounds obey the scenario's ``f_*`` rules.
    """
    if axis not in AXES:
        raise ConfigError(f"axis must be one of {', '.join(AXES)}",
                          field="axis")
    if axis == "frequency":
        with _at(f"frequency {start:g} to {stop:g} GHz"):
            swept = dataclasses.replace(base, f_min=start * 1e9,
                                        f_max=stop * 1e9, f_step=step * 1e9)
        return [start], [resolve(swept, cache)]

    points = sweep_points(start, stop, step)
    scenarios = [_scenario_at(base, axis, value) for value in points]
    grid = make_grid(base.f_min, base.f_max, base.f_step)
    catalog = load_scenario_catalog(base, grid)
    return points, [resolve(s, cache, catalog) for s in scenarios]


def write_sweep_csv(path, axis: str, points: Iterable[float],
                    results: list[ResolvedLink]) -> None:
    """Long-format CSV: axis_value,frequency_hz,metric,value.

    A frequency sweep is one result whose rows take their frequency in GHz
    as the axis value, and it has no capacity row.
    """
    by_frequency = axis == "frequency"

    def rows():
        for value, resolved in zip(points, results):
            point = []
            if not by_frequency:
                point.append((value,
                              resolved.scenario.transceiver.center_frequency,
                              "capacity_bit_s", resolved.budget.capacity))
            for f, pl, s in _float_columns(resolved.grid,
                                           resolved.path_loss_db,
                                           resolved.snr_db):
                v0 = f / 1e9 if by_frequency else value
                point.append((v0, f, "path_loss_db", pl))
                point.append((v0, f, "snr_db", s))
            # rows run by axis value, metric, then frequency; in a frequency
            # sweep distinct frequencies can share one GHz axis value
            for v0, f, metric, v in sorted(
                    point, key=lambda r: (r[0], r[2], r[1])):
                yield f"{v0:.10g},{f:.10g},{metric},{v:.10g}\n"

    _write_csv(path, results[0].provenance,
               "axis_value,frequency_hz,metric,value", rows())


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
    altitudes = sorted(altitudes)
    previous = None
    crossover = None
    catalog = None
    for h in altitudes:
        down = dataclasses.replace(
            base, kind="A2E", h_airplane=h, central_angle=0.0,
            f_min=frequency, f_max=frequency + 2 * base.f_step)
        up = dataclasses.replace(down, kind="A2S")
        if catalog is None:   # every altitude reads the same lines
            catalog = load_scenario_catalog(
                down, make_grid(down.f_min, down.f_max, down.f_step))
        pl_down = resolve(down, cache, catalog,
                          with_capacity=False).path_loss_db[0]
        pl_up = resolve(up, cache, catalog,
                        with_capacity=False).path_loss_db[0]
        delta = pl_down - pl_up
        if previous is not None and previous[1] < 0.0 <= delta:
            h0, d0 = previous
            crossover = h0 + (h - h0) * (-d0) / (delta - d0)
            break
        previous = (h, delta)
    return crossover
