"""Output checks for the thzlink benchmark.

Every check compares what ``thzlink`` wrote to its CSV files with a value the
benchmark computes on its own (free-space loss, dish gains, the receiver
noise floor, slant paths through a spherical Earth) or with a property the
method must have (optical depth adds along one ray and over lines, weather
loss is linear in density and path length). Nothing is compared with a
stored copy of an earlier output. Each check returns a list of problems;
an empty list means the output passed.

Constants are spelled out here rather than imported from ``thzlink`` so a
wrong constant in the program cannot hide behind the same wrong constant in
the check.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

C = 299_792_458.0            # m/s
PLANCK = 6.62607015e-34      # J s
BOLTZMANN = 1.380649e-23     # J/K
EARTH_RADIUS = 6_371_000.0   # m

# Values are written with 10 significant digits; sums of a few of them in dB
# carry rounding well below this.
DB_TOL = 1e-6
# The program forms the loss as weather / (spreading * tau * gains). Past
# about 2900 dB that product is subnormal and loses digits; past
# 10*log10(DBL_MAX) = 3082.5 dB the loss overflows to inf while tau > 0.
# Beyond this expected loss, with a margin, the link is opaque and the
# checks only require a loss this large or inf.
OPAQUE_DB = 2500.0
MAX_PROBLEMS = 5


class Problems(list):
    """List of problem strings that stops growing after a few examples."""

    def add(self, message: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(message)
        elif len(self) == MAX_PROBLEMS:
            self.append("... more problems omitted")


# --------------------------------------------------------------------------
# reading outputs

def read_table(path) -> dict[str, np.ndarray]:
    """Numeric CSV written by thzlink: '#' provenance lines, a header, rows."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {name: np.array([float(r[i]) for r in rows])
            for i, name in enumerate(header)}


def read_quantities(path) -> dict[str, float]:
    """``quantity,value`` CSV (capacity.csv) as a dict."""
    table = {}
    for ln in Path(path).read_text().splitlines():
        if not ln or ln.startswith("#") or ln == "quantity,value":
            continue
        name, value = ln.split(",")
        table[name] = float(value)
    return table


def read_sweep(path) -> dict[str, dict[float, np.ndarray]]:
    """Long sweep CSV as {metric: {axis_value: values ordered by frequency}}."""
    out: dict[str, dict[float, list]] = {}
    for ln in Path(path).read_text().splitlines():
        if not ln or ln.startswith("#") or ln.startswith("axis_value,"):
            continue
        axis, freq, metric, value = ln.split(",")
        out.setdefault(metric, {}).setdefault(float(axis), []).append(
            (float(freq), float(value)))
    return {metric: {axis: np.array([v for _, v in sorted(rows)])
                     for axis, rows in by_axis.items()}
            for metric, by_axis in out.items()}


# --------------------------------------------------------------------------
# physics computed by the benchmark

def endpoint_altitudes(cfg: dict) -> tuple[float, float]:
    """(tx, rx) terminal altitudes in m for a benchmark config dict."""
    by_letter = {"A": cfg["h_airplane_km"] * 1e3,
                 "S": cfg["h_satellite_km"] * 1e3,
                 "E": cfg["h_ground_m"]}
    return by_letter[cfg["kind"][0]], by_letter[cfg["kind"][2]]


def slant_range(cfg: dict) -> float:
    """Terminal distance by the law of cosines on a 6371 km sphere."""
    if cfg["kind"] == "A2A":
        return cfg["link_distance_m"]
    h1, h2 = endpoint_altitudes(cfg)
    r1, r2 = EARTH_RADIUS + h1, EARTH_RADIUS + h2
    rho = math.radians(cfg["central_angle_deg"])
    return math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(rho))


def grid_hz(cfg: dict) -> np.ndarray:
    f_min, f_max = cfg["f_min_ghz"] * 1e9, cfg["f_max_ghz"] * 1e9
    step = cfg["f_step_ghz"] * 1e9
    count = int(math.floor((f_max - f_min) / step + 1e-9)) + 1
    return f_min + step * np.arange(count)


def fspl_db(f, r: float):
    return 20.0 * np.log10(4.0 * math.pi * r * np.asarray(f) / C)


def gains_db(cfg: dict, f):
    """Sum of both boresight dish gains eta (pi D f / c)^2, in dB."""
    f = np.asarray(f)
    total = 0.0
    for end in ("tx", "rx"):
        eta = cfg[f"{end}_dish_efficiency"]
        d = cfg[f"{end}_dish_diameter_m"]
        total = total + 10.0 * np.log10(eta * (math.pi * d * f / C) ** 2)
    return total


def receiver_floor_dbw_hz(cfg: dict, f):
    """Receiver noise floor hf / (exp(hf/kT) - 1) times the noise figure."""
    f = np.asarray(f)
    t = cfg["rx_temperature_k"]
    psd = PLANCK * f / np.expm1(PLANCK * f / (BOLTZMANN * t))
    return 10.0 * np.log10(psd) + cfg["noise_figure_db"]


def tx_density_db(cfg: dict) -> float:
    """Flat transmit density P / B in dBW/Hz."""
    return 10.0 * math.log10(cfg["tx_power_mw"] * 1e-3
                             / (cfg["bandwidth_ghz"] * 1e9))


def path_through_shell(h_start: float, elevation: float, h_top: float) -> float:
    """Straight-ray length from altitude h_start to the sphere at h_top."""
    r = EARTH_RADIUS + h_start
    b = EARTH_RADIUS + h_top
    s = math.sin(elevation)
    return -r * s + math.sqrt(r * r * s * s + b * b - r * r)


def ground_elevation(h_high: float, central_angle_deg: float) -> float:
    """Elevation at the ground of the ray to altitude h_high."""
    rho = math.radians(central_angle_deg)
    ratio = EARTH_RADIUS / (EARTH_RADIUS + h_high)
    return math.atan2(math.cos(rho) - ratio, math.sin(rho))


def central_angle_deg(h_low: float, h_high: float, elevation: float) -> float:
    """Central angle swept by a ray leaving h_low at ``elevation`` up to h_high."""
    r1, r2 = EARTH_RADIUS + h_low, EARTH_RADIUS + h_high
    return math.degrees(math.acos(r1 * math.cos(elevation) / r2) - elevation)


# --------------------------------------------------------------------------
# checks

def check_link(cfg: dict, path_loss: dict, snr: dict,
               capacity: dict) -> Problems:
    """Single-link checks on path_loss.csv, snr.csv and capacity.csv.

    * the grid is the configured one, row for row;
    * no NaN anywhere; inf only at tau = 0 or past OPAQUE_DB;
    * fspl_db = 20 log10(4 pi r f / c) with r from the benchmark's geometry;
    * path_loss_db = fspl_db - 10 log10 tau - G_tx - G_rx + rain + cloud;
    * snr_db = 10 log10(P/B) - path_loss_db - noise_psd_dbw_hz;
    * the noise is no lower than the receiver floor;
    * the band capacity is finite and positive.
    """
    problems = Problems()
    f = grid_hz(cfg)
    name = cfg["kind"]
    for label, table in (("path_loss.csv", path_loss), ("snr.csv", snr)):
        freq = table["frequency_hz"]
        if freq.shape != f.shape:
            problems.add(f"{name} {label}: {freq.size} rows, expected {f.size}")
            return problems
        if not np.allclose(freq, f, rtol=1e-9, atol=0.0):
            problems.add(f"{name} {label}: frequency column differs from grid")
        for col, values in table.items():
            if np.isnan(values).any():
                problems.add(f"{name} {label}: NaN in {col}")
    if problems:
        return problems

    tau = path_loss["tau"]
    pl = path_loss["path_loss_db"]
    weather = path_loss["rain_db"] + path_loss["cloud_db"]
    with np.errstate(divide="ignore"):
        expected_pl = (fspl_db(f, slant_range(cfg)) - 10.0 * np.log10(tau)
                       - gains_db(cfg, f) + weather)

    bad = np.abs(path_loss["fspl_db"] - fspl_db(f, slant_range(cfg))) > DB_TOL
    if bad.any():
        i = int(np.argmax(bad))
        problems.add(f"{name}: fspl_db {path_loss['fspl_db'][i]} at {f[i]:.6g} "
                     f"Hz, expected {fspl_db(f[i], slant_range(cfg))}")
    if not np.isfinite(path_loss["fspl_db"]).all():
        problems.add(f"{name}: fspl_db is not finite")

    if ((tau < 0.0) | (tau > 1.0)).any():
        problems.add(f"{name}: tau outside [0, 1]")
    opaque = expected_pl > OPAQUE_DB
    clear = ~opaque
    with np.errstate(invalid="ignore"):     # inf - inf where tau is 0
        bad = clear & ~(np.abs(pl - expected_pl) <= DB_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        problems.add(f"{name}: path_loss_db {pl[i]} at {f[i]:.6g} Hz, "
                     f"identity gives {expected_pl[i]}")
    if (opaque & ~(pl >= OPAQUE_DB - DB_TOL)).any():
        problems.add(f"{name}: opaque point with path loss below {OPAQUE_DB} dB")
    if (np.isinf(pl) & ~opaque).any():
        problems.add(f"{name}: inf path loss where tau > 0 and the link is "
                     f"not opaque")

    snr_db = snr["snr_db"]
    noise = snr["noise_psd_dbw_hz"]
    if not np.isfinite(noise).all():
        problems.add(f"{name}: noise_psd_dbw_hz is not finite")
    expected_snr = tx_density_db(cfg) - pl - noise
    finite = np.isfinite(pl)
    with np.errstate(invalid="ignore"):     # -inf - -inf where pl is inf
        bad = finite & ~(np.abs(snr_db - expected_snr) <= DB_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        problems.add(f"{name}: snr_db {snr_db[i]} at {f[i]:.6g} Hz, identity "
                     f"gives {expected_snr[i]}")
    if (~finite & ~(snr_db == -np.inf)).any():
        problems.add(f"{name}: infinite path loss without -inf SNR")
    bad = noise < receiver_floor_dbw_hz(cfg, f) - DB_TOL
    if bad.any():
        i = int(np.argmax(bad))
        problems.add(f"{name}: noise {noise[i]} dBW/Hz at {f[i]:.6g} Hz is "
                     f"below the receiver floor")

    cap = capacity.get("capacity_bit_s", float("nan"))
    if not (math.isfinite(cap) and cap > 0.0):
        problems.add(f"{name}: capacity {cap} is not finite and positive")
    return problems


def _optical_depth(tau: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return -np.log(tau)


def check_sum_of_depths(total: np.ndarray, parts: list[np.ndarray],
                        label: str) -> Problems:
    """Optical depth -ln tau of ``total`` equals the sum over ``parts``.

    Compared where tau_total is a normal double (>= 1e-300); below that the
    parts must multiply to at most 1e-299.
    """
    problems = Problems()
    if any(p.shape != total.shape for p in parts):
        problems.add(f"{label}: transmittance columns differ in length")
        return problems
    od_total = _optical_depth(total)
    od_sum = sum(_optical_depth(p) for p in parts)
    normal = total >= 1e-300
    tol = 2e-9 + 1e-9 * od_total
    bad = normal & ~(np.abs(od_total - od_sum) <= tol)
    if bad.any():
        i = int(np.argmax(bad))
        problems.add(f"{label}: optical depth {od_total[i]!r} at row {i}, "
                     f"parts sum to {od_sum[i]!r}")
    if (~normal & ~(od_sum >= 690.0)).any():
        problems.add(f"{label}: total opaque where the parts are not")
    return problems


def check_identical(a: np.ndarray, b: np.ndarray, label: str) -> Problems:
    problems = Problems()
    if a.shape != b.shape or not np.array_equal(a, b):
        problems.add(f"{label}: columns differ")
    return problems


def check_weather_scaling(base: np.ndarray, scaled: np.ndarray, ratio: float,
                          label: str) -> Problems:
    """``scaled`` equals ``ratio`` times ``base`` at every frequency."""
    problems = Problems()
    if base.shape != scaled.shape:
        problems.add(f"{label}: columns differ in length")
        return problems
    if not (base > 0.0).all():
        problems.add(f"{label}: weather loss is not positive everywhere")
    bad = ~(np.abs(scaled - ratio * base) <= 5e-9 * np.abs(ratio * base))
    if bad.any():
        i = int(np.argmax(bad))
        problems.add(f"{label}: {scaled[i]!r} at row {i}, expected "
                     f"{ratio!r} x {base[i]!r}")
    return problems


def check_altitude_sweep(cfg: dict, sweep: dict, altitudes: list[float],
                         rising: bool) -> Problems:
    """Rows present for every altitude, capacity positive, and absorption
    (path loss minus free-space loss plus both dish gains) monotone in
    altitude at every frequency: rising for A2E, falling for A2S."""
    problems = Problems()
    f = grid_hz(cfg)
    name = f"{cfg['kind']} sweep"
    pl_rows = sweep.get("path_loss_db", {})
    if sorted(pl_rows) != sorted(altitudes):
        problems.add(f"{name}: altitudes {sorted(pl_rows)} != {altitudes}")
        return problems
    for metric in ("path_loss_db", "snr_db"):
        for h in altitudes:
            values = sweep.get(metric, {}).get(h)
            if values is None or values.shape != f.shape:
                problems.add(f"{name}: {metric} at {h} m lacks rows")
                return problems
            if np.isnan(values).any():
                problems.add(f"{name}: NaN {metric} at {h} m")
    for h in altitudes:
        cap = sweep.get("capacity_bit_s", {}).get(h)
        if cap is None or cap.size != 1 or not (np.isfinite(cap[0])
                                                and cap[0] > 0.0):
            problems.add(f"{name}: capacity at {h} m is not positive")

    absorption = []
    for h in sorted(altitudes):
        point = dict(cfg, h_airplane_km=h / 1e3)
        a = pl_rows[h] - fspl_db(f, slant_range(point)) + gains_db(cfg, f)
        absorption.append(np.where(pl_rows[h] > OPAQUE_DB, np.inf, a))
    absorption = np.array(absorption)
    with np.errstate(invalid="ignore"):
        step = np.diff(absorption, axis=0)
    step = np.where(np.isnan(step), 0.0, step)   # opaque to opaque
    if not rising:
        step = -step
    bad = step < -DB_TOL
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        problems.add(f"{name}: absorption at {f[j]:.6g} Hz goes the wrong way "
                     f"between {sorted(altitudes)[i]} m and the next point")
    if (absorption < -DB_TOL).any():
        problems.add(f"{name}: negative absorption")
    return problems
