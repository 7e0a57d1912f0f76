"""Scenario configuration, the spectrum cache, and resolution.

A scenario names a link kind (airplane/satellite/ground endpoints), a
frequency grid, antennas, transceiver, weather, and atmosphere controls.
Resolution turns it into per-frequency path loss, noise, SNR, and a
band-integrated capacity, reusing cached per-layer absorption spectra.

Config files are flat ``key = value`` text with explicit units embedded in
the key names; unknown keys and malformed values are rejected with the
offending line, since silent unit inference is the classic link-budget
failure mode.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import struct
import sys
import uuid
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .absorption import (
    DEFAULT_WING_CUTOFF,
    KERNEL_VERSION,
    absorbing_layers,
    absorption_coefficient,
)
from .atmosphere import (
    DEFAULT_GROUND_HUMIDITY,
    DEFAULT_LAYER_RESOLUTION,
    DEFAULT_WATER_SCALE_HEIGHT,
    MAX_ALTITUDE,
    AtmosphericState,
    build_layers,  # noqa: F401  perfbench/layertrace.py traces it by this name
    layer_bounds,
    layer_count,
    profile_at,
)
from .catalog import (
    LineCatalog,
    bundled_catalog_path,
    frequency_to_wavenumber,
    load_catalog,
)
from .channel import (
    AntennaConfig,
    _optical_depth,
    cloud_attenuation,
    dish_gain,
    rain_attenuation,
    spreading_loss,
    total_path_loss,
    transmittance,  # noqa: F401  traced by this name, as build_layers is
)
from .errors import ConfigError, DegenerateGeometry
from .geometry import (
    LinkEndpoints,
    _segment_lengths,
    central_angle_for_elevation,
    elevation_angle,
    layer_path_segments,  # noqa: F401  traced by this name, as build_layers is
    slant_range,
)
from .link import (
    LinkBudget,
    SkyPath,
    TransceiverConfig,
    capacity as shannon_capacity,
    snr as compute_snr,
    thermal_noise_psd,
    total_noise_psd,
)
from .output import parse_error_warning
from .output import write_outputs  # noqa: F401  criterion 7 imports it from here

KINDS = ("A2S", "S2A", "E2A", "A2E", "E2S", "S2E", "A2A")

_GHZ = 1e9
_KM = 1e3
# SI factor of each unit suffix a config key can end in; the others are SI
_SI_SCALE = {"km": _KM, "ghz": _GHZ, "mw": 1e-3}

# Survey grids with more points are refused before any allocation.
MAX_GRID_POINTS = 100_000
# Layers times frequencies (survey plus band) sizes every per-layer array;
# E2S on the default config, the largest in use, needs 1,000 x 430.
MAX_LAYER_POINTS = 20_000_000

# Config key -> (Scenario field, whether it may be 0, default) of each
# number a scenario holds in SI units; a value must also be finite. Config
# parsing, its defaults and the Scenario rules all read this table.
_SCENARIO_KEYS = {
    "h_airplane_km": ("h_airplane", True, 11.0),
    "h_ground_m": ("h_ground", True, 0.0),
    "rain_rate_mm_h": ("rain_rate", True, 0.0),
    "rain_base_km": ("rain_base", True, 0.0),
    "rain_thickness_km": ("rain_thickness", True, 0.0),
    "cloud_density_g_m3": ("cloud_density", True, 0.0),
    "cloud_base_km": ("cloud_base", True, 0.7),
    "cloud_thickness_km": ("cloud_thickness", True, 1.0),
    "ground_humidity_vmr": ("ground_humidity", True, DEFAULT_GROUND_HUMIDITY),
    "h_satellite_km": ("h_satellite", False, 500.0),
    "link_distance_m": ("link_distance", False, 100.0),
    "f_min_ghz": ("f_min", False, 100.0),
    "f_max_ghz": ("f_max", False, 400.0),
    "f_step_ghz": ("f_step", False, 1.0),
    "atmosphere_top_km": ("atmosphere_top", False, 500.0),
    "layer_resolution_m": ("layer_resolution", False,
                           DEFAULT_LAYER_RESOLUTION),
    "water_scale_height_m": ("water_scale_height", False,
                             DEFAULT_WATER_SCALE_HEIGHT),
    "wing_cutoff_ghz": ("wing_cutoff", False, DEFAULT_WING_CUTOFF / _GHZ),
}


@dataclass(frozen=True)
class Scenario:
    """A valid scenario, all quantities in SI units.

    Construction checks the rules about each field and about the scenario
    as a whole, and raises :class:`ConfigError` naming the config key at
    fault. The transceiver and the antennas check their own fields when
    they are made.
    """

    kind: str
    h_airplane: float
    h_satellite: float
    h_ground: float
    central_angle: float          # rad
    link_distance: float          # m, used by A2A only
    tx_antenna: AntennaConfig
    rx_antenna: AntennaConfig
    transceiver: TransceiverConfig
    rain_rate: float              # mm/h
    rain_base: float              # m
    rain_thickness: float         # m
    cloud_density: float          # g/m^3
    cloud_base: float             # m
    cloud_thickness: float        # m
    layer_resolution: float       # m
    atmosphere_top: float         # m
    ground_humidity: float        # volume mixing ratio at sea level
    water_scale_height: float     # m
    f_min: float                  # Hz
    f_max: float                  # Hz
    f_step: float                 # Hz
    catalog_path: str             # "bundled" or a filesystem path
    wing_cutoff: float            # Hz

    def __post_init__(self):
        def require(ok: bool, key: str, message: str) -> None:
            if not ok:
                raise ConfigError(message, field=key)

        kind = self.kind
        require(kind in KINDS, "kind", f"must be one of {', '.join(KINDS)}")
        # the comparisons are false for NaN, so they also reject it
        for key, (name, zero_ok, _) in _SCENARIO_KEYS.items():
            value = getattr(self, name)
            sign = "nonnegative" if zero_ok else "positive"
            require((value >= 0.0 if zero_ok else value > 0.0)
                    and value < math.inf, key,
                    f"must be {sign} and finite in SI units, got {value:g}")
        require(self.atmosphere_top <= MAX_ALTITUDE, "atmosphere_top_km",
                f"profiles end at {MAX_ALTITUDE / _KM:.0f} km")
        require(self.ground_humidity < 1.0, "ground_humidity_vmr",
                "is a volume mixing ratio, must be < 1")

        # the key that moves the higher terminal apart from the lower one
        upper_key = ("h_satellite_km" if kind in ("E2S", "S2E")
                     else "h_airplane_km")
        if kind in ("A2S", "S2A"):
            require(self.h_airplane < self.h_satellite, upper_key,
                    "airplane must be below the satellite")
        elif kind in ("E2A", "A2E"):
            require(self.h_ground < self.h_airplane, upper_key,
                    "airplane must be above the ground terminal")
        elif kind in ("E2S", "S2E"):
            require(self.h_ground < self.h_satellite, upper_key,
                    "satellite must be above the ground terminal")
        if "A" in (kind[0], kind[2]):
            require(self.h_airplane < self.atmosphere_top, "h_airplane_km",
                    "airplane must be inside the atmosphere")
        if "E" in (kind[0], kind[2]):
            require(self.h_ground < self.atmosphere_top, "h_ground_m",
                    "ground terminal must be inside the atmosphere")
        require(0.0 <= self.central_angle < math.pi / 2, "central_angle_deg",
                f"must be in [0, 90), got "
                f"{math.degrees(self.central_angle):g} deg")

        require(self.f_min < self.f_max, "f_min_ghz",
                "must be below f_max_ghz")
        span = _grid_span(self.f_min, self.f_max, self.f_step)
        require(span < MAX_GRID_POINTS, "f_step_ghz",
                f"grid of more than {MAX_GRID_POINTS} points ({self.f_min:g} "
                f"to {self.f_max:g} Hz in steps of {self.f_step:g} Hz)")
        grid = make_grid(self.f_min, self.f_max, self.f_step)
        require(np.all(np.diff(grid) > 0.0), "f_step_ghz",
                f"{self.f_step:g} Hz from {self.f_min:g} Hz does not give "
                f"distinct frequencies")

        tx = self.transceiver
        try:
            distance, psi = self.line_of_sight
        except DegenerateGeometry:
            # the terminals are apart, but not in double precision
            raise ConfigError("terminals coincide in double precision",
                              field=upper_key) from None
        if kind != "A2A":
            require(psi > 0.0, "central_angle_deg",
                    f"geometry gives a non-positive elevation angle "
                    f"({math.degrees(psi):.4f} deg); reduce central_angle_deg")
            layers = layer_count(0.0, self.stack_top, self.layer_resolution)
            points = math.floor(span) + 1 + tx.band.size
            require(layers * points <= MAX_LAYER_POINTS, "layer_resolution_m",
                    f"{layers:,} layers on {points:,} frequencies exceed "
                    f"{MAX_LAYER_POINTS:,} layer-frequency points")

        # An inf times a 0 is NaN, so every factor of the budget must be
        # finite and nonzero. The free-space loss with both dish gains and
        # the thermal noise each fall with frequency, so the ends of the
        # grid and of the band bound every point.
        freqs = np.array([grid[0], grid[-1], tx.band[0], tx.band[-1]])
        keys = ("f_min_ghz", "f_max_ghz") + ("center_frequency_ghz",) * 2
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            loss = total_path_loss(freqs, distance, 1.0,
                                   dish_gain(self.tx_antenna, freqs),
                                   dish_gain(self.rx_antenna, freqs))
            noise = thermal_noise_psd(freqs, tx.rx_temperature,
                                      tx.noise_figure)
        for key, f, loss_f, noise_f in zip(keys, freqs, loss, noise):
            require(0.0 < loss_f < math.inf, key,
                    f"spreading loss and dish gains give a free-space loss "
                    f"of {loss_f:g} at {f:g} Hz over {distance:g} m; it must "
                    f"be finite and nonzero")
            require(0.0 < noise_f < math.inf, "rx_temperature_k",
                    f"thermal noise of {noise_f:g} W/Hz at {f:g} Hz; it "
                    f"must be finite and nonzero")

    def at_elevation(self, degrees: float) -> Scenario:
        """This scenario with the central angle at which the line of sight
        leaves the lower terminal at ``degrees`` of elevation, in (0, 90]."""
        if self.kind == "A2A":
            raise ConfigError("not applicable to A2A links",
                              field="elevation_deg")
        psi = math.radians(degrees)
        if not 0.0 < psi <= math.pi / 2:
            raise ConfigError(f"must be in (0, 90], got {degrees:g}",
                              field="elevation_deg")
        rho = central_angle_for_elevation(*self.endpoints(), psi)
        try:
            return dataclasses.replace(self, central_angle=rho)
        except ConfigError as exc:
            if exc.field != "central_angle_deg":   # derived from ``degrees``
                raise
            raise ConfigError(f"{degrees:g} deg is too close to the horizon",
                              field="elevation_deg") from None

    def _altitude(self, letter: str) -> float:
        """Altitude of the terminal a kind names by ``letter``."""
        return {"A": self.h_airplane, "S": self.h_satellite,
                "E": self.h_ground}[letter]

    def endpoints(self) -> tuple[float, float]:
        """(h_low, h_high) of the two terminals, lower first."""
        a, b = self._altitude(self.kind[0]), self._altitude(self.kind[2])
        return (min(a, b), max(a, b))

    @property
    def stack_top(self) -> float:
        """Top of the layer stack: the atmosphere's, or the higher
        terminal's when that is lower."""
        return min(self.atmosphere_top, self.endpoints()[1])

    @property
    def rx_altitude(self) -> float:
        return self._altitude(self.kind[2])

    @cached_property
    def line_of_sight(self) -> tuple[float, float]:
        """(slant range in m, elevation angle in rad) at the lower terminal;
        an A2A link is level and ``link_distance`` long."""
        if self.kind == "A2A":
            return self.link_distance, 0.0
        ends = LinkEndpoints(*self.endpoints(), self.central_angle)
        return slant_range(ends), elevation_angle(ends)


# Default of each config key: those outside _SCENARIO_KEYS, then its own.
_DEFAULTS: dict[str, float | str | None] = {
    "kind": "A2S",
    "central_angle_deg": 0.0,
    "elevation_deg": None,
    "tx_power_mw": 1.0,
    "bandwidth_ghz": 5.0,
    "center_frequency_ghz": 300.0,
    "noise_figure_db": 10.0,
    "rx_temperature_k": 296.0,
    "tx_dish_diameter_m": 0.5,
    "tx_dish_efficiency": 1.0,
    "rx_dish_diameter_m": 1.0,
    "rx_dish_efficiency": 1.0,
    "catalog_path": "bundled",
} | {key: default for key, (_, _, default) in _SCENARIO_KEYS.items()}


def parse_config(path) -> Scenario:
    """Parse and validate a scenario config file."""
    values: dict[str, float | str] = {}
    seen: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc

    # text mode has ended every line at \n, \r\n or a lone \r with \n;
    # str.splitlines would also split at a form feed inside a comment
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in seen:
            raise ConfigError(f"duplicate of line {seen[key]}", field=key,
                              line=lineno)
        seen[key] = lineno
        if key in ("kind", "catalog_path"):
            values[key] = value
        else:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(f"not a number: {value!r}", field=key,
                                  line=lineno) from None
    return build_scenario(values, seen)


def build_scenario(values: dict, seen: dict[str, int] | None = None) -> Scenario:
    """Construct a :class:`Scenario` from config values; a key left out
    takes its default. Here are only the refusal of a key with no default,
    the conversion to SI units, checked finite, and the rule that
    ``elevation_deg`` and ``central_angle_deg`` exclude each other. Every
    other rule belongs to the type that owns the value; its error gains the
    line of the key it names, and an antenna's error the ``tx_`` or ``rx_``
    prefix of its end.
    """
    seen = seen or {}

    def fail(field: str, message: str):
        raise ConfigError(message, field=field, line=seen.get(field))

    for key in values:
        if key not in _DEFAULTS:
            fail(key, "unknown key")
    given, values = values, _DEFAULTS | values

    def si(field: str) -> float:
        """The value of ``field`` in SI units, checked finite."""
        v = float(values[field]) * _SI_SCALE.get(field.rsplit("_", 1)[1], 1.0)
        if not math.isfinite(v):
            fail(field, f"must be finite in SI units, got {values[field]}")
        return v

    def antenna(end: str) -> AntennaConfig:
        diameter = si(f"{end}_dish_diameter_m")
        efficiency = si(f"{end}_dish_efficiency")
        try:
            return AntennaConfig(diameter, efficiency)
        except ConfigError as exc:
            fail(f"{end}_{exc.field}", exc.message)

    elevation = values["elevation_deg"]
    if elevation is not None and "central_angle_deg" in given:
        fail("elevation_deg",
             "give either elevation_deg or central_angle_deg, not both")

    fields = {name: si(key) for key, (name, _, _) in _SCENARIO_KEYS.items()}
    fields.update(
        kind=str(values["kind"]).upper(),
        central_angle=0.0 if elevation is not None
        else math.radians(si("central_angle_deg")),
        tx_antenna=antenna("tx"),
        rx_antenna=antenna("rx"),
        catalog_path=str(values["catalog_path"]),
    )
    transceiver = dict(
        tx_power=si("tx_power_mw"),
        bandwidth=si("bandwidth_ghz"),
        center_frequency=si("center_frequency_ghz"),
        noise_figure=si("noise_figure_db"),
        rx_temperature=si("rx_temperature_k"),
    )
    try:
        scenario = Scenario(transceiver=TransceiverConfig(**transceiver),
                            **fields)
        if elevation is not None:
            scenario = scenario.at_elevation(si("elevation_deg"))
    except ConfigError as exc:
        fail(exc.field, exc.message)
    return scenario


def _grid_span(f_min: float, f_max: float, f_step: float) -> float:
    """Steps from f_min to f_max, plus a rounding allowance of 1e-9 step."""
    return (f_max - f_min) / f_step + 1e-9


def make_grid(f_min: float, f_max: float, f_step: float) -> np.ndarray:
    """Uniform frequency grid from f_min to at most f_max, inclusive."""
    span = _grid_span(f_min, f_max, f_step)
    return f_min + f_step * np.arange(int(math.floor(span)) + 1)


class SpectrumCache:
    """Cache of layer stacks, live marks and absorption spectra.

    In memory it keeps one layer table, that of the last stack-wide facts:
    each layer's temperature and kappa row (-1: no live line), and each
    stack's layers as arrays, which the points of a sweep share. A caller
    that alternates grids reads its disk entries again or recomputes them.
    One digest names the table; it hashes the kernel version, the loaded
    lines' digest, the grid's bytes, the wing cutoff, the ground humidity
    and the water scale height. A disk key hashes it and a layer's state.
    An entry is the ``np.save`` bytes of a float64 vector of the grid's
    length, then the SHA-256 of the key and those bytes; any other entry
    is a miss, computed again and rewritten. Values are exact, so caching
    never changes results.
    """

    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._table = None     # the layer table's digest, set by stack()
        self._entry = b"", 0   # np.save header, data bytes: set per table

    @staticmethod
    def key(table: bytes, state: AtmosphericState) -> str:
        hasher = hashlib.sha256(table)
        hasher.update(struct.pack("<ddd", state.altitude, state.pressure,
                                  state.temperature))
        for name in sorted(state.mixing_ratios):
            hasher.update(name.encode())
            hasher.update(struct.pack("<d", state.mixing_ratios[name]))
        return hasher.hexdigest()

    def get_or_compute(self, key: str, compute) -> np.ndarray:
        """The valid disk entry of ``key``, else ``compute()``, saved. Before
        any :meth:`stack` call fixes the grid, no file is read or written."""
        header, size = self._entry
        if self.directory is None or not header:
            return compute()
        path = self.directory / f"{key}.npy"
        try:
            entry = path.read_bytes()
        except OSError:
            entry = b""
        data = entry[len(header):len(header) + size]
        if entry == _with_digest(key, header + data):
            return np.frombuffer(data)
        kappa = compute()
        # unique temp name per writer: processes sharing the directory may
        # race on the same key, and both replacements carry identical bytes
        tmp = path.with_name(f"{key}.{uuid.uuid4().hex}.tmp.npy")
        try:
            tmp.write_bytes(_with_digest(key, header + kappa.tobytes()))
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return kappa

    def stack(self, scenario: Scenario, catalog: LineCatalog,
              grid: np.ndarray, h_start: float):
        """The kappa matrix, the stack, and its first layer above ``h_start``,
        filled from there up; only new layers get a state, mark and key."""
        w0, scale = scenario.ground_humidity, scenario.water_scale_height
        cutoff = scenario.wing_cutoff
        table = hashlib.sha256(
            struct.pack("<qddd", KERNEL_VERSION, cutoff, w0, scale)
            + catalog.lines_sha256.encode() + grid.tobytes()).digest()
        if table != self._table:
            self._table, self._layers, self._stacks = table, {}, {}
            self._kappa, self._count = np.empty((0, grid.size)), 0
            np.lib.format.write_array_header_1_0(
                header := io.BytesIO(),
                np.lib.format.header_data_from_array_1_0(np.empty(grid.size)))
            self._entry = header.getvalue(), grid.nbytes
        if scenario.kind == "A2A":
            # one homogeneous layer stands in for the constant-altitude path
            stack = _Stack([(h_start, h_start + 1.0, h_start)])
        else:
            shape = (scenario.stack_top, scenario.layer_resolution)
            if (stack := self._stacks.get(shape)) is None:
                stack = self._stacks[shape] = _Stack(layer_bounds(0.0, *shape))
        first = int(np.searchsorted(stack.upper, h_start, side="right"))
        if first < stack.filled:
            spans = stack.bounds[first:stack.filled]
            new = [span for span in spans if span not in self._layers]
            states = [profile_at(z, w0, scale) for _, _, z in new]
            live = absorbing_layers(catalog, states, grid, cutoff)
            rows = self._count + int(live.sum())
            if rows > len(self._kappa):   # grows at least twofold
                self._kappa = np.resize(self._kappa, (
                    max(rows, 2 * len(self._kappa)), grid.size))
            for span, state, on in zip(new, states, live):
                if on:
                    self._kappa[self._count] = self.get_or_compute(
                        self.key(table, state),
                        lambda: absorption_coefficient(
                            catalog, state, grid, cutoff).kappa)
                    self._count += 1
                self._layers[span] = (state.temperature,
                                      self._count - 1 if on else -1)
            filled = slice(first, stack.filled)
            stack.temperature[filled], stack.row[filled] = zip(
                *map(self._layers.__getitem__, spans))
            stack.filled = first
        return self._kappa, stack, first


class _Stack:
    """A stack's layers, bottom to top, as arrays: bounds, temperature and
    kappa row, filled from ``filled`` up, lower once a path starts lower."""

    def __init__(self, bounds: list[tuple[float, float, float]]):
        self.bounds, self.filled = bounds, len(bounds)
        self.lower, self.upper, _ = np.array(bounds).T
        self.temperature = np.empty(self.filled)
        self.row = np.empty(self.filled, int)


def _with_digest(key: str, body: bytes) -> bytes:
    """A disk entry: ``body``, its ``np.save`` bytes, then the SHA-256 of its
    key and those bytes. A changed, truncated or swapped entry does not end
    in its own digest."""
    return body + hashlib.sha256(key.encode() + body).digest()


@dataclass
class ResolvedLink:
    """What the outputs report for one scenario on its survey grid."""

    scenario: Scenario
    grid: np.ndarray
    catalog: LineCatalog
    tau: np.ndarray
    fspl_db: np.ndarray
    rain_db: np.ndarray
    cloud_db: np.ndarray
    rain_path: float            # m
    cloud_path: float           # m
    weather_extrapolated: bool  # at some survey frequency, rain or cloud
    path_loss: np.ndarray       # linear
    noise_psd: np.ndarray
    snr: np.ndarray
    budget: LinkBudget

    @property
    def r_as(self) -> float:
        return self.scenario.line_of_sight[0]

    @property
    def psi(self) -> float:
        return self.scenario.line_of_sight[1]

    @property
    def path_loss_db(self) -> np.ndarray:
        return 10.0 * np.log10(self.path_loss)

    @property
    def snr_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.snr)

    @property
    def provenance(self) -> str:
        return (f"thzlink {__version__} "
                f"catalog_sha256={self.catalog.file_sha256[:16]}")


def load_scenario_catalog(scenario: Scenario, grid: np.ndarray) -> LineCatalog:
    """Load the scenario's catalog over the grid window plus the wing cutoff."""
    path = scenario.catalog_path
    if path == "bundled":
        path = bundled_catalog_path()
    nu_min = max(frequency_to_wavenumber(
        float(grid[0]) - scenario.wing_cutoff), 0.0)
    nu_max = frequency_to_wavenumber(float(grid[-1]) + scenario.wing_cutoff)
    catalog = load_catalog(path, nu_min, nu_max)
    if catalog.parse_errors:
        print(parse_error_warning(catalog), file=sys.stderr)
    return catalog


def _lengths(scenario: Scenario, lower, upper) -> np.ndarray:
    """Lengths in m of the line of sight inside shells from ``lower`` to
    ``upper``, measured between the terminals. An A2A link is level: it is
    ``link_distance`` long inside a shell that holds the airplane."""
    if scenario.kind == "A2A":
        h = scenario.h_airplane
        inside = (lower < upper) & (lower <= h) & (h <= upper)
        return np.where(inside, scenario.link_distance, 0.0)
    # both bounds at most h_high; _segment_lengths raises them to h_low
    h_low, h_high = scenario.endpoints()
    return _segment_lengths(h_low, scenario.line_of_sight[1],
                            np.minimum(lower, h_high),
                            np.minimum(upper, h_high))


def _path_quantities(scenario: Scenario, catalog: LineCatalog,
                     grid: np.ndarray, cache: SpectrumCache):
    """Transmittance and sky view for the scenario on a grid.

    Only the traversed layers with a live line reach the cache and the
    kernel; where no layer has one, the sky has no layers.
    """
    h_low, h_high = scenario.endpoints()
    kappa, stack, first = cache.stack(scenario, catalog, grid, h_low)
    # A layer without a live line has kappa +0.0 everywhere: it adds +0.0
    # optical depth, has tau 1.0 and emits nothing, and the sums and
    # products over layers run row by row, so leaving it out moves no byte.
    live = first + np.flatnonzero(stack.row[first:] >= 0)
    lengths = _lengths(scenario, stack.lower[live], stack.upper[live])
    layers = kappa[stack.row[live]]
    tau = np.exp(-_optical_depth(layers, lengths))
    from_rx = slice(None, None, -1 if scenario.rx_altitude >= h_high else 1)
    # each layer's emissivity, 1 - exp(-kappa * length)
    np.expm1(np.negative(layers, out=layers), out=layers)
    sky = SkyPath(stack.temperature[live][from_rx],
                  np.negative(layers, out=layers)[from_rx])
    return tau, sky


def resolve(scenario: Scenario, cache: SpectrumCache | None = None,
            catalog: LineCatalog | None = None,
            with_capacity: bool = True) -> ResolvedLink:
    """Compute the full link budget for a scenario.

    The model runs once, on the survey grid merged with the capacity band,
    and each part is taken from it by index; every stage is pointwise in
    frequency, so a part equals a run on its own grid.
    ``with_capacity=False`` leaves the band out and the capacity NaN.
    Without a ``catalog``, one is loaded over the grid the model runs on.
    Without a ``cache``, the spectra are kept in a new in-memory one.
    """
    if cache is None:
        cache = SpectrumCache()
    survey = make_grid(scenario.f_min, scenario.f_max, scenario.f_step)
    tx = scenario.transceiver
    parts = (survey, tx.band) if with_capacity else (survey,)
    grid = np.sort(np.concatenate(parts))   # np.union1d imports numpy.ma
    grid = grid[np.diff(grid, prepend=-np.inf) > 0.0]
    if catalog is None:
        catalog = load_scenario_catalog(scenario, grid)
    part = np.searchsorted(grid, survey)

    tau, sky = _path_quantities(scenario, catalog, grid, cache)

    rain_path, cloud_path = _lengths(
        scenario, np.array([scenario.rain_base, scenario.cloud_base]),
        np.array([scenario.rain_base + scenario.rain_thickness,
                  scenario.cloud_base + scenario.cloud_thickness])).tolist()
    cloud_mid = scenario.cloud_base + 0.5 * scenario.cloud_thickness
    cloud_t = profile_at(min(cloud_mid, scenario.atmosphere_top),
                         scenario.ground_humidity,
                         scenario.water_scale_height).temperature
    rain_db, rain_flags = rain_attenuation(grid, scenario.rain_rate,
                                           rain_path)
    cloud_db, cloud_flags = cloud_attenuation(
        grid, scenario.cloud_density, cloud_path, cloud_t)

    g_tx = dish_gain(scenario.tx_antenna, grid)
    g_rx = dish_gain(scenario.rx_antenna, grid)
    r_as = scenario.line_of_sight[0]
    path_loss = total_path_loss(grid, r_as, tau, g_tx, g_rx,
                                rain_db=rain_db, cloud_db=cloud_db)
    noise = total_noise_psd(grid, sky, tx)
    snr_values = compute_snr(path_loss, noise, tx)

    capacity = float("nan")
    if with_capacity:
        capacity = shannon_capacity(
            tx.band, snr_values[np.searchsorted(grid, tx.band)])

    return ResolvedLink(
        scenario=scenario,
        grid=survey,
        catalog=catalog,
        tau=tau[part],
        fspl_db=-10.0 * np.log10(spreading_loss(survey, r_as)),
        rain_db=rain_db[part],
        cloud_db=cloud_db[part],
        rain_path=rain_path,
        cloud_path=cloud_path,
        weather_extrapolated=bool((rain_flags | cloud_flags)[part].any()),
        path_loss=path_loss[part],
        noise_psd=noise[part],
        snr=snr_values[part],
        budget=LinkBudget(capacity),
    )
