"""Scenario configuration, resolution, and batch execution.

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
    AbsorptionSpectrum,
    absorbing_layers,
    absorption_coefficient,
)
from .atmosphere import (
    DEFAULT_GROUND_HUMIDITY,
    DEFAULT_LAYER_RESOLUTION,
    DEFAULT_WATER_SCALE_HEIGHT,
    MAX_ALTITUDE,
    AtmosphericState,
    Layer,
    LayerStack,
    build_layers,  # noqa: F401  perfbench/layertrace.py traces it by this name
    layer_bounds,
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
    cloud_attenuation,
    dish_gain,
    rain_attenuation,
    spreading_loss,
    total_path_loss,
    transmittance,
)
from .errors import ConfigError, DegenerateGeometry
from .geometry import (
    LinkEndpoints,
    central_angle_for_elevation,
    elevation_angle,
    layer_path_segments,
    shell_path_length,
    slant_range,
)
from .link import (
    LinkBudget,
    SkyPath,
    TransceiverConfig,
    capacity as shannon_capacity,
    modulation_threshold,
    snr as compute_snr,
    thermal_noise_psd,
    total_noise_psd,
)

KINDS = ("A2S", "S2A", "E2A", "A2E", "E2S", "S2E", "A2A")

_GHZ = 1e9
_KM = 1e3
# SI factor of each unit suffix a config key can end in; the others are SI
_SI_SCALE = {"km": _KM, "ghz": _GHZ, "mw": 1e-3}

# Survey grids with more points are refused before any allocation.
MAX_GRID_POINTS = 100_000
BAND_POINTS = 129
# Layers times frequencies (survey plus band) sizes every per-layer array;
# E2S on the default config, the largest in use, needs 1,000 x 430.
MAX_LAYER_POINTS = 20_000_000

# Config key -> (Scenario field, whether it may be 0) of each number a
# scenario holds in SI units; a value must also be finite. Config parsing
# and the Scenario rules both read this table.
_SCENARIO_KEYS = {
    "h_airplane_km": ("h_airplane", True),
    "h_ground_m": ("h_ground", True),
    "rain_rate_mm_h": ("rain_rate", True),
    "rain_base_km": ("rain_base", True),
    "rain_thickness_km": ("rain_thickness", True),
    "cloud_density_g_m3": ("cloud_density", True),
    "cloud_base_km": ("cloud_base", True),
    "cloud_thickness_km": ("cloud_thickness", True),
    "ground_humidity_vmr": ("ground_humidity", True),
    "h_satellite_km": ("h_satellite", False),
    "link_distance_m": ("link_distance", False),
    "f_min_ghz": ("f_min", False),
    "f_max_ghz": ("f_max", False),
    "f_step_ghz": ("f_step", False),
    "atmosphere_top_km": ("atmosphere_top", False),
    "layer_resolution_m": ("layer_resolution", False),
    "water_scale_height_m": ("water_scale_height", False),
    "wing_cutoff_ghz": ("wing_cutoff", False),
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
        for key, (name, zero_ok) in _SCENARIO_KEYS.items():
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
        require(tx.center_frequency - tx.bandwidth / 2.0 > 0.0,
                "center_frequency_ghz", "band must not extend below 0 Hz")
        band = capacity_band(tx)
        require(np.all(np.diff(band) > 0.0), "bandwidth_ghz",
                f"{tx.bandwidth:g} Hz around {tx.center_frequency:g} Hz does "
                f"not hold {BAND_POINTS} distinct frequencies")

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
            # layer_bounds makes ceil(stack top / resolution) layers
            layers = (min(self.atmosphere_top, self.endpoints()[1])
                      / self.layer_resolution)
            if layers < MAX_LAYER_POINTS:   # the ceiling of inf would raise
                layers = math.ceil(layers)
            points = math.floor(span) + 1 + BAND_POINTS
            require(layers * points <= MAX_LAYER_POINTS, "layer_resolution_m",
                    f"{layers:,} layers on {points:,} frequencies exceed "
                    f"{MAX_LAYER_POINTS:,} layer-frequency points")

        # An inf times a 0 is NaN, so every factor of the budget must be
        # finite and nonzero. The free-space loss with both dish gains and
        # the thermal noise each fall with frequency, so the ends of the
        # grid and of the band bound every point.
        freqs = np.array([grid[0], grid[-1], band[0], band[-1]])
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
        return dataclasses.replace(self, central_angle=rho)

    def _altitude(self, letter: str) -> float:
        """Altitude of the terminal a kind names by ``letter``."""
        return {"A": self.h_airplane, "S": self.h_satellite,
                "E": self.h_ground}[letter]

    def endpoints(self) -> tuple[float, float]:
        """(h_low, h_high) of the two terminals, lower first."""
        a, b = self._altitude(self.kind[0]), self._altitude(self.kind[2])
        return (min(a, b), max(a, b))

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


_DEFAULTS: dict[str, float | str | None] = {
    "kind": "A2S",
    "h_airplane_km": 11.0,
    "h_satellite_km": 500.0,
    "h_ground_m": 0.0,
    "central_angle_deg": 0.0,
    "elevation_deg": None,
    "link_distance_m": 100.0,
    "f_min_ghz": 100.0,
    "f_max_ghz": 400.0,
    "f_step_ghz": 1.0,
    "tx_power_mw": 1.0,
    "bandwidth_ghz": 5.0,
    "center_frequency_ghz": 300.0,
    "noise_figure_db": 10.0,
    "rx_temperature_k": 296.0,
    "tx_dish_diameter_m": 0.5,
    "tx_dish_efficiency": 1.0,
    "rx_dish_diameter_m": 1.0,
    "rx_dish_efficiency": 1.0,
    "rain_rate_mm_h": 0.0,
    "rain_base_km": 0.0,
    "rain_thickness_km": 0.0,
    "cloud_density_g_m3": 0.0,
    "cloud_base_km": 0.7,
    "cloud_thickness_km": 1.0,
    "layer_resolution_m": DEFAULT_LAYER_RESOLUTION,
    "atmosphere_top_km": 500.0,
    "ground_humidity_vmr": DEFAULT_GROUND_HUMIDITY,
    "water_scale_height_m": DEFAULT_WATER_SCALE_HEIGHT,
    "catalog_path": "bundled",
    "wing_cutoff_ghz": DEFAULT_WING_CUTOFF / _GHZ,
}


def parse_config(path) -> Scenario:
    """Parse and validate a scenario config file."""
    values: dict[str, float | str] = {}
    seen: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
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

    fields = {name: si(key) for key, (name, _) in _SCENARIO_KEYS.items()}
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


def capacity_band(tx: TransceiverConfig) -> np.ndarray:
    """The :data:`BAND_POINTS` frequencies the capacity integral runs over."""
    return np.linspace(tx.center_frequency - tx.bandwidth / 2.0,
                       tx.center_frequency + tx.bandwidth / 2.0, BAND_POINTS)


class SpectrumCache:
    """Cache of per-layer states, live marks and absorption spectra.

    In memory a layer is kept by its bounds and sampled altitude under the
    stack-wide facts, so the points of a sweep share each distinct layer.
    On disk, keys combine the kernel version, the digest of the loaded lines,
    the atmospheric state, the grid, and the wing cutoff, so catalogs holding
    the same lines share their entries, and entries of an older kernel miss.
    Values are exact, so caching never changes results. A disk entry is
    ``np.save``'s bytes followed by the SHA-256 of the key and those bytes;
    an entry whose digest is missing or does not match is a miss: it is
    computed again and rewritten.
    """

    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        # stack-wide facts -> {(lower, upper, altitude): (layer, kappa)}
        self._layers: dict[tuple, dict[tuple, tuple]] = {}

    @staticmethod
    def key(lines_sha: str, state: AtmosphericState, grid: np.ndarray,
            wing_cutoff: float) -> str:
        hasher = hashlib.sha256(struct.pack("<q", KERNEL_VERSION))
        hasher.update(lines_sha.encode())
        hasher.update(struct.pack("<ddd", state.altitude, state.pressure,
                                  state.temperature))
        for name in sorted(state.mixing_ratios):
            hasher.update(name.encode())
            hasher.update(struct.pack("<d", state.mixing_ratios[name]))
        hasher.update(struct.pack("<d", wing_cutoff))
        hasher.update(grid.tobytes())
        return hasher.hexdigest()

    def get_or_compute(self, key: str, compute) -> np.ndarray:
        """The valid disk entry of ``key``, else ``compute()``, saved."""
        if self.directory is None:
            return compute()
        path = self.directory / f"{key}.npy"
        try:
            entry = path.read_bytes()
        except OSError:
            entry = b""
        if entry == _with_digest(key, entry[:-_DIGEST_SIZE]):
            return np.load(io.BytesIO(entry))   # it stops before the digest
        kappa = compute()
        buffer = io.BytesIO()
        np.save(buffer, kappa)
        # unique temp name per writer: processes sharing the directory may
        # race on the same key, and both replacements carry identical bytes
        tmp = path.with_name(f"{key}.{uuid.uuid4().hex}.tmp.npy")
        tmp.write_bytes(_with_digest(key, buffer.getvalue()))
        tmp.replace(path)
        return kappa

    def layers(self, scenario: Scenario, catalog: LineCatalog,
               grid: np.ndarray,
               spans) -> list[tuple[Layer, np.ndarray | None]]:
        """(layer, kappa) of each ``(lower, upper, altitude)`` span, the state
        sampled at ``altitude`` and kappa None where no line is live. Only a
        span new under these facts gets a state, a live mark and a key."""
        w0, scale = scenario.ground_humidity, scenario.water_scale_height
        cutoff, sha = scenario.wing_cutoff, catalog.lines_sha256
        known = self._layers.setdefault(
            (sha, grid.tobytes(), cutoff, w0, scale), {})
        new = [span for span in spans if span not in known]
        states = [profile_at(z, w0, scale) for _, _, z in new]
        live = absorbing_layers(catalog, states, grid, cutoff)
        for span, state, on in zip(new, states, live):
            kappa = self.get_or_compute(
                self.key(sha, state, grid, cutoff),
                lambda: absorption_coefficient(
                    catalog, state, grid, cutoff).kappa) if on else None
            known[span] = Layer(span[0], span[1], state), kappa
        return [known[span] for span in spans]


_DIGEST_SIZE = 32   # bytes of the SHA-256 that ends a disk cache entry


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
    """Load the scenario's catalog over the grid window plus the wing cutoff.

    The window also covers the transceiver band so the capacity integral
    sees the same lines even when the band sits outside the survey grid.
    """
    path = scenario.catalog_path
    if path == "bundled":
        path = bundled_catalog_path()
    band = capacity_band(scenario.transceiver)
    f_low = min(float(grid[0]), float(band[0]))
    f_high = max(float(grid[-1]), float(band[-1]))
    nu_min = max(frequency_to_wavenumber(f_low - scenario.wing_cutoff), 0.0)
    nu_max = frequency_to_wavenumber(f_high + scenario.wing_cutoff)
    catalog = load_catalog(path, nu_min, nu_max)
    if catalog.parse_errors:
        print(_parse_error_warning(catalog), file=sys.stderr)
    return catalog


def _parse_error_warning(catalog: LineCatalog) -> str:
    issues = catalog.parse_errors
    return (f"warning: {len(issues)} catalog record(s) failed to parse and "
            f"were skipped, the first at line {issues[0].line_number}")


def _weather_paths(scenario: Scenario) -> tuple[float, float]:
    """Lengths in m of the line of sight inside the rain and the cloud."""
    def through(base: float, thickness: float) -> float:
        if scenario.kind == "A2A":
            inside = (thickness > 0.0
                      and base <= scenario.h_airplane <= base + thickness)
            return scenario.link_distance if inside else 0.0
        h_low, h_high = scenario.endpoints()
        return shell_path_length(h_low, scenario.line_of_sight[1], base,
                                 min(base + thickness, h_high))

    return (through(scenario.rain_base, scenario.rain_thickness),
            through(scenario.cloud_base, scenario.cloud_thickness))


def _path_quantities(scenario: Scenario, catalog: LineCatalog,
                     grid: np.ndarray, cache: SpectrumCache):
    """Transmittance and sky view for the scenario on a grid.

    Only the traversed layers with a live line reach the cache and the
    kernel; the sky is None, the vacuum's, where no layer has one.
    """
    h_low, h_high = scenario.endpoints()
    if scenario.kind == "A2A":
        # one homogeneous layer stands in for the constant-altitude path
        entries = cache.layers(scenario, catalog, grid,
                               [(h_low, h_low + 1.0, h_low)])
        segments = ((0, scenario.link_distance),)
    else:
        bounds = layer_bounds(0.0, min(scenario.atmosphere_top, h_high),
                              scenario.layer_resolution)
        entries = cache.layers(scenario, catalog, grid,
                               [span for span in bounds if span[1] > h_low])
        stack = LayerStack(tuple(layer for layer, _ in entries), bounds[-1][1])
        segments = layer_path_segments(h_low, scenario.line_of_sight[1],
                                       stack)
    layers, kappas = zip(*entries)
    # A layer without a live line has kappa +0.0 everywhere: it adds +0.0
    # optical depth, has tau 1.0 and emits nothing, and the sums and
    # products over layers run row by row, so leaving it out moves no byte.
    live = np.array([kappa is not None for kappa in kappas])
    from_rx = slice(None, None, -1 if scenario.rx_altitude >= h_high else 1)
    temps = np.array([layer.state.temperature for layer in layers])
    # the one figure of the sky that depends on every traversed layer
    transparent_temperature = np.mean(temps[from_rx])
    segments = [segment for segment, on in zip(segments, live) if on]
    spectra = {i: AbsorptionSpectrum(grid=grid, kappa=kappas[i],
                                     state=layers[i].state)
               for i, _ in segments}
    tau = transmittance(grid, segments, spectra)
    if not segments:
        return tau, None

    layer_taus = np.empty((len(segments), grid.size))
    for row, (i, length) in zip(layer_taus, segments):
        np.exp(-spectra[i].kappa * length, out=row)
    sky = SkyPath(temps[live][from_rx], layer_taus[from_rx],
                  transparent_temperature)
    return tau, sky


def resolve(scenario: Scenario, cache: SpectrumCache | None = None,
            catalog: LineCatalog | None = None,
            with_capacity: bool = True) -> ResolvedLink:
    """Compute the full link budget for a scenario.

    The model runs once, on the survey grid merged with the capacity band,
    and each part is taken from it by index; every stage is pointwise in
    frequency, so a part equals a run on its own grid.
    ``with_capacity=False`` leaves the band out and the capacity NaN.
    Without a ``cache``, the spectra are kept in a new in-memory one.
    """
    if cache is None:
        cache = SpectrumCache()
    survey = make_grid(scenario.f_min, scenario.f_max, scenario.f_step)
    if catalog is None:
        catalog = load_scenario_catalog(scenario, survey)
    tx = scenario.transceiver
    grid = survey
    if with_capacity:
        band = capacity_band(tx)
        grid = np.union1d(survey, band)
    part = np.searchsorted(grid, survey)

    tau, sky = _path_quantities(scenario, catalog, grid, cache)

    rain_path, cloud_path = _weather_paths(scenario)
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
    snr_values = compute_snr(grid, path_loss, noise, tx)

    capacity = float("nan")
    if with_capacity:
        capacity = shannon_capacity(
            band, snr_values[np.searchsorted(grid, band)])

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


def describe(scenario: Scenario) -> str:
    """Human-readable dump of a resolved scenario."""
    lines = [f"scenario {scenario.kind}"]
    for field in dataclasses.fields(scenario):
        value = getattr(scenario, field.name)
        lines.append(f"  {field.name} = {value}")
    return "\n".join(lines)


def _texts(column: np.ndarray) -> list[str]:
    """The values of ``column`` at ``.10g``, as the CSVs write numbers."""
    return list(map("%.10g".__mod__, column.tolist()))


def _rows(template: str, *columns: list):
    """One ``%``-``template`` line per row of the lists ``columns``. Python
    floats format faster than numpy scalars, and ``"%.10g" % x`` gives the
    text of ``f"{x:.10g}"``."""
    return map(template.__mod__, zip(*columns))


def _write_csv(path: Path, provenance: str, header: str, rows) -> None:
    """Write a ``# provenance`` comment, the header row, then ``rows``, each
    already formatted and ending in a newline."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {provenance}\n{header}\n")
        fh.writelines(rows)


def write_outputs(resolved: ResolvedLink, out_dir: Path) -> list[Path]:
    """Write path-loss, SNR, and capacity CSVs plus a summary. Returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = resolved.provenance
    scenario = resolved.scenario
    paths = [out_dir / name for name in ("path_loss.csv", "snr.csv",
                                         "capacity.csv", "summary.txt")]

    freqs = _texts(resolved.grid)
    _write_csv(paths[0], prov,
               "frequency_hz,path_loss_db,tau,fspl_db,rain_db,cloud_db",
               _rows("%s,%.10g,%.10g,%.10g,%.10g,%.10g\n", freqs,
                     *(column.tolist() for column in (
                         resolved.path_loss_db, resolved.tau,
                         resolved.fspl_db, resolved.rain_db,
                         resolved.cloud_db))))

    with np.errstate(divide="ignore"):
        noise_db = 10.0 * np.log10(resolved.noise_psd)
    _write_csv(paths[1], prov, "frequency_hz,snr_db,noise_psd_dbw_hz",
               _rows("%s,%.10g,%.10g\n", freqs, resolved.snr_db.tolist(),
                     noise_db.tolist()))

    tx = scenario.transceiver
    bpsk = modulation_threshold("BPSK", 1e-6)
    qam16 = modulation_threshold("16QAM", 1e-6)
    _write_csv(paths[2], prov, "quantity,value", [
        f"capacity_bit_s,{resolved.budget.capacity:.10g}\n",
        f"center_frequency_hz,{tx.center_frequency:.10g}\n",
        f"bandwidth_hz,{tx.bandwidth:.10g}\n",
        f"bpsk_snr_db_for_bep_1e-6,{10 * math.log10(bpsk):.10g}\n",
        f"qam16_snr_db_for_bep_1e-6,{10 * math.log10(qam16):.10g}\n",
    ])

    with paths[3].open("w") as fh:
        fh.write(f"{prov}\n\n{describe(scenario)}\n\n")
        fh.write(f"slant range: {resolved.r_as:.3f} m\n")
        fh.write(f"elevation angle: {math.degrees(resolved.psi):.4f} deg\n")
        fh.write(f"in-atmosphere rain path: {resolved.rain_path:.1f} m, "
                 f"cloud path: {resolved.cloud_path:.1f} m\n")
        if resolved.weather_extrapolated:
            fh.write("warning: weather attenuation extrapolated beyond its "
                     "table's formal frequency range\n")
        if resolved.catalog.parse_errors:
            fh.write(f"{_parse_error_warning(resolved.catalog)}\n")
        pl_db = resolved.path_loss_db
        fh.write(f"path loss over grid: min {pl_db.min():.2f} dB, "
                 f"max {pl_db.max():.2f} dB\n")
        fh.write(f"band capacity: {resolved.budget.capacity / 1e9:.3f} Gbit/s\n")
    return paths
