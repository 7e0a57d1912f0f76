"""The benchmark's four workloads.

A workload makes its inputs from a seeded ``random.Random`` (configs, and
for ``dense_catalog`` a synthetic line catalog), warms what it needs warm,
and then names the fixed list of ``thzlink`` command lines that make one
pass. After each pass it checks what the pass wrote (see ``checks``). The
amount of work in a pass does not depend on the seed: the seed moves
geometry, humidity, weather and line positions, never counts.
"""

from __future__ import annotations

import math
import random
import shutil
from pathlib import Path

import checks
from checks import Problems

# Every key the config format has, written out so runs do not depend on the
# program's defaults.
BASE_CONFIG = {
    "kind": "A2S",
    "h_airplane_km": 11.0,
    "h_satellite_km": 500.0,
    "h_ground_m": 0.0,
    "central_angle_deg": 0.0,
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
    "layer_resolution_m": 500.0,
    "atmosphere_top_km": 500.0,
    "ground_humidity_vmr": 0.0078,
    "water_scale_height_m": 2000.0,
    "catalog_path": "bundled",
    "wing_cutoff_ghz": 750.0,
}

KINDS = ("A2S", "S2A", "E2A", "A2E", "E2S", "S2E", "A2A")


def write_config(path: Path, cfg: dict) -> Path:
    lines = [f"{key} = {value if isinstance(value, str) else repr(value)}"
             for key, value in cfg.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def run_outputs(out_dir: Path) -> tuple[dict, dict, dict]:
    return (checks.read_table(out_dir / "path_loss.csv"),
            checks.read_table(out_dir / "snr.csv"),
            checks.read_quantities(out_dir / "capacity.csv"))


class Workload:
    """Base class: inputs in ``prepare``, caches in ``warm_up``, one pass of
    ``operations``, checks per pass and once per run."""

    name = ""
    setup_reps = 3      # set-up repetitions per run; setup_s is their median
    min_passes = 1      # timed passes per run, at least

    def __init__(self, run_cli):
        # run_cli(argv) -> exit code of thzlink.cli.main
        self.run_cli = run_cli
        self.root: Path | None = None
        self.configs: dict[str, dict] = {}
        self.paths: dict[str, Path] = {}

    def add_config(self, label: str, cfg: dict) -> None:
        self.configs[label] = cfg
        self.paths[label] = write_config(self.root / f"{label}.cfg", cfg)

    def run_argv(self, label: str, out_dir: Path,
                 cache_dir: Path | None = None) -> list[str]:
        cache = cache_dir if cache_dir is not None else out_dir / ".cache"
        return ["run", str(self.paths[label]), "--out-dir", str(out_dir),
                "--cache-dir", str(cache)]

    def prepare(self, root: Path, rng: random.Random) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def operations(self, pass_dir: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def points(self) -> int:
        """Survey-grid frequency points one pass delivers."""
        raise NotImplementedError

    def check_pass(self, pass_dir: Path, ok: set[str]) -> Problems:
        raise NotImplementedError

    def check_run(self) -> Problems:
        return Problems()


class ColdLinks(Workload):
    """All seven link kinds, each into a fresh output and cache directory.

    One elevation (drawn) defines one ray from the ground through the
    airplane at 11 km to the satellite at 500 km, so E2A, A2S and E2S share
    it and their optical depths must add.
    """

    name = "cold_links"
    # one pass takes 12-20 s, longer than --seconds; two give a median
    min_passes = 2

    def prepare(self, root, rng):
        self.root = root
        elevation = math.radians(rng.uniform(30.0, 89.0))
        base = dict(BASE_CONFIG,
                    ground_humidity_vmr=rng.uniform(0.004, 0.012),
                    link_distance_m=rng.uniform(100.0, 2000.0))
        h_air = base["h_airplane_km"] * 1e3
        h_sat = base["h_satellite_km"] * 1e3
        to_air = checks.central_angle_deg(0.0, h_air, elevation)
        to_sat = checks.central_angle_deg(0.0, h_sat, elevation)
        # keyed by the two terminal letters in sorted order
        angles = {"AE": to_air, "AS": to_sat - to_air, "ES": to_sat, "AA": 0.0}
        for kind in KINDS:
            angle = angles["".join(sorted(kind[0] + kind[2]))]
            self.add_config(kind, dict(base, kind=kind,
                                       central_angle_deg=max(angle, 0.0)))

    def warm_up(self):
        # first calls fill the program's lazily loaded tables
        for kind in ("A2A", "E2A"):
            self.run_cli(self.run_argv(kind, self.root / "warm" / kind))
        shutil.rmtree(self.root / "warm")

    def operations(self, pass_dir):
        return [(kind, self.run_argv(kind, pass_dir / kind)) for kind in KINDS]

    def points(self):
        return sum(checks.grid_hz(cfg).size for cfg in self.configs.values())

    def check_pass(self, pass_dir, ok):
        problems = Problems()
        outputs = {kind: run_outputs(pass_dir / kind) for kind in ok}
        for kind, (pl, snr, cap) in outputs.items():
            problems.extend(checks.check_link(self.configs[kind], pl, snr, cap))
        if {"E2A", "A2S", "E2S"} <= ok:
            problems.extend(checks.check_sum_of_depths(
                outputs["E2S"][0]["tau"],
                [outputs["E2A"][0]["tau"], outputs["A2S"][0]["tau"]],
                "optical depth along one ray, E2S = E2A + A2S"))
        for a, b in (("A2S", "S2A"), ("E2A", "A2E"), ("E2S", "S2E")):
            if {a, b} <= ok:
                problems.extend(checks.check_identical(
                    outputs[a][0]["path_loss_db"], outputs[b][0]["path_loss_db"],
                    f"path loss {a} vs {b}"))
        return problems


# Synthetic catalog make-up for dense_catalog.
DENSE_IN_WINDOW = 800       # lines the runs must load
DENSE_OUT_OF_WINDOW = 2200  # records parsed and dropped by the window
DENSE_CLEAR_GHZ = 15.0      # no line centers this close to the 300 GHz band
_HZ_PER_WAVENUMBER = 100.0 * checks.C


class DenseCatalog(Workload):
    """E2A, A2E and A2A on a seeded synthetic catalog of 3,000 records.

    The load window is [0, (400 + 750) GHz] in wavenumber; 800 records fall
    inside it and 2,200 above it. Two halves of the catalog (alternate
    records) are run once per run to check that optical depth superposes
    over lines.
    """

    name = "dense_catalog"
    ops = ("E2A", "A2E", "A2A")

    def prepare(self, root, rng):
        from thzlink.catalog import SpectralLine, format_line_record

        self.root = root
        cfg = BASE_CONFIG
        f_high = max(cfg["f_max_ghz"], cfg["center_frequency_ghz"]
                     + cfg["bandwidth_ghz"] / 2) + cfg["wing_cutoff_ghz"]
        nu_max = f_high * 1e9 / _HZ_PER_WAVENUMBER
        band = cfg["center_frequency_ghz"] * 1e9 / _HZ_PER_WAVENUMBER
        clear = DENSE_CLEAR_GHZ * 1e9 / _HZ_PER_WAVENUMBER

        def center(inside: bool) -> float:
            while True:
                nu = (rng.uniform(0.5, nu_max - 0.05) if inside
                      else rng.uniform(nu_max + 0.05, 200.0))
                if abs(nu - band) > clear:
                    return nu

        records = []
        for i in range(DENSE_IN_WINDOW + DENSE_OUT_OF_WINDOW):
            water = rng.random() < 0.6
            line = SpectralLine(
                molecule_id=1 if water else 7,
                isotopologue_id=1,
                nu0=center(i < DENSE_IN_WINDOW),
                S0_ref=10.0 ** rng.uniform(-26.0, -22.0) if water
                else 10.0 ** rng.uniform(-27.0, -24.0),
                alpha_air=rng.uniform(0.02, 0.1),
                alpha_self=rng.uniform(0.1, 0.5),
                E_lower=rng.uniform(0.0, 2000.0),
                gamma_t=rng.uniform(0.5, 0.8),
                delta_air=rng.uniform(-0.005, 0.005),
                abundance=1.0,
            )
            records.append(format_line_record(line))
        rng.shuffle(records)
        self.catalogs = {
            "full": root / "dense.par",
            "half_a": root / "dense_a.par",
            "half_b": root / "dense_b.par",
        }
        self.catalogs["full"].write_text("\n".join(records) + "\n")
        self.catalogs["half_a"].write_text("\n".join(records[0::2]) + "\n")
        self.catalogs["half_b"].write_text("\n".join(records[1::2]) + "\n")

        elevation = math.radians(rng.uniform(30.0, 89.0))
        base = dict(BASE_CONFIG,
                    ground_humidity_vmr=rng.uniform(0.004, 0.012),
                    link_distance_m=rng.uniform(100.0, 2000.0),
                    catalog_path=str(self.catalogs["full"]))
        angle = max(checks.central_angle_deg(
            0.0, base["h_airplane_km"] * 1e3, elevation), 0.0)
        for kind in self.ops:
            self.add_config(kind, dict(
                base, kind=kind, central_angle_deg=0.0 if kind == "A2A"
                else angle))
        for half in ("half_a", "half_b"):
            self.add_config(f"E2A_{half}", dict(
                self.configs["E2A"], catalog_path=str(self.catalogs[half])))
        self.first_tau = None

    def warm_up(self):
        self.run_cli(self.run_argv("A2A", self.root / "warm"))
        shutil.rmtree(self.root / "warm")

    def operations(self, pass_dir):
        return [(kind, self.run_argv(kind, pass_dir / kind))
                for kind in self.ops]

    def points(self):
        return sum(checks.grid_hz(self.configs[k]).size for k in self.ops)

    def check_pass(self, pass_dir, ok):
        problems = Problems()
        outputs = {kind: run_outputs(pass_dir / kind) for kind in ok}
        for kind, (pl, snr, cap) in outputs.items():
            problems.extend(checks.check_link(self.configs[kind], pl, snr, cap))
        if {"E2A", "A2E"} <= ok:
            problems.extend(checks.check_identical(
                outputs["E2A"][0]["path_loss_db"],
                outputs["A2E"][0]["path_loss_db"], "path loss E2A vs A2E"))
        if "E2A" in ok and self.first_tau is None:
            self.first_tau = outputs["E2A"][0]["tau"]
        return problems

    def check_run(self):
        """Line count in the window, and superposition over the two halves."""
        from thzlink.scenario import load_scenario_catalog, make_grid, parse_config

        problems = Problems()
        scenario = parse_config(self.paths["E2A"])
        grid = make_grid(scenario.f_min, scenario.f_max, scenario.f_step)
        loaded = len(load_scenario_catalog(scenario, grid))
        if loaded != DENSE_IN_WINDOW:
            problems.add(f"dense catalog: {loaded} lines loaded, "
                         f"{DENSE_IN_WINDOW} written inside the window")
        halves = []
        for half in ("half_a", "half_b"):
            out = self.root / "check" / half
            label = f"E2A_{half}"
            if self.run_cli(self.run_argv(label, out)) != 0:
                problems.add(f"dense catalog: E2A on {half} failed")
                return problems
            pl, snr, cap = run_outputs(out)
            problems.extend(checks.check_link(self.configs[label], pl, snr, cap))
            halves.append(pl["tau"])
        if self.first_tau is not None:
            problems.extend(checks.check_sum_of_depths(
                self.first_tau, halves,
                "optical depth over lines, full = half_a + half_b"))
        shutil.rmtree(self.root / "check")
        return problems


SWEEP_STEP_M = 500.0
SWEEP_TOP_M = 12000.0


class AltitudeSweep(Workload):
    """Altitude sweeps 0-12 km (A2S) and 0.5-12 km (A2E) on a warm cache.

    A2E starts at 500 m: at 0 m the airplane coincides with the ground
    terminal and the whole sweep exits 3. Setup runs both sweeps cold,
    which fills the disk cache, and keeps their bytes; every timed sweep
    must reproduce them exactly.
    """

    name = "altitude_sweep"
    setup_reps = 2      # each set-up runs both sweeps cold
    starts = {"A2S": 0.0, "A2E": SWEEP_STEP_M}

    def prepare(self, root, rng):
        self.root = root
        base = dict(BASE_CONFIG,
                    ground_humidity_vmr=rng.uniform(0.004, 0.012),
                    water_scale_height_m=rng.uniform(1500.0, 2500.0))
        for kind in self.starts:
            self.add_config(kind, dict(base, kind=kind))
        self.cache_dir = root / "cache"
        self.cold: dict[str, bytes] = {}

    def sweep_argv(self, kind: str, out_dir: Path) -> list[str]:
        return ["sweep", str(self.paths[kind]), "--axis", "altitude",
                "--from", repr(self.starts[kind]), "--to", repr(SWEEP_TOP_M),
                "--step", repr(SWEEP_STEP_M), "--out-dir", str(out_dir),
                "--cache-dir", str(self.cache_dir)]

    def altitudes(self, kind: str) -> list[float]:
        count = int(round((SWEEP_TOP_M - self.starts[kind]) / SWEEP_STEP_M)) + 1
        return [self.starts[kind] + i * SWEEP_STEP_M for i in range(count)]

    def warm_up(self):
        for kind in self.starts:
            out = self.root / "cold" / kind
            if self.run_cli(self.sweep_argv(kind, out)) == 0:
                self.cold[kind] = (out / "sweep.csv").read_bytes()

    def operations(self, pass_dir):
        return [(kind, self.sweep_argv(kind, pass_dir / kind))
                for kind in self.starts]

    def points(self):
        return sum(len(self.altitudes(kind)) * checks.grid_hz(cfg).size
                   for kind, cfg in self.configs.items())

    def check_pass(self, pass_dir, ok):
        problems = Problems()
        for kind in ok:
            warm = (pass_dir / kind / "sweep.csv").read_bytes()
            if warm != self.cold.get(kind):
                problems.add(f"{kind} sweep: warm sweep.csv differs from the "
                             f"cold sweep made in setup")
        return problems

    def check_run(self):
        problems = Problems()
        for kind in self.starts:
            path = self.root / "cold" / kind / "sweep.csv"
            if kind not in self.cold:
                problems.add(f"{kind} sweep: the cold sweep in setup failed")
                continue
            problems.extend(checks.check_altitude_sweep(
                self.configs[kind], checks.read_sweep(path),
                self.altitudes(kind), rising=kind == "A2E"))
        return problems


class WeatherGrid(Workload):
    """E2A and A2E on 100-1000 GHz at 0.1 GHz through rain and a cloud deck.

    Two pairs: E2A at cloud density d and k*d (cloud_db must scale by k),
    A2E at rain thickness t and t2 (rain_db must scale by the ratio of the
    slant paths through the rain, computed here). The disk cache is warm.
    """

    name = "weather_grid"

    def prepare(self, root, rng):
        self.root = root
        elevation = math.radians(rng.uniform(30.0, 89.0))
        density = rng.uniform(0.1, 1.0)
        thickness = rng.uniform(0.5, 2.0)
        self.cloud_ratio = rng.uniform(1.5, 3.0)
        thick2 = thickness * rng.uniform(1.5, 2.5)
        base = dict(BASE_CONFIG,
                    f_min_ghz=100.0, f_max_ghz=1000.0, f_step_ghz=0.1,
                    ground_humidity_vmr=rng.uniform(0.004, 0.012),
                    rain_rate_mm_h=rng.uniform(2.0, 25.0),
                    rain_thickness_km=thickness,
                    cloud_density_g_m3=density)
        angle = max(checks.central_angle_deg(
            0.0, base["h_airplane_km"] * 1e3, elevation), 0.0)
        base["central_angle_deg"] = angle
        self.add_config("E2A", dict(base, kind="E2A"))
        self.add_config("E2A_cloud", dict(
            base, kind="E2A", cloud_density_g_m3=density * self.cloud_ratio))
        self.add_config("A2E", dict(base, kind="A2E"))
        self.add_config("A2E_rain", dict(base, kind="A2E",
                                         rain_thickness_km=thick2))
        psi = checks.ground_elevation(base["h_airplane_km"] * 1e3, angle)
        self.rain_ratio = (checks.path_through_shell(0.0, psi, thick2 * 1e3)
                           / checks.path_through_shell(0.0, psi,
                                                       thickness * 1e3))
        self.cache_dir = root / "cache"

    def warm_up(self):
        self.run_cli(self.run_argv("E2A", self.root / "warm", self.cache_dir))
        shutil.rmtree(self.root / "warm")

    def operations(self, pass_dir):
        return [(label, self.run_argv(label, pass_dir / label, self.cache_dir))
                for label in self.configs]

    def points(self):
        return sum(checks.grid_hz(cfg).size for cfg in self.configs.values())

    def check_pass(self, pass_dir, ok):
        problems = Problems()
        outputs = {label: run_outputs(pass_dir / label) for label in ok}
        for label, (pl, snr, cap) in outputs.items():
            problems.extend(checks.check_link(self.configs[label], pl, snr, cap))
        if {"E2A", "E2A_cloud"} <= ok:
            problems.extend(checks.check_weather_scaling(
                outputs["E2A"][0]["cloud_db"], outputs["E2A_cloud"][0]["cloud_db"],
                self.cloud_ratio, "cloud_db against density"))
        if {"A2E", "A2E_rain"} <= ok:
            problems.extend(checks.check_weather_scaling(
                outputs["A2E"][0]["rain_db"], outputs["A2E_rain"][0]["rain_db"],
                self.rain_ratio, "rain_db against path length"))
        if {"E2A", "A2E"} <= ok:
            problems.extend(checks.check_identical(
                outputs["E2A"][0]["path_loss_db"],
                outputs["A2E"][0]["path_loss_db"], "path loss E2A vs A2E"))
        return problems


WORKLOADS = {w.name: w for w in (ColdLinks, DenseCatalog, AltitudeSweep,
                                 WeatherGrid)}
