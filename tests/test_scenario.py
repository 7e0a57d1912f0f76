import dataclasses
import hashlib
import math
import struct
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from thzlink import atmosphere as atmosphere_module
from thzlink import scenario as scenario_module
from thzlink.catalog import (
    SpectralLine,
    bundled_catalog_path,
    format_line_record,
    frequency_to_wavenumber,
)
from thzlink.channel import AntennaConfig
from thzlink.errors import ConfigError
from thzlink.geometry import atmospheric_path_length
from thzlink.link import (
    TransceiverConfig,
    thermal_noise_psd,
    total_noise_psd,
)
from thzlink.output import describe, write_sweep_csv
from thzlink.scenario import (
    _DEFAULTS,
    Scenario,
    SpectrumCache,
    build_scenario,
    make_grid,
    parse_config,
    resolve,
    write_outputs,
)
from thzlink.sweep import (
    MAX_SWEEP_POINTS,
    crossover_altitude,
    run_sweep,
    sweep_points,
)

CONFIG_DIR = Path(__file__).parent.parent / "src" / "thzlink" / "data" / "configs"


def write_config(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return path


MINIMAL = """
kind = A2S
h_airplane_km = 11
h_satellite_km = 500
f_min_ghz = 295
f_max_ghz = 305
f_step_ghz = 1
"""


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        scenario = parse_config(write_config(tmp_path, MINIMAL))
        assert scenario.kind == "A2S"
        assert scenario.h_airplane == 11_000.0
        assert scenario.transceiver.bandwidth == 5e9
        assert scenario.tx_antenna.diameter == 0.5

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "launch_speed = 7\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "launch_speed" in str(err.value)

    def test_unknown_key_names_its_line(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "launch_speed = 7\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert (err.value.field, err.value.line) == ("launch_speed", 8)

    def test_library_values_take_defaults_for_left_out_keys(self):
        scenario = build_scenario({"kind": "E2A", "f_min_ghz": 200.0})
        assert (scenario.kind, scenario.f_min) == ("E2A", 200e9)
        assert scenario == dataclasses.replace(
            build_scenario(dict(_DEFAULTS)), kind="E2A", f_min=200e9)

    def test_unknown_library_key_is_refused(self):
        with pytest.raises(ConfigError) as err:
            build_scenario({"f_min_gz": 250.0})
        assert err.value.field == "f_min_gz"
        assert "f_min_gz" in str(err.value)

    def test_library_values_with_elevation_and_central_angle_refused(self):
        with pytest.raises(ConfigError) as err:
            build_scenario({"elevation_deg": 40.0, "central_angle_deg": 5.0})
        assert err.value.field == "elevation_deg"

    def test_negative_bandwidth_names_field(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "bandwidth_ghz = -5\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "bandwidth_ghz" in str(err.value)

    def test_bad_number_names_field_and_line(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "tx_power_mw = lots\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "tx_power_mw" in str(err.value)

    def test_line_without_equals_names_the_line(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "tx_power_mw 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == MINIMAL.count("\n") + 1
        assert err.value.message == "expected 'key = value'"

    def test_altitude_ordering_enforced(self, tmp_path):
        path = write_config(tmp_path, MINIMAL.replace(
            "h_satellite_km = 500", "h_satellite_km = 5"))
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_elevation_and_central_angle_exclusive(self, tmp_path):
        path = write_config(
            tmp_path, MINIMAL + "central_angle_deg = 1\nelevation_deg = 45\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_elevation_resolves_central_angle(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "elevation_deg = 45\n")
        scenario = parse_config(path)
        assert scenario.central_angle > 0.0

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "f_step_ghz = 2\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_a_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        plain = write_config(tmp_path, MINIMAL)
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config(marked) == parse_config(plain)

    def test_bundled_configs_parse(self):
        for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
            scenario = parse_config(cfg)
            assert scenario.kind in ("A2S", "E2A")


class TestScenarioRules:
    @pytest.mark.parametrize("changes, key", [
        ({"kind": "A2X"}, "kind"),
        ({"h_airplane": -100.0}, "h_airplane_km"),
        ({"h_airplane": 600e3}, "h_airplane_km"),
        ({"kind": "E2S", "central_angle": math.radians(89.0)},
         "central_angle_deg"),
        ({"f_min": -1e10}, "f_min_ghz"),
        ({"f_step": math.inf}, "f_step_ghz"),
        ({"f_min": 300e9, "f_max": 300e9}, "f_min_ghz"),
        ({"kind": "E2A", "layer_resolution": 1e-3}, "layer_resolution_m"),
        ({"kind": "E2A", "rain_rate": -1.0, "rain_thickness": 700.0},
         "rain_rate_mm_h"),
        ({"rain_base": -1.0}, "rain_base_km"),
        ({"rain_thickness": math.nan}, "rain_thickness_km"),
        ({"kind": "E2A", "cloud_density": -1.0}, "cloud_density_g_m3"),
        ({"cloud_base": -1.0}, "cloud_base_km"),
        ({"cloud_thickness": math.inf}, "cloud_thickness_km"),
        ({"kind": "A2A", "link_distance": 0.0}, "link_distance_m"),
        ({"kind": "E2A", "water_scale_height": -1.0}, "water_scale_height_m"),
        ({"kind": "E2A", "wing_cutoff": -1.0}, "wing_cutoff_ghz"),
        ({"wing_cutoff": math.inf}, "wing_cutoff_ghz"),
        ({"kind": "E2A", "ground_humidity": -0.1}, "ground_humidity_vmr"),
        ({"kind": "E2A", "ground_humidity": math.nan}, "ground_humidity_vmr"),
        ({"kind": "E2A", "ground_humidity": 1.5}, "ground_humidity_vmr"),
        # the dish gains underflow to 0 and the spreading loss overflows
        ({"f_min": 1e-291}, "f_min_ghz"),
        ({"kind": "A2A", "link_distance": 1e300}, "f_min_ghz"),
        # the product of spreading loss and gains underflows to 0
        ({"rx_antenna": AntennaConfig(1.0, 5e-324)}, "f_min_ghz"),
        # the thermal noise underflows to 0
        ({"transceiver": TransceiverConfig(1e-3, 5e9, 300e9, 10.0, 1e-300)},
         "rx_temperature_k"),
        # the ground terminal above the top of the layer stack
        ({"kind": "E2S", "h_ground": 600e3, "h_satellite": 1000e3},
         "h_ground_m"),
        # terminals apart, but at one distance from the Earth's center in
        # double precision, so the slant range is 0
        ({"kind": "E2A", "h_airplane": 1e-27}, "h_airplane_km"),
        ({"kind": "E2S", "h_satellite": 1e-27}, "h_satellite_km"),
    ])
    def test_replace_obeys_the_rules(self, default_scenario, changes, key):
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(default_scenario, **changes)
        assert err.value.field == key

    @pytest.mark.parametrize("part, changes, key", [
        ("transceiver", {"tx_power": 0.0}, "tx_power_mw"),
        ("transceiver", {"tx_power": 1e300, "bandwidth": 1e-10},
         "tx_power_mw"),
        ("transceiver", {"bandwidth": math.inf}, "bandwidth_ghz"),
        ("transceiver", {"center_frequency": -1.0}, "center_frequency_ghz"),
        ("transceiver", {"rx_temperature": -5.0}, "rx_temperature_k"),
        ("transceiver", {"noise_figure": math.nan}, "noise_figure_db"),
        ("transceiver", {"noise_figure": 1e6}, "noise_figure_db"),
        ("transceiver", {"noise_figure": -1e6}, "noise_figure_db"),
        ("tx_antenna", {"diameter": -1.0}, "dish_diameter_m"),
        ("rx_antenna", {"efficiency": 1.5}, "dish_efficiency"),
    ])
    def test_parts_obey_their_rules(self, default_scenario, part, changes,
                                    key):
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(getattr(default_scenario, part), **changes)
        assert err.value.field == key

    def test_crossover_obeys_the_rules(self, default_scenario):
        with pytest.raises(ConfigError) as err:
            crossover_altitude(default_scenario, 300e9, [1_000.0, 600e3])
        assert err.value.field == "h_airplane_km"

    def test_at_elevation_matches_config(self, default_scenario, tmp_path):
        configured = parse_config(write_config(
            tmp_path, MINIMAL + "elevation_deg = 45\n"))
        swept = dataclasses.replace(
            configured, central_angle=0.0).at_elevation(45.0)
        assert swept == configured
        with pytest.raises(ConfigError) as err:
            configured.at_elevation(91.0)
        assert err.value.field == "elevation_deg"


class TestMakeGrid:
    def test_inclusive_endpoints(self):
        grid = make_grid(100e9, 110e9, 1e9)
        assert len(grid) == 11
        assert grid[0] == 100e9
        assert grid[-1] == 110e9

    def test_non_divisible_step_stops_short(self):
        grid = make_grid(100e9, 100.55e9, 0.2e9)
        assert len(grid) == 3


@pytest.fixture(scope="module")
def resolved(default_scenario, spectrum_cache):
    scenario = dataclasses.replace(default_scenario, f_min=290e9,
                                   f_max=310e9, f_step=2e9)
    return resolve(scenario, spectrum_cache)


class TestResolve:
    def test_zenith_geometry(self, resolved):
        assert resolved.r_as == pytest.approx(489e3)
        assert resolved.psi == pytest.approx(math.pi / 2)

    def test_path_loss_envelope(self, resolved):
        # isotropic-equivalent loss (gains removed) stays inside the
        # 190-260 dB envelope expected for this geometry between line centers
        g_db = 10 * np.log10(
            2.470814e6 * (resolved.grid / 300e9) ** 2)  # 0.5 m dish
        g2_db = 10 * np.log10(
            9.883256e6 * (resolved.grid / 300e9) ** 2)  # 1.0 m dish
        iso = resolved.path_loss_db + g_db + g2_db
        assert np.all(iso > 190.0)
        assert np.all(iso < 260.0)

    def test_snr_and_capacity_are_finite(self, resolved):
        assert np.all(np.isfinite(resolved.snr))
        assert resolved.budget.capacity > 0.0

    def test_cache_and_no_cache_identical(self, default_scenario,
                                          spectrum_cache):
        scenario = dataclasses.replace(default_scenario, f_min=299e9,
                                       f_max=301e9, f_step=1e9)
        with_cache = resolve(scenario, spectrum_cache)
        without = resolve(scenario, None)
        np.testing.assert_array_equal(with_cache.path_loss, without.path_loss)
        np.testing.assert_array_equal(with_cache.noise_psd, without.noise_psd)

    def test_disk_cache_round_trip(self, default_scenario, tmp_path):
        scenario = dataclasses.replace(default_scenario, f_min=299e9,
                                       f_max=301e9, f_step=1e9)
        first = resolve(scenario, SpectrumCache(tmp_path / "cache"))
        second = resolve(scenario, SpectrumCache(tmp_path / "cache"))
        np.testing.assert_array_equal(first.path_loss, second.path_loss)
        assert list((tmp_path / "cache").glob("*.npy"))

    def test_reciprocity_endpoint_swap(self, default_scenario, spectrum_cache):
        a2s = dataclasses.replace(default_scenario, f_min=299e9, f_max=301e9,
                                  f_step=1e9)
        s2a = dataclasses.replace(
            a2s, kind="S2A", tx_antenna=a2s.rx_antenna,
            rx_antenna=a2s.tx_antenna)
        down = resolve(s2a, spectrum_cache)
        up = resolve(a2s, spectrum_cache)
        np.testing.assert_allclose(down.path_loss, up.path_loss, rtol=1e-12)

    def test_a2a_homogeneous_link(self, default_scenario, spectrum_cache):
        scenario = dataclasses.replace(default_scenario, kind="A2A",
                                       f_min=299e9, f_max=301e9, f_step=1e9)
        resolved = resolve(scenario, spectrum_cache)
        assert resolved.r_as == scenario.link_distance
        assert np.all(resolved.tau > 0.999)  # 100 m at 11 km is nearly clear

    def test_e2a_truncates_path_at_airplane(self, default_scenario,
                                            spectrum_cache, monkeypatch):
        skies = []

        def noise_spy(f, sky, rx):
            skies.append(sky)
            return total_noise_psd(f, sky, rx)

        monkeypatch.setattr(scenario_module, "total_noise_psd", noise_spy)
        scenario = dataclasses.replace(default_scenario, kind="E2A",
                                       f_min=299e9, f_max=301e9, f_step=1e9)
        resolved = resolve(scenario, spectrum_cache)
        assert resolved.r_as == pytest.approx(11_000.0)
        assert skies[0].transmittances.shape[0] == 22  # 11 km / 500 m

    def test_rain_affects_only_low_links(self, default_scenario,
                                         spectrum_cache):
        rainy = dataclasses.replace(
            default_scenario, kind="E2A", rain_rate=5.0, rain_thickness=700.0,
            f_min=99e9, f_max=101e9, f_step=1e9)
        resolved = resolve(rainy, spectrum_cache)
        assert resolved.rain_path == pytest.approx(700.0)
        assert resolved.rain_db.max() > 0.5
        high = dataclasses.replace(rainy, kind="A2S")
        resolved_high = resolve(high, spectrum_cache)
        assert resolved_high.rain_path == 0.0
        assert np.all(resolved_high.rain_db == 0.0)

    @pytest.mark.parametrize("kind, lower, upper", [
        ("E2A", 2e3, 3e3), ("E2A", 10.5e3, 12e3), ("E2A", 12e3, 13e3),
        ("A2S", 10e3, 12e3), ("A2S", 0.0, 1e3), ("A2S", 20e3, 25e3),
        ("E2A", 0.0, 400.0), ("E2A", 0.0, 2e3), ("E2A", 5e3, 5e3),
        ("E2A", 1e300, 2e300),
    ])
    def test_weather_decks_are_shells_of_the_slant_path(
            self, default_scenario, spectrum_cache, kind, lower, upper):
        # a deck, clipped to the terminals, is measured as a gas layer is:
        # to its top, less to its base where the base is above the lower
        # terminal; a deck the path misses (below the ground terminal at
        # 500 m, above the higher one, or empty) has length 0.0
        scenario = dataclasses.replace(
            default_scenario, kind=kind, h_ground=500.0, f_min=299e9,
            f_max=301e9, f_step=1e9, rain_base=lower,
            rain_thickness=upper - lower, cloud_base=lower,
            cloud_thickness=upper - lower,
        ).at_elevation(30.0)
        resolved = resolve(scenario, spectrum_cache, with_capacity=False)
        h_low, h_high = scenario.endpoints()
        top = min(upper, h_high)
        expected = 0.0
        if top > max(lower, h_low):
            expected = atmospheric_path_length(h_low, resolved.psi, top)
            if lower > h_low:
                expected -= atmospheric_path_length(h_low, resolved.psi,
                                                    lower)
        assert resolved.rain_path == resolved.cloud_path == expected

    @pytest.mark.parametrize("base, thickness, inside", [
        (10e3, 2e3, True),       # holds the airplane
        (10e3, 1e3, True),       # touches it with its top
        (11e3, 1e3, True),       # touches it with its base
        (12e3, 1e3, False),      # misses it
        (11e3, 1e-13, False),    # thinner than half an ulp of its base
    ])
    def test_an_a2a_link_runs_its_whole_length_in_a_deck_that_holds_it(
            self, default_scenario, spectrum_cache, base, thickness, inside):
        scenario = dataclasses.replace(
            default_scenario, kind="A2A", h_airplane=11e3, f_min=299e9,
            f_max=301e9, f_step=1e9, rain_rate=5.0, rain_base=base,
            rain_thickness=thickness, cloud_density=0.5, cloud_base=base,
            cloud_thickness=thickness)
        resolved = resolve(scenario, spectrum_cache, with_capacity=False)
        expected = scenario.link_distance if inside else 0.0
        assert resolved.rain_path == resolved.cloud_path == expected
        assert bool(resolved.rain_db.any()) is inside
        assert bool(resolved.cloud_db.any()) is inside

    def test_a_path_with_no_live_layer_has_the_thermal_noise_alone(
            self, default_scenario, spectrum_cache):
        scenario = dataclasses.replace(default_scenario, kind="A2S",
                                       h_airplane=120e3)
        resolved = resolve(scenario, spectrum_cache)
        tx = scenario.transceiver
        assert (resolved.noise_psd.tobytes()
                == thermal_noise_psd(resolved.grid, tx.rx_temperature,
                                     tx.noise_figure).tobytes())

    def test_weather_factorizes(self, default_scenario, spectrum_cache):
        dry = dataclasses.replace(default_scenario, kind="E2A", f_min=99e9,
                                  f_max=101e9, f_step=1e9)
        wet = dataclasses.replace(dry, rain_rate=5.0, rain_thickness=700.0)
        pl_dry = resolve(dry, spectrum_cache).path_loss
        wet_resolved = resolve(wet, spectrum_cache)
        ratio = wet_resolved.path_loss / pl_dry
        np.testing.assert_allclose(
            ratio, 10.0 ** (wet_resolved.rain_db / 10.0), rtol=1e-12)


class TestWeatherGridRelations:
    """The cross-config checks of the benchmark's weather workload, in
    memory: E2A and A2E see the same path loss, rain loss scales with the
    slant path through the rain, and cloud loss with the cloud density."""

    BASE = {"f_min_ghz": 100.0, "f_max_ghz": 520.0, "f_step_ghz": 0.05,
            "rain_rate_mm_h": 10.0, "rain_thickness_km": 1.0,
            "cloud_density_g_m3": 0.5}

    @staticmethod
    def slant_path(psi, r_ground, height):
        """Length of the ray leaving the ground at elevation ``psi`` to
        ``height`` above it, by the law of cosines on a sphere of radius
        ``r_ground``."""
        r_top = r_ground + height
        return (-r_ground * math.sin(psi)
                + math.sqrt((r_ground * math.sin(psi)) ** 2
                            + r_top ** 2 - r_ground ** 2))

    @pytest.mark.parametrize("elevation", [30.0, 57.0, 89.0])
    def test_the_relations_hold(self, spectrum_cache, elevation):
        def run(**changes):
            scenario = build_scenario(
                {**self.BASE, "elevation_deg": elevation, **changes})
            return scenario, resolve(scenario, spectrum_cache)

        e2a_scenario, e2a = run(kind="E2A")
        assert e2a.grid.size == 8_401
        _, a2e = run(kind="A2E")
        assert e2a.path_loss_db.tobytes() == a2e.path_loss_db.tobytes()

        # the elevation at the ground from the central angle, by plane
        # trigonometry in the triangle of the Earth's center and the ends
        r_ground = 6_371e3
        r_air = r_ground + e2a_scenario.h_airplane
        rho = e2a_scenario.central_angle
        psi = math.atan2(r_air * math.cos(rho) - r_ground,
                         r_air * math.sin(rho))
        ratio = (self.slant_path(psi, r_ground, 2.3e3)
                 / self.slant_path(psi, r_ground, 1e3))
        _, thick = run(kind="A2E", rain_thickness_km=2.3)
        assert (a2e.rain_db > 0.0).all()
        np.testing.assert_allclose(thick.rain_db, ratio * a2e.rain_db,
                                   rtol=5e-9, atol=0.0)

        _, dense = run(kind="E2A", cloud_density_g_m3=1.2)
        assert (e2a.cloud_db > 0.0).all()
        np.testing.assert_allclose(dense.cloud_db, 2.4 * e2a.cloud_db,
                                   rtol=5e-9, atol=0.0)


def _water_line(f_ghz, delta_air):
    return SpectralLine(
        molecule_id=1, isotopologue_id=1,
        nu0=frequency_to_wavenumber(f_ghz * 1e9), S0_ref=1e-22,
        alpha_air=0.1, alpha_self=0.5, E_lower=100.0, gamma_t=0.7,
        delta_air=delta_air, abundance=1.0)


class TestSpectrumCacheKey:
    def test_a_wider_load_window_is_not_a_stale_hit(self, tmp_path):
        # B's band at 400 GHz widens the load window past the 1060.1 GHz
        # line; its pressure shift pulls it within the 750 GHz wing cutoff
        # of A's survey edge, so A's layers must not reuse B's spectra
        catalog = tmp_path / "two.par"
        catalog.write_text("".join(
            format_line_record(line) + "\n"
            for line in (_water_line(305.0, 0.0), _water_line(1060.1, -0.02))))
        base = build_scenario(dict(
            _DEFAULTS, kind="E2A", f_min_ghz=300.0, f_max_ghz=310.0,
            layer_resolution_m=2000.0, catalog_path=str(catalog)))

        def centered(f_ghz):
            tx = dataclasses.replace(base.transceiver,
                                     center_frequency=f_ghz * 1e9)
            return dataclasses.replace(base, transceiver=tx)

        a, b = centered(305.0), centered(400.0)
        shared = SpectrumCache()
        resolve(b, shared, with_capacity=False)
        reused = resolve(a, shared, with_capacity=False)
        fresh = resolve(a, SpectrumCache(), with_capacity=False)
        assert reused.tau.tobytes() == fresh.tau.tobytes()

    def test_an_entry_of_an_unversioned_key_is_not_served(
            self, default_scenario, tmp_path, monkeypatch):
        # a directory filled by a kernel whose keys carried no version holds
        # valid spectra that may differ from this kernel's in the last bit;
        # they stand in here as valid spectra twice this kernel's
        scenario = dataclasses.replace(default_scenario, f_min=299e9,
                                       f_max=301e9, f_step=1e9)
        keys = []
        key = SpectrumCache.key

        def recorded(*args):
            keys.append((args, key(*args)))
            return keys[-1][1]

        monkeypatch.setattr(SpectrumCache, "key", staticmethod(recorded))
        clean = write_outputs(resolve(scenario, SpectrumCache(
            tmp_path / "clean")), tmp_path / "clean_out")
        monkeypatch.undo()
        old = tmp_path / "old"
        old.mkdir()
        for args, new_key in keys:
            kappa = np.load(tmp_path / "clean" / f"{new_key}.npy")
            np.save(old / f"{_unversioned_key(*args)}.npy", 2.0 * kappa)
        assert any(np.load(path).any() for path in old.iterdir())
        stale = write_outputs(resolve(scenario, SpectrumCache(old)),
                              tmp_path / "stale_out")
        for a, b in zip(clean, stale):
            assert a.read_bytes() == b.read_bytes(), a.name


def _unversioned_key(lines_sha, state, grid, wing_cutoff):
    """:meth:`SpectrumCache.key` as it was before keys carried the kernel
    version."""
    hasher = hashlib.sha256()
    hasher.update(lines_sha.encode())
    hasher.update(struct.pack("<ddd", state.altitude, state.pressure,
                              state.temperature))
    for name in sorted(state.mixing_ratios):
        hasher.update(name.encode())
        hasher.update(struct.pack("<d", state.mixing_ratios[name]))
    hasher.update(struct.pack("<d", wing_cutoff))
    hasher.update(grid.tobytes())
    return f"{hasher.hexdigest()}-{grid.size}"


class TestOutputs:
    def test_write_outputs_files_and_determinism(self, default_scenario,
                                                 spectrum_cache, tmp_path):
        scenario = dataclasses.replace(default_scenario, f_min=295e9,
                                       f_max=305e9, f_step=1e9)
        resolved = resolve(scenario, spectrum_cache)
        first = write_outputs(resolved, tmp_path / "one")
        second = write_outputs(resolved, tmp_path / "two")
        names = [p.name for p in first]
        assert names == ["path_loss.csv", "snr.csv", "capacity.csv",
                         "summary.txt"]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()
        header = (tmp_path / "one" / "path_loss.csv").read_text().splitlines()
        assert header[0].startswith("# thzlink ")
        assert "catalog_sha256=" in header[0]
        assert header[1] == "frequency_hz,path_loss_db,tau,fspl_db,rain_db,cloud_db"

    def test_rows_keep_the_f_string_text_of_every_value(
            self, default_scenario, spectrum_cache, tmp_path):
        scenario = dataclasses.replace(default_scenario, f_min=295e9,
                                       f_max=305e9, f_step=1e9)
        values = np.array([math.inf, -math.inf, math.nan, -0.0, 5e-324,
                           1.7e308, -1.7e308, 0.1, 123456.7890123456])
        size = values.size
        columns = [np.roll(values, shift) for shift in range(8)]
        resolved = dataclasses.replace(
            resolve(scenario, spectrum_cache), grid=columns[0],
            tau=columns[1], fspl_db=columns[2], rain_db=columns[3],
            cloud_db=columns[4], path_loss=columns[5], noise_psd=columns[6],
            snr=columns[7])
        with np.errstate(divide="ignore", invalid="ignore"):
            write_outputs(resolved, tmp_path)
            noise_db = 10.0 * np.log10(resolved.noise_psd)
            path_loss_db = resolved.path_loss_db
            snr_db = resolved.snr_db
        path_loss_rows = [
            f"{f:.10g},{pl:.10g},{t:.10g},{fs:.10g},{rn:.10g},{cl:.10g}"
            for f, pl, t, fs, rn, cl in zip(*(c.tolist() for c in (
                resolved.grid, path_loss_db, resolved.tau, resolved.fspl_db,
                resolved.rain_db, resolved.cloud_db)))]
        snr_rows = [f"{f:.10g},{s:.10g},{n:.10g}" for f, s, n in zip(
            *(c.tolist() for c in (resolved.grid, snr_db, noise_db)))]
        for name, rows in (("path_loss.csv", path_loss_rows),
                           ("snr.csv", snr_rows)):
            lines = (tmp_path / name).read_text().splitlines()[2:]
            assert len(lines) == size
            assert lines == rows

    def test_a_net_gain_is_flagged_in_the_summary(self, tmp_path):
        # 100 m is inside the far field of the default 0.5 m and 1 m dishes
        resolved = resolve(build_scenario({"kind": "A2A"}))
        write_outputs(resolved, tmp_path)
        assert resolved.path_loss_db.max() < 0.0
        assert ("warning: path loss below 0 dB: the terminals are inside the "
                "dishes' far field, where boresight gains overstate the link"
                in (tmp_path / "summary.txt").read_text().splitlines())

    def test_describe_lists_fields(self, default_scenario):
        text = describe(default_scenario)
        assert "kind" in text and "A2S" in text


class TestSweep:
    def test_sweep_points_inclusive(self):
        assert sweep_points(0.0, 10.0, 5.0) == [0.0, 5.0, 10.0]

    def test_point_count_bounded_before_the_list(self):
        assert len(sweep_points(0.0, 9_999.0, 1.0)) == MAX_SWEEP_POINTS
        with pytest.raises(ConfigError) as err:
            sweep_points(0.0, 1000.0, 1e-3)
        assert err.value.field == "step"

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            sweep_points(10.0, 0.0, 5.0)
        with pytest.raises(ConfigError):
            sweep_points(0.0, 10.0, -1.0)

    def test_altitude_sweep_loss_decreases(self, default_scenario,
                                           spectrum_cache):
        base = dataclasses.replace(default_scenario, f_min=299e9,
                                   f_max=301e9, f_step=1e9)
        points, results = run_sweep(base, "altitude", 0.0, 10_000.0, 2_000.0,
                                    cache=spectrum_cache)
        assert points == [0.0, 2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0]
        losses = [float(r.path_loss_db[1]) for r in results]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_axis_applicability(self, default_scenario):
        e2s = dataclasses.replace(default_scenario, kind="E2S")
        with pytest.raises(ConfigError):
            run_sweep(e2s, "altitude", 0.0, 1_000.0, 500.0)
        a2a = dataclasses.replace(default_scenario, kind="A2A")
        with pytest.raises(ConfigError):
            run_sweep(a2a, "elevation", 10.0, 90.0, 10.0)

    def test_unknown_axis_is_config_error(self, default_scenario):
        with pytest.raises(ConfigError) as err:
            run_sweep(default_scenario, "pressure", 0.0, 10.0, 10.0)
        assert err.value.field == "axis"

    def test_sweep_csv_shape(self, default_scenario, spectrum_cache,
                             tmp_path):
        base = dataclasses.replace(default_scenario, f_min=299e9,
                                   f_max=301e9, f_step=1e9)
        points, results = run_sweep(base, "altitude", 0.0, 2_000.0, 2_000.0,
                                    cache=spectrum_cache)
        out = tmp_path / "sweep.csv"
        write_sweep_csv(out, "altitude", points, results)
        lines = out.read_text().splitlines()
        assert lines[0] == f"# {results[0].provenance}"
        assert lines[1] == "axis_value,frequency_hz,metric,value"
        # 2 points x (3 freq x 2 metrics + 1 capacity row)
        assert len(lines) == 2 + 2 * 7
        assert lines[2].split(",")[2] == "capacity_bit_s"

    def test_frequencies_sharing_a_ghz_value_keep_the_sorted_order(
            self, default_scenario, spectrum_cache, tmp_path):
        # below 2**38 Hz, adjacent doubles can divide to one GHz value
        top = 2.0 ** 38
        grid = top - np.arange(7, -1, -1) * np.spacing(np.nextafter(top, 0))
        ghz = (grid / 1e9).tolist()
        assert len(set(ghz)) < grid.size
        scenario = dataclasses.replace(default_scenario, f_min=299e9,
                                       f_max=301e9, f_step=1e9)
        resolved = dataclasses.replace(
            resolve(scenario, spectrum_cache, with_capacity=False),
            grid=grid, path_loss=np.geomspace(1e3, 1e4, grid.size),
            snr=np.geomspace(1e-2, 1e2, grid.size))
        out = tmp_path / "sweep.csv"
        write_sweep_csv(out, "frequency", [0.0], [resolved])
        rows = [(v0, f, metric, value)
                for v0, f, pl, s in zip(ghz, grid.tolist(),
                                        resolved.path_loss_db.tolist(),
                                        resolved.snr_db.tolist())
                for metric, value in (("path_loss_db", pl), ("snr_db", s))]
        expected = [f"{v0:.10g},{f:.10g},{metric},{value:.10g}"
                    for v0, f, metric, value in sorted(
                        rows, key=lambda r: (r[0], r[2], r[1]))]
        assert out.read_text().splitlines()[2:] == expected

    def test_frequency_sweep_single_resolution(self, default_scenario,
                                               spectrum_cache):
        points, results = run_sweep(default_scenario, "frequency",
                                    290.0, 310.0, 10.0, cache=spectrum_cache)
        assert len(results) == 1
        assert results[0].grid[0] == 290e9
        assert results[0].grid[-1] == 310e9

    def test_frequency_sweep_keys_only_its_own_points(self,
                                                      default_scenario,
                                                      monkeypatch):
        # the band at 300 GHz lies inside the sweep but off its 10 GHz points
        grids = []
        key = SpectrumCache.key

        def recorded_key(lines_sha, state, grid, wing_cutoff):
            grids.append(grid.copy())
            return key(lines_sha, state, grid, wing_cutoff)

        monkeypatch.setattr(SpectrumCache, "key", staticmethod(recorded_key))
        run_sweep(default_scenario, "frequency", 280.0, 320.0, 10.0,
                  cache=SpectrumCache())
        swept = make_grid(280e9, 320e9, 10e9)
        assert grids
        assert all(grid.tobytes() == swept.tobytes() for grid in grids)

    def test_frequency_sweeps_share_disk_entries_whatever_the_band(
            self, default_scenario, tmp_path):
        # the band at 557 GHz lies outside the sweep, which never evaluates
        # it, so it must not widen the load window and change the key
        base = dataclasses.replace(default_scenario, kind="A2S",
                                   layer_resolution=10_000.0)
        base = base.at_elevation(40.0)
        directory = tmp_path / "cache"
        digests, written = [], []
        for center in (310e9, 557e9):
            before = set(directory.glob("*.npy"))
            scenario = dataclasses.replace(base, transceiver=dataclasses.replace(
                base.transceiver, center_frequency=center))
            _, results = run_sweep(scenario, "frequency", 300.0, 320.0, 0.5,
                                   cache=SpectrumCache(directory))
            digests.append(results[0].catalog.lines_sha256)
            written.append(set(directory.glob("*.npy")) - before)
        assert digests[0] == digests[1]
        assert written[0] and not written[1]

    @pytest.mark.parametrize("axis, start, stop, step", [
        ("altitude", 1_000.0, 11_000.0, 5_000.0),
        ("elevation", 30.0, 90.0, 30.0),
    ])
    def test_one_catalog_load_for_the_whole_sweep(
            self, default_scenario, monkeypatch, axis, start, stop, step):
        base = dataclasses.replace(default_scenario, f_min=299e9,
                                   f_max=301e9, f_step=1e9,
                                   layer_resolution=10_000.0)
        loads = []
        load = scenario_module.load_catalog
        monkeypatch.setattr(scenario_module, "load_catalog",
                            lambda *args: loads.append(args) or load(*args))
        points, results = run_sweep(base, axis, start, stop, step)
        assert len(points) == len(results) == 3
        assert len(loads) == 1

    def test_elevation_sweep_loss_increases_toward_horizon(
            self, default_scenario, spectrum_cache):
        base = dataclasses.replace(default_scenario, kind="E2S",
                                   f_min=299e9, f_max=301e9, f_step=1e9)
        points, results = run_sweep(base, "elevation", 20.0, 90.0, 35.0,
                                    cache=spectrum_cache)
        assert points == [20.0, 55.0, 90.0]
        losses = [float(r.path_loss_db[1]) for r in results]
        assert losses[0] > losses[1] > losses[2]


class TestCapacityMonotonicity:
    def test_capacity_grows_with_tx_power_and_shrinks_with_rain(
            self, default_scenario, spectrum_cache):
        base = dataclasses.replace(default_scenario, kind="E2A",
                                   f_min=299e9, f_max=301e9, f_step=1e9)
        louder = dataclasses.replace(
            base, transceiver=dataclasses.replace(base.transceiver,
                                                  tx_power=2e-3))
        rainy = dataclasses.replace(base, rain_rate=20.0,
                                    rain_thickness=700.0)
        reference = resolve(base, spectrum_cache).budget.capacity
        assert resolve(louder, spectrum_cache).budget.capacity > reference
        assert resolve(rainy, spectrum_cache).budget.capacity < reference


class TestCrossover:
    def test_crossover_exists_at_300ghz(self, default_scenario,
                                        spectrum_cache):
        altitudes = np.arange(1_000.0, 499_000.0, 16_000.0)
        h = crossover_altitude(default_scenario, 300e9, altitudes,
                               spectrum_cache)
        assert h is not None
        assert 1_000.0 < h < 499_000.0

    def test_no_sign_change_gives_none(self, default_scenario,
                                       spectrum_cache):
        assert crossover_altitude(default_scenario, 300e9, [1_000.0, 2_000.0],
                                  spectrum_cache) is None

    def test_one_catalog_load_for_the_whole_search(
            self, default_scenario, monkeypatch, tmp_path, capsys):
        records = bundled_catalog_path().read_text().splitlines(True)
        records[3] = "xx" + records[3][2:]
        path = tmp_path / "corrupt.par"
        path.write_text("".join(records))
        base = dataclasses.replace(default_scenario, catalog_path=str(path))
        altitudes = [1_000.0, 100_000.0, 190_000.0, 210_000.0, 300_000.0]
        cache = SpectrumCache()

        def gap(h):
            """A2E minus A2S zenith loss, each resolve loading the catalog."""
            down, up = (resolve(dataclasses.replace(
                base, kind=kind, h_airplane=h, central_angle=0.0,
                f_min=300e9, f_max=300e9 + 2 * base.f_step), cache,
                with_capacity=False).path_loss_db[0]
                for kind in ("A2E", "A2S"))
            return down - up

        gaps = [gap(h) for h in altitudes[:4]]
        assert max(gaps[:3]) < 0.0 <= gaps[3]
        (h0, d0), (h1, d1) = zip(altitudes[2:4], gaps[2:4])
        capsys.readouterr()

        loads = []
        load = scenario_module.load_catalog
        monkeypatch.setattr(scenario_module, "load_catalog",
                            lambda *args: loads.append(args) or load(*args))
        h = crossover_altitude(base, 300e9, altitudes)
        assert len(loads) == 1
        assert capsys.readouterr().err.count("failed to parse") == 1
        assert h == h0 + (h1 - h0) * (-d0) / (d1 - d0)


class TestLayersSharedAcrossPoints:
    """Each distinct layer of a sweep is built, marked and keyed once."""

    LAYERS = 250   # 0-500 km in 2 km layers

    @pytest.fixture()
    def calls(self, monkeypatch):
        """profile_at calls, and the keys SpectrumCache.key returned."""
        calls = {"profile_at": 0, "keys": []}
        profile = atmosphere_module.profile_at

        def counted_profile(*args, **kwargs):
            calls["profile_at"] += 1
            return profile(*args, **kwargs)

        for module in (atmosphere_module, scenario_module):
            monkeypatch.setattr(module, "profile_at", counted_profile)
        key = SpectrumCache.key

        def counted_key(*args):
            calls["keys"].append(key(*args))
            return calls["keys"][-1]

        monkeypatch.setattr(SpectrumCache, "key", staticmethod(counted_key))
        return calls

    @pytest.fixture()
    def base(self, default_scenario):
        return dataclasses.replace(default_scenario, f_min=299e9,
                                   f_max=301e9, f_step=1e9,
                                   layer_resolution=2_000.0)

    def test_altitude_sweep_builds_and_keys_each_layer_once(self, base,
                                                            calls):
        points, _ = run_sweep(base, "altitude", 0.0, 24_000.0, 1_000.0,
                              cache=SpectrumCache())
        assert len(points) == 25
        # one state per distinct layer, and one cloud temperature per point
        assert calls["profile_at"] <= self.LAYERS + len(points)
        assert 0 < len(calls["keys"]) == len(set(calls["keys"])) <= self.LAYERS

    def test_warm_altitude_sweep_builds_the_band_once(self, base,
                                                      monkeypatch):
        cache = SpectrumCache()
        run_sweep(base, "altitude", 0.0, 24_000.0, 1_000.0, cache=cache)
        builds = []
        band = TransceiverConfig.band
        counted = cached_property(
            lambda tx: builds.append(tx) or band.func(tx))
        counted.__set_name__(TransceiverConfig, "band")
        monkeypatch.setattr(TransceiverConfig, "band", counted)
        # a new transceiver, so its band is built and checked again
        fresh = dataclasses.replace(base, transceiver=dataclasses.replace(
            base.transceiver))
        points, _ = run_sweep(fresh, "altitude", 0.0, 24_000.0, 1_000.0,
                              cache=cache)
        assert len(points) == 25
        assert len(builds) == 1

    def test_crossover_builds_and_keys_each_layer_once(self, base, calls):
        altitudes = [1_000.0, 100_000.0, 190_000.0, 210_000.0, 300_000.0]
        crossover_altitude(base, 300e9, altitudes)
        # A2E stacks share the A2S stack's full layers and add at most a
        # truncated top; each altitude resolves two links
        assert calls["profile_at"] <= self.LAYERS + 3 * len(altitudes)
        assert 0 < len(calls["keys"]) == len(set(calls["keys"]))
        assert len(calls["keys"]) <= self.LAYERS + len(altitudes)


class TestGeoSnrTrends:
    def test_snr_rises_with_altitude_and_frequency(self, default_scenario,
                                                   spectrum_cache):
        # fixed apertures gain as f^2, more than the spreading loss grows,
        # and the absorption column thins with altitude: over a
        # geostationary link the SNR surface rises along both axes
        def geo_snr(h_airplane, f_center):
            scenario = dataclasses.replace(
                default_scenario, h_satellite=36_000e3,
                h_airplane=h_airplane, f_min=f_center - 1e9,
                f_max=f_center + 1e9, f_step=1e9)
            resolved = resolve(scenario, spectrum_cache, with_capacity=False)
            return float(resolved.snr[1])

        assert geo_snr(11_000.0, 300e9) > geo_snr(2_000.0, 300e9)
        assert geo_snr(11_000.0, 660e9) > geo_snr(11_000.0, 300e9)
