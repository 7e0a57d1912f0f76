import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thzlink import scenario as scenario_module
from thzlink.catalog import (
    SpectralLine,
    bundled_catalog_path,
    format_line_record,
    load_catalog,
)
from thzlink.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, main
from thzlink.scenario import _DEFAULTS, KINDS

SRC = Path(__file__).parent.parent / "src"
CONFIG_DIR = SRC / "thzlink" / "data" / "configs"


@pytest.fixture()
def quick_config(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(
        "kind = A2S\n"
        "h_airplane_km = 11\n"
        "h_satellite_km = 500\n"
        "f_min_ghz = 298\n"
        "f_max_ghz = 302\n"
        "f_step_ghz = 1\n"
    )
    return path


@pytest.fixture()
def coarse_config(tmp_path):
    path = tmp_path / "coarse.cfg"
    path.write_text(
        "kind = E2A\n"
        "elevation_deg = 50\n"
        "layer_resolution_m = 2000\n"
        "f_min_ghz = 298\n"
        "f_max_ghz = 302\n"
        "f_step_ghz = 1\n"
    )
    return path


NUMERIC_KEYS = sorted(k for k in _DEFAULTS if k not in ("kind", "catalog_path"))
# finite as written, but not in SI units or, for the noise figure, as a
# linear factor
OVERFLOWING = [("noise_figure_db", "1e6"), ("f_max_ghz", "1e300"),
               ("center_frequency_ghz", "1e300")]


def output_bytes(directory):
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()
            if p.is_file()}


def file_hashes(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).glob("*.csv"))
    }


class TestRunCommand:
    def test_run_writes_reports(self, quick_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(quick_config), "--out-dir", str(out)]) == EXIT_OK
        for name in ("path_loss.csv", "snr.csv", "capacity.csv",
                     "summary.txt"):
            assert (out / name).exists()
        printed = capsys.readouterr()
        assert "path_loss.csv" in printed.out
        assert printed.err == ""

    def test_byte_identical_between_runs(self, quick_config, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["run", str(quick_config), "--out-dir", str(out1)]) == EXIT_OK
        assert main(["run", str(quick_config), "--out-dir", str(out2)]) == EXIT_OK
        assert file_hashes(out1) == file_hashes(out2)

    def test_dry_run_prints_and_writes_nothing(self, quick_config, tmp_path,
                                               capsys):
        out = tmp_path / "out"
        code = main(["run", str(quick_config), "--out-dir", str(out),
                     "--dry-run"])
        assert code == EXIT_OK
        assert not out.exists()
        printed = capsys.readouterr().out
        assert "kind = A2S" in printed

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("kind = A2S\nbandwidth_ghz = -1\n")
        assert main(["run", str(bad), "--out-dir",
                     str(tmp_path / "o")]) == EXIT_CONFIG
        assert "bandwidth_ghz" in capsys.readouterr().err

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg"), "--out-dir",
                     str(tmp_path / "o")]) == EXIT_CONFIG

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("kind = A2S\n# d\u00e9j\u00e0 vu\n".encode("latin-1"))
        assert main(["run", str(cfg), "--out-dir",
                     str(tmp_path / "o")]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_computation_error_exit_code(self, tmp_path, capsys):
        # a catalog path that vanishes between validation and computation
        cfg = tmp_path / "gone.cfg"
        cfg.write_text(
            "kind = A2S\n"
            "f_min_ghz = 298\nf_max_ghz = 302\nf_step_ghz = 1\n"
            f"catalog_path = {tmp_path / 'missing.par'}\n")
        assert main(["run", str(cfg), "--out-dir",
                     str(tmp_path / "o")]) == EXIT_COMPUTE
        assert "computation error" in capsys.readouterr().err

    def test_bundled_a2s_leo_reproduces_window_shape(self, tmp_path):
        # the 325 GHz water resonance must dent the transmittance and bump
        # the loss above the smooth fixed-aperture baseline
        out = tmp_path / "out"
        code = main(["run", str(CONFIG_DIR / "a2s_leo.cfg"),
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        loss, tau = {}, {}
        for line in (out / "path_loss.csv").read_text().splitlines()[2:]:
            fields = line.split(",")
            loss[float(fields[0])] = float(fields[1])
            tau[float(fields[0])] = float(fields[2])
        assert tau[325e9] < tau[300e9]
        assert tau[325e9] < tau[350e9]
        assert loss[325e9] > 0.5 * (loss[300e9] + loss[350e9])

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.cfg")),
                             ids=lambda path: path.stem)
    def test_bundled_config_runs_to_finite_outputs(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config), "--out-dir", str(out)]) == EXIT_OK
        csvs = sorted(out.glob("*.csv"))
        assert [path.name for path in csvs] == [
            "capacity.csv", "path_loss.csv", "snr.csv"]
        for path in csvs:
            first = path.name == "capacity.csv"   # skip the quantity's name
            values = np.array([line.split(",")[first:] for line in
                               path.read_text().splitlines()[2:]], dtype=float)
            assert values.size and np.isfinite(values).all(), path.name

    def test_custom_catalog_path(self, tmp_path, quick_config):
        custom = tmp_path / "lines.par"
        custom.write_bytes(bundled_catalog_path().read_bytes())
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(quick_config.read_text()
                       + f"catalog_path = {custom}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_OK

    def test_cache_dir_reused_without_changing_results(self, quick_config,
                                                       tmp_path):
        cache = tmp_path / "shared-cache"
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            code = main(["run", str(quick_config), "--out-dir", str(out),
                         "--cache-dir", str(cache)])
            assert code == EXIT_OK
        assert list(cache.glob("*.npy"))
        assert file_hashes(out1) == file_hashes(out2)


    def test_identical_catalogs_share_cache_entries(self, coarse_config,
                                                    tmp_path):
        cache = tmp_path / "cache"
        written = []
        for name in ("one", "two"):
            catalog = tmp_path / name / "lines.par"
            catalog.parent.mkdir()
            catalog.write_bytes(bundled_catalog_path().read_bytes())
            cfg = tmp_path / name / "run.cfg"
            cfg.write_text(coarse_config.read_text()
                           + f"catalog_path = {catalog}\n")
            code = main(["run", str(cfg), "--out-dir", str(tmp_path / name),
                         "--cache-dir", str(cache)])
            assert code == EXIT_OK
            written.append(sorted(p.name for p in cache.glob("*.npy")))
        assert written[0]
        assert written[1] == written[0]
        assert file_hashes(tmp_path / "one") == file_hashes(tmp_path / "two")

    def test_records_that_fail_to_parse_are_reported(self, coarse_config,
                                                     tmp_path, capsys):
        records = bundled_catalog_path().read_text().splitlines(True)
        records[3] = "xx" + records[3][2:]
        catalog = tmp_path / "corrupt.par"
        catalog.write_text("".join(records))
        cfg = tmp_path / "corrupt.cfg"
        cfg.write_text(coarse_config.read_text()
                       + f"catalog_path = {catalog}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        warning = ("warning: 1 catalog record(s) failed to parse and were "
                   "skipped, the first at line 4")
        assert err == [warning]
        assert warning in (out / "summary.txt").read_text().splitlines()

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_record_is_skipped_with_the_warning(self, tmp_path,
                                                          capsys, text):
        records = bundled_catalog_path().read_text().splitlines(True)
        index = next(i for i, record in enumerate(records)
                     if record[3:15] == "    6.114600")   # water, 183 GHz
        record = records[index]
        records[index] = record[:15] + text.rjust(10) + record[25:]
        catalog = tmp_path / "non_finite.par"
        catalog.write_text("".join(records))
        cfg = tmp_path / "e2a.cfg"
        cfg.write_text("kind = E2A\nf_min_ghz = 150\nf_max_ghz = 250\n"
                       "layer_resolution_m = 1000\n"
                       f"catalog_path = {catalog}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        warning = ("warning: 1 catalog record(s) failed to parse and were "
                   f"skipped, the first at line {index + 1}")
        assert capsys.readouterr().err.splitlines() == [warning]
        assert warning in (out / "summary.txt").read_text().splitlines()
        for name in ("path_loss.csv", "snr.csv", "capacity.csv"):
            values = np.loadtxt(out / name, delimiter=",", skiprows=2,
                                usecols=1)
            assert values.size and np.isfinite(values).all(), name

    # finite as parsed, but past what the line formulas can carry: the
    # intensity's Boltzmann ratio is 0/0, the collision width overflows
    @pytest.mark.parametrize("field, start, text", [
        ("E_lower", 45, "1.000E+300"), ("gamma_t", 55, "9e99"),
        ("alpha_air", 35, "9e300")])
    def test_line_with_non_finite_absorption_is_computation_error(
            self, tmp_path, capsys, field, start, text):
        records = bundled_catalog_path().read_text().splitlines(True)
        index = next(i for i, record in enumerate(records)
                     if record[3:15] == "    6.114600")   # water, 183 GHz
        record = records[index]
        records[index] = record[:start] + text + record[start + len(text):]
        catalog = tmp_path / f"{field}.par"
        catalog.write_text("".join(records))
        cfg = tmp_path / "e2a.cfg"
        cfg.write_text("kind = E2A\nf_min_ghz = 150\nf_max_ghz = 250\n"
                       "layer_resolution_m = 1000\n"
                       f"catalog_path = {catalog}\n")
        out, cache = tmp_path / "out", tmp_path / "cache"
        code = main(["run", str(cfg), "--out-dir", str(out),
                     "--cache-dir", str(cache)])
        assert code == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err.startswith(f"computation error (run {cfg}): catalog line "
                              "of H2O (molecule 1, isotopologue 1) at 6.1146 "
                              "1/cm makes kappa nan at 1.5e+11 Hz, p = ")
        assert not out.exists()
        # the ground layer, the first evaluated, already holds the line
        assert list(cache.glob("*.npy")) == []

    # the temperature exponent underflows the collision width to 0.0 where
    # it is negative, below 296 K, and where it is large, above 296 K: an
    # E2A stack is colder, and an A2S stack reaches the hot thermosphere
    @pytest.mark.parametrize("kind, text, layer", [
        ("E2A", "-9e9", "p = 95461.3 Pa, T = 284.9 K"),
        ("A2S", "9e99", "p = 0.0040334 Pa, T = 306 K")])
    def test_line_with_underflowed_collision_width_is_computation_error(
            self, tmp_path, capsys, kind, text, layer):
        records = bundled_catalog_path().read_text().splitlines(True)
        index = next(i for i, record in enumerate(records)
                     if record[3:15] == "    6.114600")   # water, 183 GHz
        record = records[index]
        assert record[55:59] == "0.74"
        records[index] = record[:55] + text + record[59:]
        catalog = tmp_path / "gamma_t.par"
        catalog.write_text("".join(records))
        cfg = tmp_path / "link.cfg"
        cfg.write_text(f"kind = {kind}\nf_min_ghz = 150\nf_max_ghz = 250\n"
                       "layer_resolution_m = 1000\n"
                       f"catalog_path = {catalog}\n")
        out, cache = tmp_path / "out", tmp_path / "cache"
        code = main(["run", str(cfg), "--out-dir", str(out),
                     "--cache-dir", str(cache)])
        assert code == EXIT_COMPUTE
        assert capsys.readouterr().err == (
            f"computation error (run {cfg}): catalog line of H2O (molecule "
            "1, isotopologue 1) at 6.1146 1/cm has collision half-width 0 "
            f"Hz, {layer}\n")
        assert not out.exists()
        # the stack pass refuses the line before any layer is computed
        assert list(cache.glob("*.npy")) == []

    def test_decks_far_above_the_path_are_missed_without_a_warning(
            self, tmp_path):
        # each deck is clipped to the terminals before the ray is measured
        # to it, so no length is computed at 1e300 m
        cfg = tmp_path / "far.cfg"
        cfg.write_text("kind = E2A\nelevation_deg = 30\n"
                       "layer_resolution_m = 2000\nf_min_ghz = 298\n"
                       "f_max_ghz = 302\nrain_rate_mm_h = 5\n"
                       "rain_base_km = 1e300\nrain_thickness_km = 2\n"
                       "cloud_density_g_m3 = 0.5\ncloud_base_km = 1e300\n")
        out = tmp_path / "out"
        code, _ = fresh_process("run", str(cfg), "--out-dir", str(out),
                                cwd=tmp_path)
        assert code == EXIT_OK
        rows = (out / "path_loss.csv").read_text().splitlines()
        header = rows[1].split(",")
        for row in rows[2:]:
            values = dict(zip(header, row.split(",")))
            assert values["rain_db"] == values["cloud_db"] == "0"

    @pytest.mark.parametrize("corruption",
                             ["text", "pickled", "wrong_length", "nan",
                              "changed_value", "swapped", "truncated"])
    def test_corrupt_cache_entry_is_recomputed(self, coarse_config, tmp_path,
                                               corruption):
        cache = tmp_path / "cache"
        runs = {}
        for name in ("clean", "rerun"):
            out = tmp_path / name
            code = main(["run", str(coarse_config), "--out-dir", str(out),
                         "--cache-dir", str(cache)])
            assert code == EXIT_OK
            runs[name] = {p.name: p.read_bytes() for p in out.iterdir()
                          if p.is_file()}
            if name == "clean":
                entry, other = sorted(cache.glob("*.npy"))[:2]
                good = np.load(entry)
                if corruption == "text":
                    entry.write_text("not an array\n")
                elif corruption == "pickled":
                    np.save(entry, np.array([{"kappa": good}], dtype=object),
                            allow_pickle=True)
                elif corruption == "wrong_length":
                    np.save(entry, good[:-1])
                elif corruption == "nan":
                    np.save(entry, np.where(good == good.max(), np.nan, good))
                elif corruption == "changed_value":
                    # still finite, non-negative and of the grid's length
                    np.save(entry, 1.5 * good)
                elif corruption == "swapped":
                    # a valid entry, of another layer
                    assert not np.array_equal(np.load(other), good)
                    entry.write_bytes(other.read_bytes())
                else:
                    data = entry.read_bytes()
                    entry.write_bytes(data[:len(data) // 2])
        assert runs["rerun"] == runs["clean"]
        np.testing.assert_array_equal(np.load(entry, allow_pickle=False),
                                      good)

    @pytest.mark.parametrize(
        "key, value",
        [(key, value) for value in ("nan", "inf", "-inf")
         for key in NUMERIC_KEYS] + OVERFLOWING)
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, key,
                                              value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"kind = A2S\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert f"line 2: field {key!r}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_over_maximum_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "fine.cfg"
        cfg.write_text("kind = A2A\nf_step_ghz = 1e-9\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert "field 'f_step_ghz'" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_collapsed_capacity_band_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text("kind = A2A\nf_min_ghz = 298\nf_max_ghz = 302\n"
                       "bandwidth_ghz = 1e-300\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert "field 'bandwidth_ghz'" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_collapsed_survey_grid_is_config_error(self, tmp_path, capsys):
        # 10,010 steps of 1e-6 Hz that all round back to 1e11 Hz
        cfg = tmp_path / "collapsed.cfg"
        cfg.write_text("kind = A2S\nf_min_ghz = 100\n"
                       "f_max_ghz = 100.00000000001\nf_step_ghz = 1e-15\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert "field 'f_step_ghz'" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("kind, key, value", [
        ("A2A", "f_step_ghz", "1e-9"),
        ("A2A", "bandwidth_ghz", "1e-300"),
        ("E2S", "central_angle_deg", "89"),
        ("E2A", "layer_resolution_m", "0.001"),
        ("A2S", "tx_dish_efficiency", "1.5"),
        ("A2S", "rx_dish_diameter_m", "-1"),
        # too close to the horizon for a positive elevation angle
        ("A2S", "elevation_deg", "1e-300"),
    ] + [(kind, "f_min_ghz", "1e-300") for kind in KINDS])
    def test_dry_run_checks_every_rule(self, tmp_path, capsys, kind, key,
                                       value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"kind = {kind}\n{key} = {value}\n")
        code = main(["run", str(cfg), "--out-dir", str(tmp_path / "o"),
                     "--dry-run"])
        assert code == EXIT_CONFIG
        assert f"line 2: field {key!r}" in capsys.readouterr().err

    def test_layer_count_over_the_bound_is_an_integer(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "fine.cfg"
        cfg.write_text("kind = E2S\nh_ground_m = 499999\n"
                       "layer_resolution_m = 1e-9\n")
        code = main(["run", str(cfg), "--out-dir", str(tmp_path / "o"),
                     "--dry-run"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 3: field 'layer_resolution_m'" in err
        assert " 500,000,000,000,000 layers " in err

    @pytest.mark.parametrize("text, key", [
        ("kind = E2S\nh_ground_m = 600000\nh_satellite_km = 1000\n",
         "h_ground_m"),
        ("kind = E2A\nh_airplane_km = 1e-30\n", "h_airplane_km"),
    ])
    def test_terminal_placement_is_config_error(self, tmp_path, capsys, text,
                                                key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main(["run", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"field {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--axis", "altitude", "--from", "0", "--to", "0", "--step", "1"],
])
@pytest.mark.parametrize("option", ["--out-dir", "--cache-dir"])
def test_directory_that_is_a_file_is_io_error(quick_config, tmp_path, capsys,
                                              command, option):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    dirs = {"--out-dir": str(tmp_path / "out"),
            "--cache-dir": str(tmp_path / "cache"), option: str(blocker)}
    code = main([command[0], str(quick_config), *command[1:],
                 *(x for pair in dirs.items() for x in pair)])
    assert code == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error ({command[0]} ")
    assert str(blocker) in err


def test_unphysical_value_in_a_run_is_computation_error(quick_config,
                                                       tmp_path, capsys,
                                                       monkeypatch):
    # no scenario reaches these checks; a negative rain rate stands in
    rain = scenario_module.rain_attenuation
    monkeypatch.setattr(scenario_module, "rain_attenuation",
                        lambda f, rate, path: rain(f, -1.0, path))
    code = main(["run", str(quick_config), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith("computation error (run ")
    assert "rain_rate must be nonnegative" in err


# run in a fresh interpreter on src/: the exit code of main(argv), and
# whether the module was imported
PROBE = """import sys
from thzlink.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, {module!r} in sys.modules)
"""


def fresh_process(*argv, cwd, module="scipy"):
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         PROBE.format(module=module), *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True)
    code, imported = done.stdout.splitlines()[-1].split()
    return int(code), imported == "True"


class TestScipyOnlyForVoigtLines:
    """scipy once supplied the Voigt shape alone; the kernel now has its own
    Faddeeva function, so no process imports scipy, not even one that
    evaluates Voigt-branch lines. The tests themselves import scipy, hence
    the fresh interpreters."""

    @pytest.fixture(scope="class")
    def a2s_cold(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("a2s")
        code = main(["run", str(CONFIG_DIR / "a2s_leo.cfg"), "--out-dir",
                     str(root / "out"), "--cache-dir", str(root / "cache")])
        assert code == EXIT_OK
        return root

    def test_importing_the_cli_does_not_import_scipy(self, tmp_path):
        assert fresh_process(cwd=tmp_path) == (EXIT_OK, False)

    def test_warm_a2s_run_does_not_import_scipy(self, a2s_cold, tmp_path):
        assert fresh_process("run", str(CONFIG_DIR / "a2s_leo.cfg"),
                             "--out-dir", str(tmp_path / "out"),
                             "--cache-dir", str(a2s_cold / "cache"),
                             cwd=tmp_path) == (EXIT_OK, False)
        assert output_bytes(tmp_path / "out") == output_bytes(
            a2s_cold / "out")

    def test_cold_e2a_run_does_not_import_scipy(self, tmp_path):
        assert fresh_process("run", str(CONFIG_DIR / "e2a_nimbostratus.cfg"),
                             "--out-dir", str(tmp_path / "out"),
                             "--cache-dir", str(tmp_path / "cache"),
                             cwd=tmp_path) == (EXIT_OK, False)

    def test_cold_a2s_run_does_not_import_scipy_and_writes_the_same_bytes(
            self, a2s_cold, tmp_path):
        assert fresh_process("run", str(CONFIG_DIR / "a2s_leo.cfg"),
                             "--out-dir", str(tmp_path / "out"),
                             "--cache-dir", str(tmp_path / "cache"),
                             cwd=tmp_path) == (EXIT_OK, False)
        assert output_bytes(tmp_path / "out") == output_bytes(
            a2s_cold / "out")

    def test_cold_a2s_altitude_sweep_does_not_import_scipy(self, tmp_path):
        # every point's stack reaches the Voigt-shaped upper atmosphere
        assert fresh_process("sweep", str(CONFIG_DIR / "a2s_leo.cfg"),
                             "--axis", "altitude", "--from", "0", "--to",
                             "2000", "--step", "1000", "--out-dir",
                             str(tmp_path / "out"), "--cache-dir",
                             str(tmp_path / "cache"),
                             cwd=tmp_path) == (EXIT_OK, False)


def test_cold_a2s_run_does_not_import_numpy_ma(tmp_path):
    # np.union1d's np.unique imports numpy.ma, which a run does not need
    assert fresh_process("run", str(CONFIG_DIR / "a2s_leo.cfg"),
                         "--out-dir", str(tmp_path / "out"),
                         "--cache-dir", str(tmp_path / "cache"),
                         cwd=tmp_path, module="numpy.ma") == (EXIT_OK, False)


class TestBenchmarkHooks:
    def test_layer_tracer_sees_kernel_and_cache(self, coarse_config,
                                                tmp_path, monkeypatch):
        # the benchmark's --trace 1 wraps these hooks; a rename breaks it
        monkeypatch.syspath_prepend(
            str(Path(__file__).parent.parent / "perfbench"))
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        try:
            code = main(["run", str(coarse_config), "--out-dir",
                         str(tmp_path / "o"), "--cache-dir",
                         str(tmp_path / "cache")])
        finally:
            tracer.uninstall()
        assert code == EXIT_OK
        assert tracer.counts["absorption.spectra"] > 0
        assert tracer.busy["absorption.kernel"] > 0.0
        assert tracer.counts["scenario.cache_lookups"] > 0
        assert tracer.counts["scenario.cache_files_written"] > 0

    def test_every_cache_miss_writes_its_file(self, tmp_path, monkeypatch,
                                              capsys):
        # the tracer stats {key}.npy after each computed entry; layers that
        # cannot absorb never reach the cache, so each miss still writes one
        monkeypatch.syspath_prepend(
            str(Path(__file__).parent.parent / "perfbench"))
        import layertrace

        cfg = tmp_path / "e2s.cfg"
        cfg.write_text("kind = E2S\n")   # 1,000 layers of 500 m
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            code = main(["run", str(cfg), "--out-dir", str(tmp_path / "o"),
                         "--cache-dir", str(tmp_path / "cache")])
        finally:
            tracer.uninstall()
        err = capsys.readouterr().err
        assert code == EXIT_OK, err
        assert "Traceback" not in err and "I/O error" not in err
        spectra = tracer.counts["absorption.spectra"]
        assert spectra == tracer.counts["scenario.cache_lookups"]
        assert spectra == tracer.counts["scenario.cache_files_written"]
        assert 0 < spectra < 1000
        assert len(list((tmp_path / "cache").glob("*.npy"))) == spectra

    def test_weather_is_one_call_each_per_run(self, coarse_config, tmp_path,
                                              monkeypatch, capsys):
        # the tracer wraps rain_attenuation and cloud_attenuation in
        # thzlink.scenario; each takes the whole grid in one call
        monkeypatch.syspath_prepend(
            str(Path(__file__).parent.parent / "perfbench"))
        import layertrace

        cfg = tmp_path / "wet.cfg"
        cfg.write_text(coarse_config.read_text()
                       + "rain_rate_mm_h = 10\nrain_thickness_km = 1\n"
                         "cloud_density_g_m3 = 0.5\n")
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            code = main(["run", str(cfg), "--out-dir", str(tmp_path / "o"),
                         "--cache-dir", str(tmp_path / "cache")])
        finally:
            tracer.uninstall()
        err = capsys.readouterr().err
        assert code == EXIT_OK, err
        assert "Traceback" not in err
        assert tracer.busy["channel.weather"] > 0.0
        assert tracer.counts["channel.weather_evals"] == 2

    def test_noise_points_are_live_layers_times_grid(self, tmp_path,
                                                     monkeypatch, capsys):
        # the tracer counts the sky's transmittances; on a cold cache each
        # live traversed layer is one computed spectrum
        monkeypatch.syspath_prepend(
            str(Path(__file__).parent.parent / "perfbench"))
        import layertrace

        cfg = tmp_path / "e2s.cfg"
        cfg.write_text("kind = E2S\n")   # 1,000 layers of 500 m
        scenario = scenario_module.parse_config(cfg)
        grid = np.union1d(scenario_module.make_grid(
            scenario.f_min, scenario.f_max, scenario.f_step),
            scenario.transceiver.band)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            code = main(["run", str(cfg), "--out-dir", str(tmp_path / "o"),
                         "--cache-dir", str(tmp_path / "cache")])
        finally:
            tracer.uninstall()
        assert code == EXIT_OK, capsys.readouterr().err
        spectra = tracer.counts["absorption.spectra"]
        assert 0 < spectra < 1000
        assert tracer.counts["link.noise_points"] == spectra * grid.size


class TestSweepCommand:
    def test_dry_run_is_not_a_sweep_option(self, quick_config, tmp_path,
                                           capsys):
        # run and sweep share their common options, not run's own
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", str(quick_config), "--axis", "altitude",
                  "--from", "0", "--to", "0", "--step", "1",
                  "--out-dir", str(out), "--dry-run"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --dry-run" in capsys.readouterr().err
        assert not out.exists()

    def test_altitude_sweep_csv(self, quick_config, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", str(quick_config), "--axis", "altitude",
                     "--from", "0", "--to", "4000", "--step", "2000",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1] == "axis_value,frequency_hz,metric,value"
        metrics = {line.split(",")[2] for line in lines[2:]}
        assert metrics == {"capacity_bit_s", "path_loss_db", "snr_db"}

    def test_one_point_sweep_writes_the_numbers_of_a_run(self, tmp_path):
        cfg = tmp_path / "a2s.cfg"
        cfg.write_text("kind = A2S\nh_airplane_km = 11\nelevation_deg = 60\n"
                       "f_min_ghz = 280\nf_max_ghz = 320\nf_step_ghz = 5\n"
                       "layer_resolution_m = 10000\n")
        run, sweep = tmp_path / "run", tmp_path / "sweep"
        assert main(["run", str(cfg), "--out-dir", str(run)]) == EXIT_OK
        assert main(["sweep", str(cfg), "--axis", "altitude", "--from",
                     "11000", "--to", "11000", "--step", "1",
                     "--out-dir", str(sweep)]) == EXIT_OK

        def read(path):
            lines = path.read_text().splitlines()
            return lines[0], [line.split(",") for line in lines[2:]]

        provenance, swept = read(sweep / "sweep.csv")
        prov, quantities = read(run / "capacity.csv")
        assert prov == provenance
        values = dict(quantities)
        expected = [["11000", values["center_frequency_hz"],
                     "capacity_bit_s", values["capacity_bit_s"]]]
        for name, metric in (("path_loss.csv", "path_loss_db"),
                             ("snr.csv", "snr_db")):
            prov, table = read(run / name)
            assert prov == provenance and len(table) == 9
            expected += [["11000", f, metric, value] for f, value, *_ in table]
        assert swept == expected

    def test_empty_range_is_config_error(self, quick_config, tmp_path,
                                         capsys):
        code = main(["sweep", str(quick_config), "--axis", "altitude",
                     "--from", "4000", "--to", "0", "--step", "500",
                     "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_axis_kind_mismatch_is_config_error(self, tmp_path):
        cfg = tmp_path / "e2s.cfg"
        cfg.write_text(
            "kind = E2S\nf_min_ghz = 298\nf_max_ghz = 302\nf_step_ghz = 1\n")
        code = main(["sweep", str(cfg), "--axis", "altitude",
                     "--from", "0", "--to", "1000", "--step", "500",
                     "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_sweep_deterministic(self, quick_config, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["sweep", str(quick_config), "--axis", "altitude",
                         "--from", "0", "--to", "2000", "--step", "1000",
                         "--out-dir", str(out)]) == EXIT_OK
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind, expected",
                             [("A2E", EXIT_CONFIG), ("E2A", EXIT_CONFIG),
                              ("A2S", EXIT_OK)])
    def test_altitude_points_obey_config_rules(self, coarse_config, tmp_path,
                                               capsys, kind, expected):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(coarse_config.read_text().replace("E2A", kind))
        code = main(["sweep", str(cfg), "--axis", "altitude", "--from", "0",
                     "--to", "0", "--step", "500",
                     "--out-dir", str(tmp_path / "o")])
        assert code == expected
        if expected == EXIT_CONFIG:
            assert "altitude 0 m" in capsys.readouterr().err

    @pytest.mark.parametrize("value, expected",
                             [("0", EXIT_CONFIG), ("-10", EXIT_CONFIG),
                              ("91", EXIT_CONFIG), ("90", EXIT_OK)])
    def test_elevation_points_obey_config_rules(self, coarse_config, tmp_path,
                                                capsys, value, expected):
        code = main(["sweep", str(coarse_config), "--axis", "elevation",
                     "--from", value, "--to", value, "--step", "1",
                     "--out-dir", str(tmp_path / "o")])
        assert code == expected
        if expected == EXIT_CONFIG:
            assert f"elevation {value} deg" in capsys.readouterr().err

    def test_elevation_at_the_horizon_names_elevation(self, quick_config,
                                                       tmp_path, capsys):
        code = main(["sweep", str(quick_config), "--axis", "elevation",
                     "--from", "1e-300", "--to", "1", "--step", "1",
                     "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "elevation 1e-300 deg: field 'elevation_deg'" in err
        assert "central_angle_deg" not in err

    @pytest.mark.parametrize("start, stop, step",
                             [("-10", "10", "10"), ("10", "20", "1e300"),
                              ("10", "10", "1")])
    def test_frequency_bounds_obey_config_rules(self, tmp_path, capsys, start,
                                                stop, step):
        cfg = tmp_path / "a2a.cfg"
        cfg.write_text("kind = A2A\n")
        out = tmp_path / "o"
        code = main(["sweep", str(cfg), "--axis", "frequency", "--from",
                     start, "--to", stop, "--step", step,
                     "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert f"frequency {start} to {stop} GHz" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("bound", ["--from", "--to", "--step"])
    def test_non_finite_sweep_bound_is_config_error(self, quick_config,
                                                    tmp_path, bound):
        argv = {"--from": "0", "--to": "1000", "--step": "500", bound: "nan"}
        code = main(["sweep", str(quick_config), "--axis", "altitude",
                     *(x for pair in argv.items() for x in pair),
                     "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


def spy_on_line_objects(monkeypatch):
    """The list of every :class:`SpectralLine` built from here on."""
    built = []
    post_init = SpectralLine.__post_init__

    def counting(line):
        built.append(line)
        post_init(line)

    monkeypatch.setattr(SpectralLine, "__post_init__", counting)
    return built


class TestNoLineObjects:
    """A run that raises no error keeps its catalog as a table from the
    file to the kernel, and builds no :class:`SpectralLine`."""

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.cfg")),
                             ids=lambda path: path.stem)
    def test_a_bundled_run(self, monkeypatch, tmp_path, config):
        built = spy_on_line_objects(monkeypatch)
        assert main(["run", str(config), "--out-dir",
                     str(tmp_path / "out")]) == EXIT_OK
        assert built == []

    def test_an_e2a_run_on_a_dense_catalog(self, monkeypatch, tmp_path):
        rng = random.Random(20260808)
        records = [format_line_record(SpectralLine(
            molecule_id=1 if water else 7, isotopologue_id=1,
            nu0=rng.uniform(0.5, 60.0),
            S0_ref=10.0 ** rng.uniform(-28.0, -24.0),
            alpha_air=rng.uniform(0.02, 0.1), alpha_self=rng.uniform(0.1, 0.5),
            E_lower=rng.uniform(0.0, 2000.0), gamma_t=rng.uniform(0.5, 0.8),
            delta_air=rng.uniform(-0.005, 0.005), abundance=1.0))
            for water in (rng.random() < 0.6 for _ in range(1500))]
        catalog = tmp_path / "dense.par"
        catalog.write_text("\n".join(records) + "\n")
        cfg = tmp_path / "e2a.cfg"
        cfg.write_text("kind = E2A\nlayer_resolution_m = 1000\n"
                       f"catalog_path = {catalog}\n")
        built = spy_on_line_objects(monkeypatch)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache")]) == EXIT_OK
        assert built == []
        # the spy sees the lines that iteration builds on demand
        loaded = list(load_catalog(catalog, 0.0, 100.0))
        assert len(loaded) == len(records) and built == loaded
