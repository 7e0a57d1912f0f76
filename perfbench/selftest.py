"""Self-tests of the benchmark's output checks, time scaling and metric lists.

    python3 perfbench/selftest.py

Each check must accept real program output and reject a deliberately
perturbed copy (scaled tau, shifted fspl_db, a dropped row, ...). The real
outputs come from small scenarios (coarse layers, a low atmosphere top, short
sweeps) so the whole file runs in a few seconds. The file name keeps it out
of the repository's pytest collection.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import unittest
from unittest import mock
from pathlib import Path

import numpy as np

import run
import checks
import hostspeed
import layertrace
import workloads

run_cli = run.Runner(run.import_program())

# Coarse but consistent: the airplane altitude is a multiple of the layer
# resolution, so E2A, A2S and E2S still share layers along one ray.
SMALL = {"layer_resolution_m": 2000.0, "atmosphere_top_km": 100.0,
         "h_airplane_km": 10.0}
# A smaller synthetic catalog for dense_catalog: 150 records in the window.
SMALL_CATALOG = {"DENSE_IN_WINDOW": 150, "DENSE_OUT_OF_WINDOW": 150}


def perturbed(table: dict, column: str, fn) -> dict:
    out = dict(table)
    out[column] = fn(table[column].copy())
    return out


def drop_last_row(table: dict) -> dict:
    return {name: values[:-1] for name, values in table.items()}


class Outputs:
    """Runs small versions of the workloads once for all tests."""

    root: Path
    cold: workloads.ColdLinks
    weather: workloads.WeatherGrid
    sweep: workloads.AltitudeSweep
    dense: workloads.DenseCatalog

    @classmethod
    def make(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.root = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        cls.cold = _prepare(workloads.ColdLinks, cls.root / "cold", SMALL)
        cls.cold_ok = _run_pass(cls.cold, cls.root / "cold" / "pass")
        cls.weather = _prepare(workloads.WeatherGrid, cls.root / "weather",
                               dict(SMALL, f_step_ghz=1.0))
        cls.weather_ok = _run_pass(cls.weather, cls.root / "weather" / "pass")
        cls.sweep = _prepare(workloads.AltitudeSweep, cls.root / "sweep",
                             {"atmosphere_top_km": 100.0})
        cls.sweep.warm_up()
        with mock.patch.multiple(workloads, **SMALL_CATALOG):
            cls.dense = _prepare(workloads.DenseCatalog, cls.root / "dense",
                                 SMALL)
        cls.dense_ok = _run_pass(cls.dense, cls.root / "dense" / "pass")

    @classmethod
    def remove(cls):
        shutil.rmtree(cls.root, ignore_errors=True)


def _prepare(workload_cls, root: Path, overrides: dict):
    """The workload's own inputs for seed 7, on a smaller configuration."""
    workload = workload_cls(run_cli)
    root.mkdir(parents=True)
    with mock.patch.dict(workloads.BASE_CONFIG, overrides):
        workload.prepare(root, random.Random(7))
    return workload


def _run_pass(workload, pass_dir: Path) -> set[str]:
    return {label for label, op in workload.operations(pass_dir)
            if run_cli(op) == 0}


def setUpModule():
    Outputs.make()


def tearDownModule():
    Outputs.remove()


class ColdLinkChecks(unittest.TestCase):

    def outputs(self, kind):
        return workloads.run_outputs(Outputs.root / "cold" / "pass" / kind)

    def test_every_operation_succeeds_and_passes(self):
        self.assertEqual(Outputs.cold_ok, set(workloads.KINDS))
        problems = Outputs.cold.check_pass(Outputs.root / "cold" / "pass",
                                           Outputs.cold_ok)
        self.assertEqual(problems, [])

    def assert_link_rejects(self, kind, pl=None, snr=None, cap=None):
        real_pl, real_snr, real_cap = self.outputs(kind)
        cfg = Outputs.cold.configs[kind]
        self.assertEqual(checks.check_link(cfg, real_pl, real_snr, real_cap), [])
        problems = checks.check_link(cfg, pl or real_pl, snr or real_snr,
                                     cap or real_cap)
        self.assertNotEqual(problems, [])

    def test_shifted_fspl_is_rejected(self):
        pl, _, _ = self.outputs("A2S")
        self.assert_link_rejects(
            "A2S", pl=perturbed(pl, "fspl_db", lambda v: v + 0.01))

    def test_scaled_tau_is_rejected(self):
        pl, _, _ = self.outputs("E2S")
        self.assert_link_rejects(
            "E2S", pl=perturbed(pl, "tau", lambda v: v * 0.99))

    def test_dropped_row_is_rejected(self):
        pl, snr, _ = self.outputs("E2A")
        self.assert_link_rejects("E2A", pl=drop_last_row(pl))
        self.assert_link_rejects("E2A", snr=drop_last_row(snr))

    def test_wrong_snr_is_rejected(self):
        _, snr, _ = self.outputs("S2E")
        self.assert_link_rejects(
            "S2E", snr=perturbed(snr, "snr_db", lambda v: v + 0.001))

    def test_noise_below_receiver_floor_is_rejected(self):
        _, snr, _ = self.outputs("A2A")
        cfg = Outputs.cold.configs["A2A"]
        floor = checks.receiver_floor_dbw_hz(cfg, snr["frequency_hz"])
        low = perturbed(snr, "noise_psd_dbw_hz", lambda v: floor - 0.01)
        low = perturbed(low, "snr_db",
                        lambda v: v + snr["noise_psd_dbw_hz"] - floor + 0.01)
        self.assert_link_rejects("A2A", snr=low)

    def test_nan_and_stray_inf_are_rejected(self):
        pl, _, _ = self.outputs("S2A")

        def put(value):
            def fn(v):
                v[len(v) // 2] = value
                return v
            return fn

        self.assert_link_rejects("S2A", pl=perturbed(pl, "tau", put(np.nan)))
        self.assert_link_rejects(
            "S2A", pl=perturbed(pl, "path_loss_db", put(np.inf)))

    def test_zero_capacity_is_rejected(self):
        self.assert_link_rejects("A2E", cap={"capacity_bit_s": 0.0})

    def test_optical_depth_additivity(self):
        taus = {k: self.outputs(k)[0]["tau"] for k in ("E2A", "A2S", "E2S")}
        label = "E2S = E2A + A2S"
        self.assertEqual(checks.check_sum_of_depths(
            taus["E2S"], [taus["E2A"], taus["A2S"]], label), [])
        self.assertTrue((taus["E2S"] < 0.99).any())
        self.assertNotEqual(checks.check_sum_of_depths(
            taus["E2S"] ** 1.001, [taus["E2A"], taus["A2S"]], label), [])
        self.assertNotEqual(checks.check_sum_of_depths(
            taus["E2S"], [taus["E2A"], taus["A2S"][:-1]], label), [])

    def test_reciprocity(self):
        a = self.outputs("A2S")[0]["path_loss_db"]
        b = self.outputs("S2A")[0]["path_loss_db"]
        self.assertEqual(checks.check_identical(a, b, "A2S/S2A"), [])
        self.assertNotEqual(checks.check_identical(
            a, np.nextafter(b, np.inf), "A2S/S2A"), [])


class WeatherChecks(unittest.TestCase):

    def outputs(self, label):
        return workloads.run_outputs(Outputs.root / "weather" / "pass" / label)

    def test_every_operation_succeeds_and_passes(self):
        self.assertEqual(Outputs.weather_ok, set(Outputs.weather.configs))
        problems = Outputs.weather.check_pass(
            Outputs.root / "weather" / "pass", Outputs.weather_ok)
        self.assertEqual(problems, [])

    def test_weather_terms_enter_the_identity(self):
        pl, snr, cap = self.outputs("E2A")
        cfg = Outputs.weather.configs["E2A"]
        self.assertTrue((pl["rain_db"] > 0).all() and (pl["cloud_db"] > 0).all())
        for column in ("rain_db", "cloud_db"):
            self.assertNotEqual(checks.check_link(
                cfg, perturbed(pl, column, lambda v: v * 1.01), snr, cap), [])

    def test_cloud_scales_with_density(self):
        base = self.outputs("E2A")[0]["cloud_db"]
        scaled = self.outputs("E2A_cloud")[0]["cloud_db"]
        ratio = Outputs.weather.cloud_ratio
        self.assertEqual(checks.check_weather_scaling(base, scaled, ratio,
                                                      "cloud"), [])
        self.assertNotEqual(checks.check_weather_scaling(
            base, scaled * 1.001, ratio, "cloud"), [])

    def test_rain_scales_with_path_length(self):
        base = self.outputs("A2E")[0]["rain_db"]
        scaled = self.outputs("A2E_rain")[0]["rain_db"]
        ratio = Outputs.weather.rain_ratio
        self.assertEqual(checks.check_weather_scaling(base, scaled, ratio,
                                                      "rain"), [])
        thickness = (Outputs.weather.configs["A2E_rain"]["rain_thickness_km"]
                     / Outputs.weather.configs["A2E"]["rain_thickness_km"])
        if abs(thickness / ratio - 1.0) > 1e-6:
            # a slanted path is not proportional to the layer thickness
            self.assertNotEqual(checks.check_weather_scaling(
                base, scaled, thickness, "rain"), [])
        self.assertNotEqual(checks.check_weather_scaling(
            base, scaled[:-1], ratio, "rain"), [])


class DenseCatalogChecks(unittest.TestCase):

    def setUp(self):
        self.pass_dir = Outputs.root / "dense" / "pass"
        self.problems = Outputs.dense.check_pass(self.pass_dir,
                                                 Outputs.dense_ok)

    def check_run(self):
        with mock.patch.multiple(workloads, **SMALL_CATALOG):
            return Outputs.dense.check_run()

    def test_real_output_passes(self):
        self.assertEqual(Outputs.dense_ok, set(Outputs.dense.ops))
        self.assertEqual(self.problems, [])
        self.assertEqual(self.check_run(), [])

    def test_dropped_record_in_window_is_rejected(self):
        from thzlink.catalog import parse_line_record

        path = Outputs.dense.catalogs["full"]
        text = path.read_text()
        records = text.splitlines()
        lowest = min(records, key=lambda r: parse_line_record(r).nu0)
        records.remove(lowest)
        try:
            path.write_text("\n".join(records) + "\n")
            problems = self.check_run()
        finally:
            path.write_text(text)
        self.assertTrue(any("lines loaded" in p for p in problems), problems)

    def test_scaled_full_depth_is_rejected(self):
        tau = Outputs.dense.first_tau
        self.assertTrue((tau < 0.99).any())
        try:
            Outputs.dense.first_tau = tau * 0.99
            problems = self.check_run()
        finally:
            Outputs.dense.first_tau = tau
        self.assertTrue(any("optical depth over lines" in p for p in problems),
                        problems)

    def test_reciprocity_on_the_dense_catalog(self):
        path = self.pass_dir / "A2E" / "path_loss.csv"
        text = path.read_text()
        pl = checks.read_table(path)
        row = int(np.argmax(np.isfinite(pl["path_loss_db"])))
        lines = text.splitlines(keepends=True)
        header = [i for i, ln in enumerate(lines) if not ln.startswith("#")][0]
        cells = lines[header + 1 + row].rstrip("\n").split(",")
        column = lines[header].rstrip("\n").split(",").index("path_loss_db")
        cells[column] = repr(float(cells[column]) + 1.0)
        lines[header + 1 + row] = ",".join(cells) + "\n"
        try:
            path.write_text("".join(lines))
            problems = Outputs.dense.check_pass(self.pass_dir, Outputs.dense_ok)
        finally:
            path.write_text(text)
        self.assertTrue(any("E2A vs A2E" in p for p in problems), problems)


class SweepChecks(unittest.TestCase):

    def sweep(self, kind):
        return checks.read_sweep(Outputs.root / "sweep" / "cold" / kind
                                 / "sweep.csv")

    def test_cold_sweeps_pass(self):
        self.assertEqual(set(Outputs.sweep.cold), {"A2S", "A2E"})
        self.assertEqual(Outputs.sweep.check_run(), [])

    def test_warm_sweep_reproduces_cold_bytes(self):
        pass_dir = Outputs.root / "sweep" / "pass"
        ok = _run_pass(Outputs.sweep, pass_dir)
        self.assertEqual(Outputs.sweep.check_pass(pass_dir, ok), [])
        path = pass_dir / "A2S" / "sweep.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 3))
        self.assertNotEqual(Outputs.sweep.check_pass(pass_dir, ok), [])

    def test_wrong_direction_is_rejected(self):
        for kind, rising in (("A2S", False), ("A2E", True)):
            cfg = Outputs.sweep.configs[kind]
            altitudes = Outputs.sweep.altitudes(kind)
            self.assertEqual(checks.check_altitude_sweep(
                cfg, self.sweep(kind), altitudes, rising), [])
            self.assertNotEqual(checks.check_altitude_sweep(
                cfg, self.sweep(kind), altitudes, not rising), [])

    def test_dropped_altitude_or_row_is_rejected(self):
        cfg = Outputs.sweep.configs["A2S"]
        altitudes = Outputs.sweep.altitudes("A2S")
        sweep = self.sweep("A2S")
        del sweep["path_loss_db"][altitudes[3]]
        self.assertNotEqual(checks.check_altitude_sweep(
            cfg, sweep, altitudes, False), [])
        sweep = self.sweep("A2S")
        sweep["snr_db"][altitudes[2]] = sweep["snr_db"][altitudes[2]][:-1]
        self.assertNotEqual(checks.check_altitude_sweep(
            cfg, sweep, altitudes, False), [])


class HostClockScaling(unittest.TestCase):

    def test_interval_is_scaled_by_the_references_around_it(self):
        ref = hostspeed.REFERENCE_S
        times = iter([2 * ref, 2 * ref, ref])
        with mock.patch.object(hostspeed, "reference_s", lambda: next(times)):
            clock = hostspeed.HostClock()
            self.assertAlmostEqual(clock.scale_before(1.0), 0.5)
            self.assertAlmostEqual(clock.scale(1.0), 0.5)     # 2x slow
            self.assertAlmostEqual(clock.scale(3.0), 2.0)     # 1.5x slow
        self.assertEqual(clock.references, [2 * ref, 2 * ref, ref])


class MetricLists(unittest.TestCase):

    def test_benchmark_json_names_the_metrics_the_runner_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(layertrace.METRICS))
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"setup_s", "pass_s", "points_per_s", "peak_rss_mb"})


if __name__ == "__main__":
    unittest.main()
