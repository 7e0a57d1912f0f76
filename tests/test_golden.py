"""Byte-for-byte golden outputs of the ``run`` and ``sweep`` commands.

The fixtures under ``tests/golden/<case>/`` pin every output file of a fixed
set of scenarios: all seven link kinds; rain and cloud on a survey grid below
the cloud table's 200 GHz limit while the capacity band sits at 300 GHz, so
only the band is extrapolated; rain and cloud on a grid that crosses 200 GHz
and 1000 GHz; a capacity band outside the survey grid;
near-transparent and fully transparent paths on the default grid and layers;
one sweep on each axis; an altitude sweep on the default 500 m layers; and
a frequency sweep whose capacity band lies outside its points. Other grids
are short and layers coarse so the suite stays fast. No case may emit a
RuntimeWarning.

Regenerate the fixtures only for a change that is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py

and measure how far it moves them with ``tools/golden_diff.py``, against
the fixtures as they stood before. Given a directory argument, the script
writes the case directories there instead of into ``tests/golden/``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import thzlink
from thzlink.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"

_COMMON = """
layer_resolution_m = 10000
f_min_ghz = 280
f_max_ghz = 320
f_step_ghz = 5
"""

_RUN_KINDS = {
    "run_a2s": "kind = A2S\nelevation_deg = 60\n",
    "run_s2a": "kind = S2A\nelevation_deg = 60\n",
    "run_e2a": "kind = E2A\nelevation_deg = 45\n",
    "run_a2e": "kind = A2E\nh_airplane_km = 9\n",
    "run_e2s": "kind = E2S\nelevation_deg = 30\n",
    "run_s2e": "kind = S2E\nh_satellite_km = 600\n",
    "run_a2a": "kind = A2A\nlink_distance_m = 500\n",
}

# case name -> (config text, command arguments after the config path)
CASES: dict[str, tuple[str, list[str]]] = {
    name: (_COMMON + text, ["run"]) for name, text in _RUN_KINDS.items()
}
CASES["run_e2a_weather_band_extrapolated"] = ("""
kind = E2A
elevation_deg = 40
layer_resolution_m = 10000
f_min_ghz = 150
f_max_ghz = 190
f_step_ghz = 10
rain_rate_mm_h = 10
rain_thickness_km = 1
cloud_density_g_m3 = 0.5
cloud_base_km = 1
cloud_thickness_km = 1
""", ["run"])
# Rain and cloud on a survey grid that crosses the cloud table's 200 GHz
# limit and the rain table's 1000 GHz edge, so both flags and the rain clamp
# reach the outputs.
CASES["run_e2a_weather_wide"] = ("""
kind = E2A
elevation_deg = 40
layer_resolution_m = 10000
f_min_ghz = 150
f_max_ghz = 1100
f_step_ghz = 50
rain_rate_mm_h = 10
rain_thickness_km = 1
cloud_density_g_m3 = 0.5
cloud_base_km = 1
cloud_thickness_km = 1
""", ["run"])
CASES["run_a2s_band_outside_grid"] = ("""
kind = A2S
layer_resolution_m = 10000
f_min_ghz = 500
f_max_ghz = 540
f_step_ghz = 10
bandwidth_ghz = 10
""", ["run"])
# Near-transparent paths on the default grid and 500 m layers: from 80 km
# most frequencies see a path emissivity of 1e-12 or less, which only a sum
# of per-layer emissions free of 1 - tau's cancellation resolves the same
# on every host; from 120 km no layer has a line within reach of the grid.
for _kind, _km in (("A2S", 80), ("S2A", 80), ("A2S", 120)):
    CASES[f"run_{_kind.lower()}_{_km}km"] = (
        f"kind = {_kind}\nh_airplane_km = {_km}\n", ["run"])
# A 0.25 MHz grid around the 380.2 GHz H2O line from 80 km: the thin upper
# layers put 840 line-layer pairs on the Doppler branch with at least 3 grid
# points in their window, so the Doppler core itself reaches the outputs.
CASES["run_a2s_doppler_core"] = ("""
kind = A2S
h_airplane_km = 80
f_min_ghz = 379.99
f_max_ghz = 380.39
f_step_ghz = 0.00025
center_frequency_ghz = 380.19
bandwidth_ghz = 0.4
""", ["run"])
# The same around the 118.75 GHz O2 line, whose Doppler cores carry enough
# optical depth to move printed path loss, SNR and capacity: doubling the
# Doppler shape changes all three, where it changes no byte of the case above.
CASES["run_a2s_doppler_core_o2"] = ("""
kind = A2S
h_airplane_km = 80
f_min_ghz = 118.55
f_max_ghz = 118.95
f_step_ghz = 0.00025
center_frequency_ghz = 118.75
bandwidth_ghz = 0.4
""", ["run"])
CASES["sweep_altitude_a2s"] = (
    _COMMON + "kind = A2S\n",
    ["sweep", "--axis", "altitude", "--from", "0", "--to", "4000",
     "--step", "2000"])
# The same sweep on the default 500 m layers, so each point resolves over
# a 1,000-layer stack, the size the benchmark's sweeps reach.
CASES["sweep_altitude_a2s_fine"] = (
    "kind = A2S\nf_min_ghz = 280\nf_max_ghz = 320\nf_step_ghz = 20\n",
    ["sweep", "--axis", "altitude", "--from", "0", "--to", "12000",
     "--step", "3000"])
# The only sweep whose stacks differ in their top layer: on 10 km layers the
# airplane tops the stack at a truncated, an exact and a truncated layer.
CASES["sweep_altitude_a2e"] = (
    _COMMON + "kind = A2E\n",
    ["sweep", "--axis", "altitude", "--from", "3000", "--to", "24000",
     "--step", "7000"])
CASES["sweep_elevation_e2s"] = (
    _COMMON + "kind = E2S\n",
    ["sweep", "--axis", "elevation", "--from", "30", "--to", "90",
     "--step", "30"])
CASES["sweep_frequency_a2e"] = (
    _COMMON + "kind = A2E\n",
    ["sweep", "--axis", "frequency", "--from", "280", "--to", "320",
     "--step", "10"])

# A frequency sweep whose scenario band sits at the 557 GHz water line, far
# outside the swept 300-320 GHz: most traversed layers are live only
# through that line, yet no output row reads the band.
CASES["sweep_frequency_band_outside"] = (
    _COMMON + "kind = A2S\ncenter_frequency_ghz = 557\nelevation_deg = 40\n",
    ["sweep", "--axis", "frequency", "--from", "300", "--to", "320",
     "--step", "0.5"])


def produce(case: str, work: Path) -> Path:
    """Run one case in ``work``; returns the output directory."""
    text, args = CASES[case]
    config = work / f"{case}.cfg"
    config.write_text(text)
    out = work / "out"
    argv = [args[0], str(config), *args[1:], "--out-dir", str(out),
            "--cache-dir", str(work / "cache")]
    assert main(argv) == EXIT_OK
    return out


def assert_fixture_bytes(case: str, out: Path) -> None:
    expected = GOLDEN_DIR / case
    names = sorted(p.name for p in expected.iterdir())
    assert names, f"no fixtures for {case}"
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == names
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), \
            f"{case}/{name} differs from its golden fixture"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case, tmp_path):
    assert_fixture_bytes(case, produce(case, tmp_path))


# numpy picks its SIMD loops (exp, expm1, log1p, ...) by the host's CPU;
# those loops differ in the last bit of some results, and no printed digit
# may depend on that
_DISPATCH = np._core._multiarray_umath.__cpu_dispatch__


@pytest.mark.skipif(not _DISPATCH, reason="numpy has no dispatched loops")
def test_outputs_match_golden_bytes_at_baseline_dispatch(tmp_path):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_DISPATCH),
               PYTHONPATH=str(Path(thzlink.__file__).parents[1]))
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning", __file__,
                    str(tmp_path)], env=env, check=True)
    for case in sorted(CASES):
        assert_fixture_bytes(case, tmp_path / case)


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out = produce(case, Path(tmp))
            target = root / case
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for path in out.iterdir():
                if path.is_file():
                    shutil.copyfile(path, target / path.name)
            print(target, file=sys.stderr)
