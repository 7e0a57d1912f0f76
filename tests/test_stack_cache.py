"""The spectrum cache's stack arrays and its disk entries.

A stack is filled only where a path runs: a cold run keys the live layers
above its lower terminal and nothing below, and a later path that starts
lower fills only the layers it adds. A disk entry is the bytes ``np.save``
writes followed by a digest; an entry whose digest holds but whose header
is not that of a float64 vector of the grid's length is computed again.
A cache keeps one layer table, and a succession of scenarios that changes
its grid and returns to it must still get a fresh cache's bytes each step.
"""

import dataclasses
import errno
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thzlink.absorption import absorbing_layers
from thzlink.atmosphere import layer_bounds, profile_at
from thzlink import scenario as scenario_module
from thzlink.cli import EXIT_COMPUTE, EXIT_OK, main
from thzlink.scenario import (
    KINDS,
    SpectrumCache,
    _with_digest,
    build_scenario,
    load_scenario_catalog,
    make_grid,
    parse_config,
    resolve,
)


@pytest.fixture()
def keyed_states(monkeypatch):
    """The states :meth:`SpectrumCache.key` is called with, in order."""
    states = []
    key = SpectrumCache.key

    def recorded(lines_sha, state, grid, wing_cutoff):
        states.append(state)
        return key(lines_sha, state, grid, wing_cutoff)

    monkeypatch.setattr(SpectrumCache, "key", staticmethod(recorded))
    return states


def test_cold_run_keys_only_the_live_layers_above_the_airplane(tmp_path,
                                                               keyed_states):
    cfg = tmp_path / "a2s.cfg"
    cfg.write_text("kind = A2S\nh_airplane_km = 11\n")   # 500 m layers
    code = main(["run", str(cfg), "--out-dir", str(tmp_path / "out"),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == EXIT_OK
    scenario = parse_config(cfg)
    grid = np.union1d(
        make_grid(scenario.f_min, scenario.f_max, scenario.f_step),
        scenario.transceiver.band)
    above = [profile_at(z, scenario.ground_humidity,
                        scenario.water_scale_height)
             for _, upper, z in layer_bounds(0.0, 500e3, 500.0)
             if upper > 11e3]
    live = absorbing_layers(load_scenario_catalog(scenario, grid), above,
                            grid, scenario.wing_cutoff)
    assert 0 < live.sum() < len(above)
    # one key per live layer above the airplane, and none below it
    assert ([state.altitude for state in keyed_states]
            == [state.altitude for state, on in zip(above, live) if on])


def test_a_lower_start_fills_only_the_layers_it_adds(default_scenario,
                                                     keyed_states):
    base = dataclasses.replace(default_scenario, f_min=299e9, f_max=301e9,
                               f_step=1e9)
    high, low = (dataclasses.replace(base, h_airplane=h)
                 for h in (11e3, 2e3))
    shared = SpectrumCache()
    resolve(high, shared, with_capacity=False)
    first = len(keyed_states)
    reused = resolve(low, shared, with_capacity=False)
    added = keyed_states[first:]
    fresh = resolve(low, SpectrumCache(), with_capacity=False)
    assert added
    assert all(2e3 < state.altitude < 11e3 for state in added)
    for name in ("tau", "path_loss", "noise_psd", "snr"):
        assert (getattr(reused, name).tobytes()
                == getattr(fresh, name).tobytes()), name


def _run(config, tmp_path, name, cache="cache"):
    out = tmp_path / name
    code = main(["run", str(config), "--out-dir", str(out), "--cache-dir",
                 str(tmp_path / cache)])
    assert code == EXIT_OK
    return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}


@pytest.fixture()
def coarse_config(tmp_path):
    path = tmp_path / "coarse.cfg"
    path.write_text("kind = E2A\nelevation_deg = 50\n"
                    "layer_resolution_m = 2000\n"
                    "f_min_ghz = 298\nf_max_ghz = 302\nf_step_ghz = 1\n")
    return path


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def test_entry_is_np_save_bytes_then_the_digest(coarse_config, tmp_path):
    _run(coarse_config, tmp_path, "out")
    entries = sorted((tmp_path / "cache").glob("*.npy"))
    assert entries
    for entry in entries:
        kappa = np.load(entry)   # reads the array, ignores the digest
        assert kappa.dtype == np.float64 and kappa.ndim == 1
        assert entry.read_bytes() == _with_digest(entry.stem, _npy(kappa))


def test_a_cache_before_any_stack_computes_every_call_and_writes_nothing(
        tmp_path):
    cache = SpectrumCache(tmp_path)
    calls = []
    for _ in range(3):
        kappa = cache.get_or_compute(
            "k", lambda: calls.append(1) or np.linspace(0.0, 1e-3, 7))
        np.testing.assert_array_equal(kappa, np.linspace(0.0, 1e-3, 7))
    assert len(calls) == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("forgery", {
    "shorter": lambda kappa: kappa[:-1],
    "column": lambda kappa: kappa.reshape(-1, 1),
    "float32": lambda kappa: kappa.astype("<f4"),
    "big_endian": lambda kappa: kappa.astype(">f8"),
}.items(), ids=lambda item: item[0])
def test_entry_with_its_digest_and_another_header_is_recomputed(
        coarse_config, tmp_path, forgery):
    clean = _run(coarse_config, tmp_path, "clean")
    entry = sorted((tmp_path / "cache").glob("*.npy"))[0]
    good = entry.read_bytes()
    entry.write_bytes(_with_digest(entry.stem,
                                   _npy(forgery[1](np.load(entry)))))
    assert _run(coarse_config, tmp_path, "rerun") == clean
    assert entry.read_bytes() == good


def _entries(directory):
    return {p.name: p.read_bytes() for p in directory.glob("*.npy")}


def test_entries_of_another_kernel_version_are_recomputed(
        coarse_config, tmp_path, monkeypatch):
    monkeypatch.setattr(scenario_module, "KERNEL_VERSION", 3)
    _run(coarse_config, tmp_path, "old")
    monkeypatch.undo()
    old = _entries(tmp_path / "cache")
    assert old
    computed = []
    kernel = scenario_module.absorption_coefficient

    def counted(catalog, state, grid, wing_cutoff):
        computed.append(state)
        return kernel(catalog, state, grid, wing_cutoff)

    monkeypatch.setattr(scenario_module, "absorption_coefficient", counted)
    rerun = _run(coarse_config, tmp_path, "rerun")
    # every live layer is computed again and written under a new key, next
    # to the old entries, which are left as they were
    assert len(computed) == len(old)
    entries = _entries(tmp_path / "cache")
    assert {name: entries[name] for name in old} == old
    new = {name: body for name, body in entries.items() if name not in old}
    computed.clear()
    fresh = _run(coarse_config, tmp_path, "fresh", cache="fresh_cache")
    assert len(computed) == len(old)
    assert new == _entries(tmp_path / "fresh_cache")
    assert rerun == fresh
    # and the entries of this version are read back
    computed.clear()
    assert _run(coarse_config, tmp_path, "again") == fresh
    assert computed == []


@pytest.mark.parametrize("failing", ["replace", "write_bytes"])
def test_a_failed_cache_write_leaves_no_temp_file(coarse_config, tmp_path,
                                                  monkeypatch, failing):
    write_bytes = Path.write_bytes

    def full_disk(self, *args):
        if failing == "write_bytes":
            write_bytes(self, args[0][:10])   # the disk fills mid-write
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, failing, full_disk)
    code = main(["run", str(coarse_config), "--out-dir",
                 str(tmp_path / "failed"), "--cache-dir",
                 str(tmp_path / "cache")])
    monkeypatch.undo()
    assert code == EXIT_COMPUTE
    assert list((tmp_path / "cache").iterdir()) == []
    # a rerun on the same directory gives a fresh run's outputs and entries
    rerun = _run(coarse_config, tmp_path, "rerun")
    assert rerun == _run(coarse_config, tmp_path, "fresh",
                         cache="fresh_cache")
    assert _entries(tmp_path / "cache") == _entries(tmp_path / "fresh_cache")


# two survey grids, so that a succession can leave a grid and come back
GRIDS = ({"f_min_ghz": 298.0, "f_max_ghz": 302.0, "f_step_ghz": 2.0},
         {"f_min_ghz": 299.0, "f_max_ghz": 301.5, "f_step_ghz": 0.5})
# a band inside both grids, and one far outside them
BANDS = ({"center_frequency_ghz": 300.0, "bandwidth_ghz": 1.0},
         {"center_frequency_ghz": 320.0, "bandwidth_ghz": 2.0})


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(KINDS))
    values = {"kind": kind,
              "h_airplane_km": draw(st.sampled_from([1.0, 4.5, 11.0])),
              "layer_resolution_m": draw(st.sampled_from([25e3, 60e3])),
              **draw(st.sampled_from(GRIDS)), **draw(st.sampled_from(BANDS))}
    if kind != "A2A":
        values["elevation_deg"] = draw(st.sampled_from([15.0, 50.0, 90.0]))
    return build_scenario(values)


def _results(link):
    return [getattr(link, name).tobytes()
            for name in ("tau", "path_loss", "noise_psd", "snr")] + [
        np.float64(link.budget.capacity).tobytes()]


@settings(max_examples=60)
@given(succession=st.lists(scenarios(), min_size=2, max_size=4))
def test_a_shared_cache_gives_the_bytes_of_a_fresh_one(succession):
    memory = SpectrumCache()
    with tempfile.TemporaryDirectory() as tmp:
        disk = SpectrumCache(tmp)
        for step, scenario in enumerate(succession):
            want = _results(resolve(scenario, SpectrumCache()))
            assert _results(resolve(scenario, memory)) == want, step
            assert _results(resolve(scenario, disk)) == want, step
