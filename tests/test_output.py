"""The CSV writers against rows formatted one value at a time.

The writers fill a template repeated over a block of rows with one ``%``
and make a grid's frequency text once per command; every row must still be
the ``f"{x:.10g}"`` text of its values, whichever block it falls in.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from thzlink import output
from thzlink.output import write_outputs, write_sweep_csv
from thzlink.scenario import resolve

B = output._BLOCK_ROWS
SIZES = [1, B - 1, B, B + 1, 2 * B + 1]
SPECIAL = np.array([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7e308,
                    -1.7e308, 0.1, 123456.7890123456])


def special(size, shift=0):
    """``size`` values cycling through ``SPECIAL`` from entry ``shift``."""
    return np.resize(np.roll(SPECIAL, -shift), size)


def stand_in(grid, path_loss_db, snr_db, capacity=5.5e10, center=3e11):
    """What ``write_sweep_csv`` reads of a resolved link, with the dB
    columns given outright, so that they too can hold any double."""
    return SimpleNamespace(
        grid=grid, path_loss_db=path_loss_db, snr_db=snr_db,
        provenance="thzlink test",
        scenario=SimpleNamespace(
            transceiver=SimpleNamespace(center_frequency=center)),
        budget=SimpleNamespace(capacity=capacity))


def point_rows(value, resolved):
    """The rows of one altitude or elevation point, a value at a time."""
    rows = [f"{value:.10g},"
            f"{resolved.scenario.transceiver.center_frequency:.10g},"
            f"capacity_bit_s,{resolved.budget.capacity:.10g}"]
    for metric, values in (("path_loss_db", resolved.path_loss_db),
                           ("snr_db", resolved.snr_db)):
        rows += [f"{value:.10g},{f:.10g},{metric},{v:.10g}"
                 for f, v in zip(resolved.grid.tolist(), values.tolist())]
    return rows


def frequency_rows(resolved):
    """The rows of a frequency sweep, a value at a time: each run of
    frequencies with one GHz value lists its path losses, then its SNRs."""
    grid = resolved.grid.tolist()
    ghz = (resolved.grid / 1e9).tolist()
    rows, start = [], 0
    while start < len(grid):
        stop = start + 1
        while stop < len(grid) and ghz[stop] == ghz[start]:
            stop += 1
        for metric, values in (("path_loss_db", resolved.path_loss_db),
                               ("snr_db", resolved.snr_db)):
            rows += [f"{ghz[j]:.10g},{grid[j]:.10g},{metric},"
                     f"{values[j]:.10g}" for j in range(start, stop)]
        start = stop
    return rows


def written(path):
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# thzlink test",
                         "axis_value,frequency_hz,metric,value"]
    return lines[2:]


@pytest.fixture(scope="module")
def resolved(default_scenario, spectrum_cache):
    return resolve(dataclasses.replace(default_scenario, f_min=295e9,
                                       f_max=305e9, f_step=1e9),
                   spectrum_cache)


class TestBlocks:
    @pytest.mark.parametrize("size", [SPECIAL.size, *SIZES])
    def test_rows_keep_the_f_string_text_of_every_value(self, resolved, size,
                                                        tmp_path):
        columns = [special(size, shift) for shift in range(8)]
        link = dataclasses.replace(
            resolved, grid=columns[0], tau=columns[1], fspl_db=columns[2],
            rain_db=columns[3], cloud_db=columns[4], path_loss=columns[5],
            noise_psd=columns[6], snr=columns[7])
        with np.errstate(divide="ignore", invalid="ignore"):
            write_outputs(link, tmp_path)
            noise_db = 10.0 * np.log10(link.noise_psd)
            path_loss_db = link.path_loss_db
            snr_db = link.snr_db
        path_loss_rows = [
            f"{f:.10g},{pl:.10g},{t:.10g},{fs:.10g},{rn:.10g},{cl:.10g}"
            for f, pl, t, fs, rn, cl in zip(*(c.tolist() for c in (
                link.grid, path_loss_db, link.tau, link.fspl_db,
                link.rain_db, link.cloud_db)))]
        snr_rows = [f"{f:.10g},{s:.10g},{n:.10g}" for f, s, n in zip(
            *(c.tolist() for c in (link.grid, snr_db, noise_db)))]
        for name, rows in (("path_loss.csv", path_loss_rows),
                           ("snr.csv", snr_rows)):
            assert (tmp_path / name).read_text().splitlines()[2:] == rows

    @pytest.mark.parametrize("axis", ["altitude", "elevation"])
    @pytest.mark.parametrize("size", SIZES)
    def test_point_rows_are_the_text_of_each_value(self, axis, size,
                                                   tmp_path):
        points = SPECIAL[:3].tolist()
        results = [stand_in(special(size, j), special(size, j + 1),
                            special(size, j + 2), capacity=SPECIAL[j + 3],
                            center=SPECIAL[j + 4]) for j in range(3)]
        write_sweep_csv(tmp_path / "sweep.csv", axis, points, results)
        assert written(tmp_path / "sweep.csv") == [
            row for value, r in zip(points, results)
            for row in point_rows(value, r)]

    @pytest.mark.parametrize("size", sorted(
        {*SIZES, B // 2 - 1, B // 2, B // 2 + 1}))
    def test_frequency_rows_are_the_text_of_each_value(self, size, tmp_path):
        # -0.0 Hz and 5e-324 Hz share the GHz value 0, so runs of two
        # frequencies that share one fall between frequencies that do not
        result = stand_in(special(size), special(size, 1), special(size, 2))
        write_sweep_csv(tmp_path / "sweep.csv", "frequency", [0.0], [result])
        assert written(tmp_path / "sweep.csv") == frequency_rows(result)

    def test_a_writer_streams_one_block_at_a_time(self, resolved, tmp_path,
                                                  monkeypatch):
        size = 2 * B + 1
        chunks = {}
        write = output._write_csv

        def spy(path, provenance, header, rows):
            def drawn():
                for chunk in rows:
                    chunks.setdefault(path.name, []).append(chunk)
                    yield chunk
            if path.name != "capacity.csv":   # five rows, given as a list
                assert iter(rows) is rows
            write(path, provenance, header, drawn())

        monkeypatch.setattr(output, "_write_csv", spy)
        grid = np.arange(1.0, size + 1.0) * 1e9
        write_outputs(dataclasses.replace(
            resolved, grid=grid, tau=np.ones(size), fspl_db=np.ones(size),
            rain_db=np.zeros(size), cloud_db=np.zeros(size),
            path_loss=np.ones(size), noise_psd=np.ones(size),
            snr=np.ones(size)), tmp_path)
        sweep = [stand_in(grid, np.ones(size), np.ones(size))]
        write_sweep_csv(tmp_path / "altitude.csv", "altitude", [0.0], sweep)
        write_sweep_csv(tmp_path / "frequency.csv", "frequency", [0.0], sweep)
        for name in ("path_loss.csv", "snr.csv", "altitude.csv",
                     "frequency.csv"):
            counts = [chunk.count("\n") for chunk in chunks[name]]
            assert max(counts) <= B, name
            assert sum(counts) == len(
                (tmp_path / name).read_text().splitlines()) - 2, name


class TestSweepGrids:
    def test_each_point_writes_its_own_frequencies(self, tmp_path):
        grids = [np.array([1e11, 2e11, 3e11]), np.array([1e11, 2e11, 3e11]),
                 np.array([4e11, 5e11]), np.array([1e11, 2e11, 3e11]),
                 np.array([0.0]), np.array([-0.0]), np.array([0.0]),
                 np.array([math.nan]), np.array([math.nan])]
        points = [500.0 * j for j in range(len(grids))]
        results = [stand_in(grid, np.full(grid.size, 100.0 + j),
                        np.full(grid.size, -3.0 - j))
                   for j, grid in enumerate(grids)]
        write_sweep_csv(tmp_path / "sweep.csv", "altitude", points, results)
        assert written(tmp_path / "sweep.csv") == [
            row for value, r in zip(points, results)
            for row in point_rows(value, r)]

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_points_and_results_of_other_lengths_are_refused(self, count,
                                                             tmp_path):
        grid = np.array([1e11, 2e11])
        results = [stand_in(grid, np.ones(2), np.ones(2))] * 2
        with pytest.raises(ValueError, match=f"{count} sweep point"):
            write_sweep_csv(tmp_path / "sweep.csv", "altitude",
                            [0.0] * count, results)
        assert not (tmp_path / "sweep.csv").exists()

    def test_no_results_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="at least one result"):
            write_sweep_csv(tmp_path / "sweep.csv", "altitude", [], [])
        assert not (tmp_path / "sweep.csv").exists()
