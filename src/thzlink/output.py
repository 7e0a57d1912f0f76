"""Every file thzlink writes: the path-loss, SNR and capacity CSVs and the
summary of a run, and the long-format CSV of a sweep. Each CSV starts with
a ``# provenance`` comment and its header row, and writes numbers at ``.10g``,
formatting a block of rows with one ``%``.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .catalog import LineCatalog
from .link import modulation_threshold

if TYPE_CHECKING:   # scenario.py imports this module
    from .scenario import ResolvedLink, Scenario


def describe(scenario: Scenario) -> str:
    """Human-readable dump of a resolved scenario."""
    lines = [f"scenario {scenario.kind}"]
    for field in dataclasses.fields(scenario):
        value = getattr(scenario, field.name)
        lines.append(f"  {field.name} = {value}")
    return "\n".join(lines)


def parse_error_warning(catalog: LineCatalog) -> str:
    """A run's warning about catalog records that failed to parse."""
    issues = catalog.parse_errors
    return (f"warning: {len(issues)} catalog record(s) failed to parse and "
            f"were skipped, the first at line {issues[0].line_number}")


# The rows a writer formats with one ``%``, so the most text it holds.
_BLOCK_ROWS = 1024


def _texts(column: np.ndarray) -> list[str]:
    """The values of ``column`` at ``.10g``, as the CSVs write numbers."""
    return list(map("%.10g".__mod__, column.tolist()))


def _lines(row: str, columns: list[list]):
    """``row``, a template of whole lines, filled from the lists ``columns``,
    one list per ``%`` field. Each string yielded is ``row`` repeated over
    about ``_BLOCK_ROWS`` lines and filled with one ``%``. Python floats
    format faster than numpy scalars, and ``"%.10g" % x`` gives the text of
    ``f"{x:.10g}"``."""
    size = len(columns[0])
    width = len(columns)
    step = _BLOCK_ROWS // row.count("\n")
    for first in range(0, size, step):
        last = min(first + step, size)
        values = [None] * (width * (last - first))
        for j, column in enumerate(columns):
            values[j::width] = column[first:last]
        yield row * (last - first) % tuple(values)


def _write_csv(path: Path, provenance: str, header: str, rows) -> None:
    """Write a ``# provenance`` comment, the header row, then ``rows``, each
    a run of whole lines, as it is drawn."""
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
               _lines("%s,%.10g,%.10g,%.10g,%.10g,%.10g\n", [freqs, *(
                   column.tolist() for column in (
                       resolved.path_loss_db, resolved.tau, resolved.fspl_db,
                       resolved.rain_db, resolved.cloud_db))]))

    with np.errstate(divide="ignore"):
        noise_db = 10.0 * np.log10(resolved.noise_psd)
    _write_csv(paths[1], prov, "frequency_hz,snr_db,noise_psd_dbw_hz",
               _lines("%s,%.10g,%.10g\n", [freqs, resolved.snr_db.tolist(),
                                           noise_db.tolist()]))

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
            fh.write(f"{parse_error_warning(resolved.catalog)}\n")
        pl_db = resolved.path_loss_db
        if pl_db.min() < 0.0:
            fh.write("warning: path loss below 0 dB: the terminals are inside "
                     "the dishes' far field, where boresight gains overstate "
                     "the link\n")
        fh.write(f"path loss over grid: min {pl_db.min():.2f} dB, "
                 f"max {pl_db.max():.2f} dB\n")
        fh.write(f"band capacity: {resolved.budget.capacity / 1e9:.3f} Gbit/s\n")
    return paths


def write_sweep_csv(path, axis: str, points: Iterable[float],
                    results: list[ResolvedLink]) -> None:
    """Long-format CSV, ``axis_value,frequency_hz,metric,value``.

    An altitude or elevation sweep lists each point's capacity row, then its
    path loss rows, then its SNR rows, in frequency order. A frequency sweep
    is one result, with no capacity row, that lists each frequency's
    ``path_loss_db`` row and then its ``snr_db`` row in grid order, with the
    frequency in GHz as the axis value. Each grid's frequency text is made
    once and kept while the next point's grid is the same. Raises
    ``ValueError`` before the file is opened if ``results`` is empty or
    ``points`` holds another number of values.
    """
    points = list(points)
    if not results:
        raise ValueError("a sweep CSV needs at least one result")
    if len(points) != len(results):
        raise ValueError(f"{len(points)} sweep point(s) for "
                         f"{len(results)} result(s)")

    def rows():
        bits = None
        for value, resolved in zip(points, results):
            # a grid of the last one's bits has its text (np.array_equal
            # takes -0.0 for 0.0)
            if resolved.grid.tobytes() != bits:
                bits, freqs = resolved.grid.tobytes(), _texts(resolved.grid)
            path_loss_db = resolved.path_loss_db.tolist()
            snr_db = resolved.snr_db.tolist()
            if axis == "frequency":
                at = _texts(resolved.grid / 1e9)
                yield from _lines(
                    "%s,%s,path_loss_db,%.10g\n%s,%s,snr_db,%.10g\n",
                    [at, freqs, path_loss_db, at, freqs, snr_db])
                continue
            at = "%.10g" % value
            yield "%s,%.10g,capacity_bit_s,%.10g\n" % (
                at, resolved.scenario.transceiver.center_frequency,
                resolved.budget.capacity)
            for metric, values in (("path_loss_db", path_loss_db),
                                   ("snr_db", snr_db)):
                yield from _lines(f"{at},%s,{metric},%.10g\n",
                                  [freqs, values])

    _write_csv(path, results[0].provenance,
               "axis_value,frequency_hz,metric,value", rows())
