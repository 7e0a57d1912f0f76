"""Every file thzlink writes: the path-loss, SNR and capacity CSVs and the
summary of a run, and the long-format CSV of a sweep. Each CSV starts with
a ``# provenance`` comment and its header row, and writes numbers at ``.10g``.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import groupby
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
            fh.write(f"{parse_error_warning(resolved.catalog)}\n")
        pl_db = resolved.path_loss_db
        fh.write(f"path loss over grid: min {pl_db.min():.2f} dB, "
                 f"max {pl_db.max():.2f} dB\n")
        fh.write(f"band capacity: {resolved.budget.capacity / 1e9:.3f} Gbit/s\n")
    return paths


def write_sweep_csv(path, axis: str, points: Iterable[float],
                    results: list[ResolvedLink]) -> None:
    """Long-format CSV, ``axis_value,frequency_hz,metric,value``, in axis,
    then metric name, then frequency order.

    A frequency sweep is one result whose rows take their frequency in GHz
    as the axis value, and it has no capacity row.
    """

    def rows():
        for value, resolved in zip(points, results):
            freqs = _texts(resolved.grid)
            metrics = (("path_loss_db", resolved.path_loss_db.tolist()),
                       ("snr_db", resolved.snr_db.tolist()))
            if axis == "frequency":
                # distinct frequencies can share one GHz axis value; the rows
                # of such a run list its path losses, then its SNRs
                ghz = resolved.grid / 1e9
                at = _texts(ghz)
                start = 0
                for _, run in groupby(ghz.tolist()):
                    stop = start + sum(1 for _ in run)
                    for metric, values in metrics:
                        yield from _rows(f"%s,%s,{metric},%.10g\n",
                                         at[start:stop], freqs[start:stop],
                                         values[start:stop])
                    start = stop
            else:
                # a point's rows, capacity first, are already in metric,
                # then frequency order
                at = "%.10g" % value
                yield "%s,%.10g,capacity_bit_s,%.10g\n" % (
                    at, resolved.scenario.transceiver.center_frequency,
                    resolved.budget.capacity)
                for metric, values in metrics:
                    yield from _rows(f"{at},%s,{metric},%.10g\n", freqs,
                                     values)

    _write_csv(path, results[0].provenance,
               "axis_value,frequency_hz,metric,value", rows())
