#!/usr/bin/env python3
"""Measure how far each value of two golden output trees moves.

    python tools/golden_diff.py OLD_DIR NEW_DIR

Each directory holds one subdirectory per case, as ``tests/golden/`` does;
OLD_DIR can be the fixtures of an earlier commit, extracted with
``git archive <commit> tests/golden | tar -x -C OLD``. For every case, CSV
file and value column the tool reports the rows that differ, the largest
absolute difference (in dB for a ``_db`` column), the largest relative
difference, and the row key where each occurs. The provenance line of a
CSV and every other file, such as ``summary.txt``, are compared as text.

It prints one JSON document. It exits 1 when the case sets, the file
sets, a CSV's headers or its row keys (the axis value, frequency, metric
or quantity of each row) differ: only values may move. Usage errors exit
2. The byte test in ``tests/test_golden.py`` stays the check; this tool
measures a move that a change makes on purpose.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

# columns that name a row rather than hold a value
KEY_COLUMNS = ("axis_value", "frequency_hz", "metric", "quantity")


def _subdirs(root: Path) -> set[str]:
    return {p.name for p in root.iterdir() if p.is_dir()}


def _files(case: Path) -> set[str]:
    return {p.name for p in case.iterdir() if p.is_file()}


def _read_csv(path: Path):
    """The provenance line, the header and the rows of a thzlink CSV."""
    lines = path.read_text().splitlines()
    provenance, header = lines[0], lines[1].split(",")
    return provenance, header, [line.split(",") for line in lines[2:]]


def _differences(old: str, new: str) -> tuple[float, float]:
    """Absolute and relative difference of two written numbers."""
    a, b = float(old), float(new)
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    diff = abs(b - a)
    return diff, (diff / abs(a) if a != 0.0 else math.inf if diff else 0.0)


def compare_csv(old: Path, new: Path, errors: list[str], where: str):
    """The report for one CSV file; structural faults go to ``errors``."""
    old_prov, old_header, old_rows = _read_csv(old)
    new_prov, new_header, new_rows = _read_csv(new)
    report = {"provenance_differs": old_prov != new_prov, "columns": {}}
    if old_header != new_header:
        errors.append(f"{where}: header {old_header} became {new_header}")
        return report
    keys = [i for i, name in enumerate(old_header) if name in KEY_COLUMNS]
    if len(old_rows) != len(new_rows):
        errors.append(f"{where}: {len(old_rows)} rows became {len(new_rows)}")
        return report
    for n, (a, b) in enumerate(zip(old_rows, new_rows)):
        if [a[i] for i in keys] != [b[i] for i in keys]:
            errors.append(f"{where}: row {n} key {[a[i] for i in keys]} "
                          f"became {[b[i] for i in keys]}")
            return report
    for i, name in enumerate(old_header):
        if i in keys:
            continue
        column = {"unit": "dB" if name.endswith("_db") else None,
                  "rows_differ": 0, "max_abs": 0.0, "max_abs_row": None,
                  "max_rel": 0.0, "max_rel_row": None}
        for n, (a, b) in enumerate(zip(old_rows, new_rows)):
            if a[i] == b[i]:
                continue
            row = {"row": n, **{old_header[k]: a[k] for k in keys},
                   "old": a[i], "new": b[i]}
            diff, rel = _differences(a[i], b[i])
            column["rows_differ"] += 1
            if column["max_abs_row"] is None or diff > column["max_abs"]:
                column["max_abs"], column["max_abs_row"] = diff, row
            if column["max_rel_row"] is None or rel > column["max_rel"]:
                column["max_rel"], column["max_rel_row"] = rel, row
        report["columns"][name] = column
    return report


def golden_diff(old_dir: Path, new_dir: Path) -> dict:
    """The JSON-ready comparison of two golden trees."""
    errors: list[str] = []
    cases = {}
    old_cases, new_cases = _subdirs(old_dir), _subdirs(new_dir)
    if old_cases != new_cases:
        errors.append(f"cases only in OLD_DIR {sorted(old_cases - new_cases)}"
                      f", only in NEW_DIR {sorted(new_cases - old_cases)}")
    for case in sorted(old_cases & new_cases):
        old_files, new_files = (_files(old_dir / case),
                                _files(new_dir / case))
        if old_files != new_files:
            errors.append(f"{case}: files {sorted(old_files)} became "
                          f"{sorted(new_files)}")
        files = {}
        for name in sorted(old_files & new_files):
            old, new = old_dir / case / name, new_dir / case / name
            if name.endswith(".csv"):
                files[name] = compare_csv(old, new, errors, f"{case}/{name}")
            else:
                files[name] = {"text_differs":
                               old.read_bytes() != new.read_bytes()}
        cases[case] = files
    rows = sum(column["rows_differ"] for files in cases.values()
               for report in files.values()
               for column in report.get("columns", {}).values())
    texts = sum(bool(report.get("text_differs")
                     or report.get("provenance_differs"))
                for files in cases.values() for report in files.values())
    return {"old": str(old_dir), "new": str(new_dir), "errors": errors,
            "cases_compared": len(cases), "rows_differ": rows,
            "texts_differ": texts, "cases": cases}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    report = golden_diff(Path(args[0]), Path(args[1]))
    print(json.dumps(report, indent=1))
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
