"""``tools/golden_diff.py``: how far each golden value moves between two
output trees, and a failure when anything but values moves."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden_diff", ROOT / "tools" / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def run(old, new, capsys):
    """The tool's exit code and JSON report."""
    code = golden_diff.main([str(old), str(new)])
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture
def copy(tmp_path):
    target = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, target)
    return target


def edit_line(path: Path, index: int, change) -> str:
    """Replace line ``index`` of ``path`` by ``change(line)``; returns the
    old line."""
    lines = path.read_text().splitlines(keepends=True)
    old = lines[index]
    lines[index] = change(old)
    path.write_text("".join(lines))
    return old


def test_the_fixtures_against_themselves_give_zero(capsys):
    code, report = run(GOLDEN_DIR, GOLDEN_DIR, capsys)
    assert code == 0
    assert report["errors"] == []
    assert report["cases_compared"] == len(
        [p for p in GOLDEN_DIR.iterdir() if p.is_dir()])
    assert report["rows_differ"] == 0 and report["texts_differ"] == 0
    columns = [column for files in report["cases"].values()
               for file in files.values()
               for column in file.get("columns", {}).values()]
    assert columns and all(c["max_abs"] == 0.0 and c["max_rel"] == 0.0
                           for c in columns)


def test_one_perturbed_value_is_reported_with_its_row(copy, capsys):
    # row 3 of the A2S path loss: the 2.95e11 Hz point
    path = copy / "run_a2s" / "path_loss.csv"
    old = edit_line(path, 5, lambda line: line.replace(
        line.split(",")[1], "70.5", 1))
    frequency, loss = old.split(",")[:2]
    code, report = run(GOLDEN_DIR, copy, capsys)
    assert code == 0 and report["errors"] == []
    assert report["rows_differ"] == 1
    column = report["cases"]["run_a2s"]["path_loss.csv"]["columns"][
        "path_loss_db"]
    row = {"row": 3, "frequency_hz": frequency, "old": loss, "new": "70.5"}
    assert column["unit"] == "dB" and column["rows_differ"] == 1
    assert column["max_abs_row"] == row == column["max_rel_row"]
    assert column["max_abs"] == pytest.approx(70.5 - float(loss))
    assert column["max_rel"] == pytest.approx(
        (70.5 - float(loss)) / float(loss))
    others = report["cases"]["run_a2s"]["path_loss.csv"]["columns"]
    assert all(c["rows_differ"] == 0 for name, c in others.items()
               if name != "path_loss_db")


def test_a_dropped_row_fails(copy, capsys):
    edit_line(copy / "sweep_altitude_a2s" / "sweep.csv", 4, lambda _: "")
    code, report = run(GOLDEN_DIR, copy, capsys)
    assert code == 1
    assert report["errors"] and all(
        e.startswith("sweep_altitude_a2s/sweep.csv: ")
        for e in report["errors"])


def test_a_changed_row_key_or_file_set_fails(copy, capsys):
    edit_line(copy / "run_e2s" / "snr.csv", 2,
              lambda line: "2.81e+11," + line.split(",", 1)[1])
    (copy / "run_s2e" / "summary.txt").unlink()
    code, report = run(GOLDEN_DIR, copy, capsys)
    assert code == 1
    assert [e.split(":")[0] for e in report["errors"]] == [
        "run_e2s/snr.csv", "run_s2e"]
