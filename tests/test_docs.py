"""The README's tables state the same facts as the code they document."""

import re
from pathlib import Path

import pytest

import thzlink
from thzlink.catalog import PAR_2004
from thzlink.scenario import _DEFAULTS

README = (Path(__file__).parent.parent / "README.md").read_text()


def table_rows(header: str) -> list[list[str]]:
    """The cells of each body row of the README table with ``header``."""
    lines = README.splitlines()
    start = lines.index(header) + 2   # skip the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_config_table_defaults_are_the_code_defaults():
    documented = {}
    for keys_cell, meaning in table_rows("| Key | Meaning |"):
        keys = re.findall(r"`([a-z0-9_]+)`", keys_cell)
        default = re.search(r"\(([^()]*)\)$", meaning)
        if default is None:
            documented.update(dict.fromkeys(keys))
            continue
        values = [v.strip(" `") for v in default.group(1).split(" / ")]
        assert len(values) == len(keys), keys_cell
        documented.update(zip(keys, values))
    assert set(documented) == set(_DEFAULTS)
    for key, value in documented.items():
        code = _DEFAULTS[key]
        if value is None or isinstance(code, str):
            assert value == code, key
        else:
            assert float(value) == pytest.approx(code, rel=1e-12), key


def test_record_table_is_the_layout_table():
    rows = table_rows("| Columns | Field | Format | Kept |")
    assert len(rows) == len(PAR_2004)
    for (columns, _, descriptor, kept), field in zip(rows, PAR_2004):
        first, _, last = columns.partition("-")
        assert (int(first) - 1, int(last or first)) == \
            (field.start, field.stop), field.name
        assert descriptor == field.descriptor, field.name
        assert (kept == "yes") == field.keep, field.name
    assert all(a.stop == b.start for a, b in zip(PAR_2004, PAR_2004[1:]))
    assert "One record per line, 160 characters" in README
    assert PAR_2004[-1].stop == 160


def test_export_list_is_the_package_exports():
    sentence = re.search(r"The package exports (.*?)\.\n", README, re.S)
    assert sentence is not None
    assert re.findall(r"`(\w+)`", sentence.group(1)) == sorted(thzlink.__all__)
