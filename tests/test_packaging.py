"""Every bundled data file ships in the package, not only in the source
tree the tests import from, and the package needs numpy alone to run."""

import re
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "thzlink"


def matches(path: str, pattern: str) -> bool:
    """A package-data glob: each ``*`` stays within one path component."""
    parts, globs = path.split("/"), pattern.split("/")
    return len(parts) == len(globs) and all(map(fnmatchcase, parts, globs))


def test_every_data_file_matches_a_package_data_glob():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["thzlink"]
    files = [path.relative_to(PACKAGE).as_posix()
             for path in (PACKAGE / "data").rglob("*") if path.is_file()]
    assert "data/configs/e2a_nimbostratus.cfg" in files
    assert [name for name in files
            if not any(matches(name, glob) for glob in globs)] == []


def test_the_runtime_needs_numpy_alone():
    # the kernel has its own Faddeeva function; scipy is a test dependency
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[<>=!~ ;\[]", dep, maxsplit=1)[0]
            for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy")
               for dep in project["optional-dependencies"]["test"])
