"""Property test: every config ends in exit 0, 2 or 3, and a run that exits
0 writes no NaN.

Each example overrides a few numeric keys of a small, wet base scenario
with nan, inf, zero, negative, tiny or huge values. The base keeps runs
short: at most ten 50 km layers and a 3-point survey grid, with rain and
cloud on the low paths. A value that would grow a run past the grid or
layer bounds is refused before anything is allocated, so no example is
slow.
"""

import math
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from thzlink.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, main
from thzlink.scenario import _DEFAULTS, KINDS

BASE = {
    "layer_resolution_m": 50_000.0,
    "f_min_ghz": 298.0,
    "f_max_ghz": 302.0,
    "f_step_ghz": 2.0,
    "rain_rate_mm_h": 5.0,
    "rain_thickness_km": 2.0,
    "cloud_density_g_m3": 0.5,
}
NUMERIC_KEYS = sorted(k for k in _DEFAULTS if k not in ("kind", "catalog_path"))
EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -1.0, -1e300, -1e-300,
            5e-324, 1e-300, 1e-30, 1e30, 1e300]


@given(kind=st.sampled_from(KINDS),
       changes=st.dictionaries(st.sampled_from(NUMERIC_KEYS),
                               st.sampled_from(EXTREMES), max_size=4))
def test_run_exits_cleanly_and_writes_no_nan(kind, changes):
    values = {**BASE, **changes}
    text = f"kind = {kind}\n" + "".join(
        f"{key} = {value!r}\n" for key, value in values.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.cfg"
        cfg.write_text(text)
        out = Path(tmp) / "out"
        code = main(["run", str(cfg), "--out-dir", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_COMPUTE)
        if code == EXIT_OK:
            written = sorted(out.glob("*.csv"))
            assert len(written) == 3
            for path in written:
                for row in path.read_text().splitlines()[2:]:
                    assert "nan" not in row.split(","), (path.name, row)
