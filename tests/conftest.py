import numpy as np
import pytest
from hypothesis import settings

from thzlink.catalog import (
    SpectralLine,
    bundled_catalog_path,
    load_catalog,
)
from thzlink.scenario import _DEFAULTS, SpectrumCache, build_scenario

# the same examples on every run, with no example database and no deadline
# (a cold run's time depends on the host)
settings.register_profile("thzlink", derandomize=True, deadline=None,
                          database=None, max_examples=1000)
settings.load_profile("thzlink")


@pytest.fixture(scope="session")
def mini_catalog():
    return load_catalog(bundled_catalog_path(), 0.0, 50.0)


@pytest.fixture(scope="session")
def water_557_line(mini_catalog):
    lines = [ln for ln in mini_catalog
             if ln.molecule_id == 1 and abs(ln.nu0 - 18.577339) < 1e-4]
    assert len(lines) == 1
    return lines[0]


@pytest.fixture()
def sample_line():
    return SpectralLine(
        molecule_id=1, isotopologue_id=1, nu0=18.577339, S0_ref=1.5e-19,
        alpha_air=0.1040, alpha_self=0.490, E_lower=23.7944, gamma_t=0.69,
        delta_air=0.0001, abundance=0.997317)


@pytest.fixture(scope="session")
def spectrum_cache():
    return SpectrumCache()


@pytest.fixture(scope="session")
def default_scenario():
    return build_scenario(dict(_DEFAULTS))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
