"""Physical constants used throughout the package (SI units), and the
reader of its bundled data tables."""

import csv
from pathlib import Path

SPEED_OF_LIGHT = 299_792_458.0            # m/s
PLANCK = 6.626_070_15e-34                 # J s
BOLTZMANN = 1.380_649e-23                 # J/K
AVOGADRO = 6.022_140_76e23                # 1/mol
GAS_CONSTANT = BOLTZMANN * AVOGADRO       # J/(mol K)
ATOMIC_MASS = 1.660_539_066_60e-27        # kg per unified atomic mass unit

EARTH_RADIUS = 6_371_000.0                # m, spherical Earth
STANDARD_PRESSURE = 101_325.0             # Pa, also 1 atm
STANDARD_TEMPERATURE = 296.0              # K, spectroscopic reference

# Conversion from catalog line intensities, cm^-1/(molecule cm^-2), to
# SI intensity in Hz m^2 per molecule: 1 cm^-1 = 100*c Hz, 1 cm^2 = 1e-4 m^2.
INTENSITY_CM_TO_SI = SPEED_OF_LIGHT / 100.0

DATA_DIR = Path(__file__).parent / "data"   # the files shipped with thzlink


def data_table(name: str) -> dict[str, list[str]]:
    """Each column of the bundled table ``name``, as text under its header
    name, in file order. A table's ``#`` lines are comments, then come a
    header row and one row per entry."""
    with (DATA_DIR / name).open(newline="") as fh:
        header, *rows = csv.reader(r for r in fh if not r.startswith("#"))
    return dict(zip(header, map(list, zip(*rows))))
