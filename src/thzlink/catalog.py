"""Fixed-width spectral-line catalog parsing, formatting, and filtering.

The canonical input is the 160-character ``.par`` record layout used by the
big public high-resolution line databases since the 2004 edition, one record
per line of text. Column offsets are documented in the README and in
:data:`PAR_2004`. Only the fields needed for line-by-line absorption are
retained; Einstein A coefficients, quantum assignments, and statistical
weights are validated where numeric but discarded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .constants import ATOMIC_MASS, SPEED_OF_LIGHT
from .errors import (
    CatalogError,
    EmptyCatalogWarning,
    IoFailure,
    UnknownIsotopologue,
    UnparseableField,
    WrongRecordLength,
)

# Molecule numbering follows the public line-database convention.
MOLECULE_NAMES = {
    1: "H2O",
    2: "CO2",
    3: "O3",
    4: "N2O",
    5: "CO",
    6: "CH4",
    7: "O2",
    22: "N2",
}

# Molar mass of the principal isotopologue, unified atomic mass units.
MOLAR_MASSES_U = {
    1: 18.010565,
    2: 43.989830,
    3: 47.984745,
    4: 44.001062,
    5: 27.994915,
    6: 16.031300,
    7: 31.989830,
    22: 28.006148,
}

# Natural terrestrial isotopologue abundances keyed by
# (molecule_id, isotopologue_id).
ISOTOPOLOGUE_ABUNDANCES = {
    (1, 1): 0.997317,
    (1, 2): 1.99983e-3,
    (1, 3): 3.71884e-4,
    (1, 4): 3.10693e-4,
    (1, 5): 6.23003e-7,
    (1, 6): 1.15853e-7,
    (1, 7): 2.41974e-8,
    (2, 1): 0.984204,
    (2, 2): 1.10574e-2,
    (2, 3): 3.94707e-3,
    (2, 4): 7.33989e-4,
    (2, 5): 4.43446e-5,
    (2, 6): 8.24623e-6,
    (2, 7): 3.95734e-6,
    (2, 8): 1.47180e-6,
    (2, 9): 1.36847e-7,
    (3, 1): 0.992901,
    (3, 2): 3.98194e-3,
    (3, 3): 1.99097e-3,
    (3, 4): 7.40475e-4,
    (3, 5): 3.70237e-4,
    (4, 1): 0.990333,
    (4, 2): 3.64093e-3,
    (4, 3): 3.60279e-3,
    (4, 4): 1.98582e-3,
    (4, 5): 3.69280e-4,
    (5, 1): 0.986544,
    (5, 2): 1.10836e-2,
    (5, 3): 1.97822e-3,
    (5, 4): 3.67867e-4,
    (5, 5): 2.22250e-5,
    (5, 6): 4.13292e-6,
    (6, 1): 0.988274,
    (6, 2): 1.11031e-2,
    (6, 3): 6.15751e-4,
    (6, 4): 6.91785e-6,
    (7, 1): 0.995262,
    (7, 2): 3.99141e-3,
    (7, 3): 7.42235e-4,
    (22, 1): 0.9926874,
    (22, 2): 7.47809e-3,
}


@dataclass(frozen=True)
class SpectralLine:
    """One absorption line.

    Units follow the catalog convention: wavenumbers in 1/cm, intensities in
    cm^-1/(molecule cm^-2) at the 296 K reference temperature, half-widths
    and pressure shift in 1/cm per atm, lower-state energy in 1/cm. The
    molecule is one :data:`MOLECULE_NAMES` names.
    """

    molecule_id: int
    isotopologue_id: int
    nu0: float
    S0_ref: float
    alpha_air: float
    alpha_self: float
    E_lower: float
    gamma_t: float
    delta_air: float
    abundance: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.molecule_id not in MOLECULE_NAMES:
            raise ValueError(f"unknown molecule {self.molecule_id}")
        if self.nu0 <= 0.0:
            raise ValueError(f"line center must be positive, got {self.nu0}")
        if self.S0_ref < 0.0:
            raise ValueError(f"intensity must be nonnegative, got {self.S0_ref}")
        if self.alpha_air <= 0.0 or self.alpha_self <= 0.0:
            raise ValueError("broadening half-widths must be positive")
        if self.E_lower < 0.0:
            raise ValueError(f"lower-state energy must be nonnegative, "
                             f"got {self.E_lower}")
        if not 0.0 < self.abundance <= 1.0:
            raise ValueError(f"abundance must be in (0, 1], got {self.abundance}")

    @property
    def f0(self) -> float:
        """Unshifted line center in Hz."""
        return wavenumber_to_frequency(self.nu0)

    @property
    def mass(self) -> float:
        """Molecular mass in kg."""
        return MOLAR_MASSES_U[self.molecule_id] * ATOMIC_MASS


@dataclass(frozen=True, eq=False)
class LineColumns:
    """Per-line fields of a catalog as arrays, in catalog order.

    The names are those of :class:`SpectralLine`, so a line-parameter
    formula written for one line applies element-wise to every line.
    """

    nu0: np.ndarray
    delta_air: np.ndarray
    alpha_air: np.ndarray
    alpha_self: np.ndarray
    gamma_t: np.ndarray
    S0_ref: np.ndarray
    E_lower: np.ndarray
    abundance: np.ndarray
    f0: np.ndarray
    mass: np.ndarray
    species: tuple[str, ...]          # distinct names, in catalog order
    species_index: np.ndarray         # each line's entry in ``species``

    @classmethod
    def of(cls, lines: tuple[SpectralLine, ...]) -> LineColumns:
        def column(name: str) -> np.ndarray:
            return np.array([getattr(ln, name) for ln in lines], dtype=float)

        nu0 = column("nu0")
        names = [MOLECULE_NAMES[ln.molecule_id] for ln in lines]
        species = tuple(dict.fromkeys(names))
        return cls(
            nu0=nu0,
            delta_air=column("delta_air"),
            alpha_air=column("alpha_air"),
            alpha_self=column("alpha_self"),
            gamma_t=column("gamma_t"),
            S0_ref=column("S0_ref"),
            E_lower=column("E_lower"),
            abundance=column("abundance"),
            f0=wavenumber_to_frequency(nu0),
            mass=column("mass"),
            species=species,
            species_index=np.array([species.index(n) for n in names],
                                   dtype=np.intp),
        )

    def mixing_ratios(self, ratios: Mapping[str, float]) -> np.ndarray:
        """Each line's volume mixing ratio; 0 for a species not in ``ratios``."""
        by_species = np.array([ratios.get(name, 0.0) for name in self.species],
                              dtype=float)
        return by_species[self.species_index]


@dataclass(frozen=True)
class FieldSpec:
    """One field of a fixed-width record and its Fortran edit descriptor,
    ``Iw``, ``Fw.d``, ``Ew.d`` or ``Aw``."""

    name: str
    start: int          # 0-based, inclusive
    descriptor: str
    keep: bool = True
    stop: int = field(init=False)   # 0-based, exclusive

    def __post_init__(self):
        width = int(self.descriptor[1:].partition(".")[0])
        object.__setattr__(self, "stop", self.start + width)


# The 2004+ 160-character record layout, one row per field; a record is as
# long as the last field's stop (column offsets are 0-based here; the README
# documents the same table 1-based).
PAR_2004 = (
    FieldSpec("molecule_id", 0, "I2"),
    FieldSpec("isotopologue_id", 2, "I1"),
    FieldSpec("nu0", 3, "F12.6"),
    FieldSpec("S0_ref", 15, "E10.3"),
    FieldSpec("einstein_a", 25, "E10.3", keep=False),
    FieldSpec("alpha_air", 35, "F5.4"),
    FieldSpec("alpha_self", 40, "F5.3"),
    FieldSpec("E_lower", 45, "F10.4"),
    FieldSpec("gamma_t", 55, "F4.2"),
    FieldSpec("delta_air", 59, "F8.6"),
    FieldSpec("global_upper_quanta", 67, "A15", keep=False),
    FieldSpec("global_lower_quanta", 82, "A15", keep=False),
    FieldSpec("local_upper_quanta", 97, "A15", keep=False),
    FieldSpec("local_lower_quanta", 112, "A15", keep=False),
    FieldSpec("uncertainty_codes", 127, "A6", keep=False),
    FieldSpec("reference_codes", 133, "A12", keep=False),
    FieldSpec("line_mixing_flag", 145, "A1", keep=False),
    FieldSpec("g_upper", 146, "F7.1", keep=False),
    FieldSpec("g_lower", 153, "F7.1", keep=False),
)
RECORD_LENGTH = PAR_2004[-1].stop


def parse_line_record(record: str) -> SpectralLine:
    """Parse one :data:`PAR_2004` record into a :class:`SpectralLine`.

    The abundance comes from :data:`ISOTOPOLOGUE_ABUNDANCES`. Raises
    :class:`WrongRecordLength`, :class:`UnparseableField`, or
    :class:`UnknownIsotopologue`.
    """
    record = record.rstrip("\r\n")
    if len(record) != RECORD_LENGTH:
        raise WrongRecordLength(RECORD_LENGTH, len(record))

    values: dict[str, float | int] = {}
    for f in PAR_2004:
        letter = f.descriptor[0]
        raw = record[f.start:f.stop]
        text = raw.strip()
        if letter == "A" or not (f.keep or text):
            continue  # text, or a blank optional numeric field
        try:
            parsed = int(text) if letter == "I" else float(text)
        except ValueError:
            raise UnparseableField(f.name, f.start, f.stop, raw) from None
        if f.keep:
            values[f.name] = parsed

    key = (values["molecule_id"], values["isotopologue_id"])
    if key not in ISOTOPOLOGUE_ABUNDANCES:
        raise UnknownIsotopologue(*key)

    try:
        return SpectralLine(abundance=ISOTOPOLOGUE_ABUNDANCES[key],
                            **values)  # type: ignore[arg-type]
    except ValueError as exc:
        raise CatalogError(f"record violates line invariants: {exc}") from None


def _fixed_width_float(value: float, width: int, spec: str) -> str:
    """Format like Fortran Fw.d, given ``spec`` "w.d", dropping the leading
    zero when needed."""
    out = f"{value:{spec}f}"
    if len(out) > width:
        out = out.replace("0.", ".", 1)
    if len(out) > width:
        raise ValueError(f"{value!r} does not fit in F{spec}")
    return out.rjust(width)


def format_line_record(line: SpectralLine) -> str:
    """Render a :class:`SpectralLine` back into a :data:`PAR_2004` record.

    Inverse of :func:`parse_line_record` for every retained field within
    the column precision of the layout; a numeric field the line does not
    carry is written as 0 and a text field as blanks.
    """
    parts = []
    for f in PAR_2004:
        letter, spec = f.descriptor[0], f.descriptor[1:]
        value = getattr(line, f.name, 0.0)
        if letter == "I":
            parts.append(f"{value:{spec}d}")
        elif letter == "E":
            parts.append(f"{value:{spec}E}")
        elif letter == "F":
            parts.append(_fixed_width_float(value, f.stop - f.start, spec))
        else:
            parts.append(" " * (f.stop - f.start))
    return "".join(parts)


@dataclass(frozen=True)
class ParseIssue:
    line_number: int
    reason: str


@dataclass(frozen=True)
class LineCatalog:
    """Immutable, wavenumber-sorted collection of spectral lines.

    ``parse_errors`` reports records that failed to parse during loading.
    """

    lines: tuple[SpectralLine, ...]
    source_id: str
    parse_errors: tuple[ParseIssue, ...] = field(default=())

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[SpectralLine]:
        return iter(self.lines)

    @cached_property
    def columns(self) -> LineColumns:
        """The lines as arrays, built on first use and kept with the catalog."""
        return LineColumns.of(self.lines)

    @cached_property
    def lines_sha256(self) -> str:
        """SHA-256 of every field of every line, in catalog order: catalogs
        that hold the same lines share it, whatever file they came from."""
        fields = attrgetter(*(f.name for f in dataclasses.fields(SpectralLine)))
        table = np.array([fields(ln) for ln in self.lines], dtype=float)
        return hashlib.sha256(table.tobytes()).hexdigest()

    @property
    def file_sha256(self) -> str:
        """SHA-256 of the loaded file's bytes, which ``source_id`` ends in."""
        return self.source_id.rsplit("sha256:", 1)[-1]


def load_catalog(source, nu_min: float, nu_max: float) -> LineCatalog:
    """Load and filter a fixed-width catalog from a path or bytes.

    Keeps lines with ``nu_min <= nu0 <= nu_max``. Zero-intensity lines are
    dropped; they cannot contribute to absorption. Records that fail to
    parse are collected on ``LineCatalog.parse_errors`` rather than silently
    skipped. Warns :class:`EmptyCatalogWarning` when nothing matches.
    """
    if not nu_min < nu_max:
        raise ValueError(f"nu_min ({nu_min}) must be < nu_max ({nu_max})")
    is_bytes = isinstance(source, (bytes, bytearray))
    name = "<bytes>" if is_bytes else str(Path(source))
    try:
        data = bytes(source) if is_bytes else Path(source).read_bytes()
        text = data.decode("ascii")
    except OSError as exc:
        raise IoFailure(f"cannot read {name}: {exc}") from exc
    except UnicodeError as exc:
        raise IoFailure(f"{name} is not ASCII text: {exc}") from exc

    digest = hashlib.sha256(data).hexdigest()
    kept: list[SpectralLine] = []
    issues: list[ParseIssue] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            line = parse_line_record(raw)
        except CatalogError as exc:
            issues.append(ParseIssue(lineno, str(exc)))
            continue
        if line.S0_ref == 0.0:
            continue
        if not nu_min <= line.nu0 <= nu_max:
            continue
        kept.append(line)

    kept.sort(key=lambda ln: ln.nu0)
    if not kept:
        warnings.warn(
            f"no catalog lines matched [{nu_min}, {nu_max}] cm^-1 in {name}",
            EmptyCatalogWarning,
            stacklevel=2,
        )
    return LineCatalog(tuple(kept), f"{name}#sha256:{digest}", tuple(issues))


def wavenumber_to_frequency(nu):
    """Convert wavenumber (1/cm) to frequency (Hz): f = 100 c nu."""
    return nu * (100.0 * SPEED_OF_LIGHT)


def frequency_to_wavenumber(f):
    """Convert frequency (Hz) to wavenumber (1/cm)."""
    return f / (100.0 * SPEED_OF_LIGHT)


def bundled_catalog_path() -> Path:
    """Path of the small line-list subset shipped for tests and examples."""
    return Path(__file__).parent / "data" / "mini_catalog.par"
