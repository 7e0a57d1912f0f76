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
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import ATOMIC_MASS, DATA_DIR, SPEED_OF_LIGHT
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


_FIELDS = tuple(f.name for f in dataclasses.fields(SpectralLine))
_line_fields = attrgetter(*_FIELDS)


class LineCatalog:
    """Immutable, wavenumber-sorted collection of spectral lines.

    The lines are one read-only float64 ``table``, a row per line in
    :class:`SpectralLine` field order, and each field is a column of it
    under its own name, so that a formula written for one line applies
    element-wise to every line; ``f0``, ``mass``, the distinct molecule
    names ``species`` and each line's entry in them, ``species_index``,
    stand beside them. ``lines``, iteration and an index build
    :class:`SpectralLine` objects on demand; a slice is a catalog of those
    rows. ``parse_errors`` reports records that failed to parse.
    """

    def __init__(self, lines: Iterable[SpectralLine], source_id: str,
                 parse_errors: tuple[ParseIssue, ...] = ()):
        rows = [_line_fields(line) for line in lines]
        self._hold(np.array(rows, dtype=float).reshape(-1, len(_FIELDS)),
                   source_id, parse_errors)

    @classmethod
    def _of_table(cls, table, source_id, parse_errors=()) -> LineCatalog:
        """A catalog of the rows of ``table``, which it takes as they are."""
        catalog = cls.__new__(cls)
        catalog._hold(table, source_id, parse_errors)
        return catalog

    def _hold(self, table, source_id, parse_errors):
        table = np.asfortranarray(table)  # each column contiguous
        table.flags.writeable = False     # and so each column
        vars(self).update(zip(_FIELDS, table.T), table=table,
                          source_id=source_id, parse_errors=tuple(parse_errors))
        molecules, species_index = np.unique(self.molecule_id.astype(int),
                                             return_inverse=True)
        molecules = molecules.tolist()
        mass = np.array([MOLAR_MASSES_U[m] for m in molecules]) * ATOMIC_MASS
        derived = dict(f0=wavenumber_to_frequency(self.nu0),
                       mass=mass[species_index], species_index=species_index)
        for column in derived.values():
            column.flags.writeable = False
        vars(self).update(species=tuple(MOLECULE_NAMES[m] for m in molecules),
                          **derived)

    def __setattr__(self, name, value):
        raise AttributeError(f"a LineCatalog is read-only; cannot set {name}")

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._of_table(self.table[index], self.source_id)
        molecule_id, isotopologue_id, *rest = self.table[index].tolist()
        return SpectralLine(int(molecule_id), int(isotopologue_id), *rest)

    def __iter__(self) -> Iterator[SpectralLine]:
        return map(self.__getitem__, range(len(self)))

    @property
    def lines(self) -> tuple[SpectralLine, ...]:
        """The lines as :class:`SpectralLine` objects, built on each call."""
        return tuple(self)

    def mixing_ratios(self, ratios: Mapping[str, float]) -> np.ndarray:
        """Each line's volume mixing ratio; 0 for a species not in ``ratios``."""
        by_species = np.array([ratios.get(name, 0.0) for name in self.species],
                              dtype=float)
        return by_species[self.species_index]

    @cached_property
    def lines_sha256(self) -> str:
        """SHA-256 of ``table``'s bytes, every field of every line in catalog
        order: catalogs that hold the same lines share it, whatever file they
        came from."""
        return hashlib.sha256(self.table.tobytes()).hexdigest()

    @property
    def file_sha256(self) -> str:
        """SHA-256 of the loaded file's bytes, which ``source_id`` ends in."""
        return self.source_id.rsplit("sha256:", 1)[-1]


_NUMERIC_FIELDS = tuple(f for f in PAR_2004 if f.descriptor[0] != "A")
# Abundance by 10 * molecule_id + isotopologue_id (-90 to 999; a negative
# key clips to 0); 0 for a pair with none. Every pair's molecule is named.
_ABUNDANCE_TABLE = np.zeros(1000)
_ABUNDANCE_TABLE[[10 * m + i for m, i in ISOTOPOLOGUE_ABUNDANCES]] = list(
    ISOTOPOLOGUE_ABUNDANCES.values())


def _read_field(block: np.ndarray, spec: FieldSpec):
    """Read each row of a ``(records, width)`` block as ``int`` or ``float``
    would, in one cast; returns the numbers and which rows read."""
    column = np.ascontiguousarray(block).view(f"S{block.shape[1]}")[:, 0]
    kind = int if spec.descriptor[0] == "I" else float
    try:
        with np.errstate(over="ignore"):  # "1e999" is inf, as float() says
            return column.astype(kind), np.ones(column.size, dtype=bool)
    except ValueError:  # read again row by row
        numbers = np.zeros(column.size, dtype=kind)
        read = np.zeros(column.size, dtype=bool)
    for i, text in enumerate(column.tolist()):
        with suppress(ValueError):
            numbers[i], read[i] = kind(text), True
    return numbers, read


def load_catalog(source, nu_min: float, nu_max: float) -> LineCatalog:
    """Load and filter a fixed-width catalog from a path or bytes.

    Keeps lines with ``nu_min <= nu0 <= nu_max``. Zero-intensity lines are
    dropped; they cannot contribute to absorption. Records that fail to
    parse are collected on ``LineCatalog.parse_errors`` rather than silently
    skipped. Warns :class:`EmptyCatalogWarning` when nothing matches.

    A record ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``. Records are read in
    columns; only those the columns refuse go to :func:`parse_line_record`.
    """
    if not nu_min < nu_max:
        raise ValueError(f"nu_min ({nu_min}) must be < nu_max ({nu_max})")
    is_bytes = isinstance(source, (bytes, bytearray))
    name = "<bytes>" if is_bytes else str(Path(source))
    try:
        data = bytes(source) if is_bytes else Path(source).read_bytes()
        data.decode("ascii")  # only to refuse a non-ASCII byte
    except OSError as exc:
        raise IoFailure(f"cannot read {name}: {exc}") from exc
    except UnicodeError as exc:
        raise IoFailure(f"{name} is not ASCII text: {exc}") from exc

    digest = hashlib.sha256(data).hexdigest()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    chars = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(chars == 0x0A)
    starts, stops = np.append(0, ends + 1), np.append(ends, chars.size)
    full = np.flatnonzero(stops - starts == RECORD_LENGTH)
    table = (sliding_window_view(chars, RECORD_LENGTH)[starts[full]]
             if full.size else np.empty((0, RECORD_LENGTH), dtype=np.uint8))
    # the parser takes control bytes: a cast drops the NULs float() refuses
    ok = (table.min(axis=1) >= 0x20) & (table.max(axis=1) < 0x7F)
    values = {}
    for f in _NUMERIC_FIELDS:
        block = table[:, f.start:f.stop]
        if f.keep:
            values[f.name], read = _read_field(block, f)
            ok &= read
        else:  # read where it is not blank
            filled = (block != 0x20).any(axis=1)
            ok[filled] &= _read_field(block[filled], f)[1]
    nu0, s0 = values["nu0"], values["S0_ref"]
    values["abundance"] = abundance = _ABUNDANCE_TABLE.take(
        10 * values["molecule_id"] + values["isotopologue_id"], mode="clip")
    ok &= np.isfinite([v for v in values.values() if v.dtype == float]).all(0)
    ok &= ((abundance > 0.0) & (abundance <= 1.0) & (nu0 > 0.0) & (s0 >= 0.0)
           & (values["alpha_air"] > 0.0) & (values["alpha_self"] > 0.0)
           & (values["E_lower"] >= 0.0))
    keep = ok & (s0 != 0.0) & (nu_min <= nu0) & (nu0 <= nu_max)

    at = full[keep].tolist()
    rescued = []
    rejected = np.ones(starts.size, dtype=bool)
    rejected[full[ok]] = False
    issues: list[ParseIssue] = []
    for i in np.flatnonzero(rejected).tolist():
        record = data[starts[i]:stops[i]].decode("ascii")
        if not record.strip():
            continue
        try:
            line = parse_line_record(record)
        except CatalogError as exc:
            issues.append(ParseIssue(i + 1, str(exc)))
            continue
        if line.S0_ref != 0.0 and nu_min <= line.nu0 <= nu_max:
            rescued.append(_line_fields(line))
            at.append(i)

    table = np.concatenate((
        np.stack([values[name][keep] for name in _FIELDS], axis=1, dtype=float),
        np.reshape(rescued, (-1, len(_FIELDS)))))
    table = table[np.lexsort((at, table[:, _FIELDS.index("nu0")]))]
    if not at:
        warnings.warn(f"no catalog lines matched [{nu_min}, {nu_max}] cm^-1 "
                      f"in {name}", EmptyCatalogWarning, stacklevel=2)
    return LineCatalog._of_table(table, f"{name}#sha256:{digest}",
                                 tuple(issues))


def wavenumber_to_frequency(nu):
    """Convert wavenumber (1/cm) to frequency (Hz): f = 100 c nu."""
    return nu * (100.0 * SPEED_OF_LIGHT)


def frequency_to_wavenumber(f):
    """Convert frequency (Hz) to wavenumber (1/cm)."""
    return f / (100.0 * SPEED_OF_LIGHT)


def bundled_catalog_path() -> Path:
    """Path of the small line-list subset shipped for tests and examples."""
    return DATA_DIR / "mini_catalog.par"
