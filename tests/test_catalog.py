import dataclasses
import hashlib
import random

import pytest

from thzlink.catalog import (
    ISOTOPOLOGUE_ABUNDANCES,
    PAR_2004,
    LineCatalog,
    SpectralLine,
    bundled_catalog_path,
    format_line_record,
    frequency_to_wavenumber,
    load_catalog,
    parse_line_record,
    wavenumber_to_frequency,
)
from thzlink.errors import (
    CatalogError,
    EmptyCatalogWarning,
    IoFailure,
    UnknownIsotopologue,
    UnparseableField,
    WrongRecordLength,
)


def make_record(**overrides):
    line = SpectralLine(
        molecule_id=1, isotopologue_id=1, nu0=18.577000, S0_ref=1.5e-19,
        alpha_air=0.1040, alpha_self=0.490, E_lower=23.7944, gamma_t=0.69,
        delta_air=0.000100, abundance=1.0)
    fields = {f.name: getattr(line, f.name) for f in PAR_2004 if f.keep}
    fields.update(overrides)
    fields["abundance"] = 1.0
    return format_line_record(SpectralLine(**fields))


class TestParseLineRecord:
    def test_constructed_record_round_trips_nu0(self):
        record = make_record(nu0=18.577000)
        assert record[3:15] == "   18.577000"
        parsed = parse_line_record(record)
        assert parsed.nu0 == 18.577

    def test_wrong_length_rejected(self):
        with pytest.raises(WrongRecordLength) as err:
            parse_line_record(make_record()[:159])
        assert err.value.actual == 159
        assert err.value.expected == 160

    def test_principal_water_abundance_filled(self):
        parsed = parse_line_record(make_record())
        assert parsed.molecule_id == 1
        assert parsed.isotopologue_id == 1
        assert parsed.abundance == pytest.approx(0.9973, abs=1e-4)

    def test_unknown_isotopologue(self):
        record = make_record()
        with pytest.raises(UnknownIsotopologue):
            parse_line_record(record[:2] + "9" + record[3:])

    def test_unparseable_field_names_columns(self):
        record = make_record()
        broken = record[:15] + "not_a_num " + record[25:]
        with pytest.raises(UnparseableField) as err:
            parse_line_record(broken)
        assert err.value.field == "S0_ref"
        assert err.value.columns == (15, 25)

    def test_trailing_newline_tolerated(self):
        parsed = parse_line_record(make_record() + "\n")
        assert parsed.nu0 == pytest.approx(18.577)

    def test_record_breaking_a_line_invariant_rejected(self):
        record = make_record()
        zero_nu0 = record[:3] + f"{0.0:12.6f}" + record[15:]
        with pytest.raises(CatalogError, match="violates line invariants"):
            parse_line_record(zero_nu0)


class TestSpectralLineRules:
    @pytest.mark.parametrize("field, value, message", [
        ("molecule_id", 99, "unknown molecule 99"),
        ("S0_ref", -1e-22, "intensity must be nonnegative"),
        ("E_lower", -1.0, "lower-state energy must be nonnegative"),
        ("abundance", 0.0, r"abundance must be in \(0, 1\]"),
        ("abundance", -0.5, r"abundance must be in \(0, 1\]"),
        ("abundance", 1.5, r"abundance must be in \(0, 1\]")])
    def test_each_rule_raises(self, sample_line, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(sample_line, **{field: value})


class TestRoundTrip:
    PRECISION = {
        "nu0": 1e-6, "S0_ref": None, "alpha_air": 1e-4, "alpha_self": 1e-3,
        "E_lower": 1e-4, "gamma_t": 1e-2, "delta_air": 1e-6,
    }

    def test_format_parse_identity_over_field_boundaries(self, rng):
        molecules = list(ISOTOPOLOGUE_ABUNDANCES)
        # deliberately include boundary-ish values for every numeric field
        nu_pool = [0.000001, 0.5, 18.577339, 99999.999999]
        s_pool = [1e-30, 9.999e-19, 1.0]
        for case in range(50):
            mol, iso = molecules[case % len(molecules)]
            line = SpectralLine(
                molecule_id=mol,
                isotopologue_id=iso,
                nu0=nu_pool[case % 4] if case < 8 else float(
                    rng.uniform(0.01, 60.0)),
                S0_ref=s_pool[case % 3] if case < 6 else float(
                    10.0 ** rng.uniform(-28, -19)),
                alpha_air=float(rng.uniform(0.0001, 0.9999)),
                alpha_self=float(rng.uniform(0.001, 0.999)),
                E_lower=float(rng.uniform(0.0, 9999.9999)),
                gamma_t=float(rng.uniform(-0.99, 0.99)),
                delta_air=float(rng.uniform(-0.099999, 0.099999)),
                abundance=ISOTOPOLOGUE_ABUNDANCES[(mol, iso)],
            )
            parsed = parse_line_record(format_line_record(line))
            assert parsed.molecule_id == line.molecule_id
            assert parsed.isotopologue_id == line.isotopologue_id
            for name, tol in self.PRECISION.items():
                got, want = getattr(parsed, name), getattr(line, name)
                if tol is None:  # E10.3: four significant digits
                    assert got == pytest.approx(want, rel=5e-4)
                else:
                    assert got == pytest.approx(want, abs=tol)


class TestLoadCatalog:
    def test_all_records_kept_and_sorted(self):
        records = [make_record(nu0=nu) for nu in (20.0, 5.0, 12.0)]
        cat = load_catalog("\n".join(records).encode(), 0.0, 50.0)
        assert len(cat) == 3
        assert [ln.nu0 for ln in cat] == sorted(ln.nu0 for ln in cat)
        assert not cat.parse_errors

    def test_window_filter(self):
        records = [make_record(nu0=5.0), make_record(nu0=20.0)]
        cat = load_catalog("\n".join(records).encode(), 10.0, 30.0)
        assert [ln.nu0 for ln in cat] == [20.0]

    def test_empty_window_warns(self):
        with pytest.warns(EmptyCatalogWarning):
            cat = load_catalog(make_record().encode(), 30.0, 40.0)
        assert len(cat) == 0

    def test_malformed_record_reported_not_dropped_silently(self):
        good = [make_record(nu0=float(n)) for n in range(1, 11)]
        good[4] = good[4][:10] + "x" + good[4][11:]
        cat = load_catalog("\n".join(good).encode(), 0.0, 50.0)
        assert len(cat) == 9
        assert len(cat.parse_errors) == 1
        assert cat.parse_errors[0].line_number == 5

    def test_zero_intensity_dropped(self):
        records = [make_record(S0_ref=0.0), make_record(S0_ref=1e-22)]
        cat = load_catalog("\n".join(records).encode(), 0.0, 50.0)
        assert len(cat) == 1

    def test_invariant_violating_record_reported(self):
        # a zero broadening half-width parses numerically but breaks the
        # line invariants, so it lands in the error report
        good = make_record()
        broken = good[:40] + "0.000" + good[45:]
        cat = load_catalog((good + "\n" + broken).encode(), 0.0, 50.0)
        assert len(cat) == 1
        assert len(cat.parse_errors) == 1
        assert "invariant" in cat.parse_errors[0].reason

    @pytest.mark.parametrize("text", ["nan", "inf"])
    @pytest.mark.parametrize(
        "spec", [f for f in PAR_2004 if f.keep and f.descriptor[0] != "I"],
        ids=lambda f: f.name)
    def test_non_finite_field_reported_not_kept(self, spec, text):
        # float() reads both; a line must not carry them into the kernel
        good = make_record()
        broken = (good[:spec.start] + text.rjust(spec.stop - spec.start)
                  + good[spec.stop:])
        cat = load_catalog((good + "\n" + broken).encode(), 0.0, 50.0)
        assert len(cat) == 1
        assert [issue.line_number for issue in cat.parse_errors] == [2]
        assert f"{spec.name} must be finite" in cat.parse_errors[0].reason

    def test_duplicates_stable(self):
        record = make_record()
        cat = load_catalog((record + "\n" + record).encode(), 0.0, 50.0)
        assert len(cat) == 2

    def test_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            load_catalog(tmp_path / "missing.par", 0.0, 50.0)

    def test_blank_lines_skipped_but_counted(self):
        text = f"\n{make_record()}\n   \nxx\n"
        cat = load_catalog(text.encode(), 0.0, 50.0)
        assert len(cat) == 1
        assert [error.line_number for error in cat.parse_errors] == [4]

    @pytest.mark.parametrize("nu_min, nu_max", [(50.0, 50.0), (50.0, 0.0)])
    def test_empty_or_reversed_window_rejected(self, nu_min, nu_max):
        with pytest.raises(ValueError, match="must be <"):
            load_catalog(make_record().encode(), nu_min, nu_max)

    def test_non_ascii_bytes_are_io_failure(self):
        data = (make_record() + "\n# caf\u00e9\n").encode("utf-8")
        with pytest.raises(IoFailure, match="not ASCII"):
            load_catalog(data, 0.0, 50.0)

    def test_bundled_catalog_loads_cleanly(self, mini_catalog):
        assert len(mini_catalog) == 50
        assert not mini_catalog.parse_errors
        assert {ln.molecule_id for ln in mini_catalog} == {1, 7}
        assert "sha256:" in mini_catalog.source_id

    def test_file_digest_is_the_file_bytes_digest(self, mini_catalog):
        digest = hashlib.sha256(bundled_catalog_path().read_bytes())
        assert mini_catalog.file_sha256 == digest.hexdigest()
        assert mini_catalog.source_id.endswith(digest.hexdigest())


class TestLinesDigest:
    def test_same_lines_share_it_whatever_the_source(self, mini_catalog):
        copy = LineCatalog(mini_catalog.lines, "elsewhere.par#sha256:0")
        assert copy.lines_sha256 == mini_catalog.lines_sha256

    @pytest.mark.parametrize("field", [
        "molecule_id", "isotopologue_id", "nu0", "S0_ref", "alpha_air",
        "alpha_self", "E_lower", "gamma_t", "delta_air", "abundance"])
    def test_every_field_changes_it(self, mini_catalog, field):
        lines = list(mini_catalog.lines)
        first = lines[0]
        changed = {"molecule_id": 7, "isotopologue_id": 2,
                   "abundance": 0.5}.get(field, getattr(first, field) * 1.5
                                         + 1e-3)
        lines[0] = SpectralLine(**{**first.__dict__, field: changed})
        other = LineCatalog(tuple(lines), mini_catalog.source_id)
        assert other.lines_sha256 != mini_catalog.lines_sha256

    def test_order_and_count_change_it(self, mini_catalog):
        lines = mini_catalog.lines
        digests = {LineCatalog(ls, "x").lines_sha256 for ls in (
            lines, lines[::-1], lines[:-1], lines + lines[:1], ())}
        assert len(digests) == 5


# The record formatter as it was when each field's precision sat in a
# dictionary of its own, kept as the reference for the layout table.
_ORACLE_LAYOUT = (
    ("molecule_id", 0, 2, "int"), ("isotopologue_id", 2, 3, "int"),
    ("nu0", 3, 15, "float"), ("S0_ref", 15, 25, "float"),
    ("einstein_a", 25, 35, "float"), ("alpha_air", 35, 40, "float"),
    ("alpha_self", 40, 45, "float"), ("E_lower", 45, 55, "float"),
    ("gamma_t", 55, 59, "float"), ("delta_air", 59, 67, "float"),
    ("global_upper_quanta", 67, 82, "text"),
    ("global_lower_quanta", 82, 97, "text"),
    ("local_upper_quanta", 97, 112, "text"),
    ("local_lower_quanta", 112, 127, "text"),
    ("uncertainty_codes", 127, 133, "text"),
    ("reference_codes", 133, 145, "text"),
    ("line_mixing_flag", 145, 146, "text"),
    ("g_upper", 146, 153, "float"), ("g_lower", 153, 160, "float"),
)


def _oracle_fixed_width_float(value, width, decimals):
    out = f"{value:{width}.{decimals}f}"
    if len(out) > width:
        out = out.replace("0.", ".", 1)
    if len(out) > width:
        raise ValueError(f"{value!r} does not fit in F{width}.{decimals}")
    return out.rjust(width)


def _oracle_format_line_record(line):
    decimals = {
        "nu0": 6, "alpha_air": 4, "alpha_self": 3,
        "E_lower": 4, "gamma_t": 2, "delta_air": 6,
        "g_upper": 1, "g_lower": 1,
    }
    parts = []
    for name, start, stop, kind in _ORACLE_LAYOUT:
        width = stop - start
        if kind == "int":
            parts.append(f"{getattr(line, name):{width}d}")
        elif name == "S0_ref" or name == "einstein_a":
            value = line.S0_ref if name == "S0_ref" else 0.0
            parts.append(f"{value:{width}.3E}")
        elif kind == "float":
            value = getattr(line, name, 0.0)
            parts.append(_oracle_fixed_width_float(value, width,
                                                   decimals[name]))
        else:
            parts.append(" " * width)
    record = "".join(parts)
    assert len(record) == 160
    return record


def _seeded_lines(count, seed=14):
    rng = random.Random(seed)
    keys = sorted(ISOTOPOLOGUE_ABUNDANCES)
    lines = []
    for _ in range(count):
        molecule, isotopologue = rng.choice(keys)
        lines.append(SpectralLine(
            molecule_id=molecule, isotopologue_id=isotopologue,
            nu0=rng.choice([rng.uniform(1e-3, 100.0),
                            rng.uniform(100.0, 99_999.0)]),
            S0_ref=rng.choice([0.0, 10.0 ** rng.uniform(-99.0, 99.0)]),
            alpha_air=rng.uniform(5e-5, 0.99994),
            alpha_self=rng.uniform(5e-4, 9.9994),
            E_lower=rng.choice([0.0, rng.uniform(0.0, 99_999.0)]),
            gamma_t=rng.uniform(-0.994, 9.994),
            delta_air=rng.uniform(-0.0999994, 0.0999994),
            abundance=ISOTOPOLOGUE_ABUNDANCES[molecule, isotopologue]))
    return lines


class TestRecordBytes:
    """format_line_record gives the reference formatter's bytes."""

    def test_bundled_records(self):
        text = bundled_catalog_path().read_text()
        records = [r for r in text.splitlines() if r.strip()]
        assert len(records) == 50
        for record in records:
            line = parse_line_record(record)
            assert format_line_record(line) == \
                _oracle_format_line_record(line) == record

    def test_seeded_lines(self):
        lines = _seeded_lines(400)
        for line in lines:
            assert format_line_record(line) == \
                _oracle_format_line_record(line), line

    @pytest.mark.parametrize("field, value", [
        ("nu0", 1e7), ("alpha_air", 1.5), ("E_lower", 1e7),
        ("delta_air", -1.5)])
    def test_a_value_too_wide_raises_in_both(self, sample_line, field,
                                             value):
        line = SpectralLine(**{**sample_line.__dict__, field: value})
        for formatter in (format_line_record, _oracle_format_line_record):
            with pytest.raises(ValueError, match="does not fit"):
                formatter(line)


class TestWavenumberConversion:
    def test_one_inverse_centimeter(self):
        assert wavenumber_to_frequency(1.0) == pytest.approx(29.9792458e9)

    def test_zero(self):
        assert wavenumber_to_frequency(0.0) == 0.0

    def test_557_ghz_water_line(self):
        # closed form: 18.577 * 100 * c = 556.9244492 GHz
        assert wavenumber_to_frequency(18.577) == pytest.approx(
            556.9244492e9, rel=1e-9)
        assert wavenumber_to_frequency(18.577) == pytest.approx(
            556.93e9, rel=1e-4)

    def test_inverse(self):
        assert frequency_to_wavenumber(
            wavenumber_to_frequency(12.5)) == pytest.approx(12.5)
