"""What each bundled data table parses to.

The tables are regenerated by ``tools/make_data_tables.py``; these tests pin
how they are read. Each digest is of what a table's cached reader returns:
an array by its shape and bytes, anything else by its ``repr``, which gives
every float exactly.
"""

import hashlib

import numpy as np
import pytest

from thzlink.absorption import _partition_fits
from thzlink.atmosphere import _upper_atmosphere_table
from thzlink.channel import _cloud_table, _rain_table


def _bits(value) -> bytes:
    if isinstance(value, np.ndarray):
        return repr(value.shape).encode() + value.tobytes()
    if isinstance(value, tuple) and any(isinstance(v, np.ndarray)
                                        for v in value):
        return b"".join(map(_bits, value))
    return repr(value).encode()


@pytest.mark.parametrize("reader, digest", [
    (_partition_fits,
     "eaefc8ada03b43b4fd238df4deee2dba1265d10ebf2ae43cc9717aa300c80602"),
    (_upper_atmosphere_table,
     "007024e869c98e8c26afde5c142fc024a4de5e5f2d6ef1eb69219053b12a8c19"),
    (_rain_table,
     "807b9f14706ecf599366903ffc18cb64d20c22553ee96901c40c762ef039cf66"),
    (_cloud_table,
     "f7a89d0cf7f27edd600faa012c2f566a32c1d1eecbd4d29780bc1f43520daf5e"),
], ids=["partition_fits", "ussa1976_upper", "rain_p838", "cloud_p840"])
def test_each_table_parses_to_its_pinned_values(reader, digest):
    assert hashlib.sha256(_bits(reader())).hexdigest() == digest


def test_each_table_is_read_once_per_process():
    for reader in (_partition_fits, _upper_atmosphere_table, _rain_table,
                   _cloud_table):
        assert reader() is reader()


def test_a_table_is_its_columns_as_text_under_their_header_names():
    from thzlink.constants import data_table

    table = data_table("ussa1976_upper.csv")
    assert list(table) == ["altitude_m", "pressure_pa", "temperature_k",
                           "n2_vmr", "o2_vmr"]
    assert table["altitude_m"][:2] == ["86000", "90000"]
    assert len({len(column) for column in table.values()}) == 1
