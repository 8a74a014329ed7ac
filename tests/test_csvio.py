"""The CSV writer: the bytes of np.savetxt, lossless %.17g, bounded memory."""
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdspill.csvio import ROWS_PER_WRITE, write_csv
from rdspill.sampling import Sample, parse_sample_csv

EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.0, -1.0, np.nan, np.inf]


def _columns(n_cols: int, n_rows: int) -> list:
    values = np.random.default_rng(n_cols * 100_003 + n_rows).normal(0.0, 1e3, (n_cols, n_rows))
    flat = values.reshape(-1)
    flat[: len(EDGE_VALUES)] = EDGE_VALUES[: flat.size]
    return list(values)


def _savetxt(header: str, columns) -> str:
    """Reference: the bytes write_csv must reproduce."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(columns), delimiter=",", header=header,
               comments="", fmt="%.17g")
    return buf.getvalue()


@pytest.mark.parametrize("n_rows", [0, 1, ROWS_PER_WRITE - 1, ROWS_PER_WRITE,
                                    ROWS_PER_WRITE + 1, 20_000])
@pytest.mark.parametrize("n_cols", [1, 2, 4])
def test_bytes_equal_savetxt(tmp_path, n_cols, n_rows):
    columns = _columns(n_cols, n_rows)
    header = ",".join("abcd"[:n_cols])
    expected = _savetxt(header, columns)
    buf = io.StringIO()
    write_csv(buf, header, *columns)
    assert buf.getvalue() == expected
    write_csv(tmp_path / "t.csv", header, *columns)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=40))
def test_sample_round_trip_is_bit_exact(rows):
    z, y = (np.array(col, dtype=np.float64) for col in zip(*rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        Sample(z=z, y=y).to_csv(path)
        z_back, y_back = parse_sample_csv(path)
    assert z_back.tobytes() == z.tobytes() and y_back.tobytes() == y.tobytes()


class _Discard:
    def write(self, text):
        return len(text)


def test_peak_memory_is_the_table_plus_one_block():
    # 3.2 MB of table; one % over all 200 000 rows would peak near 28 MB
    columns = _columns(2, 200_000)
    tracemalloc.start()
    try:
        write_csv(_Discard(), "z,y", *columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < np.column_stack(columns).nbytes + (1 << 20)
