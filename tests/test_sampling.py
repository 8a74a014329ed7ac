import decimal
import io
import math
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdspill import sampling
from rdspill.errors import ConfigError, DataError, RdspillError
from rdspill.estimators import (
    EstimatorConfig,
    local_linear_rdd,
    local_spillover_regression,
    nadaraya_watson_rdd,
)
from rdspill.funcspace import ModelSpec, constant, polynomial, sinusoid_sum
from rdspill.population import solve_population
from rdspill.sampling import (
    Sample,
    draw_sample,
    parse_sample_csv,
    substream,
)

# a full-precision data line; 99 998 of them fill rows 2-99999, well past
# the first chunk the parser reads
GOOD_LINE = "-0.12345678901234567,1.2345678901234567"


def _write_csv(sample: Sample, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        sample.to_csv(fh)


@pytest.fixture(scope="module")
def noiseless_sol(noiseless_benchmark):
    return solve_population(noiseless_benchmark, 0.1, grid_n=1001)


@pytest.fixture(scope="module")
def unit_noise_sol():
    model = ModelSpec(
        m_plus=polynomial([1.0, 0.3]), m_minus=polynomial([0.0, 0.2]),
        delta=constant(0.4), gamma=constant(0.5), noise_sd=constant(1.0),
    )
    return solve_population(model, 0.1, grid_n=1001)


class TestDrawSample:
    def test_deterministic(self, noiseless_sol):
        a = draw_sample(noiseless_sol, 500, seed=42)
        b = draw_sample(noiseless_sol, 500, seed=42)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.y, b.y)

    def test_seed_changes_draw(self, noiseless_sol):
        a = draw_sample(noiseless_sol, 500, seed=42)
        b = draw_sample(noiseless_sol, 500, seed=43)
        assert not np.array_equal(a.z, b.z)

    def test_zero_noise_is_exact_interp(self, noiseless_sol):
        s = draw_sample(noiseless_sol, 2000, seed=7)
        assert np.array_equal(s.y, noiseless_sol.interp(s.z))

    def test_clt_bound(self, unit_noise_sol):
        sol = unit_noise_sol
        n = 1_000_000
        s = draw_sample(sol, n, seed=11)
        resid = s.y - sol.interp(s.z)
        assert abs(float(np.mean(resid))) < 4 / np.sqrt(n)

    def test_binned_residual_means(self, unit_noise_sol):
        sol = unit_noise_sol
        n = 200_000
        s = draw_sample(sol, n, seed=3)
        resid = s.y - sol.interp(s.z)
        bins = np.linspace(-1, 1, 21)
        idx = np.digitize(s.z, bins) - 1
        for b in range(20):
            sel = idx == b
            count = int(np.sum(sel))
            assert count > 0
            assert abs(float(np.mean(resid[sel]))) < 4 / np.sqrt(count)

    def test_z_uniform_marginal(self, noiseless_sol):
        s = draw_sample(noiseless_sol, 100_000, seed=5)
        assert s.z.min() >= -1 and s.z.max() <= 1
        # each decile holds close to a tenth of the mass
        counts, _ = np.histogram(s.z, bins=np.linspace(-1, 1, 11))
        assert np.all(np.abs(counts / s.n - 0.1) < 0.01)

    def test_validation(self, noiseless_sol):
        with pytest.raises(ConfigError):
            draw_sample(noiseless_sol, 0, seed=1)

    def test_interp_error_drops_with_grid(self, noiseless_benchmark):
        fine = solve_population(noiseless_benchmark, 0.17, grid_n=8001)
        rng = np.random.default_rng(0)
        z = rng.uniform(-1, 1, 4000)
        errs = []
        for grid_n in (501, 1001):
            sol = solve_population(noiseless_benchmark, 0.17, grid_n=grid_n)
            errs.append(np.max(np.abs(sol.interp(z) - fine.interp(z))))
        assert errs[1] < errs[0] / 3.0


NOISE_SPECS = {
    "constant": constant(0.3),
    "polynomial": polynomial([0.2, 0.05, 0.1, -0.04]),
    # eight terms: a matrix product over them would round by row position
    "sinusoid_sum": sinusoid_sum([0.3, 0.02, 1.0, 0.02, 2.5, 0.02, 4.0, 0.02, 5.5,
                                  0.02, 7.0, 0.02, 8.5, 0.02, 10.0, 0.02, 11.5]),
}
WINDOW_H, WINDOW_R = 0.1, 0.05


@pytest.fixture(scope="module", params=sorted(NOISE_SPECS))
def noisy_sol(request):
    model = ModelSpec(
        m_plus=polynomial([1.0, 0.3]), m_minus=polynomial([0.0, 0.2]),
        delta=constant(0.4), gamma=constant(0.5),
        noise_sd=NOISE_SPECS[request.param],
    )
    return solve_population(model, WINDOW_R, grid_n=1001)


def _fit_outcome(fit, sample, cfg):
    """What fit returns on sample, or the type and message it raises."""
    try:
        return fit(sample, cfg)
    except RdspillError as err:
        return type(err), str(err)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, points, side="right") / a.size
    cdf_b = np.searchsorted(b, points, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _variance_se(mu2: float, mu4: float, m: int) -> float:
    """Standard error of the sample variance of m draws with central
    moments mu2 and mu4."""
    return math.sqrt((mu4 - mu2**2 * (m - 3) / (m - 1)) / m)


class TestWindowedDraw:
    @pytest.mark.parametrize("n", [1, 4001, 20001])
    @pytest.mark.parametrize("reach", [1e-3, WINDOW_H, WINDOW_H + WINDOW_R, 1.0])
    def test_rows_equal_the_full_draw_in_window(self, noisy_sol, n, reach):
        """Equal in law below reach 1, where the window is drawn by binomial
        thinning; equal bit for bit at reach 1, where the full draw runs."""
        sol = noisy_sol
        seeds = range(12 if reach >= 1.0 else 200)
        full = [draw_sample(sol, n, seed=seed) for seed in seeds[:20]]
        windowed = [draw_sample(sol, n, seed=seed, reach=reach) for seed in seeds]
        for f, w in zip(full, windowed):
            assert f.n == n
            if reach >= 1.0:
                assert w.z.tobytes() == f.z.tobytes()
                assert w.y.tobytes() == f.y.tobytes()
        if reach >= 1.0:
            return

        # K ~ Binomial(n, reach): mean, and variance through its 4th moment
        k = np.array([w.n for w in windowed], dtype=float)
        m, pq = k.size, reach * (1.0 - reach)
        mu2, mu4 = n * pq, n * pq * (1.0 + 3.0 * (n - 2) * pq)
        assert abs(k.mean() - n * reach) <= 4.0 * math.sqrt(mu2 / m)
        assert abs(k.var(ddof=1) - mu2) <= 4.0 * _variance_se(mu2, mu4, m)

        z = np.concatenate([w.z for w in windowed[:20]])
        y = np.concatenate([w.y for w in windowed[:20]])
        assert np.all(np.abs(z) <= reach)
        in_window = np.concatenate([f.z[np.abs(f.z) <= reach] for f in full])
        if min(z.size, in_window.size) >= 20:
            # the two-sample KS critical value at level 0.001
            assert _ks_statistic(z, in_window) <= 1.95 * math.sqrt(
                (z.size + in_window.size) / (z.size * in_window.size))
        noise = (y - sol.interp(z)) / np.asarray(sol.model.noise_sd(z))
        if noise.size >= 20:
            assert abs(noise.mean()) <= 4.0 / math.sqrt(noise.size)
            assert abs(noise.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / (noise.size - 1))

    @pytest.mark.parametrize("fit, cfg", [
        (local_linear_rdd, EstimatorConfig(kernel="triangular", h=1e-3)),
        (nadaraya_watson_rdd, EstimatorConfig(kernel="triangular", h=1e-3)),
        (local_spillover_regression, EstimatorConfig(kernel="triangular", h=1e-3, r=5e-4)),
    ], ids=["local_linear", "nadaraya_watson", "spillover"])
    def test_empty_window_fails_as_the_full_draw_does(self, noisy_sol, fit, cfg):
        # reach 0 makes K ~ Binomial(n, 0) = 0 certain; this full draw has no
        # row in the fit's window, and the fit reads no row outside it
        sol = noisy_sol
        full = draw_sample(sol, 101, seed=4)
        assert np.count_nonzero(np.abs(full.z) <= cfg.h + (cfg.r or 0.0)) == 0
        empty = draw_sample(sol, 101, seed=4, reach=0.0)
        assert empty.n == 0
        outcome = _fit_outcome(fit, empty, cfg)
        assert isinstance(outcome, tuple)  # the fit raised
        assert outcome == _fit_outcome(fit, full, cfg)

    @pytest.mark.parametrize("reach", [-1e-9, float("nan"), float("inf"), "0.1",
                                       [0.1]])
    def test_bad_reach_is_refused_before_drawing(self, noiseless_sol, reach,
                                                 monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before checking the reach")

        monkeypatch.setattr(sampling, "substream", no_draw)
        with pytest.raises(ConfigError, match="reach"):
            draw_sample(noiseless_sol, 10, seed=1, reach=reach)

    def test_zero_reach_is_valid(self, noiseless_sol):
        assert draw_sample(noiseless_sol, 10, seed=1, reach=0.0).n == 0


class TestSubstreams:
    def test_order_independent(self):
        a = substream(0, 3, 1).uniform(size=4)
        _ = substream(0, 9, 9).uniform(size=4)
        b = substream(0, 3, 1).uniform(size=4)
        assert np.array_equal(a, b)

    def test_paths_distinct(self):
        a = substream(0, 3, 1).uniform(size=4)
        b = substream(0, 3, 2).uniform(size=4)
        c = substream(0).uniform(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCsv:
    def test_roundtrip(self, noiseless_sol, tmp_path):
        s = draw_sample(noiseless_sol, 50, seed=21)
        path = tmp_path / "sample.csv"
        _write_csv(s, path)
        z, y = parse_sample_csv(path)
        np.testing.assert_array_equal(z, s.z)
        np.testing.assert_array_equal(y, s.y)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n0.0,1.0\n")
        with pytest.raises(DataError, match="header"):
            parse_sample_csv(p)

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("z,y\n0.0,1.0\n0.5,oops\n")
        with pytest.raises(DataError, match="row 3, column y"):
            parse_sample_csv(p)

    def test_out_of_range_z(self, tmp_path):
        # the reader reads numbers; Sample, and the CLI by row, refuse the range
        p = tmp_path / "bad.csv"
        p.write_text("z,y\n1.5,1.0\n")
        z, y = parse_sample_csv(p)
        assert z.tolist() == [1.5] and y.tolist() == [1.0]
        with pytest.raises(ConfigError, match=r"\[-1, 1\]"):
            Sample(z=z, y=y)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("z,y\n0.1,2.0,3.0\n")
        with pytest.raises(DataError, match="row 2"):
            parse_sample_csv(p)

    def test_empty_and_headless(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            parse_sample_csv(p)
        p.write_text("z,y\n")
        with pytest.raises(DataError, match="no data rows"):
            parse_sample_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            parse_sample_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("bad, message", [
        ("0.5,oops", "row 100000, column y: not a number: 'oops'"),
        ("nan,1.0", "row 100000, column z: non-finite value"),
        ("0.5,1e999", "row 100000, column y: non-finite value"),
        ("0.5,1.0,2.0", "row 100000: expected 2 fields, got 3"),
    ])
    def test_bad_cell_past_the_first_chunk_reports_its_row(self, tmp_path, bad,
                                                           message):
        before = "z,y\n" + (GOOD_LINE + "\n") * 99_998
        assert len(before) > sampling.CHUNK_BYTES
        p = tmp_path / "late.csv"
        p.write_text(before + bad + "\n" + (GOOD_LINE + "\n") * 10)
        with pytest.raises(DataError, match=message):
            parse_sample_csv(p)

    def test_out_of_range_z_is_kept_without_the_range_check(self, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("z,y\n" + (GOOD_LINE + "\n") * 99_998 + "-1.5,1.0\n")
        z, y = parse_sample_csv(p)
        assert z.size == 99_999 and z[-1] == -1.5 and y[-1] == 1.0

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_lines_are_not_counted(self, tmp_path, newline):
        # row numbers count the header and the non-blank data lines only
        lines = ["", "z,y", ""]
        for i in range(99_998):
            lines.append(GOOD_LINE)
            if i % 1000 == 0:
                lines.extend(["", "   "])
        lines.append("0.5,oops")
        p = tmp_path / "blank.csv"
        p.write_bytes(newline.join(lines).encode("utf-8"))
        with pytest.raises(DataError, match="row 100000, column y"):
            parse_sample_csv(p)
        p.write_bytes(newline.join(lines[:-1]).encode("utf-8"))
        z, y = parse_sample_csv(p)
        assert z.size == 99_998
        assert z[0] == float(GOOD_LINE.split(",")[0])
        assert y[-1] == float(GOOD_LINE.split(",")[1])

    def test_cells_follow_python_float(self, tmp_path):
        p = tmp_path / "float.csv"
        p.write_text("z,y\n 0.25 ,1_000\n-1,-0\n1.0,2e-3\n")
        z, y = parse_sample_csv(p)
        assert z.tolist() == [0.25, -1.0, 1.0]
        assert y.tolist() == [1000.0, -0.0, 0.002]

    def test_parse_memory_stays_bounded(self, tmp_path):
        # peak Python and numpy allocations for a 2e5-row file with each
        # line end; holding the whole file as strings took about 35 MB. A
        # file with lone-\r line ends holds no \n, so it must be cut at \r
        rng = np.random.default_rng(5)
        p = tmp_path / "big.csv"
        _write_csv(Sample(z=rng.uniform(-1.0, 1.0, 200_000),
                          y=rng.normal(0.0, 3.0, 200_000)), p)
        lf = p.read_bytes()
        for newline in (b"\n", b"\r\n", b"\r"):
            p.write_bytes(lf.replace(b"\n", newline))
            tracemalloc.start()
            try:
                z, _ = parse_sample_csv(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert z.size == 200_000
            assert peak < 20e6, f"{newline!r}: peak {peak / 1e6:.1f} MB"

    def test_rows_past_the_size_estimate_are_kept(self, tmp_path):
        # the long lines of the first piece size the arrays for a fraction
        # of the short lines that follow, so the arrays grow, more than once
        z0, y0 = (float(cell) for cell in GOOD_LINE.split(","))
        p = tmp_path / "short_tail.csv"
        p.write_text("z,y\n" + (GOOD_LINE + "\n") * 3_000 + "0.5,1\n" * 60_000)
        z, y = parse_sample_csv(p)
        assert z.tolist() == [z0] * 3_000 + [0.5] * 60_000
        assert y.tolist() == [y0] * 3_000 + [1.0] * 60_000

    def test_non_utf8_byte_fails_its_cell(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"z,y\n0.5,1.0\n\n  \n0.2,1.\xe95\n0.1,1.0\n")
        with pytest.raises(DataError, match=r"latin1\.csv: row 3, column y: "
                                            r"not a number: '1\.\\udce95'$"):
            parse_sample_csv(p)

    def test_non_utf8_byte_after_a_bad_cell_is_not_what_is_reported(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"z,y\n0.5,1.0\n0.2,x\n0.1,\xff\n")
        with pytest.raises(DataError, match=r"row 3, column y: not a number: 'x'$"):
            parse_sample_csv(p)

    def test_non_utf8_header(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"z,\xffy\n0.5,1.0\n")
        with pytest.raises(DataError, match=r"expected header 'z,y', got 'z,\\udcffy'$"):
            parse_sample_csv(p)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_reads_as_a_file_does(self, tmp_path):
        # a pipe is read in the same pieces as a file: the fast parse reads
        # every piece, a CRLF line end included, but one whose space sends
        # it alone to the reference parse
        for last_line, handed_over in (("0.125,2\r\n", False), ("0.125, 2\n", True)):
            content = ("z,y\n" + (GOOD_LINE + "\n") * 5_000 + last_line).encode("utf-8")
            fifo = tmp_path / "pipe.csv"
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_bytes, args=(content,))
            writer.start()
            try:
                piped = _probed(fifo)
            finally:
                writer.join()
                fifo.unlink()
            p = tmp_path / "file.csv"
            p.write_bytes(content)
            assert piped == _probed(p)
            if handed_over:
                [(first, last)] = piped[1]
                assert 2 < first and last == 5_002
            else:
                assert piped[1] == []


Z_EDGES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.0, -1.0]
Y_EDGES = Z_EDGES + [1e300, np.nan, np.inf]


def _edge_sample(n_rows: int) -> Sample:
    rng = np.random.default_rng(n_rows)
    z, y = rng.uniform(-1.0, 1.0, n_rows), rng.normal(0.0, 1e3, n_rows)
    z[:len(Z_EDGES)] = Z_EDGES[:n_rows]
    y[:len(Y_EDGES)] = Y_EDGES[:n_rows]
    return Sample(z=z, y=y)


class _Discard:
    def write(self, text):
        return len(text)


class TestToCsv:
    """The writer: the bytes of np.savetxt, lossless %.17g, bounded memory."""

    @pytest.mark.parametrize("n_rows", [0, 1, sampling.ROWS_PER_WRITE - 1,
                                        sampling.ROWS_PER_WRITE,
                                        sampling.ROWS_PER_WRITE + 1, 20_000])
    def test_bytes_equal_savetxt(self, tmp_path, n_rows):
        sample = _edge_sample(n_rows)
        expected = io.StringIO()
        np.savetxt(expected, np.column_stack((sample.z, sample.y)), delimiter=",",
                   header="z,y", comments="", fmt="%.17g")
        buf = io.StringIO()
        sample.to_csv(buf)
        assert buf.getvalue() == expected.getvalue()
        _write_csv(sample, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode("utf-8")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=40))
    def test_sample_round_trip_is_bit_exact(self, rows):
        z, y = (np.array(col, dtype=np.float64) for col in zip(*rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            _write_csv(Sample(z=z, y=y), path)
            z_back, y_back = parse_sample_csv(path)
        assert z_back.tobytes() == z.tobytes() and y_back.tobytes() == y.tobytes()

    def test_peak_memory_is_one_block(self):
        # one % over all 200 000 rows would peak near 28 MB, and a stacked
        # copy of the table at 3.2 MB
        sample = _edge_sample(200_000)
        tracemalloc.start()
        try:
            sample.to_csv(_Discard())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _outcome(path):
    """The column bits parse_sample_csv gives, or its DataError message."""
    try:
        z, y = parse_sample_csv(path)
    except DataError as err:
        return str(err)
    return z.tobytes(), y.tobytes()


def _outcomes(path, monkeypatch):
    """The outcome as the platform allows, then with the fast parse off."""
    fast = _outcome(path)
    with monkeypatch.context() as patch:
        patch.setattr(sampling, "LONGDOUBLE_EXACT", False)
        patch.setattr(sampling, "_decimal_fields", None)  # never reached when off
        reference = _outcome(path)
    return fast, reference


def _probed(path):
    """The outcome, and the data rows of each piece the reference parse
    read, as (first, last) pairs in file order: [] where the fast parse
    read every data row."""
    spans = []
    parse_rows = sampling._parse_rows

    def probe(*args):  # (path, lines, first_row, ...)
        lines, first_row = args[1:3]
        spans.append((first_row, first_row + len(lines) - 1))
        return parse_rows(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_parse_rows", probe)
        return _outcome(path), spans


def _parsed_bits(texts: list, tmp: Path) -> np.ndarray:
    """The bits the fast parse gives `texts`, read as y cells."""
    path = tmp / "cells.csv"
    path.write_text("z,y\n" + "".join(f"0,{t}\n" for t in texts))
    (_, y), spans = _probed(path)
    assert spans == [], "the fast parse declined"
    return np.frombuffer(y, np.uint64)


def _layout(content: bytes, spans: list, tag: str):
    """A test_file_layout case, with the id it has always had: the content,
    then a tag that only names the case (the row where a parser that gave
    the rest of the file to the reference parse at its first decline made
    that switch)."""
    return pytest.param(content, spans, id=f"{content.decode('latin-1')}-{tag}")


def _float_bits(texts: list) -> np.ndarray:
    return np.array([float(t) for t in texts]).view(np.uint64)


# (spelling, whether the fast parse reads it itself); every other spelling
# goes to the reference parse, which must then give the same outcome
SPELLINGS = [
    ("-", False), (".", False), ("-.", False), ("", False), ("--5", False),
    ("5-", False), ("1.2.3", False), ("+", False), ("1e", False), ("e5", False),
    ("+.5", False), ("5.", True), (".5", True), ("-0", True), ("0005.500", True),
    ("1_000", False), (" 0.25 ", False), ("1e-05", True), ("1e+5", True),
    ("1E5", True), ("-1.5e-3", True), ("5.e3", True), (".5E-3", True),
    ("-0e0", True), ("1e-400", True), ("-1e-99999999999999999999", True),
    ("1e+-5", False), ("1e5.0", False), ("1e5e5", False), ("1+5", False),
    ("+1e5", False), ("1e-", False), (".e5", False),
    ("nan", False), ("inf", False), ("1e999", False), ("\uff11", False),
    ("1234567890123456789", True), ("-12345678901234567890", True),
    ("99999999999999999999", True), ("0." + "3" * 28, True),
    ("-0." + "0" * 27 + "1", True), ("0." + "0" * 40, True),
    ("0.5\x0c", False), ("\x851", False), ("1\u20282", False),
]

# (content, the rows parse_sample_csv gives or its DataError message after
# the path): only \n, \r\n and a lone \r end a line, as in text mode. The
# other line breaks of str.splitlines (\x0c, \x1c-\x1e, \x85, \u2028,
# \u2029) are whitespace inside a line.
LINE_ENDS = [
    ("z,y\n0.5\x0c,1\n-0.5,2\n", [(0.5, 1.0), (-0.5, 2.0)]),
    ("z,y\n0.5,\x0c1\x0c\n", [(0.5, 1.0)]),
    ("z,y\n0.5,1\x852\n", "row 2, column y: not a number: '1\\x852'"),
    ("z,y\n0.5,\x85\n", "row 2, column y: not a number: '\\x85'"),
    ("z,y\n\x85-0.5,2\x85\n", [(-0.5, 2.0)]),
    ("z,y\n0.5,1\u20282\n", "row 2, column y: not a number: '1\\u20282'"),
    ("z,y\n0.5,\u2028\n", "row 2, column y: not a number: '\\u2028'"),
    ("z,y\n\u2028\n0.5,1\n\u2029\n\x0c\n\x1c\x1d\x1e\n\x85\n-0.5,2\n",
     [(0.5, 1.0), (-0.5, 2.0)]),
    ("z,y\x1c\n0.5,1\n", [(0.5, 1.0)]),
    ("z,y\r0.5,1.0\r-0.25,2\r", [(0.5, 1.0), (-0.25, 2.0)]),
    ("z,y\r0.5,1.0\r\r-0.25,2", [(0.5, 1.0), (-0.25, 2.0)]),
    ("z,y\r0.5,1.0\r0.5,x\r", "row 3, column y: not a number: 'x'"),
    ("z,y\n0.5\r,1\n", "row 2: expected 2 fields, got 1"),
    ("z,y\n0.5,1\r\n\r-0.5,2\n", [(0.5, 1.0), (-0.5, 2.0)]),
]


class TestFastParse:
    """The byte-level decimal parse against float() and the reference parse."""

    @pytest.mark.parametrize("text, fast_reads", SPELLINGS)
    def test_spelling_in_row_2(self, tmp_path, monkeypatch, text, fast_reads):
        p = tmp_path / "cell.csv"
        p.write_bytes(f"z,y\n0.5,{text}\n-0.5,1.0\n".encode("utf-8"))
        fast, reference = _outcomes(p, monkeypatch)
        assert fast == reference
        assert (_probed(p)[1] == []) == fast_reads

    @pytest.mark.parametrize("text, fast_reads", SPELLINGS)
    def test_spelling_as_z_past_the_first_chunk(self, tmp_path, monkeypatch, text,
                                               fast_reads):
        before = "z,y\n" + (GOOD_LINE + "\n") * 5_000
        assert len(before) > 2 * sampling.CHUNK_BYTES
        p = tmp_path / "late.csv"
        p.write_bytes((before + f"{text},1.0\n" + (GOOD_LINE + "\n") * 10).encode("utf-8"))
        fast, reference = _outcomes(p, monkeypatch)
        assert fast == reference
        # a late decline sends only its own piece to the reference parse
        spans = _probed(p)[1]
        if fast_reads:
            assert spans == []
        else:
            [(first, last)] = spans
            assert 2 < first <= 5_002 <= last

    # (content, the data rows of each piece the reference parse read, as
    # (first, last) pairs); a piece holding the header always goes to the
    # reference parse, and CRLF or lone-CR line ends read as \n does
    @pytest.mark.parametrize("content, spans", [
        _layout(b"z,y\n0.5,1.0\n-0.25,3", [], "None"),  # no final newline
        _layout(b"z,y\n", [], "None"),  # no data rows
        _layout(b"z,y\n\n0.5,1.0\n\n\n-0.5,2.0\n\n", [(2, 3)], "2"),
        _layout(b"z,y\n\n\n", [], "2"),
        _layout(b"\nz,y\n0.5,1.0\n", [(2, 2)], "1"),
        _layout(b"z,y\n0.5,1.0\n   \n", [(2, 2)], "2"),
        _layout(b"z,y\r\n0.5,1.0\r\n-0.5,2.0\r\n", [], "1"),
        _layout(b"z,y\r0.5,1.0\r", [], "1"),
        _layout(b" z , y\n0.5,1.0\n", [], "1"),
        _layout("\ufeffz,y\n0.5,1.0\n".encode("utf-8"), [], "1"),
        _layout(b"z,y", [], "1"),
        _layout(b"", [], "1"),
        _layout(b"z,y\n0.5,1.0,2.0\n", [(2, 2)], "2"),
        _layout(b"z,y\n0.5\n", [(2, 2)], "2"),
        _layout(b"z,y\n0.5,1.0\n0.2,\xff\n", [(2, 3)], "2"),
        _layout(b"z,y\n1.5,1.0\n", [], "2"),  # the range is the caller's to check
    ])
    def test_file_layout(self, tmp_path, monkeypatch, content, spans):
        p = tmp_path / "layout.csv"
        p.write_bytes(content)
        fast, reference = _outcomes(p, monkeypatch)
        assert fast == reference
        assert _probed(p)[1] == spans

    @pytest.mark.parametrize("late", ["", "   ", "0.5;1.0", "0.5,1.0\r"])
    def test_a_late_piece_hands_over_with_its_rows_kept(self, tmp_path, monkeypatch,
                                                        late):
        # only the piece holding the late line goes to the reference parse,
        # which keeps counting rows; the pieces after it are read fast. A
        # CRLF line end is read fast too
        lines = [GOOD_LINE] * 5_000 + [late] + ["-0.25,2.5"] * 10_000
        p = tmp_path / "late.csv"
        p.write_bytes(("z,y\n" + "\n".join(lines) + "\n").encode("utf-8"))
        spans = _probed(p)[1]
        if late.endswith("\r"):
            assert spans == []
        else:
            [(first, last)] = spans
            assert 2 < first <= 5_002 <= last < 15_000
        fast, reference = _outcomes(p, monkeypatch)
        assert fast == reference

    def test_an_early_blank_line_sends_one_piece_to_the_reference_parse(
            self, tmp_path, monkeypatch):
        rng = np.random.default_rng(23)
        p = tmp_path / "blank.csv"
        _write_csv(Sample(z=rng.uniform(-1.0, 1.0, 200_000),
                          y=rng.normal(0.0, 3.0, 200_000)), p)
        lines = p.read_bytes().split(b"\n")
        p.write_bytes(b"\n".join(lines[:20] + [b""] + lines[20:]))
        outcome, spans = _probed(p)
        [(first, last)] = spans
        assert first == 2 and last < 200_001
        assert outcome == _outcomes(p, monkeypatch)[1]

    def test_crlf_and_cr_copies_read_fast_after_the_header(self, tmp_path):
        # the header's piece ends at its own line end, of any kind, so no
        # data row goes to the reference parse with it
        rng = np.random.default_rng(24)
        p = tmp_path / "lf.csv"
        _write_csv(Sample(z=rng.uniform(-1.0, 1.0, 20_000),
                          y=rng.normal(0.0, 3.0, 20_000)), p)
        lf = p.read_bytes()
        assert len(lf) > 8 * sampling.CHUNK_BYTES
        outcome, spans = _probed(p)
        assert spans == []
        for newline in (b"\r\n", b"\r"):
            p.write_bytes(lf.replace(b"\n", newline))
            got, spans = _probed(p)
            assert got == outcome
            assert spans == []

    @pytest.mark.parametrize("content, expected", LINE_ENDS)
    def test_only_lf_crlf_and_a_lone_cr_end_a_line(self, tmp_path, monkeypatch, content,
                                                   expected):
        p = tmp_path / "ends.csv"
        p.write_bytes(content.encode("utf-8"))
        if isinstance(expected, str):
            expected = f"{p}: {expected}"
        else:
            expected = tuple(column.tobytes() for column in np.array(expected).T)
        assert _outcomes(p, monkeypatch) == (expected, expected)

    def test_numpy_integer_reader_traps(self):
        # why _decimal_fields counts each field's digits and caps m below
        # 10**18: numpy's reader takes a bare '-' as 0, and clamps an
        # overflowing field to 2**63 - 1 without an error
        assert np.fromstring(b"1,-,2", dtype=np.int64, sep=",").tolist() == [1, 0, 2]
        assert np.fromstring(b"99999999999999999999", dtype=np.int64,
                             sep=",").tolist() == [2**63 - 1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, np.uint64).view(np.float64))).filter(math.isfinite),
        min_size=1, max_size=40))
    def test_finite_bit_patterns_read_as_float_reads_them(self, values):
        texts = [repr(v) for v in values] + ["%.17g" % v for v in values]
        with tempfile.TemporaryDirectory() as tmp:
            got = _parsed_bits(texts, Path(tmp))
        np.testing.assert_array_equal(got, _float_bits(texts))

    def test_decimal_midpoints_read_as_float_reads_them(self, tmp_path):
        # exact midpoints between adjacent doubles, and the 17- and 18-digit
        # decimals just below and above them: the cells where one rounding
        # in 64 bits then one in 53 could differ from float()'s one rounding
        rng = np.random.default_rng(20)
        doubles = rng.uniform(1.0, 10.0, 3000) * 10.0 ** rng.integers(-9, 30, 3000)
        texts = [str(2**53 + 1), str(2**54 + 2), str(3 * 2**53 + 3)]
        with decimal.localcontext() as ctx:
            ctx.prec = 1000
            for v in doubles:
                low = decimal.Decimal(float(v))
                mid = (low + decimal.Decimal(math.nextafter(float(v), math.inf))) / 2
                texts.append(format(mid, "f"))
                sign, digits, exponent = mid.as_tuple()
                for keep in (17, 18):
                    cut = decimal.Decimal((sign, digits[:keep], exponent + len(digits) - keep))
                    last_digit = decimal.Decimal((0, (1,), cut.as_tuple().exponent))
                    for neighbour in (cut, cut + last_digit):
                        texts += [format(neighbour, "f"), format(neighbour, "e")]
        np.testing.assert_array_equal(_parsed_bits(texts, tmp_path), _float_bits(texts))

    @pytest.mark.parametrize("fmt", ["%.17g", "%.20g", "%.6f", "%.25f", "%.16e"])
    def test_formats_over_many_magnitudes(self, tmp_path, fmt):
        rng = np.random.default_rng(21)
        values = rng.uniform(-10.0, 10.0, 5000) * 10.0 ** rng.integers(-25, 25, 5000)
        texts = [fmt % v for v in values]
        np.testing.assert_array_equal(_parsed_bits(texts, tmp_path), _float_bits(texts))

    def test_the_fast_parse_turned_off_gives_the_same_bits(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(22)
        p = tmp_path / "sample.csv"
        _write_csv(Sample(z=rng.uniform(-1.0, 1.0, 30_000),
                          y=rng.normal(0.0, 1e-4, 30_000)), p)
        assert _probed(p)[1] == []
        fast, reference = _outcomes(p, monkeypatch)
        assert fast == reference


class TestSampleType:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Sample(z=np.zeros(3), y=np.zeros(4))

    def test_range_enforced(self):
        with pytest.raises(ConfigError):
            Sample(z=np.array([0.0, 1.2]), y=np.zeros(2))
        with pytest.raises(ConfigError):
            Sample(z=np.array([0.0, np.nan]), y=np.zeros(2))

    def test_read_only(self, noiseless_sol):
        s = draw_sample(noiseless_sol, 5, seed=1)
        with pytest.raises(ValueError):
            s.z[0] = 0.0


def _traced_peak(fn, *args) -> int:
    """Peak bytes of Python and numpy allocations while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAnalyzeMemory:
    """The analyze path holds its n rows once: the parse writes them
    straight into their arrays, and no later step builds a temporary as
    long as the sample. The file is that of test_parse_memory_stays_bounded;
    its data are 16 bytes per row, 3.2 MB."""

    ROWS = 200_000
    CFG = EstimatorConfig(kernel="triangular", h=0.15, r=0.075)  # the benchmark's

    @pytest.fixture(scope="class")
    def big_csv(self, tmp_path_factory):
        rng = np.random.default_rng(5)
        p = tmp_path_factory.mktemp("analyze") / "big.csv"
        _write_csv(Sample(z=rng.uniform(-1.0, 1.0, self.ROWS),
                          y=rng.normal(0.0, 3.0, self.ROWS)), p)
        return p

    def test_parse_holds_its_rows_about_once(self, big_csv):
        peak = _traced_peak(parse_sample_csv, big_csv)
        assert peak <= 1.25 * 16 * self.ROWS + 0.5e6, f"peak {peak / 1e6:.2f} MB"

    def test_sample_allocates_nothing_per_row(self, big_csv):
        z, y = parse_sample_csv(big_csv)
        assert _traced_peak(Sample, z, y) < 0.1e6

    @pytest.mark.parametrize("fit, bound", [(local_linear_rdd, 1.75e6),
                                            (local_spillover_regression, 4.5e6)],
                             ids=["local_linear", "spillover"])
    def test_fit_peak_scales_with_its_window(self, big_csv, fit, bound):
        sample = Sample(*parse_sample_csv(big_csv))
        peak = _traced_peak(fit, sample, self.CFG)
        assert peak <= bound, f"peak {peak / 1e6:.2f} MB"
