"""Observational samples drawn from a solved population.

Z is uniform on [-1, 1]; outcomes are the interpolated fixed point plus
Gaussian noise with standard deviation sigma(Z) from the model. Only the
first two conditional moments of the noise are structural, Gaussian is a
documented choice of convenience.

Randomness comes from the counter-based Philox generator. Substreams are
derived with SeedSequence spawn keys, so a replication's draws depend only on
(master seed, substream path), never on execution order.
"""
from __future__ import annotations

import contextlib
import math
import numbers
import operator
import os
import stat
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ConfigError, DataError
from .funcspace import eval_func
from .population import PopulationSolution

CHUNK_BYTES = 1 << 16  # bytes read and converted at a time by parse_sample_csv
# Rows formatted per write by Sample.to_csv: large enough that the per-call
# cost vanishes, small enough that one block's Python floats stay well under
# a megabyte.
ROWS_PER_WRITE = 1024

# The fast parse needs a long double with a 64-bit significand or wider
# and a binary exponent of its own: x87 extended (x86-64 Linux, 63
# fraction bits) or quad (aarch64 Linux, 112), not double-double. This is
# a platform fact, not an option; elsewhere every file takes the reference
# parse.
LONGDOUBLE_EXACT = (np.finfo(np.longdouble).nmant >= 63
                    and np.finfo(np.longdouble).nexp >= 15)
_MAX_FRAC = 27  # 10**27 = 2**27 * 5**27 is exact in 64 bits
_POW10 = np.cumprod(np.r_[1, np.full(_MAX_FRAC, 10)].astype(np.longdouble))
_COMMA, _NEWLINE, _MINUS, _PLUS, _DOT, _LOWER_E = b",\n-+.e"
_TO_COMMA = bytes.maketrans(b"\neE", b",,,")  # with '.', '+' and '-' deleted


@dataclass(frozen=True)
class Sample:
    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.z.shape != self.y.shape or self.z.ndim != 1:
            raise ConfigError("z and y must be 1-d arrays of equal length")
        # min and max, not abs: no temporary as long as the sample; NaN fails too
        if self.z.size and not (self.z.min() >= -1.0 and self.z.max() <= 1.0):
            raise ConfigError("running variable values must lie in [-1, 1]")
        self.z.flags.writeable = False
        self.y.flags.writeable = False

    @property
    def n(self) -> int:
        return self.z.size

    def to_csv(self, fh) -> None:
        """Write the rows as `z,y` CSV to the text buffer fh.

        The bytes are those of np.savetxt(..., delimiter=",", comments="",
        fmt="%.17g"): '%.17g' formats a float64 and its Python float alike,
        so each block of ROWS_PER_WRITE rows is one % over one format string.
        """
        fh.write("z,y\n")
        for start in range(0, self.n, ROWS_PER_WRITE):
            block = np.column_stack((self.z[start:start + ROWS_PER_WRITE],
                                     self.y[start:start + ROWS_PER_WRITE]))
            fh.write("%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for one substream of a master seed.

    The path identifies the consumer (for example grid cell and replication
    index); distinct paths give statistically independent streams regardless
    of the order they are created in.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def draw_sample(sol: PopulationSolution, n: int, seed: int,
                reach: float | None = None) -> Sample:
    """n i.i.d. observations (Z_i, Y_i) from the solved population, with
    the noise scale of the model it was solved for.

    With reach < 1, only the window |Z| <= reach of an n-row draw is drawn,
    by binomial thinning: Z is uniform on [-1, 1], so the window holds
    K ~ Binomial(n, reach) rows, uniform on [-reach, reach). The rows have
    the law of the full draw's window, not its bits, and the cost scales
    with the window. With reach None or >= 1 all n rows are drawn, the same
    rows either way.
    """
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    if reach is not None and not (isinstance(reach, numbers.Real) and 0.0 <= reach < math.inf):
        raise ConfigError(f"reach must be None or a finite number >= 0, got {reach!r}")
    rng = substream(seed)
    p = 1.0 if reach is None else min(reach, 1.0)
    k = n if p == 1.0 else int(rng.binomial(n, p))
    z = rng.uniform(-p, p, size=k)
    noise = rng.standard_normal(k)
    sigma = np.asarray(eval_func(sol.model.noise_sd, z))
    return Sample(z=z, y=sol.interp(z) + sigma * noise)


def parse_sample_csv(path):
    r"""Read `z,y` CSV data into raw arrays, reporting the first malformed
    cell by row and column.

    Every cell reads as Python float() reads it, bit for bit, and must be
    finite; the range of the values is the caller's to check. Blank lines
    are skipped and not counted: row 1 is the header, row 2 the first data
    row. Lines end at `\n`, `\r\n` or a lone `\r`, as in text mode. A byte
    that is not UTF-8 fails its cell, or the header, as any other text that
    is not a number does.

    The file is read in pieces of about CHUNK_BYTES, each ending a line
    (_newline_chunks), whose `\r\n` and lone `\r` become `\n` first. After
    the header, a piece that holds only pairs of plain or e-notation
    decimals (`-0.125`, `5.`, `.5`, `1e-05`) is read from its bytes by
    whole-array steps; see _decimal_fields. Any other piece, or one holding
    a cell the fast parse cannot settle (one float() refuses, or a
    non-finite value), goes alone to the reference parse: its text is
    converted in one call with Python float semantics, and rescanned row
    by row for the exact message if it fails a check. The next piece tries
    the fast parse again. Blank lines, spaces, underscores, a leading '+',
    'nan' and 'inf' all take the reference parse this way.

    Each piece's fields go straight into two output arrays, resized in place
    (a realloc, so no second copy is held). A regular file's are sized from
    its length at the bytes per row read so far, with 1/16 to spare; a
    pipe's, or an estimate that falls short, grow geometrically. The arrays
    are trimmed to the rows read.
    """
    z, y = np.empty(0), np.empty(0)  # rows 2 .. row - 1 are z[:row - 2], y[:row - 2]
    row, n_bytes = 1, 0
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            size = info.st_size if stat.S_ISREG(info.st_mode) else None
            for piece in _newline_chunks(fh):
                n_bytes += len(piece)
                if b"\r" in piece:  # text mode's line ends: \r\n, then a lone \r
                    piece = piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                values = _decimal_fields(piece) if row > 1 and LONGDOUBLE_EXACT else None
                if values is None:
                    lines = list(filter(str.strip, piece.decode(
                        "utf-8", "surrogateescape").split("\n")))
                    if row == 1 and lines:
                        header = lines.pop(0)
                        if [h.strip() for h in header.split(",")] != ["z", "y"]:
                            raise DataError(f"{path}: expected header 'z,y', got {header!r}")
                        row = 2
                    if not lines:
                        continue
                    values = _parse_rows(path, lines, row)
                start, row = row - 2, row + values.size // 2
                if row - 2 > z.size:
                    want = (row - 2) * size // n_bytes if size else 2 * (row - 2)
                    rows = max(want + want // 16, z.size + z.size // 4, row - 2)
                    z.resize(rows, refcheck=False)
                    y.resize(rows, refcheck=False)
                z[start:row - 2], y[start:row - 2] = values.reshape(-1, 2).T
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if row == 1:
        raise DataError(f"{path}: empty file")
    if row == 2:
        raise DataError(f"{path}: no data rows")
    z.resize(row - 2, refcheck=False)
    y.resize(row - 2, refcheck=False)
    return z, y


def _newline_chunks(fh):
    r"""Binary file fh in pieces that each end a line: the first line alone,
    up to its own `\n`, `\r\n` or lone `\r` (when that lies in the first
    CHUNK_BYTES), then about CHUNK_BYTES at a time, cut after a read's last
    `\n` or, in a read without one, after its last `\r` but the read's last
    byte, so a `\r\n` is never split. The last piece gets a `\n` if the
    file lacks one."""
    first = fh.read(CHUNK_BYTES)
    end = min((i for i in (first.find(b"\n"), first.find(b"\r", 0, -1)) if i >= 0), default=-1) + 1
    end += first[end - 1:end + 1] == b"\r\n"
    yield first[:end]  # empty when no line ends in the first read
    tail = b""
    for data in chain([first[end:]], iter(lambda: fh.read(CHUNK_BYTES), b"")):
        cut = data.rfind(b"\n") + 1 or data.rfind(b"\r", 0, -1) + 1
        if cut:
            yield tail + data[:cut]
            tail = data[cut:]
        else:
            tail += data
    if tail:
        yield tail + b"\n"


def _decimal_fields(chunk: bytes):
    """The fields of whole `a,b\n` lines as float64, in file order, with the
    bits of float(); None where the reference parse must decide.

    A field is an optional `-`, digits with at most one dot and at least
    one digit, then optionally `e` or `E`, an optional sign and at least
    one digit. Its mantissa's digits form an integer m; with d digits after
    the dot and exponent x, its value is m / 10**k for k = d - x. For
    m < 10**18 and |k| <= 27 both operands are exact in a 64-bit
    significand (5**27 < 2**64), so the np.longdouble division (a product
    for k < 0) rounds once (Clinger, PLDI 1990). Rounding that to 53 bits
    gives float()'s double unless the 64-bit result is itself a midpoint
    between two doubles (about 1 field in 2048); those fields and the
    longer or larger ones go to float(). The sign is applied last, so `-0`
    stays -0.0.
    """
    odd = chunk.translate(None, b"0123456789.,\n-")
    if odd.translate(None, b"eE+"):
        return None
    arr = np.frombuffer(chunk, np.uint8)
    seps = np.flatnonzero(arr <= _COMMA)  # every ',' and '\n', and any '+'
    if b"+" in odd:
        seps = seps[arr[seps] != _PLUS]
    kinds = arr[seps]
    # comma, newline, comma, ...: two fields on every line, no blank line
    if not ((kinds[0::2] == _COMMA).all() and (kinds[1::2] == _NEWLINE).all()):
        return None
    starts = np.r_[0, seps[:-1] + 1]
    neg = arr[starts] == _MINUS
    ends = seps.copy()  # of each mantissa
    n_signs = np.count_nonzero(neg)
    if odd:
        marks = np.flatnonzero((arr | 0x20) == _LOWER_E)  # every 'e' and 'E'
        e_field = np.searchsorted(seps, marks)
        if (np.diff(e_field) <= 0).any():
            return None  # two exponents in one field
        ends[e_field] = marks
        exp_sign = arr[marks + 1]
        exp_neg = exp_sign == _MINUS
        exp_plus = exp_sign == _PLUS
        if (seps[e_field] - marks - 1 - (exp_neg | exp_plus) < 1).any():
            return None  # an exponent without a digit
        if odd.count(b"+") != np.count_nonzero(exp_plus):
            return None  # a '+' that does not sign an exponent
        n_signs += np.count_nonzero(exp_neg)
    if chunk.count(b"-") != n_signs:
        return None  # a '-' that signs neither a field nor its exponent
    dots = np.flatnonzero(arr == _DOT)
    dot_field = np.searchsorted(seps, dots)
    if (np.diff(dot_field) <= 0).any() or (dots > ends[dot_field]).any():
        return None  # two dots in one field, or one in an exponent
    k = np.zeros(seps.size, np.intp)
    k[dot_field] = ends[dot_field] - dots - 1
    n_digits = ends - starts - neg
    n_digits[dot_field] -= 1
    if (n_digits < 1).any():
        return None  # float() refuses '-' and '.'; numpy reads a bare '-' as 0
    # numpy clamps an overflowing field to 2**63 - 1, which m >= 10**18 catches
    m = np.fromstring(chunk.translate(_TO_COMMA, b".+-"), dtype=np.int64, sep=",")
    if odd:
        at = e_field + np.arange(1, e_field.size + 1)  # each exponent follows its m
        exponent = np.minimum(m[at], 999)
        k[e_field] -= np.where(exp_neg, -exponent, exponent)
        m = np.delete(m, at)
    power = _POW10[np.minimum(np.abs(k), _MAX_FRAC)]
    q = m.astype(np.longdouble) / power
    if odd:
        up = np.flatnonzero(k < 0)
        q[up] = m[up].astype(np.longdouble) * power[up]
    values = q.astype(np.float64)
    # q is a midpoint when err is half the gap between its two doubles:
    # ulp/2, or ulp/4 just below a power of two. err is exact with a 64-bit
    # significand; with a wider one its rounding can only add slow fields.
    err = np.abs((q - values).astype(np.float64))
    ulp = np.spacing(values)
    slow = (m >= 10 ** 18) | (np.abs(k) > _MAX_FRAC) | (2 * err == ulp) | (4 * err == ulp)
    np.negative(values, out=values, where=neg)
    for f in np.flatnonzero(slow).tolist():
        try:
            values[f] = float(chunk[starts[f]:seps[f]])
        except ValueError:
            return None
    return values if np.isfinite(values).all() else None


def _parse_rows(path, lines: list, first_row: int) -> np.ndarray:
    """One chunk of non-blank data lines as an (n, 2) array."""
    fields = ",".join(lines).split(",")
    # exactly one comma per line: each line has one and there are no more
    if len(fields) == 2 * len(lines) and all(map(operator.contains, lines, repeat(","))):
        with contextlib.suppress(ValueError):  # a cell np.array refuses
            data = np.array(fields, dtype=float).reshape(-1, 2)
            if np.isfinite(data).all():
                return data
    return _parse_rows_one_by_one(path, lines, first_row)


def _parse_rows_one_by_one(path, lines: list, first_row: int) -> np.ndarray:
    """The row-by-row reference parse; raises at the first bad cell."""
    values = []
    for row_idx, line in enumerate(lines, start=first_row):
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}: row {row_idx}: expected 2 fields, got {len(parts)}")
        for col_name, text in zip(("z", "y"), parts):
            try:
                value = float(text)
            except ValueError:
                raise DataError(
                    f"{path}: row {row_idx}, column {col_name}: not a number: {text!r}"
                ) from None
            if not np.isfinite(value):
                raise DataError(f"{path}: row {row_idx}, column {col_name}: non-finite value")
            values.append(value)
    return np.array(values, dtype=float).reshape(-1, 2)
