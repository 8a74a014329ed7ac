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

import math
import numbers
import operator
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .csvio import write_csv
from .errors import ConfigError, DataError
from .funcspace import ModelSpec, eval_func
from .population import PopulationSolution

CHUNK_BYTES = 1 << 20  # text read and converted at a time by parse_sample_csv


@dataclass(frozen=True)
class Sample:
    z: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.z.shape != self.y.shape or self.z.ndim != 1:
            raise ConfigError("z and y must be 1-d arrays of equal length")
        if not np.all(np.abs(self.z) <= 1.0):  # NaN fails too
            raise ConfigError("running variable values must lie in [-1, 1]")
        self.z.flags.writeable = False
        self.y.flags.writeable = False

    @property
    def n(self) -> int:
        return self.z.size

    def to_csv(self, path_or_buf) -> None:
        write_csv(path_or_buf, "z,y", self.z, self.y)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for one substream of a master seed.

    The path identifies the consumer (for example grid cell and replication
    index); distinct paths give statistically independent streams regardless
    of the order they are created in.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def draw_sample(sol: PopulationSolution, model: ModelSpec, n: int, seed: int,
                reach: float | None = None) -> Sample:
    """n i.i.d. observations (Z_i, Y_i) from the solved population.

    With reach < 1, only the window |Z| <= reach of an n-row draw is drawn,
    by binomial thinning: Z is uniform on [-1, 1], so the window holds
    K ~ Binomial(n, reach) rows, uniform on [-reach, reach). The rows have
    the law of the full draw's window, not its bits, and the cost scales
    with the window. With reach None or >= 1 all n rows are drawn, the same
    rows either way. meta["n"] stays the drawn n.
    """
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    if reach is not None and not (isinstance(reach, numbers.Real) and 0.0 <= reach < math.inf):
        raise ConfigError(f"reach must be None or a finite number >= 0, got {reach!r}")
    if model.content_hash() != sol.model.content_hash():
        raise ConfigError("model does not match the one the population was solved for")
    rng = substream(seed)
    p = 1.0 if reach is None else min(reach, 1.0)
    k = n if p == 1.0 else int(rng.binomial(n, p))
    z = rng.uniform(-p, p, size=k)
    noise = rng.standard_normal(k)
    sigma = np.asarray(eval_func(model.noise_sd, z))
    y = sol.interp(z) + sigma * noise
    meta = {
        "seed": int(seed),
        "n": int(n),
        "reach": None if reach is None else float(reach),
        "model_hash": model.content_hash(),
        "r": float(sol.r),
        "grid_n": int(len(sol.grid)),
    }
    return Sample(z=z, y=y, meta=meta)


def parse_sample_csv(path, require_unit_range: bool = True):
    """Read `z,y` CSV data into raw arrays, reporting the first malformed
    cell by row and column.

    Blank lines are skipped and not counted: row 1 is the header, row 2 the
    first data row. The file is read in chunks of about CHUNK_BYTES, each
    converted in one call with Python float semantics; a chunk that fails a
    check is rescanned row by row for the exact message.

    require_unit_range=False skips the per-row z in [-1, 1] check; the CLI
    uses this to ingest raw data it is about to rescale.
    """
    header = None
    first_row = 2
    blocks = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for chunk in iter(lambda: fh.readlines(CHUNK_BYTES), []):
                lines = [ln for ln in chunk if not ln.isspace()]
                if header is None and lines:
                    header = lines.pop(0).rstrip("\n")
                    if [h.strip() for h in header.split(",")] != ["z", "y"]:
                        raise DataError(f"{path}: expected header 'z,y', got {header!r}")
                if lines:
                    blocks.append(_parse_rows(path, lines, first_row, require_unit_range))
                    first_row += len(lines)
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    if not blocks:
        raise DataError(f"{path}: no data rows")
    return (np.concatenate([b[:, 0] for b in blocks]),
            np.concatenate([b[:, 1] for b in blocks]))


def _parse_rows(path, lines: list, first_row: int, require_unit_range: bool) -> np.ndarray:
    """One chunk of non-blank data lines as an (n, 2) array."""
    fields = ",".join(lines).split(",")
    # exactly one comma per line: each line has one and there are no more
    if len(fields) == 2 * len(lines) and all(map(operator.contains, lines, repeat(","))):
        try:
            data = np.array(fields, dtype=float).reshape(-1, 2)
        except ValueError:
            pass
        else:
            if np.isfinite(data).all() and not (
                    require_unit_range and np.abs(data[:, 0]).max() > 1.0):
                return data
    return _parse_rows_one_by_one(path, lines, first_row, require_unit_range)


def _parse_rows_one_by_one(path, lines: list, first_row: int,
                           require_unit_range: bool) -> np.ndarray:
    """The row-by-row reference parse; raises at the first bad cell."""
    rows = []
    for row_idx, line in enumerate(lines, start=first_row):
        parts = line.rstrip("\n").split(",")
        if len(parts) != 2:
            raise DataError(f"{path}: row {row_idx}: expected 2 fields, got {len(parts)}")
        row = []
        for col_name, text in zip(("z", "y"), parts):
            try:
                value = float(text)
            except ValueError:
                raise DataError(
                    f"{path}: row {row_idx}, column {col_name}: not a number: {text!r}"
                ) from None
            if not np.isfinite(value):
                raise DataError(f"{path}: row {row_idx}, column {col_name}: non-finite value")
            row.append(value)
        if require_unit_range and not -1.0 <= row[0] <= 1.0:
            raise DataError(f"{path}: row {row_idx}, column z: {row[0]} outside [-1, 1]")
        rows.append(row)
    return np.array(rows, dtype=float)


def load_sample_csv(path) -> Sample:
    """Read a `z,y` CSV file into a Sample."""
    z, y = parse_sample_csv(path)
    return Sample(z=z, y=y, meta={"source": str(path), "n": int(z.size)})
