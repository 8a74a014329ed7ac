"""The one CSV writer behind every numeric table the package saves."""
from __future__ import annotations

import numpy as np

# Rows formatted per write: large enough that the per-call cost vanishes,
# small enough that one block's Python floats stay well under a megabyte.
ROWS_PER_WRITE = 1024


def write_csv(path_or_buf, header: str, *columns) -> None:
    """Write columns as %.17g CSV under a header line, to a path or a text buffer.

    The bytes are those of np.savetxt(..., delimiter=",", comments="",
    fmt="%.17g"): '%.17g' formats a float64 and its Python float alike, so
    each block of rows is one % over one format string.
    """
    if not hasattr(path_or_buf, "write"):
        with open(path_or_buf, "w", encoding="utf-8") as fh:
            return write_csv(fh, header, *columns)
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    path_or_buf.write(header + "\n")
    for start in range(0, len(table), ROWS_PER_WRITE):
        block = table[start:start + ROWS_PER_WRITE]
        path_or_buf.write((row * len(block)) % tuple(block.ravel().tolist()))
