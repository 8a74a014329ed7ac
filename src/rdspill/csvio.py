"""The one CSV writer behind every numeric table the package saves."""
from __future__ import annotations

import numpy as np


def write_csv(path_or_buf, header: str, *columns) -> None:
    """Write columns as %.17g CSV under a header line, to a path or a text buffer."""
    if not hasattr(path_or_buf, "write"):
        with open(path_or_buf, "w", encoding="utf-8") as fh:
            return write_csv(fh, header, *columns)
    np.savetxt(path_or_buf, np.column_stack(columns), delimiter=",", header=header,
               comments="", fmt="%.17g")
