"""The one reader of config sections, and typed readers for their values.
Every refusal is a ConfigError naming the section and, for a bad value, the
key, and the list index where the value sits in a list; a refusal inside a
nested section is prefixed with each enclosing section and key. Numbers are
finite and not bools; whole numbers (counts, seeds) are >= 0."""
from __future__ import annotations

import math
import numbers

from .errors import ConfigError

_REFUSALS = (TypeError, ValueError, OverflowError, ConfigError)


class _InList(ValueError):
    """A refusal whose message starts with the list index of the value."""


def _tail(err: Exception) -> str:
    """err's message as it follows the name of the refused value: a nested
    section's message after a colon, a bad value's after a space."""
    if isinstance(err, _InList):
        return str(err)
    return f": {err}" if isinstance(err, ConfigError) else f" {err}"


def read_section(doc, what: str, required: dict, optional: dict = {}) -> dict:
    """doc's values through their keys' readers. Absent optional keys stay
    absent, so the defaults of the class being built apply."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {doc!r}")
    readers = {**required, **optional}
    unknown = set(doc) - set(readers)
    if unknown:
        raise ConfigError(f"unknown keys in {what}: {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise ConfigError(f"{what} is missing keys: {sorted(missing)}")
    out = {}
    for key, value in doc.items():
        try:
            out[key] = readers[key](value)
        except _REFUSALS as err:
            raise ConfigError(f"{what}: {key!r}{_tail(err)}") from None
    return out


def real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


def integer(value) -> int:
    if not (real(value).is_integer() and value >= 0):
        raise ValueError(f"must be a whole number >= 0, got {value!r}")
    return int(value)


def _instance_of(kind: type, name: str):
    def read(value):
        if not isinstance(value, kind):
            raise TypeError(f"must be {name}, got {value!r}")
        return value
    return read


text = _instance_of(str, "a string")
boolean = _instance_of(bool, "true or false")


def list_of(reader):
    def read(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"must be a list, got {value!r}")
        out = []
        for index, item in enumerate(value):
            try:
                out.append(reader(item))
            except _REFUSALS as err:
                raise _InList(f"[{index}]{_tail(err)}") from None
        return tuple(out)
    return read
