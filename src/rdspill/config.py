"""The one reader of config sections, and typed readers for their values.
Every refusal is a ConfigError naming the section and, for a bad value, the
key. Numbers are finite and not bools; whole numbers (counts, seeds) are >= 0."""
from __future__ import annotations

import math
import numbers

from .errors import ConfigError


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
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"{what}: {key!r} {err}") from None
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
        return tuple(reader(item) for item in value)
    return read
