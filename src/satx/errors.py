"""Exception types shared across the package, and the setting checks."""

from __future__ import annotations

import math
import numbers

import numpy as np


class SatxError(Exception):
    """Base class for all package errors; ``field`` names a rejected setting."""

    def __init__(self, reason, field=None):
        super().__init__(reason if field is None else f"{field} {reason}")
        self.reason, self.field = reason, field


class ConfigError(SatxError):
    """Invalid configuration, schema violation, inconsistent job setup, or
    an output file that cannot be written."""


class GeometryError(SatxError):
    """Invalid direction, cloud, or layout geometry."""


class CoverageError(SatxError):
    """A direction cannot be panned with the available loudspeaker hull."""


class DimensionError(SatxError):
    """Matrix dimensions do not match the declared formats."""


class MatrixFileError(SatxError):
    """Malformed or inconsistent matrix file."""


class AudioError(SatxError):
    """Unsupported or inconsistent audio input."""


def check_number(value, field, minimum=None, exclusive=False) -> float:
    """``value`` as a finite float >= ``minimum`` (> if ``exclusive``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError("expected a number", field)
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError("must be finite", field)
    if minimum is not None and (value <= minimum if exclusive
                                else value < minimum):
        raise ConfigError(f"must be {'>' if exclusive else '>='} {minimum}",
                          field)
    return value


def check_integer(value, field, minimum=None) -> int:
    """``value`` as an int of at least ``minimum``; ``bool`` is rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError("expected an integer", field)
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be >= {minimum}", field)
    return int(value)


def check_matrix(values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a read-only float64 copy, a finite matrix of ``shape``;
    a mismatch or a non-finite entry is a ``DimensionError`` naming ``what``.
    """
    entries = np.array(values, dtype=float)
    if entries.shape != shape:
        raise DimensionError(f"{what} has shape {entries.shape}, expected "
                             f"{shape}")
    if not np.isfinite(entries).all():
        raise DimensionError(f"{what} entries must be finite")
    entries.flags.writeable = False
    return entries
