"""Exception hierarchy shared across the toolkit.

Everything raised on bad input data derives from DataError so the CLI can
map it to a single exit code. A record constructor reads its arguments
through `_float` and formats them through `_shown`, so that an int of any
size meets the record's own rule and message.
"""
import math


class DataError(Exception):
    """Invalid or malformed input data (files, values, configs)."""


class PfmFormatError(DataError):
    """Malformed or unsupported PFM stream."""


class DetectionFormatError(DataError):
    """Malformed detection/ground-truth/distances JSON."""


class DegenerateRoiError(DataError):
    """Bounding box projects to an empty region of the depth grid."""


class CalibrationError(DataError):
    """Calibration fit or model file is unusable (degenerate samples, overflow, bad h)."""


class SceneError(DataError):
    """Synthetic scene specification violates its own constraints."""


class BackendError(DataError):
    """Depth/detection backend failed to produce its output."""


def _float(value) -> float:
    """``float(value)``; an int past float64 becomes the infinity of its sign, as ``1e999`` does."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _shown(value, text=str) -> str:
    """``text(value)`` for a message; an int too long for ``str`` is abbreviated, as -1.00e+5000."""
    try:
        return text(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        from decimal import Decimal  # converts an int of any length exactly

        return f"{Decimal(value):.2e}"
