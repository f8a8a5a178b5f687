"""Exception hierarchy shared across the toolkit.

Everything raised on bad input data derives from DataError so the CLI can
map it to a single exit code. A record constructor reads its arguments
through `_float`, `_int` or `_dims` and formats them through `_shown`, so
that an int of any size meets the record's own rule and message.
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


def _float(value, name: str, error: type[DataError] = DataError) -> float:
    """``float(value)``; past float64 an int is the infinity of its sign; no number raises."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {_shown(value, repr)}") from None


def _int(value, name: str, error: type[DataError] = DataError) -> int:
    """``int(value)``; a number with a fraction, NaN, an infinity or no number raises `error`."""
    try:
        n = int(value)
        if n == value or isinstance(value, str):  # a string such as "2" reads as int reads it
            return n
    except (TypeError, ValueError, OverflowError):  # None, a list, "2.5", NaN, an infinity
        pass
    raise error(f"{name} must be an integer, got {_shown(value, repr)}")


def _dims(width, height, what, error=DataError, names=("width", "height")) -> tuple[int, int]:
    """The sides of an image or a map, each read by `_int`, then both required to be positive."""
    w, h = _int(width, names[0], error), _int(height, names[1], error)
    if w <= 0 or h <= 0:
        raise error(f"{what} dimensions must be positive, got {_shown(w)}x{_shown(h)}")
    return w, h


def _shown(value, text=str) -> str:
    """``text(value)`` for a message; an int too long for ``str`` is abbreviated, as -1.00e+5000."""
    try:
        return text(value)
    except ValueError:  # an int past sys.get_int_max_str_digits(), alone or in a container
        from decimal import Decimal  # converts an int of any length exactly

        return f"{Decimal(value):.2e}" if isinstance(value, int) else f"a {type(value).__name__}"
