"""Exception hierarchy shared across the toolkit.

Everything raised on bad input data derives from DataError so the CLI can
map it to a single exit code.
"""


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
