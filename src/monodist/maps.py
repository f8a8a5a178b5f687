"""Dense scalar maps (disparity / depth), PFM I/O and the disparity->depth transform."""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, PfmFormatError, _float, _shown


class MapKind(enum.Enum):
    DISPARITY = "disparity"
    DEPTH = "depth"


@dataclass(frozen=True)
class DepthRange:
    """Metric depth interval the disparity range [0, 1] maps onto."""

    min_depth: float = 0.1
    max_depth: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "min_depth", _float(self.min_depth))
        object.__setattr__(self, "max_depth", _float(self.max_depth))
        lo, hi = self.min_depth, self.max_depth
        # the disparity bounds 1/max and 1/min, distinct as the inverse divides by their span,
        # and the depth 1/(1/max) of the lower one
        if not (0.0 < lo < hi < math.inf and 1.0 / hi < 1.0 / lo < math.inf
                and 1.0 / (1.0 / hi) < math.inf):
            raise DataError(
                f"depth range must satisfy 0 < min < max < inf, 1/min and 1/(1/max) finite, "
                f"1/max < 1/min, got ({lo}, {hi})"
            )

    @classmethod
    def from_dict(cls, doc) -> DepthRange:
        """Decode a `{"min_m", "max_m"}` record object; a missing key takes the default."""
        if not isinstance(doc, dict):
            raise DataError(f"depth_range must be a JSON object, got {type(doc).__name__}")
        return cls(doc.get("min_m", cls.min_depth), doc.get("max_m", cls.max_depth))

    def to_dict(self) -> dict:
        return {"min_m": self.min_depth, "max_m": self.max_depth}


@dataclass(frozen=True)
class ScalarMap:
    """Immutable 2-D grid of scalar values, row-major, top row first.

    Disparity maps are dimensionless in [0, 1]; depth maps are in meters.
    float32 values, of either byte order, stay float32 (a PFM map is a
    read-only view of the stream's bytes); other input becomes C-contiguous
    float64, and ``values`` is always a read-only array, a view of float32
    input that may be non-contiguous.
    """

    width: int
    height: int
    kind: MapKind
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DataError(
                f"map dimensions must be positive, got {_shown(self.width)}x{_shown(self.height)}"
            )
        vals = np.asarray(self.values)
        if vals.dtype.char != "f":  # float32 of either byte order: a cast warns on a signalling NaN
            # rows in reading order, so that min/max below meet a tie of -0.0 and 0.0 as read
            vals = np.ascontiguousarray(vals, np.float64)
        # one int comparison: reshape would leak ValueError for too few values or a side past numpy
        if vals.size != (n := self.width * self.height):
            w, h = _shown(self.width), _shown(self.height)
            raise DataError(f"a {w}x{h} map needs {_shown(n)} values, got {vals.size}")
        # a fresh view, so the caller's own array stays writable
        vals = vals.reshape(self.height, self.width).view()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        # rows are read in memory order, as a reversed view (a PFM's) takes numpy's slow
        # path. From +0.0 up, floats order like their bits read as unsigned integers, and
        # NaN and negatives (-0.0 too) read above any finite bound: one integer max passes
        # a map in range. Only NaN, +-inf, a negative or a disparity over 1 reach min/max
        forward = vals[::-1] if vals.strides[0] < 0 else vals
        bits = forward.dtype.str.replace("f", "u")  # same width and byte order
        top = 1.0 if self.kind is MapKind.DISPARITY else np.finfo(forward.dtype).max
        if forward.view(bits).max() <= np.array(top, forward.dtype).view(bits):
            return
        lo, hi = float(forward.min()), float(forward.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DataError("map contains non-finite values")
        if self.kind is MapKind.DISPARITY and (lo < 0.0 or hi > 1.0):
            raise DataError(f"disparity values outside [0, 1]: min={lo}, max={hi}")


_PFM_HEADER = re.compile(rb"([^\n]*)\n([^\n]*)\n([^\n]*)\n")


def read_pfm(
    data: bytes | bytearray | memoryview | np.ndarray, kind: MapKind = MapKind.DISPARITY
) -> ScalarMap:
    """Decode a grayscale PFM stream from any contiguous bytes-like object.

    The file stores rows bottom-first; the returned map is top-first. The
    stream, of either byte order, decodes to a float32 view of ``data`` with
    no copy; the view is aligned when the buffer ends on a 4-byte boundary.
    Color (``PF``) streams are rejected.
    """
    header = _PFM_HEADER.match(data)
    if header is None:
        raise PfmFormatError("truncated PFM header")

    magic, dims, scale = header.groups()
    if magic == b"PF":
        raise PfmFormatError("color PFM (PF) not supported, expected grayscale Pf")
    if magic != b"Pf":
        raise PfmFormatError(f"bad PFM magic {magic!r}")

    dims = dims.split()
    if len(dims) != 2:
        raise PfmFormatError("malformed PFM dimension line")
    try:
        width, height = int(dims[0]), int(dims[1])
        scale = float(scale)
    except ValueError:
        raise PfmFormatError("malformed PFM header fields") from None
    if width <= 0 or height <= 0:
        raise PfmFormatError(f"non-positive PFM dimensions {width}x{height}")
    # the scale's sign is the byte order, so nan or inf says nothing
    if scale == 0.0 or not math.isfinite(scale):
        raise PfmFormatError(f"PFM scale must be finite and non-zero, got {scale}")

    payload_len = memoryview(data).nbytes - header.end()
    expected = width * height * 4
    if payload_len != expected:
        raise PfmFormatError(f"PFM payload is {payload_len} bytes, expected {expected}")

    dtype = "<f4" if scale < 0 else ">f4"
    vals = np.frombuffer(data, dtype=dtype, offset=header.end()).reshape(height, width)
    try:
        # PFM stores the bottom row first
        return ScalarMap(width=width, height=height, kind=kind, values=vals[::-1])
    except DataError as e:
        raise PfmFormatError(f"PFM payload: {e}") from None


def write_pfm(m: ScalarMap) -> bytes:
    """Encode a map as little-endian grayscale PFM (scale -1.0), inverse of read_pfm.

    A value that float32 cannot hold raises DataError.
    """
    # numpy asks for huge pages for a large buffer; tobytes() and + would make two malloc'd
    # copies, which the kernel faults in 4 KiB at a time
    return b"".join(_pfm_parts(m))


def _pfm_parts(m: ScalarMap) -> tuple[bytes, np.ndarray]:
    """The header and the payload of `write_pfm`: rows copied once, bottom-first, into float32.

    A file writer can write the two in turn, with no copy of the whole stream.
    """
    header = f"Pf\n{m.width} {m.height}\n-1.0\n".encode("ascii")
    vals = m.values[::-1]
    with np.errstate(over="ignore"):  # a float32 map cannot overflow, a float64 one is checked
        payload = np.ascontiguousarray(vals, "<f4")
    if vals.dtype.char != "f" and not np.isfinite(payload).all():
        raise DataError(f"map value {vals[~np.isfinite(payload)][0]} is beyond float32")
    return header, payload


def disparity_to_depth_value(disparity, depth_range: DepthRange) -> np.ndarray:
    """Metric depth of normalized disparity, elementwise, in float64.

    depth = 1 / (1/max + (1/min - 1/max) * v), so v=0 gives max_depth and
    v=1 gives min_depth. The transform is monotone decreasing, clip included.
    """
    min_disp = 1.0 / depth_range.max_depth
    max_disp = 1.0 / depth_range.min_depth
    scaled = min_disp + (max_disp - min_disp) * np.asarray(disparity, dtype=np.float64)
    # guard float round-off at the interval endpoints
    return np.clip(1.0 / scaled, depth_range.min_depth, depth_range.max_depth)


def depth_to_disparity_value(depth, depth_range: DepthRange) -> np.ndarray:
    """Exact algebraic inverse of disparity_to_depth_value, elementwise, in float64."""
    min_disp = 1.0 / depth_range.max_depth
    max_disp = 1.0 / depth_range.min_depth
    return (1.0 / np.asarray(depth, dtype=np.float64) - min_disp) / (max_disp - min_disp)


def disparity_to_depth(m: ScalarMap, depth_range: DepthRange) -> ScalarMap:
    """Convert a normalized disparity map to a float64 metric depth map."""
    if m.kind is not MapKind.DISPARITY:
        raise DataError(f"expected a disparity map, got {m.kind.value}")
    depth = disparity_to_depth_value(m.values, depth_range)
    return ScalarMap(width=m.width, height=m.height, kind=MapKind.DEPTH, values=depth)
