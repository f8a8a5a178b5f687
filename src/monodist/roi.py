"""Bounding-box projection onto the depth grid and median-pooled relative distance."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codec import _decode, _dump
from .detect import (
    BoundingBox, Detection, DetectionSet, _bbox_array, _bbox_list, _check_column, _floats
)
from .errors import DataError, DegenerateRoiError, DetectionFormatError
from .maps import DepthRange, MapKind, ScalarMap, disparity_to_depth_value


@dataclass(frozen=True)
class IndexRect:
    """Half-open [col0, col1) x [row0, row1) region in map grid coordinates."""

    col0: int
    row0: int
    col1: int
    row1: int

    def __post_init__(self):
        if self.col0 < 0 or self.row0 < 0:
            raise DataError(f"negative rect index in {self}")
        if self.col0 >= self.col1 or self.row0 >= self.row1:
            raise DataError(f"empty rect {self}")


@dataclass(frozen=True)
class ObjectDistance:
    """A detection joined with its relative (REV) and, once calibrated, absolute (ABS) distance."""

    detection: Detection
    rev: float
    abs: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "rev", float(self.rev))
        if self.abs is not None:
            object.__setattr__(self, "abs", float(self.abs))
        if not (self.rev > 0 and math.isfinite(self.rev)):
            raise DataError(f"rev must be a positive finite distance, got {self.rev}")
        if self.abs is not None and not math.isfinite(self.abs):
            raise DataError(f"abs must be finite, got {self.abs}")


@dataclass(frozen=True)
class RoiFailure:
    """Per-object measurement failure; keeps batch evaluation going."""

    detection: Detection
    reason: str


def project_bbox(
    bbox: BoundingBox,
    image_dims: tuple[int, int],
    map_dims: tuple[int, int],
) -> IndexRect:
    """Map an image-space box to depth-grid indices.

    Coordinates are scaled by map_dim/image_dim, the near corner floored and
    the far corner ceiled so the rect is never empty for a valid box, then
    clamped to the grid.
    """
    iw, ih = image_dims
    mw, mh = map_dims
    if iw <= 0 or ih <= 0 or mw <= 0 or mh <= 0:
        raise DataError("image and map dimensions must be positive")
    sx = mw / iw
    sy = mh / ih
    col0 = max(0, math.floor(bbox.x0 * sx))
    row0 = max(0, math.floor(bbox.y0 * sy))
    col1 = min(mw, math.ceil(bbox.x1 * sx))
    row1 = min(mh, math.ceil(bbox.y1 * sy))
    if col0 >= col1 or row0 >= row1:
        raise DegenerateRoiError(
            f"bbox {bbox} projects to empty rect on a {mw}x{mh} grid"
        )
    return IndexRect(col0=col0, row0=row0, col1=col1, row1=row1)


def median_depth(depth: ScalarMap, rect: IndexRect) -> float:
    """Exact median of the depth values inside rect.

    Odd counts take the middle element; even counts the mean of the two
    middle elements.
    """
    if depth.kind is not MapKind.DEPTH:
        raise DataError(f"expected a depth map, got {depth.kind.value}")
    if rect.col1 > depth.width or rect.row1 > depth.height:
        raise DataError(f"rect {rect} exceeds map bounds {depth.width}x{depth.height}")
    window = depth.values[rect.row0 : rect.row1, rect.col0 : rect.col1]
    return _median_depth(window, None)


def _median_depth(values: np.ndarray, depth_range: DepthRange | None) -> float:
    """Median depth of a non-empty window of disparity (with depth_range) or depth values.

    disparity->depth is monotone, so the middle element(s) are selected in
    the map's own space and only they are converted to float64 depth. An
    even count averages the two middles in float64, as ``np.median`` does.
    """
    n = values.size
    lo, hi = (n - 1) // 2, n // 2
    middles = np.partition(values, (lo, hi), axis=None)[lo : hi + 1]
    if depth_range is None:
        return float(middles.mean(dtype=np.float64))
    return float(disparity_to_depth_value(middles, depth_range).mean())


def measure_objects(
    depth: ScalarMap, dets: DetectionSet, depth_range: DepthRange | None = None
) -> tuple[list[ObjectDistance], list[RoiFailure]]:
    """Compute the relative distance (REV) of every detection.

    REV is the median depth inside the detection's box projected onto the
    grid. A disparity map needs depth_range and is pooled in disparity
    space. A metric depth map pools only its positive pixels, because zero
    or negative depth marks a sensor hole. Degenerate projections and boxes
    with no valid pixel are recorded as failures, not raised, so a bad box
    never aborts the whole image.
    """
    holes = False
    if depth.kind is MapKind.DISPARITY:
        if depth_range is None:
            raise DataError("pooling a disparity map needs a depth range")
    else:
        depth_range = None  # metric depth needs no conversion
        holes = float(depth.values.min()) <= 0.0
    results: list[ObjectDistance] = []
    failures: list[RoiFailure] = []
    image_dims = (dets.image_width, dets.image_height)
    map_dims = (depth.width, depth.height)
    for det in dets.detections:
        try:
            rect = project_bbox(det.bbox, image_dims, map_dims)
        except DegenerateRoiError as e:
            failures.append(RoiFailure(detection=det, reason=str(e)))
            continue
        window = depth.values[rect.row0 : rect.row1, rect.col0 : rect.col1]
        if holes:
            window = window[window > 0]
            if window.size == 0:
                failures.append(RoiFailure(detection=det, reason=f"no positive depth in {rect}"))
                continue
        results.append(ObjectDistance(detection=det, rev=_median_depth(window, depth_range)))
    return results, failures


def serialize_distances(
    image_id: str, objects: list[ObjectDistance], failures: list[RoiFailure] | None = None
) -> bytes:
    """Canonical `.dist.json` form."""
    doc = {
        "image": image_id,
        "objects": [
            {
                "class_name": od.detection.class_name,
                "confidence": od.detection.confidence,
                "bbox": _bbox_list(od.detection.bbox),
                "rev_m": od.rev,
                "abs_m": od.abs,
            }
            for od in objects
        ],
    }
    if failures:
        doc["failures"] = [
            {
                "class_name": f.detection.class_name,
                "bbox": _bbox_list(f.detection.bbox),
                "reason": f.reason,
            }
            for f in failures
        ]
    return _dump(doc)


class Columns(NamedTuple):
    """The objects of one `.dist.json` or `.gt.json`, one column per field.

    `distances` are the ones evaluation scores: a prediction's calibrated ABS
    when present, else its REV, or the ground-truth ABS. The columns with a
    default are read from `.dist.json` only.
    """

    class_names: list[str]
    boxes: np.ndarray  # (n, 4) float64 rows of x0, y0, x1, y1; NaN where GT has no box
    distances: np.ndarray
    confidence: np.ndarray | None = None
    rev: np.ndarray | None = None
    calibrated: np.ndarray | None = None  # True where ABS is present


def decode_distances(data: bytes | str) -> tuple[str, Columns]:
    """Decode `.dist.json` into columns; each field is validated as a whole column."""
    with _decode(data, DetectionFormatError, "distances") as doc:
        image, objects = str(doc["image"]), doc["objects"]
        names = [str(o["class_name"]) for o in objects]
        if "" in names:
            raise DataError("empty class_name")
        conf = _floats([o["confidence"] for o in objects])
        _check_column((conf >= 0.0) & (conf <= 1.0), conf, "confidence {} outside [0, 1]")
        boxes = _bbox_array([o["bbox"] for o in objects])
        rev = _floats([o["rev_m"] for o in objects])
        ok = (rev > 0.0) & (rev < math.inf)
        _check_column(ok, rev, "rev must be a positive finite distance, got {}")
        abs_m = [o["abs_m"] for o in objects]
        calibrated = np.array([a is not None for a in abs_m], dtype=bool)
        abs_ = _floats([a if a is not None else 0.0 for a in abs_m])
        _check_column(np.isfinite(abs_), abs_, "abs must be finite, got {}")
        return image, Columns(names, boxes, np.where(calibrated, abs_, rev), conf, rev, calibrated)


def parse_distances(data: bytes | str) -> tuple[str, list[ObjectDistance]]:
    """Parse `.dist.json` back into ObjectDistance records.

    The file does not carry class ids, so reconstructed detections use
    class_id 0; evaluation matches on class_name only.
    """
    image, d = decode_distances(data)
    columns = (d.confidence, d.boxes, d.rev, d.distances, d.calibrated)
    return image, [
        ObjectDistance(Detection(0, name, conf, BoundingBox(*box)), rev, dist if cal else None)
        for name, conf, box, rev, dist, cal in zip(d.class_names, *(c.tolist() for c in columns))
    ]
