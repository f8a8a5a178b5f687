"""Bounding-box projection onto the depth grid and median-pooled relative distance."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import _decode, _dump
from .detect import (
    BoundingBox, Columns, Detection, DetectionSet, _bbox_array, _bbox_list, _box_array,
    _check_column, _check_fields, _columns, _floats, _records,
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
        _check_distances(np.array([self.rev]), None if self.abs is None else np.array([self.abs]))


@dataclass(frozen=True)
class RoiFailure:
    """Per-object measurement failure; keeps batch evaluation going."""

    detection: Detection
    reason: str


_EMPTY_RECT = "bbox {} projects to empty rect on a {}x{} grid"


def _check_distances(rev: np.ndarray, abs_m: np.ndarray | None = None) -> None:
    """The ObjectDistance rules on float64 columns: REV positive and finite, then ABS finite."""
    ok = (rev > 0.0) & (rev < math.inf)
    _check_column(ok, rev, "rev must be a positive finite distance, got {}")
    if abs_m is not None:
        _check_column(np.isfinite(abs_m), abs_m, "abs must be finite, got {}")


def project_bbox(
    bbox: BoundingBox,
    image_dims: tuple[int, int],
    map_dims: tuple[int, int],
) -> IndexRect:
    """Map an image-space box to depth-grid indices.

    Coordinates are scaled by map_dim/image_dim, the near corner floored and
    the far corner ceiled so that a box thinner than a cell still covers one,
    then clamped to the grid. A rect left empty raises DegenerateRoiError.
    """
    col0, row0, col1, row1 = _project(_box_array([bbox]), image_dims, map_dims).tolist()[0]
    if col0 >= col1 or row0 >= row1:
        raise DegenerateRoiError(_EMPTY_RECT.format(bbox, *map_dims))
    return IndexRect(col0=col0, row0=row0, col1=col1, row1=row1)


def _project(boxes: np.ndarray, image_dims: tuple[int, int], map_dims: tuple[int, int]):
    """`project_bbox` of each (n, 4) box row: int64 rows of col0, row0, col1, row1, maybe empty."""
    iw, ih = image_dims
    mw, mh = map_dims
    if iw <= 0 or ih <= 0 or mw <= 0 or mh <= 0:
        raise DataError("image and map dimensions must be positive")
    scaled = boxes * np.array([mw / iw, mh / ih] * 2)
    rects = np.hstack([np.floor(scaled[:, :2]), np.ceil(scaled[:, 2:])])
    # a near corner clamped to the far edge still makes an empty rect
    return np.clip(rects, 0.0, np.array([mw, mh] * 2, dtype=np.float64)).astype(np.int64)


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
    if depth_range is not None:
        middles = disparity_to_depth_value(middles, depth_range)
    m = middles.tolist()  # Python floats: float64 arithmetic without np.mean's overhead
    return (m[0] + m[1]) / 2 if hi > lo else m[0]


def measure_columns(
    depth: ScalarMap, dets: DetectionSet, depth_range: DepthRange | None = None
) -> tuple[Columns, list[RoiFailure]]:
    """Compute the relative distance (REV) of every detection.

    REV is the median depth inside the detection's box projected onto the
    grid. A disparity map needs depth_range and is pooled in disparity
    space. A metric depth map pools only its positive pixels, because zero
    or negative depth marks a sensor hole. Degenerate projections and boxes
    with no valid pixel are recorded as failures, not raised, so a bad box
    never aborts the whole image. The measured detections come back, in
    order and uncalibrated, with their `rev` and `distances` set to REV.
    """
    holes = False
    if depth.kind is MapKind.DISPARITY:
        if depth_range is None:
            raise DataError("pooling a disparity map needs a depth range")
    else:
        depth_range = None  # metric depth needs no conversion
        holes = float(depth.values.min()) <= 0.0
    map_dims = (depth.width, depth.height)
    boxes = dets.columns.boxes
    rev = np.full(len(boxes), math.nan)
    failed: dict[int, str] = {}
    rects = _project(boxes, (dets.image_width, dets.image_height), map_dims).tolist()
    for i, (col0, row0, col1, row1) in enumerate(rects):
        if col0 >= col1 or row0 >= row1:
            failed[i] = _EMPTY_RECT.format(BoundingBox(*boxes[i].tolist()), *map_dims)
            continue
        window = depth.values[row0:row1, col0:col1]
        if holes:
            window = window[window > 0]
            if window.size == 0:
                failed[i] = f"no positive depth in {IndexRect(col0, row0, col1, row1)}"
                continue
        rev[i] = _median_depth(window, depth_range)
    failing = dets.take(np.array(list(failed), dtype=np.intp)).detections
    failures = [RoiFailure(d, reason) for d, reason in zip(failing, failed.values())]
    measured = np.flatnonzero(~np.isnan(rev))
    rev = rev[measured]
    _check_distances(rev)
    calibrated = np.zeros(len(rev), dtype=bool)
    objects = dets.take(measured).columns
    return objects._replace(distances=rev, rev=rev, calibrated=calibrated), failures


def measure_objects(
    depth: ScalarMap, dets: DetectionSet, depth_range: DepthRange | None = None
) -> tuple[list[ObjectDistance], list[RoiFailure]]:
    """`measure_columns` as records."""
    objects, failures = measure_columns(depth, dets, depth_range)
    return _distance_records(objects), failures


def _distance_columns(objects: list[ObjectDistance]) -> Columns:
    """The measured columns of ObjectDistance records, the inverse of `_distance_records`."""
    rev = np.array([od.rev for od in objects], dtype=np.float64)
    calibrated = np.array([od.abs is not None for od in objects], dtype=bool)
    distances = np.array([od.rev if od.abs is None else od.abs for od in objects], np.float64)
    columns = _columns([od.detection for od in objects])
    return columns._replace(distances=distances, rev=rev, calibrated=calibrated)


def _distance_records(c: Columns) -> list[ObjectDistance]:
    """The ObjectDistance records of measured columns; ABS is None where not calibrated."""
    rows = zip(_records(c), c.rev.tolist(), c.distances.tolist(), c.calibrated.tolist())
    return [ObjectDistance(d, rev, dist if cal else None) for d, rev, dist, cal in rows]


def serialize_distances(
    image_id: str, objects: list[ObjectDistance], failures: list[RoiFailure] | None = None
) -> bytes:
    """Canonical `.dist.json` form."""
    return encode_distances(image_id, _distance_columns(objects), failures)


def encode_distances(
    image_id: str, objects: Columns, failures: list[RoiFailure] | None = None
) -> bytes:
    """`serialize_distances` of measured columns, the inverse of `decode_distances`."""
    o = objects
    abs_m = [d if cal else None for d, cal in zip(o.distances.tolist(), o.calibrated.tolist())]
    rows = zip(o.class_names, o.confidence.tolist(), o.boxes.tolist(), o.rev.tolist(), abs_m)
    doc = {"image": image_id, "objects": [
        {"class_name": name, "confidence": conf, "bbox": box, "rev_m": rev, "abs_m": abs_m}
        for name, conf, box, rev, abs_m in rows
    ]}
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


def decode_distances(data: bytes | str) -> tuple[str, Columns]:
    """Decode `.dist.json` into columns; each field is validated as a whole column."""
    with _decode(data, DetectionFormatError, "distances") as doc:
        image, objects = str(doc["image"]), doc["objects"]
        names = (str(o["class_name"]) for o in objects)  # read lazily, in rule order
        names, conf = _check_fields(None, names, (o["confidence"] for o in objects))
        boxes = _bbox_array([o["bbox"] for o in objects])
        rev = _floats([o["rev_m"] for o in objects])
        _check_distances(rev)  # before the ABS fields are read, so that a bad REV is named first
        abs_m = [o["abs_m"] for o in objects]
        calibrated = np.array([a is not None for a in abs_m], dtype=bool)
        abs_ = _floats([a if a is not None else 0.0 for a in abs_m])
        _check_distances(rev, abs_)
        return image, Columns(names, boxes, np.where(calibrated, abs_, rev), conf, rev, calibrated)


def parse_distances(data: bytes | str) -> tuple[str, list[ObjectDistance]]:
    """Parse `.dist.json` back into ObjectDistance records.

    The file does not carry class ids, so reconstructed detections use
    class_id 0; evaluation matches on class_name only.
    """
    image, columns = decode_distances(data)
    return image, _distance_records(columns)
