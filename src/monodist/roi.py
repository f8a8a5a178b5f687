"""Bounding-box projection onto the depth grid and median-pooled relative distance."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calib
from .codec import _Table, _decode, _dump
from .detect import (
    BoundingBox, Columns, Detection, DetectionSet, _bbox_array, _bbox_list, _check_column,
    _check_fields, _columns, _coord_array, _floats, _records, _sides,
)
from .errors import DataError, DegenerateRoiError, DetectionFormatError, _dims, _float, _shown
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

    def __repr__(self) -> str:  # the dataclass repr, with an index too long for str abbreviated
        return f"IndexRect({', '.join(f'{k}={_shown(v, repr)}' for k, v in vars(self).items())})"


@dataclass(frozen=True)
class ObjectDistance:
    """A detection joined with its relative (REV) and, once calibrated, absolute (ABS) distance."""

    detection: Detection
    rev: float
    abs: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "rev", _float(self.rev, "rev"))
        _check_distances(np.array([self.rev]))  # before ABS is read, as in a file
        if self.abs is not None:
            object.__setattr__(self, "abs", _float(self.abs, "abs"))
            _check_distances(np.array([self.rev]), np.array([self.abs]))


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

    Coordinates are multiplied by map_dim, then divided by image_dim, so an
    integer edge on a grid line stays on it; a product past float64 is
    divided first instead. The near corner is floored and the far corner
    ceiled so that a box thinner than a cell still covers one, then clamped
    to the grid. A rect left empty raises DegenerateRoiError.
    """
    image_dims, map_dims = _dims(*image_dims, "image"), _dims(*map_dims, "map")
    boxes = _coord_array([_bbox_list(bbox)])
    col0, row0, col1, row1 = _project(boxes, image_dims, map_dims).tolist()[0]
    if col0 >= col1 or row0 >= row1:
        raise DegenerateRoiError(_EMPTY_RECT.format(bbox, *map_dims))
    return IndexRect(col0=col0, row0=row0, col1=col1, row1=row1)


def _project(boxes: np.ndarray, image_dims: tuple[int, int], map_dims: tuple[int, int]):
    """`project_bbox` of each (n, 4) box row on checked sides: int64 col0, row0, col1, row1 rows."""
    if not len(boxes):  # the image size, which may lie past float64, is only read to scale a box
        return np.empty((0, 4), np.int64)
    grid, size = _sides([*map_dims] * 2), _sides([*image_dims] * 2)
    with np.errstate(over="ignore"):  # a product past float64 divides first instead
        scaled = boxes * grid
        scaled = np.where(np.isfinite(scaled), scaled / size, boxes / size * grid)
    rects = np.hstack([np.floor(scaled[:, :2]), np.ceil(scaled[:, 2:])])
    # a near corner clamped to the far edge still makes an empty rect
    return np.clip(rects, 0.0, grid).astype(np.int64)


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


def _median_depth(values: np.ndarray, depth_range: DepthRange | None, holes=False) -> float | None:
    """Median depth of a non-empty window of disparity (with depth_range) or depth values.

    The window is sorted once. With `holes`, zero or negative depths (sensor
    holes) sort first and are skipped; a window of holes only gives None.
    disparity->depth is monotone, so the middle element(s) are taken in the
    map's own space and only they are converted to float64 depth. An even
    count averages the two middles in float64, as ``np.median`` does.
    """
    s = np.sort(values, axis=None)
    if holes and s[0] <= 0.0:
        s = s[np.searchsorted(s, 0.0, side="right") :]
        if s.size == 0:
            return None
    n = s.size
    middles = s[(n - 1) // 2 : n // 2 + 1]
    if depth_range is not None:
        middles = disparity_to_depth_value(middles, depth_range)
    m = middles.tolist()  # Python floats: float64 arithmetic without np.mean's overhead
    return (m[0] + m[1]) / 2 if len(m) > 1 else m[0]


def measure_columns(
    depth: ScalarMap, dets: DetectionSet, depth_range: DepthRange | None = None,
    model: calib.CalibrationModel | None = None,
) -> tuple[Columns, Columns]:
    """Compute the relative distance (REV) of every detection, calibrated by `model` if given.

    REV is the median depth inside the detection's box projected onto the
    grid. A disparity map needs depth_range and is pooled in disparity
    space. A metric depth map pools only its positive pixels, because zero
    or negative depth marks a sensor hole. Degenerate projections and boxes
    with no valid pixel are returned as failures, not raised, so a bad box
    never aborts the whole image. The measured detections come back in
    order, with `rev` set to REV and `distances` to ABS (REV without a model);
    the failed ones in order too, with `reasons` set.
    """
    if depth.kind is MapKind.DISPARITY:
        if depth_range is None:
            raise DataError("pooling a disparity map needs a depth range")
    else:
        depth_range = None  # metric depth needs no conversion
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
        median = _median_depth(window, depth_range, holes=depth_range is None)
        if median is None:
            failed[i] = f"no positive depth in {IndexRect(col0, row0, col1, row1)}"
        else:
            rev[i] = median
    failures = dets.columns.take(np.array(list(failed), dtype=np.intp))
    measured = np.flatnonzero(~np.isnan(rev))
    rev = rev[measured]
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below instead
        distances = rev if model is None else calib.apply(model, rev)
    _check_distances(rev, None if model is None else distances)
    calibrated = np.full(len(rev), model is not None)
    objects = dets.columns.take(measured)
    objects = objects._replace(distances=distances, rev=rev, calibrated=calibrated)
    return objects, failures._replace(reasons=list(failed.values()))


def measure_objects(
    depth: ScalarMap, dets: DetectionSet, depth_range: DepthRange | None = None
) -> tuple[list[ObjectDistance], list[RoiFailure]]:
    """`measure_columns` as records."""
    objects, failures = measure_columns(depth, dets, depth_range)
    return _distance_records(objects), list(map(RoiFailure, _records(failures), failures.reasons))


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
    rows = failures or []
    failed = _columns([f.detection for f in rows])._replace(reasons=[f.reason for f in rows])
    return encode_distances(image_id, _distance_columns(objects), failed)


def encode_distances(image_id: str, objects: Columns, failures: Columns) -> bytes:
    """`serialize_distances` of columns; `decode_distances` reads the measured ones back."""
    o = objects
    abs_m = [d if cal else None for d, cal in zip(o.distances.tolist(), o.calibrated.tolist())]
    doc = {"image": image_id, "objects": _Table(
        class_name=o.class_names, confidence=o.confidence.tolist(), bbox=o.boxes.tolist(),
        rev_m=o.rev.tolist(), abs_m=abs_m,
    )}
    if failures.reasons:  # a file without failures has no such key
        f = failures
        doc["failures"] = _Table(class_name=f.class_names, bbox=f.boxes.tolist(), reason=f.reasons)
    return _dump(doc)


def decode_distances(data: bytes | str) -> tuple[str, Columns]:
    """Decode `.dist.json` into columns; each field is validated as a whole column."""
    with _decode(data, DetectionFormatError, "distances") as doc:
        image, objects = str(doc["image"]), doc["objects"]
        names = (str(o["class_name"]) for o in objects)  # read lazily, in rule order
        names, conf = _check_fields(None, names, (o["confidence"] for o in objects))
        boxes = _bbox_array([o["bbox"] for o in objects])
        rev = _floats([o["rev_m"] for o in objects], "rev")
        _check_distances(rev)  # before the ABS fields are read, so that a bad REV is named first
        abs_m = [o["abs_m"] for o in objects]
        calibrated = np.array([a is not None for a in abs_m], dtype=bool)
        abs_ = _floats([a if a is not None else 0.0 for a in abs_m], "abs")
        _check_distances(rev, abs_)
        return image, Columns(names, boxes, np.where(calibrated, abs_, rev), conf, rev, calibrated)


def parse_distances(data: bytes | str) -> tuple[str, list[ObjectDistance]]:
    """Parse `.dist.json` back into ObjectDistance records.

    The file does not carry class ids, so reconstructed detections use
    class_id 0; evaluation matches on class_name only.
    """
    image, columns = decode_distances(data)
    return image, _distance_records(columns)
