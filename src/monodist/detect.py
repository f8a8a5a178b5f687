"""Detection data model, JSON (de)serialization and detector postprocessing."""
from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .codec import _Table, _decode, _dump
from .errors import DataError, DetectionFormatError, _float, _shown

DEFAULT_MIN_CONFIDENCE = 0.25
DEFAULT_IOU_THRESHOLD = 0.45


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in image pixel coordinates, origin top-left."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        for name in ("x0", "y0", "x1", "y1"):
            object.__setattr__(self, name, _float(getattr(self, name)))
        _bbox_array([_bbox_list(self)])

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def center_x(self) -> float:
        return 0.5 * (self.x0 + self.x1)


@dataclass(frozen=True)
class Detection:
    class_id: int
    class_name: str
    confidence: float
    bbox: BoundingBox

    def __post_init__(self):
        object.__setattr__(self, "confidence", _float(self.confidence))
        _check_fields([self.class_id], [self.class_name], [self.confidence])


@dataclass(frozen=True)
class DetectionSet:
    """One image's detections, in detector order, as columns; records are built when read."""

    image_id: str
    image_width: int
    image_height: int
    detections: Sequence[Detection]  # given as records or as the Columns of `.det.json`

    def __post_init__(self):
        w, h = self.image_width, self.image_height
        if not (w > 0 and h > 0):  # a NaN side fails too
            raise DataError(f"image dimensions must be positive, got {_shown(w)}x{_shown(h)}")
        d = self.detections
        if not isinstance(d, _Rows):
            columns = d if isinstance(d, Columns) else _columns(tuple(d))
            object.__setattr__(self, "detections", _Rows(columns, _records))
        if len(self.detections):  # the image size scales the boxes
            _sides([w, h])

    @property
    def columns(self) -> Columns:
        return self.detections.columns

    def take(self, rows: np.ndarray) -> DetectionSet:
        """The detections at the integer `rows`, in that order."""
        return replace(self, detections=self.columns.take(rows))


class Columns(NamedTuple):
    """The objects of one record file or pipeline stage, one column per field, in order.

    `.det.json` gives class ids, names, confidences and boxes. `.dist.json`
    and `.gt.json` give names, boxes and the `distances` that evaluation
    scores: a prediction's calibrated ABS when present, else its REV, or the
    ground-truth ABS. Columns that a source lacks are None.
    """

    class_names: list[str]
    boxes: np.ndarray  # (n, 4) float64 rows of x0, y0, x1, y1; NaN where GT has no box
    distances: np.ndarray | None = None
    confidence: np.ndarray | None = None
    rev: np.ndarray | None = None
    calibrated: np.ndarray | None = None  # True where ABS is present
    class_ids: list[int] | None = None  # Python ints, so ids beyond int64 still decode

    def take(self, rows: np.ndarray) -> Columns:
        """The objects at the integer `rows`, in that order."""
        at = rows.tolist()
        return Columns(*(
            c if c is None else [c[i] for i in at] if isinstance(c, list) else c[rows] for c in self
        ))


class _Rows(Sequence):
    """The records of a tuple of columns, built by `build` when first read; len() reads column 0."""

    def __init__(self, columns: tuple, build: Callable[[tuple], tuple]):
        self.columns, self.build = columns, build

    @functools.cached_property
    def records(self) -> tuple:
        return self.build(self.columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        return self.records[i]

    def __eq__(self, other) -> bool:
        return self.records == (other.records if isinstance(other, _Rows) else other)

    def __hash__(self) -> int:
        return hash(self.records)

    def __repr__(self) -> str:
        return repr(self.records)


def _columns(detections: Sequence[Detection]) -> Columns:
    """The columns of detection records."""
    return Columns(
        [d.class_name for d in detections], _coord_array([_bbox_list(d.bbox) for d in detections]),
        confidence=np.array([d.confidence for d in detections], dtype=np.float64),
        class_ids=[d.class_id for d in detections],
    )


def _records(c: Columns) -> tuple[Detection, ...]:
    """The Detection records of columns that carry confidences; class ids default to 0."""
    class_ids = [0] * len(c.class_names) if c.class_ids is None else c.class_ids
    rows = zip(class_ids, c.class_names, c.confidence.tolist(), c.boxes.tolist())
    return tuple(Detection(i, name, conf, BoundingBox(*box)) for i, name, conf, box in rows)


def _bbox_list(box: BoundingBox) -> list[float]:
    """Encode a box as the `[x0, y0, x1, y1]` list every record format uses."""
    return [box.x0, box.y0, box.x1, box.y1]


def _floats(values: list) -> np.ndarray:
    """A float64 column of decoded JSON values, each converted as a record's ``_float`` does."""
    try:
        return np.fromiter(map(float, values), np.float64, len(values))
    except OverflowError:  # an int past float64: the slower conversion, only for its column
        return np.fromiter(map(_float, values), np.float64, len(values))


def _sides(sides: list) -> np.ndarray:
    """Image or map sides as float64, to scale boxes by; a side past float64 raises DataError."""
    try:
        return np.array(sides, dtype=np.float64)
    except OverflowError:
        raise DataError("image or map side past float64") from None


def _check_column(ok: np.ndarray, values, message: str) -> None:
    """Raise DataError naming the first of `values` whose row of `ok` holds a False."""
    if not ok.all():
        raise DataError(message.format(values[np.unravel_index(ok.argmin(), ok.shape)[0]]))


def _check_fields(class_ids, names: Iterable, confidences: Iterable) -> tuple[list, np.ndarray]:
    """Check the Detection rules field by field (no ids if None); lazy fields are read when due."""
    if class_ids and min(class_ids) < 0:
        raise DataError(f"negative class_id {_shown(min(class_ids))}")
    names = list(names)
    if not all(names):
        raise DataError("empty class_name")
    conf = _floats(list(confidences))
    _check_column((conf >= 0.0) & (conf <= 1.0), conf, "confidence {} outside [0, 1]")
    return names, conf


def _check_thresholds(min_conf=DEFAULT_MIN_CONFIDENCE, iou_threshold=DEFAULT_IOU_THRESHOLD) -> None:
    """Reject a min_conf outside [0, 1] or an iou_threshold outside (0, 1); a default passes."""
    if not 0.0 <= min_conf <= 1.0:
        raise DataError(f"min_conf {min_conf} outside [0, 1]")
    if not 0.0 < iou_threshold < 1.0:
        raise DataError(f"iou_threshold {iou_threshold} outside (0, 1)")


def _coord_array(raws: list) -> np.ndarray:
    """Decode `[x0, y0, x1, y1]` lists into an (n, 4) float64 array of the values as given."""
    bad = [raw for raw in raws if not (isinstance(raw, list) and len(raw) == 4)]
    if bad:
        raise DataError(f"bbox must be a 4-element list, got {bad[0]!r}")
    return _floats([c for raw in raws for c in raw]).reshape(-1, 4)


def _bbox_array(raws: list) -> np.ndarray:
    """Decode `[x0, y0, x1, y1]` lists into an (n, 4) float64 array; the BoundingBox rule holds."""
    boxes = _coord_array(raws)
    near, far = boxes[:, :2], boxes[:, 2:]
    ok = (near >= 0.0) & (near < far) & (far < math.inf)  # no NaN passes a comparison
    _check_column(ok, raws, "non-finite, negative, inverted or empty bbox {!r}")
    return boxes


def parse_detections(data: bytes | str) -> DetectionSet:
    """Parse the `.det.json` format, checking each column as a whole. Boxes are clamped."""
    with _decode(data, DetectionFormatError, "detection") as doc:
        image, width, height = str(doc["image"]), int(doc["width"]), int(doc["height"])
        dets = doc["detections"]
        class_ids = [int(d["class_id"]) for d in dets]
        names = (str(d["class_name"]) for d in dets)  # read lazily, in rule order
        names, conf = _check_fields(class_ids, names, (d["confidence"] for d in dets))
        raws = [d["bbox"] for d in dets]
        boxes = _coord_array(raws)
        _check_column(~(boxes[:, :2] >= boxes[:, 2:]), raws, "inverted bbox {}")
        # an image without boxes never converts its size to float, which overflows past 1e308
        limits = _sides([width, height] * 2 if raws else [0] * 4)
        # where, not maximum, so that -0.0 stays -0.0 as Python's max(-0.0, 0.0) leaves it
        boxes = np.minimum(np.where(boxes < 0.0, 0.0, boxes), limits)
        ok = boxes[:, :2] < boxes[:, 2:]
        _check_column(ok, raws, "bbox {} is empty after clamping to image bounds")
        columns = Columns(names, boxes, confidence=conf, class_ids=class_ids)
        return DetectionSet(image, width, height, columns)


def serialize_detections(ds: DetectionSet) -> bytes:
    """Canonical `.det.json` form: fixed field order, shortest float repr."""
    c = ds.columns
    return _dump({"image": ds.image_id, "width": ds.image_width, "height": ds.image_height,
                  "detections": _Table(class_id=c.class_ids, class_name=c.class_names,
                                       confidence=c.confidence.tolist(), bbox=c.boxes.tolist())})


def iou(
    a: BoundingBox | np.ndarray, b: BoundingBox | np.ndarray
) -> float | np.ndarray:
    """Intersection-over-union; 0 where boxes are disjoint.

    Given two BoundingBoxes, returns their IoU as a float. Given an (n, 4)
    and an (m, 4) float64 array of x0, y0, x1, y1 rows (boxes of positive
    area), returns the (n, m) IoU matrix. Both forms compute
    inter / (area_a + area_b - inter) with the same float64 operations.
    """
    if isinstance(a, BoundingBox):
        return float(iou(_coord_array([_bbox_list(a)]), _coord_array([_bbox_list(b)]))[0, 0])
    ax0, ay0, ax1, ay1 = a.T[:, :, None]
    bx0, by0, bx1, by1 = b.T
    ix = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    iy = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    # clipping makes a disjoint pair's inter 0.0, so its IoU is 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an area past float64: IoU 0.0 or NaN
        inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
        overlap = inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)
    return overlap


def filter_confidence(ds: DetectionSet, min_conf: float) -> DetectionSet:
    """Keep detections with confidence >= min_conf, order preserved."""
    _check_thresholds(min_conf=min_conf)
    return ds.take(np.flatnonzero(ds.columns.confidence >= min_conf))


def nms(ds: DetectionSet, iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> DetectionSet:
    """Greedy per-class non-maximum suppression.

    Boxes of different classes never suppress each other. Output is sorted by
    descending confidence; ties broken by original input index.
    """
    _check_thresholds(iou_threshold=iou_threshold)
    dets = ds.columns
    order = np.argsort(-dets.confidence, kind="stable")
    by_class: dict[int, list[int]] = {}
    for pos, i in enumerate(order.tolist()):
        by_class.setdefault(dets.class_ids[i], []).append(pos)
    ranked = dets.boxes[order]
    keep = np.ones(len(order), dtype=bool)
    block = 64  # rows of IoU at a time, so that memory grows linearly with the boxes
    for members in by_class.values():
        boxes = ranked[members]
        dropped = np.zeros(len(members), dtype=bool)
        for start in range(0, len(members), block):
            # row k: whether member start + k overlaps each member from start on
            over = iou(boxes[start : start + block], boxes[start:]) > iou_threshold
            for k in range(len(over)):
                if not dropped[start + k]:
                    dropped[start + k + 1 :] |= over[k, k + 1 :]
        keep[members] = ~dropped
    return ds.take(order[keep])
