"""Detection data model, JSON (de)serialization and detector postprocessing."""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .codec import _decode, _dump
from .errors import DataError, DetectionFormatError

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
            object.__setattr__(self, name, float(getattr(self, name)))
        # finite, non-negative and non-empty; no NaN passes a comparison
        if not (0.0 <= self.x0 < self.x1 < math.inf and 0.0 <= self.y0 < self.y1 < math.inf):
            raise DataError(f"non-finite, negative, inverted or empty bbox {_bbox_list(self)}")

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
        object.__setattr__(self, "confidence", float(self.confidence))
        if self.class_id < 0:
            raise DataError(f"negative class_id {self.class_id}")
        if not self.class_name:
            raise DataError("empty class_name")
        if not 0.0 <= self.confidence <= 1.0:
            raise DataError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class DetectionSet:
    """All detections for one image, in detector output order."""

    image_id: str
    image_width: int
    image_height: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        if self.image_width <= 0 or self.image_height <= 0:
            raise DataError(
                f"image dimensions must be positive, got {self.image_width}x{self.image_height}"
            )
        object.__setattr__(self, "detections", tuple(self.detections))


def _bbox_list(box: BoundingBox) -> list[float]:
    """Encode a box as the `[x0, y0, x1, y1]` list every record format uses."""
    return [box.x0, box.y0, box.x1, box.y1]


def _bbox_coords(raw) -> tuple[float, float, float, float]:
    """Decode a `[x0, y0, x1, y1]` list into four floats; the caller builds the box."""
    if not (isinstance(raw, list) and len(raw) == 4):
        raise DataError(f"bbox must be a 4-element list, got {raw!r}")
    x0, y0, x1, y1 = raw
    return float(x0), float(y0), float(x1), float(y1)


def _floats(values: list) -> np.ndarray:
    """A float64 column of decoded JSON values, each converted exactly as ``float`` does."""
    return np.fromiter(map(float, values), np.float64, len(values))


def _check_column(ok: np.ndarray, values, message: str) -> None:
    """Raise DataError naming the first of `values` whose row of `ok` holds a False."""
    if not ok.all():
        raise DataError(message.format(values[np.unravel_index(ok.argmin(), ok.shape)[0]]))


def _bbox_array(raws: list) -> np.ndarray:
    """Decode `[x0, y0, x1, y1]` lists into an (n, 4) float64 array; the BoundingBox rule holds."""
    bad = [raw for raw in raws if not (isinstance(raw, list) and len(raw) == 4)]
    if bad:
        raise DataError(f"bbox must be a 4-element list, got {bad[0]!r}")
    boxes = _floats([c for raw in raws for c in raw]).reshape(-1, 4)
    near, far = boxes[:, :2], boxes[:, 2:]
    ok = (near >= 0.0) & (near < far) & (far < math.inf)
    _check_column(ok, raws, "non-finite, negative, inverted or empty bbox {!r}")
    return boxes


def _clamp_bbox(raw, width: int, height: int) -> BoundingBox:
    x0, y0, x1, y1 = _bbox_coords(raw)
    if x0 >= x1 or y0 >= y1:
        raise DataError(f"inverted bbox {raw}")
    x0 = min(max(x0, 0.0), float(width))
    x1 = min(max(x1, 0.0), float(width))
    y0 = min(max(y0, 0.0), float(height))
    y1 = min(max(y1, 0.0), float(height))
    if x0 >= x1 or y0 >= y1:
        raise DataError(f"bbox {raw} is empty after clamping to image bounds")
    return BoundingBox(x0, y0, x1, y1)


def parse_detections(data: bytes | str) -> DetectionSet:
    """Parse the `.det.json` format. Boxes are clamped to image bounds."""
    with _decode(data, DetectionFormatError, "detection") as doc:
        image = str(doc["image"])
        width = int(doc["width"])
        height = int(doc["height"])
        dets = [
            Detection(
                class_id=int(d["class_id"]),
                class_name=str(d["class_name"]),
                confidence=d["confidence"],
                bbox=_clamp_bbox(d["bbox"], width, height),
            )
            for d in doc["detections"]
        ]
        return DetectionSet(image, width, height, tuple(dets))


def serialize_detections(ds: DetectionSet) -> bytes:
    """Canonical `.det.json` form: fixed field order, shortest float repr."""
    return _dump({
        "image": ds.image_id,
        "width": ds.image_width,
        "height": ds.image_height,
        "detections": [
            {
                "class_id": d.class_id,
                "class_name": d.class_name,
                "confidence": d.confidence,
                "bbox": _bbox_list(d.bbox),
            }
            for d in ds.detections
        ],
    })


def _box_array(boxes: Iterable[BoundingBox | None]) -> np.ndarray:
    """The (n, 4) float64 array of x0, y0, x1, y1 rows that `iou` takes; None gives a NaN row."""
    return np.array(
        [(math.nan,) * 4 if b is None else (b.x0, b.y0, b.x1, b.y1) for b in boxes],
        dtype=np.float64,
    ).reshape(-1, 4)


def iou(
    a: BoundingBox | np.ndarray, b: BoundingBox | np.ndarray
) -> float | np.ndarray:
    """Intersection-over-union; 0 where boxes are disjoint.

    Given two BoundingBoxes, returns their IoU as a float. Given an (n, 4)
    and an (m, 4) float64 array of x0, y0, x1, y1 rows (boxes of positive
    area), returns the (n, m) IoU matrix. Both forms compute
    inter / (area_a + area_b - inter) with the same float64 operations.
    """
    scalar = isinstance(a, BoundingBox)
    if scalar:
        a, b = _box_array([a]), _box_array([b])
    ax0, ay0, ax1, ay1 = a.T[:, :, None]
    bx0, by0, bx1, by1 = b.T
    ix = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    iy = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    # clipping makes a disjoint pair's inter 0.0, so its IoU is 0.0
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    overlap = inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)
    return float(overlap[0, 0]) if scalar else overlap


def filter_confidence(ds: DetectionSet, min_conf: float) -> DetectionSet:
    """Keep detections with confidence >= min_conf, order preserved."""
    if not 0.0 <= min_conf <= 1.0:
        raise DataError(f"min_conf {min_conf} outside [0, 1]")
    kept = tuple(d for d in ds.detections if d.confidence >= min_conf)
    return replace(ds, detections=kept)


def nms(ds: DetectionSet, iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> DetectionSet:
    """Greedy per-class non-maximum suppression.

    Boxes of different classes never suppress each other. Output is sorted by
    descending confidence; ties broken by original input index.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise DataError(f"iou_threshold {iou_threshold} outside (0, 1)")
    order = sorted(
        range(len(ds.detections)), key=lambda i: (-ds.detections[i].confidence, i)
    )
    ranked = [ds.detections[i] for i in order]
    by_class: dict[int, list[int]] = {}
    for pos, d in enumerate(ranked):
        by_class.setdefault(d.class_id, []).append(pos)
    boxes = _box_array(d.bbox for d in ranked)
    keep = np.ones(len(ranked), dtype=bool)
    for members in by_class.values():
        # the first alive box of a class is kept; it drops the later ones it overlaps
        alive = np.array(members)
        while alive.size > 1:
            head, rest = alive[0], alive[1:]
            overlap = iou(boxes[head : head + 1], boxes[rest])[0]
            keep[rest[overlap > iou_threshold]] = False
            alive = rest[overlap <= iou_threshold]
    return replace(ds, detections=tuple(d for d, k in zip(ranked, keep.tolist()) if k))
