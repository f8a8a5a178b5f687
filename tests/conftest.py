import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import monodist
from monodist.codec import _decode
from monodist.detect import BoundingBox, Detection, DetectionSet, _coord_array
from monodist.errors import DataError, DetectionFormatError
from monodist.evaluate import GroundTruthObject, MatchedPair
from monodist.maps import MapKind, ScalarMap, depth_to_disparity_value
from monodist.roi import ObjectDistance, _project

# numpy/BLAS warmup makes first-example timings meaningless
settings.register_profile("default", deadline=None)
# HYPOTHESIS_PROFILE=ci draws 20x the examples, for a CI step that runs a few files
settings.register_profile("ci", settings.get_profile("default"), max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# (class, absolute, predicted) rows of the reference outdoor measurement set
REFERENCE_ROWS = [
    ("car", 53.9, 53.21),
    ("person", 21.5, 21.35),
    ("bus", 48.7, 48.13),
    ("chair", 3.5, 3.45),
    ("person", 8.0, 8.09),
    ("car", 10.1, 9.83),
    ("person", 8.0, 8.13),
    ("person", 12.0, 11.69),
    ("person", 4.0, 3.88),
]


def checkout_env():
    """The environment for a child interpreter that imports this checkout's monodist."""
    src = str(Path(monodist.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def reference_iou(a, b):
    """The scalar IoU formula of two BoundingBoxes, the reference for `detect.iou`."""
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def reference_nms(ds, iou_threshold):
    """The pure-Python greedy NMS, kept as the reference for `nms`."""
    order = sorted(
        range(len(ds.detections)), key=lambda i: (-ds.detections[i].confidence, i)
    )
    kept = []
    for i in order:
        d = ds.detections[i]
        suppressed = any(
            ds.detections[k].class_id == d.class_id
            and reference_iou(ds.detections[k].bbox, d.bbox) > iou_threshold
            for k in kept
        )
        if not suppressed:
            kept.append(i)
    return replace(ds, detections=tuple(ds.detections[i] for i in kept))


def reference_render(spec):
    """The per-pixel renderer, kept as the reference for `synth.render_scene`.

    It paints each object's depth into a float64 depth frame, then converts,
    adds noise to, clips and rounds to float32 every pixel of it.
    """
    depth = np.full((spec.map_height, spec.map_width), spec.background_depth, dtype=np.float64)
    dims = (spec.map_width, spec.map_height)
    boxes = _coord_array([[o.bbox.x0, o.bbox.y0, o.bbox.x1, o.bbox.y1] for o in spec.objects])
    placed = zip(spec.objects, _project(boxes, dims, dims).tolist())
    for obj, (col0, row0, col1, row1) in sorted(placed, key=lambda p: -p[0].depth):
        depth[row0:row1, col0:col1] = obj.depth
    disparity = depth_to_disparity_value(depth, spec.depth_range)
    if spec.noise_amplitude > 0:
        rng = np.random.default_rng(spec.seed)
        disparity = disparity + rng.uniform(
            -spec.noise_amplitude, spec.noise_amplitude, size=disparity.shape
        )
    disparity = np.clip(disparity, 0.0, 1.0).astype(np.float32).astype(np.float64)
    disp_map = ScalarMap(spec.map_width, spec.map_height, MapKind.DISPARITY, disparity)
    detections = DetectionSet("synthetic", spec.map_width, spec.map_height, tuple(
        Detection(i, o.class_name, 1.0, o.bbox) for i, o in enumerate(spec.objects)
    ))
    gts = [GroundTruthObject(o.class_name, o.depth, o.bbox) for o in spec.objects]
    return disp_map, detections, gts


def reference_bbox(raw):
    """The per-box decode and checks of a `[x0, y0, x1, y1]` list, one rule at a time."""
    coords = tuple(_coord_array([raw]).tolist()[0])
    if not all(c == c and abs(c) != float("inf") for c in coords):
        raise DataError(f"non-finite bbox {coords}")
    if min(coords) < 0:
        raise DataError(f"negative bbox coordinate in {coords}")
    x0, y0, x1, y1 = coords
    if x0 >= x1 or y0 >= y1:
        raise DataError(f"inverted or empty bbox {coords}")
    return BoundingBox(*coords)


def reference_clamp_bbox(raw, width, height):
    """The per-box decode and clamp of a `.det.json` bbox, one rule at a time."""
    x0, y0, x1, y1 = _coord_array([raw]).tolist()[0]
    if x0 >= x1 or y0 >= y1:
        raise DataError(f"inverted bbox {raw}")
    x0 = min(max(x0, 0.0), float(width))
    x1 = min(max(x1, 0.0), float(width))
    y0 = min(max(y0, 0.0), float(height))
    y1 = min(max(y1, 0.0), float(height))
    if x0 >= x1 or y0 >= y1:
        raise DataError(f"bbox {raw} is empty after clamping to image bounds")
    return BoundingBox(x0, y0, x1, y1)


def reference_parse_detections(data):
    """The record-by-record `.det.json` parser, the reference for `detect.parse_detections`."""
    with _decode(data, DetectionFormatError, "detection") as doc:
        image = str(doc["image"])
        width = int(doc["width"])
        height = int(doc["height"])
        dets = [
            Detection(
                class_id=int(d["class_id"]),
                class_name=str(d["class_name"]),
                confidence=d["confidence"],
                bbox=reference_clamp_bbox(d["bbox"], width, height),
            )
            for d in doc["detections"]
        ]
        return DetectionSet(image, width, height, tuple(dets))


def reference_parse_distances(data):
    """The record-by-record `.dist.json` parser, the reference for `roi.decode_distances`."""
    with _decode(data, DetectionFormatError, "distances") as doc:
        return str(doc["image"]), [
            ObjectDistance(
                detection=Detection(
                    class_id=0,
                    class_name=str(o["class_name"]),
                    confidence=o["confidence"],
                    bbox=reference_bbox(o["bbox"]),
                ),
                rev=o["rev_m"],
                abs=o["abs_m"],
            )
            for o in doc["objects"]
        ]


def reference_parse_ground_truth(data):
    """The record-by-record `.gt.json` parser, the reference for `evaluate.decode_ground_truth`."""
    with _decode(data, DetectionFormatError, "ground-truth") as doc:
        image = str(doc["image"])
        objects = []
        for o in doc["objects"]:
            if not isinstance(o, dict):
                raise DataError(f"ground-truth object must be a JSON object, got {o!r}")
            bbox = o.get("bbox")
            objects.append(
                GroundTruthObject(
                    class_name=str(o["class_name"]),
                    abs_distance=o["abs_m"],
                    bbox=None if bbox is None else reference_bbox(bbox),
                )
            )
        return image, objects


REFERENCE_ERRORS = [0.69, 0.15, 0.57, 0.05, 0.09, 0.27, 0.13, 0.31, 0.12]


def reference_render_table(report):
    """The row-wise evaluate table that `evaluate.render_table` must reproduce."""
    headers = ("Object", "Absolute distance (m)", "Predicted distance (m)", "Error (m)")
    rows = [
        (p.class_name, f"{p.truth:.2f}", f"{p.predicted:.2f}", f"{p.error:.2f}")
        for p in report.pairs
    ]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    lines.append("")
    lines.append(
        f"RMSE: {report.rmse:.4f} m   accuracy(T={report.threshold:g} m): {report.accuracy:.4f}   "
        f"unmatched preds: {report.unmatched_predictions}   unmatched GT: {report.unmatched_truths}"
    )
    return "\n".join(lines) + "\n"


@pytest.fixture
def reference_pairs():
    return [MatchedPair(cls, pred, truth) for cls, truth, pred in REFERENCE_ROWS]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
