"""Prediction/ground-truth matching and the distance metrics (RMSE, threshold accuracy)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import _decode, _dump
from .detect import BoundingBox, _bbox_coords, _bbox_list, _box_array, iou
from .errors import DataError, DetectionFormatError
from .roi import ObjectDistance

MATCH_IOU_THRESHOLD = 0.5
DEFAULT_ACCURACY_THRESHOLD_M = 0.2


@dataclass(frozen=True)
class GroundTruthObject:
    class_name: str
    abs_distance: float
    bbox: BoundingBox | None = None

    def __post_init__(self):
        object.__setattr__(self, "abs_distance", float(self.abs_distance))
        if not (self.abs_distance > 0 and math.isfinite(self.abs_distance)):
            raise DataError(f"ground-truth distance must be positive, got {self.abs_distance}")


@dataclass(frozen=True)
class MatchedPair:
    class_name: str
    predicted: float
    truth: float

    def __post_init__(self):
        object.__setattr__(self, "predicted", float(self.predicted))
        object.__setattr__(self, "truth", float(self.truth))

    @property
    def error(self) -> float:
        return abs(self.predicted - self.truth)


@dataclass(frozen=True)
class MetricsReport:
    pairs: tuple[MatchedPair, ...]
    rmse: float
    accuracy: float
    threshold: float
    unmatched_predictions: int
    unmatched_truths: int


def predicted_distance(od: ObjectDistance) -> float:
    """The distance a prediction is scored on: calibrated ABS when present, else REV."""
    return od.abs if od.abs is not None else od.rev


def match_objects(
    preds: list[ObjectDistance], gts: list[GroundTruthObject]
) -> tuple[list[MatchedPair], int, int]:
    """Pair predictions with ground truth per class.

    With GT boxes: greedy max-IoU matching, pairs above 0.5 IoU taken in
    descending order. Without GT boxes: predictions sorted by box center-x
    are paired against the GT list order (ground truth listed left to
    right). Returns (pairs, unmatched predictions, unmatched truths);
    classes never cross and no pair is fabricated.
    """
    p_of: dict[str, list[int]] = {}
    for i, od in enumerate(preds):
        p_of.setdefault(od.detection.class_name, []).append(i)
    g_of: dict[str, list[int]] = {}
    for j, gt in enumerate(gts):
        g_of.setdefault(gt.class_name, []).append(j)

    matched: dict[str, list[tuple[int, int]]] = {}
    # indices of the classes matched by IoU, with a class code per index
    boxed_p: list[int] = []
    boxed_g: list[int] = []
    p_cls: list[int] = []
    g_cls: list[int] = []
    for code, cls in enumerate(sorted(p_of.keys() & g_of.keys())):
        p_idx, g_idx = p_of[cls], g_of[cls]
        if all(gts[j].bbox is not None for j in g_idx):
            boxed_p += p_idx
            boxed_g += g_idx
            p_cls += [code] * len(p_idx)
            g_cls += [code] * len(g_idx)
        else:
            p_sorted = sorted(p_idx, key=lambda i: preds[i].detection.bbox.center_x)
            matched[cls] = list(zip(p_sorted, g_idx))

    if boxed_p:
        overlap = iou(
            _box_array(preds[i].detection.bbox for i in boxed_p),
            _box_array(gts[j].bbox for j in boxed_g),
        )
        rows, cols = np.nonzero(
            (overlap > MATCH_IOU_THRESHOLD) & (np.array(p_cls)[:, None] == np.array(g_cls))
        )
        # nonzero lists candidates by pred then GT position (index order within a
        # class), so a stable sort on descending IoU gives the greedy order;
        # classes share no index, so their candidates may interleave
        order = np.argsort(-overlap[rows, cols], kind="stable")
        used_preds: set[int] = set()
        used_gts: set[int] = set()
        for r, c in zip(rows[order].tolist(), cols[order].tolist()):
            i, j = boxed_p[r], boxed_g[c]
            if i in used_preds or j in used_gts:
                continue
            used_preds.add(i)
            used_gts.add(j)
            matched.setdefault(preds[i].detection.class_name, []).append((i, j))

    pairs = [
        MatchedPair(cls, predicted_distance(preds[i]), gts[j].abs_distance)
        for cls in sorted(matched)
        for i, j in matched[cls]
    ]
    return pairs, len(preds) - len(pairs), len(gts) - len(pairs)


def rmse(pairs: list[MatchedPair]) -> float:
    if not pairs:
        raise DataError("rmse of an empty pair list is undefined")
    return math.sqrt(sum(p.error**2 for p in pairs) / len(pairs))


def threshold_accuracy(pairs: list[MatchedPair], t: float) -> float:
    """Fraction of pairs with error strictly below t."""
    if not pairs:
        raise DataError("accuracy of an empty pair list is undefined")
    if t <= 0:
        raise DataError(f"threshold must be positive, got {t}")
    return sum(1 for p in pairs if p.error < t) / len(pairs)


def build_report(
    pairs: list[MatchedPair],
    unmatched_predictions: int,
    unmatched_truths: int,
    t: float = DEFAULT_ACCURACY_THRESHOLD_M,
) -> MetricsReport:
    return MetricsReport(
        pairs=tuple(pairs),
        rmse=rmse(pairs),
        accuracy=threshold_accuracy(pairs, t),
        threshold=t,
        unmatched_predictions=unmatched_predictions,
        unmatched_truths=unmatched_truths,
    )


def parse_ground_truth(data: bytes | str) -> tuple[str, list[GroundTruthObject]]:
    """Parse the `.gt.json` format; bbox is optional per object."""
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
                    bbox=None if bbox is None else BoundingBox(*_bbox_coords(bbox)),
                )
            )
        return image, objects


def serialize_ground_truth(image_id: str, gts: list[GroundTruthObject]) -> bytes:
    return _dump({
        "image": image_id,
        "objects": [
            {
                "class_name": gt.class_name,
                "abs_m": gt.abs_distance,
                **({"bbox": _bbox_list(gt.bbox)} if gt.bbox is not None else {}),
            }
            for gt in gts
        ],
    })


def serialize_report(report: MetricsReport) -> bytes:
    return _dump({
        "rmse_m": report.rmse,
        "accuracy": report.accuracy,
        "threshold_m": report.threshold,
        "unmatched_predictions": report.unmatched_predictions,
        "unmatched_truths": report.unmatched_truths,
        "pairs": [
            {
                "class_name": p.class_name,
                "truth_m": p.truth,
                "predicted_m": p.predicted,
                "error_m": p.error,
            }
            for p in report.pairs
        ],
    })


def render_table(report: MetricsReport) -> str:
    """Plain-text per-object table; values rounded to 2 decimals here only."""
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
