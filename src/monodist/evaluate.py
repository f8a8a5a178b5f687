"""Prediction/ground-truth matching and the distance metrics (RMSE, threshold accuracy)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .codec import _decode, _dump
from .detect import BoundingBox, _bbox_array, _bbox_list, _box_array, _check_column, _floats, iou
from .errors import DataError, DetectionFormatError
from .roi import Columns, ObjectDistance, _distance_columns, decode_distances

MATCH_IOU_THRESHOLD = 0.5
DEFAULT_ACCURACY_THRESHOLD_M = 0.2


@dataclass(frozen=True)
class GroundTruthObject:
    class_name: str
    abs_distance: float
    bbox: BoundingBox | None = None

    def __post_init__(self):
        object.__setattr__(self, "abs_distance", float(self.abs_distance))
        _check_truths(np.array([self.abs_distance]))


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
    """`match_columns` on prediction and ground-truth records."""
    truths = Columns([gt.class_name for gt in gts], _box_array(gt.bbox for gt in gts))
    distances = np.array([gt.abs_distance for gt in gts])
    return match_columns(_distance_columns(preds), truths._replace(distances=distances))


def match_columns(p: Columns, g: Columns) -> tuple[list[MatchedPair], int, int]:
    """Pair predictions with ground truth per class.

    With GT boxes: greedy max-IoU matching, pairs above 0.5 IoU taken in
    descending order. Without GT boxes: predictions sorted by box center-x
    are paired against the GT list order (ground truth listed left to
    right). Returns (pairs, unmatched predictions, unmatched truths);
    classes never cross and no pair is fabricated.
    """
    shared = set(p.class_names) & set(g.class_names)
    no_box = np.isnan(g.boxes[:, 0]).tolist()
    boxless = shared.intersection(c for c, nb in zip(g.class_names, no_box) if nb)
    matched: dict[str, list[tuple[int, int]]] = {}
    if boxless:
        center_x = (0.5 * (p.boxes[:, 0] + p.boxes[:, 2])).tolist()
        for cls in boxless:
            p_idx = [i for i, c in enumerate(p.class_names) if c == cls]
            g_idx = [j for j, c in enumerate(g.class_names) if c == cls]
            matched[cls] = list(zip(sorted(p_idx, key=center_x.__getitem__), g_idx))

    # codes of the classes matched by IoU; -1 and -2 (a class one side lacks,
    # or boxless) never match, so boxless GT rows' NaN IoU is masked out
    code = {cls: k for k, cls in enumerate(shared - boxless)}
    if code:
        overlap = iou(p.boxes, g.boxes)
        p_cls = np.array([code.get(c, -1) for c in p.class_names])
        g_cls = np.array([code.get(c, -2) for c in g.class_names])
        rows, cols = np.nonzero((overlap > MATCH_IOU_THRESHOLD) & (p_cls[:, None] == g_cls))
        # nonzero lists candidates by pred then GT index, so a stable sort on
        # descending IoU gives the greedy order; classes share no index, so
        # their candidates may interleave
        order = np.argsort(-overlap[rows, cols], kind="stable")
        used_preds, used_gts = set(), set()
        for i, j in zip(rows[order].tolist(), cols[order].tolist()):
            if i not in used_preds and j not in used_gts:
                used_preds.add(i)
                used_gts.add(j)
                matched.setdefault(p.class_names[i], []).append((i, j))

    p_dist, g_dist = p.distances.tolist(), g.distances.tolist()
    pairs = [MatchedPair(c, p_dist[i], g_dist[j]) for c in sorted(matched) for i, j in matched[c]]
    return pairs, len(p_dist) - len(pairs), len(g_dist) - len(pairs)


def rmse(pairs: list[MatchedPair]) -> float:
    if not pairs:
        raise DataError("rmse of an empty pair list is undefined")
    return math.sqrt(sum(p.error**2 for p in pairs) / len(pairs))


def threshold_accuracy(pairs: list[MatchedPair], t: float) -> float:
    """Fraction of pairs with error strictly below t."""
    if not pairs:
        raise DataError("accuracy of an empty pair list is undefined")
    if not (t > 0 and math.isfinite(t)):
        raise DataError(f"threshold must be a positive finite distance, got {t}")
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


def evaluate_files(
    pred_files: list[bytes], gt_files: list[bytes], t: float = DEFAULT_ACCURACY_THRESHOLD_M
) -> MetricsReport:
    """Score `.dist.json` against `.gt.json` documents, one image at a time.

    Images go in id order; the documents of one image are concatenated in list order.
    """
    images: dict[str, tuple[list[Columns], list[Columns]]] = {}
    decoders = ((pred_files, decode_distances), (gt_files, decode_ground_truth))
    for side, (files, decode) in enumerate(decoders):
        for data in files:
            image, columns = decode(data)
            images.setdefault(image, ([], []))[side].append(columns)
    pairs, unmatched_preds, unmatched_gts = [], 0, 0
    for image in sorted(images):
        got, up, ug = match_columns(*map(_concat, images[image]))
        pairs += got
        unmatched_preds += up
        unmatched_gts += ug
    if not pairs:
        raise DataError("no matched prediction/ground-truth pairs")
    return build_report(pairs, unmatched_preds, unmatched_gts, t)


def _concat(parts: list[Columns]) -> Columns:
    if len(parts) == 1:
        return parts[0]
    # the empty tail makes an image that one side lacks match nothing
    names, boxes, distances, *_ = zip(*parts, Columns([], np.empty((0, 4)), np.empty(0)))
    return Columns([c for n in names for c in n], np.concatenate(boxes), np.concatenate(distances))


def _check_truths(distances: np.ndarray) -> None:
    """The GroundTruthObject rule: every distance of a float64 column is positive and finite."""
    ok = (distances > 0.0) & (distances < math.inf)
    _check_column(ok, distances, "ground-truth distance must be positive, got {}")


def decode_ground_truth(data: bytes | str) -> tuple[str, Columns]:
    """Decode `.gt.json` into columns; bbox is optional per object."""
    with _decode(data, DetectionFormatError, "ground-truth") as doc:
        image, objects = str(doc["image"]), doc["objects"]
        names = [str(o["class_name"]) for o in objects]
        distances = _floats([o["abs_m"] for o in objects])
        _check_truths(distances)
        raw = [o.get("bbox") for o in objects]
        boxes = np.full((len(raw), 4), math.nan)
        boxes[[b is not None for b in raw]] = _bbox_array([b for b in raw if b is not None])
        return image, Columns(names, boxes, distances)


def parse_ground_truth(data: bytes | str) -> tuple[str, list[GroundTruthObject]]:
    """Parse the `.gt.json` format into records; bbox is optional per object."""
    image, g = decode_ground_truth(data)
    return image, [
        GroundTruthObject(name, dist, None if math.isnan(box[0]) else BoundingBox(*box))
        for name, box, dist in zip(g.class_names, g.boxes.tolist(), g.distances.tolist())
    ]


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
    columns = [[p.class_name for p in report.pairs]] + [
        list(map("{:.2f}".format, map(attrgetter(name), report.pairs)))
        for name in ("truth", "predicted", "error")
    ]
    widths = [max(map(len, (h, *c))) for h, c in zip(headers, columns)]
    # the last column is left unpadded: a rounded number never ends in a space
    row = "  ".join([*(f"{{:{w}}}" for w in widths[:-1]), "{}"])
    rule = "  ".join("-" * w for w in widths)
    lines = [row.format(*headers), rule, *map(row.format, *columns), ""]
    lines.append(
        f"RMSE: {report.rmse:.4f} m   accuracy(T={report.threshold:g} m): {report.accuracy:.4f}   "
        f"unmatched preds: {report.unmatched_predictions}   unmatched GT: {report.unmatched_truths}"
    )
    return "\n".join(lines) + "\n"
