"""Prediction/ground-truth matching and the distance metrics (RMSE, threshold accuracy)."""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .codec import _Table, _decode, _dump
from .detect import BoundingBox, _bbox_array, _bbox_list, _check_column, _floats, _Rows, iou
from .errors import DataError, DetectionFormatError, _float
from .roi import Columns, ObjectDistance, _distance_columns, decode_distances

MATCH_IOU_THRESHOLD = 0.5
DEFAULT_ACCURACY_THRESHOLD_M = 0.2


@dataclass(frozen=True)
class GroundTruthObject:
    class_name: str
    abs_distance: float
    bbox: BoundingBox | None = None

    def __post_init__(self):
        object.__setattr__(self, "abs_distance", _float(self.abs_distance))
        _check_truths(np.array([self.abs_distance]))


@dataclass(frozen=True)
class MatchedPair:
    class_name: str
    predicted: float
    truth: float
    error: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "predicted", float(self.predicted))
        object.__setattr__(self, "truth", float(self.truth))
        object.__setattr__(self, "error", abs(self.predicted - self.truth))


class _Pairs(NamedTuple):
    """Matched pairs in report order, one list per report field."""

    class_name: list[str]
    truth_m: list[float]
    predicted_m: list[float]
    error_m: list[float]

    def records(self) -> tuple[MatchedPair, ...]:
        return tuple(map(MatchedPair, self.class_name, self.predicted_m, self.truth_m))


@dataclass(frozen=True)
class MetricsReport:
    """Scores of matched pairs, given as records or pair columns; records are built lazily."""

    pairs: Sequence[MatchedPair]
    rmse: float
    accuracy: float
    threshold: float
    unmatched_predictions: int
    unmatched_truths: int

    def __post_init__(self):
        object.__setattr__(self, "pairs", _pair_rows(self.pairs))


def _pair_rows(pairs: Sequence[MatchedPair]) -> _Rows:
    """Pair records or columns as the record view of their columns; records become columns once."""
    if isinstance(pairs, _Rows):
        return pairs
    if not isinstance(pairs, _Pairs):
        fields = ("class_name", "truth", "predicted", "error")
        pairs = _Pairs(*(list(map(attrgetter(f), pairs)) for f in fields))
    return _Rows(pairs, _Pairs.records)


def predicted_distance(od: ObjectDistance) -> float:
    """The distance a prediction is scored on: calibrated ABS when present, else REV."""
    return od.abs if od.abs is not None else od.rev


def match_objects(
    preds: list[ObjectDistance], gts: list[GroundTruthObject]
) -> tuple[list[MatchedPair], int, int]:
    """`match_columns` on prediction and ground-truth records."""
    boxes = _truth_boxes([None if gt.bbox is None else _bbox_list(gt.bbox) for gt in gts])
    truths = Columns([gt.class_name for gt in gts], boxes, _floats([gt.abs_distance for gt in gts]))
    p = _distance_columns(preds)
    rows = match_columns(p, truths)
    pairs = [MatchedPair(p.class_names[i], p.distances[i], truths.distances[j]) for i, j in rows]
    return pairs, len(preds) - len(pairs), len(gts) - len(pairs)


def match_columns(p: Columns, g: Columns) -> list[tuple[int, int]]:
    """Pair predictions with ground truth per class.

    With GT boxes: greedy max-IoU matching, pairs above 0.5 IoU taken in
    descending order. Without GT boxes: predictions sorted by box center-x
    are paired against the GT list order (ground truth listed left to
    right). Returns the (prediction row, truth row) of each pair, by class
    name and then in match order; classes never cross and no pair is
    fabricated.
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

    return [ij for c in sorted(matched) for ij in matched[c]]


def rmse(pairs: list[MatchedPair]) -> float:
    if not pairs:
        raise DataError("rmse of an empty pair list is undefined")
    try:
        mean_square = sum(e**2 for e in _pair_rows(pairs).columns.error_m) / len(pairs)
    except OverflowError:  # an error past about 1e154 squares beyond float64
        mean_square = math.inf
    if mean_square == math.inf:  # so also an infinite error, or squares summing past float64
        raise DataError("rmse overflows float64; distances too large")
    return math.sqrt(mean_square)


def threshold_accuracy(pairs: list[MatchedPair], t: float) -> float:
    """Fraction of pairs with error strictly below t."""
    if not pairs:
        raise DataError("accuracy of an empty pair list is undefined")
    if not (t > 0 and math.isfinite(t)):
        raise DataError(f"threshold must be a positive finite distance, got {t}")
    return sum(1 for e in _pair_rows(pairs).columns.error_m if e < t) / len(pairs)


def build_report(
    pairs: list[MatchedPair],
    unmatched_predictions: int,
    unmatched_truths: int,
    t: float = DEFAULT_ACCURACY_THRESHOLD_M,
) -> MetricsReport:
    pairs = _pair_rows(pairs)
    scores = rmse(pairs), threshold_accuracy(pairs, t), t
    return MetricsReport(pairs, *scores, unmatched_predictions, unmatched_truths)


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
    names, predicted, truth, unmatched_preds, unmatched_gts = [], [], [], 0, 0
    for image in sorted(images):
        p, g = map(_concat, images[image])
        rows = match_columns(p, g)
        p_dist, g_dist = p.distances.tolist(), g.distances.tolist()
        names += [p.class_names[i] for i, _ in rows]
        predicted += [p_dist[i] for i, _ in rows]
        truth += [g_dist[j] for _, j in rows]
        unmatched_preds += len(p_dist) - len(rows)
        unmatched_gts += len(g_dist) - len(rows)
    if not names:
        raise DataError("no matched prediction/ground-truth pairs")
    error = [abs(p - t) for p, t in zip(predicted, truth)]  # MatchedPair's formula
    return build_report(_Pairs(names, truth, predicted, error), unmatched_preds, unmatched_gts, t)


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
        return image, Columns(names, _truth_boxes([o.get("bbox") for o in objects]), distances)


def _truth_boxes(raws: list) -> np.ndarray:
    """The box array of optional ground-truth `[x0, y0, x1, y1]` lists; None gives a NaN row."""
    boxes = np.full((len(raws), 4), math.nan)
    boxes[[b is not None for b in raws]] = _bbox_array([b for b in raws if b is not None])
    return boxes


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
        "pairs": _Table(report.pairs.columns._asdict()),
    })


def render_table(report: MetricsReport) -> str:
    """Plain-text per-object table; values rounded to 2 decimals here only."""
    headers = ("Object", "Absolute distance (m)", "Predicted distance (m)", "Error (m)")
    names, *values = report.pairs.columns
    columns = [names, *(list(map("{:.2f}".format, v)) for v in values)]
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
