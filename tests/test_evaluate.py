import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import REFERENCE_ERRORS, reference_iou
from monodist.detect import BoundingBox, Detection
from monodist.errors import DataError
from monodist.evaluate import (
    MATCH_IOU_THRESHOLD,
    GroundTruthObject,
    MatchedPair,
    build_report,
    evaluate_files,
    match_objects,
    parse_ground_truth,
    predicted_distance,
    render_table,
    rmse,
    serialize_ground_truth,
    serialize_report,
    threshold_accuracy,
)
from monodist.roi import ObjectDistance, serialize_distances


def pred(class_name, distance, x0=0.0, y0=0.0, x1=10.0, y1=10.0, calibrated=True):
    det = Detection(0, class_name, 0.9, BoundingBox(x0, y0, x1, y1))
    if calibrated:
        return ObjectDistance(det, rev=max(distance, 0.01), abs=distance)
    return ObjectDistance(det, rev=distance)


class TestMatchObjects:
    def test_single_class_match_by_order(self):
        pairs, up, ug = match_objects(
            [pred("chair", 3.45)], [GroundTruthObject("chair", 3.5)]
        )
        assert up == ug == 0
        assert len(pairs) == 1
        assert pairs[0].error == pytest.approx(0.05)

    def test_class_gate(self):
        pairs, up, ug = match_objects(
            [pred("car", 5.0)], [GroundTruthObject("person", 5.0)]
        )
        assert pairs == [] and up == 1 and ug == 1

    def test_left_to_right_fallback(self):
        preds = [
            pred("person", 12.1, x0=395, x1=405),
            pred("person", 8.2, x0=95, x1=105),
        ]
        gts = [GroundTruthObject("person", 8.0), GroundTruthObject("person", 12.0)]
        pairs, up, ug = match_objects(preds, gts)
        assert up == ug == 0
        by_truth = {p.truth: p.predicted for p in pairs}
        assert by_truth == {8.0: 8.2, 12.0: 12.1}

    def test_iou_matching_with_boxes(self):
        preds = [
            pred("person", 8.2, x0=100, x1=140, y0=50, y1=150),
            pred("person", 12.1, x0=400, x1=440, y0=50, y1=150),
        ]
        gts = [
            GroundTruthObject("person", 12.0, bbox=BoundingBox(401, 51, 441, 151)),
            GroundTruthObject("person", 8.0, bbox=BoundingBox(99, 49, 139, 149)),
        ]
        pairs, up, ug = match_objects(preds, gts)
        assert up == ug == 0
        by_truth = {p.truth: p.predicted for p in pairs}
        assert by_truth == {8.0: 8.2, 12.0: 12.1}

    def test_low_iou_not_matched(self):
        preds = [pred("person", 8.2, x0=0, x1=10)]
        gts = [GroundTruthObject("person", 8.0, bbox=BoundingBox(500, 0, 510, 10))]
        pairs, up, ug = match_objects(preds, gts)
        assert pairs == [] and up == 1 and ug == 1

    def test_gt_used_at_most_once(self):
        preds = [pred("car", 5.0, x0=0, x1=10), pred("car", 6.0, x0=1, x1=11)]
        gts = [GroundTruthObject("car", 5.5, bbox=BoundingBox(0, 0, 10, 10))]
        pairs, up, ug = match_objects(preds, gts)
        assert len(pairs) == 1 and up == 1 and ug == 0

    def test_uncalibrated_predictions_score_on_rev(self):
        pairs, _, _ = match_objects(
            [pred("car", 5.0, calibrated=False)], [GroundTruthObject("car", 5.5)]
        )
        assert pairs[0].predicted == 5.0


class TestMetrics:
    def test_reference_errors(self, reference_pairs):
        for pair, want in zip(reference_pairs, REFERENCE_ERRORS):
            assert pair.error == pytest.approx(want, abs=1e-9)

    def test_reference_rmse(self, reference_pairs):
        assert rmse(reference_pairs) == pytest.approx(0.3390, abs=0.0005)

    def test_reference_accuracy(self, reference_pairs):
        assert threshold_accuracy(reference_pairs, 0.2) == pytest.approx(5 / 9, abs=1e-12)

    def test_perfect_predictions(self):
        pairs = [MatchedPair("car", 5.0, 5.0)]
        assert rmse(pairs) == 0.0
        assert threshold_accuracy(pairs, 0.1) == 1.0

    def test_single_pair_rmse_is_error(self):
        assert rmse([MatchedPair("car", 5.3, 5.0)]) == pytest.approx(0.3)

    def test_tiny_threshold(self):
        pairs = [MatchedPair("car", 5.3, 5.0)]
        assert threshold_accuracy(pairs, 0.01) == 0.0

    def test_strict_inequality_at_threshold(self):
        pairs = [MatchedPair("car", 5.2, 5.0)]
        assert threshold_accuracy(pairs, 0.2) == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError):
            rmse([])
        with pytest.raises(DataError):
            threshold_accuracy([], 0.2)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_threshold_not_positive_finite_rejected(self, t):
        with pytest.raises(DataError, match="threshold"):
            threshold_accuracy([MatchedPair("car", 5.3, 5.0)], t)

    errors = st.lists(st.floats(0, 10), min_size=1, max_size=20)

    @given(errors)
    def test_rmse_definitional(self, errs):
        pairs = [MatchedPair("x", 10.0 + e, 10.0) for e in errs]
        acc = 0.0
        for e in errs:
            acc += e * e
        assert rmse(pairs) ** 2 == pytest.approx(acc / len(errs), rel=1e-12, abs=1e-12)

    @given(errors, st.floats(0.01, 5), st.floats(0.01, 5))
    def test_accuracy_monotone_in_threshold(self, errs, t1, t2):
        pairs = [MatchedPair("x", 10.0 + e, 10.0) for e in errs]
        lo, hi = min(t1, t2), max(t1, t2)
        assert threshold_accuracy(pairs, lo) <= threshold_accuracy(pairs, hi)


class TestReport:
    def test_reference_report(self, reference_pairs):
        report = build_report(reference_pairs, 0, 0, t=0.2)
        assert report.rmse == pytest.approx(0.3390, abs=0.0005)
        assert report.accuracy == pytest.approx(5 / 9)
        assert len(report.pairs) == 9

    def test_unmatched_counts_pass_through(self):
        report = build_report([MatchedPair("car", 5.0, 5.0)], 2, 1, t=0.2)
        assert report.unmatched_predictions == 2
        assert report.unmatched_truths == 1
        assert report.rmse == 0.0

    def test_render_deterministic(self, reference_pairs):
        report = build_report(reference_pairs, 0, 0, t=0.2)
        assert render_table(report) == render_table(report)

    def test_render_rounds_to_two_decimals(self):
        report = build_report([MatchedPair("chair", 3.45, 3.5)], 0, 0, t=0.2)
        table = render_table(report)
        assert "chair" in table
        assert "3.50" in table and "3.45" in table and "0.05" in table
        # stored value stays unrounded
        assert report.pairs[0].error == pytest.approx(0.05000000000000002, abs=1e-15)

    def test_serialize_deterministic(self, reference_pairs):
        report = build_report(reference_pairs, 0, 0, t=0.2)
        assert serialize_report(report) == serialize_report(report)


class TestGroundTruthFormat:
    def test_round_trip_with_and_without_boxes(self):
        gts = [
            GroundTruthObject("car", 53.9, bbox=BoundingBox(1, 2, 3, 4)),
            GroundTruthObject("person", 21.5),
        ]
        data = serialize_ground_truth("scene", gts)
        image_id, back = parse_ground_truth(data)
        assert image_id == "scene"
        assert back == gts
        assert serialize_ground_truth("scene", back) == data

    def test_non_positive_distance_rejected(self):
        with pytest.raises(Exception):
            parse_ground_truth(b'{"image": "x", "objects": [{"class_name": "car", "abs_m": 0}]}')


def reference_match_objects(preds, gts):
    """The pure-Python per-class greedy matching, the reference for `match_objects`."""
    pairs, used_preds, used_gts = [], set(), set()
    classes = sorted(
        {od.detection.class_name for od in preds} | {gt.class_name for gt in gts}
    )
    for cls in classes:
        p_idx = [i for i, od in enumerate(preds) if od.detection.class_name == cls]
        g_idx = [j for j, gt in enumerate(gts) if gt.class_name == cls]
        if not p_idx or not g_idx:
            continue
        if all(gts[j].bbox is not None for j in g_idx):
            candidates = sorted(
                (
                    (reference_iou(preds[i].detection.bbox, gts[j].bbox), i, j)
                    for i in p_idx
                    for j in g_idx
                ),
                key=lambda t: (-t[0], t[1], t[2]),
            )
            for overlap, i, j in candidates:
                if overlap <= MATCH_IOU_THRESHOLD:
                    break
                if i in used_preds or j in used_gts:
                    continue
                used_preds.add(i)
                used_gts.add(j)
                pairs.append(MatchedPair(cls, predicted_distance(preds[i]), gts[j].abs_distance))
        else:
            p_sorted = sorted(p_idx, key=lambda i: preds[i].detection.bbox.center_x)
            for i, j in zip(p_sorted, g_idx):
                used_preds.add(i)
                used_gts.add(j)
                pairs.append(MatchedPair(cls, predicted_distance(preds[i]), gts[j].abs_distance))
    return pairs, len(preds) - len(used_preds), len(gts) - len(used_gts)


CLASSES = st.sampled_from(["car", "person", "bus"])
# integer boxes on a small grid, and a few fixed boxes that overlap at IoU
# 1, exactly 0.5 and just above it, so that ties are common
grid_box = st.one_of(
    st.builds(
        lambda x0, y0, dx, dy: (x0, y0, x0 + dx, y0 + dy),
        st.integers(0, 6), st.integers(0, 6), st.integers(1, 5), st.integers(1, 5),
    ),
    st.sampled_from([(0, 0, 10, 1), (2, 0, 16, 1), (1, 0, 11, 1), (0, 0, 12, 1)]),
)
preds_st = st.lists(
    st.builds(lambda c, b, d: pred(c, d, *b), CLASSES, grid_box, st.integers(1, 50)),
    max_size=12,
)
gts_st = st.lists(
    st.builds(
        lambda c, b, d: GroundTruthObject(c, d, bbox=None if b is None else BoundingBox(*b)),
        CLASSES,
        st.one_of(grid_box, grid_box, grid_box, st.none()),
        st.integers(1, 50),
    ),
    max_size=12,
)


class TestMatchObjectsMatchesReference:
    @given(preds_st, gts_st)
    def test_same_pairs_and_counts(self, preds, gts):
        assert match_objects(preds, gts) == reference_match_objects(preds, gts)

    def test_iou_exactly_at_threshold_not_matched(self):
        preds = [pred("car", 5.0, 0, 0, 10, 1)]
        gts = [GroundTruthObject("car", 5.0, bbox=BoundingBox(2, 0, 16, 1))]
        assert reference_iou(preds[0].detection.bbox, gts[0].bbox) == 0.5
        assert match_objects(preds, gts) == reference_match_objects(preds, gts) == ([], 1, 1)

    def test_equal_iou_pairs_taken_in_pred_index_order(self):
        preds = [pred("car", 1.0, 0, 0, 10, 10), pred("car", 2.0, 20, 0, 30, 10)]
        gts = [
            GroundTruthObject("car", 3.0, bbox=BoundingBox(20, 0, 30, 10)),
            GroundTruthObject("car", 4.0, bbox=BoundingBox(0, 0, 10, 10)),
        ]
        got = match_objects(preds, gts)
        assert got == reference_match_objects(preds, gts)
        assert [(p.predicted, p.truth) for p in got[0]] == [(1.0, 4.0), (2.0, 3.0)]

    def test_many_equal_iou_candidates_keep_index_order(self):
        preds = [pred("car", 1.0 + i, 0, 0, 10, 10) for i in range(20)]
        gts = [GroundTruthObject("car", 30.0 + j, bbox=BoundingBox(0, 0, 10, 10)) for j in range(20)]
        got = match_objects(preds, gts)
        assert got == reference_match_objects(preds, gts)
        assert [(p.predicted, p.truth) for p in got[0]] == [(1.0 + k, 30.0 + k) for k in range(20)]

    def test_classes_never_cross(self):
        preds = [pred("car", 1.0, 0, 0, 10, 10), pred("bus", 2.0, 20, 0, 30, 10)]
        gts = [
            GroundTruthObject("bus", 3.0, bbox=BoundingBox(0, 0, 10, 10)),
            GroundTruthObject("car", 4.0, bbox=BoundingBox(20, 0, 30, 10)),
        ]
        assert match_objects(preds, gts) == reference_match_objects(preds, gts) == ([], 2, 2)

    def test_iou_ties_break_by_pred_then_gt_index(self):
        preds = [pred("car", 1.0, 1, 0, 11, 10), pred("car", 2.0, 0, 0, 10, 10)]
        gts = [
            GroundTruthObject("car", 3.0, bbox=BoundingBox(0, 0, 10, 10)),
            GroundTruthObject("car", 4.0, bbox=BoundingBox(0, 0, 10, 10)),
            GroundTruthObject("person", 5.0, bbox=BoundingBox(0, 0, 10, 10)),
        ]
        got = match_objects(preds, gts)
        assert got == reference_match_objects(preds, gts)
        assert [(p.predicted, p.truth) for p in got[0]] == [(2.0, 3.0), (1.0, 4.0)]
        assert got[1:] == (0, 1)

    def test_boxed_and_boxless_classes_in_class_order(self):
        preds = [
            pred("person", 8.0, 50, 0, 60, 10), pred("car", 5.0, 0, 0, 10, 10),
            pred("bus", 9.0, 20, 0, 30, 10), pred("person", 7.0, 0, 0, 10, 10),
        ]
        gts = [
            GroundTruthObject("person", 7.5),
            GroundTruthObject("car", 5.5, bbox=BoundingBox(0, 0, 10, 10)),
            GroundTruthObject("bus", 9.5, bbox=BoundingBox(20, 0, 30, 10)),
            GroundTruthObject("person", 8.5, bbox=BoundingBox(50, 0, 60, 10)),
        ]
        got = match_objects(preds, gts)
        assert got == reference_match_objects(preds, gts)
        assert [p.class_name for p in got[0]] == ["bus", "car", "person", "person"]

    def test_empty_inputs(self):
        gts = [GroundTruthObject("car", 5.0, bbox=BoundingBox(0, 0, 10, 10))]
        for preds, g in (([], []), ([pred("car", 5.0)], []), ([], gts)):
            assert match_objects(preds, g) == reference_match_objects(preds, g)


# ---- pair records against pair columns ----------------------------------------

NAMES = st.text(min_size=1, max_size=12) | st.sampled_from(["car", "café", "自行车"])
PREDICTED = st.floats(-50.0, 1e4) | st.sampled_from([-0.0, 5e-324, 999.995, 1e150])
TRUTHS = st.floats(1e-3, 1e4) | st.sampled_from([5e-324, 0.004, 1e150])
# an infinite error, and an error that squares past float64
OVERFLOWS = st.none() | st.sampled_from([("car", -1e308, 1e308), ("car", 1e200, 1.0)])


def outcome(build):
    try:
        return build()
    except DataError as e:
        return str(e)


@given(st.lists(st.tuples(NAMES, PREDICTED, TRUTHS), min_size=1, max_size=12), OVERFLOWS,
       st.floats(0.01, 10.0))
def test_report_from_columns_equals_report_from_records(rows, overflow, t):
    """`evaluate_files` (pair columns) and `build_report` on MatchedPair records agree."""
    rows = rows if overflow is None else [*rows, overflow]
    pairs = [MatchedPair(name, predicted, truth) for name, predicted, truth in rows]
    pred_files, gt_files = [], []
    for k, (name, predicted, truth) in enumerate(rows):  # one image per pair keeps their order
        det = Detection(0, name, 0.9, BoundingBox(0, 0, 10, 10))
        pred_files.append(serialize_distances(f"im{k:03d}", [ObjectDistance(det, 1.0, predicted)]))
        gt_files.append(serialize_ground_truth(f"im{k:03d}", [GroundTruthObject(name, truth)]))
    by_records = outcome(lambda: build_report(pairs, 0, 0, t))
    by_columns = outcome(lambda: evaluate_files(pred_files, gt_files, t))
    if isinstance(by_records, str):  # an error past float64: the same DataError
        assert by_columns == by_records
        return
    assert serialize_report(by_columns) == serialize_report(by_records)
    assert render_table(by_columns) == render_table(by_records)
    assert by_columns == by_records and hash(by_columns) == hash(by_records)
    assert repr(by_columns) == repr(by_records)
    # the row-wise sums, bit for bit
    mean_square = sum(p.error**2 for p in pairs) / len(pairs)
    accuracy = sum(1 for p in pairs if p.error < t) / len(pairs)
    for report in (by_columns, by_records):
        assert report.rmse.hex() == math.sqrt(mean_square).hex() == rmse(pairs).hex()
        assert report.accuracy.hex() == accuracy.hex() == threshold_accuracy(pairs, t).hex()
    # the record view reads as the tuple of records it stands for
    assert by_columns.pairs == tuple(pairs) and hash(by_columns.pairs) == hash(tuple(pairs))
    assert repr(by_columns.pairs) == repr(tuple(pairs)) and list(by_columns.pairs) == pairs
