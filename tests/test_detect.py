import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_iou, reference_nms
from monodist.detect import (
    BoundingBox,
    Detection,
    DetectionSet,
    filter_confidence,
    iou,
    nms,
    parse_detections,
    serialize_detections,
)
from monodist.errors import DataError, DetectionFormatError


def det(x0, y0, x1, y1, conf=0.9, class_id=0, class_name="person"):
    return Detection(class_id, class_name, conf, BoundingBox(x0, y0, x1, y1))


def det_set(*dets, width=640, height=480):
    return DetectionSet("img", width, height, tuple(dets))


def doc_bytes(doc):
    return json.dumps(doc).encode()


BASE_DOC = {
    "image": "img",
    "width": 640,
    "height": 480,
    "detections": [
        {
            "class_id": 0,
            "class_name": "person",
            "confidence": 0.9,
            "bbox": [10, 20, 50, 120],
        }
    ],
}


class TestImageSize:
    @pytest.mark.parametrize("width, height", [(math.nan, 10), (10, math.nan), (0, 10), (10, -1)])
    def test_a_side_that_is_not_positive_is_rejected(self, width, height):
        with pytest.raises(DataError, match="image dimensions must be positive"):
            DetectionSet("x", width, height, [])

    @pytest.mark.parametrize("width, height", [(10**400, 10), (10, 10**400)], ids=["w", "h"])
    def test_a_side_past_float64_is_rejected_once_it_scales_a_box(self, width, height):
        assert len(DetectionSet("x", width, height, []).detections) == 0
        with pytest.raises(DataError, match="side past float64"):
            DetectionSet("x", width, height, [det(0, 0, 1, 1)])


class TestParse:
    def test_single_detection(self):
        ds = parse_detections(doc_bytes(BASE_DOC))
        assert len(ds.detections) == 1
        d = ds.detections[0]
        assert d.class_name == "person"
        assert d.bbox == BoundingBox(10, 20, 50, 120)

    def test_inverted_box_rejected(self):
        doc = dict(BASE_DOC)
        doc["detections"] = [dict(BASE_DOC["detections"][0], bbox=[50, 20, 10, 120])]
        with pytest.raises(DetectionFormatError):
            parse_detections(doc_bytes(doc))

    def test_out_of_bounds_clamped(self):
        doc = dict(BASE_DOC)
        doc["detections"] = [dict(BASE_DOC["detections"][0], bbox=[-5, 0, 650, 480])]
        ds = parse_detections(doc_bytes(doc))
        assert ds.detections[0].bbox == BoundingBox(0, 0, 640, 480)

    @pytest.mark.parametrize("missing", ["image", "width", "height", "detections"])
    def test_missing_field(self, missing):
        doc = {k: v for k, v in BASE_DOC.items() if k != missing}
        with pytest.raises(DetectionFormatError):
            parse_detections(doc_bytes(doc))

    def test_bad_confidence(self):
        doc = dict(BASE_DOC)
        doc["detections"] = [dict(BASE_DOC["detections"][0], confidence=1.5)]
        with pytest.raises(DetectionFormatError):
            parse_detections(doc_bytes(doc))

    def test_malformed_json(self):
        with pytest.raises(DetectionFormatError):
            parse_detections(b"{not json")

    def test_round_trip_preserves_floats(self):
        doc = dict(BASE_DOC)
        doc["detections"] = [
            dict(BASE_DOC["detections"][0], confidence=0.123456789123, bbox=[10.25, 20.125, 50.75, 120.0625])
        ]
        ds = parse_detections(doc_bytes(doc))
        again = parse_detections(serialize_detections(ds))
        assert again == ds

    def test_second_write_byte_identical(self):
        first = serialize_detections(parse_detections(doc_bytes(BASE_DOC)))
        second = serialize_detections(parse_detections(first))
        assert first == second


class TestIou:
    def test_identity(self):
        b = BoundingBox(0, 0, 2, 2)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_unit_overlap(self):
        assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3)) == pytest.approx(
            1 / 7, abs=1e-12
        )

    boxes = st.builds(
        lambda x0, y0, dx, dy: BoundingBox(x0, y0, x0 + dx, y0 + dy),
        st.floats(0, 100),
        st.floats(0, 100),
        st.floats(0.5, 100),
        st.floats(0.5, 100),
    )

    @given(boxes, boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    def test_area_past_float64_passes_no_threshold(self):
        # without a RuntimeWarning, which pytest raises as an error
        huge = BoundingBox(0, 0, 1e200, 1e200)
        assert iou(huge, BoundingBox(0, 0, 1, 1)) == 0.0
        assert math.isnan(iou(huge, huge))
        assert len(nms(det_set(det(0, 0, 1e200, 1e200), det(0, 0, 1e200, 1e200))).detections) == 2


class TestFilterConfidence:
    def test_keeps_above_threshold(self):
        ds = det_set(det(0, 0, 1, 1, conf=0.9), det(2, 2, 3, 3, conf=0.1))
        out = filter_confidence(ds, 0.25)
        assert [d.confidence for d in out.detections] == [0.9]

    def test_zero_threshold_is_identity(self):
        ds = det_set(det(0, 0, 1, 1, conf=0.5))
        assert filter_confidence(ds, 0.0) == ds

    def test_one_threshold_empties(self):
        ds = det_set(det(0, 0, 1, 1, conf=0.99))
        assert filter_confidence(ds, 1.0).detections == ()

    @given(st.lists(st.floats(0, 1), max_size=10), st.floats(0, 1), st.floats(0, 1))
    def test_monotone(self, confs, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        ds = det_set(*(det(i, i, i + 1, i + 1, conf=c) for i, c in enumerate(confs)))
        kept_hi = filter_confidence(ds, hi).detections
        kept_lo = filter_confidence(ds, lo).detections
        assert set(kept_hi) <= set(kept_lo)


class TestNms:
    def test_duplicate_suppressed(self):
        ds = det_set(det(0, 0, 10, 10, conf=0.9), det(0, 0, 10, 10, conf=0.8))
        out = nms(ds, 0.45)
        assert [d.confidence for d in out.detections] == [0.9]

    def test_disjoint_kept(self):
        ds = det_set(det(0, 0, 10, 10, conf=0.9), det(50, 50, 60, 60, conf=0.8))
        assert len(nms(ds, 0.45).detections) == 2

    def test_chain_keeps_ends(self):
        # A-B and B-C overlap above threshold, A-C below: greedy keeps A then C
        a = det(0, 0, 10, 10, conf=0.9)
        b = det(0, 2.5, 10, 12.5, conf=0.8)
        c = det(0, 6, 10, 16, conf=0.7)
        assert iou(a.bbox, b.bbox) == pytest.approx(0.6)
        assert iou(b.bbox, c.bbox) > 0.45
        assert iou(a.bbox, c.bbox) < 0.45
        out = nms(det_set(a, b, c), 0.45)
        assert out.detections == (a, c)

    def test_classes_do_not_suppress_each_other(self):
        a = det(0, 0, 10, 10, conf=0.9, class_id=1, class_name="car")
        b = det(0, 0, 10, 10, conf=0.8, class_id=2, class_name="person")
        assert len(nms(det_set(a, b), 0.45).detections) == 2

    def test_tie_broken_by_input_order(self):
        a = det(0, 0, 10, 10, conf=0.9)
        b = det(0, 0, 10, 10, conf=0.9)
        out = nms(det_set(a, b), 0.45)
        assert out.detections == (a,)

    def test_threshold_validation(self):
        with pytest.raises(DataError):
            nms(det_set(), 0.0)

    dets = st.lists(
        st.tuples(
            st.floats(0, 50), st.floats(0, 50), st.floats(0, 1), st.integers(0, 2)
        ).map(lambda t: det(t[0], t[1], t[0] + 5, t[1] + 5, conf=t[2], class_id=t[3])),
        max_size=12,
    )

    @given(dets, st.floats(0.05, 0.95))
    def test_subset_bound_idempotent(self, dets, thr):
        ds = det_set(*dets)
        out = nms(ds, thr)
        assert set(out.detections) <= set(ds.detections)
        for i, a in enumerate(out.detections):
            for b in out.detections[i + 1 :]:
                if a.class_id == b.class_id:
                    assert iou(a.bbox, b.bbox) <= thr
        assert nms(out, thr) == out


def box_rows(boxes):
    return np.array([(b.x0, b.y0, b.x1, b.y1) for b in boxes], dtype=np.float64).reshape(-1, 4)


# small integer grids make touching, nested, disjoint and tied boxes common
int_boxes = st.builds(
    lambda x0, y0, dx, dy: BoundingBox(x0, y0, x0 + dx, y0 + dy),
    st.integers(0, 8), st.integers(0, 8), st.integers(1, 6), st.integers(1, 6),
)
float_boxes = st.builds(
    lambda x0, y0, dx, dy: BoundingBox(x0, y0, x0 + dx, y0 + dy),
    st.floats(0, 100), st.floats(0, 100), st.floats(1e-3, 100), st.floats(1e-3, 100),
)
any_boxes = st.one_of(int_boxes, float_boxes)


class TestIouKernel:
    @given(st.lists(any_boxes, max_size=6), st.lists(any_boxes, max_size=6))
    def test_matrix_equals_scalar_formula_bit_for_bit(self, a, b):
        m = iou(box_rows(a), box_rows(b))
        assert m.shape == (len(a), len(b)) and m.dtype == np.float64
        for i, p in enumerate(a):
            for j, q in enumerate(b):
                assert m[i, j] == reference_iou(p, q)
                assert math.copysign(1.0, m[i, j]) == 1.0

    @given(any_boxes, any_boxes)
    def test_box_pair_returns_the_same_float(self, a, b):
        v = iou(a, b)
        assert type(v) is float and v == reference_iou(a, b)

    def test_touching_boxes_are_disjoint(self):
        a, b = BoundingBox(0, 0, 2, 2), BoundingBox(2, 0, 4, 2)
        assert iou(a, b) == 0.0
        assert iou(box_rows([a]), box_rows([a, b])).tolist() == [[1.0, 0.0]]


def ranked(*specs):
    """Detections from (x0, y0, x1, y1, conf, class_id) tuples."""
    return det_set(*(det(*s[:4], conf=s[4], class_id=s[5]) for s in specs))


class TestNmsMatchesReference:
    dets = st.lists(
        st.tuples(
            st.integers(0, 12), st.integers(0, 12), st.integers(1, 6), st.integers(1, 6),
            st.sampled_from([0.3, 0.5, 0.5, 0.9]), st.integers(0, 2),
        ).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3], t[4], t[5])),
        max_size=25,
    )

    @given(dets, st.sampled_from([0.05, 0.3, 0.45, 0.5, 0.7]))
    def test_same_greedy_result(self, specs, thr):
        ds = ranked(*specs)
        assert nms(ds, thr) == reference_nms(ds, thr)

    def test_iou_exactly_at_threshold_is_kept(self):
        a, b = (0, 0, 10, 1, 0.9, 0), (1, 0, 20, 1, 0.8, 0)
        ds = ranked(a, b)
        assert iou(*(d.bbox for d in ds.detections)) == 0.45
        assert nms(ds, 0.45) == reference_nms(ds, 0.45) == ds

    def test_confidence_ties_several_classes(self):
        ds = ranked(
            (0, 0, 10, 10, 0.5, 1), (0, 0, 10, 10, 0.5, 0), (1, 0, 11, 10, 0.5, 1),
            (0, 1, 10, 11, 0.5, 0), (30, 30, 40, 40, 0.5, 1), (0, 0, 10, 10, 0.9, 2),
        )
        out = nms(ds, 0.45)
        assert out == reference_nms(ds, 0.45)
        assert [d.class_id for d in out.detections] == [2, 1, 0, 1]

    def test_empty(self):
        assert nms(det_set(), 0.45) == reference_nms(det_set(), 0.45) == det_set()

    def test_thousands_of_one_class_in_linear_memory(self):
        n = 3000
        rng = np.random.default_rng(0)
        # 60 clusters of 50 jittered 20 px boxes, ranked in random order across IoU blocks
        corners = rng.uniform(2, 600, (60, 2)).repeat(50, axis=0) + rng.uniform(-2, 2, (n, 2))
        conf = rng.uniform(0, 1, n).tolist()
        ds = det_set(*(det(x, y, x + 20, y + 20, conf=c) for (x, y), c in zip(corners.tolist(), conf)))
        tracemalloc.start()
        try:
            out = nms(ds, 0.45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == reference_nms(ds, 0.45)
        # one n x n float64 IoU matrix alone would take 72 MB
        assert peak < 4000 * n
