"""Each input rule has one home: a record and the file decoder of its format agree.

A record built from some values and a one-object file holding the same
values must both be accepted, or both be rejected with the same message.
Values are drawn from the edges of the rules: NaN, the infinities, -0.0, 0,
-1, 1e308, the largest float, the smallest subnormals and the floats next to 1.
"""
import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import monodist
from monodist import cli
from monodist.calib import CalibrationModel, CalibrationSample, deserialize_model, fit_quadratic
from monodist.detect import (
    BoundingBox, Detection, DetectionSet, filter_confidence, nms, parse_detections,
)
from monodist.errors import DataError
from monodist.evaluate import GroundTruthObject, decode_ground_truth
from monodist.roi import ObjectDistance, decode_distances

EDGES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 0.5, 1.0, 1e308, sys.float_info.max,
    5e-324, -5e-324, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
]
edge_floats = st.sampled_from(EDGES) | st.floats()
class_ids = st.sampled_from([-(2**70), -1, 0, 1, 2**70]) | st.integers()
names = st.sampled_from(["", "car", "é \" \\"]) | st.text(max_size=3)
# a box that passes every box rule and lies inside a 100x50 image
inside_boxes = st.tuples(
    st.floats(0, 40), st.floats(0, 20), st.floats(1, 50), st.floats(1, 25)
).map(lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3]))
# a valid box, or one with one coordinate replaced by an edge value
edge_boxes = st.tuples(inside_boxes, st.integers(0, 4), edge_floats).map(
    lambda t: tuple(t[2] if i == t[1] else c for i, c in enumerate(t[0]))
)


def outcome(build):
    """None when `build()` accepts its input, else the message of the DataError it raises."""
    try:
        build()
    except DataError as e:
        return str(e)
    return None


def one_object_file(key, obj, **doc) -> str:
    # json.dumps writes NaN and the infinities as tokens that json.loads reads back
    return json.dumps({"image": "i", **doc, key: [obj]})


@given(class_ids, names, edge_floats, inside_boxes)
def test_detection_agrees_with_det_json(class_id, name, confidence, box):
    obj = {"class_id": class_id, "class_name": name, "confidence": confidence, "bbox": list(box)}
    data = one_object_file("detections", obj, width=100, height=50)
    record = outcome(lambda: Detection(class_id, name, confidence, BoundingBox(*box)))
    assert outcome(lambda: parse_detections(data)) == record


# The record is built box first, the file is read name, confidence and box in
# that order, so at most one of these three breaks a rule; REV and ABS are free.
@given(names, edge_floats, edge_boxes, edge_floats, st.none() | edge_floats, st.data())
def test_object_distance_agrees_with_dist_json(name, confidence, box, rev, abs_m, data):
    varied = data.draw(st.sampled_from(["name", "confidence", "box"]), label="varied")
    name = name if varied == "name" else "car"
    confidence = confidence if varied == "confidence" else 0.5
    box = box if varied == "box" else (1.0, 2.0, 3.0, 4.0)
    obj = {"class_name": name, "confidence": confidence, "bbox": list(box), "rev_m": rev}
    dist_json = one_object_file("objects", {**obj, "abs_m": abs_m})
    record = outcome(
        lambda: ObjectDistance(Detection(0, name, confidence, BoundingBox(*box)), rev, abs_m)
    )
    assert outcome(lambda: decode_distances(dist_json)) == record


# The record is built box first and the file reads the distance first, so at
# most one of the two breaks a rule.
@given(names, edge_floats, st.none() | edge_boxes, st.booleans())
def test_ground_truth_agrees_with_gt_json(name, distance, box, vary_distance):
    if vary_distance:
        box = None if box is None else (1.0, 2.0, 3.0, 4.0)
    else:
        distance = 10.0
    obj = {"class_name": name, "abs_m": distance}
    data = one_object_file("objects", obj if box is None else {**obj, "bbox": list(box)})
    record = outcome(
        lambda: GroundTruthObject(name, distance, None if box is None else BoundingBox(*box))
    )
    assert outcome(lambda: decode_ground_truth(data)) == record


@given(edge_floats, edge_floats)
def test_pipeline_config_agrees_with_filter_and_nms(min_conf, iou_threshold):
    backend = cli.BackendConfig(cli.BackendMode.FILES, Path("."), Path("."))
    ds = DetectionSet("i", 100, 50, [Detection(0, "car", 0.5, BoundingBox(1, 2, 3, 4))])
    config = outcome(
        lambda: cli.PipelineConfig(backend, min_conf=min_conf, iou_threshold=iou_threshold)
    )
    assert outcome(lambda: nms(filter_confidence(ds, min_conf), iou_threshold)) == config


def test_a_rule_is_reported_before_a_later_field_is_read():
    det = {"class_id": -1, "class_name": "car", "confidence": "x", "bbox": [1, 2, 3, 4]}
    det_json = one_object_file("detections", det, width=9, height=9)
    assert outcome(lambda: parse_detections(det_json)) == "negative class_id -1"
    # a later object without a name or a confidence is not read either
    doc = {"image": "i", "width": 9, "height": 9, "detections": [det, {"class_id": 0}]}
    assert outcome(lambda: parse_detections(json.dumps(doc))) == "negative class_id -1"
    dist = {"class_name": "car", "confidence": 0.5, "bbox": [1, 2, 3, 4], "rev_m": -1}
    dist_json = one_object_file("objects", {**dist, "abs_m": "x"})
    expected = "rev must be a positive finite distance, got -1.0"
    assert outcome(lambda: decode_distances(dist_json)) == expected


def test_a_record_reports_its_converted_values():
    expected = "non-finite, negative, inverted or empty bbox [1.0, 2.0, 0.0, 4.0]"
    assert outcome(lambda: BoundingBox(1, 2, 0, 4)) == expected
    detection = Detection(0, "car", 1, BoundingBox(1, 2, 3, 4))
    expected = "rev must be a positive finite distance, got 0.0"
    assert outcome(lambda: ObjectDistance(detection, 0)) == expected


PAST_FLOAT64 = 10**400  # an int that json reads and writes, but that float() overflows
DETECTION = Detection(0, "car", 0.5, BoundingBox(1, 2, 3, 4))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("field", ["confidence", "rev_m", "abs_m", "gt abs_m"])
def test_an_int_past_float64_fails_a_record_and_its_file_alike(field, sign):
    value = sign * PAST_FLOAT64
    if field == "gt abs_m":
        record = outcome(lambda: GroundTruthObject("car", value))
        data = one_object_file("objects", {"class_name": "car", "abs_m": value})
        decoded = outcome(lambda: decode_ground_truth(data))
    elif field == "confidence":
        record = outcome(lambda: Detection(0, "car", value, DETECTION.bbox))
        det = {"class_id": 0, "class_name": "car", "confidence": value, "bbox": [1, 2, 3, 4]}
        data = one_object_file("detections", det, width=9, height=9)
        decoded = outcome(lambda: parse_detections(data))
    else:
        rev, abs_m = (value, None) if field == "rev_m" else (1.0, value)
        record = outcome(lambda: ObjectDistance(DETECTION, rev, abs_m))
        obj = {"class_name": "car", "confidence": 0.5, "bbox": [1, 2, 3, 4], "rev_m": rev,
               "abs_m": abs_m}
        decoded = outcome(lambda: decode_distances(one_object_file("objects", obj)))
    assert record is not None and "inf" in record
    assert decoded == record


def test_an_image_side_past_float64_fails_a_record_and_its_file_alike():
    record = outcome(lambda: DetectionSet("i", PAST_FLOAT64, 9, [DETECTION]))
    det = {"class_id": 0, "class_name": "car", "confidence": 0.5, "bbox": [1, 2, 3, 4]}
    data = one_object_file("detections", det, width=PAST_FLOAT64, height=9)
    assert record == outcome(lambda: parse_detections(data)) == "image or map side past float64"


def test_a_box_coordinate_past_float64_is_clamped_as_infinity_is():
    boxes = []
    for x1 in (PAST_FLOAT64, math.inf):
        det = {"class_id": 0, "class_name": "car", "confidence": 0.5, "bbox": [0, 0, x1, 1]}
        ds = parse_detections(one_object_file("detections", det, width=4, height=4))
        boxes.append(ds.columns.boxes.tolist())
    assert boxes == [[[0.0, 0.0, 4.0, 1.0]]] * 2


FIT_OVERFLOW = "fit overflows float64; x, y_abs or camera height too extreme"


@given(edge_floats)
def test_camera_height_agrees_across_model_fit_and_file(h):
    model = outcome(lambda: CalibrationModel(c0=1.0, c1=2.0, c2=3.0, h=h))
    samples = [CalibrationSample(x, y) for x, y in ((1.0, 2.0), (2.0, 3.0), (3.0, 5.0))]
    fit = outcome(lambda: fit_quadratic(samples, h=h))
    doc = {"c0": 1.0, "c1": 2.0, "c2": 3.0, "h_m": h, "fit_rmse_m": 0.0, "n_samples": 0}
    decoded = outcome(lambda: deserialize_model(json.dumps(doc)))
    assert decoded == model
    if model is None:
        # a valid height may still carry the fit beyond float64, as 5e-324 does
        assert fit in (None, FIT_OVERFLOW)
    else:
        assert fit == model


# the rules of README's "Input rules"; {} stands for a formatted value
RULE_MESSAGES = [
    "non-finite, negative, inverted or empty bbox {}",
    "negative class_id {}",
    "empty class_name",
    "confidence {} outside [0, 1]",
    "rev must be a positive finite distance, got {}",
    "abs must be finite, got {}",
    "ground-truth distance must be positive, got {}",
    "min_conf {} outside [0, 1]",
    "iou_threshold {} outside (0, 1)",
    "camera height must be positive",
    "sample x must be non-negative finite",
    "sample y_abs must be positive finite",
    "depth range must satisfy 0 < min < max < inf, 1/min and 1/(1/max) finite",
]


def test_each_rule_message_has_one_home():
    package = Path(monodist.__file__).parent
    source = "\n".join(path.read_text() for path in sorted(package.glob("*.py")))
    for message in RULE_MESSAGES:
        pattern = r"\{[^}]*\}".join(map(re.escape, message.split("{}")))
        count = len(re.findall(pattern, source))
        assert count == 1, f"{message!r} occurs {count} times"
