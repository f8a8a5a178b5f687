"""Each input rule has one home: a record and the file decoder of its format agree.

A record built from some values and a one-object file holding the same
values must both be accepted, or both be rejected with the same message.
Values are drawn from the edges of the rules: NaN, the infinities, -0.0, 0,
-1, 1e308, the largest float, the smallest subnormals and the floats next to 1.
"""
import json
import math
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from monodist import cli
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
