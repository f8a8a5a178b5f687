"""Each input rule has one home: a record and the file decoder of its format agree.

A record built from some values and a one-object file holding the same
values must both be accepted, or both be rejected with the same message.
Values are drawn from the edges of the rules: NaN, the infinities, -0.0, 0,
-1, 1e308, the largest float, the smallest subnormals and the floats next to 1.
"""
import contextlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import monodist
from monodist import cli, evaluate
from monodist.calib import (
    CalibrationModel, CalibrationSample, deserialize_model, fit_quadratic, read_samples_csv,
)
from monodist.detect import (
    BoundingBox, Detection, DetectionSet, filter_confidence, iou, nms, parse_detections,
    serialize_detections,
)
from monodist.errors import DataError, SceneError
from monodist.evaluate import (
    GroundTruthObject, decode_ground_truth, parse_ground_truth, serialize_ground_truth,
)
from monodist.maps import DepthRange, MapKind, ScalarMap, read_pfm
from monodist.roi import ObjectDistance, decode_distances
from monodist.synth import SceneObject, SceneSpec, parse_scene, render_scene, serialize_scene

EDGES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 0.5, 1.0, 1e308, sys.float_info.max,
    5e-324, -5e-324, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
]
edge_floats = st.sampled_from(EDGES) | st.floats()
class_ids = st.sampled_from([-(2**70), -1, -0.5, 0, 1, 1.5, 2.0, 2**70]) | st.integers()
# a name that is no str is read by str, in a record as in its file
names = st.sampled_from(["", "car", "é \" \\", 0, 5, None, True]) | st.text(max_size=3)
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
    if record is None:  # a written file reads back equal
        ds = DetectionSet("i", 100, 50, [Detection(class_id, name, confidence, BoundingBox(*box))])
        assert parse_detections(serialize_detections(ds)) == ds


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
    if record is None:  # a written file reads back equal
        gts = [GroundTruthObject(name, distance, None if box is None else BoundingBox(*box))]
        assert parse_ground_truth(serialize_ground_truth("i", gts)) == ("i", gts)


@given(names)
def test_a_scene_object_reads_its_class_name_as_its_file_does(name):
    obj = {"class_name": name, "depth_m": 10.0, "bbox": [1, 2, 3, 4]}
    spec = SceneSpec(64, 48, 50.0, (SceneObject(name, 10.0, BoundingBox(1, 2, 3, 4)),))
    assert parse_scene(json.dumps({**SCENE, "objects": [obj]})) == spec
    assert parse_scene(serialize_scene(spec)) == spec
    if name != "":  # an empty name fails once the scene is rendered
        assert render_scene(spec)[1].columns.class_names == [str(name)]


@pytest.mark.parametrize("build, error", [
    (lambda box: Detection(0, "car", 0.5, box), DataError),
    (lambda box: GroundTruthObject("car", 5.0, box), DataError),
    (lambda box: SceneObject("car", 10.0, box), SceneError),
    (lambda box: iou(BoundingBox(1, 2, 3, 4), box), DataError),
    (lambda box: iou(box, BoundingBox(1, 2, 3, 4)), DataError),
], ids=["Detection", "GroundTruthObject", "SceneObject", "iou", "iou first"])
@pytest.mark.parametrize("box", [(1, 2, 3, 4), [1, 2, 3, 4], "box"], ids=["tuple", "list", "str"])
def test_a_records_bbox_must_be_a_bounding_box(build, error, box):
    with pytest.raises(DataError) as e:
        build(box)
    assert type(e.value) is error and str(e.value) == f"bbox must be a BoundingBox, got {box!r}"


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


@pytest.mark.parametrize("width, height, message", [
    (100.9, 50, "width must be an integer, got 100.9"),
    (100, 50.5, "height must be an integer, got 50.5"),
    (100.0, 50.0, None),
    (1e308, 50, None),
])
def test_an_image_side_keeps_no_fraction_in_a_record_or_its_file(width, height, message):
    det = {"class_id": 0, "class_name": "car", "confidence": 0.5, "bbox": [1, 2, 3, 4]}
    data = one_object_file("detections", det, width=width, height=height)
    record = outcome(lambda: DetectionSet("i", width, height, [DETECTION]))
    assert outcome(lambda: parse_detections(data)) == record == message


SCENE = {"map_width": 64, "map_height": 48, "background_depth_m": 50.0}


@contextlib.contextmanager
def ints_of_any_length():
    """Let ``str``, and so json, write and read an int past sys.get_int_max_str_digits()."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value", [PAST_FLOAT64, -PAST_FLOAT64, 10**5000],
                         ids=["1e400", "-1e400", "1e5000"])
@pytest.mark.parametrize("field", ["min_conf", "iou_threshold"])
def test_a_threshold_past_float64_reads_as_the_infinity_of_its_sign(tmp_path, field, value):
    """A config, its file, and the filter or NMS stage read the threshold as `_float` does."""
    interval = "[0, 1]" if field == "min_conf" else "(0, 1)"
    expected = f"{field} {'inf' if value > 0 else '-inf'} outside {interval}"
    backend = cli.BackendConfig(cli.BackendMode.FILES, tmp_path, tmp_path)
    config = outcome(lambda: cli.PipelineConfig(backend, **{field: value}))
    stage = filter_confidence if field == "min_conf" else nms
    ds = DetectionSet("i", 100, 50, [DETECTION])
    assert outcome(lambda: stage(ds, value)) == config == expected
    doc = {"backend": {"mode": "files", "depth_dir": ".", "det_dir": "."}, field: value}
    with ints_of_any_length():
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert outcome(lambda: cli.load_config(tmp_path / "c.json")) == expected


# a side, and the rule it breaks: the integer rule, the positive rule, or none
SIDE_RULES = [
    (0, "positive"), (-1, "positive"), (math.nan, "integer"), (2.5, "integer"), (2.0, None),
    ("2", None), (None, "integer"), (PAST_FLOAT64, None), (-(10**5000), "positive"),
]
SIDE_IDS = ["0", "-1", "nan", "2.5", "2.0", "str", "None", "1e400", "-1e5000"]
CAR_2X2 = {"class_id": 0, "class_name": "car", "confidence": 0.5, "bbox": [0, 0, 1, 1]}


def side_message(rule, what, names, sides, at):
    """The message of the side rule that `sides[at]` breaks; None where it breaks none."""
    if rule == "integer":
        return f"{names[at]} must be an integer, got {sides[at]!r}"
    if rule == "positive":
        return f"{what} dimensions must be positive, got {int(sides[0])}x{int(sides[1])}"
    return None


@pytest.mark.parametrize("at", [0, 1], ids=["width", "height"])
@pytest.mark.parametrize("side, rule", SIDE_RULES, ids=SIDE_IDS)
def test_an_image_or_a_map_side_meets_one_rule_in_a_record_and_its_file(side, rule, at):
    """Each side is read as an integer, then both must be positive: one order, one message."""
    sides = [side, 2] if at == 0 else [2, side]
    w, h = sides
    with ints_of_any_length():  # so that json writes and reads -10**5000
        for dets in ([], [CAR_2X2]):  # a side past float64 fails only once it scales a box
            records = [Detection(0, "car", 0.5, BoundingBox(*d["bbox"])) for d in dets]
            record = outcome(lambda: DetectionSet("i", w, h, records))
            doc = {"image": "i", "width": w, "height": h, "detections": dets}
            assert outcome(lambda: parse_detections(json.dumps(doc))) == record
            if rule:
                assert record == side_message(rule, "image", ("width", "height"), sides, at)
        record = outcome(lambda: SceneSpec(w, h, 50.0))
        doc = {**SCENE, "map_width": w, "map_height": h}
        assert outcome(lambda: parse_scene(json.dumps(doc))) == record
        assert record == side_message(rule, "map", ("map_width", "map_height"), sides, at)
        record = outcome(lambda: ScalarMap(w, h, MapKind.DEPTH, np.ones(4)))
        if rule:
            assert record == side_message(rule, "map", ("width", "height"), sides, at)
        else:  # a side that passes must hold its values
            n = int(w) * int(h)
            assert record == (None if n == 4 else f"a {w}x{h} map needs {n} values, got 4")
        if rule == "positive":  # a PFM header holds only integers
            pfm = b"Pf\n%d %d\n-1.0\n" % (w, h)
            assert outcome(lambda: read_pfm(pfm)) == record


MODEL = {"c0": 1.0, "c1": 2.0, "c2": 3.0, "h_m": 1.0, "fit_rmse_m": 0.0, "n_samples": 9}


@pytest.mark.parametrize("value", [
    2.5, -0.5, 2.0, 3, -1, math.nan, math.inf, 10**400,
    np.float32(2.5), np.float16(-1.5), np.float64(2.5), np.float32(math.nan), np.float32(2.0),
    np.uint64(2**64 - 1),
])
@pytest.mark.parametrize("field", ["map_width", "map_height", "seed", "n_samples"])
def test_an_integer_item_keeps_no_fraction_in_a_record_or_its_file(field, value):
    """A scene or calibration model, and its file, accept or reject an integer item alike.

    A numpy scalar is read as the Python number that a file holds in its place.
    """
    plain = value.item() if isinstance(value, np.generic) else value
    if field == "n_samples":
        doc = {**MODEL, field: plain}
        record = outcome(lambda: CalibrationModel(1.0, 2.0, 3.0, 1.0, 0.0, value))
        decoded = outcome(lambda: deserialize_model(json.dumps(doc)))
    else:
        doc, given = {**SCENE, field: plain}, {**SCENE, field: value}
        spec = (given["map_width"], given["map_height"], 50.0)
        # rendered too, so that a side that passed the scene's rules must draw a map
        record = outcome(lambda: render_scene(SceneSpec(*spec, seed=given.get("seed", 0))))
        decoded = outcome(lambda: render_scene(parse_scene(json.dumps(doc))))
    if record is not None:  # a message shows numpy's repr of the value given
        record = record.replace(repr(value), repr(plain))
    assert decoded == record
    if isinstance(plain, float) and not plain.is_integer():
        assert record == f"{field} must be an integer, got {plain}"
    if field == "n_samples" and record is None:  # read exactly, a numpy int too
        assert CalibrationModel(1.0, 2.0, 3.0, 1.0, 0.0, value).n_samples == plain


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


NOT_NUMBERS = [None, "x", [1], {}]
DET_OBJECT = {"class_id": 0, "class_name": "car", "confidence": 0.5, "bbox": [1, 2, 3, 4]}
DIST_OBJECT = {
    "class_name": "car", "confidence": 0.5, "bbox": [1, 2, 3, 4], "rev_m": 1.0, "abs_m": 2.0,
}
CONFIG = {"backend": {"mode": "files", "depth_dir": ".", "det_dir": "."}}
SAMPLES = [CalibrationSample(x, y) for x, y in ((1.0, 2.0), (2.0, 3.0), (3.0, 5.0))]
NUMBER_FIELDS = [
    "confidence", "bbox coordinate", "rev", "abs", "ground-truth distance", "depth",
    "background_depth", "noise_amplitude", "min_depth", "max_depth", "min_conf", "iou_threshold",
    "c0", "c1", "c2", "camera height", "fit_rmse", "sample x", "sample y_abs", "predicted",
    "truth", "threshold",
]


def number_readers(field, v, tmp_path):
    """The ways to read `v` as the number `field`: its record first, then its file, if any."""
    box = BoundingBox(1, 2, 3, 4)
    backend = cli.BackendConfig(cli.BackendMode.FILES, tmp_path, tmp_path)
    ds = DetectionSet("i", 100, 50, [DETECTION])
    pairs = [evaluate.MatchedPair("car", 2.0, 1.0)]

    def det(**fields):
        doc = one_object_file("detections", {**DET_OBJECT, **fields}, width=9, height=9)
        return parse_detections(doc)

    def config(**fields):
        (tmp_path / "c.json").write_text(json.dumps({**CONFIG, **fields}))
        return cli.load_config(tmp_path / "c.json")

    def dist(**fields):
        return decode_distances(one_object_file("objects", {**DIST_OBJECT, **fields}))

    def model(**fields):
        return deserialize_model(json.dumps({**MODEL, **fields}))

    def scene(**fields):
        return parse_scene(json.dumps({**SCENE, **fields}))

    truth = one_object_file("objects", {"class_name": "car", "abs_m": v})
    return {
        "confidence": (lambda: Detection(0, "car", v, box), lambda: det(confidence=v)),
        "bbox coordinate": (lambda: BoundingBox(1, 2, v, 4), lambda: det(bbox=[1, 2, v, 4])),
        "rev": (lambda: ObjectDistance(DETECTION, v), lambda: dist(rev_m=v, abs_m=None)),
        "abs": (lambda: ObjectDistance(DETECTION, 1.0, v), lambda: dist(abs_m=v)),
        "ground-truth distance": (
            lambda: GroundTruthObject("car", v), lambda: decode_ground_truth(truth)),
        "depth": (
            lambda: SceneSpec(64, 48, 50.0, (SceneObject("car", v, box),)),
            lambda: scene(objects=[{"class_name": "car", "depth_m": v, "bbox": [1, 2, 3, 4]}])),
        "background_depth": (lambda: SceneSpec(64, 48, v), lambda: scene(background_depth_m=v)),
        "noise_amplitude": (
            lambda: SceneSpec(64, 48, 50.0, noise_amplitude=v), lambda: scene(noise_amplitude=v)),
        "min_depth": (lambda: DepthRange(v), lambda: config(depth_range={"min_m": v})),
        "max_depth": (lambda: DepthRange(0.1, v), lambda: config(depth_range={"max_m": v})),
        "min_conf": (lambda: cli.PipelineConfig(backend, min_conf=v), lambda: config(min_conf=v),
                     lambda: filter_confidence(ds, v)),
        "iou_threshold": (lambda: cli.PipelineConfig(backend, iou_threshold=v),
                          lambda: config(iou_threshold=v), lambda: nms(ds, v)),
        "c0": (lambda: CalibrationModel(v, 2.0, 3.0, 1.0), lambda: model(c0=v)),
        "c1": (lambda: CalibrationModel(1.0, v, 3.0, 1.0), lambda: model(c1=v)),
        "c2": (lambda: CalibrationModel(1.0, 2.0, v, 1.0), lambda: model(c2=v)),
        "camera height": (lambda: CalibrationModel(1.0, 2.0, 3.0, v), lambda: model(h_m=v),
                          lambda: fit_quadratic(SAMPLES, h=v)),
        "fit_rmse": (lambda: CalibrationModel(1.0, 2.0, 3.0, 1.0, v), lambda: model(fit_rmse_m=v)),
        # a samples CSV holds text, which test_a_sample_that_is_no_number_fails_... reads
        "sample x": (lambda: CalibrationSample(v, 2.0),),
        "sample y_abs": (lambda: CalibrationSample(1.0, v),),
        "predicted": (lambda: evaluate.MatchedPair("car", v, 1.0),),
        "truth": (lambda: evaluate.MatchedPair("car", 1.0, v),),
        "threshold": (lambda: evaluate.threshold_accuracy(pairs, v),
                      lambda: evaluate.build_report(pairs, 0, 0, v)),
    }[field]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=["None", "str", "list", "dict"])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_a_value_that_is_no_number_fails_a_record_and_its_file_alike(tmp_path, field, value):
    """Every real field is read by one reader, which names the field and shows the value."""
    expected = f"{field} must be a number, got {value!r}"
    if (field, value) == ("abs", None):  # a prediction without ABS is not calibrated
        expected = None
    for read in number_readers(field, value, tmp_path):
        assert outcome(read) == expected


@pytest.mark.parametrize(
    "x, y_abs", [("x", "2"), ("1", "x"), ("[1]", "2"), ("1", "{}"), ("1", None)])
def test_a_sample_that_is_no_number_fails_a_record_and_its_csv_alike(x, y_abs):
    """A samples CSV hands its fields, as text, to CalibrationSample; a missing one is None."""
    record = outcome(lambda: CalibrationSample(x, y_abs))
    row = x if y_abs is None else f"{x},{y_abs}"
    assert outcome(lambda: read_samples_csv(f"x_m,y_abs_m\n{row}\n")) == f"sample row 0: {record}"
    field, value = ("sample x", x) if x != "1" else ("sample y_abs", y_abs)
    assert record == f"{field} must be a number, got {value!r}"


# the rules of README's "Input rules"; {} stands for a formatted value
RULE_MESSAGES = [
    "non-finite, negative, inverted or empty bbox {}",
    "negative class_id {}",
    "{} must be an integer, got {}",
    "{} dimensions must be positive, got {}x{}",
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
    "{} must be a number, got {}",
    "bbox must be a BoundingBox, got {}",
]


def test_each_rule_message_has_one_home():
    package = Path(monodist.__file__).parent
    source = "\n".join(path.read_text() for path in sorted(package.glob("*.py")))
    for message in RULE_MESSAGES:
        pattern = r"\{[^}]*\}".join(map(re.escape, message.split("{}")))
        count = len(re.findall(pattern, source))
        assert count == 1, f"{message!r} occurs {count} times"
