"""Columnar decoding, prediction and evaluation against the record-by-record code.

The column decoders must accept and reject exactly the documents the
record parsers in conftest do, and decode the same values; `predict` must
write the bytes that the record chain would; the evaluate report must not
depend on how an image's objects are split across files or in which order
the files are given, and the `.dist.json` of a synth scene must not depend
on the order of its detections or on detections that the confidence filter
or NMS drop. A box that fails must leave the other boxes' output as it was,
and a disparity map must pool to the REV of its own depth conversion.
"""
import copy
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    reference_bbox,
    reference_nms,
    reference_parse_detections,
    reference_parse_distances,
    reference_parse_ground_truth,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from monodist import calib, cli, evaluate, roi
from monodist.detect import (
    BoundingBox, Detection, DetectionSet, _bbox_array, _bbox_list, parse_detections,
)
from monodist.errors import DataError, DetectionFormatError
from monodist.maps import (
    DepthRange, MapKind, ScalarMap, disparity_to_depth, disparity_to_depth_value, read_pfm,
    write_pfm,
)
from monodist.synth import SceneObject, SceneSpec, render_scene

CLASSES = ["car", "person", "bus"]
MISSING = object()
# each mutation puts one of these in place of one field (MISSING deletes it)
REPLACEMENTS = [
    math.nan, math.inf, -math.inf, 0, -1, "1234", "0.5", "", None, True, 1e308,
    [1, 2, 3], [5, 5, 1, 1], [[1, 2], 3, 4, 5], [], {}, MISSING,
]

coord = st.floats(0, 500)
side = st.floats(0.5, 100)
bbox = st.builds(lambda x, y, w, h: [x, y, x + w, y + h], coord, coord, side, side)
dist_object = st.fixed_dictionaries({
    "class_name": st.sampled_from(CLASSES),
    "confidence": st.floats(0, 1),
    "bbox": bbox,
    "rev_m": st.floats(0.01, 200),
    "abs_m": st.none() | st.floats(-50, 200),
})
gt_object = st.fixed_dictionaries(
    {"class_name": st.sampled_from(CLASSES), "abs_m": st.floats(0.01, 200)},
    optional={"bbox": bbox},
)


def document(objects):
    return st.fixed_dictionaries(
        {"image": st.sampled_from(["a", "b"]), "objects": st.lists(objects, max_size=4)}
    )


def mutate(doc, data, fields):
    """Replace, or delete, one field of a valid document: top level, per object or per coordinate.

    The kind of field is drawn first, so that each kind is hit as often.
    """
    items = "detections" if "detections" in doc else "objects"
    objects = range(len(doc[items]))
    kinds = [*doc] + (["object", "coordinate", *fields] if objects else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind in doc:
        path = (kind,)
    else:
        i = data.draw(st.sampled_from(objects))
        if kind == "object":
            path = (items, i)
        elif kind == "coordinate":
            doc[items][i].setdefault("bbox", [1.0, 1.0, 2.0, 2.0])
            path = (items, i, "bbox", data.draw(st.integers(0, 3)))
        else:
            path = (items, i, kind)
    value = data.draw(st.sampled_from(REPLACEMENTS))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is not MISSING:
        parent[path[-1]] = copy.deepcopy(value)
    elif isinstance(parent, list) or path[-1] in parent:
        del parent[path[-1]]
    return json.dumps(doc).encode()


def outcome(parse, payload):
    try:
        return parse(payload)
    except DetectionFormatError:
        return "rejected"


@settings(max_examples=300)
@given(document(dist_object), st.data())
def test_distances_decoder_matches_record_parser(doc, data):
    payload = mutate(doc, data, ["abs_m", "bbox", "class_name", "confidence", "rev_m"])
    expected = outcome(reference_parse_distances, payload)
    assert outcome(roi.parse_distances, payload) == expected
    if expected != "rejected":
        _, records = expected
        _, columns = roi.decode_distances(payload)
        assert columns.class_names == [od.detection.class_name for od in records]
        assert columns.boxes.tolist() == [_bbox_list(od.detection.bbox) for od in records]
        assert columns.distances.tolist() == [evaluate.predicted_distance(od) for od in records]


@settings(max_examples=300)
@given(document(gt_object), st.data())
def test_ground_truth_decoder_matches_record_parser(doc, data):
    payload = mutate(doc, data, ["abs_m", "bbox", "class_name"])
    expected = outcome(reference_parse_ground_truth, payload)
    assert outcome(evaluate.parse_ground_truth, payload) == expected
    if expected != "rejected":
        _, records = expected
        _, columns = evaluate.decode_ground_truth(payload)
        assert columns.class_names == [gt.class_name for gt in records]
        assert columns.distances.tolist() == [gt.abs_distance for gt in records]
        boxes = [None if math.isnan(b[0]) else b for b in columns.boxes.tolist()]
        assert boxes == [None if gt.bbox is None else _bbox_list(gt.bbox) for gt in records]


det_object = st.fixed_dictionaries({
    "class_id": st.integers(0, 3),
    "class_name": st.sampled_from(CLASSES),
    "confidence": st.floats(0, 1),
    "bbox": bbox,
})
det_document = st.fixed_dictionaries({
    "image": st.sampled_from(["a", "b"]),
    "width": st.integers(300, 700),
    "height": st.integers(300, 700),
    "detections": st.lists(det_object, max_size=4),
})


def assert_same_detections(payload, expected):
    """Columns and records agree: both rejected, or equal values, signed zeros included."""
    ds = outcome(parse_detections, payload)
    assert ds == expected
    if expected == "rejected":
        return
    dets, records = ds.columns, expected.detections
    assert dets.class_ids == [d.class_id for d in records]
    assert dets.class_names == [d.class_name for d in records]
    assert dets.confidence.tolist() == [d.confidence for d in records]
    assert repr(dets.boxes.tolist()) == repr([_bbox_list(d.bbox) for d in records])


@settings(max_examples=300)
@given(det_document, st.data())
def test_detections_decoder_matches_record_parser(doc, data):
    payload = mutate(doc, data, ["bbox", "class_id", "class_name", "confidence"])
    assert_same_detections(payload, outcome(reference_parse_detections, payload))


CAR = {"class_id": 2**70, "class_name": "car", "confidence": 0.5, "bbox": [1, 2, 3, 4]}


@pytest.mark.parametrize("field, value, result", [
    ("bbox", [-math.inf, 5, math.inf, 20], [0.0, 5.0, 640.0, 20.0]),
    ("bbox", [-0.0, 5, 10, math.inf], [-0.0, 5.0, 10.0, 480.0]),
    ("bbox", [math.nan, 5, 10, 20], "empty after clamping"),
    ("bbox", [5, 5, 10, math.nan], "empty after clamping"),
    ("bbox", [math.inf, 5, math.inf, 20], "inverted bbox"),
    ("bbox", [700, 10, 800, 20], "empty after clamping"),  # wholly right of the 640-wide image
    ("class_id", -1, "negative class_id"),
    ("class_name", "", "empty class_name"),
    ("confidence", 1.5, "outside"),
    ("confidence", -0.5, "outside"),
    ("width", 0, "empty after clamping"),
    ("height", -3, "empty after clamping"),
])
def test_detections_decoder_edge_cases(field, value, result):
    doc = {"image": "a", "width": 640, "height": 480, "detections": [dict(CAR)]}
    (doc if field in doc else doc["detections"][0])[field] = value
    payload = json.dumps(doc)
    assert_same_detections(payload, outcome(reference_parse_detections, payload))
    if isinstance(result, str):
        with pytest.raises(DetectionFormatError, match=result):
            parse_detections(payload)
    else:
        dets = parse_detections(payload).columns
        assert repr(dets.boxes.tolist()) == repr([result]) and dets.class_ids == [2**70]


def test_detections_decoder_image_size_past_float_range():
    # such a size is only converted to float, and rejected, once there are boxes to clamp
    for dets in ([], [CAR]):
        payload = json.dumps({"image": "a", "width": 10**400, "height": 1, "detections": dets})
        assert_same_detections(payload, outcome(reference_parse_detections, payload))


def test_detections_decoder_checks_image_size_without_boxes():
    payload = json.dumps({"image": "a", "width": 0, "height": 1, "detections": []})
    assert_same_detections(payload, outcome(reference_parse_detections, payload))
    with pytest.raises(DetectionFormatError, match="dimensions must be positive"):
        parse_detections(payload)


def accepts(build):
    try:
        build()
    except DataError:
        return False
    return True


# mostly values on either side of each rule's edge, so that many boxes pass
edges = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 1e308, math.inf, -math.inf, math.nan])
coords = st.tuples(*[edges | edges | st.floats(allow_nan=True)] * 4)


@settings(max_examples=300)
@given(st.lists(coords, max_size=4))
def test_bbox_array_and_bounding_box_agree(rows):
    verdicts = [accepts(lambda c=c: BoundingBox(*c)) for c in rows]
    assert verdicts == [accepts(lambda c=c: reference_bbox(list(c))) for c in rows]
    assert verdicts == [accepts(lambda c=c: _bbox_array([list(c)])) for c in rows]
    assert accepts(lambda: _bbox_array([list(c) for c in rows])) == all(verdicts)


# ---- metamorphic relation: splitting and reordering evaluate's input files -----

DEPTHS = DepthRange(1.0, 100.0)
scene_object = st.builds(
    lambda cls, depth, x, y, w, h: SceneObject(cls, depth, BoundingBox(x, y, x + w, y + h)),
    st.sampled_from(CLASSES), st.floats(2, 60),
    st.integers(0, 40), st.integers(0, 24), st.integers(2, 8), st.integers(2, 8),
)


@st.composite
def image_records(draw):
    """One synth scene's predictions and ground truth, thinned out and partly calibrated."""
    objects = draw(st.lists(scene_object, min_size=1, max_size=6))
    spec = SceneSpec(48, 32, 80.0, tuple(objects), DEPTHS)
    disp, dets, gts = render_scene(spec)
    preds, _ = roi.measure_objects(disp, dets, DEPTHS)
    calibrate = draw(st.lists(st.booleans(), min_size=len(preds), max_size=len(preds)))
    preds = [
        roi.ObjectDistance(od.detection, od.rev, 1.1 * od.rev if cal else None)
        for od, cal in zip(preds, calibrate)
    ]
    boxless = draw(st.sampled_from([None, *CLASSES]))
    gts = [
        evaluate.GroundTruthObject(gt.class_name, gt.abs_distance, None)
        if gt.class_name == boxless else gt
        for gt in gts
    ]
    keep = st.lists(st.booleans(), min_size=len(objects), max_size=len(objects))
    keep_p, keep_g = draw(keep), draw(keep)
    return (
        [od for od, k in zip(preds, keep_p) if k],
        [gt for gt, k in zip(gts, keep_g) if k],
    )


def split(draw, items):
    """Cut a list into consecutive chunks at drawn positions."""
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), max_size=2)))
    bounds = [0, *cuts, len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def interleave(draw, chunks_per_image):
    """A drawn order of all chunks that keeps each image's chunks in their order."""
    tags = [image for image, chunks in enumerate(chunks_per_image) for _ in chunks]
    remaining = [iter(chunks) for chunks in chunks_per_image]
    return [(image, next(remaining[image])) for image in draw(st.permutations(tags))]


def report(pred_files, gt_files):
    try:
        result = evaluate.evaluate_files(pred_files, gt_files, 0.5)
    except DataError as e:
        return str(e)
    return evaluate.serialize_report(result), evaluate.render_table(result)


@given(st.lists(image_records(), min_size=1, max_size=3), st.data())
def test_report_invariant_to_file_splits_and_order(images, data):
    ids = [f"img{k}" for k in range(len(images))]
    base = report(
        [roi.serialize_distances(i, preds) for i, (preds, _) in zip(ids, images)],
        [evaluate.serialize_ground_truth(i, gts) for i, (_, gts) in zip(ids, images)],
    )
    pred_chunks = interleave(data.draw, [split(data.draw, preds) for preds, _ in images])
    gt_chunks = interleave(data.draw, [split(data.draw, gts) for _, gts in images])
    assert report(
        [roi.serialize_distances(ids[k], chunk) for k, chunk in pred_chunks],
        [evaluate.serialize_ground_truth(ids[k], chunk) for k, chunk in gt_chunks],
    ) == base


# ---- columnar predict against the record chain ---------------------------------

MIN_CONF, IOU = 0.25, 0.45
# few values, so that ties are common; 0.1 is below MIN_CONF
confidences = st.sampled_from([0.1, 0.5, 0.5, 0.7, 0.9])
# no calibration, the benchmark's, and one that gives negative distances below REV 10
MODELS = [
    None, calib.CalibrationModel(0.35, 0.92, 0.0015, 1.25), calib.CalibrationModel(-5, 0.5, 0, 1),
]
# far thinner than a grid cell: its far edge underflows to 0 on a coarser grid
SLIVER = 5e-324


@st.composite
def predict_inputs(draw):
    """A noisy synth map, metric or disparity, and raw detections for an image 2-3x larger.

    Every object has its box at a drawn confidence plus jittered duplicates.
    A sliver box projects to an empty rect, a box past every border clamps to
    the whole image, and on a metric map a box lies inside a sensor hole.
    Detections are shuffled.
    """
    objects = draw(st.lists(scene_object, min_size=1, max_size=5))
    spec = SceneSpec(48, 32, 80.0, tuple(objects), DEPTHS, 0.02, draw(st.integers(0, 99)))
    disp, _, _ = render_scene(spec)
    scale = draw(st.sampled_from([2, 3]))
    width, height = 48 * scale + draw(st.integers(0, 5)), 32 * scale + draw(st.integers(0, 5))
    raw = []

    def add(class_name, box, confidence):
        cid = [*CLASSES, "cyclist", "truck"].index(class_name)
        raw.append({"class_id": cid, "class_name": class_name, "confidence": confidence,
                    "bbox": box})

    for obj in objects:
        box = [scale * c for c in _bbox_list(obj.bbox)]
        add(obj.class_name, box, draw(confidences))
        for _ in range(draw(st.integers(0, 2))):
            dx, dy = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            jittered = [box[0] + dx, box[1] + dy, box[2] + dx, box[3] + dy]
            add(obj.class_name, jittered, draw(confidences))
    add("car", [0, 0, SLIVER, height], 0.9)
    add("truck", [-5, -5, width + 5, height + 5], draw(confidences))  # clamps to the whole image
    depth = disp
    if draw(st.booleans()):
        values = disparity_to_depth(disp, DEPTHS).values.copy()
        col, row = draw(st.integers(0, 40)), draw(st.integers(0, 24))
        values[row : row + 8, col : col + 8] = 0.0
        # its own class, so that NMS never drops it; it projects inside the hole
        sx, sy = width / 48, height / 32
        add("cyclist", [(col + 1) * sx, (row + 1) * sy, (col + 7) * sx, (row + 7) * sy], 0.9)
        depth = ScalarMap(48, 32, MapKind.DEPTH, values)
    raw = [raw[i] for i in draw(st.permutations(range(len(raw))))]
    doc = {"image": "img", "width": width, "height": height, "detections": raw}
    return json.dumps(doc).encode(), write_pfm(depth), depth.kind, draw(st.sampled_from(MODELS))


def predict(det_bytes, pfm, model, kind):
    """`monodist predict` on one image through the files backend."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "img.det.json").write_bytes(det_bytes)
        (d / "img.pfm").write_bytes(pfm)
        config = {
            "backend": {
                "mode": "files", "depth_dir": ".", "det_dir": ".", "depth_kind": kind.value,
            },
            "depth_range": DEPTHS.to_dict(),
            "min_conf": MIN_CONF,
            "iou_threshold": IOU,
        }
        if model is not None:
            (d / "m.calib.json").write_bytes(calib.serialize_model(model))
            config["calibration_model_path"] = "m.calib.json"
        (d / "config.json").write_text(json.dumps(config))
        argv = ["predict", "--config", str(d / "config.json"), "--image-id", "img"]
        assert cli.dispatch([*argv, "--out", str(d / "out.json")]) == 0
        return (d / "out.json").read_bytes()


def reference_predict(det_bytes, depth, model):
    """The record chain: parse, filter, NMS, then per box its projection and np.median."""
    ds = reference_parse_detections(det_bytes)
    ds = replace(ds, detections=tuple(d for d in ds.detections if d.confidence >= MIN_CONF))
    ds = reference_nms(ds, IOU)
    mw, mh = depth.width, depth.height
    iw, ih = ds.image_width, ds.image_height
    values = depth.values.astype(np.float64)
    holes = depth.kind is MapKind.DEPTH and values.min() <= 0
    objects, failures = [], []
    for det in ds.detections:
        b = det.bbox
        col0, row0 = max(0, math.floor(b.x0 * mw / iw)), max(0, math.floor(b.y0 * mh / ih))
        col1, row1 = min(mw, math.ceil(b.x1 * mw / iw)), min(mh, math.ceil(b.y1 * mh / ih))
        if col0 >= col1 or row0 >= row1:
            reason = f"bbox {b} projects to empty rect on a {mw}x{mh} grid"
            failures.append(roi.RoiFailure(det, reason))
            continue
        window = values[row0:row1, col0:col1]
        if holes:
            window = window[window > 0]
            if window.size == 0:
                rect = roi.IndexRect(col0, row0, col1, row1)
                failures.append(roi.RoiFailure(det, f"no positive depth in {rect}"))
                continue
        if depth.kind is MapKind.DISPARITY:
            window = disparity_to_depth_value(window, DEPTHS)
        rev = float(np.median(window))
        abs_m = None if model is None else calib.apply(model, rev)
        objects.append(roi.ObjectDistance(det, rev, abs_m))
    return roi.serialize_distances("img", objects, failures)


@settings(max_examples=100)
@given(predict_inputs())
def test_columnar_predict_matches_record_chain(inputs):
    det_bytes, pfm, kind, model = inputs
    expected = reference_predict(det_bytes, read_pfm(pfm, kind), model)
    reasons = [f["reason"] for f in json.loads(expected)["failures"]]
    assert any("projects to empty rect" in r for r in reasons)
    assert (kind is MapKind.DEPTH) == any("no positive depth" in r for r in reasons)
    assert predict(det_bytes, pfm, model, kind) == expected


# ---- metamorphic relations of predict on synth scenes ---------------------------


@st.composite
def synth_frames(draw):
    """A synth scene's disparity PFM and a `.det.json` of its boxes at distinct confidences."""
    objects = draw(st.lists(scene_object, min_size=1, max_size=6))
    spec = SceneSpec(48, 32, 80.0, tuple(objects), DEPTHS, 0.02, draw(st.integers(0, 99)))
    disp, _, _ = render_scene(spec)
    n = len(objects)
    confidences = draw(st.lists(st.floats(0.05, 1), min_size=n, max_size=n, unique=True))
    dets = [
        {"class_id": CLASSES.index(o.class_name), "class_name": o.class_name, "confidence": c,
         "bbox": _bbox_list(o.bbox)}
        for o, c in zip(objects, confidences)
    ]
    return {"image": "img", "width": 48, "height": 32, "detections": dets}, write_pfm(disp)


inside_frame = st.builds(
    lambda x, y, w, h: [x, y, x + w, y + h],
    st.integers(0, 40), st.integers(0, 24), st.integers(1, 8), st.integers(1, 8),
)


def predict_doc(doc, pfm):
    return predict(json.dumps(doc).encode(), pfm, None, MapKind.DISPARITY)


@given(synth_frames(), st.data())
def test_predict_ignores_the_order_of_detections(frame, data):
    doc, pfm = frame
    shuffled = data.draw(st.permutations(doc["detections"]))
    assert predict_doc({**doc, "detections": shuffled}, pfm) == predict_doc(doc, pfm)


@given(synth_frames(), st.data())
def test_predict_ignores_dropped_distractors(frame, data):
    """A detection below min_conf, or a lower-confidence same-class copy of a kept box."""
    doc, pfm = frame
    base = predict_doc(doc, pfm)
    kept = [o for o in json.loads(base)["objects"] if o["confidence"] > MIN_CONF]
    if kept and data.draw(st.booleans(), label="copy"):
        o = data.draw(st.sampled_from(kept))
        name, box = o["class_name"], o["bbox"]
        confidence = data.draw(st.floats(MIN_CONF, o["confidence"], exclude_max=True))
    else:
        name, box = data.draw(st.sampled_from(CLASSES)), data.draw(inside_frame)
        confidence = data.draw(st.floats(0, MIN_CONF, exclude_max=True))
    distractor = {"class_id": CLASSES.index(name), "class_name": name,
                  "confidence": confidence, "bbox": box}
    dets = list(doc["detections"])
    dets.insert(data.draw(st.integers(0, len(dets))), distractor)
    assert predict_doc({**doc, "detections": dets}, pfm) == base



def disjoint(a, b):
    return a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]


@given(synth_frames(), st.data())
def test_a_box_in_a_sensor_hole_leaves_the_other_boxes_unchanged(frame, data):
    """On a metric map, a box of a fresh class over a zero patch that no other box overlaps."""
    doc, pfm = frame
    depth = disparity_to_depth(read_pfm(pfm), DEPTHS).values.copy()
    boxes = [d["bbox"] for d in doc["detections"]]
    hole = data.draw(inside_frame.filter(lambda h: all(disjoint(h, b) for b in boxes)))
    depth[hole[1] : hole[3], hole[0] : hole[2]] = 0.0
    pfm = write_pfm(ScalarMap(48, 32, MapKind.DEPTH, depth))
    base = json.loads(predict(json.dumps(doc).encode(), pfm, None, MapKind.DEPTH))
    bad = {"class_id": 3, "class_name": "cyclist",
           "confidence": data.draw(st.floats(MIN_CONF, 1)), "bbox": hole}
    dets = list(doc["detections"])
    dets.insert(data.draw(st.integers(0, len(dets))), bad)
    got = json.loads(predict(json.dumps({**doc, "detections": dets}).encode(), pfm, None,
                             MapKind.DEPTH))
    assert got["objects"] == base["objects"]
    failures = base.get("failures", [])
    assert got["failures"][: len(failures)] == failures
    [added] = got["failures"][len(failures):]
    assert (added["class_name"], added["bbox"]) == ("cyclist", hole)
    assert added["reason"].startswith("no positive depth")


@given(synth_frames(), st.data())
def test_a_box_outside_the_image_leaves_the_other_boxes_unchanged(frame, data):
    """In process, a record-built box past the image's right edge projects to an empty rect."""
    doc, pfm = frame
    disparity = read_pfm(pfm)
    records = list(parse_detections(json.dumps(doc).encode()).detections)
    outside = Detection(0, "car", 0.9, BoundingBox(48, 0, data.draw(st.floats(48.5, 1e6)), 32))
    base = roi.measure_objects(disparity, DetectionSet("img", 48, 32, records), DEPTHS)
    records.insert(data.draw(st.integers(0, len(records))), outside)
    objects, failures = roi.measure_objects(disparity, DetectionSet("img", 48, 32, records), DEPTHS)
    assert objects == base[0]
    assert [f.detection for f in failures] == [*(f.detection for f in base[1]), outside]


@given(st.integers(0, 2**32 - 1), st.lists(inside_frame, min_size=1, max_size=6))
def test_a_disparity_map_pools_to_the_rev_of_its_depth(seed, boxes):
    """In process on float64 maps: through a float32 PFM the converted depths would round."""
    values = np.random.default_rng(seed).uniform(0.0, 1.0, (32, 48))
    disparity = ScalarMap(48, 32, MapKind.DISPARITY, values)
    dets = DetectionSet("img", 48, 32, [Detection(0, "car", 0.9, BoundingBox(*b)) for b in boxes])
    by_disparity, _ = roi.measure_objects(disparity, dets, DEPTHS)
    by_depth, _ = roi.measure_objects(disparity_to_depth(disparity, DEPTHS), dets)
    assert [od.rev for od in by_disparity] == [od.rev for od in by_depth]
