"""Columnar evaluation against the record-by-record parsers and under file splits.

The column decoders must accept and reject exactly the documents the
record parsers in conftest do, and decode the same values; the evaluate
report must not depend on how an image's objects are split across files
or in which order the files are given.
"""
import copy
import json
import math

from conftest import reference_bbox, reference_parse_distances, reference_parse_ground_truth
from hypothesis import given, settings
from hypothesis import strategies as st

from monodist import evaluate, roi
from monodist.detect import BoundingBox, _bbox_array, _bbox_list
from monodist.errors import DataError, DetectionFormatError
from monodist.maps import DepthRange
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
    objects = range(len(doc["objects"]))
    kinds = ["image", "objects"] + (["object", "coordinate", *fields] if objects else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind in ("image", "objects"):
        path = (kind,)
    else:
        i = data.draw(st.sampled_from(objects))
        if kind == "object":
            path = ("objects", i)
        elif kind == "coordinate":
            doc["objects"][i].setdefault("bbox", [1.0, 1.0, 2.0, 2.0])
            path = ("objects", i, "bbox", data.draw(st.integers(0, 3)))
        else:
            path = ("objects", i, kind)
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
def test_box_array_and_bounding_box_agree(rows):
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
