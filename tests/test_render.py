"""`synth.render_scene` against the per-pixel renderer it replaced, and its memory."""
import math
import tracemalloc

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_render
from monodist.detect import BoundingBox, serialize_detections
from monodist.evaluate import serialize_ground_truth
from monodist.maps import DepthRange, read_pfm, write_pfm
from monodist.synth import SceneObject, SceneSpec, render_scene


@st.composite
def depth_ranges(draw):
    if draw(st.booleans()):
        return DepthRange()
    lo = draw(st.floats(1e-3, 50.0))
    # the range rule asks for distinct disparity bounds, and so a max past one ulp or two
    return DepthRange(lo, draw(st.floats(lo, 1e5).filter(lambda hi: 1.0 / hi < 1.0 / lo)))


def depths(rng):
    """Depths in the range, often at or next to either end, where the [0, 1] clip acts."""
    lo, hi = rng.min_depth, rng.max_depth
    ends = [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo)]
    return st.one_of(st.sampled_from(ends), st.floats(lo, hi))


@st.composite
def spans(draw, side):
    """A box's near and far edge on one axis: whole or fractional, often thinner than a cell,
    and often cut at the map edge."""
    near = draw(st.integers(0, side - 1).map(float) | st.floats(0.0, side, exclude_max=True))
    length = draw(st.floats(1e-3, 1.0) | st.floats(1.0, side) | st.just(float(side)))
    return near, min(float(side), near + length)


@st.composite
def scenes(draw):
    w, h, rng = draw(st.integers(1, 24)), draw(st.integers(1, 24)), draw(depth_ranges())
    objects = []
    for i in range(draw(st.integers(0, 6))):
        (x0, x1), (y0, y1) = draw(spans(w)), draw(spans(h))
        objects.append(SceneObject(f"c{i % 3}", draw(depths(rng)), BoundingBox(x0, y0, x1, y1)))
    noise = draw(st.just(0.0) | st.sampled_from([1e-6, 1e-3, 0.05, 1.0]) | st.floats(0.0, 1.0))
    return SceneSpec(w, h, draw(depths(rng)), tuple(objects), rng, noise,
                     draw(st.integers(0, 2**64)))


@given(scenes())
def test_render_writes_the_bytes_of_the_per_pixel_renderer(spec):
    disp, dets, gts = render_scene(spec)
    ref_disp, ref_dets, ref_gts = reference_render(spec)
    stream = write_pfm(disp)
    assert stream == write_pfm(ref_disp)
    assert serialize_detections(dets) == serialize_detections(ref_dets)
    assert serialize_ground_truth("img", gts) == serialize_ground_truth("img", ref_gts)
    # the map holds the values, and the dtype, that its PFM file reads back as
    back = read_pfm(stream)
    assert back.values.dtype == disp.values.dtype == np.float32
    assert back.values.tobytes() == disp.values.tobytes()


def test_a_noise_free_full_hd_render_peaks_at_one_float32_frame():
    w, h = 1920, 1080
    objects = tuple(
        SceneObject("car", 5.0 + 3 * i, BoundingBox(200 * i, 100 * i, 200 * i + 400, 100 * i + 300))
        for i in range(8)
    )
    spec = SceneSpec(w, h, 80.0, objects)
    tracemalloc.start()
    try:
        render_scene(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 4 * w * h
