import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from monodist.detect import BoundingBox, Detection, DetectionSet, _bbox_list
from monodist.errors import DataError, DegenerateRoiError
from monodist.maps import DepthRange, MapKind, ScalarMap, disparity_to_depth, read_pfm
from monodist.roi import (
    IndexRect,
    ObjectDistance,
    measure_columns,
    measure_objects,
    median_depth,
    parse_distances,
    project_bbox,
    serialize_distances,
)


def depth_map(values):
    arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return ScalarMap(width=arr.shape[1], height=arr.shape[0], kind=MapKind.DEPTH, values=arr)


def det(x0, y0, x1, y1, class_name="person"):
    return Detection(0, class_name, 0.9, BoundingBox(x0, y0, x1, y1))


@st.composite
def axis(draw):
    """An image side and a map side below 2**20, and an integer edge pair inside the image.

    Some side pairs share a drawn factor, and some edges lie on a grid line, where the
    exact scaled edge is an integer that a rounded ratio can miss by one ulp.
    """
    side, factor = st.integers(1, 2**20 - 1), st.integers(1, 1023)
    shared = st.tuples(factor, factor, factor).map(lambda t: (t[0] * t[1], t[0] * t[2]))
    i, m = draw(st.tuples(side, side) | shared)
    step = i // math.gcd(i, m)  # edge * m / i is an integer where edge is a multiple of step
    edge = st.integers(0, i) | st.integers(0, i // step).map(lambda k: k * step)
    near, far = sorted(draw(st.tuples(edge, edge).filter(lambda e: e[0] != e[1])))
    return i, m, near, far


class TestProjectBbox:
    def test_identity_scaling(self):
        r = project_bbox(BoundingBox(10, 20, 50, 120), (640, 480), (640, 480))
        assert r == IndexRect(col0=10, row0=20, col1=50, row1=120)

    def test_downscale_floor_ceil(self):
        r = project_bbox(BoundingBox(10, 20, 50, 100), (100, 100), (50, 50))
        assert r == IndexRect(col0=5, row0=10, col1=25, row1=50)

    def test_subpixel_box_yields_one_cell(self):
        r = project_bbox(BoundingBox(10.2, 10.2, 10.4, 10.4), (100, 100), (100, 100))
        assert r == IndexRect(col0=10, row0=10, col1=11, row1=11)

    def test_degenerate_raises(self):
        # box fully past the grid's right edge projects to an empty rect
        with pytest.raises(DegenerateRoiError):
            project_bbox(BoundingBox(640, 0, 641, 480), (640, 480), (1, 1))

    @pytest.mark.parametrize("image_dims, map_dims", [((0, 10), (10, 10)), ((10, 10), (10, 0))])
    def test_zero_size_raises(self, image_dims, map_dims):
        with pytest.raises(DataError, match="dimensions must be positive"):
            project_bbox(BoundingBox(1, 1, 2, 2), image_dims, map_dims)

    @pytest.mark.parametrize("image_dims, map_dims", [
        ((math.nan, 10), (64, 32)), ((10, math.nan), (64, 32)), ((10, 10), (math.nan, 32)),
    ], ids=["image width", "image height", "map width"])
    def test_nan_side_raises_without_warnings(self, image_dims, map_dims):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="must be an integer, got nan"):
                project_bbox(BoundingBox(0, 0, 1, 1), image_dims, map_dims)

    @pytest.mark.parametrize("image_dims, map_dims", [
        ((10**400, 10), (64, 32)), ((10, 10**400), (64, 32)), ((10, 10), (10**400, 32)),
    ], ids=["image width", "image height", "map width"])
    def test_side_past_float64_is_data_error(self, image_dims, map_dims):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="side past float64"):
                project_bbox(BoundingBox(0, 0, 1, 1), image_dims, map_dims)

    @pytest.mark.parametrize("rect, message", [
        ((-1, 0, 2, 2), "negative rect index"),
        ((0, 0, 0, 2), "empty rect"),
        ((0, 3, 2, 3), "empty rect"),
    ])
    def test_index_rect_rules(self, rect, message):
        with pytest.raises(DataError, match=message):
            IndexRect(*rect)

    @given(
        st.floats(0, 99), st.floats(0, 99), st.floats(0.1, 100), st.floats(0.1, 100),
        st.integers(1, 4),
    )
    def test_scale_invariance(self, x0, y0, dx, dy, k):
        bbox = BoundingBox(x0, y0, min(x0 + dx, 100), min(y0 + dy, 100))
        r1 = project_bbox(bbox, (100, 100), (50, 50))
        r2 = project_bbox(bbox, (100 * k, 100 * k), (50 * k, 50 * k))
        # same image/map ratio -> same rect (coords scale together)
        assert (r1.col1 - r1.col0) > 0
        assert r2 == r1

    @pytest.mark.parametrize(
        "box, image_width, map_width, col0, col1",
        [((7, 0, 10, 1), 14, 122, 61, 88), ((2, 0, 7, 1), 14, 58, 8, 29)],
    )
    def test_edge_on_a_grid_line_stays_on_it(self, box, image_width, map_width, col0, col1):
        r = project_bbox(BoundingBox(*box), (image_width, 1), (map_width, 1))
        assert (r.col0, r.col1) == (col0, col1)

    dims = st.tuples(st.integers(1, 119), st.integers(1, 119))
    unit = st.floats(0, 1)

    # box [0, 0, 1, 1] in a 2x1 image on a 58x1 grid: col1 was 29, and 30 at k = 7
    @example((2, 1), (58, 1), (0.0, 0.0, 0.0, 0.0), 7)
    @given(dims, dims, st.tuples(unit, unit, unit, unit), st.sampled_from([2, 3, 7]))
    def test_integer_box_scaled_with_its_image_keeps_its_rect(self, image, grid, fractions, k):
        # an integer box inside the image, its corners placed by the drawn fractions
        (iw, ih), (fx0, fy0, fx1, fy1) = image, fractions
        x0, y0 = int(fx0 * (iw - 1)), int(fy0 * (ih - 1))
        x1, y1 = x0 + 1 + int(fx1 * (iw - 1 - x0)), y0 + 1 + int(fy1 * (ih - 1 - y0))
        r1 = project_bbox(BoundingBox(x0, y0, x1, y1), (iw, ih), grid)
        rk = project_bbox(BoundingBox(x0 * k, y0 * k, x1 * k, y1 * k), (iw * k, ih * k), grid)
        assert rk == r1

    # 11 * (30 / 22) rounds to just below 15, and 7 * (58 / 14) to just above 29
    @example(x=(22, 30, 11, 12), y=(14, 58, 0, 7))
    @given(x=axis(), y=axis())
    def test_exact_projection_for_any_ratio(self, x, y):
        """Each edge is the exact fraction edge * map side / image side, the near one floored
        and the far one ceiled, then clipped to the grid."""
        def exact(side, grid, near, far):
            scale = Fraction(grid, side)
            return math.floor(near * scale), min(math.ceil(far * scale), grid)

        (iw, mw, x0, x1), (ih, mh, y0, y1) = x, y
        r = project_bbox(BoundingBox(x0, y0, x1, y1), (iw, ih), (mw, mh))
        assert ((r.col0, r.col1), (r.row0, r.row1)) == (exact(*x), exact(*y))

    @pytest.mark.parametrize("box, image, rect", [
        ((0, 0, 1e307, 1), (1e308, 10), (0, 0, 7, 4)),
        ((0, 0, 1e307, 1e307), (1e308, 1e308), (0, 0, 7, 4)),
        ((0, 0, 1e308, 1e308), (1e308, 1e308), (0, 0, 64, 32)),
    ])
    def test_corner_scaled_past_float_max_divides_first(self, box, image, rect):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = project_bbox(BoundingBox(*box), image, (64, 32))
        assert (r.col0, r.row0, r.col1, r.row1) == rect


class TestMedianDepth:
    def test_odd_count(self):
        m = depth_map([[1.0, 2.0, 3.0]])
        assert median_depth(m, IndexRect(0, 0, 3, 1)) == 2.0

    def test_even_count(self):
        m = depth_map([[1.0, 2.0], [3.0, 4.0]])
        assert median_depth(m, IndexRect(0, 0, 2, 2)) == 2.5

    def test_constant_plane(self):
        m = depth_map(np.full((8, 8), 7.0))
        assert median_depth(m, IndexRect(2, 3, 6, 7)) == 7.0

    def test_rejects_disparity_map(self):
        m = ScalarMap(2, 1, MapKind.DISPARITY, np.array([[0.1, 0.2]]))
        with pytest.raises(DataError):
            median_depth(m, IndexRect(0, 0, 2, 1))

    def test_rejects_out_of_bounds_rect(self):
        m = depth_map([[1.0, 2.0]])
        with pytest.raises(DataError):
            median_depth(m, IndexRect(0, 0, 3, 1))

    @given(st.lists(st.floats(0.1, 100), min_size=1, max_size=40), st.randoms())
    def test_permutation_invariant_and_bounded(self, vals, rnd):
        shuffled = list(vals)
        rnd.shuffle(shuffled)
        m1 = depth_map([vals])
        m2 = depth_map([shuffled])
        r1 = IndexRect(0, 0, len(vals), 1)
        v = median_depth(m1, r1)
        assert v == median_depth(m2, r1)
        assert min(vals) <= v <= max(vals)

    def test_matches_sort_oracle(self, rng):
        for _ in range(200):
            h, w = rng.integers(1, 12, size=2)
            m = depth_map(rng.uniform(0.1, 100, size=(h, w)))
            c0 = int(rng.integers(0, w))
            r0 = int(rng.integers(0, h))
            c1 = int(rng.integers(c0 + 1, w + 1))
            r1 = int(rng.integers(r0 + 1, h + 1))
            rect = IndexRect(c0, r0, c1, r1)
            flat = sorted(m.values[r0:r1, c0:c1].ravel())
            n = len(flat)
            expect = flat[n // 2] if n % 2 else (flat[n // 2 - 1] + flat[n // 2]) / 2
            assert median_depth(m, rect) == expect

    def test_holes_count_in_the_public_median(self):
        # zero, negative zero and negative pixels are values like any other here
        m = depth_map([[-2.0, 0.0, -0.0, 4.0, 6.0], [-1.0, -0.0, 0.0, 8.0, 9.0]])
        assert median_depth(m, IndexRect(0, 0, 5, 1)) == 0.0
        assert median_depth(m, IndexRect(0, 0, 5, 2)) == 0.0
        assert median_depth(m, IndexRect(0, 0, 2, 2)) == -0.5
        assert median_depth(m, IndexRect(2, 0, 4, 2)) == 2.0


class TestMeasureObjects:
    def test_constant_plane(self):
        m = depth_map(np.full((100, 100), 10.0))
        ds = DetectionSet("img", 100, 100, (det(10, 10, 40, 40),))
        objs, fails = measure_objects(m, ds)
        assert fails == []
        assert [o.rev for o in objs] == [10.0]

    def test_empty_set(self):
        m = depth_map(np.full((10, 10), 5.0))
        objs, fails = measure_objects(m, DetectionSet("img", 10, 10, ()))
        assert objs == [] and fails == []

    def test_two_half_planes(self):
        vals = np.full((50, 100), 5.0)
        vals[:, 50:] = 20.0
        m = depth_map(vals)
        ds = DetectionSet(
            "img", 100, 50, (det(5, 5, 40, 40), det(60, 5, 95, 40, class_name="car"))
        )
        objs, _ = measure_objects(m, ds)
        assert [o.rev for o in objs] == [5.0, 20.0]

    def test_order_matches_input(self):
        m = depth_map(np.full((10, 10), 3.0))
        ds = DetectionSet(
            "img", 10, 10, (det(0, 0, 5, 5, class_name="b"), det(5, 5, 9, 9, class_name="a"))
        )
        objs, _ = measure_objects(m, ds)
        assert [o.detection.class_name for o in objs] == ["b", "a"]


class TestDistancesFormat:
    def test_round_trip(self):
        objs = [
            ObjectDistance(det(1, 2, 3, 4), rev=5.5, abs=6.25),
            ObjectDistance(det(10, 20, 30, 40, class_name="car"), rev=9.75, abs=None),
        ]
        data = serialize_distances("img7", objs)
        image_id, back = parse_distances(data)
        assert image_id == "img7"
        assert [(o.detection.class_name, o.rev, o.abs) for o in back] == [
            ("person", 5.5, 6.25),
            ("car", 9.75, None),
        ]
        assert serialize_distances("img7", back) == data


disparities = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 0.25]),  # endpoints and ties
    st.floats(0.0, 1.0, width=32),
)
depth_ranges = st.builds(
    lambda lo, span: DepthRange(lo, lo + span), st.floats(0.01, 5.0), st.floats(0.1, 500.0)
)


@st.composite
def float32_windows(draw, values):
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    grid = np.array(draw(st.lists(values, min_size=h * w, max_size=h * w)), np.float32)
    c0 = draw(st.integers(0, w - 1))
    r0 = draw(st.integers(0, h - 1))
    rect = IndexRect(c0, r0, draw(st.integers(c0 + 1, w)), draw(st.integers(r0 + 1, h)))
    return grid.reshape(h, w), rect


def pooled_rev(m, rect, depth_range=None):
    box = det(rect.col0, rect.row0, rect.col1, rect.row1)
    objs, fails = measure_objects(m, DetectionSet("img", m.width, m.height, (box,)), depth_range)
    assert fails == []
    return objs[0].rev


class TestPooling:
    @given(float32_windows(disparities), depth_ranges)
    def test_disparity_space_matches_converted_median(self, window, rng):
        grid, rect = window
        m = ScalarMap(grid.shape[1], grid.shape[0], MapKind.DISPARITY, grid)
        assert m.values.dtype == np.float32
        depth = disparity_to_depth(m, rng)
        expect = median_depth(depth, rect)
        assert pooled_rev(m, rect, rng) == expect
        window_depth = depth.values[rect.row0 : rect.row1, rect.col0 : rect.col1]
        assert expect == float(np.median(window_depth))

    @given(float32_windows(st.floats(0.125, 100.0, width=32) | st.sampled_from([1.0, 2.0])))
    def test_metric_float32_matches_float64_median(self, window):
        grid, rect = window
        m = ScalarMap(grid.shape[1], grid.shape[0], MapKind.DEPTH, grid)
        window = grid[rect.row0 : rect.row1, rect.col0 : rect.col1]
        expect = float(np.median(window.astype(np.float64)))
        assert pooled_rev(m, rect, DepthRange()) == expect
        assert median_depth(m, rect) == expect
        assert median_depth(depth_map(grid.astype(np.float64)), rect) == expect

    def test_disparity_map_needs_depth_range(self):
        m = ScalarMap(2, 1, MapKind.DISPARITY, np.array([[0.1, 0.2]]))
        with pytest.raises(DataError):
            measure_objects(m, DetectionSet("img", 2, 1, (det(0, 0, 2, 1),)))

    def test_sensor_holes_are_skipped(self):
        vals = np.full((4, 8), 20.0)
        vals[:, :2] = 0.0  # hole under part of the first box
        vals[:, 6:] = -1.0  # the second box sees nothing valid
        vals[0, 2] = 5.0
        m = depth_map(vals)
        first, second = det(0, 0, 4, 4), det(6, 0, 8, 4, class_name="car")
        objs, fails = measure_objects(m, DetectionSet("img", 8, 4, (first, second)))
        assert [(o.detection, o.rev) for o in objs] == [(first, 20.0)]
        assert [f.detection for f in fails] == [second]
        assert "no positive depth" in fails[0].reason


def pfm_stream(grid, big_endian, pad):
    """A PFM stream of a top-first float32 grid; `pad` trailing zeros on the scale shift the payload."""
    h, w = grid.shape
    scale = ("1." if big_endian else "-1.") + "0" * pad
    dtype = ">f4" if big_endian else "<f4"
    return f"Pf\n{w} {h}\n{scale}\n".encode() + grid[::-1].astype(dtype).tobytes()


@st.composite
def decoded_metric_windows(draw):
    """Bench-scale metric windows, decoded from a PFM stream, with ties and sensor holes.

    The pixels come from a seeded generator, so windows up to 64x64 stay cheap
    to draw. A share of them repeat a few values (ties), and a share are holes:
    0.0, -0.0 or negative depth. The decoded map is a reversed-row view of the
    stream, unaligned for some header lengths and byte-swapped for a
    big-endian stream.
    """
    h, w = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    tie_share = draw(st.sampled_from([0.0, 0.5, 0.95]))
    hole_share = draw(st.sampled_from([0.0, 0.1, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.uniform(0.125, 100.0, (h, w)).astype(np.float32)
    grid = np.where(rng.random((h, w)) < tie_share, rng.choice([2.0, 7.5, 40.0], (h, w)), grid)
    holes = rng.choice(np.array([0.0, -0.0, -1.0, -1e-30, -80.0], np.float32), (h, w))
    grid = np.where(rng.random((h, w)) < hole_share, holes, grid).astype(np.float32)
    c0, r0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    rect = IndexRect(c0, r0, draw(st.integers(c0 + 1, w)), draw(st.integers(r0 + 1, h)))
    stream = pfm_stream(grid, draw(st.booleans()), draw(st.integers(0, 3)))
    return grid, read_pfm(stream, MapKind.DEPTH), rect


class TestBenchScalePooling:
    @given(decoded_metric_windows())
    def test_rev_is_the_median_of_the_positive_pixels(self, drawn):
        grid, m, rect = drawn
        assert np.array_equal(m.values, grid)
        box = det(rect.col0, rect.row0, rect.col1, rect.row1)
        objects, fails = measure_columns(m, DetectionSet("img", m.width, m.height, (box,)))
        window = grid[rect.row0 : rect.row1, rect.col0 : rect.col1].astype(np.float64)
        positive = window[window > 0]
        if positive.size:
            assert fails.reasons == []
            assert objects.rev.tolist() == [float(np.median(positive))]
        else:
            assert len(objects.rev) == 0
            failed = zip(fails.class_ids, fails.class_names, fails.boxes.tolist(), fails.reasons)
            reason = f"no positive depth in {rect}"
            assert list(failed) == [(box.class_id, box.class_name, _bbox_list(box.bbox), reason)]
        # the public median keeps every pixel, holes included
        assert median_depth(m, rect) == float(np.median(window))

    def test_streams_decode_to_unaligned_and_byte_swapped_views(self):
        grid = np.arange(1, 7, dtype=np.float32).reshape(2, 3)
        views = [read_pfm(pfm_stream(grid, be, pad), MapKind.DEPTH).values
                 for be in (False, True) for pad in range(4)]
        assert {v.dtype.isnative for v in views} == {True, False}
        assert {v.flags.aligned for v in views} == {True, False}
        assert all(v.strides[0] < 0 for v in views)
