import math
import re
import sys
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monodist import cli
from monodist.errors import DataError, PfmFormatError
from monodist.maps import (
    DepthRange,
    MapKind,
    ScalarMap,
    depth_to_disparity_value,
    disparity_to_depth,
    disparity_to_depth_value,
    read_pfm,
    write_pfm,
)


def make_map(values, kind=MapKind.DISPARITY):
    arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return ScalarMap(width=arr.shape[1], height=arr.shape[0], kind=kind, values=arr)


def pfm_bytes(width, height, floats):
    return f"Pf\n{width} {height}\n-1.0\n".encode() + np.asarray(
        floats, dtype="<f4"
    ).tobytes()


F32_MAX = float(np.finfo(np.float32).max)

finite_f32 = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, width=32
)


@st.composite
def disparity_maps(draw):
    w = draw(st.integers(1, 8))
    h = draw(st.integers(1, 8))
    vals = draw(st.lists(finite_f32, min_size=w * h, max_size=w * h))
    return make_map(np.array(vals).reshape(h, w))


class TestScalarMap:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            make_map([[0.5, np.nan]])

    def test_rejects_disparity_outside_unit_interval(self):
        with pytest.raises(DataError):
            make_map([[1.5]])

    def test_rejects_zero_dimension(self):
        with pytest.raises(DataError):
            ScalarMap(width=0, height=1, kind=MapKind.DEPTH, values=np.zeros((1, 0)))

    @pytest.mark.parametrize("width, message", [
        (2, "a 2x2 map needs 4 values, got 1"),
        (2**70, "a 1180591620717411303424x2 map needs 2361183241434822606848 values, got 1"),
    ], ids=["short", "side_past_numpy"])
    def test_values_that_do_not_fill_the_map(self, width, message):
        with pytest.raises(DataError) as e:
            ScalarMap(width=width, height=2, kind=MapKind.DEPTH, values=[1.0])
        assert type(e.value) is DataError and str(e.value) == message

    def test_values_are_read_only(self):
        m = make_map([[0.5]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.1


class TestPfm:
    def test_minimal_decode(self):
        m = read_pfm(pfm_bytes(2, 1, [0.25, 0.75]))
        assert (m.width, m.height) == (2, 1)
        assert m.values.tolist() == [[0.25, 0.75]]

    def test_minimal_encode(self):
        m = make_map([[0.5]])
        assert write_pfm(m) == pfm_bytes(1, 1, [0.5])

    def test_bottom_row_first_on_disk(self):
        # two rows: top [0.1 0.2], bottom [0.3 0.4] -> file stores bottom first
        m = make_map([[0.1, 0.2], [0.3, 0.4]])
        payload = write_pfm(m)[len(b"Pf\n2 2\n-1.0\n") :]
        assert np.frombuffer(payload, "<f4").tolist() == pytest.approx(
            [0.3, 0.4, 0.1, 0.2]
        )

    def test_big_endian_scale(self):
        data = b"Pf\n1 1\n1.0\n" + np.array([0.5], dtype=">f4").tobytes()
        assert read_pfm(data).values[0, 0] == 0.5

    @pytest.mark.parametrize(
        "stream",
        [
            b"Pf\n0 1\n-1.0\n",
            b"Pf\n1 1\n-1.0\n" + b"\x00" * 3,  # truncated payload
            b"PF\n1 1\n-1.0\n" + b"\x00" * 12,  # color header
            b"P5\n1 1\n-1.0\n" + b"\x00" * 4,
            b"Pf\n1\n-1.0\n" + b"\x00" * 4,
            b"Pf\n1 1\n0.0\n" + b"\x00" * 4,
            b"Pf",
            b"Pf\nx 2\n-1.0\n",  # a header field that is not a number
        ],
    )
    def test_malformed_streams_rejected(self, stream):
        with pytest.raises(PfmFormatError):
            read_pfm(stream)

    def test_non_finite_payload_rejected(self):
        with pytest.raises(PfmFormatError):
            read_pfm(pfm_bytes(1, 1, [np.inf]))

    @given(disparity_maps())
    def test_round_trip_values(self, m):
        out = read_pfm(write_pfm(m))
        assert out.values.tolist() == m.values.tolist()

    @given(disparity_maps())
    def test_round_trip_bytes(self, m):
        stream = write_pfm(m)
        assert write_pfm(read_pfm(stream)) == stream

    @pytest.mark.parametrize("value", [1e39, -1e39, F32_MAX + 2.0**103])
    def test_value_beyond_float32_rejected_without_warnings(self, value):
        # F32_MAX + half an ulp is the midpoint, which rounds to even: to infinity
        m = make_map([[0.0, value]], kind=MapKind.DEPTH)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(f"map value {value} is beyond float32")):
                write_pfm(m)

    def test_value_that_rounds_to_the_largest_float32_writes(self):
        value = math.nextafter(F32_MAX + 2.0**103, 0.0)
        m = make_map([[value, -value]], kind=MapKind.DEPTH)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = read_pfm(write_pfm(m), MapKind.DEPTH)
        assert out.values.tolist() == [[F32_MAX, -F32_MAX]]

    def test_writes_deterministic(self):
        m = make_map([[0.1, 0.9]])
        assert write_pfm(m) == write_pfm(m)


class TestDisparityToDepth:
    def test_boundaries(self):
        m = make_map([[0.0, 1.0]])
        d = disparity_to_depth(m, DepthRange(0.1, 100.0))
        assert d.values[0, 0] == 100.0
        assert d.values[0, 1] == 0.1
        assert d.kind is MapKind.DEPTH

    def test_midpoint(self):
        d = disparity_to_depth(make_map([[0.5]]), DepthRange(0.1, 100.0))
        # 1 / (0.01 + 9.99 * 0.5)
        assert d.values[0, 0] == pytest.approx(0.199800, abs=1e-6)

    def test_rejects_depth_input(self):
        m = make_map([[5.0]], kind=MapKind.DEPTH)
        with pytest.raises(DataError):
            disparity_to_depth(m, DepthRange())

    @given(
        # grid values keep distinct disparities distinguishable in float
        st.lists(st.integers(0, 10**6).map(lambda i: i / 10**6), min_size=2, max_size=64),
        st.floats(0.01, 1.0),
        st.floats(10.0, 500.0),
    )
    def test_range_containment_and_monotone(self, vals, lo, hi):
        rng = DepthRange(lo, hi)
        d = disparity_to_depth(make_map([vals]), rng)
        assert (d.values >= rng.min_depth).all()
        assert (d.values <= rng.max_depth).all()
        order = np.argsort(vals)
        depths = d.values[0][order]
        sorted_vals = np.asarray(vals)[order]
        # strictly decreasing wherever disparity strictly increases
        for i in range(len(vals) - 1):
            if sorted_vals[i] < sorted_vals[i + 1]:
                assert depths[i] > depths[i + 1]

    @given(disparity_maps())
    def test_preserves_shape_and_ordering(self, m):
        d = disparity_to_depth(m, DepthRange())
        assert (d.width, d.height) == (m.width, m.height)
        # pixelwise: larger disparity never maps to larger depth
        flat_v = m.values.ravel()
        flat_d = d.values.ravel()
        i = int(np.argmin(flat_v))
        j = int(np.argmax(flat_v))
        assert flat_d[i] >= flat_d[j]

    def test_inverse_helper(self):
        rng = DepthRange(0.1, 100.0)
        for depth in (0.1, 1.0, 10.0, 99.0, 100.0):
            v = depth_to_disparity_value(depth, rng)
            back = disparity_to_depth(make_map([[v]]), rng)
            assert back.values[0, 0] == pytest.approx(depth, rel=1e-12)


@pytest.mark.parametrize("lo, hi", [
    (0.0, 100.0), (5.0, 5.0), (-1.0, 1.0), (math.nan, 1.0), (0.1, math.nan),
    (0.1, math.inf),  # 1/max is 0
    (1e-320, 100.0), (5e-324, 1.0), (1 / sys.float_info.max, 1.0),  # 1/min is infinite
    (0.1, sys.float_info.max),  # 1/max rounds down, and 1/(1/max) is infinite
    (1.75, math.nextafter(1.75, 2.0)),  # 1/max rounds to 1/min: no disparity span to divide by
])
def test_depth_range_validation(lo, hi):
    with pytest.raises(DataError, match=r"0 < min < max < inf, 1/min and 1/\(1/max\) finite"):
        DepthRange(lo, hi)


def test_depth_range_at_the_edges_of_the_rule_converts_without_warnings():
    lo = math.nextafter(1 / sys.float_info.max, 1.0)  # the least min with a finite 1/min
    hi = 1e308  # 1/(1/max) is finite; it is not at float max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        depth = disparity_to_depth_value(np.array([0.0, 0.5, 1.0]), DepthRange(lo, hi))
    assert depth.tolist() == pytest.approx([hi, 2 * lo, lo])


class TestReversedViewCheck:
    """A map built on a reversed-row view, as a PFM's is, is checked in every row."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("row", [0, -1], ids=["top", "bottom"])
    @pytest.mark.parametrize("kind", list(MapKind))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_a_bad_value_in_one_edge_row_is_found(self, dtype, row, kind, bad):
        grid = np.full((5, 3), 0.5, dtype)
        grid[row, 1] = bad
        arr = grid[::-1].copy()  # bottom row first, as stored in a PFM
        if math.isfinite(bad):
            if kind is MapKind.DEPTH:  # any finite depth passes the check
                ScalarMap(width=3, height=5, kind=kind, values=arr[::-1])
                return
            lo, hi = float(min(dtype(bad), 0.5)), float(max(dtype(bad), 0.5))
            message = f"disparity values outside [0, 1]: min={lo}, max={hi}"
        else:
            message = "map contains non-finite values"
        with pytest.raises(DataError) as e:
            ScalarMap(width=3, height=5, kind=kind, values=arr[::-1])
        assert str(e.value) == message


class TestPfmView:
    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf"])
    def test_non_finite_scale_rejected(self, scale):
        data = b"Pf\n2 1\n" + scale + b"\n" + np.array([0.25, 0.75], dtype="<f4").tobytes()
        with pytest.raises(PfmFormatError):
            read_pfm(data)

    def test_values_are_float32_read_only_view_of_input(self):
        data = pfm_bytes(3, 2, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        m = read_pfm(data)
        assert m.values.dtype == np.float32
        assert not m.values.flags.writeable
        assert np.shares_memory(m.values, np.frombuffer(data, dtype=np.uint8))
        # bottom row first on disk
        assert m.values.tolist() == np.array([[0.4, 0.5, 0.6], [0.1, 0.2, 0.3]], "f4").tolist()

    def test_writable_buffer_view_is_read_only(self):
        m = read_pfm(bytearray(pfm_bytes(1, 1, [0.5])))
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.1

    def test_out_of_range_payload_is_pfm_error(self):
        with pytest.raises(PfmFormatError):
            read_pfm(pfm_bytes(1, 1, [1.5]))

    def test_scalar_map_keeps_caller_array_writable(self):
        arr = np.full((2, 2), 0.5)
        ScalarMap(width=2, height=2, kind=MapKind.DISPARITY, values=arr)
        arr[0, 0] = 0.25

    def test_disparity_to_depth_upcasts_float32(self):
        m = read_pfm(pfm_bytes(1, 1, [0.3]))
        d = disparity_to_depth(m, DepthRange())
        assert d.values.dtype == np.float64
        upcast = disparity_to_depth(make_map([[np.float32(0.3)]]), DepthRange())
        assert d.values[0, 0] == upcast.values[0, 0]


# edge values of the map check: next1 is nextafter(1, 2), max the largest finite
# float, snan a signalling NaN, and every other name is the float it spells
POOL = (
    "0.0", "-0.0", "0.5", "1.0", "-1.0", "next1", "subnormal", "-subnormal", "max",
    "inf", "-inf", "nan", "snan",
)


def pool_array(names, dtype):
    """An array of `dtype` (any byte order) holding the named values, built from their bits.

    Bits keep a signalling NaN ("snan") unquieted, as a cast would not.
    """
    native = np.dtype(dtype[1:])
    fi = np.finfo(native)
    named = {
        "next1": np.nextafter(native.type(1), native.type(2)),
        "subnormal": fi.smallest_subnormal,
        "-subnormal": -fi.smallest_subnormal,
        "max": fi.max,
    }
    snan = 0x7FA00000 if native.itemsize == 4 else 0x7FF4000000000000
    uint = f"u{native.itemsize}"
    bits = [
        snan if n == "snan" else int(np.array(named[n] if n in named else float(n), native).view(uint))
        for n in np.ravel(names)
    ]
    return np.array(bits, uint).astype(dtype.replace("f", "u")).view(dtype).reshape(np.shape(names))


def reference_map_error(values, kind):
    """The map check as float min/max over the rows in memory order: None or the error text."""
    vals = np.asarray(values)
    if vals.dtype.char != "f":
        vals = vals.astype(np.float64)
    forward = vals[::-1] if vals.strides[0] < 0 else vals
    lo, hi = float(forward.min()), float(forward.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return "map contains non-finite values"
    if kind is MapKind.DISPARITY and (lo < 0.0 or hi > 1.0):
        return f"disparity values outside [0, 1]: min={lo}, max={hi}"
    return None


def pfm_view_bytes(grid, dtype, header_len):
    """A PFM stream of `grid` (top row first) in `dtype`'s byte order, its header padded."""
    h, w = grid.shape
    dims = f"{w} {h}\n"
    scale = "-1." if dtype[0] == "<" else "1."
    scale += "0" * (header_len - len("Pf\n") - len(dims) - len(scale) - 1)
    return f"Pf\n{dims}{scale}\n".encode() + grid[::-1].tobytes()


@st.composite
def name_grids(draw):
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(st.sampled_from(POOL), min_size=w, max_size=w)
    return [draw(row) for _ in range(h)]


class TestOnePassCheck:
    """`ScalarMap`'s unsigned max over the map's bits decides like float min/max."""

    @given(
        grid=name_grids(),
        kind=st.sampled_from(MapKind),
        dtype=st.sampled_from(["<f4", ">f4", "<f8", ">f8"]),
        layout=st.sampled_from(["array", "reversed", "pfm"]),
        header_len=st.integers(17, 20),
    )
    @example([["-0.0", "1.0"]], MapKind.DISPARITY, "<f4", "array", 17)
    @example([["0.5", "next1"]], MapKind.DISPARITY, ">f4", "pfm", 18)
    @example([["max", "0.5"]], MapKind.DEPTH, "<f8", "reversed", 17)
    @example([["max"], ["0.5"]], MapKind.DEPTH, ">f4", "pfm", 19)
    @example([["-1.0", "0.5"], ["0.5", "-1.0"]], MapKind.DEPTH, "<f4", "pfm", 20)
    @example([["-0.0", "0.5"]], MapKind.DEPTH, ">f8", "array", 17)
    @example([["0.5", "inf"]], MapKind.DEPTH, "<f4", "reversed", 17)
    @example([["inf"]], MapKind.DISPARITY, ">f4", "pfm", 17)
    def test_accepts_and_rejects_like_min_max(self, grid, kind, dtype, layout, header_len):
        arr = pool_array(grid, dtype)
        h, w = arr.shape
        if layout == "pfm":
            assume(dtype[1:] == "f4")
            data = pfm_view_bytes(arr, dtype, header_len)
            values = np.frombuffer(data, dtype, offset=header_len).reshape(h, w)[::-1]
            build, error = partial(read_pfm, data, kind), PfmFormatError
        else:
            values = arr[::-1].copy()[::-1] if layout == "reversed" else arr
            build, error = partial(ScalarMap, w, h, kind, values), DataError
        expected = reference_map_error(values, kind)

        calls = []

        def record_c_calls(frame, event, arg):
            if event == "c_call":
                calls.append(arg.__name__)

        sys.setprofile(record_c_calls)
        try:
            if expected is None:
                build()
            else:
                with pytest.raises(error) as e:
                    build()
        finally:
            sys.setprofile(None)
        if expected is not None:
            prefix = "PFM payload: " if layout == "pfm" else ""
            assert str(e.value) == prefix + expected

        # a map from +0.0 to its kind's bound is decided by one max, without min/max
        top = 1.0 if kind is MapKind.DISPARITY else np.finfo(arr.dtype).max
        with np.errstate(invalid="ignore"):
            in_range = not np.signbit(arr).any() and bool((arr <= top).all())
        assert ("min" in calls) is not in_range

    @pytest.mark.parametrize("dtype", ["<f4", ">f4"])
    def test_a_1920x1080_map_from_the_files_backend_allocates_no_temporary(self, tmp_path, dtype):
        grid = np.linspace(0.0, 1.0, 1920 * 1080, dtype=dtype).reshape(1080, 1920)
        (tmp_path / "frame.pfm").write_bytes(pfm_view_bytes(grid, dtype, 18))
        buf = cli.BackendConfig(cli.BackendMode.FILES, tmp_path, tmp_path).fetch_depth_bytes("frame")
        tracemalloc.start()
        try:
            m = read_pfm(buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(m.values, buf)
        # an np.isfinite or np.abs temporary of this map would take 2-8 MiB
        assert peak < 64 * 1024

    @pytest.mark.parametrize("dtype", ["<f4", ">f4", "<f8", ">f8"])
    @pytest.mark.parametrize("kind", list(MapKind))
    def test_a_signalling_nan_raises_only_data_error(self, dtype, kind):
        values = pool_array([["0.5", "snan"], ["1.0", "0.0"]], dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^map contains non-finite values$"):
                ScalarMap(width=2, height=2, kind=kind, values=values)
