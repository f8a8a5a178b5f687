import numpy as np
import pytest

from monodist.calib import CalibrationModel, apply
from monodist.detect import BoundingBox
from monodist.errors import SceneError
from monodist.evaluate import build_report, match_objects
from monodist.maps import DepthRange, disparity_to_depth, read_pfm, write_pfm
from monodist.roi import ObjectDistance, measure_objects
from monodist.synth import (
    SceneObject,
    SceneSpec,
    parse_scene,
    render_scene,
    serialize_scene,
)


def scene(objects=(), w=64, h=48, background=100.0, **kw):
    return SceneSpec(
        map_width=w, map_height=h, background_depth=background, objects=tuple(objects), **kw
    )


class TestRenderScene:
    def test_object_disparity_value(self):
        spec = scene([SceneObject("car", 10.0, BoundingBox(5, 5, 20, 20))])
        disp, _, _ = render_scene(spec)
        # (1/10 - 1/100) / (1/0.1 - 1/100)
        assert disp.values[10, 10] == pytest.approx(0.09 / 9.99, abs=1e-7)

    def test_background_is_zero_disparity(self):
        disp, dets, gts = render_scene(scene(background=100.0))
        assert (disp.values == 0.0).all()
        assert dets.detections == ()
        assert gts == []

    def test_detections_and_gt_carry_spec(self):
        spec = scene([SceneObject("car", 10.0, BoundingBox(5, 5, 20, 20))])
        _, dets, gts = render_scene(spec)
        assert dets.detections[0].confidence == 1.0
        assert dets.detections[0].bbox == BoundingBox(5, 5, 20, 20)
        assert gts[0].abs_distance == 10.0
        assert gts[0].bbox == BoundingBox(5, 5, 20, 20)

    def test_nearest_wins_on_overlap(self):
        spec = scene(
            [
                SceneObject("far", 50.0, BoundingBox(0, 0, 30, 30)),
                SceneObject("near", 5.0, BoundingBox(10, 10, 40, 40)),
            ]
        )
        disp, _, _ = render_scene(spec)
        depth = disparity_to_depth(disp, spec.depth_range)
        assert depth.values[20, 20] == pytest.approx(5.0, abs=1e-4)
        assert depth.values[5, 5] == pytest.approx(50.0, abs=1e-4)

    def test_depth_outside_range_rejected(self):
        with pytest.raises(SceneError):
            scene([SceneObject("car", 200.0, BoundingBox(0, 0, 5, 5))])

    @pytest.mark.parametrize("background", [0.05, 200.0, float("nan")])
    def test_background_outside_range_rejected(self, background):
        with pytest.raises(SceneError, match="background depth .* outside range"):
            scene(background=background)

    def test_box_outside_map_rejected(self):
        with pytest.raises(SceneError):
            scene([SceneObject("car", 5.0, BoundingBox(0, 0, 100, 5))])

    def test_noise_is_seeded_and_bounded(self):
        kw = dict(noise_amplitude=0.01, seed=7)
        a, _, _ = render_scene(scene([SceneObject("car", 10.0, BoundingBox(5, 5, 20, 20))], **kw))
        b, _, _ = render_scene(scene([SceneObject("car", 10.0, BoundingBox(5, 5, 20, 20))], **kw))
        assert (a.values == b.values).all()
        assert a.values.min() >= 0.0 and a.values.max() <= 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(noise_amplitude=float("nan")),
            dict(noise_amplitude=float("inf")),
            dict(noise_amplitude=1.5),
            dict(noise_amplitude=-0.1),
            dict(seed=-1),
            dict(seed=1.5),
        ],
    )
    def test_bad_noise_or_seed_rejected(self, kw):
        with pytest.raises(SceneError):
            scene(**kw)

    def test_full_scale_noise_renders(self):
        disp, _, _ = render_scene(scene(noise_amplitude=1.0, seed=0))
        assert disp.values.min() >= 0.0 and disp.values.max() <= 1.0


class TestOracleClosure:
    def test_measured_rev_matches_spec_depth(self, rng):
        for _ in range(10):
            objs = []
            for i in range(int(rng.integers(1, 4))):
                # one 8-wide box per 16-column band keeps objects disjoint
                x0 = 16 * i + float(rng.integers(0, 6))
                y0 = float(rng.integers(0, 30))
                objs.append(
                    SceneObject(
                        f"obj{i}",
                        float(rng.uniform(1, 90)),
                        BoundingBox(x0, y0, x0 + 8, y0 + 8),
                    )
                )
            spec = scene(objs, w=120, h=60)
            disp, dets, gts = render_scene(spec)
            # through the PFM interchange, as the real pipeline would
            disp = read_pfm(write_pfm(disp))
            depth = disparity_to_depth(disp, spec.depth_range)
            measured, fails = measure_objects(depth, dets)
            assert fails == []
            for od, obj in zip(measured, objs):
                assert od.rev == pytest.approx(obj.depth, abs=1e-4)

    def test_end_to_end_identity_calibration(self):
        spec = scene(
            [
                SceneObject("car", 12.0, BoundingBox(2, 2, 18, 18)),
                SceneObject("person", 33.0, BoundingBox(30, 5, 45, 40)),
            ]
        )
        disp, dets, gts = render_scene(spec)
        depth = disparity_to_depth(disp, spec.depth_range)
        measured, _ = measure_objects(depth, dets)
        ident = CalibrationModel(c0=0, c1=1, c2=0, h=1)
        calibrated = [
            ObjectDistance(od.detection, od.rev, abs=apply(ident, od.rev)) for od in measured
        ]
        pairs, up, ug = match_objects(calibrated, gts)
        assert up == ug == 0
        report = build_report(pairs, up, ug, t=0.2)
        assert report.rmse <= 1e-4
        assert report.accuracy == 1.0


class TestSceneFormat:
    def test_round_trip(self):
        spec = scene(
            [SceneObject("car", 10.0, BoundingBox(5, 5, 20, 20))],
            background=80.0,
            noise_amplitude=0.01,
            seed=3,
            depth_range=DepthRange(0.5, 80.0),
        )
        data = serialize_scene(spec)
        assert parse_scene(data) == spec
        assert serialize_scene(parse_scene(data)) == data

    def test_defaults(self):
        spec = parse_scene(b'{"map_width": 4, "map_height": 3, "background_depth_m": 50}')
        assert spec.depth_range == DepthRange(0.1, 100.0)
        assert spec.objects == ()
        assert spec.noise_amplitude == 0.0

    def test_malformed(self):
        with pytest.raises(SceneError):
            parse_scene(b"{")
        with pytest.raises(SceneError):
            parse_scene(b'{"map_width": 4}')
