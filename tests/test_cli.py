import contextlib
import gc
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import monodist
from conftest import checkout_env
from monodist import cli, evaluate, synth
from monodist.calib import REFERENCE_COEFFS, CalibrationModel, serialize_model
from monodist.detect import BoundingBox, Detection, DetectionSet, serialize_detections
from monodist.errors import BackendError, DataError, PfmFormatError
from monodist.maps import MapKind, ScalarMap, read_pfm, write_pfm
from monodist.roi import ObjectDistance, parse_distances, serialize_distances
from monodist.synth import SceneObject, SceneSpec, serialize_scene


def run(argv):
    return cli.dispatch(shlex.split(argv) if isinstance(argv, str) else argv)


def run_python(code):
    return subprocess.run(
        [sys.executable, "-c", code], env=checkout_env(), capture_output=True, text=True,
        timeout=120,
    )


def write_scene(tmp_path, objects, name="scene", **kw):
    spec = SceneSpec(
        map_width=64, map_height=48, background_depth=100.0, objects=tuple(objects), **kw
    )
    path = tmp_path / f"{name}.scene.json"
    path.write_bytes(serialize_scene(spec))
    return spec, path


def files_config(tmp_path, data_dir, calibration=None, **extra):
    doc = {
        "backend": {
            "mode": "files",
            "depth_dir": str(data_dir.relative_to(tmp_path)),
            "det_dir": str(data_dir.relative_to(tmp_path)),
            "depth_kind": "disparity",
        },
        "min_conf": 0.25,
        "iou_threshold": 0.45,
        **extra,
    }
    if calibration is not None:
        calib_path = tmp_path / "model.calib.json"
        calib_path.write_bytes(serialize_model(calibration))
        doc["calibration_model_path"] = "model.calib.json"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


IDENT = CalibrationModel(c0=0, c1=1, c2=0, h=1)


def synth_inputs(tmp_path, objects=(SceneObject("car", 10.0, BoundingBox(5, 5, 30, 30)),)):
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    _, scene_path = write_scene(tmp_path, objects)
    assert run(f"synth --scene {scene_path} --out-prefix {data}/img0") == 0
    return data


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_required_flag(self):
        assert run("calibrate --samples x.csv") == 1

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_cached_parser_carries_no_state_between_calls(self, tmp_path):
        data = synth_inputs(tmp_path)
        cfg = files_config(tmp_path, data)
        out = tmp_path / "img0.dist.json"
        assert run("--help") == 0
        assert run(f"predict --config {cfg} --image-id img0") == 1
        assert run(f"predict --config {cfg} --image-id img0 --out {out} --min-conf 1.5") == 2
        # neither the bad override nor the missing --out of the calls above persists
        assert run(f"predict --config {cfg} --image-id img0 --out {out}") == 0
        _, objects = parse_distances(out.read_bytes())
        assert [od.detection.class_name for od in objects] == ["car"]
        assert cli._build_parser() is cli._build_parser()

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run(f"calibrate --samples {tmp_path}/no.csv --camera-height 1 --out {tmp_path}/o") == 2


class TestCalibrate:
    def test_fits_and_writes_model(self, tmp_path, capsys):
        c0, c1, c2 = REFERENCE_COEFFS
        rows = ["x_m,y_abs_m"] + [
            f"{x},{c0 + c1 * x + c2 * x * x}" for x in range(1, 50, 5)
        ]
        csv = tmp_path / "samples.csv"
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "m.calib.json"
        assert run(f"calibrate --samples {csv} --camera-height 1.0 --out {out}") == 0
        doc = json.loads(out.read_text())
        assert doc["c0"] == pytest.approx(c0, abs=1e-9)
        assert doc["h_m"] == 1.0

    def test_two_samples_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "samples.csv"
        csv.write_text("x_m,y_abs_m\n1,2\n3,4\n")
        assert run(f"calibrate --samples {csv} --camera-height 1 --out {tmp_path}/m.json") == 2
        assert "distinct x" in capsys.readouterr().err


class TestPredict:
    def test_rev_only_without_model(self, tmp_path):
        data = synth_inputs(tmp_path)
        cfg = files_config(tmp_path, data)
        out = tmp_path / "img0.dist.json"
        assert run(f"predict --config {cfg} --image-id img0 --out {out}") == 0
        _, objects = parse_distances(out.read_bytes())
        assert len(objects) == 1
        assert objects[0].abs is None
        assert objects[0].rev == pytest.approx(10.0, abs=1e-4)

    def test_identity_calibration(self, tmp_path):
        data = synth_inputs(tmp_path)
        cfg = files_config(tmp_path, data, calibration=IDENT)
        out = tmp_path / "img0.dist.json"
        assert run(f"predict --config {cfg} --image-id img0 --out {out}") == 0
        _, objects = parse_distances(out.read_bytes())
        assert objects[0].abs == pytest.approx(10.0, abs=1e-4)

    def test_reference_calibration_at_rev_10(self, tmp_path):
        data = synth_inputs(tmp_path)
        c0, c1, c2 = REFERENCE_COEFFS
        model = CalibrationModel(c0=c0, c1=c1, c2=c2, h=1.0)
        cfg = files_config(tmp_path, data, calibration=model)
        out = tmp_path / "img0.dist.json"
        assert run(f"predict --config {cfg} --image-id img0 --out {out}") == 0
        _, objects = parse_distances(out.read_bytes())
        assert objects[0].abs == pytest.approx(16.701, abs=1e-3)

    def test_calibration_overflow_is_data_error(self, tmp_path, capsys):
        data = synth_inputs(tmp_path)
        # finite coefficients, but c2 * rev**2 at rev 10 overflows float64
        cfg = files_config(tmp_path, data, calibration=CalibrationModel(0, 0, 1e307, 1.0))
        out = tmp_path / "img0.dist.json"
        assert run(f"predict --config {cfg} --image-id img0 --out {out}") == 2
        assert "abs must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_backend_file_exit_2(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        cfg = files_config(tmp_path, data)
        assert run(f"predict --config {cfg} --image-id nope --out {tmp_path}/o.json") == 2

    def test_config_env_var(self, tmp_path, monkeypatch):
        data = synth_inputs(tmp_path)
        cfg = files_config(tmp_path, data)
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
        out = tmp_path / "img0.dist.json"
        assert run(f"predict --image-id img0 --out {out}") == 0

    def test_no_config_anywhere_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        assert run(f"predict --image-id x --out {tmp_path}/o.json") == 1

    def test_no_config_is_a_usage_error_printed_with_the_usage_line(self, tmp_path):
        env = {k: v for k, v in checkout_env().items() if k != cli.CONFIG_ENV_VAR}
        proc = subprocess.run(
            [sys.executable, "-m", "monodist.cli", "predict", "--image-id", "x", "--out", "o.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("usage: monodist predict")
        assert proc.stderr.endswith(
            "monodist predict: error: argument --config: no config given and "
            f"{cli.CONFIG_ENV_VAR} is unset\n"
        )
        assert "Traceback" not in proc.stderr and list(tmp_path.iterdir()) == []

    def test_the_cached_parser_reads_the_environment_on_each_call(self, tmp_path, monkeypatch):
        cfg = files_config(tmp_path, synth_inputs(tmp_path))
        argv = f"predict --image-id img0 --out {tmp_path}/o.json"
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        assert run(argv) == 1
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
        assert run(argv) == 0
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, "")
        assert run(argv) == 1

    def test_deterministic_output(self, tmp_path):
        data = synth_inputs(tmp_path)
        cfg = files_config(tmp_path, data, calibration=IDENT)
        out1 = tmp_path / "a.dist.json"
        out2 = tmp_path / "b.dist.json"
        run(f"predict --config {cfg} --image-id img0 --out {out1}")
        run(f"predict --config {cfg} --image-id img0 --out {out2}")
        assert out1.read_bytes() == out2.read_bytes()

    def test_process_backend_equivalent_to_files(self, tmp_path):
        data = synth_inputs(tmp_path)
        cfg_files = files_config(tmp_path, data, calibration=IDENT)
        proc_doc = {
            "backend": {
                "mode": "process",
                "depth_command": f"cat {data}/{{image_id}}.pfm",
                "det_command": f"cat {data}/{{image_id}}.det.json",
                "depth_kind": "disparity",
            },
            "calibration_model_path": "model.calib.json",
        }
        cfg_proc = tmp_path / "config_proc.json"
        cfg_proc.write_text(json.dumps(proc_doc))
        out_f = tmp_path / "f.dist.json"
        out_p = tmp_path / "p.dist.json"
        assert run(f"predict --config {cfg_files} --image-id img0 --out {out_f}") == 0
        assert run(f"predict --config {cfg_proc} --image-id img0 --out {out_p}") == 0
        assert out_f.read_bytes() == out_p.read_bytes()

    def test_failing_process_backend_exit_2(self, tmp_path):
        doc = {
            "backend": {
                "mode": "process",
                "depth_command": "false",
                "det_command": "false",
            }
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert run(f"predict --config {cfg} --image-id x --out {tmp_path}/o.json") == 2

    def test_shell_syntax_in_image_id_runs_nothing(self, tmp_path):
        marker = tmp_path / "PWNED"
        doc = {
            "backend": {
                "mode": "process",
                "depth_command": "cat {image_id}.pfm",
                "det_command": "cat {image_id}.det.json",
            }
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        argv = ["predict", "--config", str(cfg), "--out", str(tmp_path / "o.json")]
        assert run(argv + ["--image-id", f"img0; touch {marker}; echo"]) == 2
        assert not marker.exists()

    def test_image_id_with_a_path_exit_2(self, tmp_path, capsys):
        data = synth_inputs(tmp_path)
        (data / "sub").mkdir()
        cfg = files_config(tmp_path, data / "sub")
        out = tmp_path / "o.json"
        assert run(f"predict --config {cfg} --image-id ../img0 --out {out}") == 2
        assert "bad image id '../img0'" in capsys.readouterr().err
        assert not out.exists()

    def test_calibration_path_is_relative_to_working_directory(self, tmp_path, monkeypatch):
        data = synth_inputs(tmp_path)
        (tmp_path / "cfg").mkdir()
        cfg = files_config(tmp_path, data).rename(tmp_path / "cfg" / "c.json")
        doc = json.loads(cfg.read_text())
        doc["backend"].update(depth_dir="../data", det_dir="../data")
        cfg.write_text(json.dumps(doc))
        work = tmp_path / "work"
        work.mkdir()
        (work / "m.calib.json").write_bytes(serialize_model(IDENT))
        monkeypatch.chdir(work)
        argv = "predict --config ../cfg/c.json --image-id img0 --out o.json"
        assert run(f"{argv} --calibration m.calib.json") == 0
        _, objects = parse_distances((work / "o.json").read_bytes())
        assert objects[0].abs == pytest.approx(10.0, abs=1e-4)

    def test_detections_are_fetched_before_the_depth_map(self, tmp_path):
        marker = tmp_path / "depth_was_fetched"
        doc = {
            "backend": {
                "mode": "process",
                "depth_command": f"touch {marker}",
                "det_command": "false",
            }
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert run(f"predict --config {cfg} --image-id x --out {tmp_path}/o.json") == 2
        assert not marker.exists()

    @pytest.mark.parametrize("template", [
        "awk '{print}' {image_id}.pfm", "cat {0}.pfm", "cat {image_id", "cat {image_id.x}",
        "cat {image_id[x]}", "cat {image_id:d}",
    ])
    def test_template_with_a_literal_brace_exit_2(self, tmp_path, capsys, template):
        doc = {"backend": {"mode": "process", "depth_command": template, "det_command": "true"}}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        assert run(["predict", "--config", str(cfg), "--image-id", "x", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "depth_command" in err and "literal braces must be doubled" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["depth_command", "det_command"])
    @pytest.mark.parametrize("template", ["cat {foo}.pfm", "cat {0}", "cat {image_id", 5])
    def test_a_backend_config_and_its_file_reject_a_template_alike(self, tmp_path, key, template):
        """The template rule is the record's own: a BackendConfig fails as a config file does."""
        commands = {"depth_command": "true", "det_command": "true", key: template}
        with pytest.raises(DataError) as record:
            cli.BackendConfig(cli.BackendMode.PROCESS, commands["depth_command"],
                              commands["det_command"])
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"backend": {"mode": "process", **commands}}))
        with pytest.raises(DataError) as decoded:
            cli.load_config(cfg)
        assert str(record.value).startswith(f"{key} {template!r} substitutes only {{image_id}}")
        if isinstance(template, str):  # a config file requires a string
            assert str(decoded.value) == str(record.value)
        else:
            assert str(decoded.value) == f"process backend requires {key}"

    def test_a_files_backend_joins_a_str_directory_as_a_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "frames").mkdir()
        (tmp_path / "frames" / "x.det.json").write_bytes(b"{}")
        backend = cli.BackendConfig(cli.BackendMode.FILES, "frames", "frames")
        assert backend.fetch_detection_bytes("x") == b"{}"
        with pytest.raises(BackendError, match="missing depth map frames/x.pfm"):
            backend.fetch_depth_bytes("x")

    def test_doubled_braces_in_a_template_are_literal(self, tmp_path):
        data = synth_inputs(tmp_path)
        doc = {
            "backend": {
                "mode": "process",
                "depth_command": f"sh -c 'cat \"$1\"' {{{{}}}} {data}/{{image_id}}.pfm",
                "det_command": f"cat {data}/{{image_id}}.det.json # {{{{literal}}}}",
            }
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        cfg_files = files_config(tmp_path, data)
        out_p, out_f = tmp_path / "p.dist.json", tmp_path / "f.dist.json"
        assert run(["predict", "--config", str(cfg), "--image-id", "img0", "--out", str(out_p)]) == 0
        assert run(f"predict --config {cfg_files} --image-id img0 --out {out_f}") == 0
        assert out_p.read_bytes() == out_f.read_bytes()


class TestEvaluate:
    def test_reference_rows(self, tmp_path):
        from conftest import REFERENCE_ROWS

        # one image per row so the order-based matcher pairs them 1:1
        preds, gts = [], []
        for i, (cls, truth, predicted) in enumerate(REFERENCE_ROWS):
            p = tmp_path / f"p{i}.dist.json"
            g = tmp_path / f"g{i}.gt.json"
            p.write_text(
                json.dumps(
                    {
                        "image": f"im{i}",
                        "objects": [
                            {
                                "class_name": cls,
                                "confidence": 1.0,
                                "bbox": [0, 0, 10, 10],
                                "rev_m": predicted,
                                "abs_m": predicted,
                            }
                        ],
                    }
                )
            )
            g.write_text(
                json.dumps(
                    {"image": f"im{i}", "objects": [{"class_name": cls, "abs_m": truth}]}
                )
            )
            preds.append(str(p))
            gts.append(str(g))
        out = tmp_path / "report.json"
        rc = run(
            ["evaluate", "--pred", *preds, "--gt", *gts, "--threshold", "0.2", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["rmse_m"] == pytest.approx(0.3390, abs=0.0005)
        assert doc["accuracy"] == pytest.approx(5 / 9, abs=1e-12)
        assert len(doc["pairs"]) == 9

    def test_no_matches_exit_2(self, tmp_path):
        p = tmp_path / "p.dist.json"
        g = tmp_path / "g.gt.json"
        p.write_text(json.dumps({"image": "a", "objects": []}))
        g.write_text(json.dumps({"image": "a", "objects": []}))
        assert run(f"evaluate --pred {p} --gt {g} --out {tmp_path}/r.json") == 2

    def test_threshold_defaults_to_evaluates_own(self, tmp_path, capsys):
        data = synth_inputs(tmp_path)
        cfg = files_config(tmp_path, data)
        dist, report = tmp_path / "img0.dist.json", tmp_path / "report.json"
        assert run(f"predict --config {cfg} --image-id img0 --out {dist}") == 0
        assert run(f"evaluate --pred {dist} --gt {data}/img0.gt.json --out {report}") == 0
        assert json.loads(report.read_text())["threshold_m"] == 0.2
        assert "accuracy(T=0.2 m)" in capsys.readouterr().out

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_threshold_not_positive_finite_exit_2(self, tmp_path, capsys, threshold):
        od = ObjectDistance(Detection(0, "car", 0.9, BoundingBox(0, 0, 10, 10)), rev=5.0)
        p = tmp_path / "p.dist.json"
        g = tmp_path / "g.gt.json"
        p.write_bytes(serialize_distances("a", [od]))
        g.write_text(json.dumps({"image": "a", "objects": [{"class_name": "car", "abs_m": 5.1}]}))
        out = tmp_path / "r.json"
        argv = ["evaluate", "--pred", str(p), "--gt", str(g), "--threshold", threshold]
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("monodist evaluate: threshold") and "Traceback" not in err

    def test_synth_predict_evaluate_closure(self, tmp_path):
        objects = (
            SceneObject("car", 12.0, BoundingBox(2, 2, 18, 18)),
            SceneObject("person", 33.0, BoundingBox(30, 5, 45, 40)),
            SceneObject("chair", 4.5, BoundingBox(48, 30, 60, 46)),
        )
        data = synth_inputs(tmp_path, objects)
        cfg = files_config(tmp_path, data, calibration=IDENT)
        dist = tmp_path / "img0.dist.json"
        report = tmp_path / "report.json"
        assert run(f"predict --config {cfg} --image-id img0 --out {dist}") == 0
        assert run(
            f"evaluate --pred {dist} --gt {data}/img0.gt.json --threshold 0.2 --out {report}"
        ) == 0
        doc = json.loads(report.read_text())
        assert doc["rmse_m"] < 1e-3
        assert doc["accuracy"] == 1.0

    def test_evaluate_builds_no_pair_records(self, tmp_path, monkeypatch):
        """Report and table come from pair columns; a MatchedPair is built only when read."""
        objects = [SceneObject(cls, 5.0 + k, BoundingBox(4 * k, 2, 4 * k + 3, 40))
                   for k, cls in enumerate(["car", "café", "person"] * 5)]
        data = synth_inputs(tmp_path, objects)
        dist = tmp_path / "img0.dist.json"
        cfg = files_config(tmp_path, data)
        assert run(f"predict --config {cfg} --image-id img0 --out {dist}") == 0
        built = []
        post_init = evaluate.MatchedPair.__post_init__
        monkeypatch.setattr(evaluate.MatchedPair, "__post_init__",
                            lambda pair: built.append(pair) or post_init(pair))
        argv = ["evaluate", "--pred", str(dist), "--gt", f"{data}/img0.gt.json",
                "--out", str(tmp_path / "report.json")]
        sink = io.StringIO()  # no encoding: the names are printed as they are
        with contextlib.redirect_stdout(sink):
            assert run(argv) == 0
        files = [dist.read_bytes()], [(data / "img0.gt.json").read_bytes()]
        report = evaluate.evaluate_files(*files)
        assert len(report.pairs) == 15
        assert sink.getvalue() == evaluate.render_table(report) and "café" in sink.getvalue()
        assert built == []
        assert list(report.pairs) == list(report.pairs) and len(built) == 15  # built once, on read


class TestSynthCommand:
    def test_writes_three_files(self, tmp_path):
        _, scene_path = write_scene(
            tmp_path, [SceneObject("car", 10.0, BoundingBox(5, 5, 30, 30))]
        )
        prefix = tmp_path / "out" / "scene0"
        assert run(f"synth --scene {scene_path} --out-prefix {prefix}") == 0
        assert (tmp_path / "out" / "scene0.pfm").exists()
        assert (tmp_path / "out" / "scene0.det.json").exists()
        assert (tmp_path / "out" / "scene0.gt.json").exists()

    def test_bad_scene_exit_2(self, tmp_path):
        bad = tmp_path / "bad.scene.json"
        bad.write_text("{")
        assert run(f"synth --scene {bad} --out-prefix {tmp_path}/x") == 2

    @pytest.mark.parametrize("prefix, image_id", [("d/bad id", "bad id"), (".", "")])
    def test_a_prefix_that_predict_cannot_read_back_exit_2(
        self, tmp_path, monkeypatch, capsys, prefix, image_id
    ):
        _, scene_path = write_scene(tmp_path, [])
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)
        assert run(["synth", "--scene", str(scene_path), "--out-prefix", prefix]) == 2
        assert capsys.readouterr().err == (
            f"monodist synth: bad image id {image_id!r}, expected {cli._IMAGE_ID.pattern}\n"
        )
        assert list(out.iterdir()) == []

    def test_writes_the_pfm_bytes_of_write_pfm(self, tmp_path):
        car = SceneObject("car", 10.0, BoundingBox(5.5, 5, 30, 30.25))
        spec, scene_path = write_scene(tmp_path, [car], noise_amplitude=0.1)
        assert run(f"synth --scene {scene_path} --out-prefix {tmp_path}/s") == 0
        assert (tmp_path / "s.pfm").read_bytes() == write_pfm(synth.render_scene(spec)[0])

    def test_a_map_beyond_float32_leaves_no_pfm(self, tmp_path, monkeypatch, capsys):
        spec, scene_path = write_scene(tmp_path, [])
        _, dets, gts = synth.render_scene(spec)
        wide = ScalarMap(spec.map_width, spec.map_height, MapKind.DEPTH,
                         np.full(spec.map_width * spec.map_height, 1e39))
        monkeypatch.setattr(synth, "render_scene", lambda _: (wide, dets, gts))
        assert run(f"synth --scene {scene_path} --out-prefix {tmp_path}/o/s") == 2
        assert capsys.readouterr().err == "monodist synth: map value 1e+39 is beyond float32\n"
        assert list((tmp_path / "o").iterdir()) == []


class TestAnnotate:
    def test_svg_contains_rect_and_label(self, tmp_path):
        dist = tmp_path / "img.dist.json"
        dist.write_text(
            json.dumps(
                {
                    "image": "img",
                    "objects": [
                        {
                            "class_name": "car",
                            "confidence": 0.9,
                            "bbox": [10, 20, 110, 80],
                            "rev_m": 9.8,
                            "abs_m": 10.12,
                        }
                    ],
                }
            )
        )
        out = tmp_path / "overlay.svg"
        assert run(f"annotate --distances {dist} --image-size 640x480 --out {out}") == 0
        svg = out.read_text()
        assert svg.count("<rect") == 1
        assert svg.count("<text") == 1
        assert "car 10.12 m" in svg
        assert 'width="640"' in svg and 'height="480"' in svg

    def test_markup_in_class_name_is_escaped(self, tmp_path):
        od = {"class_name": "<&>", "confidence": 0.9, "bbox": [10, 20, 110, 80],
              "rev_m": 9.8, "abs_m": None}
        dist = tmp_path / "img.dist.json"
        dist.write_text(json.dumps({"image": "a<b>&c", "objects": [od]}))
        out = tmp_path / "overlay.svg"
        assert run(f"annotate --distances {dist} --image-size 640x480 --out {out}") == 0
        svg = out.read_text()
        assert "<!-- a&lt;b&gt;&amp;c -->" in svg
        assert ">&lt;&amp;&gt; 9.80 m</text>" in svg

    @pytest.mark.parametrize("image_id", ["a--b", "--"])
    def test_svg_is_well_formed_for_dashes_in_the_image_id(self, tmp_path, image_id):
        od = {"class_name": "car", "confidence": 0.9, "bbox": [10, 20, 110, 80],
              "rev_m": 9.8, "abs_m": None}
        dist = tmp_path / "img.dist.json"
        dist.write_text(json.dumps({"image": image_id, "objects": [od]}))
        out = tmp_path / "overlay.svg"
        assert run(f"annotate --distances {dist} --image-size 640x480 --out {out}") == 0
        root = ET.fromstring(out.read_text())
        assert [e.tag.rpartition("}")[2] for e in root] == ["rect", "text"]

    def test_bad_size_exit_1(self, tmp_path):
        dist = tmp_path / "img.dist.json"
        dist.write_text(json.dumps({"image": "img", "objects": []}))
        assert run(f"annotate --distances {dist} --image-size huge --out {tmp_path}/o.svg") == 1

    @pytest.mark.parametrize("size", ["0x5", "5x0", "-1x5"])
    def test_non_positive_size_exit_1(self, tmp_path, size):
        dist = tmp_path / "img.dist.json"
        dist.write_text(json.dumps({"image": "img", "objects": []}))
        assert run(["annotate", "--distances", str(dist), "--image-size", size,
                    "--out", str(tmp_path / "o.svg")]) == 1
        assert not (tmp_path / "o.svg").exists()


class TestPredictPooling:
    def test_sensor_hole_under_one_box_is_a_failure(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        vals = np.full((32, 64), 20.0)
        vals[4:20, 40:60] = 0.0
        depth = ScalarMap(width=64, height=32, kind=MapKind.DEPTH, values=vals)
        (data / "img0.pfm").write_bytes(write_pfm(depth))
        dets = DetectionSet(
            "img0",
            64,
            32,
            (
                Detection(0, "car", 0.9, BoundingBox(4, 4, 24, 20)),
                Detection(1, "person", 0.9, BoundingBox(40, 4, 60, 20)),
            ),
        )
        (data / "img0.det.json").write_bytes(serialize_detections(dets))
        cfg = files_config(tmp_path, data)
        doc = json.loads(cfg.read_text())
        doc["backend"]["depth_kind"] = "depth"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "img0.dist.json"
        assert run(f"predict --config {cfg} --image-id img0 --out {out}") == 0
        doc = json.loads(out.read_text())
        assert [(o["class_name"], o["rev_m"]) for o in doc["objects"]] == [("car", 20.0)]
        assert [f["class_name"] for f in doc["failures"]] == ["person"]

    def test_failed_boxes_stay_columns(self, tmp_path, monkeypatch, capsys):
        """A box that projects to an empty rect and one over holes only build no Detection."""
        vals = np.full((32, 64), 20.0)
        vals[2:10, 20:30] = 0.0
        (tmp_path / "img0.pfm").write_bytes(write_pfm(ScalarMap(64, 32, MapKind.DEPTH, vals)))
        dets = [
            {"class_id": 0, "class_name": "car", "confidence": 0.9, "bbox": [0, 0, 5e-324, 64]},
            {"class_id": 1, "class_name": "person", "confidence": 0.8, "bbox": [40, 4, 60, 20]},
            {"class_id": 2, "class_name": "truck", "confidence": 0.7, "bbox": [4, 24, 24, 40]},
        ]
        doc = {"image": "img0", "width": 128, "height": 64, "detections": dets}
        (tmp_path / "img0.det.json").write_text(json.dumps(doc))
        cfg = files_config(tmp_path, tmp_path)
        cfg.write_text(cfg.read_text().replace('"disparity"', '"depth"'))
        built = []
        post_init = Detection.__post_init__
        monkeypatch.setattr(Detection, "__post_init__", lambda d: built.append(d) or post_init(d))
        out = tmp_path / "img0.dist.json"
        assert run(f"predict --config {cfg} --image-id img0 --out {out}") == 0
        assert built == []
        empty = ("bbox BoundingBox(x0=0.0, y0=0.0, x1=5e-324, y1=64.0) projects to empty rect"
                 " on a 64x32 grid")
        holes = "no positive depth in IndexRect(col0=20, row0=2, col1=30, row1=10)"
        assert capsys.readouterr().err == (
            f"warning: skipped car: {empty}\nwarning: skipped person: {holes}\n"
        )
        expected = {"image": "img0", "objects": [
            {"class_name": "truck", "confidence": 0.7, "bbox": [4.0, 24.0, 24.0, 40.0],
             "rev_m": 20.0, "abs_m": None},
        ], "failures": [
            {"class_name": "car", "bbox": [0.0, 0.0, 5e-324, 64.0], "reason": empty},
            {"class_name": "person", "bbox": [40.0, 4.0, 60.0, 20.0], "reason": holes},
        ]}
        assert out.read_bytes() == (json.dumps(expected, indent=2) + "\n").encode()


class TrickleFile(io.FileIO):
    """A raw file whose every read returns at most 7 bytes."""

    def readinto(self, b):
        return super().readinto(memoryview(b)[:7])


class TestDepthReader:
    def test_reads_of_a_few_bytes_decode_like_one_read(self, tmp_path):
        data = synth_inputs(tmp_path)
        path = data / "img0.pfm"
        with TrickleFile(path) as f:
            trickled = cli._read_end_aligned(f)
        with open(path, "rb", buffering=0) as f:
            whole = cli._read_end_aligned(f)
        assert trickled.tobytes() == whole.tobytes() == path.read_bytes()
        m = read_pfm(trickled)
        assert m.values.flags.aligned and not trickled.flags.writeable
        assert np.array_equal(m.values, read_pfm(path.read_bytes()).values)

    def test_a_file_cut_after_its_size_is_read_keeps_only_what_was_read(self, tmp_path):
        class CutFile(io.FileIO):  # EOF at byte 100, whatever fstat said
            def readinto(self, b):
                return super().readinto(memoryview(b)[: 100 - self.tell()])

        path = synth_inputs(tmp_path) / "img0.pfm"
        with CutFile(path) as f:
            cut = cli._read_end_aligned(f)
        assert cut.tobytes() == path.read_bytes()[:100]
        with pytest.raises(PfmFormatError, match=r"^PFM payload is \d+ bytes, expected 12288$"):
            read_pfm(cut)

    @pytest.mark.parametrize("keep", ["nothing", "header and 100 payload bytes"])
    def test_a_short_depth_map_exit_2(self, tmp_path, capsys, keep):
        data = synth_inputs(tmp_path)
        pfm = (data / "img0.pfm").read_bytes()
        payload = 64 * 48 * 4
        if keep == "nothing":
            cut, message = b"", "truncated PFM header"
        else:
            cut = pfm[: len(pfm) - payload + 100]
            message = f"PFM payload is 100 bytes, expected {payload}"
        (data / "img0.pfm").write_bytes(cut)
        cfg = files_config(tmp_path, data)
        out = tmp_path / "img0.dist.json"
        assert run(f"predict --config {cfg} --image-id img0 --out {out}") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# Each module here costs every cold process that loads it: np.median imports numpy.ma on first
# use, xml.sax.saxutils pulls in urllib.request, and html, csv and subprocess serve only
# annotate, calibrate and the process backend.
SUBMODULES = sorted(f"monodist.{p.stem}" for p in Path(monodist.__file__).parent.glob("[!_]*.py"))
COLD_ONLY = ["subprocess", "html", "csv", "xml.sax"]
ABSENT = {
    "import": SUBMODULES,
    "predict": ["monodist.evaluate", "monodist.synth", "numpy.ma", *COLD_ONLY],
    "evaluate": ["monodist.synth", *COLD_ONLY],
}


@pytest.mark.parametrize("command", ABSENT)
def test_a_cold_command_imports_only_its_own_modules(tmp_path, command):
    """`import monodist` loads no submodule; a files-backend command loads only what it runs."""
    data = synth_inputs(tmp_path)
    dist = tmp_path / "img0.dist.json"
    predict = ["predict", "--config", str(files_config(tmp_path, data, calibration=IDENT)),
               "--image-id", "img0", "--out", str(dist)]
    score = ["evaluate", "--pred", str(dist), "--gt", str(data / "img0.gt.json"),
             "--out", str(tmp_path / "report.json")]
    if command == "evaluate":
        assert run(predict) == 0  # the prediction it scores
    dispatch = "from monodist import cli\nassert cli.dispatch({!r}) == 0\n"
    code = {
        "import": "import monodist\n",
        "predict": dispatch.format(predict),
        "evaluate": dispatch.format(score),
    }[command]
    proc = run_python(code + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(set(ABSENT[command]) & set(loaded)) == []


PUBLIC_NAMES = [
    "BoundingBox", "CalibrationModel", "CalibrationSample", "DepthRange", "Detection",
    "DetectionSet", "GroundTruthObject", "IndexRect", "MapKind", "MatchedPair", "MetricsReport",
    "ObjectDistance", "ScalarMap", "SceneObject", "SceneSpec", "disparity_to_depth",
    "filter_confidence", "fit_quadratic", "iou", "match_objects", "measure_objects",
    "median_depth", "nms", "project_bbox", "read_pfm", "render_scene", "write_pfm",
]


def test_package_names_are_their_modules_objects():
    assert monodist.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(monodist, name)
        assert obj.__module__.startswith("monodist.") and name in dir(monodist)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    star = {}
    exec("from monodist import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        monodist.no_such_name


image_ids = st.text(max_size=8) | st.text(alphabet="./-_a;$ ", max_size=6)


@given(image_ids)
def test_fetch_reads_only_inside_its_directory_and_quotes_nothing(tmp_path_factory, image_id):
    frames = tmp_path_factory.getbasetemp() / "frames"
    backends = (
        cli.BackendConfig(cli.BackendMode.FILES, frames, frames),
        cli.BackendConfig(cli.BackendMode.PROCESS, "depth {image_id}", "det {image_id}"),
    )
    reads, commands = [], []

    def shell(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, b"", b"")

    def open_file(path, *args, **kwargs):  # a depth map is read through an open raw file
        reads.append(path)
        return open(os.devnull, "rb", buffering=0)

    with (
        mock.patch.object(Path, "is_file", return_value=True),
        mock.patch.object(Path, "read_bytes", autospec=True, side_effect=reads.append),
        mock.patch.object(Path, "open", autospec=True, side_effect=open_file),
        mock.patch.object(subprocess, "run", side_effect=shell),
    ):
        for backend in backends:
            for fetch in (backend.fetch_depth_bytes, backend.fetch_detection_bytes):
                try:
                    fetch(image_id)
                except BackendError:
                    pass
    for path in reads:
        assert path.resolve().parent == frames.resolve()
    if commands:
        # the id reached a shell: it must be one plain word, and not an option
        assert shlex.quote(image_id) == image_id and not image_id.startswith("-")


def run_cli_process(tmp_path, argv):
    """`monodist ARGV` in a child interpreter, so that stderr holds whatever the process prints."""
    return subprocess.run(
        [sys.executable, "-m", "monodist.cli", *argv], cwd=tmp_path, env=checkout_env(),
        capture_output=True, text=True, timeout=120,
    )


def test_synth_of_a_scene_too_large_for_memory_exit_2(tmp_path):
    # 1e8 x 1e8 float64 is 71 PiB, beyond any address space, so no page is ever touched
    doc = {"map_width": 10**8, "map_height": 10**8, "background_depth_m": 50.0}
    (tmp_path / "huge.scene.json").write_text(json.dumps(doc))
    proc = run_cli_process(tmp_path, ["synth", "--scene", "huge.scene.json", "--out-prefix", "o/x"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "monodist synth:" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.scene.json"]


@pytest.mark.parametrize(
    "rows, height",
    [
        ("1e300,5\n2e300,6\n3e300,7\n", "1"),  # x**2 overflows
        ("1,5\n2,6\n3,7\n", "1e-320"),  # y_abs / h overflows
    ],
)
def test_calibrate_overflow_exit_2_without_numpy_warnings(tmp_path, rows, height):
    (tmp_path / "s.csv").write_text("x_m,y_abs_m\n" + rows)
    argv = ["calibrate", "--samples", "s.csv", "--camera-height", height, "--out", "m.json"]
    proc = run_cli_process(tmp_path, argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("monodist calibrate:") and "overflow" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("size, boxes, revs", [
    # a corner times the map side passes float64, so it is divided first: the box covers
    # the top-left 7x5 cells of the 64x48 map, which hold background only
    (1e308, [[0, 0, 1e307, 1e307]], [pytest.approx(100.0, rel=1e-6)]),
    (10**400, [], []),  # past float64, but no box is scaled by it
], ids=["1e308", "10**400"])
def test_predict_a_huge_image_size_exit_0_without_warnings(tmp_path, size, boxes, revs):
    data = synth_inputs(tmp_path)
    dets = [{"class_id": 0, "class_name": "car", "confidence": 0.9, "bbox": b} for b in boxes]
    doc = {"image": "img0", "width": size, "height": size, "detections": dets}
    (data / "img0.det.json").write_text(json.dumps(doc))
    files_config(tmp_path, data)
    argv = ["predict", "--config", "config.json", "--image-id", "img0", "--out", "o.json"]
    proc = run_cli_process(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    _, objects = parse_distances((tmp_path / "o.json").read_bytes())
    assert [od.rev for od in objects] == revs


@pytest.mark.parametrize("depth_range", [
    {"min_m": 1e-320, "max_m": 100.0},  # 1/min is infinite
    {"min_m": 0.1, "max_m": math.inf},  # 1/max is 0
    {"min_m": 0.1, "max_m": sys.float_info.max},  # 1/max rounds down, and 1/(1/max) is infinite
])
def test_predict_a_depth_range_without_finite_disparity_bounds_exit_2(tmp_path, depth_range):
    files_config(tmp_path, synth_inputs(tmp_path), depth_range=depth_range)
    argv = ["predict", "--config", "config.json", "--image-id", "img0", "--out", "o.json"]
    proc = run_cli_process(tmp_path, argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("monodist predict: depth range must satisfy 0 < min < max < inf")
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "o.json").exists()


def test_non_ascii_class_names_under_a_c_locale(tmp_path):
    """Under an ASCII locale, annotate and evaluate exit 0 and write the bytes a UTF-8 run does."""
    od = {"class_name": "café", "confidence": 0.9, "bbox": [10, 20, 110, 80], "rev_m": 9.8,
          "abs_m": None}
    (tmp_path / "p.json").write_text(json.dumps({"image": "img", "objects": [od]}))
    gt = {"class_name": "café", "abs_m": 10.0, "bbox": [10, 20, 110, 80]}
    (tmp_path / "g.json").write_text(json.dumps({"image": "img", "objects": [gt]}))
    outputs = {}
    for name, env in [("utf8", {"PYTHONUTF8": "1"}),
                      ("c", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})]:
        for argv in (["annotate", "--distances", "p.json", "--image-size", "640x480",
                      "--out", f"{name}.svg"],
                     ["evaluate", "--pred", "p.json", "--gt", "g.json", "--out", f"{name}.json"]):
            proc = subprocess.run(
                [sys.executable, "-m", "monodist.cli", *argv], cwd=tmp_path,
                env={**checkout_env(), **env}, capture_output=True, timeout=120,
            )
            assert proc.returncode == 0 and b"Traceback" not in proc.stderr, proc.stderr
        outputs[name] = [(tmp_path / f"{name}{ext}").read_bytes() for ext in (".svg", ".json")]
    assert "café".encode() in outputs["utf8"][0]
    assert outputs["c"] == outputs["utf8"]


def test_evaluate_table_aligns_names_escaped_for_an_ascii_locale(tmp_path):
    """Under an ASCII locale the table pads `caf\\xe9` as printed; report.json keeps `café`."""
    objects = [
        {"class_name": name, "confidence": 0.9, "bbox": [x, 0, x + 10, 10], "rev_m": rev,
         "abs_m": None}
        for name, x, rev in [("café", 0, 5.0), ("car", 20, 7.0)]
    ]
    (tmp_path / "p.json").write_text(json.dumps({"image": "img", "objects": objects}))
    gts = [{"class_name": o["class_name"], "abs_m": o["rev_m"] + 0.5, "bbox": o["bbox"]}
           for o in objects]
    (tmp_path / "g.json").write_text(json.dumps({"image": "img", "objects": gts}))
    proc = subprocess.run(
        [sys.executable, "-m", "monodist.cli", "evaluate", "--pred", "p.json", "--gt", "g.json",
         "--out", "r.json"], cwd=tmp_path, capture_output=True, timeout=120,
        env={**checkout_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
    )
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.decode("ascii").splitlines()[:4]  # header, rule and the two pairs
    assert table[2].startswith("caf\\xe9  ") and table[3].startswith("car  ")
    assert len({len(re.match(r"\S+ +", line).group()) for line in table}) == 1, table
    names = [p["class_name"] for p in json.loads((tmp_path / "r.json").read_text())["pairs"]]
    assert names == ["café", "car"]


IMAGES = 12


def write_big_evaluate_inputs(inputs, per_image=100):
    """Prediction and ground-truth files whose evaluate table passes 64 KiB, a pipe's buffer."""
    for i in range(IMAGES):
        boxes = [[20 * k, 0, 20 * k + 10, 10] for k in range(per_image)]
        names = [("car", "person", "bus")[k % 3] for k in range(per_image)]
        preds = [{"class_name": n, "confidence": 0.9, "bbox": b, "rev_m": 5 + k / 7,
                  "abs_m": None} for k, (n, b) in enumerate(zip(names, boxes))]
        gts = [{"class_name": n, "abs_m": 5 + k / 6, "bbox": b}
               for k, (n, b) in enumerate(zip(names, boxes))]
        (inputs / f"p{i}.json").write_text(json.dumps({"image": f"im{i}", "objects": preds}))
        (inputs / f"g{i}.json").write_text(json.dumps({"image": f"im{i}", "objects": gts}))


PARITY_CASES = {
    "synth": ["synth", "--scene", "../in/scene.scene.json", "--out-prefix", "o/img0"],
    "calibrate": ["calibrate", "--samples", "../in/s.csv", "--camera-height", "1.5",
                  "--out", "m.calib.json"],
    "predict": ["predict", "--config", "../config.json", "--image-id", "img0",
                "--out", "img0.dist.json"],
    "evaluate": ["evaluate", "--pred", *(f"../in/p{i}.json" for i in range(IMAGES)),
                 "--gt", *(f"../in/g{i}.json" for i in range(IMAGES)), "--out", "r.json"],
    "annotate": ["annotate", "--distances", "../in/d.dist.json", "--image-size", "64x48",
                 "--out", "o.svg"],
    "usage error": ["predict", "--image-id", "img0"],
    "data error": ["evaluate", "--pred", "missing.json", "--gt", "missing.json",
                   "--out", "r.json"],
}


@pytest.mark.parametrize("case", PARITY_CASES)
def test_a_cli_process_prints_and_writes_what_dispatch_does(tmp_path, monkeypatch, case):
    """`main()` in a child gives the exit code, output and files of `dispatch` in process."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    objects = (SceneObject("car", 10.0, BoundingBox(5, 5, 30, 30)),
               SceneObject("bus", 20.0, BoundingBox(40, 10, 60, 40)))
    # an offset of -15 m makes the car's calibrated distance negative, which predict warns of
    files_config(tmp_path, synth_inputs(tmp_path, objects),
                 calibration=CalibrationModel(c0=-15.0, c1=1.0, c2=0.0, h=1.0))
    write_scene(inputs, objects)
    (inputs / "s.csv").write_text("x_m,y_abs_m\n1,2\n2,3.5\n3,5.25\n4,6.5\n")
    od = ObjectDistance(Detection(0, "car", 0.9, BoundingBox(10, 20, 30, 40)), rev=9.8, abs=10.1)
    (inputs / "d.dist.json").write_bytes(serialize_distances("img0", [od]))
    write_big_evaluate_inputs(inputs)
    argv = PARITY_CASES[case]
    results = []
    for side in ("dispatch", "process"):
        cwd = tmp_path / side
        cwd.mkdir()
        if side == "dispatch":
            monkeypatch.chdir(cwd)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.dispatch(argv)
            printed = code, out.getvalue(), err.getvalue()
        else:
            proc = run_cli_process(cwd, argv)
            printed = proc.returncode, proc.stdout, proc.stderr
        files = {str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
        results.append((printed, files))
    assert results[0] == results[1]
    (code, stdout, stderr), files = results[0]
    assert code == {"usage error": 1, "data error": 2}.get(case, 0)
    assert "Traceback" not in stderr
    assert bool(files) is (code == 0)
    if case == "evaluate":
        assert len(stdout) > 65536 and stdout.endswith("unmatched GT: 0\n")
    if case == "predict":
        assert stderr.startswith("warning: negative calibrated distance") and "car" in stderr


def test_dispatch_leaves_the_collector_unfrozen(tmp_path):
    """Only `main()`, whose process then exits, freezes the collector."""
    data = synth_inputs(tmp_path)
    cfg = files_config(tmp_path, data)
    before = gc.get_freeze_count()
    assert run(f"predict --config {cfg} --image-id img0 --out {tmp_path}/o.json") == 0
    assert run("annotate --image-size 0x1 --distances x --out y") == 1
    assert gc.get_freeze_count() == before


def test_main_freezes_the_collector_before_the_process_exits(tmp_path):
    """A process that runs `main()` reaches its atexit hooks with its objects frozen."""
    od = ObjectDistance(Detection(0, "car", 0.9, BoundingBox(10, 20, 30, 40)), rev=9.8)
    dist = tmp_path / "d.dist.json"
    dist.write_bytes(serialize_distances("img0", [od]))
    argv = ["annotate", "--distances", str(dist), "--image-size", "64x48",
            "--out", str(tmp_path / "o.svg")]
    proc = run_python(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        f"sys.argv = ['monodist', *{argv!r}]\n"
        "from monodist.cli import main\n"
        "main()\n"
    )
    assert proc.returncode == 0, proc.stderr
    frozen = re.fullmatch(r"frozen (\d+)\n", proc.stderr)
    assert frozen and int(frozen.group(1)) > 0, proc.stderr
    assert (tmp_path / "o.svg").read_text().startswith("<svg")
