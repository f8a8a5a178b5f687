import json
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

from conftest import checkout_env
from monodist import cli
from monodist.calib import REFERENCE_COEFFS, CalibrationModel, serialize_model
from monodist.detect import BoundingBox, Detection, DetectionSet, serialize_detections
from monodist.errors import BackendError
from monodist.maps import MapKind, ScalarMap, write_pfm
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

    def test_predict_never_imports_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma on first use, a cost every cold predict would pay
        data = synth_inputs(tmp_path)
        cfg = files_config(tmp_path, data, calibration=IDENT)
        out = tmp_path / "o.json"
        argv = ["predict", "--config", str(cfg), "--image-id", "img0", "--out", str(out)]
        code = (
            "import sys\n"
            "from monodist import cli\n"
            f"assert cli.dispatch({argv!r}) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_out_xml_sax():
    # xml.sax.saxutils pulls in urllib.request, tens of ms of every cold command
    proc = run_python(
        "import sys\n"
        "import monodist.cli\n"
        "assert 'xml.sax' not in sys.modules, 'xml.sax was imported'\n"
    )
    assert proc.returncode == 0, proc.stderr


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

    with (
        mock.patch.object(Path, "is_file", return_value=True),
        mock.patch.object(Path, "read_bytes", autospec=True, side_effect=reads.append),
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
