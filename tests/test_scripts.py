"""Smoke tests: the example scripts run to completion on this checkout."""
import subprocess
import sys
from pathlib import Path

from conftest import checkout_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd,
        env=checkout_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_run_synth_pipeline(tmp_path):
    out = tmp_path / "demo"
    proc = run_script("run_synth_pipeline.py", "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("scene.json", "ident.calib.json", "demo.dist.json", "report.json", "overlay.svg"):
        assert (out / name).is_file(), name


def test_fit_reference_curve(tmp_path):
    proc = run_script("fit_reference_curve.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "fit rmse" in proc.stdout
