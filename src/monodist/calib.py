"""Quadratic relative->absolute distance calibration: Y = (c0 + c1*X + c2*X^2) * h."""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .codec import _decode, _dump
from .errors import CalibrationError, _float, _shown

# Fitted curve reported for the reference outdoor setup (camera height folded in, h = 1)
REFERENCE_COEFFS = (21.714, -0.5373, 0.0036)


@dataclass(frozen=True)
class CalibrationSample:
    """One (measured REV, tape-measured absolute distance) observation."""

    x: float
    y_abs: float

    def __post_init__(self):
        # x = 0 (object at the near edge of the field of view) is a valid anchor point
        if not (self.x >= 0 and math.isfinite(_float(self.x))):
            raise CalibrationError(f"sample x must be non-negative finite, got {_shown(self.x)}")
        if not (self.y_abs > 0 and math.isfinite(_float(self.y_abs))):
            raise CalibrationError(
                f"sample y_abs must be positive finite, got {_shown(self.y_abs)}"
            )


@dataclass(frozen=True)
class CalibrationModel:
    c0: float
    c1: float
    c2: float
    h: float
    fit_rmse: float = 0.0
    n_samples: int = 0

    def __post_init__(self):
        for name in ("c0", "c1", "c2", "h", "fit_rmse"):
            value = _float(getattr(self, name))
            if name == "h":
                _check_height(value)
            elif not math.isfinite(value):
                raise CalibrationError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.fit_rmse < 0:
            raise CalibrationError(f"fit_rmse must be non-negative, got {self.fit_rmse}")
        if self.n_samples and self.n_samples < 3:
            raise CalibrationError(f"fitted model needs >= 3 samples, got {_shown(self.n_samples)}")


def _check_height(h: float) -> None:
    """The camera-height rule: positive and finite."""
    if not (h > 0 and math.isfinite(h)):
        raise CalibrationError(f"camera height must be positive finite, got {h}")


def fit_quadratic(samples: list[CalibrationSample], h: float) -> CalibrationModel:
    """Least-squares fit of (c0, c1, c2) minimizing sum((h*(c0+c1*x+c2*x^2) - y)^2).

    Solved by `np.linalg.lstsq` on the Vandermonde system with targets y/h,
    each column divided by its largest magnitude so that the system stays
    well conditioned for large x.
    """
    _check_height(h)
    xs = np.array([s.x for s in samples], dtype=np.float64)
    ys = np.array([s.y_abs for s in samples], dtype=np.float64)
    if len(np.unique(xs)) < 3:
        raise CalibrationError(
            f"need >= 3 samples with >= 3 distinct x values, got {len(np.unique(xs))} distinct"
        )

    with np.errstate(all="ignore"):  # a value beyond float64 is reported below instead
        targets = ys / h
        vand = np.vander(xs, 3, increasing=True)  # columns [1, x, x^2]
        scale = np.abs(vand).max(axis=0)  # not the 2-norm, whose square overflows sooner
        scale[scale == 0.0] = 1.0  # an x^2 column that underflows to 0 leaves the rank short
        design = vand / scale
        beta, rank = math.nan, 3
        if np.isfinite(design).all() and np.isfinite(targets).all():  # no inf into LAPACK
            beta, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
        if rank < 3:
            raise CalibrationError("x values too close together for a quadratic fit")
        coeffs = beta / scale
        residuals = h * (vand @ coeffs) - ys
        fit_rmse = float(np.sqrt(np.mean(residuals**2)))
    if not np.isfinite([*coeffs, fit_rmse]).all():
        raise CalibrationError("fit overflows float64; x, y_abs or camera height too extreme")
    return CalibrationModel(*coeffs.tolist(), h=h, fit_rmse=fit_rmse, n_samples=len(samples))


def apply(model: CalibrationModel, x: float) -> float:
    """Evaluate h * (c0 + c1*x + c2*x^2).

    Negative outputs are possible outside the calibration range and are
    passed through for the caller to flag.
    """
    return model.h * (model.c0 + model.c1 * x + model.c2 * x * x)


def serialize_model(model: CalibrationModel) -> bytes:
    return _dump({
        "c0": model.c0,
        "c1": model.c1,
        "c2": model.c2,
        "h_m": model.h,
        "fit_rmse_m": model.fit_rmse,
        "n_samples": model.n_samples,
    })


def deserialize_model(data: bytes | str) -> CalibrationModel:
    with _decode(data, CalibrationError, "calibration") as doc:
        return CalibrationModel(
            c0=doc["c0"],
            c1=doc["c1"],
            c2=doc["c2"],
            h=doc["h_m"],
            fit_rmse=doc["fit_rmse_m"],
            n_samples=int(doc["n_samples"]),
        )


def read_samples_csv(data: bytes | str) -> list[CalibrationSample]:
    """Read calibration samples from CSV with header `x_m,y_abs_m`."""
    import csv  # only calibrate reads samples

    try:
        reader = csv.DictReader(io.StringIO(data.decode() if isinstance(data, bytes) else data))
        rows = list(reader)  # the header first
    except (UnicodeDecodeError, csv.Error) as e:  # csv.Error: a field past the module's limit
        raise CalibrationError(f"malformed samples CSV: {e}") from None
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["x_m", "y_abs_m"]:
        raise CalibrationError(
            f"expected CSV header 'x_m,y_abs_m', got {reader.fieldnames}"
        )
    samples = []
    for i, row in enumerate(rows):
        if None in row:  # DictReader files the fields past the header under None
            raise CalibrationError(f"sample row {i}: {2 + len(row[None])} fields, header has 2")
        x, y_abs = row.values()  # by position: the header's names may carry spaces
        try:
            samples.append(CalibrationSample(x=float(x), y_abs=float(y_abs)))
        except (TypeError, ValueError) as e:
            raise CalibrationError(f"sample row {i}: {e}") from None
    return samples
