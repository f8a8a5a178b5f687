from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from monodist.calib import (
    REFERENCE_COEFFS,
    CalibrationModel,
    CalibrationSample,
    apply,
    deserialize_model,
    fit_quadratic,
    read_samples_csv,
    serialize_model,
)
from monodist.errors import CalibrationError


def samples_from_poly(c0, c1, c2, h, xs):
    return [CalibrationSample(x=x, y_abs=h * (c0 + c1 * x + c2 * x * x)) for x in xs]


def exact_fit(xs, ys, h):
    """The exact least-squares (c0, c1, c2) of float samples, from the normal equations."""
    xs = [Fraction(x) for x in xs]
    targets = [Fraction(y) / Fraction(h) for y in ys]
    rows = [
        [sum(x ** (i + j) for x in xs) for j in range(3)]
        + [sum(x**i * t for x, t in zip(xs, targets))]
        for i in range(3)
    ]
    for i in range(3):  # Gauss-Jordan elimination; the Gram matrix of 3 distinct x is regular
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(3):
            if r != i:
                rows[r] = [v - rows[r][i] * w for v, w in zip(rows[r], rows[i])]
    return [row[3] for row in rows]


def reference_model():
    c0, c1, c2 = REFERENCE_COEFFS
    return CalibrationModel(c0=c0, c1=c1, c2=c2, h=1.0, n_samples=10)


class TestFitQuadratic:
    def test_exact_polynomial_data(self):
        model = fit_quadratic(samples_from_poly(1, 2, 3, 2, [0, 1, 2, 3]), h=2)
        assert model.c0 == pytest.approx(1, abs=1e-9)
        assert model.c1 == pytest.approx(2, abs=1e-9)
        assert model.c2 == pytest.approx(3, abs=1e-9)
        assert model.fit_rmse == pytest.approx(0, abs=1e-9)

    def test_matches_direct_linear_solve(self, rng):
        xs = rng.uniform(0.5, 45, size=12)
        ys = rng.uniform(1, 60, size=12)
        samples = [CalibrationSample(x=x, y_abs=y) for x, y in zip(xs, ys)]
        model = fit_quadratic(samples, h=1.3)
        # independent oracle: unnormalized lstsq on the same Vandermonde system
        vand = np.vander(xs, 3, increasing=True)
        ref, *_ = np.linalg.lstsq(vand, ys / 1.3, rcond=None)
        assert (model.c0, model.c1, model.c2) == pytest.approx(tuple(ref), rel=1e-8)

    @pytest.mark.parametrize("x_max", [45, 1e6, 1e50])
    def test_matches_exact_solution(self, x_max):
        rng = np.random.default_rng(12)
        for _ in range(8):
            n = int(rng.integers(3, 13))
            xs, ys = rng.uniform(0, x_max, n).tolist(), rng.uniform(1, 60, n).tolist()
            h = float(rng.uniform(0.5, 3))
            model = fit_quadratic([CalibrationSample(x, y) for x, y in zip(xs, ys)], h=h)
            for got, want in zip((model.c0, model.c1, model.c2), exact_fit(xs, ys, h)):
                assert abs(Fraction(got) - want) <= abs(want) * Fraction(1, 10**10)

    def test_exact_quadratic_at_x_near_1e100(self):
        xs = [1e100, 2e100, 3e100, 4e100]
        ys = [1.0 + 1e-100 * x + 1e-200 * x * x for x in xs]
        model = fit_quadratic([CalibrationSample(x, y) for x, y in zip(xs, ys)], h=1.0)
        for got, want in zip((model.c0, model.c1, model.c2), exact_fit(xs, ys, 1.0)):
            assert abs(Fraction(got) - want) <= abs(want) * Fraction(1, 10**10)
        assert model.fit_rmse <= 1e-12

    def test_recovers_reference_curve(self):
        xs = list(range(0, 50, 5))
        c0, c1, c2 = REFERENCE_COEFFS
        model = fit_quadratic(samples_from_poly(c0, c1, c2, 1.0, xs), h=1.0)
        assert model.c0 == pytest.approx(c0, abs=1e-9)
        assert model.c1 == pytest.approx(c1, abs=1e-9)
        assert model.c2 == pytest.approx(c2, abs=1e-9)
        assert model.fit_rmse <= 1e-9
        assert model.n_samples == 10

    def test_two_samples_singular(self):
        with pytest.raises(CalibrationError):
            fit_quadratic(samples_from_poly(1, 1, 1, 1, [1, 2]), h=1)

    def test_repeated_x_singular(self):
        samples = [CalibrationSample(1, 2), CalibrationSample(1, 3), CalibrationSample(2, 4)]
        with pytest.raises(CalibrationError):
            fit_quadratic(samples, h=1)

    @pytest.mark.parametrize(
        "xs", [[1e16, 1e16 + 2, 1e16 + 4], [1, 1 + 2**-40, 1 + 2**-39], [0, 1e-200, 2e-200]]
    )
    def test_x_too_close_together(self, xs):
        samples = [CalibrationSample(x, y) for x, y in zip(xs, [1, 2, 4])]
        with pytest.raises(CalibrationError, match="too close together"):
            fit_quadratic(samples, h=1)

    def test_non_positive_height(self):
        with pytest.raises(CalibrationError):
            fit_quadratic(samples_from_poly(1, 1, 1, 1, [1, 2, 3]), h=0)

    coeff = st.floats(-5, 5)

    @given(coeff, coeff, coeff, st.floats(0.5, 3))
    def test_noiseless_round_trip(self, c0, c1, c2, h):
        xs = [0.5, 2, 7, 13, 21, 34]
        ys = [h * (c0 + c1 * x + c2 * x * x) for x in xs]
        assume(all(y > 0 for y in ys))
        model = fit_quadratic(samples_from_poly(c0, c1, c2, h, xs), h=h)
        for got, want in ((model.c0, c0), (model.c1, c1), (model.c2, c2)):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert model.fit_rmse <= 1e-9

    def test_scale_equivariance(self, rng):
        xs = rng.uniform(1, 40, size=8)
        ys = rng.uniform(1, 50, size=8)
        samples = [CalibrationSample(x=x, y_abs=y) for x, y in zip(xs, ys)]
        m1 = fit_quadratic(samples, h=1.0)
        m2 = fit_quadratic(samples, h=2.5)
        assert m2.c0 == pytest.approx(m1.c0 / 2.5, rel=1e-9)
        assert m2.c1 == pytest.approx(m1.c1 / 2.5, rel=1e-9)
        assert m2.c2 == pytest.approx(m1.c2 / 2.5, rel=1e-9)
        for x in xs:
            assert apply(m1, x) == pytest.approx(apply(m2, x), rel=1e-9)

    def test_optimality_against_perturbation(self, rng):
        # brute-force check that the fitted coefficients sit at a minimum
        for _ in range(25):
            xs = rng.uniform(0.5, 45, size=10)
            ys = 20 - 0.5 * xs + 0.004 * xs**2 + rng.normal(0, 0.1, size=10)
            ys = np.abs(ys) + 0.01
            samples = [CalibrationSample(x=x, y_abs=y) for x, y in zip(xs, ys)]
            model = fit_quadratic(samples, h=1.0)
            coeffs = np.array([model.c0, model.c1, model.c2])
            vand = np.vander(xs, 3, increasing=True)

            def rss(c):
                return float(np.sum((vand @ c - ys) ** 2))

            base = rss(coeffs)
            for k in range(3):
                for delta in (-1e-3, 1e-3):
                    bumped = coeffs.copy()
                    bumped[k] += delta
                    assert rss(bumped) >= base


class TestApply:
    def test_reference_curve_at_10(self):
        assert apply(reference_model(), 10) == pytest.approx(16.701, abs=1e-9)

    def test_reference_curve_at_0(self):
        assert apply(reference_model(), 0) == pytest.approx(21.714, abs=1e-12)

    def test_identity_model(self):
        ident = CalibrationModel(c0=0, c1=1, c2=0, h=1)
        assert apply(ident, 7.5) == 7.5

    @given(st.floats(-50, 50))
    def test_matches_horner(self, x):
        m = reference_model()
        horner = m.h * (m.c0 + x * (m.c1 + x * m.c2))
        assert apply(m, x) == pytest.approx(horner, rel=1e-15, abs=1e-12)


class TestModelSerialization:
    def test_round_trip(self):
        m = fit_quadratic(samples_from_poly(*REFERENCE_COEFFS, 1.0, range(0, 50, 5)), h=1.0)
        assert deserialize_model(serialize_model(m)) == m

    def test_writes_deterministic(self):
        m = reference_model()
        assert serialize_model(m) == serialize_model(m)

    def test_zero_height_rejected(self):
        data = b'{"c0": 1, "c1": 2, "c2": 3, "h_m": 0, "fit_rmse_m": 0, "n_samples": 5}'
        with pytest.raises(CalibrationError):
            deserialize_model(data)

    def test_malformed_json(self):
        with pytest.raises(CalibrationError):
            deserialize_model(b"{")

    @pytest.mark.parametrize("field", ["c0", "c1", "c2", "fit_rmse_m"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_field_rejected(self, field, value):
        doc = {"c0": "1", "c1": "2", "c2": "3", "h_m": "1", "fit_rmse_m": "0", "n_samples": "5"}
        doc[field] = value
        data = ("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}").encode()
        with pytest.raises(CalibrationError, match="must be finite"):
            deserialize_model(data)

    @pytest.mark.parametrize("field", ["c0", "c1", "c2", "fit_rmse"])
    def test_model_rejects_non_finite(self, field):
        kw = {"c0": 1.0, "c1": 2.0, "c2": 3.0, "h": 1.0, "fit_rmse": 0.0, field: float("nan")}
        with pytest.raises(CalibrationError):
            CalibrationModel(**kw)


class TestSamplesCsv:
    def test_read(self):
        samples = read_samples_csv(b"x_m,y_abs_m\n1.0,2.0\n3.5,4.5\n")
        assert samples == [CalibrationSample(1.0, 2.0), CalibrationSample(3.5, 4.5)]

    def test_bad_header(self):
        with pytest.raises(CalibrationError):
            read_samples_csv(b"a,b\n1,2\n")

    def test_bad_value(self):
        with pytest.raises(CalibrationError):
            read_samples_csv(b"x_m,y_abs_m\n1.0,oops\n")

    def test_a_row_with_fields_past_the_header(self):
        # decimal commas split each value in two
        with pytest.raises(CalibrationError, match=r"^sample row 0: 4 fields, header has 2$"):
            read_samples_csv("x_m,y_abs_m\n1,5,2,25\n2,5,4,75\n3,5,7,5\n")
        with pytest.raises(CalibrationError, match=r"^sample row 1: 3 fields, header has 2$"):
            read_samples_csv("x_m,y_abs_m\n1,2\n3,4,\n")

    def test_a_header_with_spaces_is_read_by_position(self):
        samples = read_samples_csv(b"x_m, y_abs_m\n1.0,2.0\n3.5,4.5\n")
        assert samples == [CalibrationSample(1.0, 2.0), CalibrationSample(3.5, 4.5)]
