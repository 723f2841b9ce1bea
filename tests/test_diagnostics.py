"""Rate fitters, trend reports, baskets, pairings, and report emission."""

import json

import numpy as np
import pytest

from shearlab.core import compose_shear, from_function, h1_norm
from shearlab.diagnostics import (NormSeries, bounded_trend_report,
                                  cauchy_tail, fit_exp_poly, fit_power_law,
                                  pairing_basket, trend_report,
                                  weak_pairing_series)
from shearlab.report import emit_report, write_csv


class TestFitters:
    def test_power_law_exact(self):
        t = np.linspace(1.0, 50.0, 40)
        fit = fit_power_law(t, 3.0 * t, window=(1, 50))
        assert fit.params["alpha"] == pytest.approx(1.0, abs=1e-6)
        assert fit.residual_rms < 1e-12

    def test_power_law_constant(self):
        t = np.linspace(1.0, 50.0, 40)
        fit = fit_power_law(t, 5.0 * np.ones_like(t), window=(1, 50))
        assert fit.params["alpha"] == pytest.approx(0.0, abs=1e-6)

    def test_power_law_input_validation(self):
        t = np.linspace(1, 10, 10)
        with pytest.raises(ValueError):
            fit_power_law(t, -np.ones_like(t), window=(1, 10))
        with pytest.raises(ValueError):
            fit_power_law(t[:3], t[:3], window=(1, 10))

    def test_exp_poly_fixed_and_free(self):
        t = np.linspace(0.5, 6.0, 30)
        cubic = np.exp(-0.1 * t ** 3)
        fit = fit_exp_poly(t, cubic, window=(0.5, 6.0))
        assert fit.params["d"] == pytest.approx(3.0, abs=1e-4)
        assert fit.params["b"] == pytest.approx(0.1, abs=1e-4)

        lin = np.exp(-0.25 * t)
        fit1 = fit_exp_poly(t, lin, degree=1.0, window=(0.5, 6.0))
        assert fit1.params["b"] == pytest.approx(0.25, abs=1e-10)
        fitf = fit_exp_poly(t, lin, window=(0.5, 6.0))
        assert fitf.params["d"] == pytest.approx(1.0, abs=1e-3)

    def test_linear_trend_ci(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 10, 60)
        flat = 1.0 + 1e-3 * rng.normal(size=t.size)
        rep = trend_report(t, flat)
        assert not rep["positive_trend_detected"]
        rising = 1.0 + 0.3 * t
        rep2 = trend_report(t, rising)
        assert rep2["positive_trend_detected"]

    def test_bounded_trend_for_saturating_series(self):
        t = np.linspace(1, 100, 50)
        saturating = 1.4 - 0.5 / t
        rep = bounded_trend_report(t, saturating)
        assert not rep["positive_trend_detected"]
        growing = 0.2 * np.log(t) + 1.0
        rep2 = bounded_trend_report(t, growing)
        assert rep2["positive_trend_detected"]


class TestSeriesContainers:
    def test_norm_series_validation(self):
        with pytest.raises(ValueError):
            NormSeries(np.array([0.0, 0.0]), {"0": np.array([1.0, 1.0])})
        with pytest.raises(ValueError):
            NormSeries(np.array([0.0, 1.0]), {"0": np.array([1.0, -1.0])})

    def test_cauchy_tail(self):
        t = np.linspace(0, 30, 31)
        v = 1.0 + np.exp(-t)
        assert cauchy_tail(t, v, 20.0) < 1e-8


class TestBasketAndPairings:
    def test_basket_normalized_mean_free(self, channel):
        basket = pairing_basket(channel)
        assert len(basket) == 5
        for psi in basket:
            assert psi.is_mean_free_in_x
            assert h1_norm(psi) == pytest.approx(1.0, rel=1e-10)

    def test_sheared_field_pairing_decays(self, channel):
        basket = pairing_basket(channel)
        h = from_function(channel, lambda X, Y: np.cos(X)
                          * np.exp(-((Y - 1.5) / 0.25) ** 2))
        times = np.linspace(5.0, 60.0, 12)
        fields = [compose_shear(h, t) for t in times]
        rep = weak_pairing_series(times, fields, basket)
        assert rep["cauchy_tail"] < 1e-3

    def test_constant_trajectory_constant_pairings(self, channel):
        basket = pairing_basket(channel)
        h = basket[0]
        times = np.linspace(0.0, 10.0, 6)
        rep = weak_pairing_series(times, [h] * 6, basket)
        assert rep["cauchy_tail"] == 0.0


class TestReports:
    def test_csv_format(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, [0.0, 1.0], [1.0, 0.5])
        raw = path.read_bytes()
        assert raw.startswith(b"t,value\r\n")
        assert b"0.5" in raw

    def test_emission_deterministic(self, tmp_path):
        series = {"a": (np.array([0.0, 1.0]), np.array([2.0, 3.0]))}
        summary = {"checks": {"ok": True}, "value": 1.234567890123456789}
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        emit_report(d1, series, summary)
        emit_report(d2, series, summary)
        for name in ("a.csv", "summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_summary_is_strict_json(self, tmp_path):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        summary = {"checks": {"ok": True}, "gap": float("nan"),
                   "rate": np.float64(np.inf), "value": 0.5}
        emit_report(tmp_path / "s", {}, summary)
        text = (tmp_path / "s" / "summary.json").read_text()
        parsed = json.loads(text, parse_constant=reject)
        assert parsed["gap"] is None and parsed["rate"] is None
        assert parsed["value"] == 0.5

    def test_empty_run_header_only(self, tmp_path):
        written = emit_report(tmp_path / "e",
                              {"empty": (np.array([]), np.array([]))},
                              {"checks": {}})
        assert "empty.csv" in written
        assert (tmp_path / "e" / "empty.csv").read_bytes() == b"t,value\r\n"
