"""Four-term splitting of the consistency integral with its closed forms."""

import numpy as np
import pytest

from shearlab.consistency import (FrequencyCone, apply_bt, bt_multiplier,
                                  certify_inputs, consistency_integral,
                                  term_I_closed_form, term_II_closed_form,
                                  term_IV_closed_form)
from shearlab.core import (from_function, invert_laplacian, l2_norm,
                           project_nonzero_x, transform, zero_field)
from shearlab.diagnostics import bounded_trend_report


@pytest.fixture
def parts(offset_box):
    ymid = 1.0 + np.pi
    w1 = from_function(offset_box, lambda X, Y: 0.25 * np.cos(X)
                       * np.exp(-4 * (Y - ymid) ** 2))
    w2 = from_function(offset_box, lambda X, Y: 0.25 * np.sin(X)
                       * np.exp(-4 * (Y - ymid - 0.3) ** 2))
    return w1, w2


class TestIntegratedInverseMultiplier:
    def test_reference_values(self):
        assert bt_multiplier(1, 0, 10.0) == pytest.approx(-np.arctan(10.0))
        assert bt_multiplier(1, 0, 1e9) == pytest.approx(-np.pi / 2, abs=1e-8)

    def test_uniform_bound(self):
        etas = np.linspace(-40, 40, 81)
        for k in (1, 2, 3, -2):
            vals = bt_multiplier(k, etas, 57.0)
            assert np.max(np.abs(vals)) <= np.pi / k ** 2 + 1e-12

    def test_monotone_saturation(self):
        ts = np.linspace(0.1, 200.0, 50)
        vals = np.abs(bt_multiplier(1, 2.0, ts))
        assert np.all(np.diff(vals) >= -1e-14)
        assert vals[-1] <= np.pi

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            bt_multiplier(0, 1.0, 1.0)

    def test_matches_time_quadrature(self):
        from scipy.integrate import quad
        k, eta, T = 2.0, 1.7, 9.0
        val, _ = quad(lambda t: -1.0 / (k ** 2 + (eta - k * t) ** 2),
                      0.0, T, epsabs=1e-12)
        assert bt_multiplier(k, eta, T) == pytest.approx(val, abs=1e-10)


class TestSplitting:
    def test_zero_part_cases(self, offset_box, parts):
        w1, w2 = parts
        z = zero_field(offset_box)
        d1 = consistency_integral(w1, z, T=4.0, n_steps=64)
        assert l2_norm(d1.term_II) == 0.0
        assert l2_norm(d1.term_III) == 0.0
        assert l2_norm(d1.term_IV) == 0.0
        assert l2_norm(d1.term_I) > 0.0
        d2 = consistency_integral(z, w2, T=4.0, n_steps=64)
        assert l2_norm(d2.term_I) == 0.0
        assert l2_norm(d2.term_III) == 0.0
        assert l2_norm(d2.term_IV) == 0.0
        assert l2_norm(d2.term_II) > 0.0

    def test_linearity_of_splitting(self, parts):
        w1, w2 = parts
        dec = consistency_integral(w1, w2, T=6.0, n_steps=128)
        assert dec.splitting_defect() < 1e-10

    def test_regularity_certificate(self, offset_box, parts):
        w1, w2 = parts
        cert = certify_inputs(w1, w2)
        assert all(np.isfinite(v) for v in cert.values())
        bad = zero_field(offset_box)
        bad.coeffs[0, 1] = 1.0
        with pytest.raises(ValueError):
            certify_inputs(bad, w2)

    def test_term_i_closed_form(self, offset_box, parts):
        w1, _ = parts
        dec = consistency_integral(w1, zero_field(offset_box), T=5.0,
                                   n_steps=256)
        closed = term_I_closed_form(w1)(5.0)
        assert l2_norm(closed - dec.term_I) / l2_norm(closed) < 1e-8

    def test_term_ii_closed_form(self, offset_box, parts):
        _, w2 = parts
        dec = consistency_integral(zero_field(offset_box), w2, T=5.0,
                                   n_steps=512)
        closed = term_II_closed_form(w2, 5.0)
        assert l2_norm(closed) > 0.0
        assert l2_norm(closed - dec.term_II) / l2_norm(closed) < 1e-6
        assert l2_norm(term_II_closed_form(w2, 0.0)) < 1e-15

    def test_term_iv_closed_form_and_leading_growth(self, parts):
        w1, w2 = parts
        T = 6.0
        dec = consistency_integral(w1, w2, T=T, n_steps=512)
        iv = term_IV_closed_form(w1, w2, T)
        assert l2_norm(iv["total"] - dec.term_IV) < 1e-7
        # the quadrature minus the bounded endpoint pieces isolates the
        # linear-in-time product term
        assert l2_norm((dec.term_IV - iv["bounded"]) - iv["leading"]) < 1e-7

    def test_iv_leading_growth_is_linear(self, parts):
        w1, w2 = parts
        n1 = l2_norm(term_IV_closed_form(w1, w2, 8.0)["leading"])
        n2 = l2_norm(term_IV_closed_form(w1, w2, 16.0)["leading"])
        assert n2 / n1 == pytest.approx(2.0, rel=0.15)

    def test_adaptive_quadrature_converges(self, parts):
        w1, w2 = parts
        dec = consistency_integral(w1, w2, T=2.0, tol=1e-8)
        assert dec.step_halving_gap < 1e-8
        assert dec.n_steps <= 2 ** 14

    def test_pinned_gap_is_the_halved_run(self, parts):
        # the gap from the even nodes equals a separate run at n/2
        w1, w2 = parts
        dec = consistency_integral(w1, w2, T=2.0, n_steps=64)
        half = consistency_integral(w1, w2, T=2.0, n_steps=32)
        gap = np.linalg.norm(dec.total.coeffs - half.total.coeffs)
        assert np.isfinite(dec.step_halving_gap) and gap > 0.0
        assert dec.step_halving_gap == pytest.approx(gap, rel=1e-12)

    def test_adaptive_run_matches_pinned_run(self, parts):
        w1, w2 = parts
        dec = consistency_integral(w1, w2, T=0.25, tol=1e-6)
        pinned = consistency_integral(w1, w2, T=0.25, n_steps=dec.n_steps)
        for nm in ("I", "II", "III", "IV"):
            assert np.array_equal(getattr(dec, f"term_{nm}").coeffs,
                                  getattr(pinned, f"term_{nm}").coeffs)
        assert np.array_equal(dec.total.coeffs, pinned.total.coeffs)
        assert dec.step_halving_gap == pinned.step_halving_gap

    def test_pinned_steps_round_up_to_multiple_of_four(self, parts):
        w1, w2 = parts
        dec = consistency_integral(w1, w2, T=1.0, n_steps=6)
        eight = consistency_integral(w1, w2, T=1.0, n_steps=8)
        assert dec.n_steps == 8
        assert np.array_equal(dec.total.coeffs, eight.total.coeffs)

    def test_doubled_resolution_oracle(self):
        # the run repeated at twice the resolution is the oracle for the
        # term norms; T is kept below the point where the second-harmonic
        # composed content of II meets the coarse grid's dealias cutoff
        from shearlab.core import Grid, from_function, sobolev_norm
        vals = {}
        for n in (64, 128):
            g = Grid.periodic(n, n, lx=2 * np.pi, ly=2 * np.pi, y0=1.0)
            ymid = 1.0 + np.pi
            w1 = from_function(g, lambda X, Y: 0.25 * np.cos(X)
                               * np.exp(-4 * (Y - ymid) ** 2))
            w2 = from_function(g, lambda X, Y: 0.25 * np.sin(X)
                               * np.exp(-4 * (Y - ymid - 0.3) ** 2))
            dec = consistency_integral(w1, w2, T=4.0, n_steps=512,
                                       sample_times=[4.0])
            vals[n] = {nm: sobolev_norm(getattr(dec, f"term_{nm}"), 0.0)
                       for nm in ("I", "II", "III", "IV")}
        for nm in ("I", "II", "III", "IV"):
            assert vals[64][nm] == pytest.approx(vals[128][nm], rel=1e-7)


class TestNormBehavior:
    def test_term_behaviors(self, parts):
        w1, w2 = parts
        dec = consistency_integral(w1, w2, T=18.0, n_steps=1024,
                                   sample_times=np.linspace(2, 18, 15))
        ts = dec.sample_times
        iv0 = dec.norm_series["IV"].series(0.0)
        ratio = iv0 / ts
        last = ratio[ts >= ts[0] + 2 * (ts[-1] - ts[0]) / 3]
        assert (last.max() - last.min()) / last.mean() < 0.10
        tr = bounded_trend_report(ts, dec.norm_series["IV"].series(-1.0))
        assert not tr["positive_trend_detected"]
        i06 = dec.norm_series["I"].series(-0.6)
        assert abs(i06[-1] - i06[-5]) < 1e-3

    def test_band_exhaustion_guard(self, parts):
        w1, w2 = parts
        with pytest.raises(ValueError, match="dealiased band"):
            consistency_integral(w1, w2, T=30.0, n_steps=64)


class TestFrequencyCone:
    def test_projector_properties(self, offset_box, rng):
        u = transform(offset_box, rng.normal(size=(offset_box.nx,
                                                   offset_box.ny)))
        cone = FrequencyCone(1.0, 10.0)
        pu = cone.project(u)
        assert np.array_equal(cone.project(pu).coeffs, pu.coeffs)
        total = cone.project(u) + cone.project(u, complement=True)
        assert np.array_equal(total.coeffs, u.coeffs)

    def test_elliptic_gain_on_cone(self, offset_box, rng):
        u = project_nonzero_x(transform(
            offset_box, rng.normal(size=(offset_box.nx, offset_box.ny))))
        cone = FrequencyCone(1.0, 10.0)
        pu = cone.project(u)
        assert l2_norm(invert_laplacian(pu)) <= l2_norm(pu) / (10.0) ** 2

    def test_invalid_constant(self):
        with pytest.raises(ValueError):
            FrequencyCone(0.0, 1.0)

    def test_bt_operator_bound(self, offset_box, rng):
        u = project_nonzero_x(transform(
            offset_box, rng.normal(size=(offset_box.nx, offset_box.ny))))
        out = apply_bt(u, 33.0)
        assert l2_norm(out) <= np.pi * l2_norm(u)
