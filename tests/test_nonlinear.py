"""Nonlinear sheared-frame evolution, fixed point, and relaxation."""

import numpy as np
import pytest

from shearlab.core import (Grid, SpectralField, compose_shear, dealias,
                           from_function, h1_norm, l2_norm, zero_field)
from shearlab.nonlinear import (FixedPointConfig, NSState,
                                _BoxStationaryOperator, advection, evolve,
                                fixed_point_stationary, make_state,
                                perturbation_decay, stationarity_drift,
                                step_ifrk4, viscous_resonant_split)
from shearlab.viscous import multiplier_solution


@pytest.fixture
def nsgrid():
    return Grid.periodic(64, 256, lx=2 * np.pi, ly=8 * np.pi)


@pytest.fixture
def forcing(nsgrid):
    from shearlab.presets import ns_forcing
    return ns_forcing(nsgrid, 0.5)


class TestRightHandSide:
    def test_zero_state(self, nsgrid):
        st = make_state(zero_field(nsgrid), 0.5)
        assert np.max(np.abs(advection(st, st.coeffs, st.t))) == 0.0

    def test_single_plane_wave_advection_vanishes(self, nsgrid):
        pw = from_function(nsgrid, lambda X, Y: 0.3 * np.cos(X + 0.5 * Y))
        st = make_state(pw, 0.5)
        assert np.max(np.abs(advection(st, st.coeffs, 0.0))) < 1e-15

    def test_advection_orthogonal_to_state(self, nsgrid):
        w = from_function(nsgrid, lambda X, Y: 0.2 * np.cos(X)
                          * np.exp(-Y ** 2 / 4)
                          + 0.1 * np.sin(2 * X + 0.3)
                          * np.exp(-(Y - 1) ** 2 / 3))
        st = make_state(w, 0.5)
        nl, vsup = advection(st, st.coeffs, 0.0, return_velocity_sup=True)
        ip = abs(np.sum(st.coeffs * np.conj(nl)).real)
        scale = np.sum(np.abs(st.coeffs) ** 2) * vsup
        assert ip <= 1e-8 * scale

    def test_linearization_second_order(self, nsgrid):
        base = from_function(nsgrid, lambda X, Y: np.cos(X)
                             * np.exp(-Y ** 2 / 4))
        defects = []
        for eps in (0.1, 0.05, 0.025):
            st = make_state(base * eps, 0.5)
            d = advection(st, st.coeffs, st.t)
            defects.append(np.sqrt(np.sum(np.abs(d) ** 2)))
        slopes = [np.log2(defects[i] / defects[i + 1]) for i in range(2)]
        assert all(abs(s - 2.0) < 0.1 for s in slopes)

    def test_mean_free_enforced(self, nsgrid):
        bad = zero_field(nsgrid)
        bad.coeffs[0, 3] = 1.0
        with pytest.raises(ValueError):
            NSState(nsgrid, bad.coeffs, 0.0, 0.5)


class TestEvolve:
    def test_zero_everything(self, nsgrid):
        final, _ = evolve(make_state(zero_field(nsgrid), 0.5), 1.0, 0.05)
        assert np.max(np.abs(final.coeffs)) == 0.0

    def test_energy_inequality(self, nsgrid, forcing):
        w0 = from_function(nsgrid, lambda X, Y: 0.05 * np.cos(X)
                           * np.exp(-Y ** 2 / 2))
        st = make_state(w0, 0.5, forcing=forcing)
        f_norm = np.sqrt(np.sum(np.abs(forcing.coeffs) ** 2))
        prev = np.sqrt(np.sum(np.abs(st.coeffs) ** 2))
        for _ in range(20):
            st = step_ifrk4(st, 0.02)
            cur = np.sqrt(np.sum(np.abs(st.coeffs) ** 2))
            assert (cur ** 2 - prev ** 2) / 0.02 \
                <= 2.0 * prev * f_norm + 1e-8
            prev = cur

    def test_matches_linear_multiplier_at_small_data(self, nsgrid):
        eps = 1e-3
        w0 = from_function(nsgrid, lambda X, Y: eps * np.cos(X)
                           * np.exp(-Y ** 2 / 2))
        final, _ = evolve(make_state(w0, 0.05), 5.0, 0.02)
        lin = multiplier_solution(w0, None, 0.05, 5.0)
        a = final.eulerian_field()
        b = compose_shear(SpectralField(nsgrid, lin.coeffs), 5.0)
        assert l2_norm(a - b) / eps < 1e-6

    def test_quadratic_defect_scaling(self, nsgrid):
        errs = []
        for eps in (2e-2, 1e-2, 5e-3):
            wi = from_function(nsgrid, lambda X, Y: eps * np.cos(X)
                               * np.exp(-Y ** 2 / 2))
            final, _ = evolve(make_state(wi, 0.1), 3.0, 0.02)
            lin = multiplier_solution(wi, None, 0.1, 3.0)
            diff = final.eulerian_field() - compose_shear(
                SpectralField(nsgrid, lin.coeffs), 3.0)
            errs.append(l2_norm(diff))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(abs(s - 2.0) < 0.1 for s in slopes)

    def test_remap_preserves_physical_field(self, nsgrid):
        w0 = from_function(nsgrid, lambda X, Y: 0.05 * np.cos(2 * X)
                           * np.exp(-Y ** 2 / 2))
        final, _ = evolve(make_state(w0, 0.2), 12.0, 0.05)
        assert final.remap_count > 0
        assert final.dropped_energy < 1e-20
        lin = multiplier_solution(w0, None, 0.2, 12.0)
        a = final.eulerian_field()
        b = compose_shear(SpectralField(nsgrid, lin.coeffs), 12.0)
        assert l2_norm(a - b) < 1e-6

    def test_step_halving_order(self, nsgrid, forcing):
        w0 = from_function(nsgrid, lambda X, Y: 0.05 * np.cos(X)
                           * np.exp(-Y ** 2 / 2))
        # steps snap to divisors of the lattice unit (0.25), so pick
        # dt values that are already exact divisors
        sols = {}
        for dt in (0.125, 0.0625, 0.03125):
            final, _ = evolve(make_state(w0, 0.5, forcing=forcing), 2.0, dt)
            sols[dt] = final.coeffs
        e1 = np.sqrt(np.sum(np.abs(sols[0.125] - sols[0.0625]) ** 2))
        e2 = np.sqrt(np.sum(np.abs(sols[0.0625] - sols[0.03125]) ** 2))
        assert np.log2(e1 / e2) >= 3.5


class TestFixedPoint:
    def test_smallness_guard(self, nsgrid):
        big = from_function(nsgrid, lambda X, Y: np.cos(X)
                            * np.exp(-Y ** 2 / 2))
        with pytest.raises(ValueError, match="nu\\^2/40"):
            FixedPointConfig(nu=0.5, f=big)

    def test_zero_forcing_trivial(self, nsgrid):
        cfg = FixedPointConfig(nu=0.5, f=zero_field(nsgrid), tol=1e-12,
                               max_iters=5)
        rep = fixed_point_stationary(cfg)
        assert rep["iterations"] == 1
        assert l2_norm(rep["g"]) == 0.0

    def test_convergence_and_bounds(self, nsgrid, forcing):
        cfg = FixedPointConfig(nu=0.5, f=forcing, tol=1e-10, max_iters=30)
        rep = fixed_point_stationary(cfg)
        assert rep["iterations"] <= 30
        assert rep["residual"] < 1e-6
        assert rep["g_h1"] <= rep["smallness_bound"]
        assert all(r < 1.0 for r in rep["contraction_ratios"])

    def test_first_iterate_and_quadratic_correction(self, nsgrid, forcing):
        op = _BoxStationaryOperator(nsgrid, 0.5)
        gaps = []
        for frac in (1.0, 0.5, 0.25):
            f = forcing * frac
            cfg = FixedPointConfig(nu=0.5, f=f, tol=1e-12, max_iters=30)
            rep = fixed_point_stationary(cfg)
            g1 = SpectralField(nsgrid, op.solve(dealias(f).coeffs))
            gaps.append(h1_norm(rep["g"] - g1))
        slopes = [np.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
        assert all(abs(s - 2.0) < 0.1 for s in slopes)


class TestRelaxation:
    @pytest.fixture
    def solved(self, nsgrid, forcing):
        cfg = FixedPointConfig(nu=0.5, f=forcing, tol=1e-10, max_iters=30)
        rep = fixed_point_stationary(cfg)
        return cfg, rep["g"]

    def test_state_stays_stationary(self, solved):
        cfg, g_field = solved
        drift = stationarity_drift(g_field, cfg, t_end=6.0, dt=0.05,
                                   n_samples=5)
        assert drift["max_drift"] <= 10.0 * cfg.tol + 1e-12

    def test_perturbation_decays_at_half_rate(self, solved, nsgrid):
        cfg, g_field = solved
        pert = from_function(nsgrid, lambda X, Y: 0.01 * np.cos(X)
                             * np.exp(-Y ** 2 / 2))
        dec = perturbation_decay(g_field + pert, g_field, cfg,
                                 t_end=10.0, dt=0.05, n_samples=11)
        assert dec["rate"] >= 0.9 * cfg.nu / 2.0

    def test_doubling_nu_doubles_rate(self, nsgrid):
        from shearlab.presets import make_field, ns_forcing
        rates = []
        # single-mode packet: one decay exponent, so the rate scales
        # exactly with nu up to nonlinear corrections
        pert = make_field(nsgrid, "mode", amplitude=0.01, k=1)
        for nu in (0.5, 1.0):
            f = ns_forcing(nsgrid, nu)
            cfg = FixedPointConfig(nu=nu, f=f, tol=1e-10, max_iters=30)
            g_field = fixed_point_stationary(cfg)["g"]
            # window ends before the deviation reaches the stationarity
            # floor, where the fit would flatten
            dec = perturbation_decay(g_field + pert, g_field, cfg,
                                     t_end=2.5, dt=0.025, n_samples=11)
            rates.append(dec["rate"])
        assert 1.8 <= rates[1] / rates[0] <= 2.2


class TestResonantSplit:
    def test_zero_cases(self, nsgrid):
        w0 = from_function(nsgrid, lambda X, Y: np.cos(X)
                           * np.exp(-Y ** 2 / 2))
        split = viscous_resonant_split(w0, zero_field(nsgrid), 0.1,
                                       np.linspace(0, 4, 5))
        assert np.max(split["forced_part"]) == 0.0
        split2 = viscous_resonant_split(zero_field(nsgrid), w0, 0.1,
                                        np.linspace(0, 4, 5))
        assert np.max(split2["transport_part"]) == 0.0

    def test_envelope_monotone_and_physical_decay(self, nsgrid):
        w0 = from_function(nsgrid, lambda X, Y: np.cos(X)
                           * np.exp(-Y ** 2 / 2))
        f0 = from_function(nsgrid, lambda X, Y: np.cos(X + 0.3)
                           * np.exp(-Y ** 2 / 3))
        times = np.linspace(0.0, 10.0, 11)
        split = viscous_resonant_split(w0, f0, 0.1, times)
        env = split["fixed_lattice_envelope"]
        assert np.all(np.diff(env) >= -1e-12)
        # physical forced norm eventually decays algebraically
        forced = split["forced_part"]
        assert forced[-1] < forced[3]
