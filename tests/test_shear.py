"""General-shear solution operator: solves, stepping, probes, identities."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from shearlab import presets
from shearlab.consistency import consistency_integral
from shearlab.core import (Grid, SpectralField, from_function,
                           inverse_transform, invert_sheared_laplacian,
                           l2_norm, zero_field)
from shearlab.shear import (ShearMarcher, _active_k_indices,
                            _sheared_bands, _solve_stacked, apply_S,
                            backward_images, commutation_defect,
                            consistency_integral_shear, couette,
                            couette_perturbed, default_dt,
                            elliptic_solve_mode, probe_properties,
                            profile_from_table, solve_forced_shear,
                            solve_g_shear, stationary_decomposition,
                            tanh_monotone)


@pytest.fixture
def prof(channel):
    return couette_perturbed(channel, 0.05)


@pytest.fixture
def fields(channel):
    w0 = from_function(channel, lambda X, Y: 0.5 * np.cos(X)
                       * np.exp(-30 * (Y - 1.5) ** 2))
    f0 = from_function(channel, lambda X, Y: 0.5 * np.cos(X + 0.4)
                       * np.exp(-25 * (Y - 1.55) ** 2))
    return w0, f0


class TestProfiles:
    def test_couette_flags(self, channel):
        prof = couette(channel)
        assert prof.is_couette
        assert prof.bounds[0] > 0
        prof.require_sign_definite()

    def test_perturbed_bounds(self, channel):
        prof = couette_perturbed(channel, 0.05)
        assert not prof.is_couette
        assert prof.bounds[0] > 0.9

    def test_tanh_profile_monotone(self, channel):
        prof = tanh_monotone(channel)
        assert np.all(prof.Up > 0)
        prof.require_sign_definite()

    def test_sign_indefinite_rejected(self):
        g = Grid.channel(32, 64, a=-1.0, b=1.0)
        prof = couette(g)
        with pytest.raises(ValueError):
            prof.require_sign_definite()

    def test_table_profile(self, channel):
        y_table = np.linspace(0.9, 2.1, 200)
        prof = profile_from_table(channel, y_table, y_table ** 2 / 2.0)
        assert np.allclose(prof.U, channel.y ** 2 / 2.0, atol=1e-8)
        assert np.allclose(prof.Up, channel.y, atol=1e-6)

    def test_default_dt(self, channel):
        assert default_dt(couette(channel)) == 0.01
        stiff = couette_perturbed(channel, 2.0)
        assert default_dt(stiff) == pytest.approx(
            0.5 / np.max(np.abs(stiff.Upp)))


class TestEllipticSolve:
    def test_dirichlet_eigenfunction(self, channel):
        prof = couette(channel)
        width = channel.b - channel.a
        w_k = np.sin(np.pi * (channel.y - channel.a) / width).astype(complex)
        phi = elliptic_solve_mode(w_k, 1.0, 0.0, prof, channel)
        h = channel.dy
        mu_disc = 2.0 * (1.0 - np.cos(np.pi * h / width)) / h ** 2
        assert np.max(np.abs(phi + w_k / (1.0 + mu_disc))) < 1e-12
        # grid-converged toward the continuum eigenvalue
        mu_cont = (np.pi / width) ** 2
        assert np.max(np.abs(phi + w_k / (1.0 + mu_cont))) < 1e-3

    def test_zero_rhs(self, channel):
        prof = couette(channel)
        phi = elliptic_solve_mode(np.zeros(channel.ny, complex), 1.0, 0.0,
                                  prof, channel)
        assert np.max(np.abs(phi)) == 0.0

    def test_k_zero_rejected(self, channel):
        with pytest.raises(ValueError):
            elliptic_solve_mode(np.ones(channel.ny, complex), 0.0, 0.0,
                                couette(channel), channel)

    def test_converges_to_spectral_couette_solve(self):
        # Richardson residual of the method discrepancy: second order, and
        # the extrapolated limit gap sits below 1e-6
        errs = {}
        for ny in (128, 256, 512):
            g = Grid.channel(64, ny, a=1.0, b=2.0)
            prof = couette(g)
            w = from_function(g, lambda X, Y: np.cos(X)
                              * np.exp(-30 * (Y - 1.5) ** 2))
            fd = elliptic_solve_mode(w.coeffs[1, :], g.k[1], 5.0, prof, g)
            sp = invert_sheared_laplacian(w, 5.0, k0="zero").coeffs[1, :]
            errs[ny] = np.linalg.norm(fd - sp) / np.linalg.norm(sp)
        order = np.log2(errs[256] / errs[512])
        assert order > 1.8
        assert abs(4 * errs[512] - errs[256]) / 3.0 < 1e-6

    def test_no_spurious_residual_failure_at_fine_grid(self):
        # A well-conditioned system whose plain residual ||r||/||w|| sat
        # at 1.01e-10 and tripped a fixed 1e-10 check.
        g = presets.channel_default(16, 2048)
        prof = couette_perturbed(g, 0.05)
        w0, _ = presets.couette_resonant_fields(g)
        w_k = w0.coeffs[1, :]
        phi = elliptic_solve_mode(w_k, g.k[1], 5.0, prof, g)
        lower, diag, upper = (b[:, 0] for b in
                              _sheared_bands(g, prof, g.k[1:2], 5.0))
        ab = np.array([np.r_[0.0, upper[:-1]], diag, np.r_[lower[1:], 0.0]])
        ref = solve_banded((1, 1), ab, w_k)
        assert np.max(np.abs(phi - ref)) < 1e-12 * np.max(np.abs(ref))


def _dense_solve(lower, diag, upper, rhs):
    mat = (np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1))
    return np.linalg.solve(mat, rhs)


def _thomas_solve(lower, diag, upper, rhs):
    """Reference Thomas elimination, no pivoting."""
    n = diag.size
    cp = np.empty(n, dtype=complex)
    dp = np.empty(n, dtype=complex)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for j in range(1, n):
        denom = diag[j] - lower[j] * cp[j - 1]
        cp[j] = upper[j] / denom
        dp[j] = (rhs[j] - lower[j] * dp[j - 1]) / denom
    x = np.empty(n, dtype=complex)
    x[-1] = dp[-1]
    for j in range(n - 2, -1, -1):
        x[j] = dp[j] - cp[j] * x[j + 1]
    return x


class TestStackedSolve:
    @pytest.mark.parametrize("t", [0.0, 5.0, 100.0])
    @pytest.mark.parametrize("oracle, tol", [(_dense_solve, 1e-12),
                                             (_thomas_solve, 1e-13)])
    def test_rhs_matches_per_mode_oracle(self, t, oracle, tol):
        g = Grid.channel(32, 64, a=1.0, b=2.0)
        prof = couette_perturbed(g, 0.05)
        k = np.array([1.0, 2.0, 3.0, 5.0, 8.0, -1.0, -8.0])
        rng = np.random.default_rng(3)
        states = (rng.normal(size=(3, k.size, g.ny))
                  + 1j * rng.normal(size=(3, k.size, g.ny)))
        got = ShearMarcher(g, prof, k).rhs(t, states)
        lower, diag, upper = _sheared_bands(g, prof, k, t)
        want = np.empty_like(states)
        for f in range(states.shape[0]):
            for m in range(k.size):
                phi = oracle(lower[:, m], diag[:, m], upper[:, m],
                             states[f, m])
                want[f, m] = 1j * k[m] * prof.Upp * phi
        assert np.max(np.abs(got - want)) < tol * np.max(np.abs(want))

    def test_singular_block_names_its_mode(self):
        # Two 2x2 blocks; the second has a zero last pivot.
        d = np.array([1.0, 1.0, 1.0, 0.0], dtype=complex)
        off = np.zeros(3, dtype=complex)
        with pytest.raises(RuntimeError, match="k=7, t=2.5"):
            _solve_stacked((off, d, off), np.ones((4, 1), dtype=complex),
                           np.array([3.0, 7.0]), 2.5)


class TestLiveModes:
    @pytest.fixture
    def resonant(self):
        g = presets.channel_default(64, 64)
        return presets.couette_resonant_fields(g)

    def test_roundoff_rows_are_not_marched(self, resonant):
        w0, f0 = resonant
        assert list(_active_k_indices([w0, f0])) == [1, 63]

    def test_small_signal_row_is_kept(self, resonant):
        w0, _ = resonant
        coeffs = w0.coeffs.copy()
        coeffs[5, :] = 1e-10 * np.max(np.abs(coeffs))
        u = SpectralField(w0.grid, coeffs)
        assert list(_active_k_indices([u])) == [1, 5, 63]

    def test_apply_s_passes_dropped_rows_through(self, resonant):
        w0, _ = resonant
        prof = couette_perturbed(w0.grid, 0.05)
        out = apply_S(2.0, 0.0, w0, prof, dt=0.05)
        dropped = np.setdiff1d(np.arange(w0.grid.nx), [1, 63])
        assert np.any(w0.coeffs[dropped] != 0.0)
        assert np.array_equal(out.coeffs[dropped], w0.coeffs[dropped])
        assert not np.allclose(out.coeffs[1], w0.coeffs[1])


class TestSolutionOperator:
    def test_couette_is_identity(self, channel, fields):
        w0, _ = fields
        prof = couette(channel)
        assert l2_norm(apply_S(9.0, 0.0, w0, prof) - w0) == 0.0
        assert l2_norm(apply_S(4.0, 4.0, w0, prof) - w0) == 0.0

    def test_zero_field_stays_zero(self, channel, prof):
        z = zero_field(channel)
        assert l2_norm(apply_S(2.0, 0.0, z, prof)) == 0.0

    def test_semigroup(self, channel, prof, fields):
        w0, _ = fields
        a = apply_S(2.0, 0.0, w0, prof, dt=0.03)
        b = apply_S(2.0, 0.7, apply_S(0.7, 0.0, w0, prof, dt=0.03),
                    prof, dt=0.03)
        assert l2_norm(a - b) < 1e-6

    def test_reversibility(self, channel, prof, fields):
        w0, _ = fields
        fwd = apply_S(2.0, 0.0, w0, prof, dt=0.02)
        back = apply_S(0.0, 2.0, fwd, prof, dt=0.02)
        assert l2_norm(back - w0) < 1e-9

    def test_step_halving_order(self, channel, prof, fields):
        w0, _ = fields
        errs = []
        for dt in (0.2, 0.1, 0.05):
            full = apply_S(2.0, 0.0, w0, prof, dt=dt)
            half = apply_S(2.0, 0.0, w0, prof, dt=dt / 2)
            errs.append(l2_norm(full - half))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.8

    def test_cfl_guard(self, channel, fields):
        w0, _ = fields
        stiff = couette_perturbed(channel, 1.0)   # ||U''|| ~ 39
        with pytest.raises(ValueError, match="0.5"):
            marcher = ShearMarcher(channel, stiff, channel.k[1:3])
            marcher.march(w0.coeffs[None, 1:3, :], 0.0, 1.0, dt=1.0)

    def test_backward_images_match_apply_s(self, channel, prof, fields):
        _, f0 = fields
        idx = np.array([1, channel.nx - 1])
        taus = np.array([0.0, 0.5, 1.25, 2.0])
        imgs = backward_images(f0, taus, prof, idx, dt=0.05)
        for j, tau in enumerate(taus):
            direct = apply_S(0.0, -tau, f0, prof, dt=0.05)
            assert np.max(np.abs(imgs[j] - direct.coeffs[idx, :])) < 1e-8


class TestForcedSolutions:
    def test_g_matches_linear_shear_formula(self, channel):
        prof = couette(channel)
        fc = from_function(channel, lambda X, Y: np.cos(X) + 0.0 * Y)
        g = solve_g_shear(fc, prof)
        X, Y = np.meshgrid(channel.x, channel.y, indexing="ij")
        assert np.max(np.abs(inverse_transform(g).real - np.sin(X) / Y)) \
            < 1e-12
        assert l2_norm(solve_g_shear(zero_field(channel), prof)) == 0.0

    def test_couette_resonant_reduction(self, channel, fields):
        w0, f0 = fields
        prof = couette(channel)
        out = solve_forced_shear(w0, "resonant", f0, 5.0, prof, n_steps=32)
        assert l2_norm(out - (w0 + 5.0 * f0)) < 1e-8

    def test_resonant_identity_general_profile(self, channel, prof, fields):
        w0, f0 = fields
        t = 3.0
        out = solve_forced_shear(w0, "resonant", f0, t, prof, n_steps=32,
                                 dt=0.02)
        ident = apply_S(t, 0.0, w0, prof, dt=0.02) \
            + t * apply_S(t, 0.0, f0, prof, dt=0.02)
        assert l2_norm(out - ident) < 1e-6

    def test_stationary_decomposition_identity(self, channel, prof, fields):
        w0, f0 = fields
        t = 2.0
        direct = solve_forced_shear(w0, "stationary", f0, t, prof,
                                    n_steps=32, dt=0.01)
        dec = stationary_decomposition(w0, f0, t, prof, dt=0.01)
        assert l2_norm(direct - dec["W"]) < 1e-6

    def test_zero_forcing_reduces_to_operator(self, channel, prof, fields):
        w0, f0 = fields
        out = solve_forced_shear(w0, "stationary", zero_field(channel), 2.0,
                                 prof, n_steps=16, dt=0.05)
        assert l2_norm(out - apply_S(2.0, 0.0, w0, prof, dt=0.05)) < 1e-10


class TestPropertyProbes:
    def test_couette_probe_trivial(self, channel):
        prof = couette(channel)
        probe = probe_properties(channel, prof, s_list=(0.0,),
                                 times=np.linspace(0, 5, 6), n_members=4,
                                 k_band=3, seed=5)
        assert np.allclose(probe.ratio_series["0"], 1.0, atol=1e-12)
        assert probe.commutation_defect == 0.0
        assert probe.decay_fit is None

    def test_perturbed_probe_bounded(self, channel):
        prof = couette_perturbed(channel, 0.05)
        probe = probe_properties(channel, prof, s_list=(-1.0, 0.0, 1.0),
                                 times=np.linspace(0, 30, 11), n_members=6,
                                 k_band=4, seed=5, dt=0.05)
        for key, tr in probe.trend.items():
            assert np.isfinite(probe.ratio_series[key]).all()
        sigma = -probe.decay_fit.params["alpha"]
        assert sigma >= 0.9

    def test_commutation_defect_small(self, channel, prof, fields):
        w0, _ = fields
        assert commutation_defect(channel, couette(channel), w0, 2.0) == 0.0
        d = commutation_defect(channel, prof, w0, 1.0, t2=2.0, dt=0.02)
        assert d < 1e-3

    def test_s_range_guard(self, channel, prof):
        with pytest.raises(ValueError):
            probe_properties(channel, prof, s_list=(1.6,),
                             times=np.linspace(0, 2, 3), n_members=2)


class TestShearConsistency:
    def test_couette_degeneracy(self):
        g = Grid.channel(32, 256, a=1.0, b=2.0)
        prof = couette(g)
        w0 = from_function(g, lambda X, Y: 0.5 * np.cos(X)
                           * np.exp(-30 * (Y - 1.5) ** 2))
        f0 = from_function(g, lambda X, Y: 0.5 * np.cos(X + 0.4)
                           * np.exp(-25 * (Y - 1.55) ** 2))
        res = consistency_integral_shear(w0, f0, prof, 4.0, n_steps=64)
        g_aux = solve_g_shear(f0, prof)
        dec = consistency_integral(w0 - g_aux, g_aux, 4.0, n_steps=64,
                                   sample_times=[4.0])
        defect = l2_norm(res["sigma"] - dec.total)
        assert defect < 5e-5      # second-order gap at this resolution

    def test_zero_data_gives_zero(self, channel):
        prof = couette(channel)
        res = consistency_integral_shear(zero_field(channel),
                                         zero_field(channel), prof, 2.0,
                                         n_steps=16)
        assert l2_norm(res["sigma"]) == 0.0
