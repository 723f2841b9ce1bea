"""Multiplier calculus, frame changes, and their exact identities."""

import numpy as np
import pytest

from shearlab.core import (apply_laplacian, compose_shear, dealias,
                           divergence, from_function, invert_laplacian,
                           invert_sheared_laplacian, inverse_transform,
                           is_commensurate, l2_norm, multiply, project_cone,
                           project_nonzero_x, shift_frame, transform,
                           velocity, x_antiderivative, zero_field)


class TestLaplacian:
    def test_single_modes(self, box):
        w = zero_field(box)
        w.coeffs[1, 0] = 1.0
        assert invert_laplacian(w).coeffs[1, 0] == pytest.approx(-1.0)
        w2 = zero_field(box)
        w2.coeffs[2, 2] = 1.0
        assert invert_laplacian(w2).coeffs[2, 2] == pytest.approx(-1.0 / 8.0)

    def test_zero_maps_to_zero(self, box):
        assert l2_norm(invert_laplacian(zero_field(box))) == 0.0

    def test_rejects_nonzero_mean(self, box):
        w = zero_field(box)
        w.coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            invert_laplacian(w)

    def test_inverse_of_forward(self, box, rng):
        w = project_nonzero_x(transform(box, rng.normal(size=(32, 32))))
        w.coeffs[0, :] = 0.0
        back = apply_laplacian(invert_laplacian(w))
        assert l2_norm(back - w) < 1e-10

    def test_channel_dirichlet_eigenfunction(self, channel):
        width = channel.b - channel.a
        u = from_function(channel, lambda X, Y: np.cos(X)
                          * np.sin(np.pi * (Y - channel.a) / width))
        phi = invert_laplacian(u)
        expected = -u.coeffs / (1.0 + (np.pi / width) ** 2)
        assert np.max(np.abs(phi.coeffs - expected)) < 1e-12


class TestShearedLaplacian:
    def test_factors(self, box):
        w = zero_field(box)
        w.coeffs[1, 0] = 1.0
        assert invert_sheared_laplacian(w, 0.0).coeffs[1, 0] \
            == pytest.approx(-1.0)
        assert invert_sheared_laplacian(w, 10.0).coeffs[1, 0] \
            == pytest.approx(-1.0 / 101.0)
        res = zero_field(box)
        res.coeffs[1, 2] = 1.0
        assert invert_sheared_laplacian(res, 2.0).coeffs[1, 2] \
            == pytest.approx(-1.0)   # resonant time eta = k t

    def test_k0_rejected_or_zeroed(self, box):
        w = zero_field(box)
        w.coeffs[0, 3] = 1.0
        with pytest.raises(ValueError):
            invert_sheared_laplacian(w, 1.0)
        out = invert_sheared_laplacian(w, 1.0, k0="zero")
        assert l2_norm(out) == 0.0

    def test_channel_matches_plain_inverse_at_t0(self, channel):
        u = from_function(channel, lambda X, Y: np.cos(X)
                          * np.exp(-30 * (Y - 1.5) ** 2))
        a = invert_sheared_laplacian(u, 0.0)
        b = invert_laplacian(u)
        assert np.max(np.abs(a.coeffs[1:] - b.coeffs[1:])) < 1e-12


class TestVelocity:
    def test_examples(self, box):
        phi = from_function(box, lambda X, Y: np.sin(X))
        vx, vy = velocity(phi)
        X, _ = np.meshgrid(box.x, box.y, indexing="ij")
        assert l2_norm(vx) < 1e-14
        assert np.max(np.abs(inverse_transform(vy).real - np.cos(X))) < 1e-12

        phiy = from_function(box, lambda X, Y: np.sin(Y))
        ux, uy = velocity(phiy)
        _, Y = np.meshgrid(box.x, box.y, indexing="ij")
        assert np.max(np.abs(inverse_transform(ux).real + np.cos(Y))) < 1e-12
        assert l2_norm(uy) < 1e-14

    def test_divergence_free(self, box, channel, rng):
        for g in (box, channel):
            w = project_nonzero_x(transform(g, rng.normal(size=(g.nx, g.ny))))
            phi = invert_laplacian(w)
            vx, vy = velocity(phi)
            scale = max(l2_norm(vx), l2_norm(vy), 1.0)
            assert l2_norm(divergence(vx, vy)) / scale < 1e-12


class TestShiftFrame:
    def test_identity_at_zero(self, box, rng):
        u = transform(box, rng.normal(size=(32, 32)))
        out = shift_frame(u, 0.0, "to_lagrangian")
        assert np.max(np.abs(out.coeffs - u.coeffs)) < 1e-14

    def test_cos_x_moves_to_expected_mode(self, box):
        u = from_function(box, lambda X, Y: np.cos(X))
        w = shift_frame(u, 3.0, "to_lagrangian")   # u(x + 3y, y)
        X, Y = np.meshgrid(box.x, box.y, indexing="ij")
        expect = transform(box, np.cos(X + 3 * Y))
        assert np.max(np.abs(w.coeffs - expect.coeffs)) < 1e-12

    def test_isometry_and_group_action(self, box, rng):
        u = transform(box, rng.normal(size=(32, 32)))
        s = compose_shear(u, 2.0)
        assert abs(l2_norm(s) - l2_norm(u)) < 1e-10
        a = compose_shear(compose_shear(u, 1.0), 2.0)
        b = compose_shear(u, 3.0)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10

    def test_round_trip(self, box, rng):
        u = transform(box, rng.normal(size=(32, 32)))
        w = shift_frame(u, 5.0, "to_lagrangian")
        back = shift_frame(w, 5.0, "to_eulerian")
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-10

    def test_incommensurate_needs_resample(self, wide_box, rng):
        u = transform(wide_box, rng.normal(size=(wide_box.nx, wide_box.ny)))
        assert not is_commensurate(wide_box, 0.1)
        with pytest.raises(ValueError):
            shift_frame(u, 0.1, "to_lagrangian")
        out = shift_frame(u, 0.1, "to_lagrangian", resample=True)
        assert abs(l2_norm(out) - l2_norm(u)) < 1e-10

    def test_channel_composition_exact_any_time(self, channel):
        u = from_function(channel, lambda X, Y: np.cos(X)
                          * np.exp(-25 * (Y - 1.5) ** 2))
        t = 0.6180339887
        X, Y = np.meshgrid(channel.x, channel.y, indexing="ij")
        direct = transform(channel, np.cos(X - t * Y)
                           * np.exp(-25 * (Y - 1.5) ** 2))
        assert np.max(np.abs(compose_shear(u, t).coeffs - direct.coeffs)) \
            < 1e-12


def _perturbed_couette(y):
    return y + 0.05 * np.sin(y)


@pytest.mark.parametrize("grid_name", ["channel", "wide_box"])
class TestComposeShearProfile:
    """compose_shear(u, t, U) = u(x - t U(y), y) for a sampled profile U."""

    @pytest.mark.parametrize("profile", [None, _perturbed_couette])
    def test_matches_direct_sampling(self, request, grid_name, profile):
        grid = request.getfixturevalue(grid_name)
        prof = profile or (lambda y: y)
        U = profile(grid.y) if profile else None
        u = from_function(grid, lambda X, Y: np.cos(X) * np.exp(-Y ** 2 / 3))
        for t in (0.6180339887, 3.0):
            direct = from_function(grid, lambda X, Y: np.cos(X - t * prof(Y))
                                   * np.exp(-Y ** 2 / 3))
            got = compose_shear(u, t, U)
            assert np.max(np.abs(got.coeffs - direct.coeffs)) < 1e-13

    def test_couette_default_is_grid_y(self, request, grid_name, rng):
        grid = request.getfixturevalue(grid_name)
        u = transform(grid, rng.normal(size=(grid.nx, grid.ny)))
        assert np.array_equal(compose_shear(u, 1.7, grid.y).coeffs,
                              compose_shear(u, 1.7).coeffs)

    def test_group_action(self, request, grid_name, rng):
        grid = request.getfixturevalue(grid_name)
        U = _perturbed_couette(grid.y)
        u = transform(grid, rng.normal(size=(grid.nx, grid.ny)))
        twice = compose_shear(compose_shear(u, 1.3, U), -0.4, U)
        once = compose_shear(u, 1.3 - 0.4, U)
        assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-13


class TestProjectionsAndProducts:
    def test_x_antiderivative(self, box):
        u = from_function(box, lambda X, Y: np.cos(X))
        prim = x_antiderivative(u)
        X, _ = np.meshgrid(box.x, box.y, indexing="ij")
        assert np.max(np.abs(inverse_transform(prim).real - np.sin(X))) \
            < 1e-12
        bad = zero_field(box)
        bad.coeffs[0, 1] = 1.0
        with pytest.raises(ValueError):
            x_antiderivative(bad)

    def test_cone_projector(self, box, rng):
        u = transform(box, rng.normal(size=(32, 32)))
        p = project_cone(u, 1.0, 4.0)
        assert np.max(np.abs(project_cone(p, 1.0, 4.0).coeffs - p.coeffs)) \
            == 0.0
        comp = project_cone(u, 1.0, 4.0, complement=True)
        assert np.max(np.abs((p + comp).coeffs - u.coeffs)) == 0.0
        assert l2_norm(project_cone(u, 1.0, 1e9)) == 0.0
        assert np.max(np.abs(project_cone(u, 1.0, 0.0).coeffs - u.coeffs)) \
            == 0.0

    def test_dealiased_product_of_low_modes_exact(self, box):
        a = from_function(box, lambda X, Y: np.cos(X))
        b = from_function(box, lambda X, Y: np.sin(2 * X + Y))
        prod = multiply(a, b)
        direct = from_function(box, lambda X, Y: np.cos(X)
                               * np.sin(2 * X + Y))
        assert l2_norm(prod - dealias(direct)) < 1e-13
