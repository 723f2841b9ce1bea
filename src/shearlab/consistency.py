"""
The consistency integral along a frozen transport/stationary decomposition.

For vorticity of the form  w(t) = w1(x - t y, y) + w2(x, y)  the Duhamel
integral of the advection nonlinearity, written in sheared coordinates, is

    int_0^T  J(Phi(t), W(t)) dt,        W(t) = w1 + w2(x + t y, y),

with J the Jacobian (perp-gradient dot gradient) and Phi the stream
function of W under the sheared Laplacian.  Splitting Phi and W produces
four terms with very different norm behavior:

    I   : self-interaction of the frame-static part w1
    II  : self-interaction of the sheared part w2 (an exact antiderivative)
    III : static stream function against the sheared gradient
    IV  : sheared stream function against the static gradient (the term
          with linear-in-time growth at fixed regularity)

The nonlinearity's k = 0 output is discarded throughout ("projected
consistency"), matching the mean-free setting of the solution formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as _fft

from .core import (Grid, SpectralField, compose_shear, ddx, ddy,
                   invert_laplacian, invert_sheared_laplacian, linf_norm,
                   l2_norm, project_cone, sobolev_norm, x_antiderivative)
from .core.field import inverse_transform
from .core.operators import _dirichlet_helmholtz, _shear_phase
from .diagnostics import NormSeries, format_index


# ---------------------------------------------------------------------------
# Frequency cone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyCone:
    """High-frequency cone {|eta| >= c * t}; the projector is idempotent."""
    c: float
    t: float

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("cone constant c must be positive")

    def project(self, u: SpectralField, complement: bool = False) -> SpectralField:
        return project_cone(u, self.c, self.t, complement=complement)


# ---------------------------------------------------------------------------
# Time-integrated inverse of the sheared Laplacian (closed form)
# ---------------------------------------------------------------------------

def bt_multiplier(k, eta, T: float):
    """
    Closed form of int_0^T -1/(k^2 + (eta - k t)^2) dt for k != 0:

        -(1/(k |k|)) * (arctan(eta/|k|) - arctan((eta - k T)/|k|)).

    Bounded by pi/k^2 uniformly and convergent as T -> infinity.
    """
    k = np.asarray(k, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if np.any(k == 0.0):
        raise ValueError("bt_multiplier requires k != 0")
    ak = np.abs(k)
    return -(np.arctan(eta / ak) - np.arctan((eta - k * T) / ak)) / (k * ak)


def apply_bt(u: SpectralField, T: float) -> SpectralField:
    """Apply the integrated inverse multiplier to the k != 0 modes."""
    g = u.grid
    if g.y_kind != "periodic":
        raise ValueError("apply_bt is a Fourier multiplier (periodic grids)")
    k = g.kmesh().copy()
    k[0, :] = 1.0
    mult = bt_multiplier(k, g.etamesh(), T)
    out = u.coeffs * mult
    out[0, :] = 0.0
    return SpectralField(g, out, u.frame, u.frame_time)


# ---------------------------------------------------------------------------
# Shared geometry helpers
# ---------------------------------------------------------------------------

def _require_offset_domain(grid: Grid) -> None:
    if np.min(np.abs(grid.y)) < 1.0 - 1e-12:
        raise ValueError("consistency formulas with 1/y factors require "
                         "|y| >= 1 on the domain")


def _phys(u: SpectralField) -> np.ndarray:
    return inverse_transform(u)


class _SpectralAccumulator:
    """Forward-transform physical integrands, dealias, drop k=0, accumulate."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.mask = grid.dealias_mask()
        self.mask[0, :] = False
        self._scaled_mask = None

    def to_coeffs(self, phys: np.ndarray) -> np.ndarray:
        g = self.grid
        if self._scaled_mask is None:
            norm = g.nx * g.ny if g.y_kind == "periodic" else g.nx
            self._scaled_mask = self.mask.astype(float) / norm
        if g.y_kind == "periodic":
            c = _fft.fft2(phys, axes=(-2, -1))
        else:
            c = _fft.fft(phys, axis=-2)
        c *= self._scaled_mask
        return c


# ---------------------------------------------------------------------------
# Integrand cache
# ---------------------------------------------------------------------------

class _ConsistencyKernel:
    """
    Precomputes every time-independent factor of the four integrands; the
    per-node work is then phase shifts, one sheared elliptic solve, and
    dealiased products.  Composed factors are stacked so the per-node
    transforms run as single batched FFT calls.
    """

    def __init__(self, w1: SpectralField, w2: SpectralField):
        grid = w1.grid
        self.grid = grid
        self.acc = _SpectralAccumulator(grid)
        self.w1 = w1
        self.w2 = w2
        self.w1x = _phys(ddx(w1))
        self.w1y = _phys(ddy(w1))
        self.w2x = ddx(w2)
        self.w2y = ddy(w2)

        # Stationary stream function of w2 and its gradient.
        self.phi2 = invert_laplacian(w2)
        self.phi2x = ddx(self.phi2)
        self.phi2y = ddy(self.phi2, dirichlet=True)

        # Self-interaction of w2 (time enters only through composition).
        q2 = (-_phys(self.phi2y) * _phys(self.w2x)
              + _phys(self.phi2x) * _phys(self.w2y))
        self.q2 = SpectralField(grid, self.acc.to_coeffs(q2))

        self._w1_is_zero = l2_norm(w1) == 0.0
        self._w2_is_zero = l2_norm(w2) == 0.0

        # Hybrid (k, y) stack of everything that gets composed with the
        # shear: [w2x, w2y, phi2x, phi2y, q2].
        stack = np.stack([self.w2x.coeffs, self.w2y.coeffs,
                          self.phi2x.coeffs, self.phi2y.coeffs,
                          self.q2.coeffs])
        if grid.y_kind == "periodic":
            self._hybrid = _fft.ifft(stack, axis=2) * grid.ny
        else:
            self._hybrid = stack * grid.nx

    def _composed_physical(self, t: float) -> np.ndarray:
        """Physical samples of the hybrid stack composed with x + t y."""
        g = self.grid
        phase = _shear_phase(g.k, g.y, -t)[None]
        out = _fft.ifft(self._hybrid * phase, axis=1)
        if g.y_kind == "periodic":
            out *= g.nx
        return out

    # -- stream function of w1 under the sheared Laplacian ------------------

    def _stream1_gradients(self, t: float):
        """(d_x Phi1, (d_y - t d_x) Phi1) as physical arrays."""
        g = self.grid
        if g.y_kind == "periodic":
            k = g.kmesh()
            phi1 = invert_sheared_laplacian(self.w1, t, k0="zero").coeffs
            grads = _fft.ifft2(np.stack([1j * k * phi1,
                                         1j * (g.etamesh() - k * t) * phi1]),
                               axes=(-2, -1)) * (g.nx * g.ny)
            return grads[0], grads[1]
        phase = _shear_phase(g.k, g.y, -t)
        inner = _dirichlet_helmholtz(g, self.w1.coeffs * np.conj(phase),
                                     g.k ** 2)
        psi = SpectralField(g, inner)
        gx = _phys(SpectralField(g, 1j * g.k[:, None] * inner * phase))
        gy = _phys(SpectralField(g, ddy(psi, dirichlet=True).coeffs * phase))
        return gx, gy

    # -- the four integrands -------------------------------------------------

    def integrands(self, t: float) -> dict:
        """Dealiased, x-mean-free spectral integrands of I-IV at time t,
        with the total assembled independently from the full stream
        function and vorticity."""
        zero = np.zeros((self.grid.nx, self.grid.ny), dtype=np.complex128)
        out = {"I": zero, "II": zero, "III": zero, "IV": zero, "total": zero}

        both = not (self._w1_is_zero or self._w2_is_zero)
        if not self._w1_is_zero:
            p1x, p1y_sh = self._stream1_gradients(t)
        if not self._w2_is_zero:
            w2x_s, w2y_s, p2x_s, p2y_s, q2_s = self._composed_physical(t)

        products = []
        labels = []
        if not self._w1_is_zero:
            # I: J(Phi1, w1); the sheared-gradient pairing equals the
            # plain Jacobian, with no time-growing intermediate factors.
            products.append(-p1y_sh * self.w1x
                            + p1x * (self.w1y - t * self.w1x))
            labels.append("I")
        if not self._w2_is_zero:
            products.append(q2_s)
            labels.append("II")
        if both:
            products.append(-p1y_sh * w2x_s + p1x * w2y_s)
            labels.append("III")
            products.append(-p2y_s * self.w1x + p2x_s * self.w1y
                            - t * p2x_s * self.w1x)
            labels.append("IV")
        if products:
            wx = self.w1x + (w2x_s if not self._w2_is_zero else 0.0)
            wy_sh = (self.w1y - t * self.w1x) \
                + (w2y_s if not self._w2_is_zero else 0.0)
            phix = (p1x if not self._w1_is_zero else 0.0) \
                + (p2x_s if not self._w2_is_zero else 0.0)
            phiy_sh = (p1y_sh if not self._w1_is_zero else 0.0) \
                + (p2y_s if not self._w2_is_zero else 0.0)
            products.append(-phiy_sh * wx + phix * wy_sh)
            labels.append("total")
            coeffs = self.acc.to_coeffs(np.stack(products))
            for lab, c in zip(labels, coeffs):
                out[lab] = c
        return out


# ---------------------------------------------------------------------------
# Decomposition container and driver
# ---------------------------------------------------------------------------

@dataclass
class DuhamelDecomposition:
    term_I: SpectralField
    term_II: SpectralField
    term_III: SpectralField
    term_IV: SpectralField
    total: SpectralField
    norm_series: dict[str, NormSeries]
    n_steps: int
    step_halving_gap: float
    sample_times: np.ndarray
    samples: dict[str, list] = field(default_factory=dict)

    def splitting_defect(self) -> float:
        s = (self.term_I + self.term_II + self.term_III + self.term_IV)
        return l2_norm(s - self.total)


def _check_band(w2: SpectralField, T: float) -> None:
    """
    The sheared part's composed content sits at y-frequency ~ k * T; once
    that leaves the dealiased band the frozen-frame quadrature silently
    truncates, so the final time is capped by the resolution.
    """
    g = w2.grid
    if g.y_kind != "periodic":
        return
    active = np.max(np.abs(w2.coeffs), axis=1) > 1e-13 * max(
        1.0, float(np.max(np.abs(w2.coeffs))))
    active[0] = False
    if not np.any(active):
        return
    kmax = float(np.max(np.abs(g.k[active])))
    eta_cut = g.dealias_fraction * float(np.max(np.abs(g.eta)))
    if kmax * T > eta_cut + 1e-9:
        raise ValueError(
            f"sheared content reaches y-frequency {kmax * T:.1f} at the "
            f"final time, beyond the dealiased band ({eta_cut:.1f}); "
            "raise ny or reduce T")


def certify_inputs(w1: SpectralField, w2: SpectralField,
                   sup_bound: float = 1e6) -> dict:
    """
    Checks the regularity hypotheses numerically: both parts mean-free in
    x, finite discrete H^{3/2} and W^{1,inf} norms, and a finite mixed
    second derivative of the frame-static part.
    """
    for name, w in (("w1", w1), ("w2", w2)):
        if not w.is_mean_free_in_x:
            raise ValueError(f"{name} must have vanishing average in x")
    cert = {
        "w1_h32": sobolev_norm(w1, 1.5),
        "w2_h32": sobolev_norm(w2, 1.5),
        "w1_grad_sup": max(linf_norm(ddx(w1)), linf_norm(ddy(w1))),
        "w2_grad_sup": max(linf_norm(ddx(w2)), linf_norm(ddy(w2))),
        "w1_mixed_sup": linf_norm(ddy(ddx(w1))),
    }
    for key, val in cert.items():
        if not np.isfinite(val) or val > sup_bound:
            raise ValueError(f"regularity certificate failed: {key} = {val}")
    return cert


def consistency_integral(w1: SpectralField, w2: SpectralField, T: float,
                         n_steps: int | None = None,
                         sample_times=None,
                         s_list=(-1.0, -0.6, 0.0),
                         tol: float = 1e-8,
                         max_steps: int = 2 ** 14,
                         keep_samples: tuple = ()) -> DuhamelDecomposition:
    """
    Composite-Simpson quadrature of the four-term splitting up to time T,
    with per-term H^s norm series recorded at ``sample_times`` (and, for
    the term names in ``keep_samples``, the accumulated fields themselves,
    e.g. for weak-convergence pairings).

    The level-n/2 Simpson sum over the even nodes comes free with every
    run, so ``step_halving_gap`` (the L2 distance of the two totals) is
    always reported.  An explicit ``n_steps`` is rounded up to a multiple
    of 4; without one the step count doubles until the gap falls below
    ``tol`` (capped at ``max_steps``; exceeding the cap without
    convergence is an error).
    """
    certify_inputs(w1, w2)
    if w1.grid != w2.grid:
        raise ValueError("parts live on different grids")
    _check_band(w2, T)
    kernel = _ConsistencyKernel(w1, w2)
    if sample_times is None:
        sample_times = np.linspace(0.0, T, 17)[1:]
    sample_times = np.asarray(sample_times, float)

    if n_steps is not None:
        return _full_run(kernel, T, n_steps, sample_times, s_list,
                         keep_samples)
    n = 2 * max(512, 2 ** int(np.ceil(np.log2(max(8.0 * T, 2.0)))))
    dec = _full_run(kernel, T, n, sample_times, s_list, keep_samples)
    while dec.step_halving_gap >= tol and n < max_steps:
        n *= 2
        dec = _full_run(kernel, T, n, sample_times, s_list, keep_samples)
    if dec.step_halving_gap >= tol:
        raise RuntimeError(f"consistency quadrature did not converge: "
                           f"last halving gap {dec.step_halving_gap:.3e} "
                           f"> {tol:g}")
    return dec


def _full_run(kernel, T: float, n_steps: int, sample_times, s_list,
              keep_samples=()) -> DuhamelDecomposition:
    grid = kernel.grid
    n_steps += -n_steps % 4
    h = T / n_steps
    names = ("I", "II", "III", "IV")
    acc = {nm: np.zeros((grid.nx, grid.ny), np.complex128) for nm in names}
    acc_total = np.zeros((grid.nx, grid.ny), np.complex128)
    # level-n/2 total: one Simpson panel of width 4h per pair of panels
    acc_half = np.zeros((grid.nx, grid.ny), np.complex128)

    # Snap sample times onto panel edges.
    edges = np.round(np.asarray(sample_times) / (2 * h)).astype(int)
    edges = np.unique(np.clip(edges, 1, n_steps // 2))
    snapped = 2 * h * edges
    series_vals = {nm: {format_index(s): [] for s in s_list} for nm in names}
    total_vals = {format_index(s): [] for s in s_list}
    kept: dict[str, list] = {nm: [] for nm in keep_samples}

    next_edge = 0
    f_prev = kernel.integrands(0.0)
    for panel in range(n_steps // 2):
        t0 = 2 * panel * h
        f_mid = kernel.integrands(t0 + h)
        f_next = kernel.integrands(t0 + 2 * h)
        for nm in names:
            acc[nm] += (h / 3.0) * (f_prev[nm] + 4.0 * f_mid[nm] + f_next[nm])
        acc_total += (h / 3.0) * (f_prev["total"] + 4.0 * f_mid["total"]
                                  + f_next["total"])
        if panel % 2 == 0:
            f_half_start = f_prev["total"]
        else:
            acc_half += (2 * h / 3.0) * (f_half_start + 4.0 * f_prev["total"]
                                         + f_next["total"])
        f_prev = f_next

        if next_edge < edges.size and panel + 1 == edges[next_edge]:
            t_here = 2 * h * (panel + 1)
            for nm in names:
                fld = SpectralField(grid, acc[nm], "lagrangian", t_here)
                for s in s_list:
                    series_vals[nm][format_index(s)].append(
                        sobolev_norm(fld, s))
                if nm in kept:
                    kept[nm].append(SpectralField(grid, acc[nm].copy(),
                                                  "lagrangian", t_here))
            fld = SpectralField(grid, acc_total, "lagrangian", t_here)
            for s in s_list:
                total_vals[format_index(s)].append(sobolev_norm(fld, s))
            next_edge += 1

    def _mk(nm):
        return SpectralField(grid, acc[nm], "lagrangian", T)

    norm_series = {nm: NormSeries(snapped,
                                  {k: np.array(v) for k, v in
                                   series_vals[nm].items()},
                                  frame="lagrangian")
                   for nm in names}
    norm_series["total"] = NormSeries(snapped,
                                      {k: np.array(v) for k, v in
                                       total_vals.items()},
                                      frame="lagrangian")
    return DuhamelDecomposition(
        term_I=_mk("I"), term_II=_mk("II"), term_III=_mk("III"),
        term_IV=_mk("IV"),
        total=SpectralField(grid, acc_total, "lagrangian", T),
        norm_series=norm_series, n_steps=n_steps,
        step_halving_gap=float(np.sqrt(np.sum(np.abs(acc_total - acc_half)
                                              ** 2))),
        sample_times=snapped, samples=kept)


# ---------------------------------------------------------------------------
# Closed forms for II, IV, and I
# ---------------------------------------------------------------------------

def _over_y(u: SpectralField, power: int = 1) -> SpectralField:
    """Pointwise division by y^power (well conditioned for |y| >= 1)."""
    _require_offset_domain(u.grid)
    g = u.grid
    if g.y_kind == "channel":
        coeffs = u.coeffs / g.y[None, :] ** power
    else:
        hybrid = _fft.ifft(u.coeffs, axis=1) * g.ny
        hybrid /= g.y[None, :] ** power
        coeffs = _fft.fft(hybrid, axis=1) / g.ny
    return SpectralField(g, coeffs, u.frame, u.frame_time)


def term_II_closed_form(w2: SpectralField, T: float) -> SpectralField:
    """
    Endpoint-difference antiderivative of term II:

        (1/y) dx^{-1} q2 (x + t y, y) |_{t=0}^{T},

    with q2 the (mean-free part of the) self-interaction of w2.
    """
    kernel = _ConsistencyKernel(w2.zeros_like(), w2)
    F = _over_y(x_antiderivative(kernel.q2))
    diff = (kernel.acc.to_coeffs(_phys(compose_shear(F, -T)))
            - kernel.acc.to_coeffs(_phys(F)))
    return SpectralField(F.grid, diff, "lagrangian", T)


def term_I_closed_form(w1: SpectralField) -> "callable":
    """
    Returns T -> J(B_T w1, w1): the time integral enters term I only
    through the integrated inverse multiplier, so the whole integral has a
    closed form (periodic grids).
    """
    grid = w1.grid
    acc = _SpectralAccumulator(grid)
    w1x = _phys(ddx(w1))
    w1y = _phys(ddy(w1))

    def closed(T: float) -> SpectralField:
        bw = apply_bt(w1, T)
        bx = _phys(ddx(bw))
        by = _phys(ddy(bw))
        return SpectralField(grid, acc.to_coeffs(-by * w1x + bx * w1y),
                             "lagrangian", T)

    return closed


def term_IV_closed_form(w1: SpectralField, w2: SpectralField,
                        T: float) -> dict:
    """
    Exact antiderivative decomposition of term IV into its growing piece

        -(T/y) phi2(x + T y, y) dx w1

    and bounded endpoint terms.  Returns the pieces and their sum.
    """
    kernel = _ConsistencyKernel(w1, w2)
    grid = w1.grid
    acc = kernel.acc

    # IV_a: [(1/y) dx^{-1} grad_perp(phi2)](x+ty,y) |_0^T . grad w1,
    # with grad_perp phi2 = (-d_y phi2, d_x phi2) handled componentwise.
    Gm = _over_y(x_antiderivative(kernel.phi2y))            # pairs with d_x w1
    Gp = _over_y(x_antiderivative(kernel.phi2x))            # pairs with d_y w1
    a_T = (-(_phys(compose_shear(Gm, -T)) - _phys(Gm)) * kernel.w1x
           + (_phys(compose_shear(Gp, -T)) - _phys(Gp)) * kernel.w1y)

    # IV_b via parts: t phi2_x(x+ty) dx w1 integrates to
    #   (T/y) phi2(x+Ty) dx w1 - (1/y^2)[dx^{-1}phi2](x+ty)|_0^T dx w1.
    phi2_over_y = _over_y(kernel.phi2)
    growing = -(T * _phys(compose_shear(phi2_over_y, -T))) * kernel.w1x
    P = _over_y(x_antiderivative(kernel.phi2), power=2)
    correction = (_phys(compose_shear(P, -T)) - _phys(P)) * kernel.w1x

    leading = SpectralField(grid, acc.to_coeffs(growing), "lagrangian", T)
    bounded = SpectralField(grid, acc.to_coeffs(a_T + correction),
                            "lagrangian", T)
    total = SpectralField(grid, leading.coeffs + bounded.coeffs,
                          "lagrangian", T)
    return {"total": total, "leading": leading, "bounded": bounded}
