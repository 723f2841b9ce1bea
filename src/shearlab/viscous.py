"""
Forced advection-diffusion at linear shear: exact Fourier-multiplier
solutions, the forced-mode amplitude integral b(t, k, eta) with its
bounds, a banded stationary solve of y dx g + nu Lap g = f0, and
enhanced-dissipation rate measurements.

Conventions.  Fields live on a periodic box truncating the unbounded
channel; coefficients are stored on the fixed initial lattice (k, eta0)
("sheared storage"): the physical mode of a stored coefficient at time t
is (k, eta0 - k t), and the accumulated viscous exponent

    E(k, eta0; tau, t) = nu * [ k^2 (t - tau)
                                + ((eta0 - k tau)^3 - (eta0 - k t)^3)/(3k) ]

is the integral of k^2 + (eta0 - k s)^2 over s in [tau, t] (k = 0 modes
reduce to plain heat decay).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.fft as _fft
from scipy.integrate import quad

from .core import Grid, SpectralField
from .core.operators import _shear_phase
from .couette import simpson_weights


# ---------------------------------------------------------------------------
# Heat factors
# ---------------------------------------------------------------------------

def heat_exponent(k, eta, nu: float, tau, t):
    """
    Accumulated dissipation exponent between times tau and t for a mode
    stored at initial index (k, eta).  Always >= 0 for t >= tau.
    """
    k = np.asarray(k, dtype=float)
    eta = np.asarray(eta, dtype=float)
    dt = t - tau
    ksafe = np.where(k == 0.0, 1.0, k)
    cubic = ((eta - k * tau) ** 3 - (eta - k * t) ** 3) / (3.0 * ksafe)
    plain = (eta ** 2) * dt
    return nu * (k ** 2 * dt + np.where(k == 0.0, plain, cubic))


def heat_exponent_quadrature(k: float, eta: float, nu: float, tau: float,
                             t: float, n: int = 4096) -> float:
    """Direct Simpson quadrature of nu * int (k^2 + (eta - k s)^2) ds."""
    s = np.linspace(tau, t, n + 1)
    vals = k * k + (eta - k * s) ** 2
    return nu * float(np.sum(simpson_weights(n, (t - tau) / n) * vals))


def heat_factor(grid: Grid, nu: float, tau: float, t: float) -> np.ndarray:
    """exp(-E) over the stored lattice."""
    return np.exp(-heat_exponent(grid.kmesh(), grid.etamesh(), nu, tau, t))


# ---------------------------------------------------------------------------
# Forced-mode amplitude integral
# ---------------------------------------------------------------------------

def _b_integrand(xi, k: float, eta: float, nu: float):
    return np.exp(-nu * (k * k * xi + ((eta + k * xi) ** 3 - eta ** 3)
                         / (3.0 * k)))


def b_value(k: float, eta: float, nu: float, t: float = np.inf,
            abs_tol: float = 1e-10) -> float:
    """
    b(t, k, eta) = int_0^t exp( -nu k^2 xi
                                - nu ((eta + k xi)^3 - eta^3)/(3 k) ) dxi,

    nonnegative, nondecreasing in t, and bounded by 1/(nu k^2).  The
    infinite-horizon value integrates up to the point where the analytic
    tail bound exp(-nu k^2 xi0)/(nu k^2) drops below the tolerance.
    """
    if k == 0.0:
        raise ValueError("forced-mode amplitude requires k != 0")
    if nu <= 0.0:
        raise ValueError("viscosity must be positive")
    if t == 0.0:
        return 0.0
    if np.isinf(t):
        nk2 = nu * k * k
        upper = -np.log(abs_tol * nk2 * 0.5) / nk2 if abs_tol * nk2 < 2.0 \
            else 1.0
        upper = max(upper, 1.0)
    else:
        upper = t
    val, err = quad(_b_integrand, 0.0, upper, args=(k, eta, nu),
                    epsabs=abs_tol * 0.25, epsrel=0.0, limit=400)
    if err > abs_tol:
        raise RuntimeError(f"adaptive quadrature error {err:.2e} above "
                           f"tolerance for b({t}, {k}, {eta})")
    return float(val)


def b_value_lattice(k: np.ndarray, eta: np.ndarray, nu: float, t: float,
                    n_steps: int = 512) -> np.ndarray:
    """
    Vectorized Simpson evaluation of b(t, k, eta) on arrays (k != 0
    entries only; k = 0 slots return 0).
    """
    k = np.asarray(k, float)
    eta = np.asarray(eta, float)
    if t == 0.0:
        return np.zeros(np.broadcast(k, eta).shape)
    w = simpson_weights(n_steps, t / n_steps)
    out = np.zeros(np.broadcast(k, eta).shape)
    ksafe = np.where(k == 0.0, 1.0, k)
    for j, wj in enumerate(w):
        xi = j * (t / n_steps)
        expo = ksafe * ksafe * xi + ((eta + ksafe * xi) ** 3 - eta ** 3) \
            / (3.0 * ksafe)
        out += wj * np.exp(-nu * expo)
    return np.where(k == 0.0, 0.0, out)


def check_binf_bounds(k_values, eta_values, nu: float) -> dict:
    """
    Grid check of the infinite-horizon amplitude bounds.

    The upper bound b_inf <= 1/(nu (k^2 + eta^2)) is asserted on the
    non-resonant quadrant k * eta > 0, where the accumulated exponent
    dominates nu (k^2 + eta^2) xi mode by mode.  Modes with k * eta < 0
    pass through the resonant time and can exceed that constant; their
    maximum is measured and reported instead of asserted.  The lower
    bound constant c is reported as the measured grid minimum.
    """
    k_values = np.asarray(k_values, float)
    eta_values = np.asarray(eta_values, float)
    if np.any(np.abs(eta_values) < 1.0):
        raise ValueError("bound check is stated for |eta| >= 1")
    prods_same, prods_opp = [], []
    for k in k_values:
        for eta in eta_values:
            val = b_value(k, eta, nu) * (k * k + eta * eta)
            (prods_same if k * eta > 0 else prods_opp).append(val)
    prods_same = np.asarray(prods_same)
    report = {
        "nu": nu,
        "upper_bound": 1.0 / nu,
        "upper_bound_ok": bool(np.all(prods_same <= 1.0 / nu * (1 + 1e-12))),
        "max_scaled_same_sign": float(np.max(prods_same)),
        "c_measured": float(np.min(prods_same)),
        "n_modes": int(prods_same.size + len(prods_opp)),
    }
    if prods_opp:
        report["max_scaled_opposite_sign"] = float(np.max(prods_opp))
        report["c_measured"] = float(min(report["c_measured"],
                                         np.min(prods_opp)))
    return report


# ---------------------------------------------------------------------------
# Multiplier solutions
# ---------------------------------------------------------------------------

LatticeForcing = Callable[[float], np.ndarray]
"""tau -> forcing coefficients on the sheared storage lattice."""


def resonant_lattice_forcing(f0: SpectralField) -> LatticeForcing:
    """Resonant forcing f(t) = f0(x - t y, y): constant in sheared storage."""
    coeffs = f0.coeffs.copy()
    return lambda tau: coeffs


def stationary_lattice_forcing(f0: SpectralField) -> LatticeForcing:
    """
    Stationary Eulerian forcing evaluated on the moving lattice
    (k, eta0 - k tau); the shifted-lattice samples of f0_hat come from a
    phase-modulated FFT of its y-profile (band-limited interpolation).
    """
    g = f0.grid
    hybrid = _fft.ifft(f0.coeffs, axis=1) * g.ny

    def closure(tau: float) -> np.ndarray:
        phase = _shear_phase(g.k, g.y, -tau)
        return _fft.fft(hybrid * phase, axis=1) / g.ny

    return closure


def multiplier_solution(w0: SpectralField, forcing: LatticeForcing | None,
                        nu: float, t: float,
                        n_steps: int = 256) -> SpectralField:
    """
    Exact-exponent solution of the forced problem in sheared storage:
    the homogeneous part is the closed-form heat factor; the forced part
    is Simpson quadrature in tau with exact integrand exponents.
    """
    if nu <= 0.0:
        raise ValueError("viscosity must be positive")
    g = w0.grid
    out = heat_factor(g, nu, 0.0, t) * w0.coeffs
    if forcing is not None and t > 0.0:
        k, eta = g.kmesh(), g.etamesh()
        h = t / n_steps
        w = simpson_weights(n_steps, h)
        acc = np.zeros_like(out)
        for j, wj in enumerate(w):
            tau = j * h
            acc += wj * np.exp(-heat_exponent(k, eta, nu, tau, t)) \
                * forcing(tau)
        out = out + acc
    return SpectralField(g, out, "lagrangian", t)


def stationary_state_lattice(f0: SpectralField, nu: float, t: float,
                             n_steps_per_unit: int = 16,
                             horizon: float | None = None) -> np.ndarray:
    """
    The stationary solution of the forced problem, sampled on the sheared
    storage lattice at time t.  It is the infinite-past Duhamel integral

        g(t; k, eta0) = int_0^inf exp(-E(t-s, t)) f0_hat(k, eta0-k(t-s)) ds,

    truncated once the accumulated heat tail is negligible; subtracting
    the freely decayed g(0) from the forced solution recovers it exactly.
    """
    g = f0.grid
    if horizon is None:
        eta_max = float(np.max(np.abs(g.eta)))
        kmin = 2.0 * np.pi / g.lx
        horizon = 2.0 * eta_max / kmin + 5.0 / max(nu, 1e-3)
    forcing = stationary_lattice_forcing(f0)
    k, eta = g.kmesh(), g.etamesh()
    n = max(64, int(np.ceil(horizon * n_steps_per_unit / 2)) * 2)
    h = horizon / n
    w = simpson_weights(n, h)
    acc = np.zeros((g.nx, g.ny), dtype=np.complex128)
    for j, wj in enumerate(w):
        s = j * h
        acc += wj * np.exp(-heat_exponent(k, eta, nu, t - s, t)) \
            * forcing(t - s)
    acc[0, :] = 0.0
    return acc


# ---------------------------------------------------------------------------
# Stationary solve on a finite-difference channel
# ---------------------------------------------------------------------------

def stationary_solve_channel(f0_hat: np.ndarray, k_values: np.ndarray,
                             nu: float, R: float, ny: int,
                             boundary_tol: float = 1e-6) -> dict:
    """
    Per-mode banded solve of  i k y g + nu (g'' - k^2 g) = f0  on [-R, R]
    with Dirichlet ends (the truncated stationary problem).  Returns the
    solution, per-mode residuals, and the boundary-layer mass fraction;
    a boundary mass above ``boundary_tol`` signals that R is too small.
    """
    from scipy.linalg import solve_banded

    if nu <= 0.0:
        raise ValueError("viscosity must be positive")
    y = -R + 2.0 * R / (ny + 1) * np.arange(1, ny + 1)
    h = 2.0 * R / (ny + 1)
    sol = np.zeros((len(k_values), ny), dtype=np.complex128)
    residuals = []
    for i, k in enumerate(k_values):
        if k == 0.0:
            raise ValueError("stationary solve requires mean-free forcing")
        diag = 1j * k * y + nu * (-k * k - 2.0 / h ** 2)
        off = nu / h ** 2 * np.ones(ny)
        ab = np.zeros((3, ny), dtype=np.complex128)
        ab[0, 1:] = off[:-1]
        ab[1, :] = diag
        ab[2, :-1] = off[1:]
        rhs = f0_hat[i]
        gk = solve_banded((1, 1), ab, rhs)
        resid = diag * gk
        resid[:-1] += off[:-1] * gk[1:]
        resid[1:] += off[1:] * gk[:-1]
        resid -= rhs
        scale = max(float(np.linalg.norm(rhs)), 1e-300)
        residuals.append(float(np.linalg.norm(resid)) / scale)
        sol[i] = gk
    n_edge = max(1, ny // 20)
    mass = float(np.sum(np.abs(sol[:, :n_edge]) ** 2
                        + np.abs(sol[:, -n_edge:]) ** 2))
    total = max(float(np.sum(np.abs(sol) ** 2)), 1e-300)
    out = {"y": y, "g_hat": sol, "residuals": np.asarray(residuals),
           "boundary_mass": mass / total, "h": h}
    if mass / total > boundary_tol:
        out["flag"] = "boundary mass above tolerance; increase R"
    return out


def channel_h1_norm(g_hat: np.ndarray, k_values: np.ndarray, y: np.ndarray,
                    R: float) -> float:
    """
    H1 norm of a per-mode channel solution under the L2(dx dy / (2 pi))
    convention used by the stationary bound (integral in y, mean in x).
    """
    h = y[1] - y[0]
    dg = np.gradient(g_hat, h, axis=1)
    k2 = (k_values ** 2)[:, None]
    density = (1.0 + k2) * np.abs(g_hat) ** 2 + np.abs(dg) ** 2
    return float(np.sqrt(np.sum(density) * h))


def channel_l2_norm(f_hat: np.ndarray, y: np.ndarray) -> float:
    h = y[1] - y[0]
    return float(np.sqrt(np.sum(np.abs(f_hat) ** 2) * h))


# ---------------------------------------------------------------------------
# Rate probes
# ---------------------------------------------------------------------------

def enhanced_dissipation_probe(w0: SpectralField, nu: float, times,
                               fit_window=None) -> dict:
    """
    Evolve a packet with the exact multiplier and fit
    log ||w(t)|| ~ a - b t^d with free exponent d.  Requires at least 5
    samples above the noise floor.
    """
    from .diagnostics import fit_exp_poly

    times = np.asarray(times, float)
    norms = []
    for t in times:
        wt = multiplier_solution(w0, None, nu, t)
        norms.append(float(np.sqrt(np.sum(np.abs(wt.coeffs) ** 2))))
    norms = np.asarray(norms)
    usable = norms > 1e-13 * norms[0]
    if np.count_nonzero(usable) < 5:
        raise RuntimeError("fewer than 5 usable samples above the noise "
                           "floor; shorten the time window")
    fit = fit_exp_poly(times[usable], norms[usable],
                       window=fit_window)
    return {"times": times, "norms": norms, "fit": fit,
            "d": fit.params["d"], "b": fit.params["b"]}


def damping_envelope(nu: float, times, k_min: float = 1.0) -> np.ndarray:
    """Uniform-in-eta decay envelope exp(-nu k_min^2 t^3 / 12)."""
    t = np.asarray(times, float)
    return np.exp(-nu * k_min ** 2 * t ** 3 / 12.0)


def reference_cubed_curve(nu: float, times, k: float = 1.0) -> np.ndarray:
    """The classical enhanced-dissipation reference exp(-nu k^2 t^3 / 3)."""
    t = np.asarray(times, float)
    return np.exp(-nu * k ** 2 * t ** 3 / 3.0)
