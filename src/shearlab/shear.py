"""
The linearized problem at a general shear profile: per-mode
variable-coefficient elliptic solves, the sheared-frame solution operator
as an RK4 time stepper, forced solutions via Duhamel quadrature, and
numerical probes of the operator's boundedness/decay/commutation
properties.

Everything decouples in the x-wavenumber k, so a marching state is an
array over (field, k, y), and a solve stacks the per-mode tridiagonal
systems into one LAPACK call.
Couette (U(y) = y) is an exact degeneracy: the right-hand side vanishes
identically and the solution operator is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft
from scipy.linalg.lapack import zgtsv

from .core import Grid, SpectralField, ddy, l2_norm, sobolev_norm
from .couette import simpson_weights
from .diagnostics import (RateFit, bounded_trend_report, fit_power_law,
                          format_index)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShearProfile:
    """Tabulated flow profile with first and second derivatives."""
    name: str
    U: np.ndarray
    Up: np.ndarray
    Upp: np.ndarray

    @property
    def bounds(self) -> tuple[float, float]:
        return float(np.min(self.U)), float(np.max(self.U))

    @property
    def is_couette(self) -> bool:
        return float(np.max(np.abs(self.Upp))) == 0.0

    def require_sign_definite(self) -> None:
        lo, hi = self.bounds
        if not (lo > 0.0 or hi < 0.0):
            raise ValueError(f"profile {self.name!r} is not bounded away "
                             "from zero (stationary-type runs need min U > 0 "
                             "or max U < 0)")


def profile_from_callables(grid: Grid, U, Up, Upp,
                           name: str = "custom") -> ShearProfile:
    y = grid.y
    return ShearProfile(name, np.asarray(U(y), float),
                        np.asarray(Up(y), float), np.asarray(Upp(y), float))


def couette(grid: Grid) -> ShearProfile:
    return profile_from_callables(grid, lambda y: y,
                                  lambda y: np.ones_like(y),
                                  lambda y: np.zeros_like(y), "couette")


def couette_perturbed(grid: Grid, eps: float,
                      wavenumber: float = 2.0 * np.pi) -> ShearProfile:
    w = wavenumber
    return profile_from_callables(
        grid,
        lambda y: y + eps * np.sin(w * y),
        lambda y: 1.0 + eps * w * np.cos(w * y),
        lambda y: -eps * w * w * np.sin(w * y),
        f"couette_perturbed(eps={eps:g})")


def tanh_monotone(grid: Grid, center: float | None = None,
                  steepness: float = 2.0) -> ShearProfile:
    y = grid.y
    if center is None:
        center = 0.5 * (y[0] + y[-1])
    offset = 0.5 * (y[0] + y[-1])
    return profile_from_callables(
        grid,
        lambda yy: offset + np.tanh(steepness * (yy - center)) / steepness,
        lambda yy: 1.0 / np.cosh(steepness * (yy - center)) ** 2,
        lambda yy: -2.0 * steepness * np.tanh(steepness * (yy - center))
                   / np.cosh(steepness * (yy - center)) ** 2,
        "tanh_monotone")


def profile_from_table(grid: Grid, y_table, U_table,
                       name: str = "table") -> ShearProfile:
    """Cubic-interpolated user profile sampled onto the grid."""
    from scipy.interpolate import CubicSpline
    spl = CubicSpline(np.asarray(y_table, float), np.asarray(U_table, float))
    y = grid.y
    return ShearProfile(name, spl(y), spl(y, 1), spl(y, 2))


def default_dt(profile: ShearProfile) -> float:
    sup = float(np.max(np.abs(profile.Upp)))
    if sup == 0.0:
        return 0.01
    return min(0.01, 0.5 / sup)


# ---------------------------------------------------------------------------
# Per-mode elliptic solves
# ---------------------------------------------------------------------------

def _sheared_bands(grid: Grid, profile: ShearProfile, k: np.ndarray,
                   t: float):
    """Tridiagonal bands of -k^2 + (d/dy - i k t U'(y))^2, Dirichlet walls.

    Returns (lower, diag, upper) with shape (ny, nk)."""
    h = grid.dy
    a = np.multiply.outer(profile.Up, k * t)                 # (ny, nk)
    ap = np.multiply.outer(profile.Upp, k * t)
    inv_h2 = 1.0 / (h * h)
    diag = -2.0 * inv_h2 - 1j * ap - a * a - (k * k)[None, :]
    upper = inv_h2 - 1j * a / h
    lower = inv_h2 + 1j * a / h
    return lower, diag, upper


def _stacked_bands(grid: Grid, profile: ShearProfile, k: np.ndarray,
                   t: float):
    """
    The nk per-mode systems of ``_sheared_bands`` placed one after another
    on the diagonal of a single tridiagonal system of size nk*ny, as
    LAPACK's (dl, d, du).  The couplings across block edges are zero, so
    every elimination factor there vanishes and partial pivoting cannot
    swap rows across an edge: each block is solved on its own.
    """
    lower, diag, upper = (b.T.copy() for b in
                          _sheared_bands(grid, profile, k, t))
    lower[:, 0] = 0.0
    upper[:, -1] = 0.0
    return lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1]


def _solve_stacked(bands, rhs: np.ndarray, k: np.ndarray,
                   t: float) -> np.ndarray:
    """Solve the stacked system of ``_stacked_bands`` for the columns of
    ``rhs`` (shape (nk*ny, nf)) with one LAPACK gtsv call."""
    dl, d, du = bands
    _, _, _, x, info = zgtsv(dl, d, du, rhs)
    if info > 0:
        mode = k[(info - 1) // (d.size // k.size)]
        raise RuntimeError(f"singular sheared-Helmholtz system at "
                           f"k={mode:g}, t={t:g}")
    if info < 0:
        raise RuntimeError(f"LAPACK gtsv rejected argument {-info} "
                           f"at t={t:g}")
    return x


def _apply_bands(dl, d, du, x):
    out = d * x
    out[:-1] += du * x[1:]
    out[1:] += dl * x[:-1]
    return out


def elliptic_solve_mode(w_k: np.ndarray, k: float, t: float,
                        profile: ShearProfile, grid: Grid,
                        residual_tol: float = 1e-10) -> np.ndarray:
    """
    Solve (-k^2 + (d/dy - i k t U'(y))^2) phi = w_k on the channel with
    homogeneous Dirichlet stream-function values, by second-order centered
    finite differences and the same tridiagonal solve that the marcher
    uses.  The normwise backward error ||r|| / (||A|| ||phi|| + ||w||), in
    the infinity norm, is verified against ``residual_tol``.
    """
    if k == 0.0:
        raise ValueError("per-mode elliptic solve requires k != 0")
    if grid.y_kind != "channel":
        raise ValueError("per-mode elliptic solve lives on channel grids")
    w_k = np.asarray(w_k, dtype=np.complex128)
    karr = np.array([k], dtype=float)
    bands = _stacked_bands(grid, profile, karr, t)
    phi = _solve_stacked(bands, w_k[:, None], karr, t)[:, 0]
    dl, d, du = bands
    a_norm = np.max(_apply_bands(np.abs(dl), np.abs(d), np.abs(du),
                                 np.ones(d.size)))      # max row sum
    scale = a_norm * np.max(np.abs(phi)) + np.max(np.abs(w_k))
    resid = np.max(np.abs(_apply_bands(dl, d, du, phi) - w_k))
    err = float(resid / max(scale, 1e-300))
    if err > residual_tol:
        raise RuntimeError(f"elliptic solve backward error {err:.2e} above "
                           f"tolerance {residual_tol:.0e} at k={k:g}, "
                           f"t={t:g}")
    return phi


# ---------------------------------------------------------------------------
# The solution operator as a time stepper
# ---------------------------------------------------------------------------

class ShearMarcher:
    """
    Batched RK4 integrator of the sheared-frame equation

        d/dt W_k = i k U''(y) * phi_k(t),    phi_k = sheared elliptic solve.

    ``states`` has shape (n_fields, nk, ny) over the active k-set; all
    fields march together since the equation is linear and k-diagonal.
    """

    def __init__(self, grid: Grid, profile: ShearProfile,
                 k_values: np.ndarray):
        self.grid = grid
        self.profile = profile
        self.k = np.asarray(k_values, dtype=float)
        if np.any(self.k == 0.0):
            raise ValueError("k = 0 modes do not evolve; exclude them")
        self._coupling = 1j * self.k[:, None] * profile.Upp[None, :]
        self._band_cache: dict[float, tuple] = {}

    def _bands_at(self, t: float):
        """Stacked bands at time t.  The two half-step stages share theirs,
        and t + dt is the next step's t; keep a small cache."""
        hit = self._band_cache.get(t)
        if hit is None:
            hit = _stacked_bands(self.grid, self.profile, self.k, t)
            if len(self._band_cache) > 4:
                self._band_cache.clear()
            self._band_cache[t] = hit
        return hit

    def rhs(self, t: float, states: np.ndarray) -> np.ndarray:
        if self.profile.is_couette:
            return np.zeros_like(states)
        nf, nk, ny = states.shape
        # One stacked system for all modes, with the fields as columns.
        phi = _solve_stacked(self._bands_at(t),
                             states.reshape(nf, nk * ny).T, self.k, t)
        return self._coupling * phi.T.reshape(nf, nk, ny)

    def step(self, t: float, states: np.ndarray, dt: float) -> np.ndarray:
        k1 = self.rhs(t, states)
        k2 = self.rhs(t + 0.5 * dt, states + 0.5 * dt * k1)
        k3 = self.rhs(t + 0.5 * dt, states + 0.5 * dt * k2)
        k4 = self.rhs(t + dt, states + dt * k3)
        return states + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    def march(self, states: np.ndarray, t1: float, t2: float,
              dt: float | None = None) -> np.ndarray:
        """Propagate from t1 to t2 (either direction; backward runs use a
        negated step of the same reversible equation)."""
        if dt is None:
            dt = default_dt(self.profile)
        if self.profile.is_couette or t1 == t2:
            return states.copy()
        span = t2 - t1
        n = max(1, int(np.ceil(abs(span) / dt - 1e-12)))
        h = span / n
        cfl = abs(h) * float(np.max(np.abs(self.profile.Upp)))
        if cfl > 0.5 + 1e-12:
            raise ValueError(f"time step violates dt*||U''|| <= 0.5 "
                             f"(got {cfl:.3f})")
        out = states
        t = t1
        for _ in range(n):
            out = self.step(t, out, h)
            t += h
        return out


# A row below this fraction of its field's largest row is FFT roundoff,
# not signal, and is not marched.
_LIVE_MODE_RTOL = 1e-13


def _active_k_indices(fields: list[SpectralField]) -> np.ndarray:
    """Nonzero x-modes that are live in at least one of ``fields``."""
    nx = fields[0].grid.nx
    mask = np.zeros(nx, dtype=bool)
    for f in fields:
        mag = np.max(np.abs(f.coeffs), axis=1)
        mask |= mag > _LIVE_MODE_RTOL * np.max(mag)
    mask[0] = False
    return np.nonzero(mask)[0]


def apply_S(t2: float, t1: float, u: SpectralField, profile: ShearProfile,
            dt: float | None = None) -> SpectralField:
    """
    Apply the solution operator S(t2, t1) of the unforced sheared-frame
    equation; S(t, t) is the identity and Couette profiles return the
    input exactly.
    """
    grid = u.grid
    idx = _active_k_indices([u])
    if idx.size == 0 or profile.is_couette or t1 == t2:
        return u.copy()
    marcher = ShearMarcher(grid, profile, grid.k[idx])
    states = u.coeffs[None, idx, :]
    out = u.coeffs.copy()
    out[idx, :] = marcher.march(states, t1, t2, dt)[0]
    return SpectralField(grid, out, u.frame, u.frame_time)


def compose_profile_shift(u: SpectralField, tau: float,
                          profile: ShearProfile) -> SpectralField:
    """u(x + tau * U(y), y): exact per-node phase composition."""
    g = u.grid
    phase = np.exp(1j * tau * np.outer(g.k, profile.U))
    if g.y_kind == "channel":
        return SpectralField(g, u.coeffs * phase, u.frame, u.frame_time)
    hybrid = _fft.ifft(u.coeffs, axis=1) * g.ny
    return SpectralField(g, _fft.fft(hybrid * phase, axis=1) / g.ny,
                         u.frame, u.frame_time)


# ---------------------------------------------------------------------------
# Forced solutions
# ---------------------------------------------------------------------------

def solve_g_shear(f0: SpectralField, profile: ShearProfile) -> SpectralField:
    """Stationary transport balance U(y) dx g = f0: g_hat = f0_hat/(i k U)."""
    if not f0.is_mean_free_in_x:
        raise ValueError("forcing must have vanishing average in x")
    profile.require_sign_definite()
    g = f0.grid
    if g.y_kind != "channel":
        raise ValueError("solve_g_shear expects a channel grid")
    k = g.k.copy()
    k[0] = 1.0
    out = f0.coeffs / (1j * np.outer(k, profile.U))
    out[0, :] = 0.0
    return SpectralField(g, out, f0.frame, f0.frame_time)


def lagrangian_forcing(forcing_kind: str, f0: SpectralField, tau: float,
                       profile: ShearProfile,
                       dt: float | None = None) -> SpectralField:
    """
    The forcing seen by the sheared-frame equation at time tau.

    resonant:   S(tau, 0) f0                  (cancels the mixing)
    stationary: [S(0, -tau) f0](x + tau U, y) (Eulerian field is frozen
                 modulo the operator's own drift)
    """
    if forcing_kind == "resonant":
        return apply_S(tau, 0.0, f0, profile, dt)
    if forcing_kind == "stationary":
        moved = apply_S(0.0, -tau, f0, profile, dt)
        return compose_profile_shift(moved, tau, profile)
    raise ValueError(f"unknown shear forcing kind {forcing_kind!r}")


def backward_images(f0: SpectralField, taus: np.ndarray,
                    profile: ShearProfile, idx: np.ndarray,
                    dt: float | None = None) -> np.ndarray:
    """
    S(0, -tau_j) f0 for an increasing grid of taus, shape (n, nk, ny).

    All images are produced by one sweep over [-tau_max, 0]: a batch slot
    for tau_j is switched on (loaded with f0) when the sweep passes -tau_j,
    so the marching work is one interval instead of one per node.
    """
    taus = np.asarray(taus, float)
    if taus.size == 0:
        return np.zeros((0, idx.size, f0.grid.ny), dtype=np.complex128)
    if np.any(taus < 0) or np.any(np.diff(taus) <= 0):
        raise ValueError("taus must be nonnegative and increasing")
    marcher = ShearMarcher(f0.grid, profile, f0.grid.k[idx])
    data = f0.coeffs[idx, :]
    n = taus.size
    states = np.zeros((n, idx.size, f0.grid.ny), dtype=np.complex128)
    if profile.is_couette:
        states[:] = data[None, :, :]
        return states
    if dt is None:
        dt = default_dt(profile)
    # sweep from -tau_max to 0, activating slots on the way up
    order = np.argsort(-taus)           # largest tau activates first
    t_cur = -taus[order[0]]
    for pos, j in enumerate(order):
        states[j] = data                # slot j switches on at -taus[j]
        t_next = -taus[order[pos + 1]] if pos + 1 < n else 0.0
        if t_next > t_cur:
            active = order[:pos + 1]
            states[active] = marcher.march(states[active], t_cur, t_next, dt)
            t_cur = t_next
    return states


def solve_forced_shear(w0: SpectralField, forcing_kind: str,
                       f0: SpectralField, t: float, profile: ShearProfile,
                       n_steps: int = 64,
                       dt: float | None = None) -> SpectralField:
    """
    Duhamel solution W(t) = S(t,0) w0 + int_0^t S(t,tau) f_L(tau) dtau by
    composite Simpson; every node value is propagated to t through the
    nested factorization S(t, tau_j) = S(t, tau_{j+1}) S(tau_{j+1}, tau_j),
    so the total marching work is one sweep of [0, t].
    """
    if not f0.is_mean_free_in_x:
        raise ValueError("forcing must have vanishing average in x")
    if t == 0.0:
        return w0.copy()
    if n_steps % 2 != 0:
        n_steps += 1
    grid = w0.grid
    h = t / n_steps
    weights = simpson_weights(n_steps, h)

    idx = _active_k_indices([w0, f0])
    if idx.size == 0:
        return w0.copy()
    marcher = ShearMarcher(grid, profile, grid.k[idx])

    # March the initial data, the accumulated integral, and (for resonant
    # forcing) the evolving forcing profile in one batch.  Stationary
    # forcing nodes come from one backward-images sweep.
    resonant = forcing_kind == "resonant"
    state = np.zeros((3 if resonant else 2, idx.size, grid.ny),
                     dtype=np.complex128)
    state[0] = w0.coeffs[idx, :]
    if resonant:
        state[2] = f0.coeffs[idx, :]
        images = None
    else:
        taus = h * np.arange(n_steps + 1)
        images = backward_images(f0, taus, profile, idx, dt)

    def node_forcing(j: int) -> np.ndarray:
        if resonant:
            return state[2]
        tau = j * h
        phase = np.exp(1j * tau * np.outer(grid.k[idx], profile.U))
        return images[j] * phase

    state[1] += weights[0] * node_forcing(0)
    for j in range(1, n_steps + 1):
        state = marcher.march(state, (j - 1) * h, j * h, dt)
        state[1] += weights[j] * node_forcing(j)

    out = w0.coeffs.copy()
    out[idx, :] = state[0] + state[1]
    return SpectralField(grid, out, w0.frame, w0.frame_time)


def stationary_decomposition(w0: SpectralField, f0: SpectralField,
                             t: float, profile: ShearProfile,
                             dt: float | None = None) -> dict:
    """
    Closed-form pieces of the stationary-forcing solution,

        W(t) = S(t,0)(w0 - g) + S(t,0)[g(x + t U(y), y)],

    returned together with g; the Eulerian stationary-like part is
    (S(0,-t) g)(x, y).
    """
    g_field = solve_g_shear(f0, profile)
    transport_like = apply_S(t, 0.0, w0 - g_field, profile, dt)
    sheared_g = compose_profile_shift(g_field, t, profile)
    stationary_like = apply_S(t, 0.0, sheared_g, profile, dt)
    return {"g": g_field, "transport_like": transport_like,
            "stationary_like": stationary_like,
            "W": transport_like + stationary_like}


# ---------------------------------------------------------------------------
# Property probes
# ---------------------------------------------------------------------------

@dataclass
class OperatorProbe:
    s_list: tuple
    times: np.ndarray
    ratio_series: dict[str, np.ndarray]   # per s: max_j ratio at each time
    trend: dict[str, dict]                # per s: trend_report output
    decay_fit: RateFit | None             # exponent of ||d/dt S(t,0)u||
    commutation_defect: float

    def max_ratio(self, s: float) -> float:
        return float(np.max(self.ratio_series[format_index(s)]))


def _random_basket(grid: Grid, n_members: int, k_band: int, seed: int):
    """Random H1-regular unit-norm probe fields supported on |k| <= k_band."""
    rng = np.random.default_rng(seed)
    fields = []
    y = grid.y
    window = np.sin(np.pi * (y - y[0] + grid.dy)
                    / (y[-1] - y[0] + 2 * grid.dy)) ** 2
    for _ in range(n_members):
        coeffs = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
        for ki in range(1, k_band + 1):
            profile_y = rng.normal(size=8)
            col = np.zeros(grid.ny, dtype=np.complex128)
            # smooth random y-profile from a few low sine modes
            for m, amp in enumerate(profile_y, start=1):
                col += amp * np.sin(np.pi * m * (y - y[0] + grid.dy)
                                    / (y[-1] - y[0] + 2 * grid.dy))
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            coeffs[ki, :] = phase * col * window
            coeffs[-ki, :] = np.conj(coeffs[ki, :])
        f = SpectralField(grid, coeffs)
        n = l2_norm(f)
        fields.append(f * (1.0 / n))
    return fields


def probe_properties(grid: Grid, profile: ShearProfile, s_list=( -1.0, 0.0, 1.0),
                     times=None, n_members: int = 20, k_band: int = 8,
                     seed: int = 11, dt: float | None = None,
                     commutation_tau: float = 1.0) -> OperatorProbe:
    """
    Estimate the operator's H^s -> H^s ratios on a random probe basket
    (lower bounds on the true norms), fit the decay exponent of
    ||d/dt S(t,0) u||_{L2}, and measure the shift-commutation defect.
    """
    for s in s_list:
        if not -1.5 < s < 1.5:
            raise ValueError("probe indices must lie inside (-3/2, 3/2)")
    if times is None:
        times = np.linspace(0.0, 100.0, 26)
    times = np.asarray(times, float)
    basket = _random_basket(grid, n_members, k_band, seed)
    idx = _active_k_indices(basket)
    marcher = ShearMarcher(grid, profile, grid.k[idx])
    states = np.stack([b.coeffs[idx, :] for b in basket])
    base_norms = {format_index(s): np.array([sobolev_norm(b, s) for b in basket])
                  for s in s_list}

    ratio_series = {format_index(s): [] for s in s_list}
    dt_norms = []
    t_prev = 0.0
    current = states
    for t in times:
        current = marcher.march(current, t_prev, t, dt)
        t_prev = t
        fields = [SpectralField(grid, _embed(grid, current[i], idx))
                  for i in range(len(basket))]
        for s in s_list:
            key = format_index(s)
            norms = np.array([sobolev_norm(f, s) for f in fields])
            ratio_series[key].append(float(np.max(norms / base_norms[key])))
        # d/dt S(t,0)u evaluated exactly from the equation's right side
        rhs = marcher.rhs(t, current)
        dt_norms.append(max(
            l2_norm(SpectralField(grid, _embed(grid, rhs[i], idx)))
            for i in range(len(basket))))
    ratio_series = {k: np.array(v) for k, v in ratio_series.items()}
    trend = {k: bounded_trend_report(times, v)
             for k, v in ratio_series.items()}

    decay_fit = None
    positive = np.asarray(dt_norms) > 1e-14
    if np.count_nonzero(positive & (times > 0)) >= 5:
        mask = positive & (times > 0)
        decay_fit = fit_power_law(1.0 + times[mask], np.asarray(dt_norms)[mask],
                                  window=(1.0 + times[mask][0],
                                          1.0 + times[mask][-1]))

    defect = commutation_defect(grid, profile, basket[0], commutation_tau,
                                dt=dt)
    return OperatorProbe(tuple(s_list), times, ratio_series, trend,
                         decay_fit, defect)


def _embed(grid: Grid, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    out = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
    out[idx, :] = rows
    return out


def commutation_defect(grid: Grid, profile: ShearProfile, u: SpectralField,
                       tau: float, t2: float = 2.0, t1: float = 0.0,
                       dt: float | None = None) -> float:
    """
    L2 defect of the structural shift identity

        S(t2,t1)[u(x + tau U, y)] = (S(t2-tau, t1-tau) u)(x + tau U, y).

    Exact (zero) for Couette, where S is the identity.
    """
    lhs = apply_S(t2, t1, compose_profile_shift(u, tau, profile), profile, dt)
    rhs = compose_profile_shift(apply_S(t2 - tau, t1 - tau, u, profile, dt),
                                tau, profile)
    return l2_norm(lhs - rhs)


# ---------------------------------------------------------------------------
# Consistency integral along the forced solution
# ---------------------------------------------------------------------------

def consistency_integral_shear(w0: SpectralField, f0: SpectralField,
                               profile: ShearProfile, T: float,
                               n_steps: int = 64,
                               s_list=(-1.0, -0.6, 0.0),
                               sample_every: int = 4,
                               dt: float | None = None) -> dict:
    """
    sigma(T) = int_0^T S(T,tau) [ (grad_perp phi . grad w)(tau) ](x+tau U) dtau
    along the stationary-forcing solution, with H^s norm series of the
    accumulated integral.

    Each node's nonlinearity is formed in Eulerian variables from the
    closed-form decomposition, pulled to the sheared frame, and propagated
    with the nested Duhamel factorization.
    """
    from .core import invert_laplacian, ddx, multiply, project_nonzero_x

    profile.require_sign_definite()
    if n_steps % 2 != 0:
        n_steps += 1
    grid = w0.grid
    g_field = solve_g_shear(f0, profile)
    h = T / n_steps
    taus = h * np.arange(n_steps + 1)
    weights = simpson_weights(n_steps, h)

    # Stationary-like part S(0,-tau) g at every node from one sweep; the
    # transport-like part marches forward inside the main loop.
    delta0 = w0 - g_field
    idx_lin = _active_k_indices([delta0, g_field])
    g_images = backward_images(g_field, taus, profile, idx_lin, dt)
    lin_marcher = ShearMarcher(grid, profile, grid.k[idx_lin])
    moving = delta0.coeffs[None, idx_lin, :].copy()

    def node_term(j: int, moved_rows: np.ndarray) -> SpectralField:
        tau = taus[j]
        transport_part = compose_profile_shift(
            SpectralField(grid, _embed(grid, moved_rows, idx_lin)),
            -tau, profile)
        stat_part = SpectralField(grid, _embed(grid, g_images[j], idx_lin))
        om = transport_part + stat_part
        phi = invert_laplacian(om)
        vx, vy = (ddy(phi, dirichlet=True) * (-1.0), ddx(phi))
        nl = multiply(vx, ddx(om)) + multiply(vy, ddy(om))
        nl = project_nonzero_x(nl)
        return compose_profile_shift(nl, tau, profile)

    samples, sample_ts = [], []
    q0 = node_term(0, moving[0])
    # the products generate harmonics, so the active set widens
    idx = _active_k_indices([w0, f0, q0])
    marcher = ShearMarcher(grid, profile, grid.k[idx])
    acc = np.zeros((1, idx.size, grid.ny), dtype=np.complex128)
    acc[0] += weights[0] * q0.coeffs[idx, :]
    for j in range(1, n_steps + 1):
        acc = marcher.march(acc, taus[j - 1], taus[j], dt)
        moving = lin_marcher.march(moving, taus[j - 1], taus[j], dt)
        acc[0] += weights[j] * node_term(j, moving[0]).coeffs[idx, :]
        if j % sample_every == 0 or j == n_steps:
            samples.append(SpectralField(grid, _embed(grid, acc[0], idx),
                                          "lagrangian", taus[j]))
            sample_ts.append(taus[j])

    from .diagnostics import NormSeries
    values = {format_index(s): np.array([sobolev_norm(f, s) for f in samples])
              for s in s_list}
    series = NormSeries(np.asarray(sample_ts), values, frame="lagrangian")
    return {"sigma": samples[-1], "series": series, "samples": samples,
            "g": g_field}
