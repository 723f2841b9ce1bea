"""
Forced Navier-Stokes near linear shear on the periodic box: pseudo-spectral
evolution in the sheared frame with integrating-factor RK4 and wavenumber
re-centering, a stationary fixed point built by contraction iteration, and
the perturbation-relaxation experiment.

State storage.  Coefficients live on a fixed lattice (k, eta0) whose
physical y-frequency at time t is eta0 - k (t - t0), with t0 the current
frame origin; re-centering ("remap") moves the origin forward once the
effective frequencies approach the band edge, dropping (and accounting
for) any content that slides out.  The x-average is projected out of the
forcing and the nonlinearity every evaluation, so k = 0 modes stay
identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as _fft

from .core import (Grid, SpectralField, compose_shear, ddx, ddy, dealias,
                   invert_laplacian, h1_norm, l2_norm, multiply,
                   project_nonzero_x, velocity)
from .viscous import heat_exponent


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------

@dataclass
class NSState:
    grid: Grid
    coeffs: np.ndarray            # sheared-frame storage (k, eta0)
    t: float
    nu: float
    forcing: SpectralField | None = None   # stationary Eulerian forcing
    frame_origin: float = 0.0
    remap_count: int = 0
    dropped_energy: float = 0.0

    def __post_init__(self) -> None:
        if self.nu <= 0.0:
            raise ValueError("viscosity must be positive")
        if np.max(np.abs(self.coeffs[0, :])) > 1e-13 * max(
                1.0, float(np.max(np.abs(self.coeffs)))):
            raise ValueError("state must have vanishing x-average")
        if self.forcing is not None and not self.forcing.is_mean_free_in_x:
            raise ValueError("forcing must have vanishing average in x")

    @property
    def t_rel(self) -> float:
        return self.t - self.frame_origin

    def eta_eff(self, t: float | None = None) -> np.ndarray:
        t_rel = (self.t if t is None else t) - self.frame_origin
        g = self.grid
        return g.etamesh() - g.kmesh() * t_rel

    def as_field(self) -> SpectralField:
        return SpectralField(self.grid, self.coeffs.copy(), "lagrangian",
                             self.t_rel)

    def eulerian_field(self) -> SpectralField:
        """Physical-frame field (exact phase recomposition)."""
        lag = SpectralField(self.grid, self.coeffs.copy())
        return compose_shear(lag, self.t_rel)


def make_state(w0: SpectralField, nu: float,
               forcing: SpectralField | None = None) -> NSState:
    w = project_nonzero_x(dealias(w0))
    return NSState(w0.grid, w.coeffs.copy(), 0.0, nu, forcing)


# ---------------------------------------------------------------------------
# Right-hand side
# ---------------------------------------------------------------------------

def advection(state: NSState, coeffs: np.ndarray, t: float,
              return_velocity_sup: bool = False):
    """
    Dealiased, x-mean-free spectral advection term J(Phi, W) in the
    sheared frame; self-interaction of any single plane wave vanishes
    identically.
    """
    g = state.grid
    k = g.kmesh()
    eta = state.eta_eff(t)
    denom = k ** 2 + eta ** 2
    denom = np.where(denom == 0.0, 1.0, denom)
    phi = -coeffs / denom
    phi[0, :] = 0.0

    def phys(c):
        return _fft.ifft2(c * (g.nx * g.ny))

    ux = phys(-1j * eta * phi)       # -(d_y - t d_x) Phi
    uy = phys(1j * k * phi)          # d_x Phi
    wx = phys(1j * k * coeffs)
    wy = phys(1j * eta * coeffs)
    nl = _fft.fft2(ux * wx + uy * wy) / (g.nx * g.ny)
    mask = g.dealias_mask()
    nl = np.where(mask, nl, 0.0)
    nl[0, :] = 0.0
    if return_velocity_sup:
        vsup = float(max(np.max(np.abs(ux)), np.max(np.abs(uy))))
        return nl, vsup
    return nl


# ---------------------------------------------------------------------------
# Integrating-factor RK4 with re-centering
# ---------------------------------------------------------------------------

def _propagator(state: NSState, t_from: float, t_to: float) -> np.ndarray:
    g = state.grid
    expo = heat_exponent(g.kmesh(), g.etamesh(), state.nu,
                         t_from - state.frame_origin,
                         t_to - state.frame_origin)
    return np.exp(-expo)


def _nonstiff(state: NSState, coeffs: np.ndarray, t: float,
              with_sup: bool = False):
    """Nonlinearity plus forcing (the explicitly integrated part)."""
    if with_sup:
        nl, vsup = advection(state, coeffs, t, return_velocity_sup=True)
    else:
        nl = advection(state, coeffs, t)
        vsup = 0.0
    out = -nl
    if state.forcing is not None:
        # stationary Eulerian forcing pulled to the sheared lattice
        f_lat = compose_shear(state.forcing, -(t - state.frame_origin)).coeffs
        f_lat[0, :] = 0.0
        out += f_lat
    return (out, vsup) if with_sup else out


def step_ifrk4(state: NSState, dt: float,
               cfl_limit: float = 0.8) -> NSState:
    """One integrating-factor RK4 step: the dissipation multiplier is
    applied exactly between stage times, the rest explicitly."""
    t, W = state.t, state.coeffs
    e_half = _propagator(state, t, t + 0.5 * dt)
    e_full = _propagator(state, t, t + dt)
    e_back_half = _propagator(state, t + 0.5 * dt, t + dt)

    n1, vsup = _nonstiff(state, W, t, with_sup=True)
    kmax = float(np.max(np.abs(state.grid.k)))
    emax = float(np.max(np.abs(state.eta_eff(t + dt))))
    if vsup * dt * max(kmax, emax) > cfl_limit:
        raise RuntimeError(
            f"advective CFL violated: |v| dt k_max = "
            f"{vsup * dt * max(kmax, emax):.3f} > {cfl_limit}")

    a = e_half * (W + 0.5 * dt * n1)
    n2 = _nonstiff(state, a, t + 0.5 * dt)
    b = e_half * W + 0.5 * dt * n2
    n3 = _nonstiff(state, b, t + 0.5 * dt)
    c = e_full * W + dt * e_back_half * n3
    n4 = _nonstiff(state, c, t + dt)
    new = (e_full * W
           + (dt / 6.0) * (e_full * n1 + 2.0 * e_back_half * (n2 + n3))
           + (dt / 6.0) * n4)
    return replace(state, coeffs=new, t=t + dt)


def remap(state: NSState) -> NSState:
    """
    Re-center the sheared lattice at the current time.  The per-k index
    shift is exact (frame times are snapped to the lattice); content
    shifted past the band edge is dropped and accounted.
    """
    g = state.grid
    dt_frame = state.t_rel
    shift_units = dt_frame * (2.0 * np.pi / g.lx) / g.deta
    if abs(shift_units - round(shift_units)) > 1e-9:
        raise ValueError("remap time is incommensurate with the eta lattice")
    base = int(round(shift_units))
    if base == 0:
        return state
    ny = g.ny
    kk = np.rint(g.k / (2.0 * np.pi / g.lx)).astype(int)
    centered = ((np.arange(ny) + ny // 2) % ny) - ny // 2
    new = np.zeros_like(state.coeffs)
    dropped = 0.0
    phase0 = np.exp(-1j * g.k * dt_frame * g.y0)
    for row, kint in enumerate(kk):
        s = kint * base                       # source offset in lattice units
        src_c = centered + s
        valid = (src_c >= -ny // 2) & (src_c <= ny // 2 - 1)
        src_idx = (src_c % ny)
        vals = state.coeffs[row, src_idx]
        vals = np.where(valid, vals, 0.0)
        dropped += float(np.sum(np.abs(state.coeffs[row]) ** 2)
                         - np.sum(np.abs(vals) ** 2))
        # constant phase aligning the index roll with the pointwise
        # composition convention (y-origin offset)
        new[row] = vals * phase0[row]
    return replace(state, coeffs=new, frame_origin=state.t,
                   remap_count=state.remap_count + 1,
                   dropped_energy=state.dropped_energy + max(dropped, 0.0))


def needs_remap(state: NSState, fraction: float = 2.0 / 3.0) -> bool:
    g = state.grid
    k_active = np.abs(g.k)[np.max(np.abs(state.coeffs), axis=1) > 0]
    if k_active.size == 0:
        return False
    kmax = float(np.max(k_active))
    eta_max = float(np.max(np.abs(g.eta)))
    return kmax * state.t_rel > fraction * eta_max


def lattice_unit(grid: Grid) -> float:
    """Smallest time whose shear shift is an exact lattice move for every
    integer x-mode: deta / k_min."""
    return grid.deta / (2.0 * np.pi / grid.lx)


def evolve(state: NSState, t_end: float, dt: float,
           sample_times=None, remap_fraction: float = 2.0 / 3.0,
           drop_tol: float = 1e-8) -> tuple[NSState, list[NSState]]:
    """
    March to t_end with checkpoints at the requested times.

    The step is snapped to an integer divisor of the lattice unit so that
    every step time is remap-commensurate; re-centering happens whenever
    the effective frequency band fills past ``remap_fraction``.  Losing
    more than ``drop_tol`` of the relative energy in one remap raises a
    resolution-exhaustion error.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    unit = lattice_unit(state.grid)
    per_unit = max(1, int(np.ceil(unit / dt - 1e-12)))
    dt = unit / per_unit
    n_total = int(np.round((t_end - state.t) / dt))
    n_total = max(n_total, 1)
    t0 = state.t
    samples = np.asarray([] if sample_times is None else sample_times, float)
    sample_steps = set(int(np.round((ts - t0) / dt)) for ts in samples)

    out_states: list[NSState] = []
    for i in range(1, n_total + 1):
        state = step_ifrk4(state, dt)
        state = replace(state, t=t0 + i * dt)    # avoid accumulation drift
        if i % per_unit == 0 and needs_remap(state, remap_fraction):
            before_drop = state.dropped_energy
            energy = float(np.sum(np.abs(state.coeffs) ** 2))
            state = remap(state)
            if energy > 0 and (state.dropped_energy - before_drop) / energy \
                    > drop_tol:
                raise RuntimeError(
                    "resolution exhausted: remap dropped "
                    f"{(state.dropped_energy - before_drop) / energy:.2e} "
                    "of the energy; raise the y-resolution")
        if i in sample_steps:
            out_states.append(state)
    return state, out_states


# ---------------------------------------------------------------------------
# Stationary fixed point on the box
# ---------------------------------------------------------------------------

@dataclass
class FixedPointConfig:
    nu: float
    f: SpectralField
    tol: float = 1e-9
    max_iters: int = 40
    smallness_limit: float = 1.0 / 40.0

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if not self.f.is_mean_free_in_x:
            raise ValueError("forcing must have vanishing average in x")
        size = h1_norm(self.f)
        if size > self.smallness_limit * self.nu ** 2 * (1 + 1e-9):
            raise ValueError(
                f"forcing too large for the contraction regime: "
                f"||f||_H1 = {size:.3e} > nu^2/40 = "
                f"{self.smallness_limit * self.nu ** 2:.3e}")


class _BoxStationaryOperator:
    """
    Per-k dense solves of (y dx - nu Lap) g = r on the periodic box, the
    stationarity operator of the evolution equation (whose dissipation
    enters with -nu Lap on the left).  The x-transport coefficient is the
    (sawtooth) box coordinate, exact for fields supported away from the
    seam.  Factorizations are cached per k.
    """

    def __init__(self, grid: Grid, nu: float):
        from scipy.linalg import lu_factor
        self.grid = grid
        self.nu = nu
        self._lu = {}
        ny = grid.ny
        F = _fft.fft(np.eye(ny), axis=0)
        Finv = np.conj(F.T) / ny
        D2 = (Finv * (-grid.eta ** 2)) @ F
        self._D2 = D2
        self._lu_factor = lu_factor

    def solve(self, rhs_coeffs: np.ndarray) -> np.ndarray:
        from scipy.linalg import lu_solve
        g = self.grid
        out = np.zeros_like(rhs_coeffs)
        active = np.nonzero(np.max(np.abs(rhs_coeffs), axis=1) > 0)[0]
        for row in active:
            k = g.k[row]
            if k == 0.0:
                continue
            if row not in self._lu:
                A = -self.nu * (self._D2 - (k * k) * np.eye(g.ny)) \
                    + 1j * k * np.diag(g.y).astype(complex)
                self._lu[row] = self._lu_factor(A)
            # rhs in hybrid (k, y) space, solve, return to eta space
            r_hyb = _fft.ifft(rhs_coeffs[row]) * g.ny
            sol = lu_solve(self._lu[row], r_hyb)
            out[row] = _fft.fft(sol) / g.ny
        return out

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        g = self.grid
        out = np.zeros_like(coeffs)
        for row in range(g.nx):
            k = g.k[row]
            if k == 0.0 or not np.any(coeffs[row]):
                continue
            hyb = _fft.ifft(coeffs[row]) * g.ny
            Ag = -self.nu * (self._D2 @ hyb - k * k * hyb) + 1j * k * g.y * hyb
            out[row] = _fft.fft(Ag) / g.ny
        return out


def _nonlinear_term(g_field: SpectralField) -> SpectralField:
    """(v[g] . grad g)_!= with dealiased physical products."""
    phi = invert_laplacian(g_field)
    vx, vy = velocity(phi)
    nl = multiply(vx, ddx(g_field)) + multiply(vy, ddy(g_field))
    return project_nonzero_x(nl)


def fixed_point_stationary(cfg: FixedPointConfig, grid: Grid | None = None,
                           relaxation_on_stall: float = 0.5) -> dict:
    """
    Contraction iteration g <- L^{-1}(f - (v[g] . grad g)_!=) from g = 0.

    Returns the fixed point with the iterate history, empirical
    contraction factors, and the verified residual and smallness bounds.
    Three successive non-contracting steps abort the iteration; a stalled
    but contracting iteration engages damped updates (recorded).
    """
    grid = grid or cfg.f.grid
    op = _BoxStationaryOperator(grid, cfg.nu)
    g_cur = SpectralField(grid, np.zeros((grid.nx, grid.ny), np.complex128))
    increments: list[float] = []
    relaxed = False
    n_bad = 0
    for it in range(cfg.max_iters):
        target = cfg.f - _nonlinear_term(g_cur)
        g_next = SpectralField(grid, op.solve(dealias(target).coeffs))
        step = h1_norm(g_next - g_cur)
        if increments and increments[-1] > 0:
            ratio = step / increments[-1]
            if ratio >= 1.0:
                n_bad += 1
                if n_bad >= 3:
                    raise RuntimeError(
                        "fixed-point iteration is not contracting "
                        f"(last ratios >= 1 for 3 iterations, step={step:.3e})")
                if not relaxed:
                    relaxed = True
                    g_next = g_cur + relaxation_on_stall * (g_next - g_cur)
                    step = h1_norm(g_next - g_cur)
            else:
                n_bad = 0
        increments.append(step)
        g_cur = g_next
        if step < cfg.tol:
            break
    else:
        raise RuntimeError(f"fixed point did not converge in "
                           f"{cfg.max_iters} iterations (last step "
                           f"{increments[-1]:.3e})")

    resid_field = SpectralField(
        grid, op.apply(g_cur.coeffs)) + _nonlinear_term(g_cur) - cfg.f
    residual = l2_norm(resid_field)
    ratios = [increments[i + 1] / increments[i]
              for i in range(len(increments) - 1) if increments[i] > 0]
    report = {
        "g": g_cur,
        "iterations": len(increments),
        "increments": increments,
        "contraction_ratios": ratios,
        "residual": residual,
        "g_h1": h1_norm(g_cur),
        "smallness_bound": 2.0 * cfg.smallness_limit * cfg.nu,
        "relaxation_used": relaxed,
    }
    if residual > 10.0 * cfg.tol:
        report["flag"] = "residual above 10x tolerance"
    return report


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def perturbation_decay(w0: SpectralField, g_field: SpectralField,
                       cfg: FixedPointConfig, t_end: float, dt: float,
                       n_samples: int = 21) -> dict:
    """
    Evolve the full forced problem from w0 and record ||w(t) - g||_L2;
    fits an exponential rate over the sampled window.
    """
    from .diagnostics import fit_exp_poly

    state = make_state(w0, cfg.nu, forcing=cfg.f)
    times = np.linspace(0.0, t_end, n_samples)[1:]
    final, snaps = evolve(state, t_end, dt, sample_times=times)
    norms = []
    for s in snaps:
        diff = s.coeffs - compose_shear(g_field, -s.t_rel).coeffs
        diff[0, :] = 0.0
        norms.append(float(np.sqrt(np.sum(np.abs(diff) ** 2))))
    norms = np.asarray(norms)
    ts = np.asarray([s.t for s in snaps])
    usable = norms > 1e-14
    fit = None
    if np.count_nonzero(usable) >= 6:
        fit = fit_exp_poly(ts[usable], norms[usable], degree=1.0,
                           window=(ts[usable][0], ts[usable][-1]))
    return {"times": ts, "norms": norms, "fit": fit,
            "rate": (fit.params["b"] if fit else float("nan")),
            "final_state": final}


def stationarity_drift(g_field: SpectralField, cfg: FixedPointConfig,
                       t_end: float, dt: float, n_samples: int = 9) -> dict:
    """Evolve from the fixed point itself and measure the drift ||w(t)-g||."""
    out = perturbation_decay(g_field, g_field, cfg, t_end, dt, n_samples)
    return {"times": out["times"], "drift": out["norms"],
            "max_drift": float(np.max(out["norms"]))}


def viscous_resonant_split(w0: SpectralField, f0: SpectralField, nu: float,
                           times) -> dict:
    """
    Linear resonant decomposition: homogeneous part (enhanced
    dissipation) versus the accumulated forced part, with its
    fixed-lattice amplitude envelope and physical-frame norm series.
    """
    from .viscous import (b_value_lattice, heat_factor, multiplier_solution,
                          resonant_lattice_forcing)

    g = w0.grid
    times = np.asarray(times, float)
    hom_norms, forced_norms, envelope_norms = [], [], []
    k, eta = g.kmesh(), g.etamesh()
    for t in times:
        hom = heat_factor(g, nu, 0.0, t) * w0.coeffs
        forced = multiplier_solution(
            SpectralField(g, np.zeros_like(w0.coeffs)),
            resonant_lattice_forcing(f0), nu, t).coeffs
        hom_norms.append(float(np.sqrt(np.sum(np.abs(hom) ** 2))))
        forced_norms.append(float(np.sqrt(np.sum(np.abs(forced) ** 2))))
        env = b_value_lattice(k, eta, nu, t) * np.abs(f0.coeffs)
        envelope_norms.append(float(np.sqrt(np.sum(env ** 2))))
    return {"times": times,
            "transport_part": np.asarray(hom_norms),
            "forced_part": np.asarray(forced_norms),
            "fixed_lattice_envelope": np.asarray(envelope_norms)}
