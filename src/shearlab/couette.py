"""
Closed-form solutions of the forced transport problem at linear shear,
plus a Simpson quadrature oracle for the Duhamel integral.

The unforced problem transports vorticity along characteristics,
``w(t) = w0(x - t y, y)``.  Resonant forcing ``f(t) = f0(x - t y, y)``
cancels the mixing and adds ``t * f0(x - t y, y)``.  Time-independent
forcing integrates to an antiderivative difference
``w(t) = w0(x - t y, y) - g(x - t y, y) + g(x, y)`` with
``g = (1/y) dx^{-1} f0``, which requires the channel to stay away from the
stationary streamline y = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Grid, SpectralField, compose_shear, x_antiderivative
from .core.operators import _shear_phase

ForcingClosure = Callable[[float], SpectralField]


# ---------------------------------------------------------------------------
# Forcing specifications
# ---------------------------------------------------------------------------

@dataclass
class ForcingSpec:
    """
    Declarative forcing: one of "resonant", "stationary", "time_periodic".

    f0 must have zero x-average.  Time-periodic forcing carries a sampled
    closure f(t) together with its period.
    """
    kind: str
    f0: SpectralField | None = None
    closure: ForcingClosure | None = None
    period: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("resonant", "stationary", "time_periodic"):
            raise ValueError(f"unknown forcing kind {self.kind!r}")
        if self.f0 is not None and not self.f0.is_mean_free_in_x:
            raise ValueError("forcing must have vanishing average in x")
        if self.kind == "time_periodic":
            if self.closure is None or not self.period or self.period <= 0:
                raise ValueError("time-periodic forcing needs a closure and a "
                                 "positive period")

    def eulerian(self, t: float) -> SpectralField:
        """Forcing field f(t, x, y) in Eulerian variables."""
        if self.kind == "resonant":
            return compose_shear(self.f0, t)
        if self.kind == "stationary":
            return self.f0.copy()
        return self.closure(t)


def _require_offset_channel(grid: Grid) -> None:
    if grid.y_kind != "channel" or not grid.channel_excludes_zero:
        raise ValueError("stationary-forcing formulas need a channel with "
                         "0 outside [a, b] (|y| bounded away from the "
                         "stationary streamline)")


def antiderivative_g(f0: SpectralField) -> SpectralField:
    """g = (1/y) dx^{-1} f0, solving y * dx g = f0 on the channel."""
    _require_offset_channel(f0.grid)
    prim = x_antiderivative(f0)
    return SpectralField(f0.grid, prim.coeffs / f0.grid.y[None, :],
                         f0.frame, f0.frame_time)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def solve_unforced(w0: SpectralField, t: float) -> SpectralField:
    """Pure transport w0(x - t y, y)."""
    return compose_shear(w0, t)


def solve_resonant(w0: SpectralField, f0: SpectralField, t: float) -> SpectralField:
    """w(t) = w0(x - t y, y) + t * f0(x - t y, y)."""
    if not f0.is_mean_free_in_x:
        raise ValueError("forcing must have vanishing average in x")
    return compose_shear(w0 + t * f0, t)


def solve_stationary(w0: SpectralField, f0: SpectralField, t: float) -> SpectralField:
    """w(t) = w0(x - t y, y) - g(x - t y, y) + g(x, y)."""
    g = antiderivative_g(f0)
    return compose_shear(w0 - g, t) + g


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def simpson_weights(n_steps: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n_steps+1 equispaced nodes (n even)."""
    if n_steps < 2 or n_steps % 2 != 0:
        raise ValueError("composite Simpson needs an even n_steps >= 2")
    w = np.ones(n_steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def duhamel_quadrature(w0: SpectralField, forcing: ForcingClosure | ForcingSpec,
                       t: float, n_steps: int) -> SpectralField:
    """
    Composite-Simpson approximation of

        w(t) = w0(x - t y, y) + int_0^t f(tau, x - (t - tau) y, y) dtau.

    The forcing is evaluated in Eulerian variables at each node and
    transported exactly by the remaining shear time.  Fourth-order in
    1/n_steps against the closed forms above.
    """
    if t == 0.0:
        return w0.copy()
    get = forcing.eulerian if isinstance(forcing, ForcingSpec) else forcing
    h = t / n_steps
    weights = simpson_weights(n_steps, h)
    acc = np.zeros_like(w0.coeffs)
    for j, wgt in enumerate(weights):
        tau = j * h
        try:
            f_tau = get(tau)
        except Exception as exc:
            raise RuntimeError(f"forcing closure failed at node tau={tau}") \
                from exc
        acc += wgt * compose_shear(f_tau, t - tau).coeffs
    out = compose_shear(w0, t)
    return SpectralField(w0.grid, out.coeffs + acc, w0.frame, w0.frame_time)


# ---------------------------------------------------------------------------
# Time-periodic reduction
# ---------------------------------------------------------------------------

@dataclass
class PeriodicComponent:
    """One (frequency, x-mode) block of a time-periodic forcing."""
    nu: float                 # time frequency
    k: float                  # x wavenumber
    c: float                  # phase speed nu / k
    g_hat: np.ndarray         # per-node amplitudes of the reduced g, (ny,)
    k_index: int


def reduce_time_periodic(forcing: ForcingSpec, grid: Grid, n_samples: int = 16,
                         amp_tol: float = 1e-12,
                         resonance_tol: float = 1e-8) -> list[PeriodicComponent]:
    """
    Discrete Fourier transform in time of a periodic forcing, reducing the
    problem to independent stationary-type blocks at shifted streamlines.

    Each sampled coefficient f_hat(t; k, y) is decomposed over frequencies
    nu_m = 2 pi m / T; the block solution with zero initial data is

        w_block(t) = e^{i nu t} g(x, y) - g(x - t y, y),
        g_hat(k, y) = f_hat(k, y) / (i (nu + k y)),

    a Galilean-shifted version of the stationary formula.  Blocks whose
    streamline nu + k y vanishes on the grid are rejected as resonant.
    """
    if forcing.kind != "time_periodic":
        raise ValueError("reduce_time_periodic expects time-periodic forcing")
    if n_samples < 8:
        raise ValueError("need at least 8 samples per period")
    T = forcing.period
    samples = []
    for j in range(n_samples):
        f = forcing.closure(j * T / n_samples)
        if not f.is_mean_free_in_x:
            raise ValueError("forcing must have vanishing average in x")
        samples.append(f.coeffs)
    stack = np.stack(samples, axis=0)                   # (nt, nx, ny)
    fhat_t = np.fft.fft(stack, axis=0) / n_samples       # frequency nu_m
    nus = 2.0 * np.pi * np.fft.fftfreq(n_samples, d=T / n_samples)

    y = grid.y
    comps: list[PeriodicComponent] = []
    scale = np.max(np.abs(stack))
    for m, nu in enumerate(nus):
        for ki in range(grid.nx):
            k = grid.k[ki]
            if k == 0.0:
                continue
            amp = fhat_t[m, ki, :]
            if np.max(np.abs(amp)) <= amp_tol * max(scale, 1.0):
                continue
            denom = nu + k * y
            if np.min(np.abs(denom)) < resonance_tol:
                raise ValueError(
                    f"resonant streamline: nu + k*y vanishes on the grid for "
                    f"frequency {nu:g}, wavenumber {k:g}")
            comps.append(PeriodicComponent(nu=float(nu), k=float(k),
                                           c=float(nu / k),
                                           g_hat=amp / (1j * denom),
                                           k_index=ki))
    return comps


def assemble_time_periodic(w0: SpectralField, comps: list[PeriodicComponent],
                           t: float) -> SpectralField:
    """Transport of w0 plus the superposed block solutions at time t."""
    grid = w0.grid
    out = compose_shear(w0, t)
    coeffs = out.coeffs.copy()
    y = grid.y
    for comp in comps:
        stat = np.exp(1j * comp.nu * t) * comp.g_hat
        moved = comp.g_hat * _shear_phase(comp.k, y, t)
        coeffs[comp.k_index, :] += stat - moved
    return SpectralField(grid, coeffs, w0.frame, w0.frame_time)
