"""
Constant-coefficient multiplier calculus and frame changes.

Periodic grids use plain Fourier multipliers.  Channel grids use the
Dirichlet sine basis in y for elliptic inverses and exact per-node phase
factors for shear composition; x stays spectral everywhere.

Everything here is a pure function of immutable inputs; per-mode loops are
vectorized numpy operations, and reductions use numpy's fixed summation
order so repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft
from scipy.fft import dst

from .field import SpectralField, inverse_transform, transform
from .grid import Grid

_MEAN_TOL = 1e-12


# ---------------------------------------------------------------------------
# Dirichlet sine helpers (channel grids)
# ---------------------------------------------------------------------------

def sine_coefficients(values: np.ndarray, ny: int) -> np.ndarray:
    """DST-I along the last axis, normalized so that synthesis is plain
    summation against sin(pi*m*j/(ny+1))."""
    return dst(values, type=1, axis=-1) / (ny + 1)


def sine_synthesis(coeffs: np.ndarray, ny: int) -> np.ndarray:
    return dst(coeffs, type=1, axis=-1) / 2.0


def _dirichlet_helmholtz(grid: Grid, coeffs: np.ndarray,
                         ksq: np.ndarray) -> np.ndarray:
    """Solve (d^2/dy^2 - ksq) phi = w with phi = 0 at the channel walls."""
    mu = grid.dirichlet_eigenvalues
    w_m = sine_coefficients(coeffs, grid.ny)
    phi_m = -w_m / (ksq[:, None] + mu[None, :])
    return sine_synthesis(phi_m, grid.ny)


# ---------------------------------------------------------------------------
# Elliptic inverses
# ---------------------------------------------------------------------------

def invert_laplacian(w: SpectralField) -> SpectralField:
    """
    Stream function of a vorticity field: multiplier -1/(k^2 + eta^2) on
    periodic grids, Dirichlet sine solve on channels.

    Periodic grids reject fields with a nonzero mean; the (0, 0) mode of
    the result is set to zero.
    """
    g = w.grid
    if g.y_kind == "periodic":
        if abs(w.coeffs[0, 0]) > _MEAN_TOL * max(1.0, np.max(np.abs(w.coeffs))):
            raise ValueError("invert_laplacian requires a mean-free field on "
                             "periodic grids")
        k2 = g.kmesh() ** 2 + g.etamesh() ** 2
        denom = np.where(k2 == 0.0, 1.0, k2)
        phi = -w.coeffs / denom
        phi[0, 0] = 0.0
        return SpectralField(g, phi, w.frame, w.frame_time)
    ksq = g.k ** 2
    phi = _dirichlet_helmholtz(g, w.coeffs, ksq)
    return SpectralField(g, phi, w.frame, w.frame_time)


def invert_sheared_laplacian(w: SpectralField, t: float,
                             k0: str = "raise") -> SpectralField:
    """
    Inverse of the sheared Laplacian (d_x^2 + (d_y - t d_x)^2) acting on
    Lagrangian-frame data: multiplier -1/(k^2 + (eta - k t)^2).

    Channel grids use the exact conjugation
    phi = e^{i k t y} * helmholtz_inv(e^{-i k t y} w), which realizes the
    same operator in the sine basis.

    k0 = "raise" rejects fields with k = 0 content; "zero" zeroes it.
    """
    g = w.grid
    k0_mag = np.max(np.abs(w.coeffs[0, :]))
    if k0 == "raise" and k0_mag > _MEAN_TOL * max(1.0, np.max(np.abs(w.coeffs))):
        raise ValueError("sheared inverse is undefined at k = 0; pass "
                         "k0='zero' to project it out")
    if g.y_kind == "periodic":
        k = g.kmesh()
        denom = k ** 2 + (g.etamesh() - k * t) ** 2
        denom = np.where(denom == 0.0, 1.0, denom)
        phi = -w.coeffs / denom
        phi[0, :] = 0.0
        return SpectralField(g, phi, w.frame, w.frame_time)
    phase = _shear_phase(g.k, g.y, t)
    inner = _dirichlet_helmholtz(g, w.coeffs * phase, g.k ** 2)
    phi = inner * np.conj(phase)
    phi[0, :] = 0.0
    return SpectralField(g, phi, w.frame, w.frame_time)


def apply_laplacian(phi: SpectralField) -> SpectralField:
    """Forward Laplacian (periodic multiplier / channel sine weights)."""
    g = phi.grid
    if g.y_kind == "periodic":
        k2 = g.kmesh() ** 2 + g.etamesh() ** 2
        return SpectralField(g, -k2 * phi.coeffs, phi.frame, phi.frame_time)
    mu = g.dirichlet_eigenvalues
    w_m = sine_coefficients(phi.coeffs, g.ny)
    out = sine_synthesis(-(g.k[:, None] ** 2 + mu[None, :]) * w_m, g.ny)
    return SpectralField(g, out, phi.frame, phi.frame_time)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def ddx(u: SpectralField) -> SpectralField:
    g = u.grid
    return SpectralField(g, 1j * g.k[:, None] * u.coeffs, u.frame, u.frame_time)


def ddy(u: SpectralField, dirichlet: bool = False) -> SpectralField:
    """
    y-derivative.  Periodic grids are spectral; channel grids use
    second-order centered differences, with zero wall values assumed when
    ``dirichlet`` is set (stream functions) and one-sided stencils
    otherwise.
    """
    g = u.grid
    if g.y_kind == "periodic":
        return SpectralField(g, 1j * g.eta[None, :] * u.coeffs,
                             u.frame, u.frame_time)
    c = u.coeffs
    h = g.dy
    out = np.empty_like(c)
    out[:, 1:-1] = (c[:, 2:] - c[:, :-2]) / (2.0 * h)
    if dirichlet:
        out[:, 0] = c[:, 1] / (2.0 * h)
        out[:, -1] = -c[:, -2] / (2.0 * h)
    else:
        out[:, 0] = (-3.0 * c[:, 0] + 4.0 * c[:, 1] - c[:, 2]) / (2.0 * h)
        out[:, -1] = (3.0 * c[:, -1] - 4.0 * c[:, -2] + c[:, -3]) / (2.0 * h)
    return SpectralField(g, out, u.frame, u.frame_time)


def velocity(phi: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Perpendicular gradient (-d_y phi, d_x phi) of a stream function."""
    return ddy(phi, dirichlet=True) * (-1.0), ddx(phi)


def divergence(u: SpectralField, v: SpectralField) -> SpectralField:
    """Divergence of a velocity pair; the y-stencil assumes wall values of
    v vanish, which holds for fields built from Dirichlet stream functions."""
    return ddx(u) + ddy(v, dirichlet=True)


def x_antiderivative(u: SpectralField) -> SpectralField:
    """Multiplier 1/(ik) on k != 0 modes; rejects k = 0 content."""
    g = u.grid
    if not u.is_mean_free_in_x:
        raise ValueError("x-antiderivative requires zero x-average")
    k = g.k.copy()
    k[0] = 1.0
    out = u.coeffs / (1j * k[:, None])
    out[0, :] = 0.0
    return SpectralField(g, out, u.frame, u.frame_time)


# ---------------------------------------------------------------------------
# Projections and dealiasing
# ---------------------------------------------------------------------------

def project_nonzero_x(u: SpectralField) -> SpectralField:
    out = u.coeffs.copy()
    out[0, :] = 0.0
    return SpectralField(u.grid, out, u.frame, u.frame_time)


def project_cone(u: SpectralField, c: float, t: float,
                 complement: bool = False) -> SpectralField:
    """
    Frequency-cone projector: keep modes with |eta| >= c*t (or the
    complement).  Idempotent by construction; periodic grids only.
    """
    g = u.grid
    if g.y_kind != "periodic":
        raise ValueError("cone projection requires a periodic grid")
    keep = np.abs(g.eta)[None, :] >= c * t
    if complement:
        keep = ~keep
    return SpectralField(g, np.where(keep, u.coeffs, 0.0), u.frame,
                         u.frame_time)


def dealias(u: SpectralField) -> SpectralField:
    return SpectralField(u.grid, u.coeffs * u.grid.dealias_mask(),
                         u.frame, u.frame_time)


def multiply(a: SpectralField, b: SpectralField,
             drop_x_mean: bool = False) -> SpectralField:
    """Dealiased pointwise product formed in physical space."""
    a._check_compatible(b)
    pa = inverse_transform(a)
    pb = inverse_transform(b)
    samples = pa * pb
    prod = transform(a.grid, samples.real if _both_real(a, b) else samples)
    prod.frame, prod.frame_time = a.frame, a.frame_time
    out = dealias(prod)
    if drop_x_mean:
        out = project_nonzero_x(out)
    return out


def _both_real(a: SpectralField, b: SpectralField) -> bool:
    from .field import reality_defect
    scale = max(np.max(np.abs(a.coeffs)), np.max(np.abs(b.coeffs)), 1.0)
    return (reality_defect(a) + reality_defect(b)) < 1e-10 * scale


# ---------------------------------------------------------------------------
# Shear composition and frame changes
# ---------------------------------------------------------------------------

def _shear_phase(k: np.ndarray, U: np.ndarray, t: float) -> np.ndarray:
    """
    The (k, y) table exp(-i t k U(y)) that composes with the shear map.

    Callers bind it to a name before multiplying: numpy reuses a large
    temporary right operand in place, which swaps the operands of the
    complex product and with them its rounding.
    """
    return np.exp(-1j * t * np.multiply.outer(k, U))


def compose_shear(u: SpectralField, t: float,
                  U: np.ndarray | None = None) -> SpectralField:
    """
    Composition with the shear map: returns the field u(x - t*U(y), y),
    with U sampled on the grid's y-nodes (default U(y) = y, Couette).

    Channel grids multiply each stored column by exp(-i k t U(y_j)), which
    is exact for every t.  Periodic grids apply the same factor in hybrid
    (k, y) space; for Couette and commensurate t (t * ly / lx integer) this
    coincides with the exact lattice shift of eta-indices.
    """
    g = u.grid
    phase = _shear_phase(g.k, g.y if U is None else U, t)
    if g.y_kind == "channel":
        return SpectralField(g, u.coeffs * phase, u.frame, u.frame_time)
    hybrid = _fft.ifft(u.coeffs, axis=1) * g.ny
    hybrid *= phase
    return SpectralField(g, _fft.fft(hybrid, axis=1) / g.ny,
                         u.frame, u.frame_time)


def is_commensurate(grid: Grid, t: float, tol: float = 1e-9) -> bool:
    if grid.y_kind == "channel":
        return True
    r = t * grid.ly / grid.lx
    return abs(r - round(r)) <= tol


def shift_frame(u: SpectralField, t: float, direction: str,
                resample: bool = False) -> SpectralField:
    """
    Move a periodic-grid field between the Eulerian and sheared frames.

    to_lagrangian: W(x, y) = u(x + t y, y); to_eulerian is the inverse.
    Incommensurate t requires ``resample=True`` (trigonometric resampling,
    exact on the nodes up to the periodic wrap in y).
    """
    if direction not in ("to_lagrangian", "to_eulerian"):
        raise ValueError("direction must be 'to_lagrangian' or 'to_eulerian'")
    if not is_commensurate(u.grid, t) and not resample:
        raise ValueError("shift time is incommensurate with the eta lattice; "
                         "pass resample=True to use trigonometric resampling")
    if direction == "to_lagrangian":
        if u.frame != "eulerian":
            raise ValueError("field is already in the Lagrangian frame")
        out = compose_shear(u, -t)
        out.frame, out.frame_time = "lagrangian", t
    else:
        if u.frame != "lagrangian":
            raise ValueError("field is already in the Eulerian frame")
        out = compose_shear(u, t)
        out.frame, out.frame_time = "eulerian", 0.0
    return out


def boundary_mass_fraction(u: SpectralField, fraction: float = 0.1) -> float:
    """
    Fraction of the field's energy living in the outer ``fraction`` of the
    y-range; used to monitor the truncation of unbounded domains.
    """
    g = u.grid
    phys = np.abs(inverse_transform(u)) ** 2
    n_edge = max(1, int(round(0.5 * fraction * g.ny)))
    total = float(np.sum(phys))
    if total == 0.0:
        return 0.0
    edge = float(np.sum(phys[:, :n_edge]) + np.sum(phys[:, -n_edge:]))
    return edge / total
