"""
Grids for the spectral laboratory.

Two grid kinds are supported:

* fully periodic rectangles ``[0, Lx) x [y0, y0 + Ly)`` with Fourier modes
  in both directions, used for the large-box experiments, and
* periodic-in-x channels ``[0, Lx) x (a, b)`` where fields are stored as
  x-Fourier coefficients on interior collocation nodes
  ``y_j = a + j (b - a) / (Ny + 1)``, used wherever the domain must stay
  away from a stationary streamline (``0 not in [a, b]``).

All wavenumbers are physical (``k = 2*pi*m/Lx``), so Sobolev weights can be
formed directly from the arrays stored here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

TWO_THIRDS = 2.0 / 3.0


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """
    Discretization of a periodic rectangle or a periodic-in-x channel.

    Parameters
    ----------
    nx, ny : int
        Mode count in x and mode/node count in y.  Both must be powers of
        two and ``nx >= 8``.
    lx : float
        x-period.
    y_kind : {"periodic", "channel"}
        Periodic box in y, or channel with Dirichlet-compatible interior
        nodes.
    y0, ly : float
        Periodic case: y ranges over ``[y0, y0 + ly)``.
    a, b : float
        Channel case: y ranges over the open interval ``(a, b)`` with
        ``ny`` interior nodes.
    dealias_fraction : float
        Fraction of the spectrum kept when dealiasing products (2/3 rule
        by default).
    """

    nx: int
    ny: int
    lx: float = 2.0 * np.pi
    y_kind: Literal["periodic", "channel"] = "periodic"
    y0: float = -4.0 * np.pi
    ly: float = 8.0 * np.pi
    a: float = 1.0
    b: float = 2.0
    dealias_fraction: float = TWO_THIRDS

    def __post_init__(self) -> None:
        if not (_is_power_of_two(self.nx) and self.nx >= 8):
            raise ValueError("nx must be a power of two with nx >= 8")
        if not _is_power_of_two(self.ny):
            raise ValueError("ny must be a power of two")
        if self.lx <= 0:
            raise ValueError("lx must be positive")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError("dealias_fraction must lie in (0, 1]")
        if self.y_kind == "periodic" and self.ly <= 0:
            raise ValueError("ly must be positive")
        if self.y_kind == "channel" and not self.a < self.b:
            raise ValueError("channel requires a < b")

    # -- factories ---------------------------------------------------------

    @staticmethod
    def periodic(nx: int, ny: int, lx: float = 2.0 * np.pi,
                 ly: float = 8.0 * np.pi, y0: float | None = None) -> "Grid":
        """Fully periodic box; defaults to the centered truncation of T x R."""
        if y0 is None:
            y0 = -0.5 * ly
        return Grid(nx=nx, ny=ny, lx=lx, y_kind="periodic", y0=y0, ly=ly)

    @staticmethod
    def channel(nx: int, ny: int, a: float, b: float,
                lx: float = 2.0 * np.pi) -> "Grid":
        """Periodic-in-x channel with interior y nodes (Dirichlet solves)."""
        return Grid(nx=nx, ny=ny, lx=lx, y_kind="channel", a=a, b=b)

    # -- coordinates and wavenumbers ---------------------------------------

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * (self.lx / self.nx)

    @property
    def y(self) -> np.ndarray:
        if self.y_kind == "periodic":
            return self.y0 + np.arange(self.ny) * (self.ly / self.ny)
        h = (self.b - self.a) / (self.ny + 1)
        return self.a + h * np.arange(1, self.ny + 1)

    @property
    def dy(self) -> float:
        if self.y_kind == "periodic":
            return self.ly / self.ny
        return (self.b - self.a) / (self.ny + 1)

    @property
    def k(self) -> np.ndarray:
        """Physical x-wavenumbers in FFT order, shape (nx,)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.lx / self.nx)

    @property
    def eta(self) -> np.ndarray:
        """Physical y-wavenumbers in FFT order (periodic grids only)."""
        if self.y_kind != "periodic":
            raise ValueError("eta is defined on periodic grids only")
        return 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.ly / self.ny)

    @property
    def deta(self) -> float:
        if self.y_kind != "periodic":
            raise ValueError("deta is defined on periodic grids only")
        return 2.0 * np.pi / self.ly

    @property
    def dirichlet_eigenvalues(self) -> np.ndarray:
        """Continuum Dirichlet-Laplacian eigenvalues (pi*m/(b-a))^2, m=1..ny."""
        if self.y_kind != "channel":
            raise ValueError("Dirichlet eigenvalues require a channel grid")
        m = np.arange(1, self.ny + 1)
        return (np.pi * m / (self.b - self.a)) ** 2

    # -- masks and meshes ---------------------------------------------------

    def kmesh(self) -> np.ndarray:
        """k broadcast to coefficient shape (nx, ny)."""
        return np.broadcast_to(self.k[:, None], (self.nx, self.ny))

    def etamesh(self) -> np.ndarray:
        return np.broadcast_to(self.eta[None, :], (self.nx, self.ny))

    def dealias_mask(self) -> np.ndarray:
        """Boolean keep-mask implementing the 2/3 rule on stored indices."""
        kcut = self.dealias_fraction * np.max(np.abs(self.k))
        mask_k = np.abs(self.k) <= kcut + 1e-12
        if self.y_kind == "periodic":
            ecut = self.dealias_fraction * np.max(np.abs(self.eta))
            mask_e = np.abs(self.eta) <= ecut + 1e-12
            return mask_k[:, None] & mask_e[None, :]
        return np.broadcast_to(mask_k[:, None], (self.nx, self.ny)).copy()

    @property
    def channel_excludes_zero(self) -> bool:
        if self.y_kind != "channel":
            return False
        return self.a > 0.0 or self.b < 0.0

    def describe(self) -> dict:
        """JSON-ready description (used by sidecars and reports)."""
        d = {"nx": self.nx, "ny": self.ny, "lx": self.lx,
             "y_kind": self.y_kind, "dealias_fraction": self.dealias_fraction}
        if self.y_kind == "periodic":
            d.update(y0=self.y0, ly=self.ly)
        else:
            d.update(a=self.a, b=self.b)
        return d

    @staticmethod
    def from_description(d: dict) -> "Grid":
        kind = d["y_kind"]
        if kind == "periodic":
            return Grid(nx=d["nx"], ny=d["ny"], lx=d["lx"], y_kind="periodic",
                        y0=d["y0"], ly=d["ly"],
                        dealias_fraction=d.get("dealias_fraction", TWO_THIRDS))
        return Grid(nx=d["nx"], ny=d["ny"], lx=d["lx"], y_kind="channel",
                    a=d["a"], b=d["b"],
                    dealias_fraction=d.get("dealias_fraction", TWO_THIRDS))
