"""Uniform periodic 1D grid with spectral and central-difference operators."""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PeriodicGrid1D:
    """Uniform grid on [0, L) with periodic wrap-around.

    Derivatives are Fourier-spectral by default; ``scheme='central'``
    selects second-order central differences instead.
    """

    length: float
    n: int
    scheme: str = "spectral"
    x: np.ndarray = field(init=False, repr=False)
    wavenumbers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("grid length must be positive")
        if self.n < 4:
            raise ValueError("need at least 4 cells")
        if self.scheme not in ("spectral", "central"):
            raise ValueError(f"unknown derivative scheme {self.scheme!r}")
        object.__setattr__(self, "x", np.arange(self.n) * self.dx)
        object.__setattr__(
            self, "wavenumbers", 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        )

    @property
    def dx(self) -> float:
        return self.length / self.n

    def dx1(self, f: np.ndarray) -> np.ndarray:
        """First derivative."""
        if self.scheme == "spectral":
            fh = np.fft.rfft(f)
            return np.fft.irfft(1j * self.wavenumbers * fh, n=self.n)
        return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * self.dx)

    def dx2(self, f: np.ndarray) -> np.ndarray:
        """Second derivative (Laplacian in 1D)."""
        if self.scheme == "spectral":
            fh = np.fft.rfft(f)
            return np.fft.irfft(-(self.wavenumbers**2) * fh, n=self.n)
        return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / self.dx**2

    def integrate(self, f: np.ndarray) -> float:
        """Quadrature consistent with the periodic trapezoid rule (= midpoint
        on a uniform periodic grid, spectrally accurate for smooth f)."""
        return float(np.sum(f) * self.dx)

    def mode_amplitude(self, f: np.ndarray, mode: int) -> complex:
        """Complex amplitude of cos/sin mode ``mode``: f ≈ Σ a_m e^{i m 2πx/L},
        returned so that a real field ε·cos(kx) gives amplitude ε/2... times 2.

        Normalised so that f = Re(a · e^{i k_m x}) returns approximately a.
        """
        fh = np.fft.rfft(f) / self.n
        if mode == 0:
            return complex(fh[0])
        return 2.0 * complex(fh[mode])

    def mode_wavenumber(self, mode: int) -> float:
        return 2.0 * np.pi * mode / self.length
