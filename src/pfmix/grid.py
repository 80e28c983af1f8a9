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
    # derived from (length, n), so left out of equality and hashing
    x: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    symbols: np.ndarray = field(init=False, repr=False, compare=False)  # row p: (ik)^p

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("grid length must be positive")
        if self.n < 4:
            raise ValueError("need at least 4 cells")
        if self.scheme not in ("spectral", "central"):
            raise ValueError(f"unknown derivative scheme {self.scheme!r}")
        object.__setattr__(self, "x", np.arange(self.n) * self.dx)
        k = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        symbols = np.empty((3, k.size), dtype=complex)
        symbols[0], symbols[1], symbols[2] = 1.0, 1j * k, -(k**2)
        object.__setattr__(self, "wavenumbers", k)
        object.__setattr__(self, "symbols", symbols)

    @property
    def dx(self) -> float:
        return self.length / self.n

    def derivatives(self, f: np.ndarray, orders) -> np.ndarray:
        """Derivatives of the rows of an (m, n) stack, row i of order
        ``orders[i]`` (0, 1 or 2), in one batched transform.

        A spectral grid does one ``rfft`` of the stack, multiplies each row
        by its symbol (ik)^p and does one ``irfft``; every row comes out bit
        for bit as it would from a transform of that row alone.
        """
        if self.scheme == "spectral":
            fh = np.fft.rfft(f, axis=-1)
            symbols = self.symbols.take(orders, axis=0)
            return np.fft.irfft(symbols * fh, n=self.n, axis=-1)
        up, down = np.roll(f, -1, axis=-1), np.roll(f, 1, axis=-1)
        stencils = (f, (up - down) / (2.0 * self.dx),
                    (up - 2.0 * f + down) / self.dx**2)
        return np.choose(np.asarray(orders)[..., None], stencils)

    def dx1(self, f: np.ndarray) -> np.ndarray:
        """First derivative."""
        return self.derivatives(np.asarray(f)[np.newaxis], (1,))[0]

    def dx2(self, f: np.ndarray) -> np.ndarray:
        """Second derivative (Laplacian in 1D)."""
        return self.derivatives(np.asarray(f)[np.newaxis], (2,))[0]

    def integrate(self, f: np.ndarray) -> float:
        """Quadrature consistent with the periodic trapezoid rule (= midpoint
        on a uniform periodic grid, spectrally accurate for smooth f)."""
        return float(np.sum(f) * self.dx)

    def mode_amplitude(self, f: np.ndarray, mode: int) -> complex:
        """Complex amplitude a of Fourier mode ``mode`` (wavenumber k_m), so
        that f = Re(a e^{i k_m x}) returns a: ε·cos(k_m x) gives ε and
        ε·sin(k_m x) gives -iε.  Mode 0 returns the mean."""
        fh = np.fft.rfft(f) / self.n
        if mode == 0:
            return complex(fh[0])
        return 2.0 * complex(fh[mode])

    def mode_wavenumber(self, mode: int) -> float:
        return 2.0 * np.pi * mode / self.length
