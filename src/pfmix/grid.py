"""Uniform periodic 1D grid with Fourier-spectral operators."""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PeriodicGrid1D:
    """Uniform grid on [0, L) with periodic wrap-around and Fourier-spectral
    derivatives."""

    length: float
    n: int
    # derived from (length, n), so left out of equality and hashing
    x: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    symbols: np.ndarray = field(init=False, repr=False, compare=False)  # row p: (ik)^p
    # ik with the Nyquist mode set to 0, the first derivative of a real
    # field, and 1/(ik) where that is not 0, its mean-free antiderivative:
    # for products taken in Fourier space before the inverse transform
    ik: np.ndarray = field(init=False, repr=False, compare=False)
    inv_ik: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("grid length must be positive")
        if self.n < 4:
            raise ValueError("need at least 4 cells")
        object.__setattr__(self, "x", np.arange(self.n) * self.dx)
        k = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        symbols = np.empty((3, k.size), dtype=complex)
        symbols[0], symbols[1], symbols[2] = 1.0, 1j * k, -(k**2)
        object.__setattr__(self, "wavenumbers", k)
        object.__setattr__(self, "symbols", symbols)
        ik = 1j * k
        if self.n % 2 == 0:
            ik[-1] = 0.0
        inv_ik = np.zeros_like(ik)
        inv_ik[ik != 0.0] = 1.0 / ik[ik != 0.0]
        object.__setattr__(self, "ik", ik)
        object.__setattr__(self, "inv_ik", inv_ik)

    @property
    def dx(self) -> float:
        return self.length / self.n

    def derivatives(self, f: np.ndarray, orders) -> np.ndarray:
        """Derivatives of the rows of an (m, n) stack, row i of order
        ``orders[i]`` (0, 1 or 2), in one batched transform.

        One ``rfft`` of the stack, a multiplication of each row by its
        symbol (ik)^p and one ``irfft``; every row comes out bit for bit as
        it would from a transform of that row alone.
        """
        fh = np.fft.rfft(f, axis=-1)
        symbols = self.symbols.take(orders, axis=0)
        return np.fft.irfft(symbols * fh, n=self.n, axis=-1)

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
