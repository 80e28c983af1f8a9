"""Uniform periodic 1D grid with Fourier-spectral operators."""

from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError


@dataclass(frozen=True)
class PeriodicGrid1D:
    """Uniform grid on [0, L) with periodic wrap-around and Fourier-spectral
    derivatives."""

    length: float
    n: int
    # derived from (length, n), so left out of equality and hashing
    x: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    # (ik)^2 = -k^2 as a complex row, the second derivative
    ik2: np.ndarray = field(init=False, repr=False, compare=False)
    # ik with the Nyquist mode set to 0, the first derivative of a real
    # field, and 1/(ik) where that is not 0, its mean-free antiderivative:
    # for products taken in Fourier space before the inverse transform
    ik: np.ndarray = field(init=False, repr=False, compare=False)
    inv_ik: np.ndarray = field(init=False, repr=False, compare=False)
    # 2 |ik|^2 dx / n: the weight of mode k in the integral of the product
    # of two real fields' first derivatives, by Parseval
    grad_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.length <= 0:
            raise RangeError("grid length must be positive")
        if self.n < 4:
            raise RangeError("need at least 4 cells")
        object.__setattr__(self, "x", np.arange(self.n) * self.dx)
        k = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        object.__setattr__(self, "wavenumbers", k)
        object.__setattr__(self, "ik2", (-(k**2)).astype(complex))
        ik = 1j * k
        if self.n % 2 == 0:
            ik[-1] = 0.0
        inv_ik = np.zeros_like(ik)
        inv_ik[ik != 0.0] = 1.0 / ik[ik != 0.0]
        object.__setattr__(self, "ik", ik)
        object.__setattr__(self, "inv_ik", inv_ik)
        object.__setattr__(self, "grad_weights", 2.0 * self.dx / self.n * np.abs(ik)**2)

    @property
    def dx(self) -> float:
        return self.length / self.n

    def integrate(self, f: np.ndarray) -> float:
        """Quadrature consistent with the periodic trapezoid rule (= midpoint
        on a uniform periodic grid, spectrally accurate for smooth f)."""
        return float(f.sum() * self.dx)

    def gradient_form(self, A, fh: np.ndarray) -> float:
        """Integral of sum_ij A_ij (df_i/dx)(df_j/dx) over real rows f_i,
        from their ``rfft`` spectra ``fh``: a sum over modes by Parseval,
        taken over the nonzero entries of A only, row by row."""
        w = self.grad_weights
        return float(sum(a * np.vdot(fh[i], w * fh[j]).real
                         for i, row in enumerate(np.atleast_2d(A).tolist())
                         for j, a in enumerate(row) if a))

    def mode_amplitude(self, f: np.ndarray, mode: int) -> complex:
        """Complex amplitude a of Fourier mode ``mode`` (wavenumber k_m), so
        that f = Re(a e^{i k_m x}) returns a: ε·cos(k_m x) gives ε and
        ε·sin(k_m x) gives -iε.  Mode 0 returns the mean."""
        return self.spectrum_amplitude(np.fft.rfft(f), mode)

    def spectrum_amplitude(self, fh: np.ndarray, mode: int) -> complex:
        """:meth:`mode_amplitude` of a field from its ``rfft`` spectrum."""
        a = complex((fh[mode:mode + 1] / self.n)[0])
        return a if mode == 0 else 2.0 * a

    def mode_wavenumber(self, mode: int) -> float:
        return 2.0 * np.pi * mode / self.length
