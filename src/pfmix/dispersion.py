"""Linear stability engine.

Extracts complex growth rates and eigenvectors from the dispersion pencil
of a model's linearization about a constant state, for a whole wavenumber
grid in one batched eigensolve of the pencil's standard form, tracks
them over wavenumber sweeps, takes unstable band edges from the
linearization's closed form and checks each on the pencil, and evaluates
closed-form growth-rate formulas.

:func:`sweep` is the one place that names roots: its tracks start where
the long-wave expansions hold and keep their names (``alpha1``, ...) at any
k by eigenvector continuity, so a named root at one k is that of
``sweep(lin, [k])``.  ``DispersionResult.track(name)`` is the one name
lookup, and :func:`band_peak` refines a named root's maximum by sweeps.

Every function takes ``lin``, the object a model's ``linearization``
method returns for a state, so a caller linearizes a state once and passes
it on.  Everything class-specific (pencil, variable order, reduced
polynomial, the small- and large-k expansions ``lin.small_k()`` and
``lin.large_k()``, the summary's verdict ``lin.classification(long_wave)``
read off a sweep's ``long_wave``) lives on that object; see
:mod:`pfmix.linearization`.  The one exception is
:func:`scalar_dispersion_coefficients`, which keeps ``(model, state, k)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (  # noqa: F401  (SingularExpansion is re-exported)
    NumericalError,
    RangeError,
    SingularExpansion,
)
from .models import MixtureState

EIG_RESIDUAL_TOL = 1e-8
# Two roots closer than this, relative to the larger modulus, cannot be told
# apart (the sweep flags the point); a root grows only above it times max |alpha|.
TRACK_GAP_TOL = 1e-12
# k per sweep of a band_peak refinement step
PEAK_POINTS = 9


# ---------------------------------------------------------------------------
# Growth rates
# ---------------------------------------------------------------------------


def growth_rates(lin, ks) -> tuple:
    """(alphas, vectors, residuals) of the pencil of ``lin`` at every k of a
    1-D array, from one batched eigensolve of its standard form.

    ``alphas[i]`` holds the finite roots at ks[i] by descending real part
    (a conjugate pair: negative imaginary part first) and ``vectors[i]``
    their eigenvectors as columns, each of unit norm with its
    largest-modulus component real and positive.  Every root is checked on
    the full pencil: ``residuals[i, j]`` is |(alpha B + A) x| / (|A| |x|),
    and NumericalError is raised where one exceeds EIG_RESIDUAL_TOL.
    """
    w, x, res = _eigen(lin, ks)
    bad = res > EIG_RESIDUAL_TOL
    if np.any(bad):
        raise NumericalError(
            f"eigen-residual {res[bad].max():.3e} exceeds {EIG_RESIDUAL_TOL:.1e} "
            f"at k={np.asarray(ks, dtype=float)[bad.any(axis=1)][0]}")
    return w, x, res


def _eigen(lin, k) -> tuple:
    """:func:`growth_rates` without the residual check."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise RangeError("wavenumber must be positive")
    A = lin.pencil_matrices(k)
    try:
        w, y = np.linalg.eig(lin.standard_form(A))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc
    w = w.astype(complex, copy=False)    # real when every root is real
    finite = np.isfinite(w).all(axis=1)
    if not finite.all():
        raise NumericalError(f"non-finite growth rate at k={k[~finite][0]}")
    order = np.lexsort((w.imag, -w.real))
    i = np.arange(k.size)[:, None]
    w = w[i, order]
    y = y[i[:, None], np.arange(y.shape[1])[:, None], order[:, None, :]]
    x = _unit_phase(lin.eigenvectors(A, y))
    r = A @ x + w[:, None, :] * (lin.B @ x)
    res = np.linalg.norm(r, axis=1) / np.maximum(
        np.linalg.norm(A, axis=(1, 2)), 1e-300)[:, None]
    return w, x, res


def _unit_phase(x: np.ndarray) -> np.ndarray:
    """Columns of each x[i] scaled to unit norm, with the largest-modulus
    component real and positive (set exactly: the complex product leaves a
    rounding-level imaginary part)."""
    mag = np.abs(x)
    size = np.sqrt(np.sum(mag * mag, axis=1))
    top = (np.arange(x.shape[0])[:, None], mag.argmax(axis=1), np.arange(x.shape[2]))
    x = x * (np.conj(x[top]) / (mag[top] * size))[:, None, :]
    x[top] = mag[top] / size
    return x


def viscous_root(lin, k: float) -> float:
    return -lin.inv_Re_s * k * k / lin.rho0


# ---------------------------------------------------------------------------
# Scalar dispersion polynomials (printed closed forms)
# ---------------------------------------------------------------------------


def scalar_dispersion_coefficients(model, state: MixtureState, k: float) -> np.ndarray:
    """Coefficients (ascending in alpha) of the scalar dispersion polynomial
    written as (viscous factor) * (reduced polynomial), for cross-checking the
    pencil determinant.

    The one function here that takes ``(model, state)``, because
    ``perfbench/gates.py`` calls it that way."""
    return _scalar_coefficients(model.linearization(state), k)


def _scalar_coefficients(lin, k: float) -> np.ndarray:
    viscous = np.array([lin.inv_Re_s * k * k, lin.rho0])
    cubic = lin.reduced_polynomial(k)
    return np.polymul(cubic[::-1], viscous[::-1])[::-1]


def pencil_matches_scalar(lin, ks) -> tuple[np.ndarray, np.ndarray]:
    """Compare det(alpha B + A) coefficients with the printed scalar
    polynomial at every k of a 1-D array: (err <= 1e-9, err) per k.  The
    two agree up to an alpha-independent constant factor (exactly 1 for the
    compressible classes), so balanced coefficient vectors are compared
    after normalizing by their largest entries."""
    ks = np.asarray(ks, dtype=float)
    A, B = lin.pencil_matrices(ks), lin.B
    size = A.shape[1] + 1
    want = np.zeros((ks.size, size), dtype=complex)
    scale = np.empty(ks.size)
    for i, k in enumerate(ks.tolist()):
        raw = _scalar_coefficients(lin, k)
        want[i, : raw.size] = raw
        w = np.abs(want[i])
        i0, i1 = np.nonzero(w > 0)[0][[0, -1]]
        scale[i] = max((w[i0] / w[i1]) ** (1.0 / max(i1 - i0, 1)), 1e-30)
    # exact interpolation of det(alpha B + A) on the circles |alpha| = scale
    nodes = np.exp(2j * np.pi * np.arange(size) / size)
    vals = np.linalg.det(scale[:, None, None, None] * nodes[:, None, None] * B
                         + A[:, None])
    vander = np.vander(nodes, size, increasing=True)
    # the solve gives the balanced coefficients, those of det(scale z B + A) in z
    got_b = np.linalg.solve(vander, vals[..., None])[..., 0]
    want_b = want * scale[:, None] ** np.arange(size)
    # balancing makes the outer entries equally large, so normalize both
    # vectors by the same entry or a tie may flip one of them
    j = np.argmax(np.abs(want_b), axis=1)[:, None]
    got_b = got_b / np.take_along_axis(got_b, j, axis=1)
    want_b = want_b / np.take_along_axis(want_b, j, axis=1)
    err = np.max(np.abs(got_b - want_b), axis=1) / np.max(np.abs(want_b), axis=1)
    return err <= 1e-9, err


# ---------------------------------------------------------------------------
# Explicit roots of the constrained classes
# ---------------------------------------------------------------------------


def quasi_explicit_roots(lin, k):
    """Closed-form (alpha0, alpha1, alpha2) of the quasi-incompressible
    dispersion equation, with Q = phi0 - rho_hat_2 / (rho_hat_2 - rho_hat_1)
    and the coupled-mode coefficient A = 1 / ((1 - r)^2 M11 / rho_hat_1^2);
    requires unequal specific densities."""
    if lin.equal_densities:
        raise RangeError(
            "equal specific densities: use incompressible_roots instead")
    k = np.asarray(k, dtype=float)
    Q = lin.phi0 - lin.rho_hat_2 / (lin.rho_hat_2 - lin.rho_hat_1)
    Aco = 1.0 / (lin.one_minus_r ** 2 * lin.M11 / lin.rho_hat_1**2)
    Dphi = lin.h_phi_phi + k * k * lin.kappa_phi_phi
    S = lin.inv_Re * k * k + Aco
    disc = np.sqrt(np.asarray(S * S - 4.0 * lin.rho0 * k * k * Dphi * Q * Q,
                              dtype=complex))
    alpha0 = -lin.inv_Re_s / lin.rho0 * k * k + 0j
    alpha1 = -2.0 * k * k * Dphi * Q * Q / (S + disc)
    alpha2 = (-S - disc) / (2.0 * lin.rho0)
    return alpha0, alpha1, alpha2


def incompressible_roots(lin, k):
    """(alpha0, alpha1) of the incompressible class, exactly as printed:
    alpha1 = -(M11/rho_hat_2^2) h'' k^2 - (M11/rho_hat_1^2) kappa k^4."""
    k = np.asarray(k, dtype=float)
    alpha0 = -lin.inv_Re_s / lin.rho0 * k * k
    alpha1 = (-lin.M11 / lin.rho_hat_2**2 * lin.h_phi_phi * k * k
              - lin.M11 / lin.rho_hat_1**2 * lin.kappa_phi_phi * k**4)
    return alpha0, alpha1


# ---------------------------------------------------------------------------
# Sweeps with mode tracking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DispersionResult:
    """Tracked growth rates over a wavenumber grid.

    ``roots[i, j]`` is track j at k_grid[i], named by ``lin.small_k()``'s
    mode j (``long_wave``); ``ambiguous`` lists grid indices where two
    roots were too close to track reliably (labels may swap there).
    """

    k_grid: np.ndarray
    roots: np.ndarray
    vectors: np.ndarray
    long_wave: AsymptoticCoefficients  # from pfmix.linearization
    residuals: np.ndarray
    ambiguous: tuple

    @property
    def mode_names(self) -> tuple:
        return tuple(m.name for m in self.long_wave.modes)

    def track(self, name: str) -> int:
        """The column of the track named ``name``; KeyError, listing the
        modes, for a name the sweep does not have."""
        if name not in self.mode_names:
            raise KeyError(f"no mode {name!r} among {', '.join(self.mode_names)}")
        return self.mode_names.index(name)


# every permutation of n = 1..4 roots in lexicographic order, with the
# positions of its entries in a flattened n x n cost matrix
_PERMUTATIONS = {n: (p, p + n * np.arange(n)) for n in range(1, 5)
                 for p in [np.array(list(itertools.permutations(range(n))))]}
# Two assignments of roots between neighbouring k whose summed eigenvector
# overlaps differ by less than this are told apart by root distance.
OVERLAP_TIE_TOL = 1e-6


def _match(cost: np.ndarray, tie: np.ndarray = None) -> np.ndarray:
    """Columns s minimizing sum_j cost[j, s[j]] for each square matrix of a
    stack (..., n, n): an exact search over all n! <= 24 permutations, each
    sum taken in row order.  With ``tie``, a stack of the same shape, the
    sums of ``tie`` decide among the sums within OVERLAP_TIE_TOL of the
    least.  Among equal sums the first permutation in lexicographic order
    wins."""
    n = cost.shape[-1]
    perms, flat = _PERMUTATIONS[n]
    sums = cost.reshape(-1, n * n)[:, flat].sum(axis=2)
    if tie is not None:
        near = sums <= sums.min(axis=1, keepdims=True) + OVERLAP_TIE_TOL
        sums = np.where(near, tie.reshape(-1, n * n)[:, flat].sum(axis=2), np.inf)
    return perms[sums.argmin(axis=1)].reshape(cost.shape[:-1])


def _chain(first: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Rows cols[0] = first and cols[i] = step[i - 1][cols[i - 1]] for a
    stack of index maps ``step`` (T - 1, n): a prefix scan of their
    compositions by doubling (Hillis & Steele, Commun. ACM 29 (1986) 1170),
    in ceil(log2 T) whole-array steps, each exact in integers."""
    cols = np.concatenate([first[None], step])
    d = 1
    while d < cols.shape[0]:
        # row i now composes rows i - 2d + 1 .. i of the stack
        cols[d:] = np.take_along_axis(cols[d:], cols[:-d], axis=1)
        d *= 2
    return cols


def sweep(lin, k_grid, start=None) -> DispersionResult:
    """Growth rates over an increasing positive k grid, from one eigensolve
    of the whole grid, with mode tracking seeded from the long-wave
    asymptotics and continued by eigenvector continuity.

    Where those asymptotics do not hold at k_grid[0], tracking starts at the
    first of k_grid[0] / 10, ..., k_grid[0] / 1e16 where they do (one
    batched solve of all 16) and runs through 20 log-spaced points per
    decade up to k_grid[0], which are then dropped; NumericalError if
    there is no such k.

    With ``start``, a pair (result, i) of an earlier sweep of ``lin`` and
    one of its grid indices, with result.k_grid[i] <= k_grid[0], the tracks
    continue from that point's named roots by the same rule instead, so
    the whole sweep is its grid's one eigensolve."""
    k_grid = np.asarray(k_grid, dtype=float)
    if np.any(k_grid <= 0) or np.any(np.diff(k_grid) <= 0):
        raise RangeError("k grid must be strictly increasing and positive")
    alphas, vecs, res = growth_rates(lin, k_grid)
    if start is not None:
        prev, i = start
        if prev.k_grid[i] > k_grid[0]:
            raise RangeError("a sweep continues only from a k at or below its grid")
        long_wave, n = prev.long_wave, 1
        alphas, vecs, res = (np.concatenate(pair) for pair in zip(
            (prev.roots[i:i + 1], prev.vectors[i:i + 1].transpose(0, 2, 1),
             prev.residuals[i:i + 1]), (alphas, vecs, res)))
        first = np.arange(len(long_wave.modes))
    else:
        long_wave = lin.small_k()
        n, k_seed = 0, k_grid[0]
        if not _long_wave(long_wave.modes, k_grid[:1], alphas[:1], res[:1])[0]:
            seeds = k_seed * 10.0 ** -np.arange(1.0, 17.0)
            w, _, r = _eigen(lin, seeds)
            found = np.flatnonzero(_long_wave(long_wave.modes, seeds, w, r))
            if not found.size:
                raise NumericalError(
                    f"the long-wave expansions match the pencil's roots at no k "
                    f"down to {seeds[-1]:.3g}, so the sweep's modes cannot be named")
            n = 20 * (int(found[0]) + 1)
            prefix = k_seed * np.logspace(-n / 20, 0.0, n, endpoint=False)
            alphas, vecs, res = (np.concatenate(pair) for pair in zip(
                growth_rates(lin, prefix), (alphas, vecs, res)))
            k_seed = prefix[0]
        predicted = np.array([m.evaluate(k_seed) for m in long_wave.modes])
        first = _match(np.abs(predicted[:, None] - alphas[0][None, :]))

    # step[i, j]: the root at k[i + 1] that root j at k[i] goes to, by the
    # mismatch 1 - |x^H y| of unit eigenvectors (a crossing of two real
    # roots ties their distances, not their eigenvectors), then by distance
    mismatch = 1.0 - np.abs(np.einsum("ivj,ivm->ijm", vecs[:-1].conj(), vecs[1:]))
    step = _match(mismatch, tie=np.abs(alphas[:-1, :, None] - alphas[1:, None, :]))
    cols = _chain(first, step)
    alphas, vecs, res, cols = alphas[n:], vecs[n:], res[n:], cols[n:]
    roots = np.take_along_axis(alphas, cols, axis=1)
    vectors = np.take_along_axis(vecs, cols[:, None, :], axis=2).transpose(0, 2, 1)
    residuals = np.take_along_axis(res, cols, axis=1)

    size = np.abs(alphas)
    gaps = np.abs(alphas[:, :, None] - alphas[:, None, :])
    close = gaps <= TRACK_GAP_TOL * np.maximum(size[:, :, None], size[:, None, :])
    close[:, np.arange(size.shape[1]), np.arange(size.shape[1])] = False
    ambiguous = tuple(int(i) for i in np.flatnonzero(close.any(axis=(1, 2))))
    return DispersionResult(
        k_grid=k_grid, roots=roots, vectors=vectors, long_wave=long_wave,
        residuals=residuals, ambiguous=ambiguous)


def _long_wave(modes, ks, alphas, residuals) -> np.ndarray:
    """Whether, at each k, every long-wave prediction lies within 1e-3 of
    the largest root of its own distinct root, all of them passing the
    eigen-residual check."""
    gap = np.abs(np.array([m.evaluate(ks) for m in modes]).T[:, :, None]
                 - alphas[:, None, :])
    distinct = (np.diff(np.sort(gap.argmin(axis=2), axis=1), axis=1) > 0).all(axis=1)
    return (distinct & (residuals <= EIG_RESIDUAL_TOL).all(axis=1)
            & (gap.min(axis=2).max(axis=1) <= 1e-3 * np.abs(alphas).max(axis=1)))


def _growing(alphas: np.ndarray) -> np.ndarray:
    """Roots (last axis) whose real part exceeds TRACK_GAP_TOL times the
    largest modulus at their k, so alpha1 = 0 without mobility never grows."""
    return alphas.real > TRACK_GAP_TOL * np.abs(alphas).max(axis=-1, keepdims=True)


def unstable_bands(lin, result: DispersionResult, track: int):
    """(k_lo, k_hi) intervals where the tracked root grows.

    The sweep's sign pattern places each edge between two grid points
    k_(i-1) < k_i, and ``lin.band_edges()`` gives it in closed form: the
    one candidate in the closed bracket [k_(i-1), k_i] across which the
    pencil's count of growing roots changes, checked at edge * (1 -+ 1e-6).
    No candidate, or more than one, raises NumericalError.  A band open at
    a grid end ends at that grid point."""
    ks = result.k_grid
    sign = _growing(result.roots)[:, track]
    cuts = [_band_edge(lin, ks[i], ks[i + 1]) for i in np.flatnonzero(np.diff(sign))]
    cuts = [float(ks[0])] * int(sign[0]) + cuts + [float(ks[-1])] * int(sign[-1])
    return list(zip(cuts[::2], cuts[1::2]))


def _band_edge(lin, k0: float, k1: float) -> float:
    edges = lin.band_edges()
    found = [e for e in edges[(edges >= k0) & (edges <= k1)] if np.ptp(
        _growing(growth_rates(lin, e * np.array([1 - 1e-6, 1 + 1e-6]))[0]).sum(axis=1))]
    if len(found) != 1:
        raise NumericalError(
            f"{len(found)} closed-form band edges change the pencil's count of "
            f"growing roots between k={k0} and k={k1}, not one")
    return float(found[0])


def band_peak(lin, k_lo: float, k_hi: float, name: str):
    """Largest Re(alpha) on [k_lo, k_hi] of the root that :func:`sweep`
    names ``name``; returns (k_peak, alpha_peak, eigenvector).

    Each step sweeps PEAK_POINTS log-spaced k of the bracket and narrows it
    to the grid intervals beside the largest value, until the bracket is
    narrower than 1e-10 times that k.  Each sweep after the first carries
    the names on from the previous one's point at its lower end."""
    a, b = float(k_lo), float(k_hi)
    start = None
    while True:
        result = sweep(lin, np.geomspace(a, b, PEAK_POINTS), start)
        j = result.track(name)
        i = int(np.argmax(result.roots[:, j].real))
        ks = result.k_grid
        if b - a <= 1e-10 * ks[i]:
            return float(ks[i]), complex(result.roots[i, j]), result.vectors[i, j]
        lo = max(i - 1, 0)
        a, b = ks[lo], ks[min(i + 1, PEAK_POINTS - 1)]
        start = (result, lo)


def angular_deviation(vector) -> float:
    """Angle (radians) between a complex vector and the second coordinate
    axis, the partial density rho1 of the locally-conserving pencil; 0
    means the perturbation is carried purely by that variable."""
    v = np.asarray(vector, dtype=complex)
    overlap = abs(v[1]) / np.linalg.norm(v)
    return float(np.arccos(min(overlap, 1.0)))
