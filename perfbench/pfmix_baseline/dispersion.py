"""Linear stability engine.

Assembles the 4x4 dispersion pencils of the linearized models about a
constant state, extracts complex growth rates and eigenvectors per
wavenumber, evaluates closed-form and asymptotic growth-rate formulas, and
classifies long-wave stability from the bulk-energy Hessian.

All pencils use the variable ordering of the linearized systems:

* compressible, global conservation:  (rho1, rho2, vx, vy)
* compressible, local conservation:   (rho, rho1, vx, vy)
* quasi-incompressible:               (Pi, phi, vx, vy)
* incompressible:                     (Pi, phi, vx, vy)

so a perturbation growing purely in the partial density appears as the
eigenvector (0, 1, 0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .errors import (
    DegenerateCase,
    NumericalError,
    RangeError,
    SingularExpansion,
)
from .free_energy import Definiteness, HessianReport
from .models import (
    BinaryLinearization,
    CompressibleGlobal,
    CompressibleLocal,
    Incompressible,
    MixtureState,
    PhaseFieldLinearization,
    QuasiIncompressible,
)

EIG_RESIDUAL_TOL = 1e-8
DEGENERATE_TOL = 1e-12
TRACK_GAP_TOL = 1e-12


class ModeLabel(Enum):
    VISCOUS = "viscous"
    THERMODYNAMIC = "thermodynamic"
    COUPLED = "coupled"


# ---------------------------------------------------------------------------
# Pencils
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DispersionPencil:
    """Matrix pencil alpha*B + A(k) whose determinant is the dispersion
    equation of the linearized system."""

    A: np.ndarray
    B: np.ndarray
    k: float
    n_finite_roots: int

    def matrix(self, alpha: complex) -> np.ndarray:
        return alpha * self.B + self.A

    def determinant(self, alpha: complex) -> complex:
        return complex(np.linalg.det(self.matrix(alpha)))

    def determinant_coefficients(self, scale: float = None) -> np.ndarray:
        """Coefficients c[j] of det(alpha B + A) = sum_j c[j] alpha^j,
        extracted by exact polynomial interpolation on a circle of radius
        ``scale`` (the balancing radius; pick it near the root magnitudes
        for well-conditioned extraction)."""
        deg = self.A.shape[0]
        if scale is None:
            scale = max(1.0, np.linalg.norm(self.A)
                        / max(np.linalg.norm(self.B), 1e-300))
        nodes = np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
        vals = np.array([self.determinant(scale * b) for b in nodes])
        # unit-circle Vandermonde is perfectly conditioned
        V = np.vander(nodes, deg + 1, increasing=True)
        balanced = np.linalg.solve(V, vals)          # c_j * scale^j
        return balanced / scale ** np.arange(deg + 1)


def _d_matrix(lin: BinaryLinearization, k: float) -> np.ndarray:
    return lin.C + k * k * lin.K


def assemble_pencil(model, state: MixtureState, k: float) -> DispersionPencil:
    """Pencil of the model class linearized about ``state`` at wavenumber k."""
    lin = model.linearization(state)
    if isinstance(model, CompressibleGlobal):
        D = _d_matrix(lin, k)
        M = lin.M
        p = lin.p
        A = np.zeros((4, 4), dtype=complex)
        MD = M @ D
        A[0, 0], A[0, 1] = k * k * MD[0, 0], k * k * MD[0, 1]
        A[1, 0], A[1, 1] = k * k * MD[1, 0], k * k * MD[1, 1]
        A[0, 2] = 1j * p[0] * k
        A[1, 2] = 1j * p[1] * k
        A[2, 0] = 1j * k * (p[0] * D[0, 0] + p[1] * D[0, 1])
        A[2, 1] = 1j * k * (p[1] * D[1, 1] + p[0] * D[0, 1])
        A[2, 2] = lin.inv_Re * k * k
        A[3, 3] = lin.inv_Re_s * k * k
        B = np.diag([1.0, 1.0, lin.rho0, lin.rho0]).astype(complex)
        return DispersionPencil(A=A, B=B, k=k, n_finite_roots=4)
    if isinstance(model, CompressibleLocal):
        D = _d_matrix(lin, k)  # (rho, rho1) ordering
        p = lin.p              # (rho0, rho1_0)
        M11 = lin.M11
        A = np.zeros((4, 4), dtype=complex)
        A[0, 2] = 1j * p[0] * k
        A[1, 0] = k * k * M11 * D[0, 1]
        A[1, 1] = k * k * M11 * D[1, 1]
        A[1, 2] = 1j * p[1] * k
        A[2, 0] = 1j * k * (p[1] * D[0, 1] + p[0] * D[0, 0])
        A[2, 1] = 1j * k * (p[1] * D[1, 1] + p[0] * D[0, 1])
        A[2, 2] = lin.inv_Re * k * k
        A[3, 3] = lin.inv_Re_s * k * k
        B = np.diag([1.0, 1.0, lin.rho0, lin.rho0]).astype(complex)
        return DispersionPencil(A=A, B=B, k=k, n_finite_roots=4)
    if isinstance(model, (QuasiIncompressible, Incompressible)):
        lin: PhaseFieldLinearization
        r = lin.rho_hat_1 / lin.rho_hat_2
        Mh = lin.M11 / lin.rho_hat_1**2
        Dphi = lin.h_phi_phi + k * k * lin.kappa_phi_phi
        A = np.zeros((4, 4), dtype=complex)
        B = np.zeros((4, 4), dtype=complex)
        incompressible = isinstance(model, Incompressible) or abs(1.0 - r) == 0.0
        # row 0: mass conservation / divergence constraint
        if incompressible:
            A[0, 2] = 1j * k
            n_roots = 2
        else:
            B[0, 1] = -(1.0 - r)
            A[0, 2] = 1j * k * (1.0 - lin.phi0 * (1.0 - r))
            n_roots = 3
        # row 1: phase transport
        A[1, 0] = Mh * k * k * (1.0 - r)
        A[1, 1] = Mh * k * k * Dphi
        A[1, 2] = 1j * k * lin.phi0
        B[1, 1] = 1.0
        # row 2: longitudinal momentum
        A[2, 0] = 1j * k
        A[2, 1] = 1j * k * lin.phi0 * Dphi
        A[2, 2] = lin.inv_Re * k * k
        B[2, 2] = lin.rho0
        # row 3: transverse momentum
        A[3, 3] = lin.inv_Re_s * k * k
        B[3, 3] = lin.rho0
        return DispersionPencil(A=A, B=B, k=k, n_finite_roots=n_roots)
    raise TypeError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Growth rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRates:
    """Finite generalized eigenvalues of one pencil, sorted by descending
    real part, with right eigenvectors (columns of ``vectors``) and
    relative residuals."""

    k: float
    alphas: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def _eig_pencil(pencil: DispersionPencil) -> GrowthRates:
    # alpha B x = -A x
    try:
        w, v = scipy.linalg.eig(-pencil.A, pencil.B)
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericalError(f"generalized eigensolve failed: {exc}") from exc
    finite = np.isfinite(w)
    w, v = w[finite], v[:, finite]
    if w.size < pencil.n_finite_roots:
        raise NumericalError(
            f"expected {pencil.n_finite_roots} finite roots, got {w.size}")
    if w.size > pencil.n_finite_roots:
        # keep the smallest |alpha| ones: spurious roots from a singular B
        # are sent to huge magnitudes by QZ
        keep = np.argsort(np.abs(w))[: pencil.n_finite_roots]
        w, v = w[keep], v[:, keep]
    order = np.argsort(-w.real)
    w, v = w[order], v[:, order]
    nA = np.linalg.norm(pencil.A)
    res = np.array([
        np.linalg.norm(pencil.matrix(w[i]) @ v[:, i])
        / max(nA * np.linalg.norm(v[:, i]), 1e-300)
        for i in range(w.size)
    ])
    bad = res > EIG_RESIDUAL_TOL
    if np.any(bad):
        raise NumericalError(
            f"eigen-residual {res[bad].max():.3e} exceeds {EIG_RESIDUAL_TOL:.1e} "
            f"at k={pencil.k}")
    return GrowthRates(k=pencil.k, alphas=w, vectors=v, residuals=res)


def growth_rates(model, state: MixtureState, k: float) -> GrowthRates:
    """All finite growth rates at wavenumber k, descending real part."""
    if k <= 0:
        raise RangeError("wavenumber must be positive")
    return _eig_pencil(assemble_pencil(model, state, k))


def viscous_root(model, state: MixtureState, k: float) -> float:
    lin = model.linearization(state)
    return -lin.inv_Re_s * k * k / lin.rho0


# ---------------------------------------------------------------------------
# Scalar dispersion polynomials (printed closed forms)
# ---------------------------------------------------------------------------


def scalar_dispersion_coefficients(model, state: MixtureState, k: float) -> np.ndarray:
    """Coefficients (ascending in alpha) of the scalar dispersion polynomial
    written as (viscous factor) * (reduced polynomial), for cross-checking the
    pencil determinant."""
    lin = model.linearization(state)
    viscous = np.array([lin.inv_Re_s * k * k, lin.rho0])
    if isinstance(model, CompressibleGlobal):
        D = _d_matrix(lin, k)
        M, p, r0, iRe = lin.M, lin.p, lin.rho0, lin.inv_Re
        MD = float(np.tensordot(M, D))
        detM = float(np.linalg.det(M))
        detD = float(np.linalg.det(D))
        pDp = float(p @ D @ p)
        g1 = float(M[1, 1] * p[0] ** 2 + M[0, 0] * p[1] ** 2
                   - 2.0 * M[0, 1] * p[0] * p[1])
        cubic = np.array([
            k**4 * (iRe * detM * k**2 + g1) * detD,
            pDp * k**2 + iRe * MD * k**4 + r0 * detM * detD * k**4,
            k**2 * (iRe + r0 * MD),
            r0,
        ])
    elif isinstance(model, CompressibleLocal):
        D = _d_matrix(lin, k)
        p, r0, iRe, M11 = lin.p, lin.rho0, lin.inv_Re, lin.M11
        detD = float(np.linalg.det(D))
        pDp = float(p @ D @ p)
        cubic = np.array([
            k**4 * M11 * r0**2 * detD,
            iRe * M11 * D[1, 1] * k**4 + pDp * k**2,
            k**2 * (iRe + r0 * M11 * D[1, 1]),
            r0,
        ])
    elif isinstance(model, (QuasiIncompressible, Incompressible)):
        r = lin.rho_hat_1 / lin.rho_hat_2
        Mh = lin.M11 / lin.rho_hat_1**2
        Dphi = lin.h_phi_phi + k * k * lin.kappa_phi_phi
        if isinstance(model, Incompressible) or r == 1.0:
            # det(alpha B + A) = viscous * k^2 * (alpha + Mh k^2 Dphi)
            cubic = np.array([k**2 * Mh * Dphi, 1.0]) * k**2
        else:
            Qbar = 1.0 - (1.0 - r) * lin.phi0
            cubic = np.array([
                k**4 * Mh * Dphi * Qbar**2,
                k**2 + lin.inv_Re * Mh * (1.0 - r) ** 2 * k**4,
                lin.rho0 * Mh * (1.0 - r) ** 2 * k**2,
            ])
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return np.polymul(cubic[::-1], viscous[::-1])[::-1]


def pencil_matches_scalar(model, state: MixtureState, k: float,
                          rtol: float = 1e-9) -> tuple[bool, float]:
    """Compare det(alpha B + A) coefficients with the printed scalar
    polynomial.  The two agree up to an alpha-independent constant factor
    (exactly 1 for the compressible classes), so balanced coefficient
    vectors are compared after normalizing by their largest entries."""
    pencil = assemble_pencil(model, state, k)
    size = pencil.A.shape[0] + 1
    want = np.zeros(size, dtype=complex)
    raw = scalar_dispersion_coefficients(model, state, k).astype(complex)
    want[: raw.size] = raw
    nz = np.nonzero(np.abs(want) > 0)[0]
    i0, i1 = nz[0], nz[-1]
    scale = (np.abs(want[i0]) / np.abs(want[i1])) ** (1.0 / max(i1 - i0, 1))
    scale = float(max(scale, 1e-30))
    got = pencil.determinant_coefficients(scale=scale)
    powers = scale ** np.arange(size)
    got_b, want_b = got * powers, want * powers
    got_b = got_b / got_b[np.argmax(np.abs(got_b))]
    want_b = want_b / want_b[np.argmax(np.abs(want_b))]
    err = float(np.max(np.abs(got_b - want_b)) / np.max(np.abs(want_b)))
    return err <= rtol, err


# ---------------------------------------------------------------------------
# Asymptotic expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeExpansion:
    """One mode's truncated expansion alpha(k) ~ sum_j coeff_j k^power_j."""

    label: ModeLabel
    name: str
    powers: tuple[float, ...]
    coefficients: tuple[complex, ...]

    def evaluate(self, k):
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape, dtype=complex)
        for p, c in zip(self.powers, self.coefficients):
            out = out + c * k**p
        return out if out.shape else complex(out)


@dataclass(frozen=True)
class AsymptoticCoefficients:
    regime: str                       # "small_k" or "large_k"
    modes: tuple[ModeExpansion, ...]
    auxiliaries: dict = field(default_factory=dict)

    def mode(self, name: str) -> ModeExpansion:
        for m in self.modes:
            if m.name == name:
                return m
        raise KeyError(name)

    def flat_text(self) -> str:
        """Flat key-value block: one `<mode>.k^<power> = re [im]` line per
        expansion term plus the auxiliary scalars."""
        lines = [f"regime = {self.regime}"]
        for m in self.modes:
            lines.append(f"{m.name}.label = {m.label.value}")
            for p, c in zip(m.powers, m.coefficients):
                c = complex(c)
                val = format(c.real, ".17g")
                if c.imag != 0.0:
                    val += " " + format(c.imag, ".17g")
                lines.append(f"{m.name}.k^{p:g} = {val}")
        for key, val in sorted(self.auxiliaries.items()):
            if isinstance(val, (int, float)):
                lines.append(f"aux.{key} = {format(float(val), '.17g')}")
            else:
                lines.append(f"aux.{key} = {val}")
        return "\n".join(lines) + "\n"


def _binary_aux(lin: BinaryLinearization):
    C, K, p = lin.C, lin.K, lin.p
    pCp = float(p @ C @ p)
    pKp = float(p @ K @ p)
    detC = float(np.linalg.det(C))
    detK = float(np.linalg.det(K))
    d = float(C[0, 0] * K[1, 1] + C[1, 1] * K[0, 0] - 2.0 * C[0, 1] * K[0, 1])
    return pCp, pKp, detC, detK, d


def _guard_denominator(value: float, scale: float, what: str):
    if abs(value) <= DEGENERATE_TOL * max(scale, 1.0):
        raise SingularExpansion(f"{what} vanishes within tolerance")


def _csqrt(x: float) -> complex:
    return complex(np.sqrt(complex(x)))


def asymptotic_small_k(model, state: MixtureState) -> AsymptoticCoefficients:
    """Leading and subleading long-wave growth-rate coefficients."""
    lin = model.linearization(state)
    if isinstance(model, CompressibleGlobal):
        C, K, M, p, r0, iRe = lin.C, lin.K, lin.M, lin.p, lin.rho0, lin.inv_Re
        pCp, pKp, detC, detK, d = _binary_aux(lin)
        _guard_denominator(pCp, np.linalg.norm(C) * float(p @ p), "p.C.p")
        g1 = float(M[1, 1] * p[0] ** 2 + M[0, 0] * p[1] ** 2
                   - 2.0 * M[0, 1] * p[0] * p[1])
        detM = float(np.linalg.det(M))
        MC = float(np.tensordot(M, C))
        x1 = -g1 * detC / pCp
        y1 = (-(iRe * detM * detC + d * g1) / pCp
              - (r0 * x1**3 + x1**2 * (iRe + r0 * MC)
                 + x1 * (r0 * detM * detC + iRe * MC + pKp)) / pCp)
        xc = _csqrt(-pCp / r0)
        y23 = (-iRe / (2.0 * r0)
               - (M[0, 0] * (p[0] * C[0, 0] + p[1] * C[0, 1]) ** 2
                  + M[1, 1] * (p[0] * C[0, 1] + p[1] * C[1, 1]) ** 2)
               / (2.0 * pCp))
        modes = (
            ModeExpansion(ModeLabel.VISCOUS, "alpha0", (2,), (-lin.inv_Re_s / r0,)),
            ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha1", (2, 4), (x1, y1)),
            ModeExpansion(ModeLabel.COUPLED, "alpha2", (1, 2), (xc, y23)),
            ModeExpansion(ModeLabel.COUPLED, "alpha3", (1, 2), (-xc, y23)),
        )
        aux = {"g1": g1, "d": d, "p.C.p": pCp, "det_C": detC}
    elif isinstance(model, CompressibleLocal):
        C, K, p, r0, iRe, M11 = lin.C, lin.K, lin.p, lin.rho0, lin.inv_Re, lin.M11
        pCp, pKp, detC, detK, d = _binary_aux(lin)
        _guard_denominator(pCp, np.linalg.norm(C) * float(p @ p), "p.C.p")
        x0 = -M11 * r0**2 * detC / pCp
        y1 = (-(x0**3 * r0 + x0**2 * (r0 * M11 * C[1, 1] + iRe)
                + x0 * (pKp + C[1, 1] * M11 * iRe)) / pCp
              - M11 * r0**2 * d / pCp)
        xc = _csqrt(-pCp / r0)
        y23 = (-iRe / (2.0 * r0)
               - M11 * (p[1] * C[1, 1] + r0 * C[0, 1]) ** 2 / (2.0 * pCp))
        modes = (
            ModeExpansion(ModeLabel.VISCOUS, "alpha0", (2,), (-lin.inv_Re_s / r0,)),
            ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha1", (2, 4), (x0, y1)),
            ModeExpansion(ModeLabel.COUPLED, "alpha2", (1, 2), (xc, y23)),
            ModeExpansion(ModeLabel.COUPLED, "alpha3", (1, 2), (-xc, y23)),
        )
        aux = {"d": d, "p.C.p": pCp, "det_C": detC, "x0": x0}
    elif isinstance(model, (QuasiIncompressible, Incompressible)):
        return _phase_field_asymptotics(model, lin, "small_k")
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return AsymptoticCoefficients(regime="small_k", modes=modes, auxiliaries=aux)


def asymptotic_large_k(model, state: MixtureState) -> AsymptoticCoefficients:
    """Leading and subleading short-wave growth-rate coefficients."""
    lin = model.linearization(state)
    if isinstance(model, CompressibleGlobal):
        C, K, M, p, r0, iRe = lin.C, lin.K, lin.M, lin.p, lin.rho0, lin.inv_Re
        pCp, pKp, detC, detK, d = _binary_aux(lin)
        g1 = float(M[1, 1] * p[0] ** 2 + M[0, 0] * p[1] ** 2
                   - 2.0 * M[0, 1] * p[0] * p[1])
        detM = float(np.linalg.det(M))
        MK = float(np.tensordot(M, K))
        MC = float(np.tensordot(M, C))
        # x^2 + (M:K) x + |M||K| = 0 for the two k^4 branches
        disc = _csqrt(MK * MK - 4.0 * detM * detK)
        x1 = (-MK + disc) / 2.0
        x2 = (-MK - disc) / 2.0
        ys = []
        for x in (x1, x2):
            den = r0 * (3.0 * x * x + 2.0 * x * MK + detM * detK)
            num = -(iRe * detM * detK + x * x * (iRe + r0 * MC)
                    + x * (iRe * MK + r0 * detM * d))
            if abs(den) <= DEGENERATE_TOL * abs(r0) * max(MK**2, 1.0):
                if abs(num) <= DEGENERATE_TOL * max(abs(r0), 1.0):
                    ys.append(0.0)   # degenerate 0/0 branch (e.g. M = 0)
                    continue
                raise SingularExpansion("k^4 branch denominator vanishes")
            ys.append(num / den)
        x3 = -iRe / r0
        if detM * detK != 0.0 and iRe > 0:
            y3 = -(x3**2 * r0 * MK + x3 * (r0 * detM * d + iRe * MK)
                   + detM * iRe * d + g1 * detK) / (r0 * detM * detK)
            thermo3 = ModeExpansion(ModeLabel.COUPLED, "alpha3", (2, 0), (x3, y3))
        else:
            thermo3 = ModeExpansion(ModeLabel.COUPLED, "alpha3", (2,), (x3,))
        modes = (
            ModeExpansion(ModeLabel.VISCOUS, "alpha0", (2,), (-lin.inv_Re_s / r0,)),
            ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha1", (4, 2), (x1, ys[0])),
            ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha2", (4, 2), (x2, ys[1])),
            thermo3,
        )
        aux = {"g1": g1, "d": d, "M:K": MK, "det_M": detM, "det_K": detK}
    elif isinstance(model, CompressibleLocal):
        C, K, p, r0, iRe, M11 = lin.C, lin.K, lin.p, lin.rho0, lin.inv_Re, lin.M11
        pCp, pKp, detC, detK, d = _binary_aux(lin)
        k11 = K[1, 1]
        if k11 <= 0:
            raise SingularExpansion("short-wave expansion needs kappa_rho1_rho1 > 0")
        disc = _csqrt(iRe * iRe - 4.0 * r0**3 * detK / k11)
        xs = ((-iRe + disc) / (2.0 * r0), (-iRe - disc) / (2.0 * r0))
        aux = {"d": d, "det_K": detK, "x23": xs}
        if disc.imag == 0.0:
            ys = []
            for x in xs:
                den = 2.0 * x * r0 * M11 * k11 + M11 * k11 * iRe
                _guard_denominator(abs(den), max(abs(r0 * M11 * k11), 1.0),
                                   "k^2 branch denominator")
                ys.append(-M11 * r0**2 * d / den
                          - (x**3 * r0 + x**2 * (r0 * M11 * C[1, 1] + iRe)
                             + x * (M11 * C[1, 1] * iRe + pKp)) / den)
            coupled = (ModeExpansion(ModeLabel.COUPLED, "alpha2", (2, 0),
                                     (xs[0], ys[0])),
                       ModeExpansion(ModeLabel.COUPLED, "alpha3", (2, 0),
                                     (xs[1], ys[1])))
        else:
            # oscillatory pair: the subleading-correction denominator
            # 2 x rho0 + 1/Re is purely imaginary here, so the printed
            # correction is degenerate; report the leading order only
            coupled = (ModeExpansion(ModeLabel.COUPLED, "alpha2", (2,), (xs[0],)),
                       ModeExpansion(ModeLabel.COUPLED, "alpha3", (2,), (xs[1],)))
            aux["subleading"] = "omitted: oscillatory branch denominator degenerate"
        modes = (
            ModeExpansion(ModeLabel.VISCOUS, "alpha0", (2,), (-lin.inv_Re_s / r0,)),
            ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha1", (4, 2),
                          (-M11 * k11, -M11 * C[1, 1])),
        ) + coupled
    elif isinstance(model, (QuasiIncompressible, Incompressible)):
        return _phase_field_asymptotics(model, lin, "large_k")
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return AsymptoticCoefficients(regime="large_k", modes=modes, auxiliaries=aux)


def _phase_field_asymptotics(model, lin: PhaseFieldLinearization, regime: str):
    visc = ModeExpansion(ModeLabel.VISCOUS, "alpha0", (2,), (-lin.inv_Re_s / lin.rho0,))
    if isinstance(model, Incompressible) or lin.rho_hat_1 == lin.rho_hat_2:
        thermo = ModeExpansion(
            ModeLabel.THERMODYNAMIC, "alpha1", (2, 4),
            (-lin.M11 / lin.rho_hat_2**2 * lin.h_phi_phi,
             -lin.M11 / lin.rho_hat_1**2 * lin.kappa_phi_phi))
        return AsymptoticCoefficients(regime=regime, modes=(visc, thermo),
                                      auxiliaries={})
    r = lin.rho_hat_1 / lin.rho_hat_2
    Q = lin.phi0 - lin.rho_hat_2 / (lin.rho_hat_2 - lin.rho_hat_1)
    Aco = 1.0 / ((1.0 - r) ** 2 * lin.M11 / lin.rho_hat_1**2)
    iRe, r0, hpp, kpp = lin.inv_Re, lin.rho0, lin.h_phi_phi, lin.kappa_phi_phi
    if regime == "small_k":
        x1 = -hpp * Q * Q / Aco
        y1 = -kpp * Q * Q / Aco + hpp * Q * Q * iRe / Aco**2 \
            + r0 * (hpp * Q * Q) ** 2 / Aco**3
        thermo = ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha1", (2, 4), (x1, y1))
        coupled = ModeExpansion(ModeLabel.COUPLED, "alpha2", (0, 2),
                                (-Aco / r0, -iRe / r0 + hpp * Q * Q / Aco))
    else:
        disc = _csqrt(iRe * iRe - 4.0 * r0 * kpp * Q * Q)
        if disc.imag == 0.0 and iRe > 0:
            den = (iRe + disc.real) / 2.0
            thermo = ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha1", (2, 0),
                                   (-kpp * Q * Q / den, -hpp * Q * Q / den))
            coupled = ModeExpansion(ModeLabel.COUPLED, "alpha2", (2,),
                                    (-(iRe + disc.real) / (2.0 * r0),))
        else:
            thermo = ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha1", (2,),
                                   ((-iRe + disc) / (2.0 * r0),))
            coupled = ModeExpansion(ModeLabel.COUPLED, "alpha2", (2,),
                                    ((-iRe - disc) / (2.0 * r0),))
    return AsymptoticCoefficients(
        regime=regime, modes=(visc, thermo, coupled),
        auxiliaries={"Q": Q, "A": Aco})


# ---------------------------------------------------------------------------
# Explicit roots of the constrained classes
# ---------------------------------------------------------------------------


def quasi_explicit_roots(model: QuasiIncompressible, state: MixtureState, k):
    """Closed-form (alpha0, alpha1, alpha2) of the quasi-incompressible
    dispersion equation; requires unequal specific densities."""
    lin = model.linearization(state)
    if lin.rho_hat_1 == lin.rho_hat_2:
        raise RangeError(
            "equal specific densities: use incompressible_roots instead")
    k = np.asarray(k, dtype=float)
    Q = lin.phi0 - lin.rho_hat_2 / (lin.rho_hat_2 - lin.rho_hat_1)
    Aco = 1.0 / ((1.0 - lin.rho_hat_1 / lin.rho_hat_2) ** 2
                 * lin.M11 / lin.rho_hat_1**2)
    Dphi = lin.h_phi_phi + k * k * lin.kappa_phi_phi
    S = lin.inv_Re * k * k + Aco
    disc = np.sqrt(np.asarray(S * S - 4.0 * lin.rho0 * k * k * Dphi * Q * Q,
                              dtype=complex))
    alpha0 = -lin.inv_Re_s / lin.rho0 * k * k + 0j
    alpha1 = -2.0 * k * k * Dphi * Q * Q / (S + disc)
    alpha2 = (-S - disc) / (2.0 * lin.rho0)
    return alpha0, alpha1, alpha2


def incompressible_roots(lin_or_model, state: MixtureState, k):
    """(alpha0, alpha1) of the incompressible class, exactly as printed:
    alpha1 = -(M11/rho_hat_2^2) h'' k^2 - (M11/rho_hat_1^2) kappa k^4."""
    lin = lin_or_model.linearization(state) if hasattr(lin_or_model, "linearization") \
        else lin_or_model
    k = np.asarray(k, dtype=float)
    alpha0 = -lin.inv_Re_s / lin.rho0 * k * k
    alpha1 = (-lin.M11 / lin.rho_hat_2**2 * lin.h_phi_phi * k * k
              - lin.M11 / lin.rho_hat_1**2 * lin.kappa_phi_phi * k**4)
    return alpha0, alpha1


def spinodal_band_edge(model, state: MixtureState) -> float:
    """Upper wavenumber of the phase-field spinodal band,
    sqrt(-h''/kappa); zero when the state is linearly stable."""
    lin = model.linearization(state)
    if lin.h_phi_phi >= 0 or lin.kappa_phi_phi <= 0:
        return 0.0
    return float(np.sqrt(-lin.h_phi_phi / lin.kappa_phi_phi))


# ---------------------------------------------------------------------------
# Long-wave classification
# ---------------------------------------------------------------------------


class SignVerdict(Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"


@dataclass(frozen=True)
class StabilityReport:
    hessian: HessianReport
    category: str              # "C > 0", "C < 0", "C indefinite"
    verdicts: dict             # mode name -> SignVerdict
    g1: float


def classify_stability(hessian: HessianReport, p, M) -> StabilityReport:
    """Long-wave sign pattern of the four modes from the Hessian category.

    Requires a PSD mobility with at least one positive eigenvalue (so the
    thermodynamic weight g1 is positive).  Degenerate Hessians (singular,
    or p.C.p at the decision boundary) are reported, not guessed.
    """
    p = np.asarray(p, dtype=float)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    scale = max(np.linalg.norm(M), 1e-300)
    if np.min(eigs) < -1e-12 * scale or np.max(eigs) <= 1e-12 * scale:
        raise RangeError("mobility must be PSD with a positive eigenvalue")
    g1 = float(M[1, 1] * p[0] ** 2 + M[0, 0] * p[1] ** 2
               - 2.0 * M[0, 1] * p[0] * p[1])
    C = hessian.matrix
    scaleC = max(np.linalg.norm(C), 1e-300)
    pCp = hessian.quadratic_form_p
    det = hessian.det
    if hessian.definiteness is Definiteness.SINGULAR:
        raise DegenerateCase("Hessian is singular within tolerance")
    if abs(pCp) <= DEGENERATE_TOL * scaleC * float(p @ p):
        raise DegenerateCase("p.C.p sits on the decision boundary")
    if abs(det) <= DEGENERATE_TOL * scaleC**2:
        raise DegenerateCase("det C sits on the decision boundary")
    neg, pos = SignVerdict.NEGATIVE, SignVerdict.POSITIVE
    if hessian.definiteness is Definiteness.POSITIVE_DEFINITE:
        category = "C > 0"
        verdicts = {"alpha0": neg, "alpha1": neg, "alpha2": neg, "alpha3": neg}
    elif hessian.definiteness is Definiteness.NEGATIVE_DEFINITE:
        category = "C < 0"
        verdicts = {"alpha0": neg, "alpha1": pos, "alpha2": pos, "alpha3": neg}
    else:
        category = "C indefinite"
        same_sign = (pCp > 0) == (det > 0)
        verdicts = {
            "alpha0": neg,
            "alpha1": neg if same_sign else pos,
            "alpha2": neg if pCp > 0 else pos,
            "alpha3": neg,
        }
    return StabilityReport(hessian=hessian, category=category,
                           verdicts=verdicts, g1=g1)


# ---------------------------------------------------------------------------
# Sweeps with mode tracking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DispersionResult:
    """Tracked growth rates over a wavenumber grid.

    ``roots[i, j]`` is track j at k_grid[i]; ``labels[j]`` names the track
    by its long-wave character; ``ambiguous`` lists grid indices where two
    roots were too close to track reliably (labels may swap there).
    """

    k_grid: np.ndarray
    roots: np.ndarray
    vectors: np.ndarray
    labels: tuple
    mode_names: tuple
    residuals: np.ndarray
    ambiguous: tuple


def _match(previous: np.ndarray, current: np.ndarray):
    cost = np.abs(previous[:, None] - current[None, :])
    _, cols = linear_sum_assignment(cost)
    return cols


def sweep(model, state: MixtureState, k_grid) -> DispersionResult:
    """Growth rates over an increasing positive k grid with continuity-based
    mode tracking seeded from the long-wave asymptotics."""
    k_grid = np.asarray(k_grid, dtype=float)
    if np.any(k_grid <= 0) or np.any(np.diff(k_grid) <= 0):
        raise RangeError("k grid must be strictly increasing and positive")
    first = growth_rates(model, state, k_grid[0])
    nroots = first.alphas.size
    small = asymptotic_small_k(model, state)
    predicted = np.array([m.evaluate(k_grid[0]) for m in small.modes])
    order = _match(predicted, first.alphas)
    labels = tuple(m.label for m in small.modes)
    names = tuple(m.name for m in small.modes)

    roots = np.empty((k_grid.size, nroots), dtype=complex)
    vectors = np.empty((k_grid.size, nroots, 4), dtype=complex)
    residuals = np.empty((k_grid.size, nroots))
    roots[0] = first.alphas[order]
    vectors[0] = first.vectors[:, order].T
    residuals[0] = first.residuals[order]
    ambiguous = []
    for i, k in enumerate(k_grid[1:], start=1):
        gr = growth_rates(model, state, k)
        cols = _match(roots[i - 1], gr.alphas)
        roots[i] = gr.alphas[cols]
        vectors[i] = gr.vectors[:, cols].T
        residuals[i] = gr.residuals[cols]
        gaps = np.abs(gr.alphas[:, None] - gr.alphas[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < TRACK_GAP_TOL:
            ambiguous.append(i)
    return DispersionResult(
        k_grid=k_grid, roots=roots, vectors=vectors, labels=labels,
        mode_names=names, residuals=residuals, ambiguous=tuple(ambiguous))


def track_root_at(model, state: MixtureState, k: float, near: complex) -> complex:
    """Root at wavenumber k closest to ``near`` (used by band bisection)."""
    gr = growth_rates(model, state, k)
    return complex(gr.alphas[np.argmin(np.abs(gr.alphas - near))])


def unstable_bands(model, state: MixtureState, result: DispersionResult,
                   track: int, rel_tol: float = 1e-6):
    """(k_lo, k_hi) intervals where Re(alpha_track) > 0, endpoints sharpened
    by bisection on the tracked root to relative tolerance ``rel_tol``."""
    ks = result.k_grid
    re = result.roots[:, track].real
    sign = re > 0.0
    bands = []
    i = 0
    n = ks.size
    while i < n:
        if sign[i]:
            j = i
            while j + 1 < n and sign[j + 1]:
                j += 1
            k_lo = ks[i] if i == 0 else refine_edge(model, state, ks[i - 1], ks[i],
                                                    result.roots[i, track], rel_tol,
                                                    rising=True)
            k_hi = ks[j] if j == n - 1 else refine_edge(model, state, ks[j], ks[j + 1],
                                                        result.roots[j, track], rel_tol,
                                                        rising=False)
            bands.append((float(k_lo), float(k_hi)))
            i = j + 1
        else:
            i += 1
    return bands


def refine_edge(model, state, k_neg, k_pos, near, rel_tol, rising: bool):
    """Bisect a sign change of the tracked root's real part.

    ``rising=True``: Re(alpha) <= 0 at k_neg, > 0 at k_pos (band opens);
    ``rising=False``: > 0 at k_neg, <= 0 at k_pos (band closes).
    """
    a, b = float(k_neg), float(k_pos)
    alpha_near = complex(near)
    while (b - a) > rel_tol * b:
        m = 0.5 * (a + b)
        alpha = track_root_at(model, state, m, alpha_near)
        alpha_near = alpha
        positive = alpha.real > 0.0
        if positive == rising:
            b = m
        else:
            a = m
    return 0.5 * (a + b)


def band_peak(model, state: MixtureState, k_lo: float, k_hi: float,
              near: complex, tol: float = 1e-10):
    """Golden-section maximum of Re(alpha) for the root tracked from
    ``near`` on [k_lo, k_hi]; returns (k_peak, alpha_peak)."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0

    def re_at(k, seed):
        alpha = track_root_at(model, state, k, seed)
        return alpha.real, alpha

    a, b = float(k_lo), float(k_hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, seed = re_at(c, near)
    fd, seed = re_at(d, seed)
    while (b - a) > tol * max(b, 1.0):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc, seed = re_at(c, seed)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd, seed = re_at(d, seed)
    k_star = 0.5 * (a + b)
    alpha = track_root_at(model, state, k_star, seed)
    return k_star, alpha


def eigenvector_at(model, state: MixtureState, k: float, near: complex):
    """(alpha, eigenvector) of the root closest to ``near`` at wavenumber k,
    eigenvector normalized to unit length."""
    gr = growth_rates(model, state, k)
    i = int(np.argmin(np.abs(gr.alphas - near)))
    v = gr.vectors[:, i]
    return gr.alphas[i], v / np.linalg.norm(v)


def angular_deviation(vector, axis_index: int = 1) -> float:
    """Angle (radians) between a complex vector and the coordinate axis
    ``axis_index``; 0 means the perturbation is carried purely by that
    variable."""
    v = np.asarray(vector, dtype=complex)
    overlap = abs(v[axis_index]) / np.linalg.norm(v)
    return float(np.arccos(min(overlap, 1.0)))


def short_wave_stable_threshold(model, state: MixtureState, k_lo: float = 1e-2,
                                k_hi: float = 1e4, rel_tol: float = 1e-3) -> float:
    """Smallest wavenumber K (within [k_lo, k_hi], up to rel_tol) such that
    max Re(alpha) < 0 on a log grid of [K, k_hi]; verifies the absence of
    short-wave instability."""

    def max_re(k):
        return growth_rates(model, state, k).alphas.real.max()

    if max_re(k_hi) >= 0:
        raise NumericalError(f"still unstable at k = {k_hi}")
    a, b = k_lo, k_hi
    if max_re(a) < 0:
        return a
    while (b - a) > rel_tol * b:
        m = np.sqrt(a * b)
        if max_re(m) < 0:
            b = m
        else:
            a = m
    return b
