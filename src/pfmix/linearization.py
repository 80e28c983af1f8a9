"""Linearizations of the binary model classes about a constant state.

``model.linearization(state)`` returns one of the two objects below: one
for both compressible classes, one for the phase-field model.  Each owns
everything specific to its classes: the 4x4 dispersion pencil, the reduced
scalar dispersion polynomial and its band edges, the long- and short-wave
expansions, the Fourier symbols of the stiff linear terms and the names of
the pencil variables.  Pencil variable orders:

* compressible, global conservation:  (rho1, rho2, vx, vy)
* compressible, local conservation:   (rho, rho1, vx, vy)
* quasi-incompressible/incompressible: (Pi, phi, vx, vy)

so a perturbation growing purely in the partial density appears as the
eigenvector (0, 1, 0, 0).

Every class writes its pencil as alpha*B + A(k) with a constant B and an
A(k) with terms in k, k^2, k^3 and k^4, assembles A for a whole array of k
at once (``pencil_matrices``), and owns the standard form -B^-1 A(k) of
that pencil on the unknowns that carry alpha (``standard_form``) together
with the map of its eigenvectors back to all four variables
(``eigenvectors``).  Each entry of A is the same elementwise arithmetic
for every k, so one k gives the same bits alone or in a grid.  Every i k
of a pencil couples vx to another unknown, so the standard form is taken
in (.., vx / i, ..), where it is real: real roots come out real and
complex ones in exact conjugate pairs.

Each class gives the one-line verdict of a sweep's summary
(``classification``): the long-wave sign table of ``classify_stability``
for the compressible classes, the spinodal band for the phase-field one.

The linearizations hold arrays, so they compare and hash by identity
(``eq=False``), like the models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateCase, PfmixError, RangeError, SingularExpansion
from .free_energy import (MAP_INDEFINITE, MAP_NEGATIVE_DEFINITE, MAP_POSITIVE_DEFINITE,
                          MAP_SINGULAR, classify_matrices)

DEGENERATE_TOL = 1e-12

# |1 - rho_hat_1/rho_hat_2| <= sqrt(eps): the constraint's pressure weight
# (1 - r)^2 is below eps, and a 1-ulp change of the fields moves the
# quasi-incompressible right-hand side by O(1) (7e-2 at 1 - r = 1e-7).
EQUAL_DENSITY_RTOL = float(np.sqrt(np.finfo(float).eps))


def equal_specific_densities(rho_hat_1: float, rho_hat_2: float) -> bool:
    """The one test of "equal specific densities": a quasi-incompressible
    mixture inside it is treated as, and configured as, incompressible."""
    return abs(rho_hat_1 - rho_hat_2) <= EQUAL_DENSITY_RTOL * abs(rho_hat_2)


class ModeLabel(Enum):
    VISCOUS = "viscous"
    THERMODYNAMIC = "thermodynamic"
    COUPLED = "coupled"


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
        raise KeyError(f"no mode {name!r} among "
                       f"{', '.join(m.name for m in self.modes)}")

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


def _guard_denominator(value: float, scale: float, what: str, why: str = ""):
    if abs(value) <= DEGENERATE_TOL * max(scale, 1.0):
        raise SingularExpansion(f"{what} vanishes within tolerance{why}")


# p.C.p / rho0 is dP/drho at fixed composition, the squared sound speed
_NO_SOUND_SPEED = (
    ": the pressure does not change with the total density at fixed "
    "composition, so no long-wave acoustic expansion exists (an energy "
    "homogeneous of degree one in the densities, such as Flory-Huggins, "
    "gives this at every state); add a compressibility term to the bulk "
    "energy, or use the quasi_incompressible class")


def _csqrt(x: float) -> complex:
    return complex(np.sqrt(complex(x)))


def _viscous_mode(inv_Re_s: float, rho0: float) -> ModeExpansion:
    return ModeExpansion(ModeLabel.VISCOUS, "alpha0", (2,), (-inv_Re_s / rho0,))


# x = T x' with T = diag(1, 1, i, 1) makes T^-1 (alpha B + A) T real
_VX_BY_I = np.array([1.0, 1.0, 1j, 1.0])


class _Pencil:
    """The real standard form from the class's ``_reduce``/``_lift``."""

    def standard_form(self, A: np.ndarray) -> np.ndarray:
        """Real -B^-1 A(k) on the unknowns that carry alpha, with vx / i in
        place of vx, for a stack of A; its eigenvalues are the finite roots."""
        return self._reduce(_real_pencil(A))

    def eigenvectors(self, A: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Eigenvectors of the pencil in all four variables from the columns
        of Y, eigenvectors of ``standard_form(A)``."""
        return _VX_BY_I[:, None] * self._lift(_real_pencil(A), Y)


def _real_pencil(A: np.ndarray) -> np.ndarray:
    return (A * _VX_BY_I / _VX_BY_I[:, None]).real


def adjugate_form(M: np.ndarray, p: np.ndarray):
    """p.adj(M).p of a symmetric 2x2 M, or of each item of a stack
    (M ...x2x2, p ...x2)."""
    return (M[..., 1, 1] * p[..., 0] ** 2 + M[..., 0, 0] * p[..., 1] ** 2
            - 2.0 * M[..., 0, 1] * p[..., 0] * p[..., 1])


# ---------------------------------------------------------------------------
# Long-wave classification
# ---------------------------------------------------------------------------


class SignVerdict(Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"


CATEGORY = {MAP_POSITIVE_DEFINITE: "C > 0", MAP_NEGATIVE_DEFINITE: "C < 0",
            MAP_INDEFINITE: "C indefinite"}


@dataclass(frozen=True)
class StabilityReport:
    category: str              # "C > 0", "C < 0", "C indefinite"
    verdicts: dict             # mode name -> SignVerdict
    g1: float


def classify_stability(C, p, M) -> StabilityReport:
    """Long-wave sign pattern of the four modes from the bulk energy's
    symmetric Hessian C: its definiteness, det C and p.C.p.

    Requires a PSD mobility with at least one positive eigenvalue (so the
    thermodynamic weight g1 is positive).  Degenerate Hessians (singular,
    or p.C.p at the decision boundary) are reported, not guessed.  For a
    symmetric C, det C near 0 makes an eigenvalue singular, so det C needs
    no boundary check of its own.
    """
    C, p, M = (np.asarray(x, dtype=float) for x in (C, p, M))
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    scale_m = max(np.linalg.norm(M), 1e-300)
    if eigs.min() < -1e-12 * scale_m or eigs.max() <= 1e-12 * scale_m:
        raise RangeError("mobility must be PSD with a positive eigenvalue")
    code = int(classify_matrices(C))
    if code == MAP_SINGULAR:
        raise DegenerateCase("Hessian is singular within tolerance")
    pCp = float(p @ C @ p)
    if abs(pCp) <= DEGENERATE_TOL * max(np.linalg.norm(C), 1e-300) * float(p @ p):
        raise DegenerateCase("p.C.p sits on the decision boundary")
    det = float(np.linalg.det(C))
    negative, indefinite = code == MAP_NEGATIVE_DEFINITE, code == MAP_INDEFINITE
    growing = (False, negative or indefinite and (pCp > 0) != (det > 0),
               negative or indefinite and not pCp > 0, False)
    verdicts = {name: SignVerdict.POSITIVE if grows else SignVerdict.NEGATIVE
                for name, grows in zip(("alpha0", "alpha1", "alpha2", "alpha3"), growing)}
    return StabilityReport(category=CATEGORY[code], verdicts=verdicts,
                           g1=float(adjugate_form(M, p)))


# ---------------------------------------------------------------------------
# Compressible classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompressibleLinearization(_Pencil):
    """Both compressible classes.  C, K, p and the 2x2 mobility are in the
    order of the pencil's densities, the first two ``vector_fields``: the
    globally-conserving class has (rho1, rho2) and its mobility; the
    locally-conserving one has (rho, rho1) and diag(0, M11), the rank-one
    mobility by which only rho1 diffuses."""

    C: np.ndarray
    K: np.ndarray
    p: np.ndarray
    rho0: float
    inv_Re_s: float
    inv_Re: float
    mobility: np.ndarray
    vector_fields: tuple

    @property
    def B(self) -> np.ndarray:
        return np.diag([1.0, 1.0, self.rho0, self.rho0])

    @property
    def g1(self) -> float:
        """p.adj(M).p, the weight of the long-wave thermodynamic mode."""
        return float(adjugate_form(self.mobility, self.p))

    def pencil_matrices(self, k) -> np.ndarray:
        """A(k) for every k of a 1-D array, shape (k.size, 4, 4): the
        density-velocity coupling i k p, the pressure row i k p.D(k), the
        diffusion block k^2 M D(k) and the viscous diagonal, with
        D(k) = C + k^2 K."""
        k = np.asarray(k, dtype=float)
        D = self.C + (k * k)[:, None, None] * self.K
        p = self.p
        A = np.zeros((k.size, 4, 4), dtype=complex)
        # mu_l's perturbation is taken from column l of the Hessian (D^T),
        # which equals its row up to rounding
        A[:, :2, :2] = ((k * k)[:, None, None] * self.mobility) @ D.transpose(0, 2, 1)
        A[:, 0, 2] = 1j * p[0] * k
        A[:, 1, 2] = 1j * p[1] * k
        A[:, 2, 0] = 1j * k * (p[0] * D[:, 0, 0] + p[1] * D[:, 0, 1])
        A[:, 2, 1] = 1j * k * (p[1] * D[:, 1, 1] + p[0] * D[:, 0, 1])
        A[:, 2, 2] = self.inv_Re * k * k
        A[:, 3, 3] = self.inv_Re_s * k * k
        return A

    def _reduce(self, A: np.ndarray) -> np.ndarray:
        # B is diagonal and invertible
        return -A / np.diag(self.B)[:, None]

    def _lift(self, A: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return Y

    def classification(self) -> str:
        """The long-wave sign table of ``classify_stability`` on C, p and
        the mobility, or why it is unavailable."""
        try:
            rep = classify_stability(self.C, self.p, self.mobility)
        except PfmixError as exc:
            return f"long-wave classification unavailable: {exc}"
        verdicts = ", ".join(f"{k}={v.value}" for k, v in rep.verdicts.items())
        return f"long-wave classification [{rep.category}]: {verdicts}"

    def invariants(self):
        """(p.C.p, p.K.p, det C, det K, d) shared by both expansions."""
        C, K, p = self.C, self.K, self.p
        pCp = float(p @ C @ p)
        pKp = float(p @ K @ p)
        detC = float(np.linalg.det(C))
        detK = float(np.linalg.det(K))
        d = float(C[0, 0] * K[1, 1] + C[1, 1] * K[0, 0] - 2.0 * C[0, 1] * K[0, 1])
        return pCp, pKp, detC, detK, d

    def band_edges(self) -> np.ndarray:
        """Ascending k > 0 where the alpha^0 coefficient of the reduced
        polynomial vanishes: the only k where a root's real part changes
        sign.

        The linearization has the generalized Onsager form
        alpha x = -(R + W) E x, with R >= 0 (mobility and viscosity), W skew
        and E the energy's Hessian.  For alpha = i omega, omega != 0, the
        real part of (E x)^H alpha x gives R E x = 0; with 1/Re > 0 the
        velocities of E x vanish, so the skew coupling leaves alpha times
        the densities 0, and x = 0.  In s = k^2 that coefficient is
        s^2 (g1 + det M s / Re) det(C + s K), so the edges are the positive
        roots of det K s^2 + d s + det C.  Where it is identically 0
        (g1 = det M = 0, as with M11 = 0) a root is 0 at every k, and the
        edges are those of the next one,
        p.C.p + s (p.K.p + M:C / Re) + s^2 M:K / Re."""
        pCp, pKp, detC, detK, d = self.invariants()
        MK, MC = (float(np.tensordot(self.mobility, X)) * self.inv_Re
                  for X in (self.K, self.C))
        neutral = self.g1 == 0.0 and np.linalg.det(self.mobility) == 0.0
        s = np.roots([MK, pKp + MC, pCp] if neutral else [detK, d, detC])
        return np.sort(np.sqrt(s[(s.imag == 0.0) & (s.real > 0.0)].real))

    def reduced_polynomial(self, k: float) -> np.ndarray:
        D = self.C + k * k * self.K
        M, p, r0, iRe = self.mobility, self.p, self.rho0, self.inv_Re
        MD = float(np.tensordot(M, D))
        detM = float(np.linalg.det(M))
        detD = float(np.linalg.det(D))
        pDp = float(p @ D @ p)
        return np.array([
            k**4 * (iRe * detM * k**2 + self.g1) * detD,
            pDp * k**2 + iRe * MD * k**4 + r0 * detM * detD * k**4,
            k**2 * (iRe + r0 * MD),
            r0,
        ])

    def small_k(self) -> AsymptoticCoefficients:
        """alpha1 ~ x1 k^2 + y1 k^4 and the coupled pair +-xc k + y23 k^2."""
        C, M, p, r0, iRe = self.C, self.mobility, self.p, self.rho0, self.inv_Re
        pCp, pKp, detC, detK, d = self.invariants()
        _guard_denominator(pCp, np.linalg.norm(C) * float(p @ p), "p.C.p",
                           _NO_SOUND_SPEED)
        g1 = self.g1
        detM = float(np.linalg.det(M))
        MC = float(np.tensordot(M, C))
        r0MC = float(np.tensordot(r0 * M, C))
        x1 = -g1 * detC / pCp
        y1 = (-(x1**3 * r0 + x1**2 * (r0MC + iRe)
                + x1 * (pKp + MC * iRe + r0 * detM * detC)) / pCp
              - (g1 * d + iRe * detM * detC) / pCp)
        # (pC).M.(pC), the mobility's weight on the pressure's gradient
        q0 = p[0] * C[0, 0] + p[1] * C[1, 0]
        q1 = p[0] * C[0, 1] + p[1] * C[1, 1]
        y23 = (-iRe / (2.0 * r0)
               - (M[0, 0] * q0**2 + 2.0 * M[0, 1] * q0 * q1 + M[1, 1] * q1**2)
               / (2.0 * pCp))
        xc = _csqrt(-pCp / r0)
        modes = (
            _viscous_mode(self.inv_Re_s, r0),
            ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha1", (2, 4), (x1, y1)),
            ModeExpansion(ModeLabel.COUPLED, "alpha2", (1, 2), (xc, y23)),
            ModeExpansion(ModeLabel.COUPLED, "alpha3", (1, 2), (-xc, y23)),
        )
        aux = {"g1": g1, "d": d, "p.C.p": pCp, "det_C": detC}
        return AsymptoticCoefficients(regime="small_k", modes=modes, auxiliaries=aux)

    def large_k(self) -> AsymptoticCoefficients:
        C, K, M, r0, iRe = self.C, self.K, self.mobility, self.rho0, self.inv_Re
        pCp, pKp, detC, detK, d = self.invariants()
        detM = float(np.linalg.det(M))
        lam = float(np.trace(M))
        if not np.any(M):
            modes, aux = self._zero_mobility_large_k(pCp, pKp)
        elif lam > 0 and abs(detM) <= DEGENERATE_TOL * lam * lam:
            modes, aux = self._rank_one_large_k(lam, pKp, detK, d)
        else:
            g1 = self.g1
            MK = float(np.tensordot(M, K))
            MC = float(np.tensordot(M, C))
            # x^2 + (M:K) x + |M||K| = 0 for the two k^4 branches
            disc = _csqrt(MK * MK - 4.0 * detM * detK)
            modes = []
            for name, x in (("alpha1", (-MK + disc) / 2.0),
                            ("alpha2", (-MK - disc) / 2.0)):
                den = r0 * (3.0 * x * x + 2.0 * x * MK + detM * detK)
                num = -(iRe * detM * detK + x * x * (iRe + r0 * MC)
                        + x * (iRe * MK + r0 * detM * d))
                if abs(den) <= DEGENERATE_TOL * abs(r0) * max(MK**2, 1.0):
                    raise SingularExpansion("k^4 branch denominator vanishes")
                modes.append(ModeExpansion(ModeLabel.THERMODYNAMIC, name, (4, 2),
                                           (x, num / den)))
            x3 = -iRe / r0
            if detM * detK != 0.0 and iRe > 0:
                y3 = -(x3**2 * r0 * MK + x3 * (r0 * detM * d + iRe * MK)
                       + detM * iRe * d + g1 * detK) / (r0 * detM * detK)
                alpha3 = (2, 0), (x3, y3)
            else:
                alpha3 = (2,), (x3,)
            modes.append(ModeExpansion(ModeLabel.COUPLED, "alpha3", *alpha3))
            aux = {"g1": g1, "d": d, "M:K": MK, "det_M": detM, "det_K": detK}
        return AsymptoticCoefficients(
            regime="large_k", modes=(_viscous_mode(self.inv_Re_s, r0), *modes),
            auxiliaries=aux)

    def _zero_mobility_large_k(self, pCp, pKp):
        """M = 0: nothing diffuses, so alpha1 = 0 exactly, and the coupled
        pair solves rho0 a^2 + (1/Re) k^2 a + k^2 p.D(k).p = 0 with D(k) =
        C + k^2 K: a ~ x k^2 + y with rho0 x^2 + x / Re + p.K.p = 0 and
        y = -p.C.p / (2 rho0 x + 1/Re), a relative error of O(k^-4)."""
        r0, iRe = self.rho0, self.inv_Re
        disc = _csqrt(iRe * iRe - 4.0 * r0 * pKp)
        _guard_denominator(abs(disc), max(iRe * iRe, abs(r0 * pKp)) ** 0.5,
                           "coupled pair discriminant")
        return (ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha1", (4, 2), (0.0, 0.0)),
                ) + tuple(ModeExpansion(ModeLabel.COUPLED, name, (2, 0),
                                        ((-iRe + s * disc) / (2.0 * r0), -pCp / (s * disc)))
                          for name, s in (("alpha2", 1.0), ("alpha3", -1.0))), \
            {"p.C.p": pCp, "p.K.p": pKp}

    def _rank_one_large_k(self, lam, pKp, detK, d):
        """M = lam P with P = M / tr M: one diffusive mode -(M:K) k^4 - (M:C)
        k^2 and a coupled pair x k^2 + y with rho0 (M:K) x^2 + (M:K) x / Re
        + g1 det K = 0.  Written with P:K, P:C and p.adj(P).p, which are
        exactly K[1, 1], C[1, 1] and rho^2 for local conservation's diag(0, M11)."""
        r0, iRe, P = self.rho0, self.inv_Re, self.mobility / lam
        PK, PC = float(np.tensordot(P, self.K)), float(np.tensordot(P, self.C))
        G = float(adjugate_form(P, self.p))
        if PK <= 0:
            raise SingularExpansion("short-wave expansion needs M:K > 0 "
                                    "(kappa_rho1_rho1 > 0 for local conservation)")
        disc = _csqrt(iRe * iRe - 4.0 * r0 * G * detK / PK)
        xs = ((-iRe + disc) / (2.0 * r0), (-iRe - disc) / (2.0 * r0))
        aux = {"d": d, "det_K": detK, "x23": xs}
        if disc.imag == 0.0:
            powers, coefficients = (2, 0), []
            for x in xs:
                den = 2.0 * x * r0 * lam * PK + lam * PK * iRe
                _guard_denominator(abs(den), max(abs(r0 * lam * PK), 1.0),
                                   "k^2 branch denominator")
                coefficients.append((x, -lam * G * d / den
                                     - (x**3 * r0 + x**2 * (r0 * lam * PC + iRe)
                                        + x * (lam * PC * iRe + pKp)) / den))
        else:
            # oscillatory pair: the subleading-correction denominator
            # 2 x rho0 + 1/Re is purely imaginary here, so the printed
            # correction is degenerate; report the leading order only
            powers, coefficients = (2,), [(x,) for x in xs]
            aux["subleading"] = "omitted: oscillatory branch denominator degenerate"
        return (
            ModeExpansion(ModeLabel.THERMODYNAMIC, "alpha1", (4, 2),
                          (-lam * PK, -lam * PC)),
        ) + tuple(ModeExpansion(ModeLabel.COUPLED, name, powers, c)
                  for name, c in zip(("alpha2", "alpha3"), coefficients)), aux

    def stiff_symbols(self, k2: np.ndarray) -> dict:
        """Symbols keyed by field name, in the order of the standard form's
        unknowns: the two densities, then mx and my, which decay at the
        viscous rates of vx and vy, 1/Re k^2 / rho0."""
        k4 = k2 * k2
        C, K, Md = self.C, self.K, np.diag(self.mobility)
        return {
            self.vector_fields[0]: Md[0] * (K[0, 0] * k4 + max(C[0, 0], 0.0) * k2),
            self.vector_fields[1]: Md[1] * (K[1, 1] * k4 + max(C[1, 1], 0.0) * k2),
            "mx": self.inv_Re * k2 / self.rho0,
            "my": self.inv_Re_s * k2 / self.rho0,
        }


# ---------------------------------------------------------------------------
# Phase-field classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhaseFieldLinearization(_Pencil):
    """Quasi-incompressible and incompressible classes.  ``one_minus_r``
    is the model's 1 - r, r = rho_hat_1 / rho_hat_2, exactly 0 for equal
    specific densities (``equal_densities``): the divergence constraint is
    then the incompressible one and the coupled mode drops out of the
    pencil."""

    h_phi_phi: float
    kappa_phi_phi: float
    phi0: float
    rho_hat_1: float
    rho_hat_2: float
    one_minus_r: float
    rho0: float
    M11: float
    inv_Re_s: float
    inv_Re: float

    vector_fields = ("Pi", "phi", "vx", "vy")

    @property
    def equal_densities(self) -> bool:
        return self.one_minus_r == 0.0

    @property
    def Mh(self) -> float:
        return self.M11 / self.rho_hat_1**2

    @property
    def B(self) -> np.ndarray:
        B = np.diag([0.0, 1.0, self.rho0, self.rho0])
        B[0, 1] = -self.one_minus_r
        return B

    def pencil_matrices(self, k) -> np.ndarray:
        """A(k) for every k of a 1-D array, shape (k.size, 4, 4); rows: mass
        conservation / divergence constraint, phase transport, longitudinal
        and transverse momentum."""
        k = np.asarray(k, dtype=float)
        r1, Mh = self.one_minus_r, self.Mh
        Dphi = self.h_phi_phi + k * k * self.kappa_phi_phi
        A = np.zeros((k.size, 4, 4), dtype=complex)
        A[:, 0, 2] = 1j * k * (1.0 - self.phi0 * r1)
        A[:, 1, 0] = Mh * k * k * r1
        A[:, 1, 1] = Mh * k * k * Dphi
        A[:, 1, 2] = 1j * k * self.phi0
        A[:, 2, 0] = 1j * k
        A[:, 2, 1] = 1j * k * self.phi0 * Dphi
        A[:, 2, 2] = self.inv_Re * k * k
        A[:, 3, 3] = self.inv_Re_s * k * k
        return A

    def _reduce(self, A: np.ndarray) -> np.ndarray:
        """Pi enters without alpha (column 0 of B is zero), so B is singular
        and Pi is eliminated from the assembled rows:

        * unequal densities (index 1): row 0 minus B01/B11 times row 1 has
          no alpha and gives Pi from (phi, vx, vy); its Schur complement
          leaves a 3x3 system;
        * equal densities (index 2): row 0 is i k vx = 0, which has no Pi,
          so vx = 0; Pi enters only row 2, which then gives Pi from
          (phi, vy), leaving rows 1 and 3 on (phi, vy).
        """
        keep, Pi_row = self._elimination(A)
        Ak = A[:, keep][:, :, keep]
        if not self.equal_densities:
            Ak = Ak - A[:, keep, :1] * (Pi_row[:, None, keep] / Pi_row[:, None, :1])
        return -Ak / np.diag(self.B)[keep][:, None]

    def _lift(self, A: np.ndarray, Y: np.ndarray) -> np.ndarray:
        # an eliminated vx is zero
        keep, Pi_row = self._elimination(A)
        X = np.zeros((Y.shape[0], 4, Y.shape[2]), dtype=complex)
        X[:, keep] = Y
        X[:, 0] = -np.einsum("nj,njm->nm", Pi_row[:, keep], Y) / Pi_row[:, :1]
        return X

    def _elimination(self, A: np.ndarray):
        """The unknowns kept in the standard form (their rows are kept too)
        and, for each A of the stack, the row that gives Pi from them."""
        if self.equal_densities:
            return [1, 3], A[:, 2]
        B = self.B
        return [1, 2, 3], A[:, 0] - (B[0, 1] / B[1, 1]) * A[:, 1]

    def band_edges(self) -> np.ndarray:
        """The spinodal edge sqrt(-h''/kappa), where the alpha^0 coefficient
        of the reduced polynomial, k^4 Mh (h'' + kappa k^2) times a positive
        factor, vanishes; empty when h'' >= 0.  As for the compressible
        classes, with 1/Re > 0 no root crosses the imaginary axis off 0."""
        if self.h_phi_phi < 0.0 < self.kappa_phi_phi:
            return np.sqrt(np.array([-self.h_phi_phi / self.kappa_phi_phi]))
        return np.empty(0)

    def classification(self) -> str:
        """The spinodal band (0, ``band_edges()``), where h'' < 0."""
        edges = self.band_edges()
        return (f"spinodal band: (0, {edges[0]:.17g})" if edges.size
                else "no spinodal band (h_phi_phi >= 0)")

    def reduced_polynomial(self, k: float) -> np.ndarray:
        """With 1 - r = 0 the alpha^2 coefficient is 0 and the polynomial is
        k^2 (alpha + Mh k^2 Dphi), the phase mode alone."""
        r1, Mh = self.one_minus_r, self.Mh
        Dphi = self.h_phi_phi + k * k * self.kappa_phi_phi
        Qbar = 1.0 - r1 * self.phi0
        return np.array([
            k**4 * Mh * Dphi * Qbar**2,
            k**2 + self.inv_Re * Mh * r1 ** 2 * k**4,
            self.rho0 * Mh * r1 ** 2 * k**2,
        ])

    def small_k(self) -> AsymptoticCoefficients:
        return self._expansions("small_k")

    def large_k(self) -> AsymptoticCoefficients:
        return self._expansions("large_k")

    def _expansions(self, regime: str) -> AsymptoticCoefficients:
        visc = _viscous_mode(self.inv_Re_s, self.rho0)
        if self.equal_densities:
            thermo = ModeExpansion(
                ModeLabel.THERMODYNAMIC, "alpha1", (2, 4),
                (-self.M11 / self.rho_hat_2**2 * self.h_phi_phi,
                 -self.M11 / self.rho_hat_1**2 * self.kappa_phi_phi))
            return AsymptoticCoefficients(regime=regime, modes=(visc, thermo),
                                          auxiliaries={})
        Q, Aco = self.Q, self.Aco
        iRe, r0, hpp, kpp = self.inv_Re, self.rho0, self.h_phi_phi, self.kappa_phi_phi
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

    @property
    def Q(self) -> float:
        return self.phi0 - self.rho_hat_2 / (self.rho_hat_2 - self.rho_hat_1)

    @property
    def Aco(self) -> float:
        """Coupled-mode coefficient 1 / ((1 - r)^2 M11 / rho_hat_1^2)."""
        return 1.0 / (self.one_minus_r ** 2 * self.M11 / self.rho_hat_1**2)

    def stiff_symbols(self, k2: np.ndarray) -> dict:
        """Symbols keyed by field name, in the order of the standard form's
        unknowns: with equal densities vx is eliminated (it is stationary)."""
        k4 = k2 * k2
        symbols = {
            "phi": self.Mh * (self.kappa_phi_phi * k4 + max(self.h_phi_phi, 0.0) * k2),
            "vx": self.inv_Re * k2 / self.rho0,
            "vy": self.inv_Re_s * k2 / self.rho0,
        }
        if self.equal_densities:
            del symbols["vx"]
        return symbols
