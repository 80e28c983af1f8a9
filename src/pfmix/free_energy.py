"""Bulk free energy densities for binary fluid mixtures.

Provides the quadratic, Flory-Huggins and Peng-Robinson bulk energies
together with their analytic gradients and Hessians, the gradient-energy
coefficient matrix and definiteness classification.  One change of
variables, h(offset + T x) with kappa -> T^T kappa T, carries a (rho1,
rho2) energy to the (rho1, rho) formulation (``TildeFreeEnergy``) and a
(rho1, rho) energy to the volume fraction phi (``PhiFreeEnergy``).

Peng-Robinson parameters follow the standard 1976 prescription: for each
species, from critical temperature Tc, critical pressure Pc and acentric
factor omega,

    a_i(T) = 0.45724 R^2 Tc^2 / Pc * [1 + kappa_i (1 - sqrt(T/Tc))]^2
    b_i    = 0.07780 R Tc / Pc
    kappa_i = 0.37464 + 1.54226 omega - 0.26992 omega^2

(Peng & Robinson, Ind. Eng. Chem. Fundam. 15 (1976) 59), combined with
van der Waals one-fluid mixing rules a_ij = sqrt(a_i a_j)(1 - k_ij),
b = sum_i y_i b_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .errors import DomainError, RangeError, ShapeError

SQRT2 = np.sqrt(2.0)

# An eigenvalue counts as zero if |lam| <= DEFINITENESS_TOL * ||C||_F.
DEFINITENESS_TOL = 1e-10


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    NEGATIVE_DEFINITE = "negative_definite"
    INDEFINITE = "indefinite"
    SINGULAR = "singular"


# Definiteness codes of classify_matrices, the concavity map and its CLI output.
MAP_EXCLUDED = 0
MAP_POSITIVE_DEFINITE = 1
MAP_INDEFINITE = 2
MAP_NEGATIVE_DEFINITE = 3
MAP_SINGULAR = 4

_BY_CODE = (None, Definiteness.POSITIVE_DEFINITE, Definiteness.INDEFINITE,
            Definiteness.NEGATIVE_DEFINITE, Definiteness.SINGULAR)


def classify_matrices(H) -> np.ndarray:
    """Definiteness code of every matrix C of a (..., n, n) stack, shape (...);
    an eigenvalue with |lam| <= DEFINITENESS_TOL * ||C||_F makes C singular."""
    H = np.asarray(H, dtype=float)
    eigs = np.linalg.eigvalsh(0.5 * (H + np.swapaxes(H, -1, -2)))
    tol = DEFINITENESS_TOL * np.linalg.norm(H, axis=(-2, -1))
    codes = np.where((eigs > 0).all(axis=-1), MAP_POSITIVE_DEFINITE,
                     np.where((eigs < 0).all(axis=-1), MAP_NEGATIVE_DEFINITE,
                              MAP_INDEFINITE))
    return np.where((np.abs(eigs) <= tol[..., None]).any(axis=-1), MAP_SINGULAR, codes)


def classify_matrix(C: np.ndarray) -> Definiteness:
    return _BY_CODE[int(classify_matrices(C))]


# ---------------------------------------------------------------------------
# Gradient-energy coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientCoefficients:
    """Symmetric positive semi-definite matrix of square-gradient coefficients.

    Positive semi-definiteness is required for short-wave stability and is
    enforced at construction.
    """

    kappa: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kappa, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ShapeError(f"kappa must be square, got shape {k.shape}")
        if not np.array_equal(k, k.T):
            raise ShapeError("kappa must be symmetric")
        scale = np.linalg.norm(k)
        if scale > 0 and np.min(np.linalg.eigvalsh(k)) < -1e-12 * scale:
            raise RangeError("kappa must be positive semi-definite")
        object.__setattr__(self, "kappa", k)

    @property
    def n(self) -> int:
        return self.kappa.shape[0]


# ---------------------------------------------------------------------------
# Bulk free energies
# ---------------------------------------------------------------------------


class BulkFreeEnergy:
    """Base for bulk energy densities h(densities).

    ``densities`` arrays have the variable axis last: shape (..., nvar).
    Subclasses implement ``_value`` and the analytic ``_gradient`` and
    ``_hessian``, assuming the domain has been checked.
    """

    variables: tuple[str, ...] = ()

    @property
    def nvar(self) -> int:
        return len(self.variables)

    # -- domain ------------------------------------------------------------
    def _domain_checks(self, rho):
        """The domain as ordered pointwise checks: yields (bad_mask, reason)
        pairs over the points of ``rho``.  Subclasses extend the sequence."""
        yield ~np.isfinite(rho).all(axis=-1), "non-finite density"

    def domain_mask(self, rho: np.ndarray) -> np.ndarray:
        """Boolean mask over the points of ``rho``: True where in the domain."""
        rho = np.asarray(rho, dtype=float)
        ok = np.ones(rho.shape[:-1], dtype=bool)
        with np.errstate(invalid="ignore", over="ignore"):
            for bad, _ in self._domain_checks(rho):
                ok &= ~bad
        return ok

    def domain_violation(self, rho: np.ndarray):
        """Return (flat_index, message) of the first out-of-domain point, or
        None: the first failing check, at its first bad point."""
        for bad, reason in self._domain_checks(np.asarray(rho, dtype=float)):
            if np.any(bad):
                return int(np.argmax(bad.ravel())), reason
        return None

    def check_domain(self, rho: np.ndarray, pointwise: bool = False) -> None:
        hit = self.domain_violation(rho)
        if hit is not None:
            idx, msg = hit
            raise DomainError(
                f"{type(self).__name__}: {msg}", index=idx if pointwise else None
            )

    def in_domain(self, rho: np.ndarray) -> bool:
        return self.domain_violation(np.asarray(rho, dtype=float)) is None

    # -- evaluation ----------------------------------------------------------
    def value(self, rho, pointwise: bool = False):
        rho = np.asarray(rho, dtype=float)
        self.check_domain(rho, pointwise=pointwise)
        return self._value(rho)

    def gradient(self, rho, pointwise: bool = False):
        rho = np.asarray(rho, dtype=float)
        self.check_domain(rho, pointwise=pointwise)
        return self._gradient(rho)

    def hessian(self, rho, pointwise: bool = False):
        rho = np.asarray(rho, dtype=float)
        self.check_domain(rho, pointwise=pointwise)
        return self._hessian(rho)


class Quadratic(BulkFreeEnergy):
    """h(rho) = 1/2 rho.C.rho + g.rho with an explicit Hessian C."""

    def __init__(self, C, g=None, variables=None):
        C = np.atleast_2d(np.asarray(C, dtype=float))
        if C.shape[0] != C.shape[1]:
            raise ShapeError("C must be square")
        if not np.allclose(C, C.T):
            raise ShapeError("C must be symmetric")
        self.C = 0.5 * (C + C.T)
        self.g = np.zeros(C.shape[0]) if g is None else np.asarray(g, dtype=float)
        if self.g.shape != (C.shape[0],):
            raise ShapeError("g must match C")
        self.variables = tuple(variables) if variables else tuple(
            f"rho{i + 1}" for i in range(C.shape[0])
        )

    def _value(self, rho):
        return 0.5 * np.einsum("...i,ij,...j->...", rho, self.C, rho) + rho @ self.g

    def _gradient(self, rho):
        return rho @ self.C + self.g

    def _hessian(self, rho):
        shape = rho.shape[:-1] + self.C.shape
        return np.broadcast_to(self.C, shape).copy()


class FloryHuggins(BulkFreeEnergy):
    """Flory-Huggins mixing energy for a polymeric binary mixture.

    h = (kB T / m) [ rho1/N1 ln(rho1/rho) + rho2/N2 ln(rho2/rho)
                     + chi rho1 rho2 / rho ],   rho = rho1 + rho2.

    The mass m of an average molecule is a free scaling parameter; only the
    combination kB T / m enters.
    """

    variables = ("rho1", "rho2")

    def __init__(self, kBT_over_m: float, N1: float, N2: float, chi: float):
        if kBT_over_m <= 0 or N1 <= 0 or N2 <= 0:
            raise RangeError("kBT_over_m, N1, N2 must be positive")
        self.c = float(kBT_over_m)
        self.N1 = float(N1)
        self.N2 = float(N2)
        self.chi = float(chi)

    def _domain_checks(self, rho):
        yield from super()._domain_checks(rho)
        yield (rho <= 0.0).any(axis=-1), "density <= 0"

    def _value(self, rho):
        r1, r2 = rho[..., 0], rho[..., 1]
        r = r1 + r2
        return self.c * (r1 / self.N1 * np.log(r1 / r)
                         + r2 / self.N2 * np.log(r2 / r)
                         + self.chi * r1 * r2 / r)

    def _gradient(self, rho):
        r1, r2 = rho[..., 0], rho[..., 1]
        r = r1 + r2
        g1 = (np.log(r1 / r) + r2 / r) / self.N1 - (r2 / r) / self.N2 \
            + self.chi * (r2 / r) ** 2
        g2 = (np.log(r2 / r) + r1 / r) / self.N2 - (r1 / r) / self.N1 \
            + self.chi * (r1 / r) ** 2
        return self.c * np.stack([g1, g2], axis=-1)

    def _hessian(self, rho):
        r1, r2 = rho[..., 0], rho[..., 1]
        r = r1 + r2
        h11 = r2**2 / (r1 * r**2) / self.N1 + r2 / r**2 / self.N2 \
            - 2.0 * self.chi * r2**2 / r**3
        h22 = r1**2 / (r2 * r**2) / self.N2 + r1 / r**2 / self.N1 \
            - 2.0 * self.chi * r1**2 / r**3
        h12 = -r2 / r**2 / self.N1 - r1 / r**2 / self.N2 \
            + 2.0 * self.chi * r1 * r2 / r**3
        H = np.empty(rho.shape[:-1] + (2, 2))
        H[..., 0, 0] = h11
        H[..., 0, 1] = H[..., 1, 0] = h12
        H[..., 1, 1] = h22
        return self.c * H


@dataclass(frozen=True)
class PRSpecies:
    """Critical constants of one species for the Peng-Robinson EOS."""

    name: str
    Tc: float
    Pc: float
    acentric: float
    molar_mass: float


def load_species_data():
    """Load the bundled species data file (SI units: K, Pa, kg/mol)."""
    text = resources.files("pfmix.data").joinpath("pr_species.json").read_text()
    payload = json.loads(text)
    return {
        name: PRSpecies(name=name, **rec) for name, rec in payload["species"].items()
    }


def pr_pure_coefficients(species: PRSpecies, T: float, R: float):
    """Standard Peng-Robinson a_i(T), b_i for one species."""
    if T <= 0:
        raise RangeError("temperature must be positive")
    kap = 0.37464 + 1.54226 * species.acentric - 0.26992 * species.acentric**2
    alpha = (1.0 + kap * (1.0 - np.sqrt(T / species.Tc))) ** 2
    a = 0.45724 * R**2 * species.Tc**2 / species.Pc * alpha
    b = 0.07780 * R * species.Tc / species.Pc
    return a, b


class PengRobinson(BulkFreeEnergy):
    """Peng-Robinson Helmholtz free energy density of a binary mixture.

    In molar densities n_i = rho_i / m_i, with B = b1 n1 + b2 n2 and
    A = a1 n1^2 + 2 a12 n1 n2 + a2 n2^2 (van der Waals mixing),

        h = RT sum_i n_i (ln(n_i lam^3) - 1)  -  n RT ln(1 - B)
            + A / (2 sqrt(2) B) * ln[(1 + (1-sqrt2) B) / (1 + (1+sqrt2) B)].

    The thermal wavelength lam only shifts h linearly in the densities and
    defaults to 1.  Physical domain: n_i > 0 and B < 1.
    """

    variables = ("rho1", "rho2")

    def __init__(self, species1: PRSpecies, species2: PRSpecies, temperature: float,
                 gas_constant: float = 8.31446261815324, k12: float = 0.0,
                 thermal_wavelength: float = 1.0):
        self.species = (species1, species2)
        self.T = float(temperature)
        self.R = float(gas_constant)
        self.k12 = float(k12)
        self.lam = float(thermal_wavelength)
        a1, b1 = pr_pure_coefficients(species1, self.T, self.R)
        a2, b2 = pr_pure_coefficients(species2, self.T, self.R)
        self.a = np.array([[a1, np.sqrt(a1 * a2) * (1.0 - self.k12)],
                           [np.sqrt(a1 * a2) * (1.0 - self.k12), a2]])
        self.b = np.array([b1, b2])
        self.m = np.array([species1.molar_mass, species2.molar_mass])
        self.RT = self.R * self.T

    @classmethod
    def from_mixture_coefficients(cls, a_matrix, b, molar_masses, RT,
                                  thermal_wavelength: float = 1.0):
        """Construct directly from mixture-level coefficients (bypassing the
        critical-constant prescription); used for testing and calibration."""
        self = cls.__new__(cls)
        self.species = None
        self.T = float(RT)
        self.R = 1.0
        self.k12 = float("nan")
        self.lam = float(thermal_wavelength)
        self.a = np.asarray(a_matrix, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.m = np.asarray(molar_masses, dtype=float)
        self.RT = float(RT)
        return self

    # -- helpers -------------------------------------------------------------
    def _moles(self, rho):
        return rho / self.m

    def _AB(self, nm):
        B = nm @ self.b
        A = np.einsum("...i,ij,...j->...", nm, self.a, nm)
        Ai = 2.0 * nm @ self.a
        return A, Ai, B

    def _domain_checks(self, rho):
        yield from super()._domain_checks(rho)
        nm = self._moles(rho)
        yield (nm <= 0.0).any(axis=-1), "molar density <= 0"
        yield nm @ self.b >= 1.0, "covolume packing b.n >= 1"

    @staticmethod
    def _L(B):
        return np.log1p((1.0 - SQRT2) * B) - np.log1p((1.0 + SQRT2) * B)

    @staticmethod
    def _Lp(B):
        return -2.0 * SQRT2 / (1.0 + 2.0 * B - B * B)

    @staticmethod
    def _Lpp(B):
        return 2.0 * SQRT2 * (2.0 - 2.0 * B) / (1.0 + 2.0 * B - B * B) ** 2

    # -- evaluation ------------------------------------------------------------
    def _value(self, rho):
        nm = self._moles(rho)
        n = nm.sum(axis=-1)
        A, _, B = self._AB(nm)
        ideal = self.RT * np.sum(nm * (np.log(nm) - 1.0), axis=-1) \
            + self.RT * n * np.log(self.lam**3)
        rep = -n * self.RT * np.log1p(-B)
        attr = A / (2.0 * SQRT2 * B) * self._L(B)
        return ideal + rep + attr

    def _gradient(self, rho):
        nm = self._moles(rho)
        n = nm.sum(axis=-1)[..., None]
        A, Ai, B = self._AB(nm)
        A, B = A[..., None], B[..., None]
        L, Lp = self._L(B), self._Lp(B)
        dn = (self.RT * (np.log(nm) + np.log(self.lam**3))
              - self.RT * np.log1p(-B)
              + n * self.RT * self.b / (1.0 - B)
              + (Ai / (2.0 * SQRT2 * B) - A * self.b / (2.0 * SQRT2 * B**2)) * L
              + A / (2.0 * SQRT2 * B) * Lp * self.b)
        return dn / self.m

    def _hessian(self, rho):
        nm = self._moles(rho)
        n = nm.sum(axis=-1)[..., None, None]
        A, Ai, B = self._AB(nm)
        A, B = A[..., None, None], B[..., None, None]
        L, Lp, Lpp = self._L(B), self._Lp(B), self._Lpp(B)
        bi = self.b[:, None]
        bj = self.b[None, :]
        Ai_ = Ai[..., :, None]
        Aj_ = Ai[..., None, :]
        s = 2.0 * SQRT2
        ideal = np.zeros(nm.shape[:-1] + (2, 2))
        ideal[..., 0, 0] = self.RT / nm[..., 0]
        ideal[..., 1, 1] = self.RT / nm[..., 1]
        rep = self.RT * (bi + bj) / (1.0 - B) + n * self.RT * bi * bj / (1.0 - B) ** 2
        F = ((2.0 * self.a / (s * B) - (Ai_ * bj + Aj_ * bi) / (s * B**2)
              + 2.0 * A * bi * bj / (s * B**3)) * L
             + (Ai_ / (s * B) - A * bi / (s * B**2)) * Lp * bj
             + (Aj_ / (s * B) - A * bj / (s * B**2)) * Lp * bi
             + A / (s * B) * Lpp * bi * bj)
        H = ideal + rep + F
        return H / (self.m[:, None] * self.m[None, :])


# ---------------------------------------------------------------------------
# Coordinate changes
# ---------------------------------------------------------------------------

# d(rho1, rho2) = J d(rho1, rho) with rho2 = rho - rho1.
J_RHO1_RHO = np.array([[1.0, 0.0], [-1.0, 1.0]])


class ChangeOfVariables(BulkFreeEnergy):
    """A base energy in new variables x: h(offset + T x), with gradient
    T^T g, Hessian T^T H T and the base energy's domain checks at offset +
    T x; its gradient coefficients map to T^T kappa T (:meth:`map_kappa`)."""

    def __init__(self, base: BulkFreeEnergy, T, offset, variables):
        self.base = base
        self.T = np.asarray(T, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        self.variables = tuple(variables)

    def _to_base(self, x):
        """offset + T x over T's nonzero entries only: a zero entry times a
        non-finite coordinate would put nan in every base variable."""
        out = np.broadcast_to(self.offset, x.shape[:-1] + self.offset.shape).copy()
        for i, j in zip(*np.nonzero(self.T)):
            out[..., i] += self.T[i, j] * x[..., j]
        return out

    def _domain_checks(self, x):
        return self.base._domain_checks(self._to_base(x))

    def _value(self, x):
        return self.base._value(self._to_base(x))

    def _gradient(self, x):
        return self.base._gradient(self._to_base(x)) @ self.T

    def _hessian(self, x):
        H = self.base._hessian(self._to_base(x))
        return np.einsum("ki,...kl,lj->...ij", self.T, H, self.T)

    def map_kappa(self, kappa: GradientCoefficients) -> np.ndarray:
        """The base variables' gradient coefficients in x: T^T kappa T."""
        if kappa.n != self.base.nvar:
            raise ShapeError(f"variable change needs a kappa of size {self.base.nvar}")
        return self.T.T @ kappa.kappa @ self.T


class TildeFreeEnergy(ChangeOfVariables):
    """A binary energy re-expressed in (rho1, rho) variables:
    h~(rho1, rho) = h(rho1, rho - rho1), T = J_RHO1_RHO."""

    def __init__(self, base: BulkFreeEnergy):
        if base.nvar != 2:
            raise ShapeError("variable change requires a 2-component energy")
        super().__init__(base, J_RHO1_RHO, (0.0, 0.0), ("rho1", "rho"))


class PhiFreeEnergy(ChangeOfVariables):
    """Single-variable energy of the volume fraction,
    h^(phi) = h~(rho_hat_1 phi, (rho_hat_1 - rho_hat_2) phi + rho_hat_2)."""

    def __init__(self, fe_tilde: BulkFreeEnergy, rho_hat_1: float, rho_hat_2: float):
        if rho_hat_1 <= 0 or rho_hat_2 <= 0:
            raise RangeError("specific densities must be positive")
        super().__init__(fe_tilde, [[rho_hat_1], [rho_hat_1 - rho_hat_2]],
                         (0.0, rho_hat_2), ("phi",))


def change_variables_to_rho_rho1(kappa: GradientCoefficients, fe: BulkFreeEnergy):
    """Map a (rho1, rho2) energy and gradient coefficients to (rho1, rho).

    kappa~ = J^T kappa J with J = [[1, 0], [-1, 1]]; exact and exactly
    invertible (integer congruence).
    """
    fe_tilde = TildeFreeEnergy(fe)
    return GradientCoefficients(fe_tilde.map_kappa(kappa)), fe_tilde


def reduce_quasi_incompressible(kappa_tilde: GradientCoefficients,
                                fe_tilde: BulkFreeEnergy,
                                rho_hat_1: float, rho_hat_2: float):
    """Collapse a (rho1, rho) description onto the volume fraction phi.

    Returns (kappa_phi_phi, PhiFreeEnergy); kappa_phi_phi = v.kappa~.v with
    v = (rho_hat_1, rho_hat_1 - rho_hat_2).
    """
    fe_phi = PhiFreeEnergy(fe_tilde, rho_hat_1, rho_hat_2)
    return float(fe_phi.map_kappa(kappa_tilde)[0, 0]), fe_phi


# ---------------------------------------------------------------------------
# Concavity map
# ---------------------------------------------------------------------------


def concavity_map(fe_tilde: BulkFreeEnergy, rho1_values, rho_values) -> np.ndarray:
    """Classify the bulk Hessian of an energy in (rho1, rho) variables on a
    rectangular grid.  Out-of-domain cells, non-finite coordinates included,
    are marked MAP_EXCLUDED, not raised; every other cell gets its
    ``classify_matrices`` code.  The whole grid is one ``domain_mask``, one
    batched Hessian of the cells inside it and one batched eigensolve.

    Returns an int array of shape (len(rho1_values), len(rho_values)).
    """
    R1, R = np.meshgrid(np.asarray(rho1_values, dtype=float),
                        np.asarray(rho_values, dtype=float), indexing="ij")
    pts = np.stack([R1, R], axis=-1)
    ok = fe_tilde.domain_mask(pts)
    codes = np.full(ok.shape, MAP_EXCLUDED, dtype=int)
    if np.any(ok):
        codes[ok] = classify_matrices(fe_tilde.hessian(pts[ok]))
    return codes
