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
(``classification``), read off the sweep's own long-wave expansions: the
category of C and the sign of each mode for the compressible classes, the
spinodal band for the phase-field one.

The linearizations hold arrays, so they compare and hash by identity
(``eq=False``), like the models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import SingularExpansion
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


# p.C.p / rho0 is dP/drho at fixed composition, the squared sound speed
_NO_SOUND_SPEED = (
    ": the pressure does not change with the total density at fixed "
    "composition, so no long-wave acoustic expansion exists (an energy "
    "homogeneous of degree one in the densities, such as Flory-Huggins, "
    "gives this at every state); add a compressibility term to the bulk "
    "energy, or use the quasi_incompressible class")


# An order of P(a k^e) cancels when its sum is below this share of the sum
# of its terms' magnitudes.
CANCEL_RTOL = 1e-9


def _cancels(terms) -> bool:
    return abs(sum(terms)) <= CANCEL_RTOL * sum(map(abs, terms))


def expand(c: np.ndarray, regime: str, auxiliaries: dict) -> AsymptoticCoefficients:
    """The expansions alpha ~ a k^e + b k^e2 of every root of the reduced
    polynomial P = sum c[i, j] alpha^i k^j for k -> 0 (``small_k``) or
    k -> infinity, by Newton-Puiseux (Walker, Algebraic Curves, 1950,
    ch. IV).  An alpha^i dividing P gives i zero roots.  Each
    edge of the lower (k -> 0) or upper convex hull of the points (i, j)
    gives e = -dj/di, in sixths (di <= 3), and the roots a of its edge
    polynomial.  A simple a gets one Newton correction: b k^e2 is minus the
    first later order of P(a k^e) that does not cancel over the leading order
    of dP/dalpha(a k^e).  Coincident roots (where P cancels at a root of the
    edge polynomial's derivative) keep their leading term only.  Zero roots
    come first, then descending e, then descending (Re a, Im a): alpha1 and
    every k^4 branch are thermodynamic, the others coupled."""
    sign = 1 if regime == "small_k" else -1
    rows = c.tolist()
    zeros = next(i for i, row in enumerate(rows) if any(row))
    points = [(i, j, v) for i, row in enumerate(rows[zeros:])
              for j, v in enumerate(row) if v]
    # the hull of each row's first (k -> 0) or last power of k, as (i, sign j)
    ends = {i: min(sign * j for n, j, _ in points if n == i) for i, _, _ in points}
    hull = []
    for pt in sorted(ends.items()):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])):
            hull.pop()
        hull.append(pt)
    branches = []
    for (i0, y0), (i1, y1) in zip(hull, hull[1:]):
        e6 = -6 * sign * (y1 - y0) // (i1 - i0)
        top = 6 * sign * y0 + e6 * i0
        orders = [6 * j + e6 * i for i, j, _ in points]
        edge = [0.0] * (i1 - i0 + 1)
        for (i, _, v), m in zip(points, orders):
            if m == top:
                edge[i - i0] = v
        roots = np.roots(edge[::-1]).tolist() if len(edge) > 2 else [-edge[0] / edge[1]]
        simple = [True] * len(roots)
        for r in np.roots([n * q for n, q in enumerate(edge)][:0:-1]).tolist():
            if _cancels([q * r ** n for n, q in enumerate(edge)]):
                for n in sorted(range(len(roots)), key=lambda n: abs(roots[n] - r))[:2]:
                    roots[n], simple[n] = r, False
        later = sorted({sign * m for m in orders if m != top})
        for a, ok in zip(roots, simple):
            terms, second = [v * a ** i for i, _, v in points], ()
            for s in later if ok else ():
                part = [t for t, m in zip(terms, orders) if sign * m == s]
                if not _cancels(part):
                    dP = sum(i * t for (i, _, _), t, m in zip(points, terms, orders)
                             if m == top) / a
                    second = ((sign * s - top + e6, -sum(part) / dP),)
                    break
            branches.append((e6, a, second, ok))
    branches.sort(key=lambda b: (-b[0], -b[1].real, -b[1].imag))
    modes, coincident = [], []
    for n, (e6, a, second, ok) in enumerate([(0, 0.0, (), True)] * zeros + branches, 1):
        terms = ((e6, a),) + second
        label = ModeLabel.THERMODYNAMIC if n == 1 or e6 == 24 else ModeLabel.COUPLED
        modes.append(ModeExpansion(
            label, f"alpha{n}", tuple(p // 6 if p % 6 == 0 else p / 6 for p, _ in terms),
            tuple(v + 0.0 if v.imag else v.real + 0.0 for _, v in terms)))
        if not ok:
            coincident.append(f"alpha{n}")
    if coincident:
        auxiliaries = dict(auxiliaries, leading_only=(
            f"{', '.join(coincident)}: coincident roots of the edge polynomial"))
    return AsymptoticCoefficients(regime, tuple(modes), auxiliaries)


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

    def reduced_polynomial(self, k: float) -> np.ndarray:
        """Coefficients, ascending in alpha, of the reduced polynomial at k:
        ``reduced_coefficients()`` evaluated there."""
        c = self.reduced_coefficients()
        return c @ float(k) ** np.arange(c.shape[1])

    def small_k(self) -> AsymptoticCoefficients:
        """The long-wave expansions of every root (``expand``)."""
        return self._expansions("small_k")

    def large_k(self) -> AsymptoticCoefficients:
        """The short-wave expansions of every root (``expand``)."""
        return self._expansions("large_k")

    def _expansions(self, regime: str) -> AsymptoticCoefficients:
        co = expand(self.reduced_coefficients(), regime, self.auxiliaries())
        viscous = ModeExpansion(ModeLabel.VISCOUS, "alpha0", (2,),
                                (-self.inv_Re_s / self.rho0,))
        return AsymptoticCoefficients(regime, (viscous, *co.modes), co.auxiliaries)


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


CATEGORY = {MAP_POSITIVE_DEFINITE: "C > 0", MAP_NEGATIVE_DEFINITE: "C < 0",
            MAP_INDEFINITE: "C indefinite"}


def _sign(mode: ModeExpansion) -> str:
    """The sign of a long-wave expansion's first coefficient with a nonzero
    real part (an oscillatory pair's k^2 term); "zero" for an exact zero root."""
    re = next((c.real for c in mode.coefficients if c.real), 0.0)
    return "positive" if re > 0 else "negative" if re < 0 else "zero"


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

    def classification(self, long_wave: AsymptoticCoefficients) -> str:
        """The category of C and the sign of each mode of ``long_wave``,
        this linearization's ``small_k()``, or why they are unavailable."""
        code = int(classify_matrices(self.C))
        if code == MAP_SINGULAR:
            return "long-wave classification unavailable: Hessian is singular within tolerance"
        signs = ", ".join(f"{m.name}={_sign(m)}" for m in long_wave.modes)
        return f"long-wave classification [{CATEGORY[code]}]: {signs}"

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
        x, iRe = self.auxiliaries(), self.inv_Re
        s = np.roots([x["M:K"] * iRe, x["p.K.p"] + x["M:C"] * iRe, x["p.C.p"]]
                     if x["g1"] == 0.0 and x["det_M"] == 0.0
                     else [x["det_K"], x["d"], x["det_C"]])
        return np.sort(np.sqrt(s[(s.imag == 0.0) & (s.real > 0.0)].real))

    def auxiliaries(self) -> dict:
        """The scalars of ``reduced_coefficients``: p.C.p, p.K.p, det C,
        det K, d = C:adj(K), g1 = p.adj(M).p (the long-wave thermodynamic
        mode's weight), M:C, M:K and det M, which is 0 within DEGENERATE_TOL
        (tr M)^2, so that a rank-one mobility is exactly rank one."""
        C, K, p, M = self.C, self.K, self.p, self.mobility
        det_M = float(np.linalg.det(M))
        if abs(det_M) <= DEGENERATE_TOL * np.trace(M) ** 2:
            det_M = 0.0
        return {"p.C.p": float(p @ C @ p), "p.K.p": float(p @ K @ p),
                "det_C": float(np.linalg.det(C)), "det_K": float(np.linalg.det(K)),
                "d": float(C[0, 0] * K[1, 1] + C[1, 1] * K[0, 0]
                           - 2.0 * C[0, 1] * K[0, 1]),
                "g1": float(adjugate_form(M, p)), "M:C": float(np.vdot(M, C)),
                "M:K": float(np.vdot(M, K)), "det_M": det_M}

    def reduced_coefficients(self) -> np.ndarray:
        """c[i, j], the coefficient of alpha^i k^j of the reduced polynomial
        rho0 a^3 + k^2 (1/Re + rho0 M:D) a^2 + k^2 (p.D.p + k^2 (M:D / Re
        + rho0 |M| |D|)) a + k^4 (g1 + |M| k^2 / Re) |D|, with D = C + k^2 K,
        M:D = M:C + k^2 M:K, |D| = det C + d k^2 + det K k^4."""
        x = self.auxiliaries()
        r0, iRe, MC, MK, dM = self.rho0, self.inv_Re, x["M:C"], x["M:K"], x["det_M"]
        dC, d, dK, g1 = x["det_C"], x["d"], x["det_K"], x["g1"]
        c = np.zeros((4, 11))
        c[3, 0] = r0
        c[2, 2], c[2, 4] = iRe + r0 * MC, r0 * MK
        c[1, 2:9:2] = (x["p.C.p"], x["p.K.p"] + iRe * MC + r0 * dM * dC,
                       iRe * MK + r0 * dM * d, r0 * dM * dK)
        c[0, 4:11:2] = (g1 * dC, g1 * d + iRe * dM * dC, g1 * dK + iRe * dM * d,
                        iRe * dM * dK)
        return c

    def small_k(self) -> AsymptoticCoefficients:
        """The long-wave expansions, refused where p.C.p (rho0 c^2) is within
        DEGENERATE_TOL ||C|| |p|^2 of 0."""
        C, p = self.C, self.p
        if abs(p @ C @ p) <= DEGENERATE_TOL * np.linalg.norm(C) * float(p @ p):
            raise SingularExpansion(f"p.C.p vanishes within tolerance{_NO_SOUND_SPEED}")
        return super().small_k()

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
        of the reduced polynomial, k^4 (h'' + kappa k^2) times a positive
        factor, vanishes; empty when h'' >= 0.  As for the compressible
        classes, with 1/Re > 0 no root crosses the imaginary axis off 0."""
        if self.h_phi_phi < 0.0 < self.kappa_phi_phi:
            return np.sqrt(np.array([-self.h_phi_phi / self.kappa_phi_phi]))
        return np.empty(0)

    def classification(self, long_wave: AsymptoticCoefficients) -> str:
        """The spinodal band (0, ``band_edges()``), or (0, inf) with no
        edge, where alpha1 of ``long_wave``, this linearization's
        ``small_k()``, grows."""
        if _sign(long_wave.mode("alpha1")) != "positive":
            return "no spinodal band (h_phi_phi >= 0)"
        edges = self.band_edges()
        edge = f"{edges[0]:.17g}" if edges.size else "inf"
        return f"spinodal band: (0, {edge})"

    def auxiliaries(self) -> dict:
        """The scalars of ``reduced_coefficients``: Mh, 1 - r, 1 - (1 - r) phi0."""
        return {"Mh": self.Mh, "one_minus_r": self.one_minus_r,
                "Qbar": 1.0 - self.one_minus_r * self.phi0}

    def reduced_coefficients(self) -> np.ndarray:
        """c[i, j], the coefficient of alpha^i k^j of the reduced polynomial
        over Mh (so that a coincident large-k pair is -1/(2 Re rho0) with no
        rounding of Mh), rho0 (1 - r)^2 k^2 a^2 + (k^2 / Mh + (1 - r)^2 k^4
        / Re) a + Qbar^2 k^4 (h'' + kappa k^2); with 1 - r = 0, the phase
        mode alone."""
        x = self.auxiliaries()
        r1, Qbar = x["one_minus_r"], x["Qbar"]
        c = np.zeros((3, 7))
        c[2, 2] = self.rho0 * r1 ** 2
        c[1, 2], c[1, 4] = 1.0 / x["Mh"], self.inv_Re * r1 ** 2
        c[0, 4], c[0, 6] = Qbar ** 2 * self.h_phi_phi, Qbar ** 2 * self.kappa_phi_phi
        return c

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
