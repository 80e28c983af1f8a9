"""The model classes: compressible N-component mixtures and the binary
phase-field model, whose equal-density case is the incompressible one.

Each model bundles a bulk free energy in its natural variables, gradient
coefficients, mobilities and inverse Reynolds numbers, and knows how to:

* evaluate its 1D right-hand side on a periodic grid (conservative momentum,
  transverse velocity carried alongside),
* evaluate total energy and the closed-form dissipation rate,
* return its linearization about a constant binary state, the object that
  owns the class's pencil, expansions and stiff terms (:mod:`pfmix.linearization`).

``CompressibleGlobal`` holds N densities: its right-hand side, energy and
dissipation run through the one batched compressible core for every N;
N = 2 is the binary model, the only one with a linearization.

Conventions: conservative classes evolve momenta mx = rho*vx, my = rho*vy;
the quasi-incompressible class evolves velocities directly.  Its
hydrostatic field is not evolved but solved at every evaluation from the
divergence constraint, with zero mean, in Fourier space.  The model
dataclasses hold arrays, so they compare and hash by identity
(``eq=False``), like the free energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConstraintError, RangeError, ShapeError, SolveError
from .free_energy import (
    BulkFreeEnergy,
    GradientCoefficients,
    ViscosityRule,
    average_viscosity,
    chemical_potentials,
)
from .grid import PeriodicGrid1D
from .linearization import (
    CompressibleLinearization,
    PhaseFieldLinearization,
    equal_specific_densities,
)

PSD_TOL = 1e-12


# ---------------------------------------------------------------------------
# States and scales
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureState:
    """Constant background state a model is linearized about (velocity 0)."""

    rho1: Optional[float] = None
    rho2: Optional[float] = None
    rho: Optional[float] = None
    phi: Optional[float] = None

    @classmethod
    def binary(cls, rho1: float, rho2: float) -> "MixtureState":
        if rho1 <= 0 or rho2 <= 0:
            raise RangeError("densities must be positive")
        return cls(rho1=rho1, rho2=rho2, rho=rho1 + rho2)

    @classmethod
    def total_partial(cls, rho: float, rho1: float) -> "MixtureState":
        if rho1 <= 0 or rho - rho1 <= 0:
            raise RangeError("need 0 < rho1 < rho")
        return cls(rho1=rho1, rho2=rho - rho1, rho=rho)

    @classmethod
    def fraction(cls, phi: float) -> "MixtureState":
        if not 0.0 < phi < 1.0:
            raise RangeError("phi must lie in (0, 1)")
        return cls(phi=phi)


@dataclass(frozen=True)
class ScaleSet:
    """Characteristic time, length and density scales."""

    t0: float
    l0: float
    rho0: float

    def __post_init__(self):
        if min(self.t0, self.l0, self.rho0) <= 0:
            raise RangeError("scales must be positive")

    @property
    def energy_density(self) -> float:
        return self.rho0 * self.l0**2 / self.t0**2


# ---------------------------------------------------------------------------
# Mobility checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MobilityReport:
    eigenvalues: np.ndarray
    psd: bool
    row_sums: np.ndarray
    zero_row_sums: bool


def mobility_check(M) -> MobilityReport:
    """PSD and zero-row-sum (local conservation) verdicts for a mobility matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise ShapeError(f"mobility must be square, got {M.shape}")
    if not np.allclose(M, M.T, rtol=0.0, atol=PSD_TOL * max(1.0, np.linalg.norm(M))):
        raise ShapeError("mobility must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    scale = max(np.linalg.norm(M), 1e-300)
    rs = M.sum(axis=1)
    return MobilityReport(
        eigenvalues=eigs,
        psd=bool(np.min(eigs) >= -PSD_TOL * scale),
        row_sums=rs,
        zero_row_sums=bool(np.max(np.abs(rs)) <= PSD_TOL * scale),
    )


def local_conservation_matrix(M11: float) -> np.ndarray:
    """Full mobility matrix implied by the single-coefficient local model."""
    return np.array([[M11, -M11], [-M11, M11]])


# ---------------------------------------------------------------------------
# Model classes
# ---------------------------------------------------------------------------


class BinaryModel:
    """Shared plumbing of the three model classes: validation, viscosity
    and the state array.

    A state is one (n_fields, n) array whose rows follow ``field_names``.
    Every method that takes ``fields`` also accepts a dict keyed by field
    name and stacks it once at that boundary; ``rhs_1d`` answers in the
    form it was given.
    """

    inv_Re_s: float
    inv_Re_v: float
    viscosity_rule: Optional[ViscosityRule]
    field_names: tuple

    def _check_reynolds(self):
        if self.inv_Re_s < 0 or self.inv_Re_v < 0:
            raise RangeError("inverse Reynolds numbers must be nonnegative")

    @property
    def inv_Re(self) -> float:
        """Combined longitudinal viscous coefficient 2/Re_s + 1/Re_v."""
        return 2.0 * self.inv_Re_s + self.inv_Re_v

    def _viscosity_fields(self, composition):
        """(eta, nu) pointwise; constants unless a rule is attached."""
        if self.viscosity_rule is None:
            return self.inv_Re_s, self.inv_Re_v
        return average_viscosity(self.viscosity_rule, composition)

    @property
    def _viscous_order(self) -> int:
        """Order at which the velocities enter the viscous terms: their
        Laplacians for constant viscosities, their gradients under a rule."""
        return 2 if self.viscosity_rule is None else 1

    def state_array(self, fields) -> np.ndarray:
        """The state as one (n_fields, n) array in ``field_names`` order."""
        if isinstance(fields, dict):
            return np.stack([fields[name] for name in self.field_names])
        return fields

    def field_dict(self, u) -> dict:
        """The rows of a state array keyed by field name."""
        return dict(zip(self.field_names, u))

    def rhs_1d(self, fields, grid, return_aux=False, spectral=False):
        """Time derivative of the state on a periodic grid, as an array or
        a dict like ``fields``; with ``return_aux`` also the auxiliary
        fields of the class (chemical potentials, fluxes, pressure).

        With ``spectral`` it returns instead the pair (u^, rhs^): the
        ``rfft`` spectra of the state and of its time derivative, each an
        (n_fields, n // 2 + 1) array, for integrators that step in Fourier
        space."""
        u = self.state_array(fields)
        if spectral:
            return self._rhs_spectral(u, grid)
        out, aux = self._rhs(u, grid, return_aux)
        if isinstance(fields, dict):
            out = self.field_dict(out)
        return (out, aux) if return_aux else out

    def _rhs_spectral(self, u, grid):
        """(u^, rhs^) by one batched ``rfft`` of the state and ``_rhs``;
        each row comes out as its own transform would give it."""
        h = np.fft.rfft(np.concatenate([u, self._rhs(u, grid, False)[0]]), axis=-1)
        return h[:len(u)], h[len(u):]


def _viscous_terms(grid, dv, eta, nu):
    """Viscous forces (fx, fy) from the velocities (vx, vy) differentiated
    to the model's ``_viscous_order``; pointwise viscosities take one more
    batched derivative of the stresses."""
    if np.ndim(eta) == 0:
        return (2.0 * eta + nu) * dv[0], eta * dv[1]
    fx, fy = grid.derivatives(np.stack([(2.0 * eta + nu) * dv[0], eta * dv[1]]),
                              (1, 1))
    return fx, fy


class CompressibleModel(BinaryModel):
    """Shared plumbing of the two compressible classes: the state rows are
    the densities then the momenta mx, my; the bulk energy's variables are
    the densities ``energy_fields``."""

    field_names: tuple
    energy_fields: tuple

    @property
    def n_components(self) -> int:
        """Number of densities N, the size of kappa."""
        return self.kappa.n

    def energy_variables(self, fields, axis=-1):
        """The free energy's variables stacked along ``axis``."""
        u = self.state_array(fields)
        return np.stack([u[self.field_names.index(v)] for v in self.energy_fields],
                        axis=axis)

    def _primitive(self, u):
        """Energy variables (stacked on axis 0), total density and the
        velocities of a state array."""
        rho = self.total_density(u)
        return self.energy_variables(u, axis=0), rho, u[-2] / rho, u[-1] / rho

    def _transport(self, u, grid):
        """What both right-hand sides differentiate, one batched transform
        per dependency level: the densities' Laplacians (for mu), the
        velocities (viscous terms) and the fluxes u*vx; then d2 mu and d mu.

        Returns vx, vy, mu, d2 mu, d mu, d(u*vx)/dx, fx, fy.
        """
        E, rho, vx, vy = self._primitive(u)
        N, vo = self.n_components, self._viscous_order
        d = grid.derivatives(np.concatenate([E, [vx, vy], u * vx]),
                             (2,) * N + (vo, vo) + (1,) * (N + 2))
        mu = chemical_potentials(self.free_energy, self.kappa, E, grid,
                                 laplacians=d[:N])
        dmu = grid.derivatives(np.concatenate([mu, mu]), (2,) * N + (1,) * N)
        eta, nu = self._viscosity_fields(E[0] / rho)
        fx, fy = _viscous_terms(grid, d[N:N + 2], eta, nu)
        return vx, vy, mu, dmu[:N], dmu[N:], d[N + 2:], fx, fy

    def _dissipation_terms(self, fields, grid):
        """Viscous dissipation density and d mu, in two batched transforms."""
        E, rho, vx, vy = self._primitive(self.state_array(fields))
        N = self.n_components
        d = grid.derivatives(np.concatenate([E, [vx, vy]]), (2,) * N + (1, 1))
        mu = chemical_potentials(self.free_energy, self.kappa, E, grid,
                                 laplacians=d[:N])
        eta, nu = self._viscosity_fields(E[0] / rho)
        visc = (2.0 * eta + nu) * d[N] ** 2 + eta * d[N + 1] ** 2
        return visc, grid.derivatives(mu, (1,) * N)

    def _linearization(self, C, K, p, rho0, mobility) -> CompressibleLinearization:
        return CompressibleLinearization(
            C=C, K=K, p=p, rho0=rho0, inv_Re_s=self.inv_Re_s, inv_Re=self.inv_Re,
            mobility=mobility, vector_fields=self.field_names[:2] + ("vx", "vy"))

    def uniform_fields(self, state: MixtureState, grid: PeriodicGrid1D) -> dict:
        level = dict(zip(self.energy_fields, self.state_densities(state)))
        return {name: level.get(name, 0.0) * np.ones(grid.n)
                for name in self.field_names}

    def total_mass(self, fields, grid) -> float:
        return grid.integrate(self.total_density(fields))

    def total_energy(self, fields, grid) -> float:
        u = self.state_array(fields)
        kin = 0.5 * (u[-2] ** 2 + u[-1] ** 2) / self.total_density(u)
        bulk = self.free_energy.value(self.energy_variables(u), pointwise=True)
        d = grid.derivatives(self.energy_variables(u, axis=0),
                             (1,) * self.n_components)
        grad = 0.5 * np.einsum("ij,ix,jx->x", self.kappa.kappa, d, d)
        return grid.integrate(kin + bulk + grad)


@dataclass(frozen=True, eq=False)
class CompressibleGlobal(CompressibleModel):
    """Compressible N-component model conserving total mass only globally.

    Fields: rho1, ..., rhoN, mx, my; N is the size of the mobility, kappa
    and the free energy.  Binary states and a viscosity rule need N = 2.
    """

    free_energy: BulkFreeEnergy            # variables (rho1, ..., rhoN)
    kappa: GradientCoefficients            # NxN, (rho1, ..., rhoN)
    mobility: np.ndarray                   # NxN symmetric PSD
    inv_Re_s: float
    inv_Re_v: float
    viscosity_rule: Optional[ViscosityRule] = None

    def __post_init__(self):
        self._check_reynolds()
        M = np.atleast_2d(np.asarray(self.mobility, dtype=float))
        rep = mobility_check(M)
        if not rep.psd:
            raise RangeError("mobility must be positive semi-definite")
        n = M.shape[0]
        if n < 2 or self.kappa.n != n or self.free_energy.nvar != n:
            raise ShapeError(f"mobility {M.shape}, kappa of size {self.kappa.n} "
                             f"and variables {self.free_energy.variables} must "
                             "agree on N >= 2 components")
        densities = tuple(f"rho{i + 1}" for i in range(n))
        object.__setattr__(self, "mobility", M)
        object.__setattr__(self, "energy_fields", densities)
        object.__setattr__(self, "field_names", densities + ("mx", "my"))
        if self.viscosity_rule is not None:
            self._require_binary("a viscosity rule")

    def _require_binary(self, what: str):
        """The one guard of everything that exists for N = 2 only."""
        if self.n_components != 2:
            raise ShapeError(f"{what} needs two components; this model has "
                             f"{self.n_components}")

    # -- state / fields -----------------------------------------------------
    def state_densities(self, state: MixtureState) -> np.ndarray:
        self._require_binary("a binary MixtureState")
        return np.array([state.rho1, state.rho2])

    def total_density(self, fields):
        return self.state_array(fields)[:self.n_components].sum(axis=0)

    def _rhs(self, u, grid, return_aux):
        vx, vy, mu, d2mu, dmu, dflux, fx, fy = self._transport(u, grid)
        N = self.n_components
        J = self.mobility @ d2mu
        Jsum = J.sum(axis=0)
        out = np.empty_like(u)
        out[:N] = -dflux[:N] + J
        out[N] = -dflux[N] + 0.5 * Jsum * vx + fx
        for i in range(N):                 # - sum_i rho_i d mu_i, in index order
            out[N] -= u[i] * dmu[i]
        out[N + 1] = -dflux[N + 1] + 0.5 * Jsum * vy + fy
        return out, {"mu": mu, "J": J}

    def energy_dissipation_rate(self, fields, grid) -> float:
        visc, dmu = self._dissipation_terms(fields, grid)
        mob = np.einsum("ij,ix,jx->x", self.mobility, dmu, dmu)
        return -grid.integrate(visc + mob)

    def linearization(self, state: MixtureState) -> CompressibleLinearization:
        p = self.state_densities(state)
        return self._linearization(self.free_energy.hessian(p), self.kappa.kappa,
                                   p, float(p.sum()), self.mobility)

    def require_local_conservation(self):
        rep = mobility_check(self.mobility)
        if not rep.zero_row_sums:
            raise ConstraintError(
                "local mass conservation requires zero mobility row sums; "
                f"got row sums {rep.row_sums}")

    def _state_from(self, densities, vx=0.0, vy=0.0):
        """State array of an (N, n) density stack moving with (vx, vy)."""
        rho = np.sum(densities, axis=0)
        return np.concatenate([densities, [rho * vx, rho * vy]])

    def constraint_residual(self, densities, grid) -> float:
        """Max-norm of sum_i sum_j div(M_ij grad mu_j)."""
        _, aux = self._rhs(self._state_from(densities), grid, True)
        return float(np.max(np.abs(aux["J"].sum(axis=0))))

    def dissipation_rate(self, densities, vx, vy, grid) -> float:
        """Closed-form dissipation rate of the densities moving with (vx, vy)."""
        return self.energy_dissipation_rate(self._state_from(densities, vx, vy), grid)


@dataclass(frozen=True, eq=False)
class CompressibleLocal(CompressibleModel):
    """Binary compressible model with local mass conservation, single
    mobility coefficient.  Fields: rho, rho1, mx, my."""

    free_energy: BulkFreeEnergy            # variables (rho1, rho)
    kappa: GradientCoefficients            # 2x2 in (rho1, rho) order
    M11: float
    inv_Re_s: float
    inv_Re_v: float
    viscosity_rule: Optional[ViscosityRule] = None

    field_names = ("rho", "rho1", "mx", "my")
    energy_fields = ("rho1", "rho")

    def __post_init__(self):
        self._check_reynolds()
        if self.M11 < 0:
            raise RangeError("M11 must be nonnegative")
        if self.kappa.n != 2:
            raise ShapeError("binary model needs 2x2 kappa")

    @property
    def mobility(self) -> np.ndarray:
        return local_conservation_matrix(self.M11)

    def state_densities(self, state: MixtureState) -> np.ndarray:
        # (rho1, rho), matching the free energy's variable order
        return np.array([state.rho1, state.rho])

    def total_density(self, fields):
        return self.state_array(fields)[0]

    def _rhs(self, u, grid, return_aux):
        # mu[0] = mu~_1, mu[1] = mu~
        vx, vy, mu, d2mu, dmu, dflux, fx, fy = self._transport(u, grid)
        rho, rho1 = u[0], u[1]
        out = np.empty_like(u)
        out[0] = -dflux[0]
        out[1] = -dflux[1] + self.M11 * d2mu[0]
        out[2] = -dflux[2] + fx - rho1 * dmu[0] - rho * dmu[1]
        out[3] = -dflux[3] + fy
        return out, {"mu": mu}

    def energy_dissipation_rate(self, fields, grid) -> float:
        visc, dmu = self._dissipation_terms(fields, grid)
        return -grid.integrate(visc + self.M11 * dmu[0] ** 2)

    def linearization(self, state: MixtureState) -> CompressibleLinearization:
        H = self.free_energy.hessian(self.state_densities(state))
        # reorder (rho1, rho) -> (rho, rho1); only rho1 diffuses
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        return self._linearization(swap @ H @ swap, swap @ self.kappa.kappa @ swap,
                                   np.array([state.rho, state.rho1]),
                                   float(state.rho), np.diag([0.0, self.M11]))


class _QuasiSpectra(NamedTuple):
    """One pass of :meth:`QuasiIncompressible._spectral_core`."""

    uh: np.ndarray      # rfft of the state
    d: np.ndarray       # lap phi, d vx, d vy
    mu: np.ndarray      # mu_phi
    h: np.ndarray       # rfft of mu_phi, then of phi*vx if asked for
    fh: np.ndarray      # viscous forces (fx^, fy^), or None if not asked for
    Pih: np.ndarray     # Pi^, zero mode 0; None for equal specific densities
    Gh: np.ndarray      # G^ = mu^ + (1 - r) Pi^
    eta: object         # viscosities, constants or pointwise
    nu: object


@dataclass(frozen=True, eq=False)
class QuasiIncompressible(BinaryModel):
    """Mixture of two incompressible components with specific densities
    rho_hat_1 and rho_hat_2.  Fields: phi, vx, vy and a bulk energy in phi
    alone; the hydrostatic field is solved from the divergence constraint
    at every evaluation, in Fourier space: one spectral core
    (:meth:`_spectral_core`) serves the right-hand side, the pressure, the
    dissipation rate and the divergence residual.

    Equal specific densities (:func:`equal_specific_densities`) are the
    incompressible model: 1 - r is taken as 0, so G = mu_phi, the velocity
    is solenoidal (in 1D vx stays as it is) and the pressure is formed only
    when it is asked for."""

    free_energy: BulkFreeEnergy            # single variable phi
    kappa_phi_phi: float
    M11: float
    inv_Re_s: float
    inv_Re_v: float
    rho_hat_1: float
    rho_hat_2: float
    viscosity_rule: Optional[ViscosityRule] = None

    field_names = ("phi", "vx", "vy")

    def __post_init__(self):
        self._check_reynolds()
        if self.M11 <= 0:
            raise RangeError("M11 must be positive")
        if self.kappa_phi_phi < 0:
            raise RangeError("kappa_phi_phi must be nonnegative")
        if self.rho_hat_1 <= 0 or self.rho_hat_2 <= 0:
            raise RangeError("specific densities must be positive")

    def state_densities(self, state: MixtureState) -> np.ndarray:
        """The free energy's variable at the state, (phi,)."""
        return np.array([state.phi])

    def energy_variables(self, fields):
        return self.state_array(fields)[0][..., None]

    def uniform_fields(self, state, grid):
        return {"phi": state.phi * np.ones(grid.n),
                "vx": np.zeros(grid.n), "vy": np.zeros(grid.n)}

    def density(self, phi):
        return self.rho_hat_2 + (self.rho_hat_1 - self.rho_hat_2) * phi

    def mu_phi(self, phi, laplacian):
        """Chemical potential dh/dphi - kappa_phi_phi lap(phi), given the
        Laplacian of phi."""
        g = self.free_energy.gradient(phi[..., None], pointwise=True)[..., 0]
        return g - self.kappa_phi_phi * laplacian

    def total_mass(self, fields, grid) -> float:
        return grid.integrate(self.density(self.state_array(fields)[0]))

    def total_energy(self, fields, grid) -> float:
        phi, vx, vy = self.state_array(fields)
        rho = self.density(phi)
        kin = 0.5 * rho * (vx ** 2 + vy ** 2)
        bulk = self.free_energy.value(phi[..., None], pointwise=True)
        grad = 0.5 * self.kappa_phi_phi * grid.dx1(phi) ** 2
        return grid.integrate(kin + bulk + grad)

    def linearization(self, state: MixtureState) -> PhaseFieldLinearization:
        hpp = float(self.free_energy.hessian(self.state_densities(state))[0, 0])
        return PhaseFieldLinearization(
            h_phi_phi=hpp, kappa_phi_phi=self.kappa_phi_phi, phi0=state.phi,
            rho_hat_1=self.rho_hat_1, rho_hat_2=self.rho_hat_2,
            rho0=float(self.density(state.phi)), M11=self.M11,
            inv_Re_s=self.inv_Re_s, inv_Re=self.inv_Re,
        )

    @property
    def _constraint(self):
        """(1 - r, Mh) of the divergence constraint, r = rho_hat_1 / rho_hat_2
        and Mh = M11 / rho_hat_1^2; 1 - r is 0 for equal specific densities."""
        r1 = 0.0 if equal_specific_densities(self.rho_hat_1, self.rho_hat_2) \
            else 1.0 - self.rho_hat_1 / self.rho_hat_2
        return r1, self.M11 / self.rho_hat_1**2

    def _spectral_core(self, u, grid, flux=False) -> _QuasiSpectra:
        """The pass through Fourier space that every evaluation of the class
        shares.

        One ``rfft`` of the state; one ``irfft`` of lap phi, d vx and d vy;
        mu_phi pointwise, with the energy's domain check; one ``rfft`` of
        mu_phi and, with ``flux``, of phi*vx.  The right-hand side, asked
        for by ``flux``, needs the viscous forces too: they are formed in
        Fourier space from the velocities' spectra for constant viscosities,
        from the stresses of a rule, which join the second ``rfft``.

        The constraint d vx/dx = (1-r) Mh d2 G/dx2 with G = mu_phi +
        (1 - r) Pi gives Pi^ = -(ik vx^ + (1-r) Mh k^2 mu^) / ((1-r)^2 Mh
        k^2) = vx^ / (ik (1-r)^2 Mh) - mu^ / (1-r).  For equal specific
        densities G = mu_phi and the pressure is left to
        :meth:`_pressure`.
        """
        phi, vx, _ = u
        S = grid.symbols
        uh = np.fft.rfft(u, axis=-1)
        d = np.fft.irfft(S[[2, 1, 1]] * uh, n=grid.n, axis=-1)
        mu = self.mu_phi(phi, d[0])
        eta, nu = self._viscosity_fields(phi)
        rule = np.ndim(eta) > 0
        level = [mu, phi * vx] if flux else [mu]
        if flux and rule:
            level += [(2.0 * eta + nu) * d[1], eta * d[2]]
        h = np.fft.rfft(np.stack(level), axis=-1)
        if not flux:
            fh = None
        elif rule:
            fh = grid.ik * h[-2:]
            h = h[:-2]
        else:
            fh = S[2] * np.stack([(2.0 * eta + nu) * uh[1], eta * uh[2]])
        r1, Mh = self._constraint
        if r1 == 0.0:
            return _QuasiSpectra(uh, d, mu, h, fh, None, h[0], eta, nu)
        Pih = uh[1] * grid.inv_ik / (r1**2 * Mh) - h[0] / r1
        Pih[0] = 0.0
        if not np.all(np.isfinite(Pih)):
            raise SolveError("pressure solve produced non-finite values")
        return _QuasiSpectra(uh, d, mu, h, fh, Pih, h[0] + r1 * Pih, eta, nu)

    def _pressure(self, phi, core, grid):
        """The hydrostatic field, zero mean: the core's Pi^ or, for equal
        specific densities, the mean-free antiderivative of the x-momentum
        balance of a solenoidal velocity, -phi d mu_phi/dx."""
        if core.Pih is not None:
            return np.fft.irfft(core.Pih, n=grid.n)
        dmu = np.fft.irfft(grid.ik * core.h[0], n=grid.n)
        return np.fft.irfft(np.fft.rfft(-phi * dmu) * grid.inv_ik, n=grid.n)

    def solve_pressure(self, fields, grid):
        """Hydrostatic field from the divergence constraint, zero mean;
        returns it with mu_phi."""
        u = self.state_array(fields)
        core = self._spectral_core(u, grid)
        return self._pressure(u[0], core, grid), core.mu

    def _rhs_parts(self, u, grid, physical_phi):
        """The right-hand side with its phi row in Fourier space,
        -ik (phi vx)^ - Mh k^2 G^, and its velocity rows.

        One last ``irfft`` gives fy, and, with a pressure, fx - d Pi/dx
        and d mu_phi/dx; with ``physical_phi`` also the phi row.  Returns
        the core, the phi row's spectrum, the two velocity rows and the
        physical phi row (or None).
        """
        phi, vx, _ = u
        core = self._spectral_core(u, grid, flux=True)
        ik, h, fh = grid.ik, core.h, core.fh
        phih = -ik * h[1] - self._constraint[1] * grid.wavenumbers**2 * core.Gh
        rows = [fh[1]] + ([phih] if physical_phi else [])
        if core.Pih is not None:
            rows += [fh[0] - ik * core.Pih, ik * h[0]]
        p = np.fft.irfft(np.stack(rows), n=grid.n, axis=-1)
        rho = self.density(phi)
        ay = (-rho * vx * core.d[2] + p[0]) / rho
        if core.Pih is None:
            # the x-momentum balance is the pressure's: vx is stationary
            ax = np.zeros_like(vx)
        else:
            ax = (-rho * vx * core.d[1] + p[-2] - phi * p[-1]) / rho
        return core, phih, ax, ay, p[1] if physical_phi else None

    def _rhs(self, u, grid, return_aux):
        core, _, ax, ay, phi_row = self._rhs_parts(u, grid, True)
        out = np.empty_like(u)
        out[0], out[1], out[2] = phi_row, ax, ay
        if not return_aux:
            return out, None
        return out, {"Pi": self._pressure(u[0], core, grid), "mu_phi": core.mu,
                     "G": np.fft.irfft(core.Gh, n=grid.n)}

    def _rhs_spectral(self, u, grid):
        """The state's spectrum from the core, the phi row as formed in
        Fourier space and one ``rfft`` of the velocity rows."""
        core, phih, ax, ay, _ = self._rhs_parts(u, grid, False)
        rhsh = np.empty_like(core.uh)
        rhsh[0] = phih
        rhsh[1:] = np.fft.rfft(np.stack([ax, ay]), axis=-1)
        return core.uh, rhsh

    def divergence_residual(self, fields, grid) -> float:
        """Max-norm of div v minus its constrained value after the solve,
        d vx/dx - (1 - r) Mh d2 G/dx2; for equal specific densities that is
        max |d vx/dx|."""
        core = self._spectral_core(self.state_array(fields), grid)
        r1, Mh = self._constraint
        res = np.fft.irfft(grid.ik * core.uh[1] + r1 * Mh * grid.wavenumbers**2 * core.Gh,
                           n=grid.n)
        return float(np.max(np.abs(res)))

    def energy_dissipation_rate(self, fields, grid) -> float:
        core = self._spectral_core(self.state_array(fields), grid)
        # d mu^_1/dx with mu^_1 = G / rho_hat_1
        dmu1 = np.fft.irfft(grid.ik * core.Gh, n=grid.n) / self.rho_hat_1
        visc = (2.0 * core.eta + core.nu) * core.d[1] ** 2 + core.eta * core.d[2] ** 2
        return -grid.integrate(visc + self.M11 * dmu1 ** 2)


# ---------------------------------------------------------------------------
# Nondimensionalization
# ---------------------------------------------------------------------------


class ScaledFreeEnergy(BulkFreeEnergy):
    """h_scaled(x) = h(rho0 * x) / E0 for dimensionless evaluation."""

    def __init__(self, base: BulkFreeEnergy, rho0: float, energy_density: float):
        self.base = base
        self.rho0 = float(rho0)
        self.E0 = float(energy_density)
        self.variables = base.variables

    def _domain_checks(self, rho):
        return self.base._domain_checks(rho * self.rho0)

    def _value(self, rho):
        return self.base._value(rho * self.rho0) / self.E0

    def _gradient(self, rho):
        return self.base._gradient(rho * self.rho0) * (self.rho0 / self.E0)

    def _hessian(self, rho):
        return self.base._hessian(rho * self.rho0) * (self.rho0**2 / self.E0)


@dataclass(frozen=True)
class DimensionalParameters:
    """Dimensional inputs of a binary model prior to scaling."""

    eta: float
    nu: float
    mobility: np.ndarray            # 2x2 (or [[M11]] for the local class)
    kappa: GradientCoefficients
    free_energy: Optional[BulkFreeEnergy] = None


@dataclass(frozen=True)
class NondimensionalizationRecord:
    """The scale factors applied; dimensionless = dimensional / factor."""

    mobility: float
    inv_Re: float                   # eta_dimless = eta * t0 / (rho0 l0^2)
    kappa: float
    chemical_potential: float       # mu_dimless = mu * t0^2 / l0^2
    energy_density: float


def _record(scales: ScaleSet) -> NondimensionalizationRecord:
    E0 = scales.energy_density
    return NondimensionalizationRecord(
        mobility=scales.t0 * scales.rho0,
        inv_Re=scales.rho0 * scales.l0**2 / scales.t0,
        kappa=E0 * scales.l0**2 / scales.rho0**2,
        chemical_potential=scales.l0**2 / scales.t0**2,
        energy_density=E0,
    )


def nondimensionalize(params: DimensionalParameters, scales: ScaleSet):
    """Scale dimensional parameters; returns (scaled parameters, record)."""
    rec = _record(scales)
    fe = None if params.free_energy is None else ScaledFreeEnergy(
        params.free_energy, scales.rho0, rec.energy_density)
    scaled = DimensionalParameters(
        eta=params.eta / rec.inv_Re,
        nu=params.nu / rec.inv_Re,
        mobility=np.asarray(params.mobility, dtype=float) / rec.mobility,
        kappa=GradientCoefficients(params.kappa.kappa / rec.kappa),
        free_energy=fe,
    )
    return scaled, rec


def redimensionalize(scaled: DimensionalParameters, scales: ScaleSet):
    """Algebraic inverse of :func:`nondimensionalize` (parameters only)."""
    rec = _record(scales)
    base = scaled.free_energy.base if isinstance(scaled.free_energy,
                                                 ScaledFreeEnergy) else scaled.free_energy
    return DimensionalParameters(
        eta=scaled.eta * rec.inv_Re,
        nu=scaled.nu * rec.inv_Re,
        mobility=np.asarray(scaled.mobility, dtype=float) * rec.mobility,
        kappa=GradientCoefficients(scaled.kappa.kappa * rec.kappa),
        free_energy=base,
    )


# ---------------------------------------------------------------------------
# N-component construction
# ---------------------------------------------------------------------------


def n_component_local_mobility(block: np.ndarray) -> np.ndarray:
    """Extend an (N-1)x(N-1) mobility block to the NxN matrix with zero row
    sums: M_iN = M_Ni = -sum_j M_ij, M_NN = sum_ij M_ij."""
    B = np.atleast_2d(np.asarray(block, dtype=float))
    n1 = B.shape[0]
    M = np.zeros((n1 + 1, n1 + 1))
    M[:n1, :n1] = B
    M[:n1, n1] = -B.sum(axis=1)
    M[n1, :n1] = -B.sum(axis=0)
    M[n1, n1] = B.sum()
    return M


def assemble_n_component(n_components: int, free_energy: BulkFreeEnergy,
                         mobility, inv_Re_s: float, inv_Re_v: float,
                         kappa: Optional[GradientCoefficients] = None,
                         require_local_conservation: bool = False) -> CompressibleGlobal:
    """The N-component model, a :class:`CompressibleGlobal` with zero kappa
    unless one is given; checks that its shapes describe ``n_components``."""
    if kappa is None:
        kappa = GradientCoefficients(np.zeros((n_components, n_components)))
    model = CompressibleGlobal(free_energy, kappa, mobility, inv_Re_s, inv_Re_v)
    if model.n_components != n_components:
        raise ShapeError(f"asked for {n_components} components, the mobility, "
                         f"kappa and free energy have {model.n_components}")
    if require_local_conservation:
        model.require_local_conservation()
    return model
