"""The model classes: compressible N-component mixtures and the binary
phase-field model, whose equal-density case is the incompressible one.

Each model bundles a bulk free energy in its natural variables, gradient
coefficients, mobilities and inverse Reynolds numbers, and knows how to:

* evaluate its 1D right-hand side on a periodic grid (conservative momentum,
  transverse velocity carried alongside),
* record mass, total energy, the closed-form dissipation rate and tracked
  mode amplitudes from the forward spectra of a right-hand side pass,
* return its linearization about a constant binary state, the object that
  owns the class's pencil, expansions and stiff terms (:mod:`pfmix.linearization`).

One class, :class:`CompressibleModel`, owns the compressible right-hand
side, energy, dissipation and linearization for both conservation levels.
It is parameterized by the state rows of its energy variables E, the
mobility in E and the weights w of the total density rho = w.E.  Its two
constructors only fill these in: ``CompressibleGlobal`` has E = (rho1,
..., rhoN), any PSD mobility and w = 1, for every N (N = 2 is the binary
model, the only one with a linearization); ``CompressibleLocal`` has E =
(rho1, rho), the zero-row-sum mobility :func:`local_conservation_matrix`
in those variables, diag(M11, 0), and w = (0, 1).

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

from .errors import RangeError, ShapeError, SolveError
from .free_energy import J_RHO1_RHO, BulkFreeEnergy, GradientCoefficients
from .grid import PeriodicGrid1D
from .linearization import (
    CompressibleLinearization,
    PhaseFieldLinearization,
    equal_specific_densities,
)

PSD_TOL = 1e-12


# ---------------------------------------------------------------------------
# States
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


# ---------------------------------------------------------------------------
# Mobilities
# ---------------------------------------------------------------------------


def local_conservation_matrix(block) -> np.ndarray:
    """Extend the scalar M11 or an (N-1)x(N-1) mobility block to the NxN
    matrix with zero row sums, the mobility of local mass conservation:
    M_iN = M_Ni = -sum_j M_ij, M_NN = sum_ij M_ij."""
    B = np.atleast_2d(np.asarray(block, dtype=float))
    n1 = B.shape[0]
    M = np.zeros((n1 + 1, n1 + 1))
    M[:n1, :n1] = B
    M[:n1, n1] = -B.sum(axis=1)
    M[n1, :n1] = -B.sum(axis=0)
    M[n1, n1] = B.sum()
    return M


# ---------------------------------------------------------------------------
# Model classes
# ---------------------------------------------------------------------------


class BinaryModel:
    """Shared plumbing of the compressible and phase-field models:
    validation, viscosity and the state array.

    A state is one (n_fields, n) array whose rows follow ``field_names``,
    and every method takes that array; :meth:`state_array` stacks a dict
    keyed by field name into it, where such a dict enters.
    """

    inv_Re_s: float
    inv_Re_v: float
    field_names: tuple

    def _check_reynolds(self):
        if self.inv_Re_s < 0 or self.inv_Re_v < 0:
            raise RangeError("inverse Reynolds numbers must be nonnegative")

    def _viscous_forces(self, grid, vh, out):
        """Spectra (fx^, fy^) of the viscous forces from the velocities'
        spectra (vx^, vy^), written into ``out``."""
        np.multiply(grid.ik2, vh, out=out)
        out[0] *= 2.0 * self.inv_Re_s + self.inv_Re_v
        out[1] *= self.inv_Re_s

    def _viscous_dissipation(self, grid, vh):
        """Integral of (2 eta + nu) (d vx/dx)^2 + eta (d vy/dx)^2, eta =
        1/Re_s and nu = 1/Re_v, as a sum over the velocities' modes."""
        eta, nu = self.inv_Re_s, self.inv_Re_v
        return grid.gradient_form([[2.0 * eta + nu, 0.0], [0.0, eta]], vh)

    def state_array(self, fields: dict) -> np.ndarray:
        """The state as one (n_fields, n) array in ``field_names`` order."""
        return np.stack([fields[name] for name in self.field_names])

    def field_dict(self, u) -> dict:
        """The rows of a state array keyed by field name."""
        return dict(zip(self.field_names, u))

    def rhs_1d(self, u, grid):
        """Time derivative of the state array u on a periodic grid."""
        return self._rhs(u, grid)[0]

    def rhs_pass(self, u, grid, spectral=False):
        """The right-hand side of a state array and the forward spectra it
        was formed from (the class's ``_spectral_core``), from which
        :meth:`record` takes the diagnostics of u.  With ``spectral`` the
        right-hand side is the pair (u^, rhs^) of ``rfft`` spectra of the
        state and of its time derivative, for stepping in Fourier space."""
        if spectral:
            return self._rhs_spectral(u, grid)
        return self._rhs(u, grid)

    def _rhs_spectral(self, u, grid):
        """((u^, rhs^), core) by one batched ``rfft`` of the state and
        ``_rhs``; each row comes out as its own transform would give it."""
        out, core = self._rhs(u, grid)
        h = np.fft.rfft(np.concatenate([u, out]), axis=-1)
        return (h[:len(u)], h[len(u):]), core

    def _amplitudes(self, u, grid, spectra, track):
        """Amplitudes of the tracked (field, mode) pairs from ``spectra``,
        rfft rows by name; a state row that a pass does not transform (a
        momentum) takes a transform of its own."""
        rows = dict(zip(self.field_names, u))
        if not {name for name, _ in track} <= spectra.keys() | rows.keys():
            raise RangeError(f"unknown observable in {track}")
        return [grid.spectrum_amplitude(spectra[name], mode) if name in spectra
                else grid.mode_amplitude(rows[name], mode) for name, mode in track]


class CompressibleModel(BinaryModel):
    """The compressible model of both conservation levels: one set of
    equations that differ only in the mobility and the density variables.

    The state rows are N densities, then the momenta mx, my.  Three values
    set at construction (:meth:`_parameterize`) describe a class:

    * ``energy_fields``, the state rows of the energy variables E, the
      bulk energy's and kappa's variables;
    * ``mobility_E``, the mobility in E: fluxes J = M_E d2 mu/dx2 with
      mu = dh/dE - kappa d2 E/dx2;
    * ``weights`` w, with total density rho = w.E.

    Momentum gains 1/2 (w.J) v only where mass is not conserved locally,
    that is where w.M_E is nonzero."""

    field_names: tuple
    energy_fields: tuple
    mobility_E: np.ndarray
    weights: np.ndarray
    n_components: int                      # N, the number of densities

    def _parameterize(self, energy_fields, mobility_E, weights):
        """Store the three values and, in state-row order, what the
        right-hand side uses: J lands on the density rows as one slice."""
        rows = [self.field_names.index(v) for v in energy_fields]
        order = np.argsort(rows)               # E index of each density row
        M, w = np.asarray(mobility_E, dtype=float), np.asarray(weights, dtype=float)
        for name, value in (("energy_fields", tuple(energy_fields)),
                            ("mobility_E", M), ("weights", w), ("_rows", rows),
                            ("_order", order), ("_mobility_rows", M[order]),
                            ("_weights_rows", w[order]), ("n_components", len(rows)),
                            ("_mass_flux", bool(np.any(w @ M != 0.0)))):
            object.__setattr__(self, name, value)

    def state_densities(self, state: MixtureState) -> np.ndarray:
        """E at a binary state, in the free energy's variable order: the one
        guard of everything that exists for N = 2 only."""
        if self.n_components != 2:
            raise ShapeError("a binary MixtureState needs two components; this "
                             f"model has {self.n_components}")
        return np.array([getattr(state, v) for v in self.energy_fields])

    def total_density(self, u):
        return self._weights_rows @ u[:self.n_components]

    def energy_variables(self, u, axis=-1):
        """The free energy's variables stacked along ``axis``."""
        return u[self._rows].swapaxes(0, axis)

    def _spectral_core(self, u, grid):
        """(E, rho, v, h, mu^): E, the total density, the velocities v =
        (vx, vy), the spectra h of E, g(E), v and the fluxes u*vx from one
        batched ``rfft``, and mu^.  The bulk gradient g(E) is evaluated per
        point (with the energy's domain check), so it joins the state's
        rows; mu^ = g^ - kappa (ik)^2 E^.  The transform's input is one
        fresh array per call, filled row by row; E and v are its rows."""
        N = self.n_components
        f = 2 * N + 2
        rows = np.empty((f + len(u), grid.n))
        # "clip" writes out directly, where the default mode copies through a buffer
        E = np.take(u, self._rows, axis=0, out=rows[:N], mode="clip")
        # the domain check comes before rho = w.E, where a zero weight would
        # meet a non-finite density
        rows[N:2 * N] = self.free_energy.gradient(E.T).T
        rho = self.total_density(u)
        v = np.divide(u[-2:], rho, out=rows[2 * N:f])
        np.multiply(u, v[0], out=rows[f:])
        h = np.fft.rfft(rows, axis=-1)
        muh = h[N:2 * N] - self.kappa.kappa @ (grid.ik2 * h[:N])
        return E, rho, v, h, muh

    def _rhs(self, u, grid):
        """The forward transform, then one ``irfft`` of d2 mu, d mu, the
        viscous forces and the flux divergences d(u*vx)/dx, whose input is
        one fresh array per call written row by row; the last rows of its
        output, negated in place, start the right-hand side, which comes
        back with the forward pass."""
        core = E, _, v, h, muh = self._spectral_core(u, grid)
        N = self.n_components
        f = 2 * N + 2
        rows = np.empty((f + len(u), h.shape[-1]), dtype=complex)
        np.multiply(grid.ik2, muh, out=rows[:N])
        np.multiply(grid.ik, muh, out=rows[N:2 * N])
        self._viscous_forces(grid, h[2 * N:f], out=rows[2 * N:f])
        np.multiply(grid.ik, h[f:], out=rows[f:])
        d = np.fft.irfft(rows, n=grid.n, axis=-1)
        J = self._mobility_rows @ d[:N]
        out = np.negative(d[f:], out=d[f:])
        out[:N] += J
        if self._mass_flux:
            out[N:] += 0.5 * (self._weights_rows @ J) * v + d[2 * N:f]
        else:
            out[N:] += d[2 * N:f]
        out[N] -= np.einsum("ix,ix->x", E, d[N:2 * N])     # sum_i E_i d mu_i
        return out, core

    def record(self, u, grid, core=None, track=()):
        """Mass, total energy, dissipation rate and the amplitudes of the
        tracked (field, mode) pairs of the state array u, from the forward
        spectra ``core`` of a pass over u (:meth:`rhs_pass`) or of its own
        pass.  Only the kinetic and bulk energies are evaluated per point;
        the rest are sums over modes.
        The bulk energy is evaluated unchecked: that pass's bulk gradient
        has already checked the same state's domain."""
        E, rho, _, h, muh = self._spectral_core(u, grid) if core is None else core
        N = self.n_components
        vh = h[2 * N:2 * N + 2]
        kin = 0.5 * (u[-2] ** 2 + u[-1] ** 2) / rho
        bulk = self.free_energy._value(E.T)
        energy = (grid.integrate(kin + bulk)
                  + 0.5 * grid.gradient_form(self.kappa.kappa, h[:N]))
        dissipation = -(self._viscous_dissipation(grid, vh)
                        + grid.gradient_form(self.mobility_E, muh))
        spectra = dict(zip(self.energy_fields + ("vx", "vy"), [*h[:N], *vh]))
        return (self.total_mass(u, grid), energy, dissipation,
                self._amplitudes(u, grid, spectra, track))

    def linearization(self, state: MixtureState) -> CompressibleLinearization:
        """The pencil's densities are the first two state rows: E's
        Hessian, kappa and mobility are indexed into that order."""
        E0 = self.state_densities(state)
        o = self._order
        rc = np.ix_(o, o)
        return CompressibleLinearization(
            C=self.free_energy.hessian(E0)[rc], K=self.kappa.kappa[rc], p=E0[o],
            rho0=float(self.weights @ E0), inv_Re_s=self.inv_Re_s,
            inv_Re=2.0 * self.inv_Re_s + self.inv_Re_v,
            mobility=self.mobility_E[rc],
            vector_fields=self.field_names[:2] + ("vx", "vy"))

    def uniform_fields(self, state: MixtureState, grid: PeriodicGrid1D) -> dict:
        level = dict(zip(self.energy_fields, self.state_densities(state)))
        return {name: level.get(name, 0.0) * np.ones(grid.n)
                for name in self.field_names}

    def total_mass(self, u, grid) -> float:
        return grid.integrate(self.total_density(u))


@dataclass(frozen=True, eq=False)
class CompressibleGlobal(CompressibleModel):
    """Compressible N-component model conserving total mass only globally.

    Fields: rho1, ..., rhoN, mx, my; E = (rho1, ..., rhoN), M_E = the
    mobility and w = 1.  N is the size of the mobility, kappa and the free
    energy.  Binary states need N = 2.
    """

    free_energy: BulkFreeEnergy            # variables (rho1, ..., rhoN)
    kappa: GradientCoefficients            # NxN, (rho1, ..., rhoN)
    mobility: np.ndarray                   # NxN symmetric PSD
    inv_Re_s: float
    inv_Re_v: float

    def __post_init__(self):
        self._check_reynolds()
        M = np.atleast_2d(np.asarray(self.mobility, dtype=float))
        if M.shape[0] != M.shape[1]:
            raise ShapeError(f"mobility must be square, got {M.shape}")
        scale = np.linalg.norm(M)
        if not np.allclose(M, M.T, rtol=0.0, atol=PSD_TOL * max(1.0, scale)):
            raise ShapeError("mobility must be symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
        if not np.min(eigs) >= -PSD_TOL * max(scale, 1e-300):
            raise RangeError("mobility must be positive semi-definite")
        n = M.shape[0]
        if n < 2 or self.kappa.n != n or self.free_energy.nvar != n:
            raise ShapeError(f"mobility {M.shape}, kappa of size {self.kappa.n} "
                             f"and variables {self.free_energy.variables} must "
                             "agree on N >= 2 components")
        densities = tuple(f"rho{i + 1}" for i in range(n))
        object.__setattr__(self, "mobility", M)
        object.__setattr__(self, "field_names", densities + ("mx", "my"))
        self._parameterize(densities, M, np.ones(n))


@dataclass(frozen=True, eq=False)
class CompressibleLocal(CompressibleModel):
    """Binary compressible model with local mass conservation, single
    mobility coefficient.  Fields: rho, rho1, mx, my; E = (rho1, rho), M_E
    = J^-1 local_conservation_matrix(M11) J^-T = diag(M11, 0) with J =
    J_RHO1_RHO, so only rho1 diffuses, and w = (0, 1)."""

    free_energy: BulkFreeEnergy            # variables (rho1, rho)
    kappa: GradientCoefficients            # 2x2 in (rho1, rho) order
    M11: float
    inv_Re_s: float
    inv_Re_v: float

    field_names = ("rho", "rho1", "mx", "my")

    def __post_init__(self):
        self._check_reynolds()
        if self.M11 < 0:
            raise RangeError("M11 must be nonnegative")
        if self.kappa.n != 2:
            raise ShapeError("binary model needs 2x2 kappa")
        J_inv = np.linalg.inv(J_RHO1_RHO)
        M_E = J_inv @ local_conservation_matrix(self.M11) @ J_inv.T
        self._parameterize(("rho1", "rho"), M_E, (0.0, 1.0))


class _QuasiSpectra(NamedTuple):
    """One pass of :meth:`QuasiIncompressible._spectral_core`."""

    h: np.ndarray       # rfft of phi, vx, vy, g(phi), phi*vx
    muh: np.ndarray     # mu_phi^ = g^ - kappa_phi_phi (ik)^2 phi^
    Pih: np.ndarray     # Pi^, zero mode 0; None for equal specific densities
    Gh: np.ndarray      # G^ = mu^ + (1 - r) Pi^


@dataclass(frozen=True, eq=False)
class QuasiIncompressible(BinaryModel):
    """Mixture of two incompressible components with specific densities
    rho_hat_1 and rho_hat_2.  Fields: phi, vx, vy and a bulk energy in phi
    alone; the hydrostatic field is solved from the divergence constraint
    at every evaluation, in Fourier space: one forward transform
    (:meth:`_spectral_core`) serves the right-hand side, the pressure and
    the divergence residual, each of which then takes one inverse
    transform, and the diagnostics record, which takes none.

    Construction sets the constraint's weights once: ``one_minus_r``, 1 - r
    with r = rho_hat_1 / rho_hat_2, and ``Mh`` = M11 / rho_hat_1^2.  Equal
    specific densities (:func:`equal_specific_densities`) are the
    incompressible model: 1 - r is exactly 0, so G = mu_phi, the velocity
    is solenoidal (in 1D vx stays as it is) and no pressure is formed."""

    free_energy: BulkFreeEnergy            # single variable phi
    kappa_phi_phi: float
    M11: float
    inv_Re_s: float
    inv_Re_v: float
    rho_hat_1: float
    rho_hat_2: float

    field_names = ("phi", "vx", "vy")

    def __post_init__(self):
        self._check_reynolds()
        if self.M11 <= 0:
            raise RangeError("M11 must be positive")
        if self.kappa_phi_phi < 0:
            raise RangeError("kappa_phi_phi must be nonnegative")
        if self.rho_hat_1 <= 0 or self.rho_hat_2 <= 0:
            raise RangeError("specific densities must be positive")
        one_minus_r = 0.0 if equal_specific_densities(self.rho_hat_1, self.rho_hat_2) \
            else 1.0 - self.rho_hat_1 / self.rho_hat_2
        object.__setattr__(self, "one_minus_r", one_minus_r)
        object.__setattr__(self, "Mh", self.M11 / self.rho_hat_1**2)

    def state_densities(self, state: MixtureState) -> np.ndarray:
        """The free energy's variable at the state, (phi,)."""
        return np.array([state.phi])

    def energy_variables(self, u):
        return u[0][..., None]

    def uniform_fields(self, state, grid):
        return {"phi": state.phi * np.ones(grid.n),
                "vx": np.zeros(grid.n), "vy": np.zeros(grid.n)}

    def density(self, phi):
        return self.rho_hat_2 + (self.rho_hat_1 - self.rho_hat_2) * phi

    def total_mass(self, u, grid) -> float:
        return grid.integrate(self.density(u[0]))

    def record(self, u, grid, core=None, track=()):
        """As :meth:`CompressibleModel.record`, from the spectral core; the
        diffusive dissipation is M11 (d mu_1/dx)^2 with mu_1 = G /
        rho_hat_1."""
        c = self._spectral_core(u, grid) if core is None else core
        phi, vx, vy = u
        rho = self.density(phi)
        kin = 0.5 * rho * (vx ** 2 + vy ** 2)
        bulk = self.free_energy._value(phi[..., None])
        energy = (grid.integrate(kin + bulk)
                  + grid.gradient_form(0.5 * self.kappa_phi_phi, c.h[:1]))
        dissipation = -(self._viscous_dissipation(grid, c.h[1:3])
                        + grid.gradient_form(self.Mh, c.Gh[None]))
        return (grid.integrate(rho), energy, dissipation,
                self._amplitudes(u, grid, dict(zip(self.field_names, c.h)), track))

    def linearization(self, state: MixtureState) -> PhaseFieldLinearization:
        hpp = float(self.free_energy.hessian(self.state_densities(state))[0, 0])
        return PhaseFieldLinearization(
            h_phi_phi=hpp, kappa_phi_phi=self.kappa_phi_phi, phi0=state.phi,
            rho_hat_1=self.rho_hat_1, rho_hat_2=self.rho_hat_2,
            one_minus_r=self.one_minus_r, rho0=float(self.density(state.phi)),
            M11=self.M11, inv_Re_s=self.inv_Re_s,
            inv_Re=2.0 * self.inv_Re_s + self.inv_Re_v,
        )

    def _spectral_core(self, u, grid) -> _QuasiSpectra:
        """The forward transform that every evaluation of the class shares.

        The bulk gradient g(phi) is evaluated per point (with the energy's
        domain check), so it joins the state and phi*vx in one batched
        ``rfft``; then mu_phi^ = g^ - kappa_phi_phi (ik)^2 phi^.

        The constraint d vx/dx = (1-r) Mh d2 G/dx2 with G = mu_phi +
        (1 - r) Pi gives Pi^ = -(ik vx^ + (1-r) Mh k^2 mu^) / ((1-r)^2 Mh
        k^2) = vx^ / (ik (1-r)^2 Mh) - mu^ / (1-r).  For equal specific
        densities G = mu_phi and no pressure is formed.
        """
        phi, vx, _ = u
        rows = np.empty((5, grid.n))
        rows[:3] = u
        rows[3] = self.free_energy.gradient(phi[..., None])[..., 0]
        np.multiply(phi, vx, out=rows[4])
        h = np.fft.rfft(rows, axis=-1)
        muh = h[3] - self.kappa_phi_phi * grid.ik2 * h[0]
        r1, Mh = self.one_minus_r, self.Mh
        if r1 == 0.0:
            return _QuasiSpectra(h, muh, None, muh)
        Pih = h[1] * grid.inv_ik / (r1**2 * Mh) - muh / r1
        Pih[0] = 0.0
        if not np.isfinite(Pih).all():
            raise SolveError("pressure solve produced non-finite values")
        return _QuasiSpectra(h, muh, Pih, muh + r1 * Pih)

    def _rhs_parts(self, u, grid, physical_phi):
        """The right-hand side with its phi row in Fourier space,
        -ik (phi vx)^ - Mh k^2 G^, and its velocity rows.

        One ``irfft`` of rows written in place gives, with ``physical_phi``,
        the phi row, then the forces fx - d Pi/dx and fy, with a pressure
        d mu_phi/dx, and last d vx, d vy.  The force rows turn into the
        accelerations in place: ax = (fx - d Pi/dx - phi d mu_phi/dx) / rho
        - vx d vx/dx and ay = fy / rho - vx d vy/dx.  Without a pressure the
        x-momentum balance is the pressure's: vx is stationary, ax = 0.
        Returns the core, the phi row's spectrum and the rows (phi, ax, ay),
        or (ax, ay) without ``physical_phi``.
        """
        phi, vx, _ = u
        core = self._spectral_core(u, grid)
        ik, h = grid.ik, core.h
        phih = -ik * h[4] - self.Mh * grid.wavenumbers**2 * core.Gh
        pressure = core.Pih is not None
        f = int(physical_phi)                   # the fx row
        rows = np.empty((f + 4 + pressure, h.shape[-1]), dtype=complex)
        if physical_phi:
            rows[0] = phih
        self._viscous_forces(grid, h[1:3], out=rows[f:f + 2])
        if pressure:
            rows[f] -= ik * core.Pih
            np.multiply(ik, core.muh, out=rows[f + 2])
        np.multiply(ik, h[1:3], out=rows[-2:])
        p = np.fft.irfft(rows, n=grid.n, axis=-1)
        a = p[f:f + 2]                          # the forces, then (ax, ay)
        if pressure:
            a[0] -= phi * p[f + 2]
        a /= self.density(phi)
        a -= vx * p[-2:]
        if not pressure:
            a[0] = 0.0
        return core, phih, p[:f + 2]

    def _rhs(self, u, grid):
        core, _, out = self._rhs_parts(u, grid, True)
        return out, core

    def _rhs_spectral(self, u, grid):
        """The state's spectrum from the core, the phi row as formed in
        Fourier space and one ``rfft`` of the velocity rows."""
        core, phih, a = self._rhs_parts(u, grid, False)
        rhsh = np.empty_like(core.h[:3])
        rhsh[0] = phih
        rhsh[1:] = np.fft.rfft(a, axis=-1)
        return (core.h[:3], rhsh), core

    def divergence_residual(self, u, grid) -> float:
        """Max-norm of div v minus its constrained value after the solve,
        d vx/dx - (1 - r) Mh d2 G/dx2; for equal specific densities that is
        max |d vx/dx|."""
        core = self._spectral_core(u, grid)
        res = np.fft.irfft(grid.ik * core.h[1]
                           + self.one_minus_r * self.Mh * grid.wavenumbers**2 * core.Gh,
                           n=grid.n)
        return float(np.max(np.abs(res)))
