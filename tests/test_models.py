import numpy as np
import pytest

from pfmix import free_energy as fe
from pfmix import linearization
from pfmix import models
from pfmix import simulator as sim
from pfmix.errors import DomainError, RangeError, ShapeError, SolveError
from pfmix.grid import PeriodicGrid1D
from pfmix.linearization import EQUAL_DENSITY_RTOL

from conftest import (chemical_potentials, derivatives, dx1, dx2, physical_record,
                      random_global_model)


def smooth_field(grid, base, seed, amp=0.05, modes=3):
    r = np.random.default_rng(seed)
    out = base * np.ones(grid.n)
    for m in range(1, modes + 1):
        out += amp * base * (r.uniform(-1, 1) * np.cos(m * grid.x)
                             + r.uniform(-1, 1) * np.sin(m * grid.x))
    return out


@pytest.fixture()
def grid():
    return PeriodicGrid1D(2 * np.pi, 128)


def make_global():
    C = np.array([[2.0, 0.3], [0.3, 1.0]])
    rho_star = np.array([1.0, 2.0])
    q = fe.Quadratic(C, g=-C @ rho_star)
    kap = fe.GradientCoefficients(np.array([[1e-2, 2e-3], [2e-3, 3e-2]]))
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    return models.CompressibleGlobal(q, kap, M, inv_Re_s=0.5, inv_Re_v=0.2)


def make_three():
    """Three densities through the same compressible core."""
    C = np.eye(3) + 0.2 * np.ones((3, 3))
    q = fe.Quadratic(C, g=-C @ np.array([1.0, 2.0, 1.5]))
    kap = fe.GradientCoefficients(np.diag([1e-2, 2e-2, 3e-2]) + 2e-3)
    M = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 1.5]])
    return models.CompressibleGlobal(q, kap, M, inv_Re_s=0.5, inv_Re_v=0.2)


def make_local():
    q = fe.Quadratic(np.array([[1.0, 0.2], [0.2, 2.0]]),
                     variables=("rho1", "rho"))
    kap = fe.GradientCoefficients(np.array([[2e-3, 0.0], [0.0, 3e-3]]))
    return models.CompressibleLocal(q, kap, M11=0.3, inv_Re_s=0.5, inv_Re_v=0.2)


def make_quasi(rho_hat_1=2.0, rho_hat_2=1.0):
    q = fe.Quadratic([[1.5]], g=[-1.5 * 0.4], variables=("phi",))
    return models.QuasiIncompressible(q, kappa_phi_phi=1e-3, M11=0.2,
                                      inv_Re_s=0.3, inv_Re_v=0.1,
                                      rho_hat_1=rho_hat_1, rho_hat_2=rho_hat_2)


class TestConstruction:
    def test_mobility_must_be_psd(self):
        q = fe.Quadratic(np.eye(2))
        kap = fe.GradientCoefficients(np.eye(2) * 1e-3)
        with pytest.raises(RangeError):
            models.CompressibleGlobal(q, kap, np.diag([1.0, -0.1]), 0.1, 0.1)

    def test_negative_reynolds_rejected(self):
        q = fe.Quadratic(np.eye(2))
        kap = fe.GradientCoefficients(np.eye(2) * 1e-3)
        with pytest.raises(RangeError):
            models.CompressibleGlobal(q, kap, np.eye(2), -0.1, 0.1)

    def test_local_special_matrix_row_sums(self):
        # the local model's mobility is the zero-row-sum matrix of M11,
        # written in its (rho1, rho) variables
        m = make_local()
        M = models.local_conservation_matrix(m.M11)
        assert np.all(M.sum(axis=1) == 0.0)
        assert np.allclose(np.linalg.eigvalsh(M), [0.0, 2 * m.M11])
        assert np.array_equal(m.mobility_E, np.diag([m.M11, 0.0]))

    def test_inv_re_combination(self):
        # the longitudinal viscous coefficient the pencil uses: 2/Re_s + 1/Re_v
        for m, st in ((make_local(), models.MixtureState.total_partial(3.0, 1.0)),
                      (make_quasi(), models.MixtureState.fraction(0.4))):
            assert m.linearization(st).inv_Re == 2 * m.inv_Re_s + m.inv_Re_v
            assert not hasattr(m, "inv_Re")


class TestIdentity:
    """Models and their linearizations hold arrays, so they compare and
    hash by identity, as the free energies do."""

    def test_hash_and_set_membership(self):
        q = fe.Quadratic([[1.0]], variables=("phi",))
        incompressible = models.QuasiIncompressible(q, 1e-2, 0.2, 0.3, 0.1,
                                                    rho_hat_1=1.5, rho_hat_2=1.5)
        local = make_local()
        st_global = models.MixtureState.binary(1.0, 2.0)
        st_local = models.MixtureState.total_partial(3.0, 1.0)
        st_phi = models.MixtureState.fraction(0.4)
        linearizations = [make_global().linearization(st_global),
                          local.linearization(st_local),
                          make_quasi().linearization(st_phi),
                          incompressible.linearization(st_phi)]
        built = [make_global(), local, make_quasi(), incompressible,
                 make_three()] + linearizations
        for m in built:
            assert hash(m) == hash(m)
            assert m == m and m in {m}
        assert len(set(built)) == len(built)
        assert make_local() != make_local()
        assert local.linearization(st_local) != local.linearization(st_local)


class TestMobilityCheck:
    def test_shape_errors(self):
        q = fe.Quadratic(np.eye(2))
        kap = fe.GradientCoefficients(np.eye(2) * 1e-3)
        with pytest.raises(ShapeError):
            models.CompressibleGlobal(q, kap, np.ones((2, 3)), 0.1, 0.1)
        with pytest.raises(ShapeError):
            models.CompressibleGlobal(q, kap, np.array([[1.0, 0.5], [0.1, 1.0]]),
                                      0.1, 0.1)

    def test_n3_assignment(self, rng):
        # a PSD (N-1)x(N-1) block extends to a PSD matrix with zero row sums
        A = rng.normal(size=(2, 2))
        B = A @ A.T + 0.1 * np.eye(2)
        M = models.local_conservation_matrix(B)
        scale = np.linalg.norm(M)
        assert np.array_equal(M[:2, :2], B) and np.array_equal(M, M.T)
        assert np.max(np.abs(M.sum(axis=1))) <= 1e-12 * scale
        assert np.min(np.linalg.eigvalsh(M)) >= -1e-12 * scale


class TestRhs:
    def test_uniform_critical_state_is_stationary(self, grid):
        m = make_global()
        st = models.MixtureState.binary(1.0, 2.0)
        rhs = m.rhs_1d(m.state_array(m.uniform_fields(st, grid)), grid)
        assert np.max(np.abs(rhs)) == 0.0

    def test_local_mass_conservation_integral(self, grid):
        m = make_local()
        flds = {"rho": smooth_field(grid, 3.0, 1), "rho1": smooth_field(grid, 1.0, 2),
                "mx": 0.1 * np.sin(grid.x), "my": 0.05 * np.cos(grid.x)}
        rhs = m.field_dict(m.rhs_1d(m.state_array(flds), grid))
        assert abs(grid.integrate(rhs["rho"])) < 1e-12

    def test_global_flux_identity(self, grid):
        # integral of (J1 + J2) equals integral of (drho1 + drho2)/dt
        # plus the transport divergence (zero on the periodic grid)
        m = make_global()
        flds = {"rho1": smooth_field(grid, 1.0, 3), "rho2": smooth_field(grid, 2.0, 4),
                "mx": 0.1 * np.sin(grid.x), "my": np.zeros(grid.n)}
        u = m.state_array(flds)
        rhs = m.field_dict(m.rhs_1d(u, grid))
        J = m.mobility @ derivatives(grid, chemical_potentials(m, u, grid), (2, 2))
        lhs = grid.integrate(J[0] + J[1])
        rho = flds["rho1"] + flds["rho2"]
        vx = flds["mx"] / rho
        rhs_int = grid.integrate(rhs["rho1"] + rhs["rho2"]
                                 + dx1(grid, rho * vx))
        assert abs(lhs - rhs_int) < 1e-10 * max(1.0, abs(lhs))


class TestEnergy:
    def test_uniform_zero_energy(self, grid):
        # h vanishes at the critical state because the linear term is tuned
        C = np.eye(2)
        rho_star = np.array([1.0, 2.0])
        q = fe.Quadratic(C, g=-C @ rho_star)
        offset = q.value(rho_star)
        kap = fe.GradientCoefficients(np.zeros((2, 2)))
        m = models.CompressibleGlobal(q, kap, np.eye(2), 0.1, 0.1)
        st = models.MixtureState.binary(1.0, 2.0)
        E = m.record(m.state_array(m.uniform_fields(st, grid)), grid)[1]
        assert E == pytest.approx(offset * grid.length, abs=1e-12)

    def test_kinetic_energy_value(self, grid):
        q = fe.Quadratic(np.zeros((2, 2)))
        kap = fe.GradientCoefficients(np.zeros((2, 2)))
        m = models.CompressibleGlobal(q, kap, np.eye(2), 0.1, 0.1)
        flds = {"rho1": np.ones(grid.n), "rho2": np.ones(grid.n),
                "mx": 2.0 * np.ones(grid.n), "my": np.zeros(grid.n)}
        # rho = 2, vx = 1: E = 1/2 * 2 * 1 * L = L
        assert m.record(m.state_array(flds), grid)[1] == pytest.approx(grid.length)

    def test_dissipation_uniform_zero(self, grid):
        m = make_global()
        st = models.MixtureState.binary(1.0, 2.0)
        assert m.record(m.state_array(m.uniform_fields(st, grid)), grid)[2] == 0.0

    def test_dissipation_shear_value(self, grid):
        # vx = sin x, constant densities: -(2/Re_s + 1/Re_v) * pi on [0, 2pi]
        q = fe.Quadratic(np.zeros((2, 2)))
        kap = fe.GradientCoefficients(np.zeros((2, 2)))
        m = models.CompressibleGlobal(q, kap, np.zeros((2, 2)),
                                      inv_Re_s=0.5, inv_Re_v=0.2)
        rho = 2.0 * np.ones(grid.n)
        flds = {"rho1": np.ones(grid.n), "rho2": np.ones(grid.n),
                "mx": rho * np.sin(grid.x), "my": np.zeros(grid.n)}
        want = -(2 * 0.5 + 0.2) * np.pi
        assert m.record(m.state_array(flds), grid)[2] == pytest.approx(want, rel=1e-12)

    @staticmethod
    def chain_rule_case(cls, grid):
        """(model, fields) of one class at a smooth, moving state."""
        if cls == "global":
            return make_global(), {
                "rho1": smooth_field(grid, 1.0, 5), "rho2": smooth_field(grid, 2.0, 6),
                "mx": 0.08 * np.sin(grid.x), "my": 0.05 * np.cos(2 * grid.x)}
        if cls == "three":
            return make_three(), {
                "rho1": smooth_field(grid, 1.0, 41), "rho2": smooth_field(grid, 2.0, 42),
                "rho3": smooth_field(grid, 1.5, 43),
                "mx": 0.08 * np.sin(grid.x), "my": 0.05 * np.cos(2 * grid.x)}
        if cls == "local":
            return make_local(), {
                "rho": smooth_field(grid, 3.0, 7), "rho1": smooth_field(grid, 1.0, 8),
                "mx": 0.08 * np.sin(grid.x), "my": 0.05 * np.cos(grid.x)}
        if cls == "quasi":
            return make_quasi(), {
                "phi": 0.4 + 0.05 * np.cos(grid.x) + 0.02 * np.sin(2 * grid.x),
                "vx": 0.04 * np.sin(grid.x), "vy": 0.02 * np.cos(grid.x)}
        q = fe.Quadratic([[1.5]], variables=("phi",))
        m = models.QuasiIncompressible(q, kappa_phi_phi=1e-3, M11=0.2,
                                       inv_Re_s=0.3, inv_Re_v=0.1,
                                       rho_hat_1=1.3, rho_hat_2=1.3)
        return m, {"phi": 0.4 + 0.05 * np.cos(grid.x),
                   "vx": np.zeros(grid.n), "vy": 0.02 * np.cos(grid.x)}

    @staticmethod
    def energy_rate(m, u, grid):
        """d/dt of the discrete energy along the right-hand side, by the
        chain rule with the variational derivatives formed from the state
        (``chemical_potentials``): compressible dE/dE_i = mu_i - |v|^2 w_i / 2
        and dE/dm = v; phase field dE/dphi = mu_phi + (rho_hat_1 -
        rho_hat_2) |v|^2 / 2 and dE/dv = rho v."""
        rhs = m.rhs_1d(u, grid)
        mu = chemical_potentials(m, u, grid)
        if isinstance(m, models.QuasiIncompressible):
            phi, vx, vy = u
            rho = m.density(phi)
            half_v2 = 0.5 * (vx**2 + vy**2)
            return grid.integrate(rho * vx * rhs[1] + rho * vy * rhs[2]
                                  + (mu + (m.rho_hat_1 - m.rho_hat_2) * half_v2) * rhs[0])
        rho = m.total_density(u)
        vx, vy = u[-2] / rho, u[-1] / rho
        half_v2 = 0.5 * (vx**2 + vy**2)
        rates = m.energy_variables(rhs, axis=0)
        return grid.integrate(vx * rhs[-2] + vy * rhs[-1]
                              + sum((mu_i - w_i * half_v2) * r_i
                                    for mu_i, w_i, r_i in zip(mu, m.weights, rates)))

    @pytest.mark.parametrize("cls", ["global", "local", "quasi", "incomp",
                                     "three"])
    def test_chain_rule_oracle(self, cls, grid):
        """Closed-form dissipation equals d/dt of the discrete energy."""
        m, flds = self.chain_rule_case(cls, grid)
        u = m.state_array(flds)
        _, energy, dis, _ = m.record(u, grid)
        assert self.energy_rate(m, u, grid) == pytest.approx(dis, rel=1e-6)
        # the spectral sums against the physical-space route
        energy_ref, dissipation_ref = physical_record(m, u, grid)
        assert energy == pytest.approx(energy_ref, rel=1e-13, abs=0)
        assert dis == pytest.approx(dissipation_ref, rel=1e-13, abs=0)

    def test_dissipation_nonpositive_random(self, rng):
        grid = PeriodicGrid1D(2 * np.pi, 64)
        for trial in range(30):
            m = random_global_model(rng)
            flds = {"rho1": smooth_field(grid, 1.0, 100 + trial),
                    "rho2": smooth_field(grid, 2.0, 200 + trial),
                    "mx": 0.1 * np.sin(grid.x + trial),
                    "my": 0.1 * np.cos(grid.x)}
            assert m.record(m.state_array(flds), grid)[2] <= 1e-12

    def test_quadrature_refinement(self):
        # non-band-limited integrand: error should fall fast under refinement
        q = fe.Quadratic(np.zeros((2, 2)))
        kap = fe.GradientCoefficients(np.zeros((2, 2)))
        m = models.CompressibleGlobal(q, kap, np.eye(2), 0.1, 0.1)

        def energy(n):
            g = PeriodicGrid1D(2 * np.pi, n)
            rho1 = np.exp(0.3 * np.sin(g.x))
            flds = {"rho1": rho1, "rho2": np.ones(g.n),
                    "mx": (rho1 + 1.0) * np.sin(g.x), "my": np.zeros(g.n)}
            return m.record(m.state_array(flds), g)[1]

        ref = energy(512)
        e1, e2 = abs(energy(16) - ref), abs(energy(32) - ref)
        assert e2 < e1 / 4.0 or e2 < 1e-12


class TestQuasi:
    def test_divergence_residual(self, grid):
        m = make_quasi()
        flds = {"phi": 0.4 + 0.03 * np.cos(grid.x), "vx": 0.02 * np.sin(grid.x),
                "vy": np.zeros(grid.n)}
        assert m.divergence_residual(m.state_array(flds), grid) < 1e-12

    def test_mass_conservation(self, grid):
        m = make_quasi()
        flds = {"phi": 0.4 + 0.05 * np.cos(grid.x), "vx": 0.03 * np.sin(grid.x),
                "vy": np.zeros(grid.n)}
        rhs = m.rhs_1d(m.state_array(flds), grid)
        dmass = grid.integrate((m.rho_hat_1 - m.rho_hat_2) * rhs[0])
        assert abs(dmass) < 1e-13


def viscous_route(m, d2v):
    """The viscosities (eta, nu) and the viscous forces (fx, fy) from the
    velocities' second derivatives d2v."""
    eta, nu = m.inv_Re_s, m.inv_Re_v
    return eta, nu, ((2.0 * eta + nu) * d2v[0], eta * d2v[1])


def mu_phi(m, phi, laplacian):
    """Chemical potential dh/dphi - kappa_phi_phi lap(phi), pointwise."""
    g = m.free_energy.gradient(phi[..., None])[..., 0]
    return g - m.kappa_phi_phi * laplacian


def physical_quasi_route(m, u, grid):
    """Reference for the quasi-incompressible spectral core: the
    physical-space route, in which every derivative is a transform pair of
    a physical field and the pressure an explicit rfft Poisson solve.

    Returns the right-hand side, whose vx row carries the pressure
    gradient, and the dissipation rate.
    """
    phi, vx, vy = u
    r = m.rho_hat_1 / m.rho_hat_2
    Mh = m.M11 / m.rho_hat_1**2
    k = grid.wavenumbers
    d = derivatives(grid, np.stack([phi, vx]), (2, 1))
    mu = mu_phi(m, phi, d[0])
    source = (d[1] - (1.0 - r) * Mh * dx2(grid, mu)) / ((1.0 - r) ** 2 * Mh)
    sh = np.fft.rfft(source)
    Pih = np.zeros_like(sh)
    Pih[1:] = -sh[1:] / k[1:] ** 2
    Pi = np.fft.irfft(Pih, n=grid.n)
    G = mu + (1.0 - r) * Pi
    rho = m.density(phi)
    d = derivatives(grid, np.stack([G, phi * vx, vx, Pi, mu, vy, vx, vy]),
                    (2, 1, 1, 1, 1, 1, 2, 2))
    eta, nu, (fx, fy) = viscous_route(m, d[6:])
    rhs = np.stack([-d[1] + Mh * d[0],
                    (-rho * vx * d[2] + fx - d[3] - phi * d[4]) / rho,
                    (-rho * vx * d[5] + fy) / rho])
    dd = derivatives(grid, np.stack([vx, vy, G / m.rho_hat_1]), (1, 1, 1))
    dis = -grid.integrate((2.0 * eta + nu) * dd[0] ** 2 + eta * dd[1] ** 2
                          + m.M11 * dd[2] ** 2)
    return rhs, dis


def incompressible_route(m, u, grid):
    """Reference for the equal-density case: the formulas of the former
    separate incompressible class, with the x-momentum balanced by the
    pressure (vx row 0) and the phase row a conserved gradient flow of
    mu_phi.  Its constant density rho_hat is m.density(phi) here, which is
    rho_hat at r = 1, and its mobility M11 / rho_hat^2 is M11 / rho_hat_1^2.

    Returns the right-hand side and the dissipation rate.
    """
    phi, vx, vy = u
    Mh = m.M11 / m.rho_hat_1**2
    rho = m.density(phi)
    d = derivatives(grid, np.stack([phi, phi * vx, vy, vx, vy]), (2, 1, 1, 2, 2))
    mu = mu_phi(m, phi, d[0])
    eta, nu, (_, fy) = viscous_route(m, d[3:])
    rhs = np.stack([-d[1] + Mh * dx2(grid, mu), np.zeros(grid.n),
                    (-rho * vx * d[2] + fy) / rho])
    d = derivatives(grid, np.stack([vx, vy]), (1, 1))
    dis = -grid.integrate((2.0 * eta + nu) * d[0] ** 2 + eta * d[1] ** 2
                          + Mh * dx1(grid, mu) ** 2)
    return rhs, dis


def physical_compressible_route(m, u, grid, mobility_E, weights):
    """Reference for the compressible core: every derivative a transform
    pair of its own physical field, and mu formed pointwise as dh/dE -
    kappa lap(E) in the energy variables E (``chemical_potentials``).
    ``mobility_E`` is the mobility in E and ``weights`` the total density's
    weights on E.

    Returns the right-hand side and the dissipation rate.
    """
    E = m.energy_variables(u, axis=0)
    rho = m.total_density(u)
    vx, vy = u[-2] / rho, u[-1] / rho
    mu = chemical_potentials(m, u, grid)
    dmu = np.stack([dx1(grid, x) for x in mu])
    J = mobility_E @ np.stack([dx2(grid, x) for x in mu])
    Jtot = weights @ J
    eta, nu = m.inv_Re_s, m.inv_Re_v
    fx, fy = (2.0 * eta + nu) * dx2(grid, vx), eta * dx2(grid, vy)
    rhs = -np.stack([dx1(grid, row * vx) for row in u])
    for i, name in enumerate(m.energy_fields):
        rhs[m.field_names.index(name)] += J[i]
    rhs[-2] += 0.5 * Jtot * vx + fx - np.sum(E * dmu, axis=0)
    rhs[-1] += 0.5 * Jtot * vy + fy
    dis = -grid.integrate((2.0 * eta + nu) * dx1(grid, vx) ** 2
                          + eta * dx1(grid, vy) ** 2
                          + np.einsum("ij,ix,jx->x", mobility_E, dmu, dmu))
    return rhs, dis


class TestCompressibleFusedCore:
    """The one-transform-pair compressible core (mu formed in Fourier
    space) against the physical-space route, for both classes."""

    @staticmethod
    def case(name, grid):
        """(model, state, mobility in E, total density weights)."""
        vel = [smooth_field(grid, 0.1, 61, amp=1.0, modes=8),
               smooth_field(grid, 0.05, 62, amp=1.0, modes=8)]
        if name == "local":
            m = make_local()
            dens = [smooth_field(grid, 3.0, 63, modes=8),
                    smooth_field(grid, 1.0, 64, modes=8)]
            M_E, w = np.diag([m.M11, 0.0]), np.array([0.0, 1.0])
        else:
            m = make_three() if name == "global3" else make_global()
            dens = [smooth_field(grid, base, 65 + i, modes=8)
                    for i, base in enumerate([1.0, 2.0, 1.5][:m.n_components])]
            M_E, w = m.mobility, np.ones(m.n_components)
        rho = np.sum(dens, axis=0) if name != "local" else dens[0]
        return m, np.stack(dens + [rho * vel[0], rho * vel[1]]), M_E, w

    @pytest.mark.parametrize("name", ["global2", "global3", "local"])
    def test_matches_physical_route(self, name):
        grid = PeriodicGrid1D(2 * np.pi, 64)
        m, u, M_E, w = self.case(name, grid)
        rhs_ref, dis_ref = physical_compressible_route(m, u, grid, M_E, w)
        rhs = m.rhs_1d(u, grid)
        for got, want in zip(rhs, rhs_ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(m.rhs_pass(u, grid)[0], rhs)
        assert m.record(u, grid)[2] == pytest.approx(dis_ref, rel=1e-12)

    @pytest.mark.parametrize("name", ["global2", "global3", "local"])
    def test_pass_is_pure(self, name):
        # a pass leaves its state as it was, and what it hands back (the
        # right-hand side and the forward spectra) stays that state's after
        # passes over other states: no buffer is shared between calls
        grid = PeriodicGrid1D(2 * np.pi, 64)
        m, u, _, _ = self.case(name, grid)
        u0 = u.copy()
        track = ((m.field_names[1], 2), ("vx", 3))
        out, core = m.rhs_pass(u, grid)
        assert np.array_equal(u, u0)
        out0 = out.copy()
        for s in (1, 2, 3):
            m.rhs_1d(u0 * (1.0 + 0.02 * s * np.cos(s * grid.x)), grid)
        assert np.array_equal(u, u0)
        assert np.array_equal(out, out0)
        assert m.record(u, grid, core, track) == m.record(u, grid, None, track)
        assert np.array_equal(out, m.rhs_1d(u0, grid))

    @pytest.mark.parametrize("name", ["global2", "global3", "local"])
    def test_workspace_is_pure(self, name):
        # one model's passes over two grids in turn give each state what a
        # fresh model gives it, bit for bit, and each result is an array of
        # its own: no later pass overwrites it, and it shares no memory with
        # another result or with the grids' workspaces
        grids = [PeriodicGrid1D(2 * np.pi, n) for n in (32, 64)]
        m = self.case(name, grids[0])[0]
        results = []
        for s in (0, 1, 2):
            for grid in grids:
                fresh, u, _, _ = self.case(name, grid)
                u = u * (1.0 + 0.02 * s * np.cos((s + 1) * grid.x))
                out = m.rhs_1d(u, grid)
                assert np.array_equal(out, fresh.rhs_1d(u, grid))
                results.append((out, out.copy()))
        assert len(m._workspaces) == 2
        buffers = [a for ws in m._workspaces.values() for a in vars(ws).values()]
        for i, (out, copy) in enumerate(results):
            assert np.array_equal(out, copy)
            assert not any(np.shares_memory(out, b) for b in buffers)
            assert not any(np.shares_memory(out, other) for other, _ in results[i + 1:])


class TestRhsDomainFailure:
    """A state outside the energy's domain fails the right-hand side pass
    itself, at its first bad cell and with the first failing check."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 1])
    @pytest.mark.parametrize("name", ["global2", "local"])
    def test_non_finite_density_cell(self, name, row, bad):
        grid = PeriodicGrid1D(2 * np.pi, 64)
        m, u, _, _ = TestCompressibleFusedCore.case(name, grid)
        u[row, 17] = bad
        # the check comes before rho = w.E, where an infinite rho1 would meet
        # the local class's zero weight; pytest turns that warning into an error
        with pytest.raises(
                DomainError, match=r"non-finite density \(grid index 17\)$") as exc:
            m.rhs_1d(u, grid)
        assert exc.value.index == 17

    @pytest.mark.parametrize("cells, want", [
        ({(1, 40): -1.0}, "molar density <= 0 (grid index 40)"),
        ({(0, 9): 6000.0}, "covolume packing b.n >= 1 (grid index 9)"),
        # the earlier check wins over a later one at a smaller index
        ({(0, 3): 6000.0, (1, 30): 0.0}, "molar density <= 0 (grid index 30)"),
        ({(0, 3): 6000.0, (1, 30): np.nan}, "non-finite density (grid index 30)"),
    ])
    def test_peng_robinson_cell(self, band_composition, cells, want):
        # rows (rho, rho1) of the calibrated local mixture at rho = 400
        m, st = band_composition
        grid = PeriodicGrid1D(2 * np.pi, 64)
        u = m.state_array(m.uniform_fields(st, grid))
        for cell, value in cells.items():
            u[cell] = value
        with pytest.raises(DomainError) as exc:
            m.rhs_1d(u, grid)
        assert str(exc.value) == f"TildeFreeEnergy: {want}"


class TestQuasiSpectralCore:
    """The Fourier-space pressure and right-hand side against the
    physical-space route and, for equal specific densities, against the
    incompressible formulas."""

    @staticmethod
    def state(grid):
        phi = smooth_field(grid, 0.4, 51, amp=0.1, modes=12)
        vx = smooth_field(grid, 0.03, 52, amp=1.0, modes=12) - 0.03
        vy = smooth_field(grid, 0.02, 53, amp=1.0, modes=12)
        return np.stack([phi, vx, vy])

    def model(self, rho_hat_1):
        q = fe.Quadratic([[1.5]], g=[-1.5 * 0.4], variables=("phi",))
        return models.QuasiIncompressible(
            q, kappa_phi_phi=1e-3, M11=0.2, inv_Re_s=0.3, inv_Re_v=0.1,
            rho_hat_1=rho_hat_1, rho_hat_2=1.0)

    @staticmethod
    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    @pytest.mark.parametrize("rho_hat_1", [2.0], ids=["r=2"])
    def test_matches_physical_route(self, rho_hat_1):
        grid = PeriodicGrid1D(2 * np.pi, 64)
        m = self.model(rho_hat_1)
        u = self.state(grid)
        rhs_ref, dis_ref = physical_quasi_route(m, u, grid)
        rel = self.rel

        assert rel(m.rhs_1d(u, grid), rhs_ref) <= 1e-12
        assert rel(m.record(u, grid)[2], dis_ref) <= 1e-12
        # the spectral pass carries the same right-hand side, and its
        # spectra the record of a pass of its own, bit for bit
        (uh, rh), core = m.rhs_pass(u, grid, spectral=True)
        assert np.array_equal(uh, np.fft.rfft(u, axis=-1))
        assert rel(np.fft.irfft(rh, n=grid.n, axis=-1), rhs_ref) <= 1e-12
        assert m.record(u, grid, core, (("phi", 1),)) == m.record(u, grid, None, (("phi", 1),))

    @pytest.mark.parametrize("rho_hat_1", [1.0, 1.0 - 0.5 * EQUAL_DENSITY_RTOL],
                             ids=["r=1", "window"])
    def test_equal_densities_match_incompressible_route(self, rho_hat_1):
        grid = PeriodicGrid1D(2 * np.pi, 64)
        m = self.model(rho_hat_1)
        u = self.state(grid)
        rhs_ref, dis_ref = incompressible_route(m, u, grid)
        rel = self.rel

        rhs = m.rhs_1d(u, grid)
        assert rel(rhs, rhs_ref) <= 1e-12
        assert np.all(rhs[1] == 0.0)
        assert rel(m.record(u, grid)[2], dis_ref) <= 1e-12
        (uh, rh), _ = m.rhs_pass(u, grid, spectral=True)
        assert np.array_equal(uh, np.fft.rfft(u, axis=-1))
        assert rel(np.fft.irfft(rh, n=grid.n, axis=-1), rhs_ref) <= 1e-12
        # the incompressible constraint: div v itself, not the
        # quasi-incompressible remainder
        div = np.max(np.abs(dx1(grid, u[1])))
        assert m.divergence_residual(u, grid) == pytest.approx(div, rel=1e-12)

    @pytest.mark.parametrize("rho_hat_1", [2.0, 1.0], ids=["r=2", "r=1"])
    def test_passes_never_ask_for_equal_densities(self, monkeypatch, rho_hat_1):
        # 1 - r is set once at construction; no pass tests the densities again
        calls = []
        for module in (models, linearization):
            test = module.equal_specific_densities
            monkeypatch.setattr(module, "equal_specific_densities",
                                lambda a, b, test=test: calls.append(1) or test(a, b))
        m = self.model(rho_hat_1)
        assert len(calls) == 1
        assert (m.one_minus_r == 0.0) == (rho_hat_1 == 1.0)
        grid = PeriodicGrid1D(2 * np.pi, 32)
        u = self.state(grid)
        for spectral in (False, True):
            _, core = m.rhs_pass(u, grid, spectral=spectral)
            m.record(u, grid, core, (("phi", 1),))
        m.divergence_residual(u, grid)
        assert len(calls) == 1

    def test_non_finite_pressure_raises(self):
        grid = PeriodicGrid1D(2 * np.pi, 32)
        m = make_quasi()
        u = self.state(grid)
        u[1, 3] = np.inf     # vx is not checked against the energy's domain
        with np.errstate(invalid="ignore"), pytest.raises(SolveError):
            m.rhs_1d(u, grid)

    def test_domain_check_inside_mu_phi(self):
        grid = PeriodicGrid1D(2 * np.pi, 32)
        u = self.state(grid)
        u[0, 5] = np.nan
        m = make_quasi()
        with pytest.raises(DomainError):
            m.rhs_1d(u, grid)


class TestNComponent:
    def make3(self, rng):
        A = rng.normal(size=(2, 2))
        M3 = models.local_conservation_matrix(A @ A.T + 0.1 * np.eye(2))
        C3 = np.eye(3) + 0.2 * np.ones((3, 3))
        return models.CompressibleGlobal(
            fe.Quadratic(C3), fe.GradientCoefficients(0.01 * np.eye(3)), M3,
            inv_Re_s=0.4, inv_Re_v=0.1)

    def test_constraint_residual(self, rng):
        # at rest the density rows are the fluxes, whose sum the zero row
        # sums of the mobility make vanish pointwise
        grid = PeriodicGrid1D(2 * np.pi, 64)
        m3 = self.make3(rng)
        u = np.concatenate([[smooth_field(grid, 1.0, 11), smooth_field(grid, 2.0, 12),
                             smooth_field(grid, 1.5, 13)], np.zeros((2, grid.n))])
        assert np.max(np.abs(m3.rhs_1d(u, grid)[:3].sum(axis=0))) < 1e-10

    def test_dissipation_nonpositive_samples(self, rng):
        grid = PeriodicGrid1D(2 * np.pi, 64)
        m3 = self.make3(rng)
        for s in range(100):
            dens = np.stack([smooth_field(grid, 1.0, 3 * s),
                             smooth_field(grid, 2.0, 3 * s + 1),
                             smooth_field(grid, 1.5, 3 * s + 2)])
            vx = 0.1 * np.sin(grid.x + 0.1 * s)
            vy = 0.05 * np.cos(grid.x)
            rho = dens.sum(axis=0)
            u = np.concatenate([dens, [rho * vx, rho * vy]])
            assert m3.record(u, grid)[2] <= 1e-12

    def test_n2_reduces_to_binary_local(self, rng):
        grid = PeriodicGrid1D(2 * np.pi, 64)
        m11 = 0.37
        C2 = np.array([[2.0, 0.3], [0.3, 1.0]])
        k2 = np.array([[1e-2, 2e-3], [2e-3, 3e-2]])
        m2 = models.CompressibleGlobal(
            fe.Quadratic(C2), fe.GradientCoefficients(k2),
            models.local_conservation_matrix(m11), 0.4, 0.1)
        ktil, qtil = fe.change_variables_to_rho_rho1(
            fe.GradientCoefficients(k2), fe.Quadratic(C2))
        ml = models.CompressibleLocal(qtil, ktil, M11=m11,
                                      inv_Re_s=0.4, inv_Re_v=0.1)
        r1 = smooth_field(grid, 1.0, 21)
        r2 = smooth_field(grid, 2.0, 22)
        mx, my = 0.1 * np.sin(grid.x), 0.05 * np.cos(2 * grid.x)
        out2 = m2.field_dict(m2.rhs_1d(np.stack([r1, r2, mx, my]), grid))
        outl = ml.field_dict(ml.rhs_1d(np.stack([r1 + r2, r1, mx, my]), grid))
        assert np.max(np.abs(out2["rho1"] + out2["rho2"] - outl["rho"])) < 1e-11
        assert np.max(np.abs(out2["rho1"] - outl["rho1"])) < 1e-11
        assert np.max(np.abs(out2["mx"] - outl["mx"])) < 1e-11
        assert np.max(np.abs(out2["my"] - outl["my"])) < 1e-11

    def test_is_the_compressible_core(self, rng):
        m3 = self.make3(rng)
        assert isinstance(m3, models.CompressibleGlobal)
        assert m3.n_components == 3
        assert m3.field_names == ("rho1", "rho2", "rho3", "mx", "my")

    def test_binary_entry_points_refuse_three_components(self, rng):
        m3 = self.make3(rng)
        st = models.MixtureState.binary(1.0, 2.0)
        grid = PeriodicGrid1D(2 * np.pi, 32)
        with pytest.raises(ShapeError):
            m3.linearization(st)
        with pytest.raises(ShapeError):
            m3.uniform_fields(st, grid)
        with pytest.raises(ShapeError):
            sim.stable_dt_estimate(m3, st, grid)
        with pytest.raises(ShapeError):
            sim.run(sim.SimulationConfig(model=m3, state=st, length=2 * np.pi,
                                         n=32, dt=1e-3, t_end=1e-3,
                                         enforce_dt_guard=False))

    def test_shape_validation(self):
        # the mobility and kappa describe three components, the energy two
        with pytest.raises(ShapeError):
            models.CompressibleGlobal(fe.Quadratic(np.eye(2)),
                                      fe.GradientCoefficients(np.zeros((3, 3))),
                                      np.eye(3), 0.1, 0.1)
