import numpy as np
import pytest
from importlib import resources

from pfmix import free_energy as fe
from pfmix import models
from pfmix.config import build_all, load_config
from pfmix.linearization import equal_specific_densities


def config_path(name: str):
    return resources.files("pfmix.data.configs").joinpath(name)


# Flory-Huggins (kBT/m = 1, N1 = N2 = 1, chi = 3) reduced to the volume
# fraction: kappa_phi_phi = v.kappa~.v = 4 * 0.004 with v = (2, 1).
FH_PHASE_FIELD = """
[free_energy]
kind = flory_huggins
kBT_over_m = 1.0
N1 = 1.0
N2 = 1.0
chi = 3.0
kappa_rho1_rho1 = 0.004
kappa_rho_rho1 = 0.0
kappa_rho_rho = 0.0

[model]
class = quasi_incompressible
M11 = 1.0
Re_s = 1.0
Re_v = 1.0
rho_hat_1 = 2.0
rho_hat_2 = 1.0

[state]
phi0 = 0.45

[sweep]
k_min = 0.01
k_max = 100.0
points = 41

[simulate]
length = 6.283185307179586
n = 128
dt = 2e-3
t_end = 2.0
integrator = semi_implicit
seed_eigenvector = true
eigen_track = alpha1
perturb_mode = 1
perturb_amplitude = 1e-7
"""


@pytest.fixture(scope="session")
def band_composition():
    """Calibrated mixture at the composition-unstable reference state."""
    cfg = load_config(config_path("band_composition.ini"))
    return build_all(cfg)


@pytest.fixture(scope="session")
def band_density():
    cfg = load_config(config_path("band_density.ini"))
    return build_all(cfg)


@pytest.fixture(scope="session")
def stable_dense():
    cfg = load_config(config_path("stable_dense.ini"))
    return build_all(cfg)


@pytest.fixture(scope="session")
def co2_decane():
    """CO2 / n-decane mixture at 300 K in SI units."""
    data = fe.load_species_data()
    return fe.PengRobinson(data["n-decane"], data["CO2"], temperature=300.0,
                           k12=0.1141)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def derivatives(grid, f, orders):
    """Derivatives of the rows of an (m, n) stack, row i of order
    ``orders[i]`` (0, 1 or 2), in physical space: one ``rfft``, the symbol
    (ik)^p of each row and one ``irfft``.  The physical-space route of the
    oracles, independent of the package's spectral sums."""
    k = grid.wavenumbers
    symbols = np.stack([np.ones_like(k), 1j * k, -(k**2)])    # row p: (ik)^p
    fh = np.fft.rfft(f, axis=-1)
    return np.fft.irfft(symbols.take(orders, axis=0) * fh, n=grid.n, axis=-1)


def dx1(grid, f):
    return derivatives(grid, np.asarray(f)[np.newaxis], (1,))[0]


def dx2(grid, f):
    return derivatives(grid, np.asarray(f)[np.newaxis], (2,))[0]


def chemical_potentials(m, u, grid):
    """The chemical potentials of the state array u, formed here from the
    bulk gradient and the physical-space Laplacian: mu = g(E) - kappa
    d2E/dx2 by energy variable (rows) for the compressible classes,
    mu_phi = g(phi) - kappa_phi_phi d2phi/dx2 for the phase field."""
    if isinstance(m, models.QuasiIncompressible):
        phi = u[0]
        g = m.free_energy.gradient(phi[..., None])[..., 0]
        return g - m.kappa_phi_phi * dx2(grid, phi)
    E = m.energy_variables(u, axis=0)
    lap = derivatives(grid, E, (2,) * len(E))
    return m.free_energy.gradient(E.T).T - m.kappa.kappa @ lap


def physical_record(m, u, grid):
    """(energy, dissipation rate) of the state array u by the physical-space
    route: each derivative a transform pair of a physical field, each
    integrand summed pointwise.  The diffusive flux's potential comes from
    the state alone: the gradients of ``chemical_potentials`` or, for the
    phase field, dG/dx from the divergence constraint d vx/dx = (1 - r) Mh
    d2G/dx2, that is (vx - mean vx) / ((1 - r) Mh), and d mu_phi/dx where
    the specific densities are equal (G = mu_phi)."""
    if isinstance(m, models.QuasiIncompressible):
        phi, vx, vy = u
        rho = m.density(phi)
        kin = 0.5 * rho * (vx ** 2 + vy ** 2)
        bulk = m.free_energy.value(phi[..., None])
        grad = 0.5 * m.kappa_phi_phi * dx1(grid, phi) ** 2
        if equal_specific_densities(m.rho_hat_1, m.rho_hat_2):
            dG = dx1(grid, chemical_potentials(m, u, grid))
        else:
            r1, Mh = 1.0 - m.rho_hat_1 / m.rho_hat_2, m.M11 / m.rho_hat_1**2
            dG = (vx - vx.mean()) / (r1 * Mh)
        mob = m.M11 * (dG / m.rho_hat_1) ** 2
    else:
        rho = m.total_density(u)
        vx, vy = u[-2] / rho, u[-1] / rho
        E = m.energy_variables(u, axis=0)
        kin = 0.5 * (u[-2] ** 2 + u[-1] ** 2) / rho
        bulk = m.free_energy.value(E.T)
        dE = derivatives(grid, E, (1,) * len(E))
        grad = 0.5 * np.einsum("ij,ix,jx->x", m.kappa.kappa, dE, dE)
        dmu = derivatives(grid, chemical_potentials(m, u, grid), (1,) * len(E))
        mob = np.einsum("ij,ix,jx->x", m.mobility_E, dmu, dmu)
    eta, nu = m.inv_Re_s, m.inv_Re_v
    visc = (2.0 * eta + nu) * dx1(grid, vx) ** 2 + eta * dx1(grid, vy) ** 2
    return grid.integrate(kin + bulk + grad), -grid.integrate(visc + mob)


def fd_gradient(f, x, rel=1e-6):
    """Central-difference gradient oracle with relative step."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = rel * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_hessian(grad, x, rel=1e-6):
    """Central differences of a gradient callable."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for j in range(n):
        h = rel * max(1.0, abs(x[j]))
        e = np.zeros_like(x)
        e[j] = h
        H[:, j] = (grad(x + e) - grad(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


def random_global_model(rng, stable=None):
    """Random globally-conserving binary model with PSD mobility/kappa."""
    A = rng.normal(size=(2, 2))
    M = A @ A.T + 0.2 * np.eye(2)
    K = np.diag(rng.uniform(1e-3, 1e-2, size=2))
    C = rng.normal(size=(2, 2))
    C = 0.5 * (C + C.T)
    if stable is True:
        C = C @ C.T + 0.5 * np.eye(2)
    q = fe.Quadratic(C)
    return models.CompressibleGlobal(
        free_energy=q, kappa=fe.GradientCoefficients(K), mobility=M,
        inv_Re_s=rng.uniform(0.1, 1.0), inv_Re_v=rng.uniform(0.1, 1.0))
