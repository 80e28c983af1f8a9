import numpy as np
import pytest

from pfmix import free_energy as fe
from pfmix import models
from pfmix.errors import DomainError, RangeError, ShapeError
from pfmix.grid import PeriodicGrid1D

from conftest import fd_gradient, fd_hessian

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Independent scalar re-implementation of the mixture energy, written with
# the grouped molar prefactor (a second code path for the same closed form).
# ---------------------------------------------------------------------------

def pr_energy_oracle(rho1, rho2, a, b, r_m, m2, R, T, lam):
    c = (r_m * rho1 + rho2) / m2
    y1 = r_m * rho1 / (r_m * rho1 + rho2)
    y2 = rho2 / (r_m * rho1 + rho2)
    phiT = -R * T * (1.0 - np.log(lam**3))
    out = c * phiT
    out -= c * R * T * np.log(m2 / (r_m * rho1 + rho2) - b)
    out -= c * a / (2.0 * SQRT2 * b) * np.log(
        (m2 + (r_m * rho1 + rho2) * b * (1.0 + SQRT2))
        / (m2 + (r_m * rho1 + rho2) * b * (1.0 - SQRT2)))
    out += c * R * T * (y1 * np.log(y1) + y2 * np.log(y2))
    return out


class TestBulkEnergy:
    def test_quadratic_identity(self):
        q = fe.Quadratic(np.eye(2))
        assert q.value([1.0, 2.0]) == pytest.approx(2.5, abs=0.0)

    def test_flory_huggins_symmetric(self):
        fh = fe.FloryHuggins(1.0, 1.0, 1.0, 0.0)
        assert fh.value([1.0, 1.0]) == pytest.approx(2.0 * np.log(0.5), rel=1e-15)

    def test_pr_against_scalar_oracle(self, co2_decane):
        pr = co2_decane
        rho = np.array([200.0, 200.0])
        nm = rho / pr.m
        n = nm.sum()
        y = nm / n
        a_mix = float(y @ pr.a @ y)
        b_mix = float(y @ pr.b)
        want = pr_energy_oracle(rho[0], rho[1], a_mix, b_mix,
                                pr.m[1] / pr.m[0], pr.m[1], pr.R, pr.T, pr.lam)
        assert pr.value(rho) == pytest.approx(want, rel=1e-12)

    def test_pr_oracle_other_states(self, co2_decane, rng):
        pr = co2_decane
        for _ in range(20):
            rho = rng.uniform([5.0, 20.0], [300.0, 400.0])
            if not pr.in_domain(rho):
                continue
            nm = rho / pr.m
            y = nm / nm.sum()
            want = pr_energy_oracle(rho[0], rho[1], float(y @ pr.a @ y),
                                    float(y @ pr.b), pr.m[1] / pr.m[0],
                                    pr.m[1], pr.R, pr.T, pr.lam)
            assert pr.value(rho) == pytest.approx(want, rel=1e-11)

    def test_domain_errors(self, co2_decane):
        with pytest.raises(DomainError):
            fe.FloryHuggins(1.0, 1.0, 1.0, 0.0).value([1.0, -1.0])
        # covolume packing limit b.n >= 1
        dense = np.array([1.0, 2000.0])
        assert not co2_decane.in_domain(dense)
        with pytest.raises(DomainError):
            co2_decane.value(dense)

    # (energy, points, (index, message)): one bad point of each kind on each
    # energy and wrapper, the first failing check winning over a later kind
    # at a smaller index; recorded before the checks became mask-based
    @pytest.mark.parametrize("kind, pts, want", [
        ("quadratic", [[1, 2], [3, np.nan], [np.nan, 1]], (1, "non-finite density")),
        ("quadratic", [[1, 2], [1, 2], [-np.inf, 0]], (2, "non-finite density")),
        ("fh", [[0.3, 0.4], [0.3, 0.4], [np.nan, 0.1], [-1, 0.2]],
         (2, "non-finite density")),
        ("fh", [[0.3, 0.4], [0.3, 0.0], [0.3, 0.4]], (1, "density <= 0")),
        ("fh", [[-0.1, 0.2], [0.3, 0.4], [np.inf, 0.1]], (2, "non-finite density")),
        ("pr", [[100, 200], [np.nan, 100]], (1, "non-finite density")),
        ("pr", [[100, 200], [100, 200], [100, -1], [5000, 5000]],
         (2, "molar density <= 0")),
        ("pr", [[100, 200], [700, 900], [0, 1]], (2, "molar density <= 0")),
        ("pr", [[100, 200], [100, 200], [700, 900]], (2, "covolume packing b.n >= 1")),
        ("pr", [0, 100], (0, "molar density <= 0")),
        ("tilde_pr", [[100, 300], [300, 200]], (1, "molar density <= 0")),
        ("tilde_pr", [[100, 300], [700, 1600]], (1, "covolume packing b.n >= 1")),
        ("tilde_pr", [[100, 300], [100, np.nan]], (1, "non-finite density")),
        ("tilde_pr", [[[100, 300], [100, 300]], [[100, 300], [300, 100]]],
         (3, "molar density <= 0")),
        ("phi_fh", [[0.5], [1.5], [-0.5]], (1, "density <= 0")),
        ("phi_fh", [[0.5], [np.nan]], (1, "non-finite density")),
    ])
    def test_domain_violation_table(self, co2_decane, kind, pts, want):
        fh = fe.FloryHuggins(1.0, 1.0, 2.0, 3.0)
        energy = {
            "quadratic": fe.Quadratic(np.eye(2)),
            "fh": fh,
            "pr": co2_decane,
            "tilde_pr": fe.TildeFreeEnergy(co2_decane),
            "phi_fh": fe.PhiFreeEnergy(fe.TildeFreeEnergy(fh), 2.0, 1.0),
        }[kind]
        pts = np.array(pts, dtype=float)
        assert energy.domain_violation(pts) == want
        mask = energy.domain_mask(pts)
        assert mask.shape == pts.shape[:-1]
        assert np.all(mask) == (want is None)
        if want is not None:
            assert not mask.ravel()[want[0]]

    def test_pointwise_domain_error_carries_index(self, co2_decane):
        field = np.tile([50.0, 200.0], (8, 1))
        field[5, 1] = -3.0
        with pytest.raises(DomainError) as err:
            co2_decane.value(field, pointwise=True)
        assert err.value.index == 5


class TestDerivatives:
    def test_quadratic_gradient(self):
        q = fe.Quadratic(np.eye(2))
        assert np.allclose(q.gradient([3.0, 4.0]), [3.0, 4.0])

    def test_fh_gradient_fd(self):
        fh = fe.FloryHuggins(1.0, 1.0, 1.0, 0.0)
        x = np.array([1.0, 1.0])
        g = fh.gradient(x)
        gfd = fd_gradient(lambda y: fh.value(y), x)
        assert np.max(np.abs(g - gfd) / np.abs(gfd)) < 1e-6
        # each component equals ln(1/2) here
        assert np.allclose(g, np.log(0.5), rtol=1e-9)

    def test_pr_gradient_fd_at_reference(self, co2_decane):
        x = np.array([400.0, 200.0])
        g = co2_decane.gradient(x)
        gfd = fd_gradient(lambda y: co2_decane.value(y), x)
        assert np.max(np.abs(g - gfd) / np.abs(gfd)) < 1e-6

    @pytest.mark.parametrize("which", ["quadratic", "fh", "pr"])
    def test_gradient_hessian_fd_sweep(self, which, co2_decane, rng):
        if which == "quadratic":
            C = np.array([[2.0, 0.5], [0.5, 1.5]])
            energy = fe.Quadratic(C, g=[0.1, -0.2])
            lo, hi = [0.1, 0.1], [5.0, 5.0]
        elif which == "fh":
            energy = fe.FloryHuggins(1.3, 5.0, 2.0, 1.7)
            lo, hi = [0.05, 0.05], [4.0, 4.0]
        else:
            energy = co2_decane
            lo, hi = [5.0, 20.0], [250.0, 350.0]
        checked = 0
        for _ in range(200):
            x = rng.uniform(lo, hi)
            if not energy.in_domain(x):
                continue
            g = energy.gradient(x)
            gfd = fd_gradient(lambda y: energy.value(y), x)
            assert np.max(np.abs(g - gfd) / np.maximum(np.abs(gfd), 1e-10)) < 1e-5
            H = energy.hessian(x)
            Hfd = fd_hessian(lambda y: energy.gradient(y), x)
            assert np.max(np.abs(H - Hfd) / np.maximum(np.abs(Hfd), 1e-10)) < 1e-5
            checked += 1
            if checked == 100:
                break
        assert checked == 100


class TestHessianClassification:
    def test_quadratic_identity_report(self):
        x = np.array([1.0, 2.0])
        C = fe.Quadratic(np.eye(2)).hessian(x)
        assert fe.classify_matrix(C) is fe.Definiteness.POSITIVE_DEFINITE
        assert np.linalg.det(C) == pytest.approx(1.0)
        assert x @ C @ x == pytest.approx(5.0)

    def test_calibrated_states(self, band_composition, stable_dense):
        model, state = stable_dense
        C = model.free_energy.hessian(model.state_densities(state))
        assert fe.classify_matrix(C) is fe.Definiteness.POSITIVE_DEFINITE
        model, state = band_composition
        C = model.free_energy.hessian(model.state_densities(state))
        assert fe.classify_matrix(C) is fe.Definiteness.INDEFINITE
        assert np.linalg.det(C) < 0.0


def from_rho_rho1(kappa_tilde):
    """The inverse congruence of the (rho1, rho) change, kappa = Jinv^T
    kappa~ Jinv with Jinv = [[1, 0], [1, 1]], the inverse of
    ``fe.J_RHO1_RHO``."""
    Jinv = np.array([[1.0, 0.0], [1.0, 1.0]])
    return fe.GradientCoefficients(Jinv.T @ kappa_tilde.kappa @ Jinv)


class TestVariableChanges:
    def test_kappa_transform_values(self):
        kap = fe.GradientCoefficients(np.diag([2.0, 3.0]))
        kt, _ = fe.change_variables_to_rho_rho1(kap, fe.Quadratic(np.eye(2)))
        # (rho1, rho) ordering: [rho1rho1, rho1rho; rho1rho, rhorho]
        assert kt.kappa[0, 0] == pytest.approx(5.0)   # a + b
        assert kt.kappa[0, 1] == pytest.approx(-3.0)  # -b
        assert kt.kappa[1, 1] == pytest.approx(3.0)   # b

    def test_kappa_zero(self):
        kt, _ = fe.change_variables_to_rho_rho1(
            fe.GradientCoefficients(np.zeros((2, 2))), fe.Quadratic(np.eye(2)))
        assert np.all(kt.kappa == 0.0)

    def test_kappa_round_trip_exact_dyadic(self, rng):
        # dyadic entries incur no rounding through the integer congruence
        for _ in range(20):
            A = np.round(rng.normal(size=(2, 2)) * 16.0) / 16.0
            kap = fe.GradientCoefficients(A @ A.T)
            kt, _ = fe.change_variables_to_rho_rho1(kap, fe.Quadratic(np.eye(2)))
            back = from_rho_rho1(kt)
            assert np.array_equal(back.kappa, kap.kappa)

    def test_kappa_round_trip_generic(self, rng):
        for _ in range(20):
            A = rng.normal(size=(2, 2))
            kap = fe.GradientCoefficients(A @ A.T)
            kt, _ = fe.change_variables_to_rho_rho1(kap, fe.Quadratic(np.eye(2)))
            back = from_rho_rho1(kt)
            scale = np.linalg.norm(kap.kappa)
            assert np.max(np.abs(back.kappa - kap.kappa)) <= 4e-16 * scale

    def test_hessian_congruence_quadratic(self, rng):
        J = np.array([[1.0, 0.0], [-1.0, 1.0]])
        C = rng.normal(size=(2, 2))
        C = 0.5 * (C + C.T)
        q = fe.Quadratic(C)
        _, tq = fe.change_variables_to_rho_rho1(
            fe.GradientCoefficients(np.eye(2)), q)
        H = tq.hessian(np.array([1.0, 3.0]))
        assert np.max(np.abs(H - J.T @ C @ J)) < 1e-10

    def test_hessian_congruence_pr_fd(self, co2_decane):
        J = np.array([[1.0, 0.0], [-1.0, 1.0]])
        tq = fe.TildeFreeEnergy(co2_decane)
        x = np.array([80.0, 400.0])  # (rho1, rho)
        Hfd = fd_hessian(lambda y: tq.gradient(y), x)
        C = co2_decane.hessian(np.array([80.0, 320.0]))
        assert np.max(np.abs(tq.hessian(x) - J.T @ C @ J)) \
            < 1e-6 * np.linalg.norm(C)
        assert np.max(np.abs(tq.hessian(x) - Hfd)) < 1e-6 * np.linalg.norm(C)

    def test_reduce_equal_densities(self):
        kt = fe.GradientCoefficients(np.diag([2.0, 0.5]))
        q = fe.Quadratic(np.eye(2), variables=("rho1", "rho"))
        kphi, _ = fe.reduce_quasi_incompressible(kt, q, 3.0, 3.0)
        assert kphi == pytest.approx(2.0 * 9.0)

    def test_reduce_direct_formula(self):
        kt = fe.GradientCoefficients(np.diag([1.0, 0.0]))
        q = fe.Quadratic(np.eye(2), variables=("rho1", "rho"))
        kphi, _ = fe.reduce_quasi_incompressible(kt, q, 2.0, 1.0)
        assert kphi == pytest.approx(4.0)

    def test_reduced_second_derivative_fd(self):
        C = np.array([[2.0, 0.4], [0.4, 1.0]])
        q = fe.Quadratic(C, variables=("rho1", "rho"))
        kt = fe.GradientCoefficients(np.eye(2))
        _, fphi = fe.reduce_quasi_incompressible(kt, q, 2.0, 1.0)
        x = np.array([0.4])
        fd = fd_hessian(lambda y: fphi.gradient(y), x)[0, 0]
        assert fphi.hessian(x)[0, 0] == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("kind", ["tilde_pr", "tilde_fh", "phi_fh"])
    def test_change_of_variables_matches_its_base(self, co2_decane, kind):
        # each energy is its (rho1, rho2) energy at the point it maps x to,
        # written out by hand here, and its gradient is its value's derivative
        fh = fe.FloryHuggins(1.0, 1.0, 2.0, 3.0)
        binary, energy, x, rho12 = {
            "tilde_pr": (co2_decane, fe.TildeFreeEnergy(co2_decane),
                         [80.0, 400.0], [80.0, 320.0]),
            "tilde_fh": (fh, fe.TildeFreeEnergy(fh), [0.4, 1.0], [0.4, 0.6]),
            # rho1 = rho_hat_1 phi, rho2 = rho_hat_2 (1 - phi)
            "phi_fh": (fh, fe.PhiFreeEnergy(fe.TildeFreeEnergy(fh), 2.0, 1.0),
                       [0.3], [0.6, 0.7]),
        }[kind]
        x = np.array(x)
        assert energy.value(x) == pytest.approx(binary.value(rho12), rel=1e-14)
        g = energy.gradient(x)
        gfd = fd_gradient(energy.value, x)
        assert g.shape == x.shape
        assert np.max(np.abs(g - gfd)) < 1e-6 * np.max(np.abs(g))


class TestChemicalPotentials:
    """mu_i = dh/drho_i - sum_j kappa_ij lap(rho_j) as the compressible
    right-hand side forms it, read through its density rows: at rest and
    with the identity mobility they are the fluxes d2 mu_i/dx2."""

    @staticmethod
    def d2mu(q, kap, densities, grid):
        m = models.CompressibleGlobal(q, kap, np.eye(2), inv_Re_s=0.5, inv_Re_v=0.2)
        u = np.concatenate([densities, np.zeros((2, grid.n))])
        return m.rhs_1d(u, grid)[:2]

    def test_uniform_fields(self):
        # mu is the constant g(rho): no flux anywhere
        grid = PeriodicGrid1D(2 * np.pi, 32)
        q = fe.Quadratic(np.eye(2))
        kap = fe.GradientCoefficients(np.diag([0.1, 0.2]))
        fields = np.stack([np.full(grid.n, 1.5), np.full(grid.n, 2.5)])
        assert np.max(np.abs(self.d2mu(q, kap, fields, grid))) <= 1e-14

    def test_single_mode_laplacian(self):
        grid = PeriodicGrid1D(2 * np.pi, 64)
        q = fe.Quadratic(np.eye(2))
        k11 = 0.37
        kap = fe.GradientCoefficients(np.diag([k11, 0.0]))
        eps, mode = 1e-3, 3
        k = grid.mode_wavenumber(mode)
        rho1 = 1.0 + eps * np.cos(k * grid.x)
        rho2 = np.full(grid.n, 2.0)
        d2mu = self.d2mu(q, kap, np.stack([rho1, rho2]), grid)
        # g = rho for the identity Hessian: d2 g1/dx2 = -k^2 eps cos(kx),
        # and -k11 lap(rho1) adds -k11 k^4 eps cos(kx)
        grad_part = -eps * k * k * np.cos(k * grid.x)
        want = -eps * k11 * k**4 * np.cos(k * grid.x)
        assert np.max(np.abs(d2mu[0] - grad_part - want)) < 1e-8 * eps * k11 * k**4
        assert np.max(np.abs(d2mu[1])) <= 1e-14


def classify_one(C):
    """Definiteness code of one matrix, decided the way the per-matrix
    classifier did before classification was batched; the oracle for
    ``classify_matrices``."""
    scale = np.linalg.norm(C)
    if scale == 0.0:
        return fe.MAP_SINGULAR
    eigs = np.linalg.eigvalsh(0.5 * (C + C.T))
    if np.any(np.abs(eigs) <= fe.DEFINITENESS_TOL * scale):
        return fe.MAP_SINGULAR
    if np.all(eigs > 0):
        return fe.MAP_POSITIVE_DEFINITE
    if np.all(eigs < 0):
        return fe.MAP_NEGATIVE_DEFINITE
    return fe.MAP_INDEFINITE


def per_cell_map(energy, rho1_values, rho_values):
    """The concavity map one cell at a time: ``in_domain``, then the
    Hessian and ``classify_one`` of that cell alone."""
    codes = np.full((len(rho1_values), len(rho_values)), fe.MAP_EXCLUDED)
    for i, r1 in enumerate(rho1_values):
        for j, r in enumerate(rho_values):
            pt = np.array([r1, r])
            if energy.in_domain(pt):
                codes[i, j] = classify_one(energy.hessian(pt))
    return codes


# a zero eigenvalue is one with |lam| <= DEFINITENESS_TOL * ||C||_F; these
# put the second eigenvalue 0.1 % inside and outside that bound
_INSIDE = fe.DEFINITENESS_TOL * (1.0 - 1e-3)
_OUTSIDE = fe.DEFINITENESS_TOL * (1.0 + 1e-3)


class TestConcavityMap:
    @pytest.mark.parametrize("C, code", [
        (np.zeros((2, 2)), fe.MAP_SINGULAR),
        (np.diag([1.0, _INSIDE]), fe.MAP_SINGULAR),
        (np.diag([1.0, _OUTSIDE]), fe.MAP_POSITIVE_DEFINITE),
        (np.diag([-1.0, -_OUTSIDE]), fe.MAP_NEGATIVE_DEFINITE),
        (np.diag([-1.0, _INSIDE]), fe.MAP_SINGULAR),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), fe.MAP_INDEFINITE),
    ])
    def test_quadratic_matches_per_cell(self, C, code):
        q = fe.Quadratic(C, variables=("rho1", "rho"))
        rho1 = np.array([np.nan, -1.0, 0.0, 0.5, np.inf, 2.0])
        rho = np.array([1.0, -np.inf, 3.0, np.nan, 4.0])
        codes = fe.concavity_map(q, rho1, rho)
        np.testing.assert_array_equal(codes, per_cell_map(q, rho1, rho))
        finite = np.isfinite(rho1)[:, None] & np.isfinite(rho)[None, :]
        assert np.all(codes[finite] == code)
        assert np.all(codes[~finite] == fe.MAP_EXCLUDED)

    def test_flory_huggins_matches_per_cell(self):
        # homogeneous of degree one, so every Hessian in the domain is singular
        fh = fe.FloryHuggins(1.0, 1.0, 2.0, 3.0)
        rho1 = np.array([-0.2, 0.0, 0.1, 0.3, np.nan, 0.7])
        rho2 = np.array([0.2, np.inf, 0.0, 0.5, -0.1, 0.9])
        codes = fe.concavity_map(fh, rho1, rho2)
        np.testing.assert_array_equal(codes, per_cell_map(fh, rho1, rho2))
        assert set(np.unique(codes)) == {fe.MAP_EXCLUDED, fe.MAP_SINGULAR}

    def test_peng_robinson_matches_per_cell(self, co2_decane):
        tq = fe.TildeFreeEnergy(co2_decane)
        # rho1 > rho, rho1 = 0, covolume packing past ~750 kg/m^3 of decane,
        # and non-finite coordinates on both axes
        rho1 = np.concatenate([[np.nan, -5.0, 0.0], np.linspace(2.0, 900.0, 23),
                               [np.inf]])
        rho = np.concatenate([[-np.inf], np.linspace(2.0, 1800.0, 25), [np.nan]])
        codes = fe.concavity_map(tq, rho1, rho)
        np.testing.assert_array_equal(codes, per_cell_map(tq, rho1, rho))
        assert {fe.MAP_EXCLUDED, fe.MAP_POSITIVE_DEFINITE,
                fe.MAP_INDEFINITE} <= set(np.unique(codes))
        # excluded cells with both densities positive: the covolume bound
        R1, R = np.meshgrid(rho1, rho, indexing="ij")
        assert np.any((codes == fe.MAP_EXCLUDED) & (0.0 < R1) & (R1 < R)
                      & np.isfinite(R))

    def test_classify_matrices_matches_per_matrix(self, rng):
        H = rng.normal(size=(200, 3, 3))
        H[:50] = H[:50] @ np.swapaxes(H[:50], 1, 2)        # positive definite
        H[50:100] = -H[50:100] @ np.swapaxes(H[50:100], 1, 2)
        H[100] = 0.0
        H[101] = np.diag([2.0, 1.0, _INSIDE * np.sqrt(5.0)])
        H[102] = np.diag([2.0, 1.0, _OUTSIDE * np.sqrt(5.0)])
        codes = fe.classify_matrices(H)
        assert codes.shape == (200,)
        want = [classify_one(C) for C in H]
        np.testing.assert_array_equal(codes, want)
        assert codes[100] == codes[101] == fe.MAP_SINGULAR
        assert codes[102] == fe.MAP_POSITIVE_DEFINITE
        assert set(want) == {fe.MAP_POSITIVE_DEFINITE, fe.MAP_INDEFINITE,
                             fe.MAP_NEGATIVE_DEFINITE, fe.MAP_SINGULAR}
        assert fe.classify_matrix(H[102]) is fe.Definiteness.POSITIVE_DEFINITE
        assert fe.classify_matrices(H.reshape(20, 10, 3, 3)).shape == (20, 10)

    def test_quadratic_all_positive_definite(self):
        q = fe.Quadratic(np.eye(2), variables=("rho1", "rho"))
        codes = fe.concavity_map(q, np.linspace(0.5, 2, 5), np.linspace(1, 4, 5))
        assert np.all(codes == fe.MAP_POSITIVE_DEFINITE)

    def test_co2_decane_regions(self, co2_decane):
        tq = fe.TildeFreeEnergy(co2_decane)
        rho1 = np.linspace(2.0, 500.0, 40)
        rho = np.linspace(2.0, 500.0, 40)
        codes = fe.concavity_map(tq, rho1, rho)
        assert np.any(codes == fe.MAP_POSITIVE_DEFINITE)
        assert np.any(codes == fe.MAP_INDEFINITE)
        assert np.any(codes == fe.MAP_EXCLUDED)  # rho1 > rho corner
        # every indefinite cell has negative determinant
        for i, r1 in enumerate(rho1):
            for j, r in enumerate(rho):
                if codes[i, j] == fe.MAP_INDEFINITE:
                    H = tq.hessian(np.array([r1, r]))
                    assert np.linalg.det(H) < 0.0


class TestGradientCoefficients:
    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            fe.GradientCoefficients(np.array([[1.0, 0.1], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(RangeError):
            fe.GradientCoefficients(np.array([[1.0, 0.0], [0.0, -1e-3]]))

    def test_accepts_psd(self):
        fe.GradientCoefficients(np.array([[1.0, 1.0], [1.0, 1.0]]))
