import warnings

import numpy as np
import pytest

from pfmix import free_energy as fe
from pfmix import models
from pfmix.errors import DomainError, NumericalError, RangeError, ShapeError
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
            if not pr.domain_mask(rho):
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
        assert not co2_decane.domain_mask(dense)
        with pytest.raises(DomainError):
            co2_decane.value(dense)

    # (energy, points, (index, message)): one bad point of each kind on each
    # energy and wrapper, the first failing check winning over a later kind
    # at a smaller index; recorded before the checks became mask-based.  A
    # lone point carries no index
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
        idx, reason = want
        with pytest.raises(DomainError) as err:
            energy.check_domain(pts)
        where = f" (grid index {idx})" if pts.ndim > 1 else ""
        assert err.value.index == (idx if where else None)
        assert str(err.value) == f"{type(energy).__name__}: {reason}{where}"
        mask = energy.domain_mask(pts)
        assert mask.shape == pts.shape[:-1]
        assert not mask.ravel()[idx]

    def test_pointwise_domain_error_carries_index(self, co2_decane):
        field = np.tile([50.0, 200.0], (8, 1))
        field[5, 1] = -3.0
        with pytest.raises(DomainError) as err:
            co2_decane.value(field)
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
            if not energy.domain_mask(x):
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

    @pytest.mark.parametrize("which", ["quadratic", "tilde_quadratic", "fh", "tilde_pr"])
    def test_gradient_into_a_transposed_view_bit_for_bit(self, which, co2_decane):
        # out= writes the gradient into an (nvar, M) array's transpose, as
        # the compressible pass does, with the bits of a plain gradient
        q = fe.Quadratic([[2.0, 0.5], [0.5, -1.5]], g=[0.1, -0.2])
        energy, base = {
            "quadratic": (q, [1.0, 2.0]),
            "tilde_quadratic": (fe.TildeFreeEnergy(q), [1.0, 3.0]),
            "fh": (fe.FloryHuggins(1.3, 5.0, 2.0, 1.7), [1.0, 2.0]),
            "tilde_pr": (fe.TildeFreeEnergy(co2_decane), [80.0, 400.0]),
        }[which]
        grid = PeriodicGrid1D(2 * np.pi, 64)
        x = np.array(base)[:, None] * (1.0 + 0.1 * np.cos([[1.0], [2.0]] * grid.x))
        rows = np.full((4, grid.n), np.nan)
        got = energy.gradient(x.T, out=rows[1:3].T)
        assert np.shares_memory(got, rows) and np.array_equal(got, rows[1:3].T)
        assert np.array_equal(rows[1:3], energy.gradient(x.T).T)
        assert np.isnan(rows[[0, 3]]).all()
        with pytest.raises(DomainError):
            energy.gradient(np.full((3, 2), np.nan), out=np.zeros((3, 2)))


class TestHessianClassification:
    def test_quadratic_identity_report(self):
        x = np.array([1.0, 2.0])
        C = fe.Quadratic(np.eye(2)).hessian(x)
        assert fe.classify_matrices(C) == fe.MAP_POSITIVE_DEFINITE
        assert np.linalg.det(C) == pytest.approx(1.0)
        assert x @ C @ x == pytest.approx(5.0)

    def test_calibrated_states(self, band_composition, stable_dense):
        model, state = stable_dense
        C = model.free_energy.hessian(model.state_densities(state))
        assert fe.classify_matrices(C) == fe.MAP_POSITIVE_DEFINITE
        model, state = band_composition
        C = model.free_energy.hessian(model.state_densities(state))
        assert fe.classify_matrices(C) == fe.MAP_INDEFINITE
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


# ---------------------------------------------------------------------------
# The batched Hessians as they were first written, with (..., 2, 2)
# broadcasting and einsum: the package's entry-by-entry forms must do the
# same floating-point operations in the same order, so every bit agrees.
# ---------------------------------------------------------------------------

def pr_hessian_reference(pr, rho):
    nm = pr._moles(rho)
    n = nm.sum(axis=-1)[..., None, None]
    A, Ai, B = pr._AB(nm)
    A, B = A[..., None, None], B[..., None, None]
    L, Lp, Lpp = pr._L(B), pr._Lp(B), pr._Lpp(B)
    bi = pr.b[:, None]
    bj = pr.b[None, :]
    Ai_ = Ai[..., :, None]
    Aj_ = Ai[..., None, :]
    s = 2.0 * SQRT2
    ideal = np.zeros(nm.shape[:-1] + (2, 2))
    ideal[..., 0, 0] = pr.RT / nm[..., 0]
    ideal[..., 1, 1] = pr.RT / nm[..., 1]
    rep = pr.RT * (bi + bj) / (1.0 - B) + n * pr.RT * bi * bj / (1.0 - B) ** 2
    F = ((2.0 * pr.a / (s * B) - (Ai_ * bj + Aj_ * bi) / (s * B**2)
          + 2.0 * A * bi * bj / (s * B**3)) * L
         + (Ai_ / (s * B) - A * bi / (s * B**2)) * Lp * bj
         + (Aj_ / (s * B) - A * bj / (s * B**2)) * Lp * bi
         + A / (s * B) * Lpp * bi * bj)
    H = ideal + rep + F
    return H / (pr.m[:, None] * pr.m[None, :])


def hessian_reference(energy, x):
    """The Hessian of ``energy`` at points ``x``, every change of variables
    by einsum and Peng-Robinson by broadcasting."""
    if isinstance(energy, fe.ChangeOfVariables):
        H = hessian_reference(energy.base, energy._to_base(x))
        return np.einsum("ki,...kl,lj->...ij", energy.T, H, energy.T)
    if isinstance(energy, fe.PengRobinson):
        return pr_hessian_reference(energy, x)
    return energy._hessian(x)


def points_inside(energy, rng, lo, hi, size):
    """``size`` uniform points in the box [lo, hi] that lie in the domain."""
    x = rng.uniform(lo, hi, size=(4 * size + 40, energy.nvar))
    x = x[energy.domain_mask(x)][:size]
    assert len(x) == size
    return x


class TestHessianBits:
    QUADRATIC_C = np.array([[1.3, -0.7], [-0.7, 0.45]])
    FH = (1.0, 1.0, 2.0, 3.0)
    # each energy, and the box its sample points are drawn from
    CASES = {
        "peng_robinson": (lambda pr: pr, [1.0, 1.0], [600.0, 600.0]),
        "flory_huggins": (lambda pr: fe.FloryHuggins(*TestHessianBits.FH),
                          [0.01, 0.01], [2.0, 2.0]),
        "quadratic": (lambda pr: fe.Quadratic(TestHessianBits.QUADRATIC_C),
                      [-3.0, -3.0], [3.0, 3.0]),
        "tilde_peng_robinson": (lambda pr: fe.TildeFreeEnergy(pr),
                                [1.0, 1.0], [600.0, 1200.0]),
        "tilde_flory_huggins": (lambda pr: fe.TildeFreeEnergy(
            fe.FloryHuggins(*TestHessianBits.FH)), [0.01, 0.01], [2.0, 4.0]),
        "tilde_quadratic": (lambda pr: fe.TildeFreeEnergy(
            fe.Quadratic(TestHessianBits.QUADRATIC_C)), [-3.0, -3.0], [3.0, 3.0]),
        "phi_dyadic": (lambda pr: fe.PhiFreeEnergy(fe.TildeFreeEnergy(pr), 2.0, 1.0),
                       [0.001], [0.999]),
        "phi_non_dyadic": (lambda pr: fe.PhiFreeEnergy(
            fe.TildeFreeEnergy(pr), 1.7, 0.9), [0.001], [0.999]),
    }

    @pytest.mark.parametrize("size", [1, 7, 5000])
    @pytest.mark.parametrize("case", list(CASES))
    def test_stack_matches_the_reference_bit_for_bit(self, co2_decane, rng, case, size):
        make, lo, hi = self.CASES[case]
        energy = make(co2_decane)
        x = points_inside(energy, rng, lo, hi, size)
        H = energy.hessian(x)
        assert H.shape == (size, energy.nvar, energy.nvar)
        assert np.array_equal(H, hessian_reference(energy, x))

    @pytest.mark.parametrize("case", list(CASES))
    def test_lone_point_matches_the_reference_bit_for_bit(self, co2_decane, rng, case):
        # a lone point's Peng-Robinson powers must be the ufunc's on arrays,
        # not a numpy scalar's, which round differently in a few % of cases;
        # a lone phi, alone or as a stack of one, has a one-entry Hessian,
        # whose terms einsum sums row by row
        make, lo, hi = self.CASES[case]
        energy = make(co2_decane)
        for x in points_inside(energy, rng, lo, hi, 200):
            H = energy.hessian(x)
            assert H.shape == (energy.nvar, energy.nvar)
            assert np.array_equal(H, hessian_reference(energy, x))
            assert np.array_equal(energy.hessian(x[None]),
                                  hessian_reference(energy, x[None]))

    def test_lone_point_squares_are_the_ufuncs(self, co2_decane):
        # 1 - B of a 0-d array is a numpy scalar, whose ** 2 rounds
        # differently from the ufunc's square at this point (13 of 20,000
        # random ones): a lone point's B must stay an array through every power
        x = np.array([209.30802337464328, 45.928110254822776])
        assert np.array_equal(co2_decane.hessian(x), pr_hessian_reference(co2_decane, x))

    def test_peng_robinson_hessian_is_not_mirrored(self, co2_decane, rng):
        # the two off-diagonal entries sum their terms in different orders,
        # so they may differ in the last bit: both are computed
        x = points_inside(co2_decane, rng, [1.0, 1.0], [600.0, 600.0], 5000)
        H = co2_decane.hessian(x)
        assert np.any(H[:, 0, 1] != H[:, 1, 0])
        np.testing.assert_allclose(H[:, 0, 1], H[:, 1, 0], rtol=1e-12)


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
    """The concavity map one cell at a time: the Hessian, with its domain
    check, and ``classify_one`` of that cell alone."""
    codes = np.full((len(rho1_values), len(rho_values)), fe.MAP_EXCLUDED)
    for i, r1 in enumerate(rho1_values):
        for j, r in enumerate(rho_values):
            try:
                codes[i, j] = classify_one(energy.hessian(np.array([r1, r])))
            except DomainError:
                pass
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
        # literal Hessians, not scaled by DEFINITENESS_TOL: with ||C||_F ~ 1
        # an eigenvalue of 1e-8 counts, one of 1e-12 is zero
        (np.diag([1.0, 1e-8]), fe.MAP_POSITIVE_DEFINITE),
        (np.diag([1.0, 1e-12]), fe.MAP_SINGULAR),
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_classify_matrices_matches_per_matrix(self, rng, n):
        # n = 2 is classified in closed form, n = 3 by eigvalsh
        H = rng.normal(size=(200, n, n))
        H[:50] = H[:50] @ np.swapaxes(H[:50], 1, 2)        # positive definite
        H[50:100] = -H[50:100] @ np.swapaxes(H[50:100], 1, 2)
        H[100] = 0.0
        head = [2.0, 1.0][:n - 1]
        norm = np.sqrt(sum(h * h for h in head))
        H[101] = np.diag(head + [_INSIDE * norm])
        H[102] = np.diag(head + [_OUTSIDE * norm])
        codes = fe.classify_matrices(H)
        assert codes.shape == (200,)
        want = [classify_one(C) for C in H]
        np.testing.assert_array_equal(codes, want)
        assert codes[100] == codes[101] == fe.MAP_SINGULAR
        assert codes[102] == fe.MAP_POSITIVE_DEFINITE
        assert set(want) == {fe.MAP_POSITIVE_DEFINITE, fe.MAP_INDEFINITE,
                             fe.MAP_NEGATIVE_DEFINITE, fe.MAP_SINGULAR}
        assert fe.classify_matrices(H[102]) == fe.MAP_POSITIVE_DEFINITE
        assert fe.classify_matrices(H.reshape(20, 10, n, n)).shape == (20, 10)

    def test_closed_form_2x2_matches_per_matrix(self, rng):
        # general, symmetric and near rank-one matrices, the last within
        # 1e-13 to 1e-7 of singular, at scales from 1e-150 to 1e150
        N = 4000
        H = rng.normal(size=(N, 2, 2))
        H[N // 2:] = 0.5 * (H[N // 2:] + np.swapaxes(H[N // 2:], 1, 2))
        u = rng.normal(size=(N, 2))
        rank_one = rng.choice([-1.0, 1.0], N)[:, None, None] * u[:, :, None] * u[:, None, :]
        near = rng.random(N) < 0.3
        H[near] = (rank_one + rng.normal(size=(N, 2, 2))
                   * 10.0 ** rng.uniform(-13.0, -7.0, N)[:, None, None])[near]
        H *= 10.0 ** rng.uniform(-150.0, 150.0, N)[:, None, None]
        codes = fe.classify_matrices(H)
        np.testing.assert_array_equal(codes, [classify_one(C) for C in H])
        assert set(codes[near]) == {fe.MAP_INDEFINITE, fe.MAP_SINGULAR,
                                    fe.MAP_POSITIVE_DEFINITE, fe.MAP_NEGATIVE_DEFINITE}

    def test_closed_form_2x2_tolerance_probes(self):
        # diagonal matrices, whose eigenvalues eigvalsh returns exactly, with
        # a second eigenvalue from 4e-6 inside to 4e-6 outside the zero
        # tolerance in steps of 1e-7 of it, of both signs; and the zero and
        # an antisymmetric matrix, whose symmetric parts vanish
        steps = np.concatenate([-np.arange(1, 41), np.arange(1, 41)]) * 1e-7
        second = fe.DEFINITENESS_TOL * np.concatenate([1.0 + steps, -(1.0 + steps),
                                                       [1.0 - 1e-3, 1.0 + 1e-3]])
        H = np.zeros((2 * second.size + 2, 2, 2))
        H[:second.size, 0, 0] = 1.0
        H[second.size:-2, 0, 0] = -1.0
        H[:-2, 1, 1] = np.tile(second, 2)
        H[-1] = [[0.0, 1.0], [-1.0, 0.0]]
        codes = fe.classify_matrices(H)
        np.testing.assert_array_equal(codes, [classify_one(C) for C in H])
        assert codes[-2] == codes[-1] == fe.MAP_SINGULAR
        assert set(codes) == {fe.MAP_POSITIVE_DEFINITE, fe.MAP_INDEFINITE,
                              fe.MAP_NEGATIVE_DEFINITE, fe.MAP_SINGULAR}

    def test_closed_form_2x2_near_overflow(self, rng):
        # entries near 1e200: an unscaled ac - b^2, or ||C||_F, overflows.
        # The codes are those of the same matrices at 1e-200 of the size
        H = rng.normal(size=(400, 2, 2))
        H[:100] = H[:100] @ np.swapaxes(H[:100], 1, 2)
        H[100:200] = -H[100:200] @ np.swapaxes(H[100:200], 1, 2)
        H[200] = [[1.0, 2.0], [2.0, 4.0]]                    # rank one
        codes = fe.classify_matrices(H * 1e200)
        np.testing.assert_array_equal(codes, [classify_one(C) for C in H])
        assert set(codes) == {fe.MAP_POSITIVE_DEFINITE, fe.MAP_INDEFINITE,
                              fe.MAP_NEGATIVE_DEFINITE, fe.MAP_SINGULAR}

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_3x3_scaled_by_its_largest_entry(self, rng, scale):
        # an unscaled ||C||_F overflows at 1e200 (tol = inf calls every
        # matrix singular) and underflows at 1e-200; no warning either way
        H = rng.normal(size=(30, 3, 3))
        H[:10] = H[:10] @ np.swapaxes(H[:10], 1, 2)
        H[10:20] = -H[10:20] @ np.swapaxes(H[10:20], 1, 2)
        H[20] = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])      # rank one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fe.classify_matrices(scale * np.eye(3)) == fe.MAP_POSITIVE_DEFINITE
            np.testing.assert_array_equal(fe.classify_matrices(scale * H),
                                          fe.classify_matrices(H))
        assert set(fe.classify_matrices(H)) == {
            fe.MAP_POSITIVE_DEFINITE, fe.MAP_INDEFINITE, fe.MAP_NEGATIVE_DEFINITE,
            fe.MAP_SINGULAR}

    def test_non_finite_matrix_has_no_code(self):
        H = np.tile(np.eye(2), (2, 3, 1, 1))
        H[1, 0, 0, 1] = np.nan
        H[1, 2, 1, 1] = np.inf
        with pytest.raises(NumericalError, match=r"non-finite matrix \(grid index 3\)") as exc:
            fe.classify_matrices(H)
        assert exc.value.index == 3
        with pytest.raises(NumericalError, match=r"\(grid index 0\)"):
            fe.classify_matrices(np.array([[1.0, 0.0], [0.0, -np.inf]]))

    def test_non_finite_hessian_in_the_domain_names_its_cell(self, co2_decane):
        # rho1 = 1e-320 is a positive molar density, but RT/n overflows
        tq = fe.TildeFreeEnergy(co2_decane)
        rho1 = np.array([np.nan, 1e-320, 5.0])
        rho = np.array([-1.0, 300.0, 400.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"non-finite Hessian at the "
                               r"cell \(rho1, rho\) = \(1e-320, 300\.0\)"):
                fe.concavity_map(tq, rho1, rho)
        np.testing.assert_array_equal(fe.concavity_map(tq, rho1[[0, 2]], rho),
                                      per_cell_map(tq, rho1[[0, 2]], rho))

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
