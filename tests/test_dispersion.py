import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from pfmix import cli
from pfmix import dispersion as disp
from pfmix import free_energy as fe
from pfmix import models
from pfmix.config import build_all, load_config
from pfmix.errors import NumericalError, RangeError
from pfmix.linearization import (
    EQUAL_DENSITY_RTOL,
    AsymptoticCoefficients,
    CompressibleLinearization,
    ModeLabel,
)

from conftest import config_path, random_global_model


def make_global(C=None, M=None, inv_Re_s=0.5, inv_Re_v=0.2,
                kappa=((1e-2, 2e-3), (2e-3, 3e-2))):
    C = np.array([[2.0, 0.3], [0.3, 1.0]]) if C is None else np.asarray(C, float)
    M = np.array([[2.0, 0.5], [0.5, 1.0]]) if M is None else np.asarray(M, float)
    kap = fe.GradientCoefficients(np.array(kappa))
    return models.CompressibleGlobal(fe.Quadratic(C), kap, M,
                                     inv_Re_s=inv_Re_s, inv_Re_v=inv_Re_v)


def make_local(C_tilde=None, M11=0.3):
    C = np.array([[1.0, 0.2], [0.2, 2.0]]) if C_tilde is None \
        else np.asarray(C_tilde, float)
    q = fe.Quadratic(C, variables=("rho1", "rho"))
    kap = fe.GradientCoefficients(np.array([[2e-3, 0.0], [0.0, 3e-3]]))
    return models.CompressibleLocal(q, kap, M11=M11, inv_Re_s=0.5, inv_Re_v=0.2)


def make_quasi(h_pp=-1.0, kappa_pp=1e-2, rho_hat_1=2.0, rho_hat_2=1.0):
    q = fe.Quadratic([[h_pp]], variables=("phi",))
    return models.QuasiIncompressible(q, kappa_phi_phi=kappa_pp, M11=0.2,
                                      inv_Re_s=0.3, inv_Re_v=0.1,
                                      rho_hat_1=rho_hat_1, rho_hat_2=rho_hat_2)


def exact_determinant(m):
    """The determinant of a square list of lists, by cofactors along the
    first row, in the entries' own (exact) arithmetic."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * exact_determinant([r[:c] + r[c + 1:] for r in m[1:]])
               for c in range(len(m)) if m[0][c])


ST_GLOBAL = models.MixtureState.binary(1.0, 2.0)
ST_LOCAL = models.MixtureState.total_partial(3.0, 1.0)
ST_PHI = models.MixtureState.fraction(0.4)


class TestPencil:
    def test_transverse_block_decouples(self):
        lin = make_global().linearization(ST_GLOBAL)
        A = lin.pencil_matrices([2.0])[0]
        assert A[3, 3] == pytest.approx(0.5 * 4.0)
        assert np.all(A[3, :3] == 0) and np.all(A[:3, 3] == 0)
        assert lin.B[3, 3] == pytest.approx(3.0)

    def test_zero_wavenumber_pencil_vanishes(self):
        A = make_global().linearization(ST_GLOBAL).pencil_matrices([0.0])[0]
        assert np.all(A == 0.0)

    def test_b_invertible_compressible(self):
        for model, st in ((make_global(), ST_GLOBAL), (make_local(), ST_LOCAL)):
            assert abs(np.linalg.det(model.linearization(st).B)) > 0

    @pytest.mark.parametrize("k", [1e-3, 0.3, 2.0, 50.0, 1e3])
    def test_determinant_matches_scalar_polynomial(self, k):
        for model, st in ((make_global(), ST_GLOBAL), (make_local(), ST_LOCAL),
                          (make_quasi(), ST_PHI),
                          (make_quasi(rho_hat_1=1.5, rho_hat_2=1.5), ST_PHI)):
            (ok,), (err,) = disp.pencil_matches_scalar(model.linearization(st), [k])
            assert ok, f"{type(model).__name__}: err {err:.2e} at k={k}"

    @pytest.mark.parametrize("case", ["full_rank", "rank_one", "zero_mobility",
                                      "phase_field"])
    def test_coefficient_array_is_the_exact_determinant(self, case):
        """At dyadic parameters and integer k every float of the pencil and
        of the coefficient array is exact, so det(alpha B + A(k)) of the real
        pencil, in exact rationals, equals the array's polynomial times the
        viscous factor rho0 alpha + k^2 / Re_s (and times Mh for the
        phase-field array, which is the polynomial over Mh).  Both have degree <= 4 in
        alpha and <= 16 in k, so equality at alpha = -2..2 and k = 1..17 is
        equality of the polynomials."""
        if case == "phase_field":
            model = models.QuasiIncompressible(
                fe.Quadratic([[-1.0]], variables=("phi",)), kappa_phi_phi=0.125,
                M11=0.5, inv_Re_s=0.25, inv_Re_v=0.5, rho_hat_1=2.0, rho_hat_2=1.0)
            lin = model.linearization(models.MixtureState.fraction(0.25))
            scale = Fraction(lin.Mh)
        else:
            M = {"full_rank": [[0.5, 0.25], [0.25, 0.5]],
                 "rank_one": [[0.5, -0.5], [-0.5, 0.5]], "zero_mobility": np.zeros((2, 2))}
            lin = make_global(C=[[2.0, 0.5], [0.5, 1.0]], M=M[case], inv_Re_v=0.25,
                              kappa=[[0.125, 0.03125], [0.03125, 0.25]]).linearization(
                ST_GLOBAL)
            scale = 1
        c = [[Fraction(x) for x in row] for row in lin.reduced_coefficients().tolist()]
        B = [[Fraction(x) for x in row] for row in lin.B.tolist()]
        vx_by_i = np.array([1.0, 1.0, 1j, 1.0])
        for k in range(1, 18):
            A = lin.pencil_matrices([float(k)])[0] * vx_by_i / vx_by_i[:, None]
            assert np.all(A.imag == 0.0)
            A = [[Fraction(x) for x in row] for row in A.real.tolist()]
            for a in range(-2, 3):
                pencil = [[a * B[r][s] + A[r][s] for s in range(4)] for r in range(4)]
                reduced = sum(x * Fraction(a) ** i * k ** j for i, row in enumerate(c)
                              for j, x in enumerate(row))
                viscous = Fraction(lin.rho0) * a + Fraction(lin.inv_Re_s) * k * k
                assert exact_determinant(pencil) == reduced * viscous * scale, (k, a)

    def test_random_parameter_sets(self, rng):
        for _ in range(5):
            m = random_global_model(rng)
            st = models.MixtureState.binary(*rng.uniform(0.5, 2.0, size=2))
            lin = m.linearization(st)
            ok, err = disp.pencil_matches_scalar(lin, rng.uniform(0.05, 50.0, size=5))
            assert ok.all() and np.all(err < 1e-9)


class TestGrowthRates:
    def test_root_counts(self):
        cases = [(make_global(), ST_GLOBAL, 4), (make_local(), ST_LOCAL, 4),
                 (make_quasi(), ST_PHI, 3),
                 # equal specific densities: the coupled mode drops out
                 (make_quasi(rho_hat_1=1.5, rho_hat_2=1.5), ST_PHI, 2)]
        qi = fe.Quadratic([[1.0]], variables=("phi",))
        cases.append((models.QuasiIncompressible(qi, 1e-2, 0.2, 0.3, 0.1,
                                                 rho_hat_1=1.5, rho_hat_2=1.5),
                      ST_PHI, 2))
        for model, st, n in cases:
            alphas, _, _ = disp.growth_rates(model.linearization(st), [1.0])
            assert alphas[0].size == n

    def test_viscous_root_exact(self):
        for model, st in ((make_global(), ST_GLOBAL), (make_local(), ST_LOCAL),
                          (make_quasi(), ST_PHI)):
            lin = model.linearization(st)
            ks = np.logspace(-3, 3, 7)
            alphas, _, _ = disp.growth_rates(lin, ks)
            for k, roots in zip(ks, alphas):
                v = disp.viscous_root(lin, k)
                assert min(abs(a - v) for a in roots) <= 1e-12 * abs(v)

    def test_residuals_small(self):
        _, _, residuals = disp.growth_rates(make_global().linearization(ST_GLOBAL), [0.7])
        assert np.all(residuals <= 1e-8)

    def test_conjugate_pairs(self):
        lin = make_global().linearization(ST_GLOBAL)
        alphas, _, _ = disp.growth_rates(lin, [0.3, 1.0, 5.0])
        for a in alphas:
            scale = np.abs(a).max()
            complex_roots = a[np.abs(a.imag) > 1e-12 * scale]
            assert complex_roots.size % 2 == 0
            for root in complex_roots:
                partner = np.min(np.abs(complex_roots - np.conj(root)))
                assert partner <= 1e-9 * scale

    def test_positive_k_required(self):
        with pytest.raises(RangeError):
            disp.growth_rates(make_global().linearization(ST_GLOBAL), [0.0])


class TestAsymptotics:
    def test_small_k_trivial_thermo(self):
        # M = I, C = I, p = (1, 0): g1 = 1, x1 = -1
        m = make_global(C=np.eye(2), M=np.eye(2))
        st = models.MixtureState(rho1=1.0, rho2=1e-12, rho=1.0 + 1e-12)
        co = m.linearization(st).small_k()
        assert co.auxiliaries["g1"] == pytest.approx(1.0, rel=1e-9)
        x1 = co.mode("alpha1").coefficients[0]
        assert x1 == pytest.approx(-1.0, rel=1e-9)

    def test_small_k_trivial_coupled(self):
        # C = -I, p = (1, 1), rho0 = 2: x_{2,3} = +-1
        m = make_global(C=-np.eye(2), M=np.eye(2))
        st = models.MixtureState.binary(1.0, 1.0)
        co = m.linearization(st).small_k()
        xc = co.mode("alpha2").coefficients[0]
        assert xc == pytest.approx(1.0, rel=1e-12)
        assert co.mode("alpha3").coefficients[0] == pytest.approx(-1.0, rel=1e-12)

    def test_small_k_matches_roots(self):
        lin = make_local().linearization(ST_LOCAL)
        co = lin.small_k()
        k = 1e-3
        alphas, _, _ = disp.growth_rates(lin, [k])
        for md in co.modes:
            pred = md.evaluate(k)
            best = alphas[0][np.argmin(np.abs(alphas[0] - pred))]
            assert abs(pred - best) / abs(best) < 1e-2

    def test_large_k_local_leading_coefficient(self):
        q = fe.Quadratic(np.array([[1.0, 0.0], [0.0, 2.0]]),
                         variables=("rho1", "rho"))
        kap = fe.GradientCoefficients(np.array([[1e-4, 0.0], [0.0, 1.06e-4]]))
        m = models.CompressibleLocal(q, kap, M11=1e-4, inv_Re_s=1.0,
                                     inv_Re_v=1.0 / 3.0)
        co = m.linearization(ST_LOCAL).large_k()
        assert co.mode("alpha1").coefficients[0] == pytest.approx(-1e-8)

    def test_large_k_rank_one_subleading_coefficient(self):
        """alpha1 = x k^4 + y k^2 + O(1) on the rank-one (local) branch: y
        recovered from the pencil as (alpha1(k) - x k^4) / k^2 converges to
        the printed y at rate k^-2."""
        lin = make_local().linearization(ST_LOCAL)
        x, y = lin.large_k().mode("alpha1").coefficients
        errors = []
        ks = [1e2, 3e2, 1e3]
        for k, roots in zip(ks, disp.growth_rates(lin, ks)[0]):
            alpha1 = roots[np.argmin(np.abs(roots - (x * k**4 + y * k**2)))]
            errors.append(abs((alpha1 - x * k**4) / k**2 - y))
        assert errors[0] < 1e-3 * abs(y)
        assert errors[1] <= 1.5 * (1 / 3) ** 2 * errors[0]
        assert errors[2] <= 1.5 * 0.3**2 * errors[1]

    def test_large_k_zero_mobility_thermo(self):
        """With M = 0 only alpha1 is 0, an exact zero root; the coupled pair
        has its own x k^2 + y branch.  Every expansion matches its own root, with an
        error, relative to the largest root, falling as k^-4 (the leading
        order alone would fall as k^-2)."""
        for m, st in ((make_global(M=np.zeros((2, 2))), ST_GLOBAL),
                      (make_local(M11=0.0), ST_LOCAL)):
            lin = m.linearization(st)
            co = lin.large_k()
            assert co.mode("alpha1").coefficients == (0.0,)
            assert co.mode("alpha2").powers == co.mode("alpha3").powers == (2, 0)
            worst = []
            ks = [1e2, 1e3, 1e4]
            for k, roots in zip(ks, disp.growth_rates(lin, ks)[0]):
                pred = np.array([md.evaluate(k) for md in co.modes])
                gaps = np.abs(pred[:, None] - roots[None, :])
                assert sorted(gaps.argmin(axis=1)) == [0, 1, 2, 3]
                worst.append(gaps.min(axis=1).max() / np.abs(roots).max())
            assert worst[0] < 1e-4
            assert worst[1] <= 1e-3 * worst[0] and worst[2] <= 1e-3 * worst[1]

    def test_large_k_matches_roots(self):
        lin = make_local().linearization(ST_LOCAL)
        co = lin.large_k()
        ks = [100.0, 300.0]
        alphas, _, _ = disp.growth_rates(lin, ks)
        for k, roots in zip(ks, alphas):
            for md in co.modes:
                pred = md.evaluate(k)
                best = roots[np.argmin(np.abs(roots - pred))]
                assert abs(pred - best) / abs(best) < 5e-2

    def test_singular_expansion_raised(self):
        # p.C.p = 0 along the state direction
        C = np.array([[1.0, -1.0], [-1.0, 1.0]])
        m = make_global(C=C)
        st = models.MixtureState.binary(1.0, 1.0)
        with pytest.raises(disp.SingularExpansion):
            m.linearization(st).small_k()


def local_from_global(C, kappa, M11, inv_Re_s=0.5, inv_Re_v=0.2):
    """A globally-conserving model with the locally-conserving mobility and
    the same mixture written as a CompressibleLocal in (rho1, rho)."""
    q = fe.Quadratic(np.asarray(C, float))
    kap = fe.GradientCoefficients(np.asarray(kappa, float))
    glob = models.CompressibleGlobal(q, kap, models.local_conservation_matrix(M11),
                                     inv_Re_s=inv_Re_s, inv_Re_v=inv_Re_v)
    kt, qt = fe.change_variables_to_rho_rho1(kap, q)
    return glob, models.CompressibleLocal(qt, kt, M11=M11, inv_Re_s=inv_Re_s,
                                          inv_Re_v=inv_Re_v)


def worst_expansion_error(lin, co, k):
    """Largest relative distance from a mode's expansion at k to the
    nearest root of the pencil."""
    roots = disp.growth_rates(lin, [k])[0][0]
    worst = 0.0
    for m in co.modes:
        pred = m.evaluate(k)
        best = roots[np.argmin(np.abs(roots - pred))]
        worst = max(worst, abs(pred - best) / abs(best))
    return worst


C_MIX = [[2.0, 0.3], [0.3, 1.0]]
KAPPA_MIX = [[1e-3, 2e-4], [2e-4, 3e-3]]


def mixture(M, kappa=KAPPA_MIX):
    return models.CompressibleGlobal(
        fe.Quadratic(np.array(C_MIX)), fe.GradientCoefficients(np.array(kappa)),
        np.asarray(M, float), inv_Re_s=0.5, inv_Re_v=0.2).linearization(ST_GLOBAL)


def bundled_linearization(name):
    model, state = build_all(load_config(config_path(name)))
    return model.linearization(state)


# each case's linearization and the decades of k, (small, large), where its
# two-term expansions are asymptotic and above the pencil's round-off
TWO_TERM_CASES = {
    **{name: (bundled_linearization(name), ks) for name, ks in (
        ("band_composition.ini", ((3.0, 0.3), (1e4, 1e5))),
        ("band_density.ini", ((0.1, 0.01), (1e4, 1e5))),
        ("stable_dense.ini", ((3.0, 0.3), (1e4, 1e5))),
        ("concavity_co2_decane.ini", ((1.0, 0.1), (1e4, 1e5))),
        ("simulate_relaxation.ini", ((1.0, 0.1), (1e2, 1e3))))},
    "full_rank": (mixture([[0.05, -0.02], [-0.02, 0.05]]), ((1.0, 0.1), (1e2, 1e3))),
    "rank_one": (mixture(models.local_conservation_matrix(0.05)), ((1.0, 0.1), (1e2, 1e3))),
    "zero_mobility": (mixture(np.zeros((2, 2))), ((1.0, 0.1), (1e2, 1e3))),
    # 1/Re^2 < 4 rho0 g1 det K / (M:K): an oscillatory large-k pair
    "rank_one_oscillatory": (mixture(models.local_conservation_matrix(0.3),
                                     [[1e-1, 2e-2], [2e-2, 3e-1]]),
                             ((0.1, 0.01), (1e2, 1e3))),
}


class TestOneCompressibleLinearization:
    """The locally-conserving class is the globally-conserving one with a
    zero-row-sum, rank-one mobility: one linearization serves both, and its
    expansions agree between the two descriptions of one mixture."""

    def test_local_mobility_is_rank_one_in_its_variables(self):
        m = make_local(M11=0.3)
        lin = m.linearization(ST_LOCAL)
        assert isinstance(lin, CompressibleLinearization)
        assert isinstance(make_global().linearization(ST_GLOBAL),
                          CompressibleLinearization)
        assert np.array_equal(lin.mobility, np.diag([0.0, 0.3]))
        assert lin.vector_fields == ("rho", "rho1", "vx", "vy")
        # the pencil's (rho, rho1) order is the energy's (rho1, rho) with
        # rows and columns swapped, bit for bit
        H = m.free_energy.hessian(np.array([ST_LOCAL.rho1, ST_LOCAL.rho]))
        assert np.array_equal(lin.C, H[::-1, ::-1])
        assert np.array_equal(lin.K, m.kappa.kappa[::-1, ::-1])
        assert np.array_equal(lin.p, [ST_LOCAL.rho, ST_LOCAL.rho1])
        assert lin.rho0 == ST_LOCAL.rho

    @pytest.mark.parametrize("kappa, oscillatory", [
        ([[1e-2, 2e-3], [2e-3, 3e-2]], False),
        ([[1e-1, 2e-2], [2e-2, 3e-1]], True),
    ], ids=["real_pair", "oscillatory_pair"])
    def test_local_matches_global_with_rank_one_mobility(self, kappa, oscillatory):
        # one state: rho1 = 1, rho2 = 2, rho = 3
        glob, loc = local_from_global(C_MIX, kappa, M11=0.3)
        lg, ll = glob.linearization(ST_GLOBAL), loc.linearization(ST_GLOBAL)
        ks = np.logspace(-3, 3, 61)
        rg, _, _ = disp.growth_rates(lg, ks)
        rl, _, _ = disp.growth_rates(ll, ks)
        assert max(worst_root_gap(a, b) for a, b in zip(rg, rl)) <= 1e-13
        for regime in ("small_k", "large_k"):
            cg, cl = getattr(lg, regime)(), getattr(ll, regime)()
            assert [m.name for m in cg.modes] == [m.name for m in cl.modes]
            for mg in cg.modes:
                ml = cl.mode(mg.name)
                assert mg.powers == ml.powers
                for a, b in zip(mg.coefficients, ml.coefficients):
                    assert abs(a - b) <= 1e-12 * abs(b), (regime, mg.name)
            assert cg.auxiliaries.keys() == cl.auxiliaries.keys()
            for key, b in cl.auxiliaries.items():
                if isinstance(b, float):
                    assert abs(cg.auxiliaries[key] - b) <= 1e-12 * abs(b), key
        # the coupled pair has its k^0 correction, real or oscillatory
        for name in ("alpha2", "alpha3"):
            x, y = cl.mode(name).coefficients
            assert cl.mode(name).powers == (2, 0)
            assert (complex(x).imag != 0.0) is (complex(y).imag != 0.0) is oscillatory

    @pytest.mark.parametrize("M", [
        [[0.05, -0.02], [-0.02, 0.05]],
        models.local_conservation_matrix(0.05),
    ], ids=["off_diagonal", "rank_one"])
    def test_small_k_error_is_second_order(self, M):
        lin = models.CompressibleGlobal(
            fe.Quadratic(np.array(C_MIX)), fe.GradientCoefficients(np.array(KAPPA_MIX)),
            np.asarray(M, float), inv_Re_s=0.5, inv_Re_v=0.2).linearization(ST_GLOBAL)
        co = lin.small_k()
        e3, e4 = (worst_expansion_error(lin, co, k) for k in (1e-3, 1e-4))
        assert e4 * 50.0 <= e3

    def test_large_k_rank_one_converges(self):
        glob, _ = local_from_global(C_MIX, KAPPA_MIX, M11=0.05)
        lin = glob.linearization(ST_GLOBAL)
        co = lin.large_k()
        e3, e4 = (worst_expansion_error(lin, co, k) for k in (1e3, 1e4))
        assert e4 * 50.0 <= e3

    @pytest.mark.parametrize("case", list(TWO_TERM_CASES))
    def test_two_term_expansions_fall_by_their_next_order(self, case):
        """Each two-term expansion x k^e + y k^e2 is within a relative
        O(k^(2 (e2 - e))) of its nearest root of the pencil, so over a decade
        of k where it is asymptotic its error falls by 10^(2 |e2 - e|); a
        wrong y leaves the 10^|e2 - e| of the first term alone.  The bound
        is 10^(1.5 |e2 - e|).  Measured worst falls: 1.8e3 for |e2 - e| = 2
        (band_composition's small-k alpha1 from k = 3, where the pencil's
        round-off, eps/k relative to alpha1, is near), and 97 for 1 (the
        small-k coupled pairs), margins of 1.8 and 3.1.  Peng-Robinson's
        large-k expansions hold from about k = 1e4 (stable_dense's pair is
        off by 2.2 at k = 1e3); their oscillatory pairs have their second
        terms from the engine."""
        lin, ks = TWO_TERM_CASES[case]
        for regime, pair in zip(("small_k", "large_k"), ks):
            two_term = [m for m in getattr(lin, regime)().modes if len(m.coefficients) == 2]
            assert len(two_term) >= 2
            for mode in two_term:
                errors = [worst_expansion_error(lin, AsymptoticCoefficients(regime, (mode,)), k)
                          for k in pair]
                gap = abs(mode.powers[1] - mode.powers[0])
                assert errors[1] * 10.0 ** (1.5 * gap) <= errors[0], (regime, mode.name, errors)

    def test_large_k_full_rank_error_is_fourth_order(self, rng):
        # the full-rank mobility branch (two k^4 roots of x^2 + (M:K) x +
        # |M||K| = 0, and alpha3 = -k^2 / (Re rho0) + y3): every expansion
        # within O(k^-4) of its nearest root of the pencil, on random
        # mixtures and states
        worst = 0.0
        for _ in range(200):
            lin = random_global_model(rng).linearization(
                models.MixtureState.binary(*rng.uniform(0.2, 2.0, size=2)))
            co = lin.large_k()
            assert "M:K" in co.auxiliaries
            e2, e3 = (worst_expansion_error(lin, co, k) for k in (1e2, 1e3))
            assert e3 * 1e3 <= e2
            worst = max(worst, e3)
        assert worst <= 1e-5

    def test_local_large_k_without_kappa_rho1_rho1_has_three_k2_branches(self):
        # kappa_rho1_rho1 = 0 makes M:K = 0: no k^4 branch, and all three
        # roots of the reduced polynomial go as k^2, each with a k^0
        # correction that leaves a relative O(k^-4) (measured 2.6e-12 at k = 1e4)
        q = fe.Quadratic(np.array([[1.0, 0.2], [0.2, 2.0]]), variables=("rho1", "rho"))
        kap = fe.GradientCoefficients(np.array([[0.0, 0.0], [0.0, 3e-3]]))
        m = models.CompressibleLocal(q, kap, M11=0.3, inv_Re_s=0.5, inv_Re_v=0.2)
        lin = m.linearization(ST_LOCAL)
        co = lin.large_k()
        assert co.auxiliaries["M:K"] == 0.0
        assert [md.powers for md in co.modes] == [(2,)] + [(2, 0)] * 3
        assert [md.label for md in co.modes] == [
            ModeLabel.VISCOUS, ModeLabel.THERMODYNAMIC, ModeLabel.COUPLED, ModeLabel.COUPLED]
        e3, e4 = (worst_expansion_error(lin, co, k) for k in (1e3, 1e4))
        assert e3 <= 1e-7 and e4 <= 1e-11 and e4 * 1e3 <= e3


class TestQuasiRoots:
    def test_explicit_matches_pencil(self):
        lin = make_quasi().linearization(ST_PHI)
        ks = np.logspace(-2, 2, 25)
        for k, roots in zip(ks, disp.growth_rates(lin, ks)[0]):
            a0, a1, a2 = disp.quasi_explicit_roots(lin, float(k))
            got = np.sort_complex(roots)
            want = np.sort_complex(np.array([a0, a1, a2]))
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_spinodal_band(self):
        lin = make_quasi(h_pp=-1.0, kappa_pp=1e-2).linearization(ST_PHI)
        edges = lin.band_edges()
        assert edges.shape == (1,) and edges[0] == pytest.approx(10.0)
        _, a1_in, _ = disp.quasi_explicit_roots(lin, edges[0] * 0.999)
        _, a1_out, _ = disp.quasi_explicit_roots(lin, edges[0] * 1.001)
        assert a1_in.real > 0 > a1_out.real
        for h_pp in (0.0, 1.0):
            lin = make_quasi(h_pp=h_pp).linearization(ST_PHI)
            assert lin.band_edges().size == 0
            assert lin.classification(lin.small_k()) == "no spinodal band (h_phi_phi >= 0)"
        # without kappa, h'' < 0 grows alpha1 at every k: no edge closes the band
        lin = make_quasi(h_pp=-1.0, kappa_pp=0.0).linearization(ST_PHI)
        assert lin.band_edges().size == 0
        assert lin.classification(lin.small_k()) == "spinodal band: (0, inf)"

    def test_large_k_oscillatory_pair_converges(self):
        # 1/Re^2 < 4 rho0 kappa Q^2: alpha1 and alpha2 are a conjugate pair
        # x k^2 + y, each within a relative O(k^-4) of a pencil root
        # (measured 6.3e-6 at k = 1e2, 6.3e-14 at k = 1e4)
        lin = make_quasi(kappa_pp=0.1).linearization(ST_PHI)
        co = lin.large_k()
        x1, y1 = co.mode("alpha1").coefficients
        x2, y2 = co.mode("alpha2").coefficients
        assert x1.imag > 0 and x2 == x1.conjugate() and y2 == y1.conjugate()
        e2, e4 = (worst_expansion_error(lin, co, k) for k in (1e2, 1e4))
        assert e2 <= 1e-5 and e4 * 1e7 <= e2

    @pytest.mark.parametrize("regime, ks", [("small_k", (1e-2, 1e-3)),
                                            ("large_k", (1e2, 1e3))])
    def test_two_term_expansions_fall_by_their_next_order(self, regime, ks):
        # a two-term expansion is within a relative O(k^4) of its closed-form
        # root at small k, and O(k^-4) at large k: its error falls by about
        # 10^4 over the decade of k, where a wrong second coefficient leaves
        # the O(k^2) or O(k^-2) of the first term alone, about 10^2
        model, state = build_all(load_config(config_path("quasi_spinodal.ini")))
        lins = [model.linearization(state)] + [
            make_quasi(h_pp=h_pp, rho_hat_1=rho_hat_1).linearization(ST_PHI)
            for h_pp in (-1.0, 0.5) for rho_hat_1 in (2.0, 0.5)]
        # and the large-k oscillatory pair of 1/Re^2 < 4 rho0 kappa Q^2
        lins.append(make_quasi(kappa_pp=0.1).linearization(ST_PHI))
        for lin in lins:
            two_term = [m for m in getattr(lin, regime)().modes
                        if len(m.coefficients) == 2]
            assert two_term
            for mode in two_term:
                errors = []
                for k in ks:
                    roots = np.array(disp.quasi_explicit_roots(lin, k))
                    pred = mode.evaluate(k)
                    nearest = roots[np.argmin(np.abs(roots - pred))]
                    errors.append(abs(pred - nearest) / abs(nearest))
                assert errors[1] * 1e3 <= errors[0], (mode.name, errors)

    def test_large_k_double_root_is_one_leading_term(self):
        # 1/Re^2 = 4 rho0 kappa Q^2 exactly: alpha1 and alpha2 meet at
        # leading order, where a Newton correction would divide by 0
        # (0.75^2 = 4 * 1 * 0.0625 * 1.5^2 in binary floating point); the
        # edge polynomial's roots, which np.roots splits by 1e-8, are taken
        # as its derivative's
        lin = dataclasses.replace(make_quasi().linearization(ST_PHI), phi0=0.5,
                                  rho0=1.0, inv_Re=0.75, kappa_phi_phi=0.0625)
        assert lin.auxiliaries()["Qbar"] == 1.5 and lin.one_minus_r == -1.0
        co = lin.large_k()
        for name in ("alpha1", "alpha2"):
            assert co.mode(name).coefficients == (-lin.inv_Re / (2.0 * lin.rho0),)
        assert co.auxiliaries["leading_only"] == \
            "alpha1, alpha2: coincident roots of the edge polynomial"

    def test_large_k_near_double_root_keeps_its_second_term(self):
        # 1/Re 1e-6 above the double root: the edge polynomial cancels only
        # to 5e-7 at its derivative's root, so its roots, 2.8e-3 apart, are
        # distinct and each has its k^0 correction (about -+9.2e3); the
        # expansions hold from k of about 1e5 (measured 2.1e-9 there and
        # 3.2e-13 at k = 1e6: a margin of 2.4 on the first bound)
        lin = dataclasses.replace(make_quasi().linearization(ST_PHI), phi0=0.5,
                                  rho0=1.0, inv_Re=0.75 * (1.0 + 1e-6),
                                  kappa_phi_phi=0.0625)
        co = lin.large_k()
        assert "leading_only" not in co.auxiliaries
        errors = []
        for k in (1e5, 1e6):
            roots = np.array(disp.quasi_explicit_roots(lin, k))
            for name in ("alpha1", "alpha2"):
                assert co.mode(name).powers == (2, 0)
                pred = co.mode(name).evaluate(k)
                nearest = roots[np.argmin(np.abs(roots - pred))]
                errors.append(abs(pred - nearest) / abs(nearest))
        assert max(errors[:2]) <= 5e-9 and max(errors[2:]) * 1e3 <= min(errors[:2])

    def test_equal_densities_raise(self):
        lin = make_quasi(rho_hat_1=1.0, rho_hat_2=1.0).linearization(ST_PHI)
        with pytest.raises(RangeError):
            disp.quasi_explicit_roots(lin, 1.0)

    def test_near_equal_densities(self):
        # 1 - r from 1e-6 down to 1e-12, across EQUAL_DENSITY_RTOL ~ 1.5e-8.
        # Inside it the linearization is the incompressible one and the
        # closed form refuses with a pointer to it.  Outside it the pencil's
        # round-off grows as eps / (1 - r)^2, so each k either matches the
        # closed form or is refused by the eigen-residual gate.
        ks = np.logspace(-2, 2, 9)
        for gap in 10.0 ** -np.arange(6.0, 13.0):
            m = make_quasi(rho_hat_1=1.0 - gap, rho_hat_2=1.0)
            lin = m.linearization(ST_PHI)
            assert lin.equal_densities == (gap <= EQUAL_DENSITY_RTOL)
            if lin.equal_densities:
                with pytest.raises(RangeError, match="incompressible_roots"):
                    disp.quasi_explicit_roots(lin, ks)
                got = np.sort(disp.sweep(lin, ks).roots.real, axis=1)
                want = np.sort(np.stack(disp.incompressible_roots(lin, ks), 1), 1)
                assert np.all(np.abs(got - want)
                              <= 1e-7 * np.abs(want).max(axis=1, keepdims=True))
                continue
            matched = 0
            for k in ks:
                try:
                    got = disp.growth_rates(lin, [k])[0][0]
                except NumericalError as exc:
                    assert "eigen-residual" in str(exc)
                    continue
                for want in disp.quasi_explicit_roots(lin, k):
                    assert np.min(np.abs(got - want)) <= 1e-6 * abs(want)
                matched += 1
            assert matched > 0

    def test_limit_toward_incompressible(self):
        # alpha1 converges to -(M11/rho_hat^2)(h'' k^2 + kappa k^4)
        ks = np.logspace(-1, 0.9, 15)   # keep away from the alpha1 = 0 edge
        prev = np.inf
        for ratio in (1.5, 1.1, 1.01):
            m = make_quasi(rho_hat_1=ratio, rho_hat_2=1.0)
            lin = m.linearization(ST_PHI)
            _, a1, _ = disp.quasi_explicit_roots(lin, ks)
            limit = -m.M11 / m.rho_hat_1**2 * (lin.h_phi_phi * ks**2
                                               + lin.kappa_phi_phi * ks**4)
            rel = np.max(np.abs(a1 - limit)) / np.max(np.abs(limit))
            assert rel < prev
            prev = rel
        assert prev < 2e-2

    def test_incompressible_roots(self):
        q = fe.Quadratic([[-1.0]], variables=("phi",))
        m = models.QuasiIncompressible(q, kappa_phi_phi=1.0, M11=1.0,
                                       inv_Re_s=0.3, inv_Re_v=0.1,
                                       rho_hat_1=1.0, rho_hat_2=1.0)
        lin = m.linearization(ST_PHI)
        a0, a1 = disp.incompressible_roots(lin, 0.0)
        assert a0 == 0.0 and a1 == 0.0
        k = np.array([0.5, 1.0, 2.0])
        _, a1 = disp.incompressible_roots(lin, k)
        assert np.allclose(a1, k**2 - k**4)
        assert a1[0] > 0 and a1[1] == pytest.approx(0.0) and a1[2] < 0
        kks = [0.5, 2.0]
        for kk, roots in zip(kks, disp.growth_rates(lin, kks)[0]):
            _, want = disp.incompressible_roots(lin, kk)
            assert min(abs(a - want) for a in roots) < 1e-12 * max(abs(want), 1)


M_PD = np.array([[2.0, 0.5], [0.5, 1.0]])


def classification_linearization(C, p, M=M_PD):
    """A globally-conserving linearization with Hessian C at densities p."""
    p = np.asarray(p, float)
    return CompressibleLinearization(
        C=np.asarray(C, float), K=1e-3 * np.eye(2), p=p, rho0=float(p.sum()),
        inv_Re_s=0.4, inv_Re=0.3, mobility=np.asarray(M, float),
        vector_fields=("rho1", "rho2", "vx", "vy"))


def table(category, alpha1, alpha2):
    return (f"long-wave classification [{category}]: alpha0=negative, "
            f"alpha1={alpha1}, alpha2={alpha2}, alpha3=negative")


UNAVAILABLE = "long-wave classification unavailable: Hessian is singular within tolerance"


@pytest.mark.parametrize("C, p, M, line", [
    (np.eye(2), [1.0, 2.0], M_PD, table("C > 0", "negative", "negative")),
    (-np.eye(2), [1.0, 2.0], M_PD, table("C < 0", "positive", "positive")),
    # indefinite C: p.C.p > 0 grows alpha1, p.C.p < 0 alpha2
    (np.diag([1.0, -1.0]), [1.0, 0.2], M_PD, table("C indefinite", "positive", "negative")),
    (np.diag([1.0, -1.0]), [0.2, 1.0], M_PD, table("C indefinite", "negative", "positive")),
    # an eigenvalue within DEFINITENESS_TOL of 0
    (np.diag([1.0, 0.0]), [1.0, 1.0], M_PD, UNAVAILABLE),
    (np.diag([-1.0, 1e-12]), [1.0, 1.0], M_PD, UNAVAILABLE),
    # a symmetric C with det C within DEGENERATE_TOL ||C||^2 of 0 has an
    # eigenvalue within DEFINITENESS_TOL ||C|| of 0, so it is singular
    (np.array([[1.0, 2.0], [2.0, 4.0 + 1e-12]]), [1.0, 1.0], M_PD, UNAVAILABLE),
    # g1 = p.adj(M).p = 0 makes alpha1 an exact zero root: no mobility, or
    # a rank-one mobility parallel to the state
    (np.eye(2), [1.0, 2.0], np.zeros((2, 2)), table("C > 0", "zero", "negative")),
    (np.eye(2), [1.0, 1.0], np.full((2, 2), 0.05), table("C > 0", "zero", "negative")),
], ids=["C_positive_definite", "C_negative_definite", "indefinite_positive_form",
        "indefinite_negative_form", "C_eigenvalue_zero", "C_eigenvalue_tiny", "C_det_tiny",
        "mobility_zero", "rank_one_parallel_to_state"])
def test_classification_line(C, p, M, line):
    lin = classification_linearization(C, p, M)
    assert lin.classification(lin.small_k()) == line


@pytest.mark.parametrize("C", [np.diag([1.0, -1.0]), np.diag([1.0, -1.0 + 1e-13])],
                         ids=["pCp_zero", "pCp_tiny"])
def test_small_k_refuses_pCp_within_tolerance(C):
    with pytest.raises(disp.SingularExpansion):
        classification_linearization(C, [1.0, 1.0]).small_k()


def test_small_k_is_scale_free():
    # C, K -> s C, s K, M -> M / sqrt(s) and 1/Re -> sqrt(s) / Re scale every
    # root by sqrt(s); at s = 1e-13 ||C|| |p|^2 is below 1e-12
    lin = dataclasses.replace(
        classification_linearization([[1.0, 0.2], [0.2, 2.0]], [1.0, 1.0]),
        K=np.array([[2e-3, 1e-4], [1e-4, 3e-3]]))
    s = 1e-13
    small = dataclasses.replace(lin, C=s * lin.C, K=s * lin.K, mobility=lin.mobility / s**0.5,
                                inv_Re_s=s**0.5 * lin.inv_Re_s, inv_Re=s**0.5 * lin.inv_Re)
    co, co_small = lin.small_k(), small.small_k()
    assert [(m.name, m.label, m.powers) for m in co_small.modes] == \
        [(m.name, m.label, m.powers) for m in co.modes]
    for m, m_small in zip(co.modes, co_small.modes):
        assert np.allclose(np.array(m_small.coefficients) / s**0.5, m.coefficients,
                           rtol=1e-9, atol=0.0)
    assert lin.classification(co) == small.classification(co_small)


def test_g1_nonnegative_property(rng):
    for _ in range(50):
        A = rng.normal(size=(2, 2))
        M = A @ A.T + 1e-3 * np.eye(2)
        p = rng.uniform(0.1, 3.0, size=2)
        assert classification_linearization(np.eye(2), p, M).auxiliaries()["g1"] >= 0.0


# A calibrated Peng-Robinson mixture near band_density.ini at which distance
# tracking swapped the viscous track from k = 308 to 1000.
SEED4_DENSITY_INI = """
[free_energy]
kind = peng_robinson
T = 103.71705908840643
R = 1.0
k12 = -12.609256292891342
lambda_thermal = 1.0
species1 = solute
species1_Tc = 205.04572205633292
species1_Pc = 1.0368467543128044
species1_acentric = 0.3
species1_molar_mass = 13942.138920843885
species2 = solvent
species2_Tc = 106.10171406985489
species2_Pc = 43938.461124579924
species2_acentric = 0.3
species2_molar_mass = 1.0
kappa_rho1_rho1 = 0.0001
kappa_rho_rho1 = 0.0
kappa_rho_rho = 0.000106

[model]
class = compressible_local
M11 = 0.0001
Re_s = 1.0082487789544
Re_v = 3.0

[state]
rho0 = 1002.9765371941646
rho1_0 = 0.024692363545071545

[sweep]
k_min = 0.001
k_max = 1000.0
points = 400
spacing = log
small_k_max = 0.01
large_k_min = 100.0
"""


class TestSweep:
    def test_labels_and_residuals(self):
        m = make_global(C=-np.eye(2))
        res = disp.sweep(m.linearization(ST_GLOBAL), np.logspace(-2, 2, 50))
        assert res.mode_names == ("alpha0", "alpha1", "alpha2", "alpha3")
        labels = [m.label.value for m in res.long_wave.modes]
        assert labels == ["viscous", "thermodynamic", "coupled", "coupled"]
        assert np.all(res.residuals <= 1e-8)
        assert res.ambiguous == ()

    def test_viscous_track_is_exact(self):
        lin = make_global().linearization(ST_GLOBAL)
        ks = np.logspace(-2, 2, 40)
        res = disp.sweep(lin, ks)
        i0 = res.mode_names.index("alpha0")
        want = -lin.inv_Re_s * ks**2 / lin.rho0
        assert np.max(np.abs(res.roots[:, i0].real - want) / np.abs(want)) < 1e-12

    @pytest.mark.parametrize("name", ["band_composition.ini", "band_density.ini",
                                      "quasi_spinodal.ini", "stable_dense.ini",
                                      "seed4_density"])
    def test_viscous_column_is_exact_at_every_point(self, name, tmp_path):
        """Two real roots crossing between grid points tie in root distance,
        not in eigenvector overlap: the viscous column of the written
        dispersion.csv is -k^2/(Re_s rho0) at every point of every bundled
        sweep and of a Peng-Robinson density-unstable state whose crossing
        once swapped it over the last 35 points."""
        if name == "seed4_density":
            path = tmp_path / "seed4_density.ini"
            path.write_text(SEED4_DENSITY_INI, encoding="utf-8")
        else:
            path = config_path(name)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        model, state = build_all(load_config(path))
        lin = model.linearization(state)
        table = np.genfromtxt(out / "dispersion.csv", delimiter=",", names=True,
                              dtype=None, encoding="utf-8")
        assert set(table["label_alpha0"]) == {"viscous"}
        k = table["k"]
        want = -lin.inv_Re_s * k**2 / lin.rho0
        assert np.max(np.abs(table["re_alpha0"] - want) / np.abs(want)) <= 1e-9
        assert np.all(table["im_alpha0"] == 0.0)

    def test_unstable_band_endpoints(self):
        m = make_local(C_tilde=np.array([[-0.5, 0.0], [0.0, 2.0]]), M11=0.05)
        lin = m.linearization(ST_LOCAL)
        ks = np.logspace(-1, 1.6, 60)
        res = disp.sweep(lin, ks)
        i1 = res.mode_names.index("alpha1")
        bands = disp.unstable_bands(lin, res, i1)
        assert len(bands) == 1
        # band closes where det(C + k^2 K) = 0, found here by root bracketing
        from scipy.optimize import brentq
        root = brentq(lambda k: np.linalg.det(lin.C + k * k * lin.K), 10.0, 20.0,
                      xtol=1e-14, rtol=4 * np.finfo(float).eps)
        k_hi = bands[0][1]
        assert k_hi == pytest.approx(root, rel=1e-12)
        past = disp.sweep(lin, [k_hi * 1.001])
        assert past.roots[0, past.track("alpha1")].real <= 0

    def test_k_grid_validation(self):
        with pytest.raises(RangeError):
            disp.sweep(make_global().linearization(ST_GLOBAL),
                       np.array([1.0, 0.5]))

    @pytest.mark.parametrize("k_min", [None, 1.0, 5.0, 20.0, 100.0])
    @pytest.mark.parametrize("name", ["band_composition.ini", "band_density.ini",
                                      "quasi_spinodal.ini", "stable_dense.ini"])
    def test_labels_do_not_depend_on_k_min(self, name, k_min):
        """A grid that starts outside the long-wave window is labelled as the
        same grid seen from the bundled k_min: the viscous column is exact at
        every point and every column holds the same roots."""
        model, st = build_all(load_config(config_path(name)))
        lin = model.linearization(st)
        low = np.log10(load_config(config_path(name)).sections["sweep"]["k_min"])
        ks = np.union1d(np.logspace(low, 4.0, round(20 * (4.0 - low)) + 1),
                        [1.0, 5.0, 20.0, 100.0])
        full = disp.sweep(lin, ks)
        tail = ks >= (k_min or ks[0])
        res = disp.sweep(lin, ks[tail])
        assert res.long_wave.modes[0].label is ModeLabel.VISCOUS
        want = -lin.inv_Re_s * ks[tail] ** 2 / lin.rho0
        assert np.max(np.abs(res.roots[:, 0] - want) / np.abs(want)) <= 1e-9
        assert [m.label for m in res.long_wave.modes] == \
            [m.label for m in full.long_wave.modes]
        assert np.array_equal(res.roots, full.roots[tail])

    def test_unknown_track_name_lists_the_modes(self):
        res = disp.sweep(make_global().linearization(ST_GLOBAL), [1.0])
        assert res.track("alpha2") == res.mode_names.index("alpha2")
        with pytest.raises(KeyError, match="alpha0, alpha1, alpha2, alpha3"):
            res.track("alpha9")

    def test_sweep_with_no_long_wave_seed_fails_loudly(self, monkeypatch, tmp_path,
                                                       capsys):
        small_k = CompressibleLinearization.small_k

        def off_by_half(self):
            co = small_k(self)
            modes = tuple(dataclasses.replace(m, coefficients=tuple(
                1.5 * c for c in m.coefficients)) for m in co.modes)
            return dataclasses.replace(co, modes=modes)

        monkeypatch.setattr(CompressibleLinearization, "small_k", off_by_half)
        assert cli.main(["sweep", "--config", str(config_path("band_density.ini")),
                         "--out", str(tmp_path)]) == cli.EXIT_NUMERIC
        assert "long-wave expansions match the pencil's roots at no k" \
            in capsys.readouterr().err


def bundled_sweep(name):
    """The linearization of a bundled config and the sweep of its own grid."""
    cfg = load_config(config_path(name))
    model, st = build_all(cfg)
    sec = cfg.sections["sweep"]
    lin = model.linearization(st)
    ks = np.logspace(np.log10(sec["k_min"]), np.log10(sec["k_max"]), sec["points"])
    return lin, disp.sweep(lin, ks)


def test_band_peak_is_the_named_track_maximum():
    """On every unstable band of every bundled sweep, the peak is the root
    that ``sweep(lin, [k])`` names, bit for bit, and it is at least that
    track's largest value on the config's own grid."""
    seen = {}
    for name in ("band_composition.ini", "band_density.ini", "quasi_spinodal.ini",
                 "stable_dense.ini"):
        lin, res = bundled_sweep(name)
        for j, mode in enumerate(res.mode_names):
            for k_lo, k_hi in disp.unstable_bands(lin, res, j):
                k, alpha, vec = disp.band_peak(lin, k_lo, k_hi, mode)
                at = disp.sweep(lin, [k])
                assert alpha == at.roots[0, at.track(mode)], (name, mode)
                assert np.array_equal(vec, at.vectors[0, at.track(mode)])
                assert k_lo <= k <= k_hi
                assert alpha.real >= res.roots[:, j].real.max()
                seen[name, mode] = (k, alpha)
    assert sorted(seen) == [("band_composition.ini", "alpha1"),
                            ("band_density.ini", "alpha2"),
                            ("quasi_spinodal.ini", "alpha1")]
    # the density band's alpha2 peaks inside the band, not on another root
    k, alpha = seen["band_density.ini", "alpha2"]
    assert k == pytest.approx(1.559, abs=1e-3)
    assert alpha.real == pytest.approx(0.7699, abs=1e-4)


def signed_growing_count(lin, ks, neutral):
    """Roots per k whose real part exceeds its first-order error bound
    10 eps |S| kappa, from the pencil's eigenvectors alone (S the standard
    form, kappa the root's condition number from the inverse eigenvector
    matrix); -1 where more than ``neutral`` roots lie within their bound,
    so the count is not known."""
    alphas, x, _ = disp.growth_rates(lin, ks)
    S = lin.standard_form(lin.pencil_matrices(ks))
    kappa = np.linalg.norm(np.linalg.inv(x), axis=2)
    bound = (10.0 * np.finfo(float).eps * kappa
             * np.linalg.norm(S, axis=(1, 2))[:, None])
    known = (np.abs(alphas.real) <= bound).sum(axis=1) <= neutral
    return np.where(known, (alphas.real > bound).sum(axis=1), -1)


def random_compressible_linearization(rng, mobility):
    """C of either sign, K PSD, p > 0 and 1/Re in [1e-3, 30], with a full-rank
    PSD, a rank-one diag(0, M11) or a zero mobility."""
    C = rng.normal(size=(2, 2))
    L = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-2.0, 0.0)
    M = {"full": (lambda A: A @ A.T)(rng.normal(size=(2, 2))),
         "rank_one": np.diag([0.0, rng.uniform(0.01, 1.0)]),
         "zero": np.zeros((2, 2))}[mobility]
    inv_Re = 10.0 ** rng.uniform(-3.0, np.log10(30.0), size=2)
    return CompressibleLinearization(
        C=C + C.T, K=L @ L.T, p=rng.uniform(0.2, 2.0, size=2),
        rho0=rng.uniform(0.2, 3.0), inv_Re_s=inv_Re[0], inv_Re=inv_Re[1],
        mobility=M, vector_fields=("rho", "rho1", "vx", "vy"))


class TestBandEdges:
    """Closed-form band edges, each checked on the pencil's own roots, never
    on the reduced polynomial that gives them."""

    @pytest.mark.parametrize("mobility", ["full", "rank_one", "zero"])
    def test_no_hopf_edge_and_every_edge_checked_on_the_pencil(self, mobility):
        """Where the pencil signs its roots, the count of growing roots
        changes only in grid intervals that hold a closed-form edge, and
        changes across every edge.  Without mobility one root is 0 at every
        k and is never signed; next to a zero-mobility edge it nearly
        coalesces with the crossing root, so some edges cannot be signed."""
        rng = np.random.default_rng({"full": 11, "rank_one": 12, "zero": 13}[mobility])
        ks = np.logspace(-3, 3, 2001)
        neutral = int(mobility == "zero")
        checked = unknown = 0
        for _ in range(70):
            lin = random_compressible_linearization(rng, mobility)
            edges = lin.band_edges()
            count = signed_growing_count(lin, ks, neutral)
            known = np.flatnonzero(count >= 0)
            for i, j in zip(known[:-1], known[1:]):
                if count[i] != count[j]:
                    assert np.any((edges >= ks[i]) & (edges <= ks[j])), \
                        f"growing count changes on [{ks[i]}, {ks[j]}] with no edge"
            for edge in edges[(edges > ks[0]) & (edges < ks[-1])]:
                below, above = signed_growing_count(
                    lin, edge * np.array([1 - 1e-6, 1 + 1e-6]), neutral)
                if min(below, above) < 0:
                    unknown += 1
                    continue
                assert below != above, f"no change across the edge {edge}"
                checked += 1
        assert checked >= 25 and unknown <= checked // 2

    @pytest.mark.parametrize("name, bands", [
        ("band_density.ini", ["alpha2 unstable bands: (0.001, 2.1491626364940273)"]),
        ("band_composition.ini", []),
    ])
    def test_zero_mobility_prints_no_neutral_band(self, name, bands, tmp_path, capsys):
        """Without mobility alpha1 = 0 up to rounding and never grows; the
        coupled band ends at sqrt(-p.C.p / p.K.p)."""
        text = config_path(name).read_text(encoding="utf-8")
        path = tmp_path / name
        path.write_text(text.replace("M11 = 1e-4", "M11 = 0.0"), encoding="utf-8")
        assert "M11 = 0.0" in path.read_text(encoding="utf-8")
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "unstable bands" in line] == bands

    def test_quasi_spinodal_band_ends_at_the_spinodal_edge(self, tmp_path, capsys):
        """The grid has a point at the edge, k = 10, which the closed
        bracket keeps as the edge's candidate."""
        path = config_path("quasi_spinodal.ini")
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(tmp_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        model, st = build_all(load_config(path))
        assert model.linearization(st).band_edges().tolist() == [10.0]
        assert "alpha1 unstable bands: (0.01, 10)" in out
        assert "spinodal band: (0, 10)" in out

    def test_no_checked_edge_fails_loudly(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(CompressibleLinearization, "band_edges",
                            lambda self: np.array([3.0, 44.0]))
        assert cli.main(["sweep", "--config", str(config_path("band_density.ini")),
                         "--out", str(tmp_path)]) == cli.EXIT_NUMERIC
        assert "0 closed-form band edges" in capsys.readouterr().err


def closed_form_roots(model, st, k):
    return np.roots(disp.scalar_dispersion_coefficients(model, st, k)[::-1])


def worst_root_gap(got, want):
    """Largest distance from a computed root to the nearest closed-form
    root, relative to the spectral radius; every closed-form root must be
    someone's nearest."""
    gap = np.abs(np.asarray(got)[:, None] - want[None, :])
    assert len(set(np.argmin(gap, axis=1))) == want.size
    return gap.min(axis=1).max() / np.abs(want).max()


def make_incompressible():
    q = fe.Quadratic([[-1.0]], variables=("phi",))
    return models.QuasiIncompressible(q, 1e-2, 0.2, 0.3, 0.1,
                                      rho_hat_1=1.5, rho_hat_2=1.5)


class TestBatchedEngine:
    """One batched eigensolve of each class's standard form: accuracy against
    the closed-form polynomial, exact agreement between a sweep and its
    one-k solves, the eigenvector convention and the residual gate."""

    def test_band_density_sweep_matches_closed_form(self, band_density):
        model, st = band_density
        sec = load_config(config_path("band_density.ini")).sections["sweep"]
        ks = np.logspace(np.log10(sec["k_min"]), np.log10(sec["k_max"]),
                         sec["points"])
        res = disp.sweep(model.linearization(st), ks)
        worst = max(worst_root_gap(res.roots[i], closed_form_roots(model, st, k))
                    for i, k in enumerate(ks))
        assert worst <= 1e-12

    @pytest.mark.parametrize("case", ["quasi", "incompressible"])
    def test_phase_field_roots_match_closed_form(self, case):
        model = make_quasi() if case == "quasi" else make_incompressible()
        lin = model.linearization(ST_PHI)
        ks = [1e-2, 0.5, 3.0, 9.0, 40.0, 300.0]
        for k, got in zip(ks, disp.growth_rates(lin, ks)[0]):
            assert worst_root_gap(got, closed_form_roots(model, ST_PHI, k)) <= 1e-12

    def test_sweep_roots_are_the_one_k_roots(self, band_composition):
        model, st = band_composition
        lin = model.linearization(st)
        ks = np.logspace(-3, 2, 60)
        res = disp.sweep(lin, ks)
        grid = disp.growth_rates(lin, ks)
        for i, k in enumerate(ks):
            one = disp.growth_rates(lin, [k])
            # the grid's solve is the one-k solve at every k, bit for bit
            for got, want in zip(grid, one):
                assert np.array_equal(got[i], want[0])
            assert np.array_equal(np.sort_complex(res.roots[i]),
                                  np.sort_complex(one[0][0]))

    def test_eigenvector_convention(self):
        cases = [(make_global(C=-np.eye(2)), ST_GLOBAL), (make_local(), ST_LOCAL),
                 (make_quasi(), ST_PHI), (make_incompressible(), ST_PHI)]
        for model, st in cases:
            lin = model.linearization(st)
            for v in disp.growth_rates(lin, [0.3, 2.0, 50.0])[1]:
                assert np.allclose(np.linalg.norm(v, axis=0), 1.0, rtol=0, atol=1e-15)
                top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
                assert np.all(top.imag == 0.0) and np.all(top.real > 0.0)

    def test_real_and_conjugate_roots_are_exact(self):
        # the standard form is real: no rounding-level imaginary parts
        lin = make_global().linearization(ST_GLOBAL)
        for a in disp.growth_rates(lin, np.logspace(-2, 2, 9))[0]:
            for root in a[a.imag != 0.0]:
                assert np.conj(root) in a

    def test_corrupted_eigensolve_fails_the_residual_gate(self, monkeypatch):
        eig = np.linalg.eig

        def perturbed(S):
            w, v = eig(S)
            w = w.astype(complex)
            w[..., 0] *= 1.0 + 1e-3
            return w, v

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        with pytest.raises(NumericalError, match="eigen-residual"):
            disp.growth_rates(make_local().linearization(ST_LOCAL), [1.0])
        with pytest.raises(NumericalError, match="eigen-residual"):
            disp.sweep(make_quasi().linearization(ST_PHI), np.logspace(-1, 1, 20))


@pytest.fixture()
def eig_calls(monkeypatch):
    """Calls made to numpy.linalg.eig and scipy.linalg.eig while the test
    runs, and the number of pencils handed to numpy in them."""
    import scipy.linalg

    counts = {"numpy": 0, "matrices": 0, "scipy": 0}
    numpy_eig, scipy_eig = np.linalg.eig, scipy.linalg.eig

    def counting_numpy(a, *args, **kwargs):
        counts["numpy"] += 1
        counts["matrices"] += int(np.prod(np.shape(a)[:-2], dtype=int))
        return numpy_eig(a, *args, **kwargs)

    def counting_scipy(*args, **kwargs):
        counts["scipy"] += 1
        return scipy_eig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counting_numpy)
    monkeypatch.setattr(scipy.linalg, "eig", counting_scipy)
    return counts


@pytest.fixture()
def solves(monkeypatch):
    """The k arrays handed to dispersion.growth_rates while the test runs."""
    calls = []
    growth_rates = disp.growth_rates

    def counting(lin, ks):
        calls.append(np.asarray(ks, dtype=float))
        return growth_rates(lin, ks)

    monkeypatch.setattr(disp, "growth_rates", counting)
    return calls


class TestEigenBudget:
    """A sweep solves its whole grid in one eigensolve; a band edge takes one
    batched solve of two k per closed-form candidate; a band peak takes one
    sweep per refinement; no QZ."""

    def test_every_gated_solve_is_one_public_call(self, band_composition, tmp_path,
                                                  solves):
        # the sweep's grid, each closed-form edge checked and verify's
        # viscous check each solve through dispersion.growth_rates, once
        model, st = band_composition
        lin = model.linearization(st)
        sec = load_config(config_path("band_composition.ini")).sections["sweep"]
        ks = np.logspace(np.log10(sec["k_min"]), np.log10(sec["k_max"]),
                         sec["points"])
        res = disp.sweep(lin, ks)
        assert len(solves) == 1 and np.array_equal(solves[0], ks) and ks.size == 241
        edge = lin.band_edges()[0]
        assert disp.unstable_bands(lin, res, res.track("alpha1")) == [(ks[0], edge)]
        assert len(solves) == 2
        assert np.array_equal(solves[1], edge * np.array([1 - 1e-6, 1 + 1e-6]))
        solves.clear()
        assert cli.main(["verify", "--config", str(config_path("band_composition.ini")),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_OK
        assert len(solves) == 1 and np.array_equal(solves[0], np.logspace(-3, 3, 13))

    def test_sweep_is_one_batched_call(self, band_composition, eig_calls):
        model, st = band_composition
        disp.sweep(model.linearization(st), np.logspace(-3, 2, 400))
        assert eig_calls == {"numpy": 1, "matrices": 400, "scipy": 0}

    def test_one_batched_call_per_edge_candidate(self, band_composition, eig_calls):
        model, st = band_composition
        lin = model.linearization(st)
        res = disp.sweep(lin, np.logspace(-3, 3, 241))
        before = dict(eig_calls)
        bands = disp.unstable_bands(lin, res, res.mode_names.index("alpha1"))
        assert bands == [(1e-3, lin.band_edges()[0])]
        assert eig_calls["numpy"] - before["numpy"] == 1
        assert eig_calls["matrices"] - before["matrices"] == 2

    def test_one_sweep_per_refinement(self, monkeypatch, eig_calls):
        m = make_local(C_tilde=np.array([[-0.5, 0.0], [0.0, 2.0]]), M11=0.05)
        lin = m.linearization(ST_LOCAL)
        grids = []
        sweep = disp.sweep

        solves = []

        def counting(lin, k_grid, start=None):
            grids.append(np.asarray(k_grid))
            before = eig_calls["numpy"]
            result = sweep(lin, k_grid, start)
            solves.append(eig_calls["numpy"] - before)
            return result

        monkeypatch.setattr(disp, "sweep", counting)
        k, _, _ = disp.band_peak(lin, 1.0, 14.0, "alpha1")
        # each refinement sweeps once, inside the last bracket and at most a
        # quarter of its log-width (to the grid points' rounding), until it
        # is narrower than 1e-10 k
        assert len(grids) > 10
        assert all(g.size == disp.PEAK_POINTS for g in grids)
        for outer, inner in zip(grids, grids[1:]):
            assert outer[0] <= inner[0] < inner[-1] <= outer[-1]
            assert np.log(inner[-1] / inner[0]) \
                <= 0.25 * np.log(outer[-1] / outer[0]) + 1e-15
        assert grids[-1][-1] - grids[-1][0] <= 1e-10 * k < grids[-2][-1] - grids[-2][0]
        # the first sweep is its grid's solve, plus the seed candidates and
        # the prefix where the long-wave expansions do not hold at its first
        # k; every later one carries the names on and is its grid's solve
        assert solves[0] <= 3 and solves[1:] == [1] * (len(grids) - 1)
        assert eig_calls["scipy"] == 0

    @pytest.mark.parametrize("name, mode", [("band_composition.ini", "alpha1"),
                                            ("band_density.ini", "alpha2")])
    def test_carried_names_are_the_reseeded_ones(self, monkeypatch, eig_calls,
                                                 name, mode):
        # every refinement sweep, which continues the names of the one
        # before, equals a sweep of its grid seeded from the long-wave
        # window, bit for bit; so does the peak
        lin, res = bundled_sweep(name)
        (k_lo, k_hi), = disp.unstable_bands(lin, res, res.track(mode))
        sweeps = []
        sweep = disp.sweep

        def recording(lin, k_grid, start=None):
            sweeps.append(sweep(lin, k_grid, start))
            return sweeps[-1]

        monkeypatch.setattr(disp, "sweep", recording)
        before = eig_calls["numpy"]
        k, alpha, vec = disp.band_peak(lin, k_lo, k_hi, mode)
        assert eig_calls["numpy"] - before <= len(sweeps) + 2
        for got in sweeps:
            want = sweep(lin, got.k_grid)
            assert got.long_wave == want.long_wave
            assert np.array_equal(got.roots, want.roots)
            assert np.array_equal(got.vectors, want.vectors)
            assert np.array_equal(got.residuals, want.residuals)
        last = sweeps[-1]
        i = int(np.argmax(last.roots[:, last.track(mode)].real))
        assert (k, alpha) == (last.k_grid[i], last.roots[i, last.track(mode)])
        assert np.array_equal(vec, last.vectors[i, last.track(mode)])

    def test_continuing_from_above_the_grid_is_refused(self, band_composition):
        model, st = band_composition
        lin = model.linearization(st)
        res = disp.sweep(lin, [1.0, 2.0])
        with pytest.raises(RangeError, match="continues only from a k at or below"):
            disp.sweep(lin, [1.5, 3.0], (res, 1))


@pytest.mark.parametrize("length", [1, 2, 3, 400])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_is_the_sequential_composition(rng, length, n):
    first = rng.permutation(n)
    step = np.array([rng.permutation(n) for _ in range(length - 1)],
                    dtype=int).reshape(length - 1, n)
    want = np.empty((length, n), dtype=int)
    want[0] = first
    for i in range(1, length):
        want[i] = step[i - 1][want[i - 1]]
    assert np.array_equal(disp._chain(first, step), want)


class TestTrackingGap:
    def test_match_is_an_optimal_assignment(self, rng):
        # the Hungarian solver is the reference: the exact permutation
        # search reaches its minimum cost, and its assignment when unique
        from scipy.optimize import linear_sum_assignment
        for n in (1, 2, 3, 4):
            for _ in range(200):
                cost = np.abs(rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
                              - rng.normal(size=n) - 1j * rng.normal(size=n))
                _, ref = linear_sum_assignment(cost)
                got = disp._match(cost)
                assert sorted(got) == list(range(n))
                assert cost[np.arange(n), got].sum() == pytest.approx(
                    cost[np.arange(n), ref].sum(), rel=1e-14)
                assert np.array_equal(got, ref)

    def test_overlap_gap_above_the_tie_tolerance_wins(self):
        # keeping the roots sums the mismatch to 0, swapping them to 1e-4;
        # the distance favours the swap, but decides only within the tolerance
        cost = np.array([[0.0, 5e-5], [5e-5, 0.0]])
        distance = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert list(disp._match(cost, distance)) == [0, 1]
        assert list(disp._match(1e-3 * cost, distance)) == [1, 0]

    def test_long_wave_sweep_is_not_ambiguous(self, band_composition):
        model, st = band_composition
        res = disp.sweep(model.linearization(st), np.logspace(-6, 2, 300))
        assert res.ambiguous == ()

    def test_large_root_crossing_is_flagged(self):
        # alpha1 = -Mh (h'' k^2 + kappa k^4) crosses alpha0 = -k^2 / (Re_s rho0)
        # at |alpha| = 2e5
        q = fe.Quadratic([[-1.0]], variables=("phi",))
        m = models.QuasiIncompressible(q, 1e-5, 1.0, 1.0, 1.0,
                                       rho_hat_1=1.0, rho_hat_2=1.0)
        st = models.MixtureState.fraction(0.5)
        lin = m.linearization(st)
        k_x = np.sqrt((lin.inv_Re_s / lin.rho0 - lin.Mh * lin.h_phi_phi)
                      / (lin.Mh * lin.kappa_phi_phi))
        ks = np.array([0.5, 1.0 + 2e-15, 1.0 + 1e-6, 2.0]) * k_x
        res = disp.sweep(lin, ks)
        gap = abs(res.roots[1, 0] - res.roots[1, 1])
        assert abs(res.roots[1, 0]) >= 1e5 and gap > 1e-12
        assert res.ambiguous == (1,)
