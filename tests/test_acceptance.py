"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are fixed here, not calibrated at runtime."""

import numpy as np

from pfmix import dispersion as disp
from pfmix import free_energy as fe
from pfmix import models
from pfmix import simulator as sim
from pfmix.grid import PeriodicGrid1D

from conftest import fd_gradient, fd_hessian


SMALL_K_SAMPLES = (1e-3, 3e-3, 1e-2)
LARGE_K_SAMPLES = (100.0, 300.0, 1e3)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def asymptote_errors(lin, regime, samples):
    co = lin.small_k() if regime == "small" else lin.large_k()
    worst = 0.0
    alphas, _, _ = disp.growth_rates(lin, samples)
    for k, roots in zip(samples, alphas):
        for mode in co.modes:
            pred = mode.evaluate(k)
            best = roots[np.argmin(np.abs(roots - pred))]
            worst = max(worst, abs(pred - best) / abs(best))
    return worst


def band_structure(lin, k_grid):
    result = disp.sweep(lin, k_grid)
    max_re = {nm: result.roots[:, j].real.max()
              for j, nm in enumerate(result.mode_names)}
    return result, max_re


# ---------------------------------------------------------------------------
# 1. viscous-mode exactness in every class
# ---------------------------------------------------------------------------

def test_criterion_1_viscous_mode_exactness():
    q2 = fe.Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]))
    kap2 = fe.GradientCoefficients(np.array([[1e-2, 2e-3], [2e-3, 3e-2]]))
    qloc = fe.Quadratic(np.array([[1.0, 0.2], [0.2, 2.0]]),
                        variables=("rho1", "rho"))
    qphi = fe.Quadratic([[-1.0]], variables=("phi",))
    cases = [
        (models.CompressibleGlobal(q2, kap2, np.array([[2.0, 0.5], [0.5, 1.0]]),
                                   0.5, 0.2), models.MixtureState.binary(1.0, 2.0)),
        (models.CompressibleLocal(qloc, kap2, M11=0.3, inv_Re_s=0.5,
                                  inv_Re_v=0.2),
         models.MixtureState.total_partial(3.0, 1.0)),
        (models.QuasiIncompressible(qphi, 1e-2, 0.2, 0.3, 0.1,
                                    rho_hat_1=2.0, rho_hat_2=1.0),
         models.MixtureState.fraction(0.4)),
        (models.QuasiIncompressible(qphi, 1e-2, 0.2, 0.3, 0.1,
                                    rho_hat_1=1.5, rho_hat_2=1.5),
         models.MixtureState.fraction(0.4)),
    ]
    worst = 0.0
    for model, state in cases:
        lin = model.linearization(state)
        ks = np.logspace(-3, 3, 13)
        alphas, _, _ = disp.growth_rates(lin, ks)
        for k, roots in zip(ks, alphas):
            want = disp.viscous_root(lin, k)
            worst = max(worst, min(abs(a - want) for a in roots) / abs(want))
    report(1, worst <= 1e-12,
           f"viscous root matches -k^2/(Re_s rho0) in all four classes, "
           f"worst rel dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 2-4. reference-state band structure of the mixture model
# ---------------------------------------------------------------------------

def test_criterion_2_composition_band(band_composition):
    model, state = band_composition
    lin = model.linearization(state)
    ks = np.logspace(-3, 3, 241)
    result, max_re = band_structure(lin, ks)
    i1 = result.track("alpha1")
    ok = max_re["alpha1"] > 0
    ok &= max(max_re["alpha0"], max_re["alpha2"], max_re["alpha3"]) <= 0
    bands = disp.unstable_bands(lin, result, i1)
    ok &= len(bands) == 1 and bands[0][1] < ks[-1]
    # eigenvector at the band peak lies along the partial-density axis
    k_pk, _, vec = disp.band_peak(lin, max(bands[0][0], 1e-3), bands[0][1], "alpha1")
    dev = disp.angular_deviation(vec)
    ok &= dev <= 1e-6
    e_small = asymptote_errors(lin, "small", SMALL_K_SAMPLES)
    e_large = asymptote_errors(lin, "large", LARGE_K_SAMPLES)
    ok &= e_small < 0.05 and e_large < 0.05
    report(2, ok,
           f"alpha1 band {bands[0][0]:.3g}..{bands[0][1]:.3g}, others damped; "
           f"eigenvector deviation {dev:.1e} rad at k={k_pk:.3g}; asymptote "
           f"errors small {e_small:.2e} / large {e_large:.2e}")


def test_criterion_3_density_band(band_density):
    model, state = band_density
    lin = model.linearization(state)
    ks = np.logspace(-3, 3, 241)
    result, max_re = band_structure(lin, ks)
    ok = max_re["alpha2"] > 0
    ok &= max(max_re["alpha0"], max_re["alpha1"], max_re["alpha3"]) <= 0
    e_small = asymptote_errors(lin, "small", SMALL_K_SAMPLES)
    e_large = asymptote_errors(lin, "large", LARGE_K_SAMPLES)
    ok &= e_small < 0.05 and e_large < 0.05
    report(3, ok,
           f"alpha2 unstable (max Re {max_re['alpha2']:.3g}), others damped; "
           f"asymptote errors small {e_small:.2e} / large {e_large:.2e}")


def test_criterion_4_stable_state(stable_dense):
    model, state = stable_dense
    ks = np.logspace(-3, 3, 241)
    result, max_re = band_structure(model.linearization(state), ks)
    ok = max(max_re.values()) <= 0
    C = model.free_energy.hessian(model.state_densities(state))
    ok &= fe.classify_matrices(C) == fe.MAP_POSITIVE_DEFINITE
    report(4, ok,
           f"all roots nonpositive (max Re {max(max_re.values()):.2e}); "
           f"Hessian positive definite")


# ---------------------------------------------------------------------------
# 5. long-wave classification vs numeric roots
# ---------------------------------------------------------------------------

def _draw_case(rng, category):
    """A model and state from a random (C, p, M) realizing the requested
    Hessian category, with margins so the k = 1e-3 signs are unambiguous,
    and their long-wave expansions."""
    while True:
        th = rng.uniform(0.0, np.pi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        if category == "pd":
            C = R @ np.diag(rng.uniform(0.5, 2.0, 2)) @ R.T
        elif category == "nd":
            C = -(R @ np.diag(rng.uniform(0.5, 2.0, 2)) @ R.T)
        else:
            C = R @ np.diag([rng.uniform(0.5, 2.0),
                             -rng.uniform(0.5, 2.0)]) @ R.T
        C = 0.5 * (C + C.T)
        p = rng.uniform(0.5, 2.0, size=2)
        A = rng.normal(size=(2, 2))
        M = A @ A.T + 0.3 * np.eye(2)
        pCp = float(p @ C @ p)
        det = float(np.linalg.det(C))
        if abs(pCp) < 0.2 or abs(det) < 0.05:
            continue
        if category == "indef_pos" and pCp < 0:
            continue
        if category == "indef_neg" and pCp > 0:
            continue
        # predictions at k = 1e-3 must be well separated for root matching
        kap = fe.GradientCoefficients(np.diag([1e-3, 1e-3]))
        m = models.CompressibleGlobal(fe.Quadratic(C), kap, M,
                                      inv_Re_s=0.4, inv_Re_v=0.3)
        st = models.MixtureState.binary(p[0], p[1])
        try:
            co = m.linearization(st).small_k()
        except disp.SingularExpansion:
            continue
        preds = np.array([md.evaluate(1e-3) for md in co.modes])
        ok_sep = True
        for i in range(preds.size):
            for j in range(i + 1, preds.size):
                gap = abs(preds[i] - preds[j])
                if gap < 0.2 * max(abs(preds[i]), abs(preds[j])):
                    ok_sep = False
        if not ok_sep:
            continue
        return m, st, co


def test_criterion_5_long_wave_classification(rng):
    categories = {"pd": "C > 0", "nd": "C < 0",
                  "indef_pos": "C indefinite", "indef_neg": "C indefinite"}
    checked = {c: 0 for c in categories}
    for cat, want_label in categories.items():
        while checked[cat] < 20:
            m, st, co = _draw_case(rng, cat)
            lin = m.linearization(st)
            # the printed table: "long-wave classification [<C>]: alpha0=<sign>, ..."
            head, _, signs = lin.classification(co).partition("]: ")
            assert head == f"long-wave classification [{want_label}"
            verdicts = dict(item.split("=") for item in signs.split(", "))
            alphas, _, _ = disp.growth_rates(lin, [1e-3])
            # associate roots with mode names via the asymptotic predictions
            preds = np.array([md.evaluate(1e-3) for md in co.modes])
            cost = np.abs(preds[:, None] - alphas[0][None, :])
            from scipy.optimize import linear_sum_assignment
            _, cols = linear_sum_assignment(cost)
            for j, md in enumerate(co.modes):
                verdict = verdicts[md.name]
                re = alphas[0][cols[j]].real
                assert (re > 0) == (verdict == "positive"), \
                    f"{cat}/{md.name}: Re={re:.3e} vs verdict {verdict}"
            checked[cat] += 1
    report(5, all(v == 20 for v in checked.values()),
           "sign table confirmed numerically at k=1e-3, 20 instances per row "
           "(C > 0, C < 0, both indefinite sub-cases)")


# ---------------------------------------------------------------------------
# 6. pencil determinant vs printed scalar polynomial
# ---------------------------------------------------------------------------

def test_criterion_6_determinant_polynomial(rng):
    worst = 0.0
    for _ in range(5):
        A = rng.normal(size=(2, 2))
        M = A @ A.T + 0.2 * np.eye(2)
        C = rng.normal(size=(2, 2))
        C = 0.5 * (C + C.T)
        kap = fe.GradientCoefficients(np.diag(rng.uniform(1e-3, 1e-2, 2)))
        m = models.CompressibleGlobal(fe.Quadratic(C), kap, M,
                                      inv_Re_s=rng.uniform(0.1, 1.0),
                                      inv_Re_v=rng.uniform(0.1, 1.0))
        lin = m.linearization(models.MixtureState.binary(*rng.uniform(0.5, 2.0, 2)))
        ok, err = disp.pencil_matches_scalar(lin, rng.uniform(0.05, 50.0, size=5))
        worst = max(worst, err.max())
        assert ok.all()
    report(6, worst <= 1e-9,
           f"det(alpha B + A) matches the scalar dispersion polynomial, "
           f"worst coefficient error {worst:.2e} (5 parameter sets x 5 k)")


# ---------------------------------------------------------------------------
# 7. quasi-incompressible closed forms
# ---------------------------------------------------------------------------

def test_criterion_7_quasi_closed_forms():
    q = fe.Quadratic([[-1.0]], variables=("phi",))
    m = models.QuasiIncompressible(q, kappa_phi_phi=1e-2, M11=0.2,
                                   inv_Re_s=0.3, inv_Re_v=0.1,
                                   rho_hat_1=2.0, rho_hat_2=1.0)
    lin = m.linearization(models.MixtureState.fraction(0.4))
    worst = 0.0
    ks = np.logspace(-2, 2, 41)
    for k, pencil in zip(ks, disp.growth_rates(lin, ks)[0]):
        roots = np.sort_complex(np.array(disp.quasi_explicit_roots(lin, float(k))))
        got = np.sort_complex(pencil)
        worst = max(worst, float(np.max(np.abs(roots - got))
                                 / np.max(np.abs(roots))))
    ok = worst <= 1e-10
    # spinodal band endpoint by bisection on Re(alpha1), against the
    # closed-form edge sqrt(-h''/kappa) of the linearization
    edge = lin.band_edges()[0]
    lo, hi = 0.5, 50.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        _, a1, _ = disp.quasi_explicit_roots(lin, mid)
        if a1.real > 0:
            lo = mid
        else:
            hi = mid
    k_edge = 0.5 * (lo + hi)
    ok &= abs(k_edge - edge) <= 1e-6 * edge
    report(7, ok,
           f"explicit roots match pencil eigenvalues to {worst:.2e}; "
           f"bisected band edge {k_edge:.8f} vs sqrt(-h''/kappa) {edge:.8f}")


# ---------------------------------------------------------------------------
# 8. incompressible limit
# ---------------------------------------------------------------------------

def test_criterion_8_incompressible_limit():
    q = fe.Quadratic([[1.0]], variables=("phi",))
    st = models.MixtureState.fraction(2.0 / 3.0)
    ks = np.logspace(-2, 1, 40)
    rels = []
    for ratio in (1.5, 1.1, 1.01, 1.001):
        m = models.QuasiIncompressible(q, kappa_phi_phi=1e-2, M11=0.1,
                                       inv_Re_s=1.0, inv_Re_v=1.0,
                                       rho_hat_1=ratio, rho_hat_2=1.0)
        lin = m.linearization(st)
        _, a1, _ = disp.quasi_explicit_roots(lin, ks)
        _, a1_inc = disp.incompressible_roots(lin, ks)
        rels.append(float(np.max(np.abs(a1 - a1_inc) / np.abs(a1_inc))))
    ok = all(rels[i + 1] < rels[i] for i in range(3)) and rels[-1] < 1e-3
    report(8, ok,
           "sup-k relative difference decreases monotonically: "
           + " -> ".join(f"{r:.2e}" for r in rels))


# ---------------------------------------------------------------------------
# 9. simulator vs dispersion oracle
# ---------------------------------------------------------------------------

def test_criterion_9_simulator_oracle():
    L = 2 * np.pi
    n = 256
    kap = fe.GradientCoefficients(np.diag([2e-4, 2e-4]))
    st = models.MixtureState.total_partial(3.0, 1.0)
    stable = models.CompressibleLocal(
        fe.Quadratic(np.array([[1.0, 0.0], [0.0, 2.0]]), variables=("rho1", "rho")),
        kap, M11=0.05, inv_Re_s=0.15, inv_Re_v=0.1)
    unstable = models.CompressibleLocal(
        fe.Quadratic(np.array([[-0.5, 0.0], [0.0, 2.0]]), variables=("rho1", "rho")),
        kap, M11=0.05, inv_Re_s=0.15, inv_Re_v=0.1)
    grid = PeriodicGrid1D(L, n)

    perts, pred_s = sim.eigenvector_perturbations(stable, st, grid, mode=2,
                                                  amplitude=1e-6,
                                                  track_name="alpha1")
    cfg = sim.SimulationConfig(model=stable, state=st, length=L, n=n,
                               dt=1e-4, t_end=2.0, diagnostics_every=60,
                               perturbations=perts, track=(("rho1", 2),))
    tr_s = sim.run(cfg)
    fit_s = sim.extract_growth_rate(tr_s, "rho1", 2)
    rel_s = abs(fit_s.alpha.real - pred_s.real) / abs(pred_s.real)
    dE = np.diff(tr_s.energy)
    energy_ok = bool(np.all(dE <= 1e-8 * max(1.0, abs(tr_s.energy[0]))))

    perts_u, pred_u = sim.eigenvector_perturbations(unstable, st, grid, mode=6,
                                                    amplitude=1e-7,
                                                    track_name="alpha1")
    cfg_u = sim.SimulationConfig(model=unstable, state=st, length=L, n=n,
                                 dt=1e-4, t_end=2.0, diagnostics_every=60,
                                 perturbations=perts_u, track=(("rho1", 6),))
    tr_u = sim.run(cfg_u)
    fit_u = sim.extract_growth_rate(tr_u, "rho1", 6)
    rel_u = abs(fit_u.alpha.real - pred_u.real) / pred_u.real
    drift = max(float(np.max(np.abs(tr.mass - tr.mass[0])) / abs(tr.mass[0]))
                for tr in (tr_s, tr_u))

    ok = rel_s < 0.05 and rel_u < 0.05 and drift <= 1e-10 and energy_ok
    report(9, ok,
           f"growth rates: stable rel {rel_s:.2e}, unstable rel {rel_u:.2e}; "
           f"mass drift {drift:.2e}; energy nonincreasing on the stable run")


# ---------------------------------------------------------------------------
# 10. free-energy derivative suite + concavity map
# ---------------------------------------------------------------------------

def test_criterion_10_derivative_suite(co2_decane, rng):
    energies = {
        "quadratic": (fe.Quadratic(np.array([[2.0, 0.5], [0.5, 1.5]]),
                                   g=[0.1, -0.2]),
                      [0.1, 0.1], [5.0, 5.0]),
        "flory_huggins": (fe.FloryHuggins(1.3, 5.0, 2.0, 1.7),
                          [0.05, 0.05], [4.0, 4.0]),
        "peng_robinson": (co2_decane, [5.0, 20.0], [250.0, 350.0]),
    }
    worst = 0.0
    for name, (energy, lo, hi) in energies.items():
        count = 0
        while count < 100:
            x = rng.uniform(lo, hi)
            if not energy.domain_mask(x):
                continue
            g = energy.gradient(x)
            gfd = fd_gradient(lambda y: energy.value(y), x)
            worst = max(worst, float(np.max(np.abs(g - gfd)
                                            / np.maximum(np.abs(gfd), 1e-10))))
            H = energy.hessian(x)
            Hfd = fd_hessian(lambda y: energy.gradient(y), x)
            worst = max(worst, float(np.max(np.abs(H - Hfd)
                                            / np.maximum(np.abs(Hfd), 1e-10))))
            count += 1
    ok = worst < 1e-5

    tq = fe.TildeFreeEnergy(co2_decane)
    rho1 = np.linspace(2.0, 500.0, 60)
    rho = np.linspace(2.0, 500.0, 60)
    codes = fe.concavity_map(tq, rho1, rho)
    ok &= bool(np.any(codes == fe.MAP_POSITIVE_DEFINITE))
    ok &= bool(np.any(codes == fe.MAP_INDEFINITE))
    dets_ok = True
    for i in range(rho1.size):
        for j in range(rho.size):
            if codes[i, j] == fe.MAP_INDEFINITE:
                H = tq.hessian(np.array([rho1[i], rho[j]]))
                dets_ok &= bool(np.linalg.det(H) < 0)
    ok &= dets_ok
    report(10, ok,
           f"analytic derivatives match finite differences (worst {worst:.2e} "
           f"over 100 states x 3 energies); concavity map has both regions "
           f"and every indefinite cell has det C < 0")
