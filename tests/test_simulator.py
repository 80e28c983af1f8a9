
import numpy as np
import pytest

from pfmix import dispersion as disp
from pfmix import free_energy as fe
from pfmix import models
from pfmix import simulator as sim
from pfmix.config import build_all, load_config, parse_config
from pfmix.errors import BlowupError, DomainError, FitError, RangeError, SolveError
from pfmix.grid import PeriodicGrid1D

from conftest import FH_PHASE_FIELD, config_path, physical_record

L = 2 * np.pi


def stable_local(M11=0.05):
    q = fe.Quadratic(np.array([[1.0, 0.0], [0.0, 2.0]]), variables=("rho1", "rho"))
    kap = fe.GradientCoefficients(np.diag([2e-3, 2e-3]))
    return models.CompressibleLocal(q, kap, M11=M11, inv_Re_s=0.5, inv_Re_v=0.2)


def unstable_local(M11=0.05, kappa=2e-3):
    q = fe.Quadratic(np.array([[-0.5, 0.0], [0.0, 2.0]]), variables=("rho1", "rho"))
    kap = fe.GradientCoefficients(np.diag([kappa, kappa]))
    return models.CompressibleLocal(q, kap, M11=M11, inv_Re_s=0.5, inv_Re_v=0.2)


ST = models.MixtureState.total_partial(3.0, 1.0)


def classic_rk4_step(m, u, grid, dt):
    """The classic RK4 step written out over ``rhs_1d``."""
    k1 = m.rhs_1d(u, grid)
    k2 = m.rhs_1d(u + 0.5 * dt * k1, grid)
    k3 = m.rhs_1d(u + 0.5 * dt * k2, grid)
    k4 = m.rhs_1d(u + dt * k3, grid)
    return u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestInitialization:
    def test_dt_guard(self):
        m = stable_local()
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=64, dt=1.0,
                                   t_end=1.0)
        with pytest.raises(RangeError):
            sim.run(cfg)

    def test_power_of_two_required(self):
        with pytest.raises(RangeError):
            sim.SimulationConfig(model=stable_local(), state=ST, length=L,
                                 n=100, dt=1e-4, t_end=1.0)

    @pytest.mark.parametrize("dt, t_end", [(np.nan, 1.0), (1e-3, np.inf), (1e-3, 0.0)],
                             ids=["dt_nan", "t_end_inf", "t_end_zero"])
    def test_dt_and_t_end_must_be_finite_and_positive(self, dt, t_end):
        # a NaN dt passes dt <= 0, and a library caller skips the parser
        with pytest.raises(RangeError, match="finite and positive"):
            sim.SimulationConfig(model=stable_local(), state=ST, length=L,
                                 n=64, dt=dt, t_end=t_end)

    def test_out_of_domain_perturbation_rejected(self):
        fh = fe.FloryHuggins(1.0, 1.0, 1.0, 0.0)
        tq = fe.TildeFreeEnergy(fh)
        kap = fe.GradientCoefficients(np.diag([1e-3, 1e-3]))
        m = models.CompressibleLocal(tq, kap, M11=0.01, inv_Re_s=0.1,
                                     inv_Re_v=0.1)
        st = models.MixtureState.total_partial(2.0, 0.05)
        cfg = sim.SimulationConfig(
            model=m, state=st, length=L, n=32, dt=1e-5, t_end=1e-4,
            perturbations=(sim.Perturbation("rho1", 1, 0.2),))
        with pytest.raises(BlowupError):
            sim.run(cfg)

    def test_momentum_bumps_add_to_rho_v(self):
        # a momentum perturbation lands on top of the velocity's rho * v
        m = stable_local()
        grid = PeriodicGrid1D(L, 32)
        perts = (sim.Perturbation("rho1", 1, 0.1), sim.Perturbation("vx", 1, 1e-2),
                 sim.Perturbation("mx", 2, 1e-3), sim.Perturbation("my", 3, 2e-3))
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=32, dt=1e-4,
                                   t_end=1e-3, perturbations=perts)
        f = m.field_dict(sim.initial_state(cfg, grid))

        def wave(mode, amplitude):
            return amplitude * np.cos(grid.mode_wavenumber(mode) * grid.x)

        assert np.max(np.abs(f["mx"] - (f["rho"] * wave(1, 1e-2) + wave(2, 1e-3)))) \
            < 1e-15
        assert np.max(np.abs(f["my"] - wave(3, 2e-3))) < 1e-15


class TestConservation:
    def test_constant_solution_stays_constant(self):
        # critical point of the bulk energy: all diagnostics frozen
        C = np.array([[1.0, 0.0], [0.0, 2.0]])
        rho_star = np.array([1.0, 3.0])
        q = fe.Quadratic(C, g=-C @ rho_star, variables=("rho1", "rho"))
        kap = fe.GradientCoefficients(np.diag([2e-3, 2e-3]))
        m = models.CompressibleLocal(q, kap, M11=0.05, inv_Re_s=0.5,
                                     inv_Re_v=0.2)
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=32, dt=1e-3,
                                   t_end=0.5, diagnostics_every=10)
        tr = sim.run(cfg)
        assert np.max(np.abs(tr.mass - tr.mass[0])) <= 1e-12 * abs(tr.mass[0])
        assert np.max(np.abs(tr.energy - tr.energy[0])) \
            <= 1e-12 * max(1.0, abs(tr.energy[0]))

    def test_local_mass_drift_long_run(self):
        m = stable_local()
        grid = PeriodicGrid1D(L, 32)
        perts, _ = sim.eigenvector_perturbations(m, ST, grid, mode=2,
                                                 amplitude=1e-4,
                                                 track_name="alpha1")
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=32, dt=2e-3,
                                   t_end=10.0, diagnostics_every=100,
                                   perturbations=perts)
        tr = sim.run(cfg)
        drift = np.max(np.abs(tr.mass - tr.mass[0])) / abs(tr.mass[0])
        assert drift <= 1e-10

    def test_energy_monotone_stable_run(self):
        m = stable_local()
        grid = PeriodicGrid1D(L, 64)
        perts, _ = sim.eigenvector_perturbations(m, ST, grid, mode=3,
                                                 amplitude=1e-3,
                                                 track_name="alpha1")
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=64, dt=5e-4,
                                   t_end=2.0, diagnostics_every=20,
                                   perturbations=perts)
        tr = sim.run(cfg)
        dE = np.diff(tr.energy)
        assert np.all(dE <= 1e-8 * max(1.0, abs(tr.energy[0])))
        assert np.all(tr.dissipation <= 1e-12)


class TestGrowthRates:
    def test_stable_mode_measured(self):
        m = stable_local()
        grid = PeriodicGrid1D(L, 64)
        perts, pred = sim.eigenvector_perturbations(m, ST, grid, mode=2,
                                                    amplitude=1e-6,
                                                    track_name="alpha1")
        assert pred.real < 0
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=64, dt=5e-4,
                                   t_end=3.0, diagnostics_every=20,
                                   perturbations=perts, track=(("rho1", 2),))
        fit = sim.extract_growth_rate(sim.run(cfg), "rho1", 2)
        assert abs(fit.alpha.real - pred.real) / abs(pred.real) < 0.05

    def test_unstable_band_mode_measured(self):
        m = unstable_local()
        grid = PeriodicGrid1D(L, 64)
        perts, pred = sim.eigenvector_perturbations(m, ST, grid, mode=6,
                                                    amplitude=1e-7,
                                                    track_name="alpha1")
        assert pred.real > 0
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=64, dt=5e-4,
                                   t_end=4.0, diagnostics_every=20,
                                   perturbations=perts, track=(("rho1", 6),))
        fit = sim.extract_growth_rate(sim.run(cfg), "rho1", 6)
        assert abs(fit.alpha.real - pred.real) / pred.real < 0.05

    def test_transverse_viscous_mode(self):
        m = stable_local()
        grid = PeriodicGrid1D(L, 64)
        mode = 3
        k = grid.mode_wavenumber(mode)
        cfg = sim.SimulationConfig(
            model=m, state=ST, length=L, n=64, dt=5e-4, t_end=1.5,
            diagnostics_every=20,
            perturbations=(sim.Perturbation("vy", mode, 1e-5),),
            track=(("vy", mode),))
        fit = sim.extract_growth_rate(sim.run(cfg), "vy", mode)
        want = -m.inv_Re_s * k * k / ST.rho
        assert abs(fit.alpha.real - want) / abs(want) < 0.01

    def test_fit_window_skips_the_first_tenth(self):
        # 100 samples, t = 0..99: a transient decaying as e^{-3t} is gone
        # (below 1e-13) from sample 10 on, where the window starts; the
        # amplitude changes by under a decade, so the window runs to the end
        t = np.arange(100.0)
        amp = np.exp((0.01 + 0.5j) * t) + 0.5 * np.exp(-3.0 * t)
        zeros = np.zeros_like(t)
        trace = sim.SimulationTrace(t, zeros, zeros, zeros, {("rho1", 1): amp},
                                    {}, PeriodicGrid1D(L, 32), None)
        fit = sim.extract_growth_rate(trace, "rho1", 1)
        assert fit.window == (10.0, 99.0) and fit.n_samples == 90
        assert abs(fit.alpha - (0.01 + 0.5j)) < 1e-12

    def test_linear_regime_fidelity(self):
        m = unstable_local()
        grid = PeriodicGrid1D(L, 64)
        rates = []
        for amp in (1e-6, 1e-7):
            perts, _ = sim.eigenvector_perturbations(m, ST, grid, mode=6,
                                                     amplitude=amp,
                                                     track_name="alpha1")
            cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=64,
                                       dt=5e-4, t_end=3.0,
                                       diagnostics_every=20,
                                       perturbations=perts,
                                       track=(("rho1", 6),))
            rates.append(sim.extract_growth_rate(sim.run(cfg), "rho1", 6).alpha.real)
        assert abs(rates[0] - rates[1]) / abs(rates[1]) < 0.01


class TestIntegrators:
    def test_rk4_fourth_order(self):
        # transverse diffusion at mode 12 puts the truncation error well
        # above roundoff for the coarser steps
        m = stable_local(M11=0.0)
        perts = (sim.Perturbation("vy", 12, 1e-2),)

        def terminal(dt):
            cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=64,
                                       dt=dt, t_end=0.24,
                                       diagnostics_every=10**9,
                                       perturbations=perts,
                                       enforce_dt_guard=False)
            return sim.run(cfg).final_fields

        ref = terminal(0.0005)
        errs = [max(np.max(np.abs(terminal(dt)[k] - ref[k])) for k in ref)
                for dt in (0.03, 0.015, 0.0075)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.4)

    def test_semi_implicit_first_order(self):
        m = stable_local()
        grid = PeriodicGrid1D(L, 64)
        perts, _ = sim.eigenvector_perturbations(m, ST, grid, mode=2,
                                                 amplitude=1e-3,
                                                 track_name="alpha1")

        def terminal(dt):
            cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=64,
                                       dt=dt, t_end=0.4,
                                       diagnostics_every=10**9,
                                       perturbations=perts,
                                       integrator="semi_implicit",
                                       enforce_dt_guard=False)
            return sim.run(cfg).final_fields

        ref = terminal(1e-5)
        errs = [max(np.max(np.abs(terminal(dt)[k] - ref[k])) for k in ref)
                for dt in (4e-3, 2e-3, 1e-3)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 1.0) < 0.25)

    def test_semi_implicit_stable_beyond_explicit_guard(self):
        # stiff interface coefficients: the semi-implicit guard admits, and
        # the step runs without blowing up, a dt that the RK4 guard refuses
        q = fe.Quadratic(np.array([[1.0, 0.0], [0.0, 2.0]]),
                         variables=("rho1", "rho"))
        kap = fe.GradientCoefficients(np.diag([0.05, 0.05]))
        m = models.CompressibleLocal(q, kap, M11=0.5, inv_Re_s=0.5,
                                     inv_Re_v=0.2)
        grid = PeriodicGrid1D(L, 64)
        dt = 2e-4
        assert sim.stable_dt_estimate(m, ST, grid) < dt \
            <= sim.stable_dt_estimate(m, ST, grid, "semi_implicit")
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=64,
                                   dt=dt, t_end=0.05,
                                   diagnostics_every=50,
                                   perturbations=(sim.Perturbation("rho1", 2,
                                                                   1e-4),),
                                   integrator="semi_implicit")
        tr = sim.run(cfg)
        assert np.all(np.isfinite(tr.energy))

    @pytest.mark.parametrize("name", ["local", "global"])
    def test_rk4_step_bit_for_bit(self, name):
        # the run forms each stage input and the final sum in place; they
        # must equal the classic step written out, bit for bit.  The global
        # mobility moves total mass (w.M != 0), so its momentum rows take
        # the 1/2 (w.J) v term; the local one does not
        m, st = smoke_cases()[name]
        assert np.any(m.weights @ m.mobility_E != 0.0) == (name == "global")
        grid = PeriodicGrid1D(L, 64)
        perts, _ = sim.eigenvector_perturbations(m, st, grid, mode=2,
                                                 amplitude=1e-2,
                                                 track_name="alpha1")
        dt = SMOKE_DT[name]
        cfg = sim.SimulationConfig(model=m, state=st, length=L, n=64, dt=dt,
                                   t_end=20 * dt, diagnostics_every=5,
                                   perturbations=perts, enforce_dt_guard=False)
        u = sim.initial_state(cfg, grid)
        for _ in range(20):
            u = classic_rk4_step(m, u, grid, dt)
        final = sim.run(cfg).final_fields
        for i, field in enumerate(m.field_names):
            assert np.array_equal(final[field], u[i])

    @pytest.mark.parametrize("name", ["default_spectra", "quasi"])
    def test_semi_implicit_step_bit_for_bit(self, name):
        # the step u^ + dt / (1 + dt L) rhs^ written out, bit for bit, on the
        # default spectra (the batched rfft of the state and its right-hand
        # side) and on those the quasi-incompressible pass hands back
        m, st = (stable_local(), ST) if name == "default_spectra" \
            else smoke_cases()["quasi"]
        grid = PeriodicGrid1D(L, 64)
        perts, _ = sim.eigenvector_perturbations(m, st, grid, mode=2,
                                                 amplitude=1e-3,
                                                 track_name="alpha1")
        dt = 2e-3
        cfg = sim.SimulationConfig(model=m, state=st, length=L, n=64, dt=dt,
                                   t_end=20 * dt, diagnostics_every=5,
                                   perturbations=perts,
                                   integrator="semi_implicit",
                                   enforce_dt_guard=False)
        symbols = m.linearization(st).stiff_symbols(grid.wavenumbers**2)
        stiff = np.stack([symbols[name] for name in m.field_names])
        u = sim.initial_state(cfg, grid)
        for _ in range(20):
            if name == "default_spectra":
                h = np.fft.rfft(np.concatenate([u, m.rhs_1d(u, grid)]), axis=-1)
                fh, rh = h[:len(u)], h[len(u):]
            else:
                (fh, rh), _ = m.rhs_pass(u, grid, spectral=True)
            u = np.fft.irfft(fh + dt / (1.0 + dt * stiff) * rh, n=grid.n, axis=-1)
        final = sim.run(cfg).final_fields
        for i, name in enumerate(m.field_names):
            assert np.array_equal(final[name], u[i])


class TestFailureModes:
    def test_blowup_reports_step(self):
        q = fe.Quadratic(-3.0 * np.eye(2), variables=("rho1", "rho"))
        kap = fe.GradientCoefficients(np.diag([2e-3, 2e-3]))
        m = models.CompressibleLocal(q, kap, M11=0.05, inv_Re_s=0.0,
                                     inv_Re_v=0.0)
        cfg = sim.SimulationConfig(
            model=m, state=ST, length=L, n=64, dt=1e-3, t_end=50.0,
            diagnostics_every=50,
            perturbations=(sim.Perturbation("rho1", 3, 0.4),),
            enforce_dt_guard=False)
        with pytest.raises(BlowupError) as err:
            sim.run(cfg)
        assert err.value.step is not None
        dump = err.value.fields
        assert isinstance(dump, dict) and tuple(dump) == m.field_names
        assert all(np.shape(v) == (64,) for v in dump.values())

    @pytest.mark.parametrize("case, every", [
        pytest.param("local", 1, id="1"), pytest.param("local", 50, id="50"),
        pytest.param("quasi", 1, id="quasi-1"), pytest.param("quasi", 50, id="quasi-50")])
    def test_blowup_step_and_dump_match_a_plain_loop(self, case, every):
        # the step written out (RK4 with rhs_1d on a local density leaving
        # the domain; the semi-implicit step on a quasi-incompressible
        # velocity that overflows, whose next pressure solve is non-finite):
        # the run reports the step of the first failure (inside a step, or
        # at the check of a record step), why, and dumps the state it had
        # then, bit for bit
        grid = PeriodicGrid1D(L, 64)
        if case == "local":
            q = fe.Quadratic(-3.0 * np.eye(2), variables=("rho1", "rho"))
            kap = fe.GradientCoefficients(np.diag([2e-3, 2e-3]))
            m = models.CompressibleLocal(q, kap, M11=0.05, inv_Re_s=0.0,
                                         inv_Re_v=0.0)
            st, dt, n_steps, integrator = ST, 1e-3, 50000, "rk4"
            perts = (sim.Perturbation("rho1", 3, 0.4),)

            def step(u):
                return classic_rk4_step(m, u, grid, dt)
        else:
            m, st = smoke_cases()["quasi"]
            dt, n_steps, integrator = 1e-3, 100, "semi_implicit"
            perts = (sim.Perturbation("vx", 3, 1e200),)
            symbols = m.linearization(st).stiff_symbols(grid.wavenumbers**2)
            stiff = np.stack([symbols[name] for name in m.field_names])

            def step(u):
                (fh, rh), _ = m.rhs_pass(u, grid, spectral=True)
                return np.fft.irfft(fh + dt / (1.0 + dt * stiff) * rh, n=grid.n,
                                    axis=-1)
        cfg = sim.SimulationConfig(
            model=m, state=st, length=L, n=64, dt=dt, t_end=n_steps * dt,
            diagnostics_every=every, perturbations=perts, integrator=integrator,
            enforce_dt_guard=False)
        u = sim.initial_state(cfg, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, n_steps + 1):
                try:
                    new = step(u)
                except (DomainError, SolveError) as exc:
                    reason = str(exc)
                    break
                u = new
                if n % every == 0 and not np.all(np.isfinite(u)):
                    reason = "non-finite field value"
                    break
        with pytest.raises(BlowupError) as err:
            sim.run(cfg)
        assert err.value.step == n < n_steps
        assert reason in str(err.value)
        for i, name in enumerate(m.field_names):
            assert np.array_equal(err.value.fields[name], u[i], equal_nan=True)

    @pytest.mark.parametrize("stage", [2, 3, 4])
    def test_failing_stage_dumps_the_state_before_its_step(self, monkeypatch, stage):
        # a stage pass of step 3 raises: the run blames step 3 and dumps
        # the state after two classic steps, bit for bit, so no stage
        # input was formed in the state's own array
        m, st = smoke_cases()["local"]
        grid = PeriodicGrid1D(L, 32)
        dt = SMOKE_DT["local"]
        cfg = sim.SimulationConfig(model=m, state=st, length=L, n=32, dt=dt,
                                   t_end=10 * dt,
                                   perturbations=(sim.Perturbation("rho1", 2, 1e-2),),
                                   enforce_dt_guard=False)
        u = sim.initial_state(cfg, grid)
        for _ in range(2):
            u = classic_rk4_step(m, u, grid, dt)
        rhs_1d, calls = type(m).rhs_1d, []

        def failing(self, v, g):
            # stages 2-4 of each step are rhs_1d calls, stage 1 a rhs_pass
            calls.append(1)
            if len(calls) == 6 + stage - 1:
                raise DomainError("stage pass refused")
            return rhs_1d(self, v, g)

        monkeypatch.setattr(type(m), "rhs_1d", failing)
        with pytest.raises(BlowupError, match="stage pass refused") as err:
            sim.run(cfg)
        assert err.value.step == 3
        for i, name in enumerate(m.field_names):
            assert np.array_equal(err.value.fields[name], u[i])

    def test_fit_needs_enough_samples(self):
        m = stable_local()
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=32, dt=1e-3,
                                   t_end=0.01, diagnostics_every=1,
                                   track=(("rho1", 1),))
        tr = sim.run(cfg)
        with pytest.raises(FitError):
            sim.extract_growth_rate(tr, "rho1", 1)

    def test_untracked_mode_raises(self):
        m = stable_local()
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=32, dt=1e-3,
                                   t_end=0.2, diagnostics_every=2)
        tr = sim.run(cfg)
        with pytest.raises(FitError):
            sim.extract_growth_rate(tr, "rho1", 1)


BUNDLED_CONFIGS = ["band_composition.ini", "band_density.ini",
                   "concavity_co2_decane.ini", "quasi_spinodal.ini",
                   "simulate_quasi.ini", "simulate_relaxation.ini",
                   "stable_dense.ini"]


@pytest.mark.parametrize("config", BUNDLED_CONFIGS)
def test_seed_root_is_the_sweep_track_of_its_name(config):
    """Off the long-wave window the expansions no longer say which root is
    which: the seed under each name is the root that a sweep from that
    window to k tracks under the name."""
    model, state = build_all(load_config(config_path(config)))
    lin = model.linearization(state)
    grid = PeriodicGrid1D(L, 256)
    for mode in (5, 20, 100):
        k = grid.mode_wavenumber(mode)
        result = disp.sweep(lin, np.geomspace(1e-3, k, 400))
        assert result.k_grid[-1] == k
        for j, name in enumerate(result.mode_names):
            _, alpha = sim.eigenvector_perturbations(model, state, grid, mode=mode,
                                                     amplitude=1e-6,
                                                     track_name=name)
            want = result.roots[-1, j]
            assert abs(alpha - want) <= 1e-12 * np.abs(result.roots[-1]).max(), \
                f"{name} at k={k}: seeded {alpha}, tracked {want}"


class TestQuasiSimulation:
    def test_quasi_spinodal_growth(self):
        q = fe.Quadratic([[-1.0]], g=[0.4], variables=("phi",))
        m = models.QuasiIncompressible(q, kappa_phi_phi=1e-2, M11=0.2,
                                       inv_Re_s=0.5, inv_Re_v=0.5,
                                       rho_hat_1=2.0, rho_hat_2=1.0)
        st = models.MixtureState.fraction(0.4)
        grid = PeriodicGrid1D(L, 64)
        mode = 4
        perts, pred = sim.eigenvector_perturbations(m, st, grid, mode=mode,
                                                    amplitude=1e-7,
                                                    track_name="alpha1")
        assert pred.real > 0
        cfg = sim.SimulationConfig(model=m, state=st, length=L, n=64, dt=2e-4,
                                   t_end=2.5, diagnostics_every=25,
                                   perturbations=perts,
                                   track=(("phi", mode),))
        tr = sim.run(cfg)
        fit = sim.extract_growth_rate(tr, "phi", mode)
        assert abs(fit.alpha.real - pred.real) / pred.real < 0.05
        drift = np.max(np.abs(tr.mass - tr.mass[0])) / abs(tr.mass[0])
        assert drift <= 1e-10


def smoke_cases():
    """One model per class, each at a state inside its energy's domain."""
    q_phi = fe.Quadratic([[-1.0]], g=[0.4], variables=("phi",))
    glob = models.CompressibleGlobal(
        fe.Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]])),
        fe.GradientCoefficients(np.diag([1e-2, 3e-2])),
        np.array([[2.0, 0.5], [0.5, 1.0]]), inv_Re_s=0.5, inv_Re_v=0.2)
    return {
        "global": (glob, models.MixtureState.binary(1.0, 2.0)),
        "local": (stable_local(), ST),
        "quasi": (models.QuasiIncompressible(
            q_phi, kappa_phi_phi=1e-2, M11=0.2, inv_Re_s=0.5, inv_Re_v=0.5,
            rho_hat_1=2.0, rho_hat_2=1.0), models.MixtureState.fraction(0.4)),
        "incompressible": (models.QuasiIncompressible(
            q_phi, kappa_phi_phi=1e-2, M11=0.2, inv_Re_s=0.5, inv_Re_v=0.5,
            rho_hat_1=1.5, rho_hat_2=1.5), models.MixtureState.fraction(0.4)),
    }


# dt of the smoke runs, 1/34 to 1/11 of each class's RK4 step limit and at
# most 1/21 of its semi-implicit one (n = 32), fixed so that the runs' work
# does not move with the step guard
SMOKE_DT = {"global": 5.044227789256199e-05, "local": 0.0024414062500000004,
            "quasi": 0.0009114583333333335, "incompressible": 0.0009765625}


class TestEveryClassSmoke:
    """Eigenvector seeding, dt guard, stiff symbols and the domain check
    of every class under both integrators."""

    @pytest.mark.parametrize("integrator", ["rk4", "semi_implicit"])
    @pytest.mark.parametrize("name", ["global", "local", "quasi", "incompressible"])
    def test_short_run_conserves_mass_and_dissipates(self, name, integrator):
        m, st = smoke_cases()[name]
        grid = PeriodicGrid1D(L, 32)
        perts, _ = sim.eigenvector_perturbations(m, st, grid, mode=2,
                                                 amplitude=1e-3,
                                                 track_name="alpha1")
        dt = SMOKE_DT[name]
        cfg = sim.SimulationConfig(model=m, state=st, length=L, n=32, dt=dt,
                                   t_end=20 * dt, diagnostics_every=1,
                                   perturbations=perts, integrator=integrator)
        tr = sim.run(cfg)
        assert isinstance(tr.final_fields, dict)
        assert tuple(tr.final_fields) == m.field_names
        assert tr.times.size == 21
        drift = np.max(np.abs(tr.mass - tr.mass[0])) / abs(tr.mass[0])
        assert drift <= 1e-10
        assert np.all(np.diff(tr.energy) <= 1e-12 * max(1.0, abs(tr.energy[0])))
        assert tr.energy[-1] < tr.energy[0]


    @pytest.mark.parametrize("name", ["global", "local", "quasi", "incompressible"])
    def test_transverse_symbol_is_the_viscous_rate(self, name):
        # the transverse momentum or velocity, the last field, decays at the
        # pencil's viscous root
        m, st = smoke_cases()[name]
        lin = m.linearization(st)
        k = PeriodicGrid1D(L, 32).wavenumbers
        symbol = lin.stiff_symbols(k**2)[m.field_names[-1]]
        assert symbol == pytest.approx(-disp.viscous_root(lin, k), rel=1e-15, abs=0)

    @pytest.mark.parametrize("name", ["quasi", "unstable_local", "concave_global"])
    def test_concave_bulk_term_leaves_only_the_gradient_symbol(self, name):
        # h'' < 0 (phase field) or C_ii < 0 (density i): the diffusive symbol
        # keeps no bulk k^2 term, only M_ii kappa_ii k^4
        k2 = PeriodicGrid1D(L, 32).wavenumbers ** 2
        k4 = k2 * k2
        if name == "quasi":
            m, st = smoke_cases()["quasi"]
            lin = m.linearization(st)
            assert lin.h_phi_phi == -1.0
            want = {"phi": lin.Mh * (lin.kappa_phi_phi * k4)}
        elif name == "unstable_local":
            m = unstable_local()      # C = diag(-0.5, 2) in (rho1, rho)
            lin = m.linearization(ST)
            want = {"rho1": m.M11 * (m.kappa.kappa[0, 0] * k4)}
        else:
            M = np.array([[0.2, 0.05], [0.05, 0.3]])
            m = models.CompressibleGlobal(
                fe.Quadratic(np.array([[-0.5, 0.1], [0.1, -0.3]])),
                fe.GradientCoefficients(np.diag([1e-2, 3e-2])), M,
                inv_Re_s=0.5, inv_Re_v=0.2)
            lin = m.linearization(models.MixtureState.binary(1.0, 2.0))
            want = {"rho1": 0.2 * (1e-2 * k4), "rho2": 0.3 * (3e-2 * k4)}
        symbols = lin.stiff_symbols(k2)
        for field, symbol in want.items():
            np.testing.assert_array_equal(symbols[field], symbol)


class TestStepGuard:
    """The one dt rule of both integrators (``StepRule``): sharp on the grid
    mode it names, and the estimate is where ``run`` starts refusing."""

    @pytest.mark.parametrize("config, length, integrator", [
        ("band_density.ini", L, "rk4"),
        ("simulate_quasi.ini", 20 * np.pi, "semi_implicit")])
    def test_binding_mode_outgrows_its_root_just_above_the_limit(
            self, config, length, integrator):
        # guard off: the seeded binding mode, the capillary wave at k = 127
        # and the coupled root at the lowest mode, grows faster than the
        # fastest root there at 1.1 times the limit, and not at 0.9 times it
        m, st = build_all(load_config(config_path(config)))
        grid = PeriodicGrid1D(length, 256)
        rule = sim.StepRule(m.linearization(st), grid, integrator)
        limit, mode, _ = rule.limit()
        growth = max(rule.roots[mode - 1].real.max(), 0.0)
        ratios = []
        for factor in (0.9, 1.1):
            dt = factor * limit
            cfg = sim.SimulationConfig(
                model=m, state=st, length=length, n=256, dt=dt, t_end=20 * dt,
                diagnostics_every=20, integrator=integrator,
                perturbations=(sim.Perturbation("vx", mode, 1e-8),),
                track=(("vx", mode),), enforce_dt_guard=False)
            amp = np.abs(sim.run(cfg).amplitudes[("vx", mode)])
            ratios.append(amp[-1] / amp[0] / np.exp(20 * dt * growth))
        assert ratios[0] <= 1.0 < 10.0 < ratios[1]

    def test_nyquist_mode_has_no_first_derivative(self):
        # the right-hand side drops the pencil's i k couplings at the Nyquist
        # mode, where the local class's vx decays at the bare viscous rate
        # -1/Re k^2 / rho0, faster than any root of the whole pencil there:
        # that rate sets the limit, and RK4 at 0.9 times it is stable
        m, st = smoke_cases()["local"]
        grid = PeriodicGrid1D(L, 32)
        lin = m.linearization(st)
        limit, mode, alpha = sim.StepRule(lin, grid, "rk4").limit()
        assert mode == 16
        assert alpha == pytest.approx(-lin.inv_Re * 16**2 / lin.rho0, rel=1e-14)
        assert np.abs(np.linalg.eigvals(lin.standard_form(
            lin.pencil_matrices([16.0])))).max() < 0.75 * abs(alpha)
        dt = 0.9 * limit
        cfg = sim.SimulationConfig(
            model=m, state=st, length=L, n=32, dt=dt, t_end=40 * dt,
            diagnostics_every=40, perturbations=(sim.Perturbation("vx", 16, 1e-8),),
            track=(("vx", 16),), enforce_dt_guard=False)
        amp = np.abs(sim.run(cfg).amplitudes[("vx", 16)])
        assert amp[-1] < amp[0]

    @pytest.mark.parametrize("integrator", ["rk4", "semi_implicit"])
    def test_excess_is_the_closed_form_on_the_incompressible_class(self, integrator):
        # J is diagonal there with the closed-form roots, so each mode's
        # amplification is max |R(dt alpha)| or max |1 + dt alpha / (1 + dt L)|
        m, st = smoke_cases()["incompressible"]
        grid = PeriodicGrid1D(L, 32)
        lin = m.linearization(st)
        k = grid.wavenumbers[1:]
        alphas = np.stack(disp.incompressible_roots(lin, k), axis=1)
        symbols = lin.stiff_symbols(k**2)
        stiff = np.stack([symbols["vy"], symbols["phi"]], axis=1)
        rule = sim.StepRule(lin, grid, integrator)
        for dt in (1e-3, 1e-2, 0.05):
            z = dt * alphas
            amp = (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24 if integrator == "rk4"
                   else 1 + z / (1 + dt * stiff))
            want = (np.log(np.abs(amp).max(axis=1))
                    - dt * np.maximum(alphas.max(axis=1), 0.0))
            assert rule.excess(dt) == pytest.approx(want, rel=1e-9, abs=1e-13)

    def test_semi_implicit_admits_only_rounding_growth_of_undamped_waves(self):
        # no viscosity and no mobility: the semi-implicit step is forward
        # Euler on the sound waves, |1 + i omega dt| > 1 at every dt, so the
        # guard admits only dt whose excess growth per step is at rounding
        # level, while RK4 steps them stably up to 2 sqrt(2) / omega
        q = fe.Quadratic(np.array([[1.0, 0.0], [0.0, 2.0]]), variables=("rho1", "rho"))
        m = models.CompressibleLocal(q, fe.GradientCoefficients(np.zeros((2, 2))),
                                     M11=0.0, inv_Re_s=0.0, inv_Re_v=0.0)
        grid = PeriodicGrid1D(L, 32)
        omega = np.abs(sim.StepRule(m.linearization(ST), grid, "rk4").roots).max()
        semi = sim.stable_dt_estimate(m, ST, grid, "semi_implicit") / sim.DT_SAFETY
        rk4 = sim.stable_dt_estimate(m, ST, grid) / sim.DT_SAFETY
        assert np.log1p((omega * semi) ** 2) / 2 <= 2e-8
        assert rk4 * omega == pytest.approx(2 * np.sqrt(2), rel=2e-3)

    @pytest.mark.parametrize("config", ["simulate_relaxation.ini", "simulate_quasi.ini"])
    def test_run_refuses_exactly_above_the_estimate(self, config):
        # run admits 0.99 and refuses 1.01 times the estimate, which is
        # DT_SAFETY = 1/2 of the limit, with the bundled config's grid
        cfg = load_config(config_path(config))
        m, st = build_all(cfg)
        sec = cfg.sections["simulate"]
        grid = PeriodicGrid1D(sec["length"], sec["n"])
        est = sim.stable_dt_estimate(m, st, grid, sec["integrator"])
        limit, _, _ = sim.StepRule(m.linearization(st), grid, sec["integrator"]).limit()
        assert est == 0.5 * limit and sec["dt"] < est

        def one_step(dt):
            return sim.run(sim.SimulationConfig(
                model=m, state=st, length=sec["length"], n=sec["n"], dt=dt,
                t_end=dt, integrator=sec["integrator"]))

        assert one_step(0.99 * est).times.size == 2
        with pytest.raises(RangeError, match=r"stability guard .* grid mode \d+ "):
            one_step(1.01 * est)

    @pytest.mark.parametrize("n", [64, 256])
    def test_semi_implicit_limit_is_inf_where_no_dt_is_refused(self, n):
        # on the Flory-Huggins phase field the semi-implicit step admits
        # every dt that doubling reaches below its 2^60 / max|alpha| cap
        m, st = build_all(parse_config(FH_PHASE_FIELD))
        rule = sim.StepRule(m.linearization(st), PeriodicGrid1D(L, n), "semi_implicit")
        assert rule.limit() == (np.inf, None, None)
        assert rule.admits(1e6 / np.abs(rule.roots).max())

    def test_unknown_integrator_raises(self):
        m, st = smoke_cases()["local"]
        with pytest.raises(RangeError, match="unknown integrator"):
            sim.stable_dt_estimate(m, st, PeriodicGrid1D(L, 32), "euler")

    def test_record_times_are_record_steps_times_dt(self):
        m, st = smoke_cases()["local"]
        dt = 1e-3
        tr = sim.run(sim.SimulationConfig(model=m, state=st, length=L, n=32,
                                          dt=dt, t_end=10 * dt, diagnostics_every=3))
        assert np.array_equal(tr.times, np.array([0, 3, 6, 9, 10]) * dt)


class TestRecordFromSpectra:
    """The records a run takes from the spectra of its own passes, against
    the physical-space route at the same states (every step is recorded
    and snapshotted)."""

    @pytest.mark.parametrize("integrator", ["rk4", "semi_implicit"])
    @pytest.mark.parametrize("name", ["global", "local", "quasi", "incompressible"])
    def test_trace_matches_physical_route(self, name, integrator):
        m, st = smoke_cases()[name]
        grid = PeriodicGrid1D(L, 32)
        # the physical route differentiates mu, whose mean is O(1): its
        # rounding, relative to the gradients, grows as 1/amplitude (1e-13
        # at 1e-3, 1e-14 at 1e-2 on the global class)
        perts, _ = sim.eigenvector_perturbations(m, st, grid, mode=2,
                                                 amplitude=1e-2,
                                                 track_name="alpha1")
        observables = m.field_names + (("vx", "vy") if "mx" in m.field_names else ())
        track = tuple((f, 2) for f in observables) + ((m.field_names[0], 0),)
        dt = SMOKE_DT[name]
        cfg = sim.SimulationConfig(model=m, state=st, length=L, n=32, dt=dt,
                                   t_end=10 * dt, diagnostics_every=1,
                                   snapshot_every=1, perturbations=perts,
                                   track=track, integrator=integrator)
        tr = sim.run(cfg)
        assert tr.times.size == len(tr.snapshots) == 11
        for i, (_, fields) in enumerate(tr.snapshots):
            u = m.state_array(fields)
            energy, dissipation = physical_record(m, u, grid)
            assert tr.energy[i] == pytest.approx(energy, rel=1e-13, abs=0)
            assert tr.dissipation[i] == pytest.approx(dissipation, rel=1e-13, abs=0)
            assert tr.mass[i] == m.total_mass(u, grid)
            # the run's record and that of a pass of its own agree bit for bit
            assert (tr.energy[i], tr.dissipation[i]) == m.record(u, grid)[1:3]
            rho = m.total_density(u) if "mx" in m.field_names else None
            for f, mode in track:
                row = (u[m.field_names.index(f)] if f in m.field_names
                       else u[m.field_names.index("m" + f[1])] / rho)
                assert tr.amplitudes[(f, mode)][i] == grid.mode_amplitude(row, mode)

    def test_unknown_observable_raises(self):
        m, st = smoke_cases()["local"]
        cfg = sim.SimulationConfig(model=m, state=st, length=L, n=32, dt=1e-3,
                                   t_end=0.01, track=(("phi", 1),))
        with pytest.raises(RangeError, match="unknown observable"):
            sim.run(cfg)


# Upper bounds on numpy.fft.rfft + irfft calls: one batched transform pair
# per right-hand side of each class.  The bulk gradient joins the state's
# forward transform and mu is formed in Fourier space, so no class needs a
# second level.
FFT_PER_RHS = {"global": 2, "local": 2, "quasi": 2, "incompressible": 2}
# A quasi-incompressible semi-implicit step: the right-hand side's two,
# one rfft of the two velocity rows and the closing irfft.
QUASI_SEMI_IMPLICIT_STEP = 4
# One diagnostics record inside a run: it takes mass, energy, dissipation
# and the tracked modes from the spectra of the next step's first pass.
QUASI_RECORD = 0
COMPRESSIBLE_RECORD = 0


@pytest.fixture()
def fft_calls(monkeypatch):
    """Counter of numpy.fft.rfft/irfft calls made while the test runs."""
    count = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    return count


class TestFftBudget:
    """Each right-hand side is one forward and one inverse transform;
    these bounds fail if it goes back to a second level (mu formed in
    physical space and transformed again) or to one pair per derivative."""

    @pytest.mark.parametrize("name", sorted(FFT_PER_RHS) + ["three_components"])
    def test_per_rhs(self, name, fft_calls):
        grid = PeriodicGrid1D(L, 32)
        if name == "three_components":
            # N = 3 has no uniform fields: an explicit (5, n) state
            C = np.eye(3) + 0.2 * np.ones((3, 3))
            m = models.CompressibleGlobal(
                fe.Quadratic(C), fe.GradientCoefficients(1e-2 * np.eye(3)),
                np.eye(3), inv_Re_s=0.5, inv_Re_v=0.2)
            rho = np.array([1.0, 2.0, 1.5])[:, None] + 0.1 * np.cos(grid.x)
            u = np.concatenate([rho, [0.1 * np.sin(grid.x), np.zeros(grid.n)]])
            assert u.shape == (5, grid.n)
            bound = FFT_PER_RHS["global"]
        else:
            m, st = smoke_cases()[name]
            u = m.state_array(m.uniform_fields(st, grid))
            bound = FFT_PER_RHS[name]
        before = fft_calls[0]
        m.rhs_1d(u, grid)
        assert fft_calls[0] - before <= bound

    @pytest.mark.parametrize("integrator", ["rk4", "semi_implicit"])
    @pytest.mark.parametrize("name", sorted(FFT_PER_RHS))
    def test_per_step(self, name, integrator, fft_calls):
        m, st = smoke_cases()[name]
        grid = PeriodicGrid1D(L, 32)
        perts, _ = sim.eigenvector_perturbations(m, st, grid, mode=2,
                                                 amplitude=1e-3,
                                                 track_name="alpha1")
        dt = SMOKE_DT[name]

        def calls(steps):
            # diagnostics only at the first and the last step of each run
            cfg = sim.SimulationConfig(model=m, state=st, length=L, n=32, dt=dt,
                                       t_end=steps * dt, diagnostics_every=1000,
                                       perturbations=perts, integrator=integrator)
            before = fft_calls[0]
            sim.run(cfg)
            return fft_calls[0] - before

        per_step = (calls(10) - calls(5)) / 5
        stages = 4 if integrator == "rk4" else 1
        extra = 0 if integrator == "rk4" else 2   # one batched rfft and irfft
        assert per_step <= stages * FFT_PER_RHS[name] + extra
        if name == "quasi" and integrator == "semi_implicit":
            assert per_step <= QUASI_SEMI_IMPLICIT_STEP

    @staticmethod
    def record_calls(name, integrator, track, fft_calls):
        """FFT calls per diagnostics record of a ten-step run."""
        m, st = smoke_cases()[name]
        grid = PeriodicGrid1D(L, 32)
        perts, _ = sim.eigenvector_perturbations(m, st, grid, mode=2,
                                                 amplitude=1e-3,
                                                 track_name="alpha1")
        dt = SMOKE_DT[name]

        def calls(every):
            cfg = sim.SimulationConfig(model=m, state=st, length=L, n=32, dt=dt,
                                       t_end=10 * dt, diagnostics_every=every,
                                       perturbations=perts, track=((track, 2),),
                                       integrator=integrator)
            before = fft_calls[0]
            tr = sim.run(cfg)
            return fft_calls[0] - before, tr.times.size

        dense, n_dense = calls(1)
        sparse, n_sparse = calls(1000)
        assert (n_dense, n_sparse) == (11, 2)
        return (dense - sparse) / (n_dense - n_sparse)

    def test_per_quasi_record(self, fft_calls):
        assert self.record_calls("quasi", "semi_implicit", "phi",
                                 fft_calls) <= QUASI_RECORD

    @pytest.mark.parametrize("name", ["global", "local"])
    def test_per_compressible_record(self, name, fft_calls):
        assert self.record_calls(name, "rk4", "rho1", fft_calls) <= COMPRESSIBLE_RECORD

    @pytest.mark.parametrize("integrator", ["rk4", "semi_implicit"])
    @pytest.mark.parametrize("name", sorted(FFT_PER_RHS))
    def test_per_record_either_integrator(self, name, integrator, fft_calls):
        quasi = name in ("quasi", "incompressible")
        track, bound = ("phi", QUASI_RECORD) if quasi else ("rho1", COMPRESSIBLE_RECORD)
        assert self.record_calls(name, integrator, track, fft_calls) <= bound
