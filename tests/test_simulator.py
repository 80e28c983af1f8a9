
import numpy as np
import pytest

from pfmix import dispersion as disp
from pfmix import free_energy as fe
from pfmix import models
from pfmix import simulator as sim
from pfmix.config import build_all, load_config
from pfmix.errors import BlowupError, DomainError, FitError, RangeError
from pfmix.grid import PeriodicGrid1D

from conftest import config_path, physical_record

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
        # stiff interface coefficients: explicit guard is tiny, the
        # semi-implicit step runs far beyond it without blowing up
        q = fe.Quadratic(np.array([[1.0, 0.0], [0.0, 2.0]]),
                         variables=("rho1", "rho"))
        kap = fe.GradientCoefficients(np.diag([0.05, 0.05]))
        m = models.CompressibleLocal(q, kap, M11=0.5, inv_Re_s=0.5,
                                     inv_Re_v=0.2)
        grid = PeriodicGrid1D(L, 64)
        guard = sim.stable_dt_estimate(m, ST, grid)
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=64,
                                   dt=min(20 * guard, 2e-4), t_end=0.05,
                                   diagnostics_every=50,
                                   perturbations=(sim.Perturbation("rho1", 2,
                                                                   1e-4),),
                                   integrator="semi_implicit",
                                   enforce_dt_guard=False)
        tr = sim.run(cfg)
        assert np.all(np.isfinite(tr.energy))

    def test_semi_implicit_default_spectra_bit_for_bit(self):
        # the default spectral right-hand side is the batched rfft of the
        # state and its right-hand side: the step formula below, bit for bit
        m = stable_local()
        grid = PeriodicGrid1D(L, 64)
        perts, _ = sim.eigenvector_perturbations(m, ST, grid, mode=2,
                                                 amplitude=1e-3,
                                                 track_name="alpha1")
        dt = 2e-3
        cfg = sim.SimulationConfig(model=m, state=ST, length=L, n=64, dt=dt,
                                   t_end=20 * dt, diagnostics_every=5,
                                   perturbations=perts,
                                   integrator="semi_implicit",
                                   enforce_dt_guard=False)
        symbols = m.linearization(ST).stiff_symbols(grid.wavenumbers**2)
        stiff = np.stack([symbols[name] for name in m.field_names])
        u = sim.initial_state(cfg, grid)
        for _ in range(20):
            h = np.fft.rfft(np.concatenate([u, m.rhs_1d(u, grid)]), axis=-1)
            fh, nh = h[:len(u)], h[len(u):] + stiff * h[:len(u)]
            u = np.fft.irfft((fh + dt * nh) / (1.0 + dt * stiff), n=grid.n,
                             axis=-1)
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

    @pytest.mark.parametrize("every", [1, 50])
    def test_blowup_step_and_dump_match_a_plain_loop(self, every):
        # RK4 written out with rhs_1d: the run reports the step of the
        # first domain exit (inside a step, or at the check of a record
        # step) and dumps the state it had then, bit for bit
        q = fe.Quadratic(-3.0 * np.eye(2), variables=("rho1", "rho"))
        kap = fe.GradientCoefficients(np.diag([2e-3, 2e-3]))
        m = models.CompressibleLocal(q, kap, M11=0.05, inv_Re_s=0.0,
                                     inv_Re_v=0.0)
        dt = 1e-3
        cfg = sim.SimulationConfig(
            model=m, state=ST, length=L, n=64, dt=dt, t_end=50.0,
            diagnostics_every=every,
            perturbations=(sim.Perturbation("rho1", 3, 0.4),),
            enforce_dt_guard=False)
        grid = PeriodicGrid1D(L, 64)
        u = sim.initial_state(cfg, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, 50001):
                try:
                    k1 = m.rhs_1d(u, grid)
                    k2 = m.rhs_1d(u + 0.5 * dt * k1, grid)
                    k3 = m.rhs_1d(u + 0.5 * dt * k2, grid)
                    k4 = m.rhs_1d(u + dt * k3, grid)
                except DomainError:
                    break
                u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if step % every == 0 and not np.all(np.isfinite(u)):
                    break
        with pytest.raises(BlowupError) as err:
            sim.run(cfg)
        assert err.value.step == step < 50000
        for i, name in enumerate(m.field_names):
            assert np.array_equal(err.value.fields[name], u[i], equal_nan=True)

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
                   "simulate_relaxation.ini", "stable_dense.ini"]


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
        dt = 0.5 * sim.stable_dt_estimate(m, st, grid)
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
        dt = 0.5 * sim.stable_dt_estimate(m, st, grid)
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
        dt = 0.5 * sim.stable_dt_estimate(m, st, grid)

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
        dt = 0.5 * sim.stable_dt_estimate(m, st, grid)

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
