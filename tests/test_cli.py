import hashlib
import os

import numpy as np
import pytest

from pfmix import cli, dispersion
from pfmix.config import build_all, load_config, parse_config
from pfmix.errors import ConfigError
from pfmix.grid import PeriodicGrid1D
from pfmix.linearization import EQUAL_DENSITY_RTOL

from conftest import FH_PHASE_FIELD, config_path


MINI_SWEEP = """
[free_energy]
kind = quadratic
c11 = -0.5
c12 = 0.0
c22 = 2.0
kappa_rho1_rho1 = 0.002
kappa_rho_rho1 = 0.0
kappa_rho_rho = 0.002

[model]
class = compressible_local
M11 = 0.05
Re_s = 2.0
Re_v = 5.0

[state]
rho0 = 3.0
rho1_0 = 1.0

[sweep]
k_min = 0.01
k_max = 100.0
points = 41
spacing = log
"""

EQUAL_RHO_HATS = """
[free_energy]
kind = quadratic
h_phi_phi = -1.0
kappa_phi_phi = 0.01

[model]
class = quasi_incompressible
M11 = 0.1
Re_s = 1.0
Re_v = 1.0
rho_hat_1 = 1.0
rho_hat_2 = 1.0

[state]
phi0 = 0.4

[sweep]
k_min = 0.01
k_max = 10.0
points = 11
"""


SWEEP_CONFIGS = ["band_composition.ini", "band_density.ini", "quasi_spinodal.ini",
                 "stable_dense.ini"]
BUNDLED_CONFIGS = SWEEP_CONFIGS + ["concavity_co2_decane.ini", "simulate_relaxation.ini",
                                   "simulate_quasi.ini"]


def per_row_csv(header, rows):
    """The CSV writer before the column writer: row by row, numbers value
    by value through ``F``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cli.F(v) if isinstance(v, (int, float, np.number))
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_unknown_key_is_hard_error(self, tmp_path):
        bad = MINI_SWEEP.replace("M11 = 0.05", "M11 = 0.05\nbogus_key = 1")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ConfigError):
            parse_config(MINI_SWEEP + "\n[plotting]\ncolor = red\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            parse_config(MINI_SWEEP.replace("Re_s = 2.0\n", ""))

    def test_echo_round_trip(self):
        cfg = parse_config(MINI_SWEEP)
        echoed = parse_config(cfg.normalized())
        assert echoed.sections == cfg.sections
        assert echoed.normalized() == cfg.normalized()

    def test_shipped_configs_parse(self):
        for name in ("band_composition.ini", "band_density.ini",
                     "stable_dense.ini", "concavity_co2_decane.ini",
                     "quasi_spinodal.ini", "simulate_relaxation.ini",
                     "simulate_quasi.ini"):
            cfg = load_config(config_path(name))
            assert cfg.has_section("free_energy")


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path):
        path = write(tmp_path, "bad.ini", MINI_SWEEP + "\n[oops]\nx = 1\n")
        assert cli.main(["sweep", "--config", path,
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_negative_kappa_fails_verify_exit_1(self, tmp_path, capsys):
        # a verify that fails still writes its report and the echo
        bad = MINI_SWEEP.replace("kappa_rho1_rho1 = 0.002",
                                 "kappa_rho1_rho1 = -0.002")
        path = write(tmp_path, "badkappa.ini", bad)
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", path,
                         "--out", str(out)]) == cli.EXIT_VERIFY_FAIL
        assert sorted(f.name for f in out.iterdir()) == ["config_echo.ini", "verify.txt"]
        report = (out / "verify.txt").read_text()
        assert "FAIL kappa_psd" in report and report == capsys.readouterr().out
        assert (out / "config_echo.ini").read_text() == parse_config(bad).normalized()

    @pytest.mark.parametrize("case, failed", [
        # equal specific densities break the model build, not kappa
        ("equal_rho_hats", ["model_build"]),
        ("negative_kappa", ["kappa_psd", "model_build"]),
    ], ids=["equal_rho_hats", "negative_kappa"])
    def test_verify_blames_kappa_only_for_kappa(self, tmp_path, capsys, case, failed):
        text = EQUAL_RHO_HATS if case == "equal_rho_hats" else MINI_SWEEP.replace(
            "kappa_rho_rho = 0.002", "kappa_rho_rho = -0.002")
        path = write(tmp_path, "verify.ini", text)
        assert cli.main(["verify", "--config", path, "--out",
                         str(tmp_path / "o")]) == cli.EXIT_VERIFY_FAIL
        out = capsys.readouterr().out
        verdicts = [ln.split(":")[0].split() for ln in out.splitlines()]
        assert [name for v, name in verdicts if v == "FAIL"] == failed
        assert ["PASS", "kappa_psd"] in verdicts or "kappa_psd" in failed

    @pytest.mark.parametrize("command, text, old, new, want", [
        ("sweep", MINI_SWEEP, "kind = quadratic", "kind = cubic",
         "unknown free energy kind 'cubic'"),
        ("sweep", MINI_SWEEP, "class = compressible_local", "class = regional",
         "unknown model class 'regional'"),
        ("sweep", MINI_SWEEP, "Re_s = 2.0", "Re_s = 0.0",
         "Re_s and Re_v must be positive"),
        ("sweep", FH_PHASE_FIELD, "class = quasi_incompressible",
         "class = incompressible", "incompressible class needs rho_hat_1 == rho_hat_2"),
        ("concavity-map", "concavity_co2_decane.ini", "species1 = n-decane\n", "",
         "species1 needs either a data-file name or inline species1_tc"),
        ("concavity-map", "concavity_co2_decane.ini", "species2 = CO2",
         "species2 = argon", "unknown species 'argon' in data file"),
        ("sweep", MINI_SWEEP, "rho1_0 = 1.0\n", "", "[state] requires 'rho1_0'"),
        ("sweep", MINI_SWEEP.replace(
            "kappa_rho_rho1 = 0.0\nkappa_rho_rho = 0.002",
            "kappa_rho1_rho2 = 0.0\nkappa_rho2_rho2 = 0.002").replace(
            "M11 = 0.05", "M11 = 0.05\nM12 = 0.0\nM22 = 0.05").replace(
            "class = compressible_local", "class = compressible_global"),
         "rho0 = 3.0\nrho1_0 = 1.0", "rho1_0 = 1.0", "[state] requires 'rho2_0'"),
        ("sweep", FH_PHASE_FIELD, "phi0 = 0.45\n", "", "[state] requires 'phi0'"),
        ("sweep", MINI_SWEEP, "spacing = log", "spacing = cubic",
         "unknown spacing 'cubic'"),
        ("sweep", "concavity_co2_decane.ini", "", "", "sweep needs a [sweep] section"),
        ("concavity-map", MINI_SWEEP, "", "", "concavity-map needs a [map] section"),
        ("simulate", MINI_SWEEP, "", "", "simulate needs a [simulate] section"),
    ], ids=["kind", "model_class", "re_s", "incompressible_unequal", "species_unnamed",
            "species_unknown", "state_local", "state_global", "state_phase_field",
            "spacing", "no_sweep", "no_map", "no_simulate"])
    def test_config_errors_exit_2_and_write_nothing(self, tmp_path, capsys, command,
                                                    text, old, new, want):
        if text.endswith(".ini"):
            text = config_path(text).read_text(encoding="utf-8")
        assert old in text
        path = write(tmp_path, "bad.ini", text.replace(old, new))
        out = tmp_path / "o"
        assert cli.main([command, "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert want in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_equal_rho_hats_guided_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "equal.ini", EQUAL_RHO_HATS)
        code = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "incompressible" in capsys.readouterr().err

    def test_near_equal_rho_hats_guided_exit_2(self, tmp_path, capsys):
        # inside EQUAL_DENSITY_RTOL the quasi class is refused, by every
        # command, with a pointer to the incompressible class, which accepts
        # the same pair
        text = open(config_path("quasi_spinodal.ini")).read() + """
[simulate]
length = 6.283185307179586
n = 32
dt = 0.0005
t_end = 0.01
diagnostics_every = 1
seed_eigenvector = true
perturb_mode = 2
perturb_amplitude = 1e-6
"""
        for gap in 10.0 ** -np.arange(6.0, 13.0):
            quasi = text.replace("rho_hat_1 = 2.0", f"rho_hat_1 = {float(1.0 - gap)!r}")
            path = write(tmp_path, "near.ini", quasi)
            out = str(tmp_path / "o")
            code = cli.main(["sweep", "--config", path, "--out", out])
            err = capsys.readouterr().err
            if gap > EQUAL_DENSITY_RTOL:
                assert code != cli.EXIT_CONFIG, err
                continue
            assert code == cli.EXIT_CONFIG
            assert "set class = incompressible" in err
            assert cli.main(["simulate", "--config", path, "--out", out]) \
                == cli.EXIT_CONFIG
            assert "set class = incompressible" in capsys.readouterr().err
            path = write(tmp_path, "near.ini", quasi.replace(
                "class = quasi_incompressible", "class = incompressible"))
            for command in ("sweep", "simulate"):
                assert cli.main([command, "--config", path, "--out", out]) \
                    == cli.EXIT_OK

    @pytest.mark.parametrize("line, bad, key", [
        ("track = rho1:6", "track = rho1", "track"),
        ("track = rho1:6", "track = rho1:six", "track"),
        ("eigen_track = alpha1", "eigen_track = alpha9", "eigen_track"),
    ], ids=["track_without_mode", "track_mode_not_int", "unknown_eigen_track"])
    def test_bad_simulate_keys_exit_2(self, tmp_path, capsys, line, bad, key):
        text = open(config_path("simulate_relaxation.ini")).read()
        assert line in text
        path = write(tmp_path, "bad.ini", text.replace(line, bad))
        code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert f"[simulate] {key}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("line, bad, want", [
        ("n = 64", "n = 2", "need at least 4 cells"),
        ("length = 6.283185307179586", "length = -1", "grid length must be positive"),
        ("track = rho1:6", "track = rho1:40", "mode 40 lies outside the grid's 0..32"),
        ("track = rho1:6", "track = rho1:-3", "mode -3 lies outside the grid's 0..32"),
        ("perturb_mode = 6", "perturb_mode = 5000",
         "mode 5000 lies outside the grid's 0..32"),
    ], ids=["two_cells", "negative_length", "track_above_nyquist", "negative_track",
            "perturb_above_nyquist"])
    def test_bad_grid_or_mode_exit_2(self, tmp_path, capsys, monkeypatch, line, bad,
                                     want):
        # refused before any step, with the exit code of a configuration
        # error (exit 1 would claim a failed verify); n = 64 holds modes 0..32.
        # The config seeds an eigenvector, and a bad mode is refused before
        # the seed's sweep runs
        text = open(config_path("simulate_relaxation.ini")).read()
        assert line in text and "n = 64" in text and "seed_eigenvector = true" in text
        monkeypatch.setattr(cli.simulator, "run",
                            lambda cfg: pytest.fail("the run started"))
        sweeps = []
        sweep = cli.dispersion.sweep

        def counting(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cli.dispersion, "sweep", counting)
        path = write(tmp_path, "bad.ini", text.replace(line, bad))
        code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert want in err and "Traceback" not in err
        assert sweeps == []

    @pytest.mark.parametrize("case", ["compressible_local", "quasi_velocity"])
    def test_blowup_exit_4(self, tmp_path, case):
        # a density leaving the domain, and a velocity that overflows
        # between record steps, so that the next step's pressure solve
        # produces non-finite values: both are blow-ups of a step
        if case == "compressible_local":
            text = MINI_SWEEP.replace("c11 = -0.5", "c11 = -3.0") \
                             .replace("c22 = 2.0", "c22 = -3.0")
            text = text.replace("[sweep]", "[simulate]").replace(
                "k_min = 0.01\nk_max = 100.0\npoints = 41\nspacing = log", """length = 6.283185307179586
n = 64
dt = 0.001
t_end = 50.0
diagnostics_every = 50
perturb_field = rho1
perturb_mode = 3
perturb_amplitude = 0.4
enforce_dt_guard = false""")
        else:
            text = open(config_path("quasi_spinodal.ini")).read() + """
[simulate]
length = 6.283185307179586
n = 32
dt = 0.001
t_end = 0.1
integrator = semi_implicit
diagnostics_every = 50
perturb_field = vx
perturb_mode = 3
perturb_amplitude = 1e200
enforce_dt_guard = false
"""
        path = write(tmp_path, "blowup.ini", text)
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "o")]) == cli.EXIT_BLOWUP

    @pytest.mark.parametrize("model, kappa, state", [
        ("class = compressible_global\nM11 = 0.05\nM12 = -0.02\nM22 = 0.05",
         "kappa_rho1_rho1 = 0.002\nkappa_rho1_rho2 = 0.0\nkappa_rho2_rho2 = 0.002",
         "rho1_0 = 0.5\nrho2_0 = 0.5"),
        ("class = compressible_local\nM11 = 0.05",
         "kappa_rho1_rho1 = 0.002\nkappa_rho_rho1 = 0.0\nkappa_rho_rho = 0.002",
         "rho0 = 1.0\nrho1_0 = 0.5"),
    ], ids=["global", "local_tilde"])
    def test_flory_huggins_sweep_explains_missing_sound_speed(
            self, tmp_path, capsys, model, kappa, state):
        # Flory-Huggins is homogeneous of degree one in the densities, so
        # p.C.p = 0 at every state and the long-wave expansion cannot exist
        text = f"""
[free_energy]
kind = flory_huggins
kBT_over_m = 1.0
N1 = 1.0
N2 = 1.0
chi = 3.0
{kappa}

[model]
{model}
Re_s = 2.0
Re_v = 5.0

[state]
{state}

[sweep]
k_min = 0.01
k_max = 10.0
points = 11
"""
        path = write(tmp_path, "fh.ini", text)
        code = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "p.C.p vanishes" in err
        assert "homogeneous of degree one" in err
        assert "compressibility term" in err and "quasi_incompressible" in err

    def test_wrong_gradient_fails_the_fd_check(self, tmp_path, capsys, monkeypatch):
        from pfmix.free_energy import PengRobinson
        gradient = PengRobinson._gradient
        monkeypatch.setattr(PengRobinson, "_gradient",
                            lambda self, rho: gradient(self, rho) * (1 + 1e-4))
        assert cli.main(["verify", "--config", str(config_path("band_density.ini")),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_VERIFY_FAIL
        failed = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith("FAIL gradient_fd")

    def test_pencil_check_names_the_first_failing_k(self, tmp_path, capsys,
                                                    monkeypatch):
        coefficients = dispersion._scalar_coefficients

        def off_from_k_10(lin, k):
            c = coefficients(lin, k)
            return c * np.where(np.arange(c.size) == 1, 1 + 1e-6 * (k >= 10.0), 1.0)

        monkeypatch.setattr(dispersion, "_scalar_coefficients", off_from_k_10)
        assert cli.main(["verify", "--config", str(config_path("band_density.ini")),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_VERIFY_FAIL
        failed = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL pencil_vs_polynomial: coefficient mismatch ")
        assert failed[0].endswith(" at k=10.0")

    def test_fd_check_fails_outside_the_domain(self, tmp_path, capsys):
        # every sample lies past the covolume packing limit: the check has
        # nothing to compare and fails with the energy's reason
        text = config_path("band_density.ini").read_text(encoding="utf-8")
        path = write(tmp_path, "packed.ini", text.replace("rho0 = 1000.0", "rho0 = 1e9"))
        assert cli.main(["verify", "--config", path,
                         "--out", str(tmp_path / "o")]) == cli.EXIT_VERIFY_FAIL
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if "gradient_fd" in ln]
        assert line.startswith("FAIL gradient_fd")
        assert "covolume packing" in line

    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_fd_check_passes_on_bundled_configs(self, tmp_path, capsys, name):
        cli.main(["verify", "--config", str(config_path(name)),
                  "--out", str(tmp_path / "o")])
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if "gradient_fd" in ln]
        assert line.startswith("PASS gradient_fd: max gradient FD deviation ")
        assert float(line.rsplit(" ", 1)[1]) < 1e-5

    def test_verify_default_config_passes(self, tmp_path):
        assert cli.main(["verify", "--config",
                         str(config_path("quasi_spinodal.ini")),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_OK


@pytest.mark.parametrize("command, config, linearizations, eig_calls", [
    ("sweep", "band_density.ini", {"CompressibleLocal": 1}, None),
    # the dt guard and the eigenvector seed; the seed's sweep solves k, the
    # candidate long-wave seeds and the tracked prefix up to k
    ("simulate", "simulate_relaxation.ini", {"CompressibleLocal": 2}, 3),
    # pencil_vs_polynomial and viscous_mode_exact share one, the
    # quasi-incompressible limit once per density ratio; the viscous check
    # solves its 13 wavenumbers in one eigensolve
    ("verify", "band_density.ini",
     {"CompressibleLocal": 1, "QuasiIncompressible": 4}, 1),
], ids=["sweep", "simulate", "verify"])
def test_linearizations_per_command(tmp_path, monkeypatch, command, config,
                                    linearizations, eig_calls):
    """Each command linearizes a state once where it needs it and passes
    the linearization on."""
    from collections import Counter

    import numpy as np

    from pfmix import models

    calls, eigs = Counter(), [0]
    for cls in (models.CompressibleGlobal, models.CompressibleLocal,
                models.QuasiIncompressible):
        def counting_linearization(self, state, linearize=cls.linearization):
            calls[type(self).__name__] += 1
            return linearize(self, state)

        monkeypatch.setattr(cls, "linearization", counting_linearization)
    eig = np.linalg.eig

    def counting_eig(a):
        eigs[0] += 1
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    assert cli.main([command, "--config", str(config_path(config)),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert dict(calls) == linearizations
    if eig_calls is not None:
        assert eigs[0] == eig_calls


def test_main_answers_every_call_as_its_first(tmp_path, capsys):
    """``main`` builds its parser once per process: later calls of each
    command write the same files and stdout and exit as the first did, and
    a usage error still exits 2."""
    text = open(config_path("simulate_relaxation.ini")).read()
    assert "t_end = 4.0" in text
    short = write(tmp_path, "short.ini", text.replace("t_end = 4.0", "t_end = 0.05"))
    runs = [("sweep", str(config_path("band_composition.ini"))),
            ("concavity-map", str(config_path("concavity_co2_decane.ini"))),
            ("simulate", short),
            ("verify", str(config_path("band_density.ini")))]

    def call(command, config, out):
        code = cli.main([command, "--config", config, "--out", str(out)])
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        return code, capsys.readouterr().out, files

    first = [call(command, config, tmp_path / f"first_{command}")
             for command, config in runs]
    assert [code for code, _, _ in first] == [cli.EXIT_OK] * 4
    for argv in (["sweep"], ["nonsense", "--config", short]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage: pfmix" in capsys.readouterr().err
    for (command, config), want in zip(runs, first):
        assert call(command, config, tmp_path / f"again_{command}") == want


# A compressible_local quadratic mixture whose two closed-form band edges
# fall in one bracket, [11.22, 12.59], of its 81 log-spaced k: the band is
# narrower than the grid spacing, and the sweep exits 3.
NARROW_BAND = """
[free_energy]
kind = quadratic
c11 = -0.278
c12 = -0.006
c22 = -1.142
kappa_rho1_rho1 = 0.00216
kappa_rho_rho1 = 0.0
kappa_rho_rho = 0.00724

[model]
class = compressible_local
M11 = 0.814
Re_s = 4.039
Re_v = 2.536

[state]
rho0 = 2.354
rho1_0 = 0.535

[sweep]
k_min = 0.01
k_max = 100.0
points = 81
"""


class TestCommandContract:
    """Each command returns its exit code and its files, the report last;
    ``main`` alone writes them, prints the report and echoes the config."""

    def test_failing_sweep_leaves_the_output_directory_unchanged(self, tmp_path,
                                                                 capsys):
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", str(config_path("band_composition.ini")),
                         "--out", str(out)]) == cli.EXIT_OK
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        path = write(tmp_path, "narrow.ini", NARROW_BAND)
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "2 closed-form band edges change the pencil's count" in captured.err
        assert captured.out == ""
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_main_calls_the_handler_on_the_module(self, tmp_path, capsys, monkeypatch):
        # looked up when main is called, so a replaced handler is the one
        # that runs; its exit code passes through and its files are written
        calls = []

        def handler(cfg):
            calls.append(cfg.source)
            files = [("a.csv", "x\n"), ("summary.txt", "report\n")]
            return cli.EXIT_VERIFY_FAIL, iter(files)

        monkeypatch.setattr(cli, "cmd_sweep", handler)
        path = write(tmp_path, "mini.ini", MINI_SWEEP)
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) \
            == cli.EXIT_VERIFY_FAIL
        assert calls == [path]
        assert capsys.readouterr().out == "report\n"
        assert {f.name: f.read_text() for f in out.iterdir()} == {
            "a.csv": "x\n", "summary.txt": "report\n",
            "config_echo.ini": parse_config(MINI_SWEEP).normalized()}


class TestOutputFiles:
    def test_unavailable_asymptotes_are_named_in_their_csv(self, tmp_path):
        # kappa_rho1_rho1 = 0 leaves the local class no short-wave expansion
        text = open(config_path("simulate_relaxation.ini")).read().replace(
            "kappa_rho1_rho1 = 0.002", "kappa_rho1_rho1 = 0.0")
        path = write(tmp_path, "flat.ini", text + "\n[sweep]\nk_min = 0.01\n"
                     "k_max = 1000.0\npoints = 41\n")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        line = (out / "asymptotes_large.csv").read_text()
        assert line.startswith("# unavailable: ") and "M:K > 0" in line
        assert line.count("\n") == 1
        assert not (out / "asymptotes_large.txt").exists()
        assert (out / "asymptotes_small.txt").exists()

    @pytest.mark.parametrize("old, new, summary", [
        ("M11 = 0.05", "M11 = 0.0",
         "alpha0 (viscous): max Re = -1.6666666666666667e-05 at k = 0.01\n"
         "alpha1 (thermodynamic): max Re = 1.1011581370331272e-14 at k = 100\n"
         "alpha2 (coupled): max Re = -2.0000000000000052e-05 at k = 0.01\n"
         "alpha3 (coupled): max Re = -2.0000000000000052e-05 at k = 0.01\n"
         "long-wave classification unavailable: mobility must be PSD with a "
         "positive eigenvalue\n"),
        ("c12 = 0.0\nc22 = 2.0", "c12 = 1.0\nc22 = -2.0",
         "alpha0 (viscous): max Re = -1.6666666666666667e-05 at k = 0.01\n"
         "alpha1 (thermodynamic): max Re = -1.7999978919851051e-12 at k = 0.01\n"
         "alpha2 (coupled): max Re = 12.557620727174111 at k = 19.952623149688808\n"
         "alpha2 unstable bands: (0.01, 35.355339059327363)\n"
         "alpha3 (coupled): max Re = -0.02043117395077524 at k = 0.01\n"
         "long-wave classification unavailable: Hessian is singular within "
         "tolerance\n"),
    ], ids=["zero_mobility", "singular_hessian"])
    def test_unavailable_classification_summary(self, tmp_path, old, new, summary):
        # the sign table's reason is the summary's last line
        assert old in MINI_SWEEP
        path = write(tmp_path, "degenerate.ini", MINI_SWEEP.replace(old, new))
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        assert (out / "summary.txt").read_text() == summary

    def test_full_rank_branch_without_a_k4_root_is_unavailable(self, tmp_path):
        # det K = 0 makes alpha1's k^4 coefficient 0 and its k^2 correction
        # 0/0; the pencil's root there (-76019 at k = 1000) is described by
        # no expansion, so the large-k file says so instead of writing one
        path = write(tmp_path, "global.ini", """
[free_energy]
kind = quadratic
c11 = 1.0
c12 = 0.2
c22 = 2.0
kappa_rho1_rho1 = 1e-3
kappa_rho1_rho2 = 0.0
kappa_rho2_rho2 = 0.0

[model]
class = compressible_global
M11 = 0.05
M12 = -0.01
M22 = 0.04
Re_s = 5.0
Re_v = 3.3333333333333335

[state]
rho1_0 = 1.0
rho2_0 = 2.0

[sweep]
k_min = 1e-3
k_max = 1e3
points = 61
""")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        assert (out / "asymptotes_large.csv").read_text() == \
            "# unavailable: k^4 branch denominator vanishes\n"
        assert not (out / "asymptotes_large.txt").exists()
        assert (out / "asymptotes_small.txt").exists()

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask_022", "umask_027"])
    def test_files_get_the_mode_of_a_plain_open(self, tmp_path, umask):
        path = write(tmp_path, "mini.ini", MINI_SWEEP)
        out = tmp_path / "o"
        old = os.umask(umask)
        try:
            assert cli.main(["sweep", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        finally:
            os.umask(old)
        names = {f.name: f.stat().st_mode & 0o777 for f in out.iterdir()}
        assert names == dict.fromkeys(
            ["dispersion.csv", "asymptotes_small.txt", "asymptotes_small.csv",
             "asymptotes_large.txt", "asymptotes_large.csv", "summary.txt",
             "config_echo.ini"], 0o666 & ~umask)

    def test_snapshot_csvs(self, tmp_path):
        # 100 steps with a snapshot every 40th, step 0 included; columns x,
        # then the fields sorted by name (not in the state's row order)
        text = open(config_path("simulate_relaxation.ini")).read()
        path = write(tmp_path, "snap.ini", text.replace("t_end = 4.0", "t_end = 0.05")
                     .replace("track = rho1:6", "track = rho1:6\nsnapshot_every = 40"))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        names = sorted(f.name for f in out.glob("snapshot_*.csv"))
        assert names == ["snapshot_00000000.csv", "snapshot_00000040.csv",
                         "snapshot_00000080.csv"]
        x = PeriodicGrid1D(2 * np.pi, 64).x
        for name in names:
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "x,mx,my,rho,rho1"
            assert [float(ln.split(",")[0]) for ln in lines[1:]] == x.tolist()

    def test_linear_spacing(self, tmp_path):
        path = write(tmp_path, "linear.ini",
                     MINI_SWEEP.replace("spacing = log", "spacing = linear"))
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "dispersion.csv").read_text().splitlines()[1:]
        assert [float(ln.split(",")[0]) for ln in lines] \
            == np.linspace(0.01, 100.0, 41).tolist()


class TestDeterminism:
    def test_sweep_byte_identical(self, tmp_path):
        path = write(tmp_path, "mini.ini", MINI_SWEEP)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["sweep", "--config", path, "--out", out1]) == 0
        assert cli.main(["sweep", "--config", path, "--out", out2]) == 0
        for name in ("dispersion.csv", "summary.txt", "config_echo.ini",
                     "asymptotes_small.csv", "asymptotes_large.csv"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2, name
            assert b"\r" not in b1

    def test_csv_matches_value_by_value_formatting(self):
        # every adversarial value, by columns, against the per-row writer
        rows = [
            [0, 1, -7, 2**60],
            [True, False, np.float64(0.1), 1.0 / 3.0],
            [-0.0, np.float64(-0.0), np.inf, -np.inf],
            [np.nan, np.float64(np.nan), 1e-310, 1.7976931348623157e308],
            [np.float32(0.1), np.float64(123456789.123456789), 5e-324, -2.5],
            [0.25, np.int64(2**60 + 1), -5e-324, -1.7976931348623157e308],
        ]
        numeric = [list(c) for c in zip(*rows)]
        labels = ["100% coupled", "%s%d%%"]
        header = ["a", "label_a", "b", "c", "label_c", "d"]
        columns = numeric[:1] + labels[:1] + numeric[1:3] + labels[1:] + numeric[3:]
        want = [r[:1] + labels[:1] + r[1:3] + labels[1:] + r[3:] for r in rows]
        assert cli._csv(header, columns) == per_row_csv(header, want)
        grid = np.random.default_rng(7).normal(size=(1024, 4)) * 10.0 ** np.arange(-3, 5, 2)
        header = ["a", "b", "c", "d"]
        assert cli._csv(header, list(grid.T)) == per_row_csv(header, grid.tolist())

    @pytest.mark.parametrize("name", SWEEP_CONFIGS)
    def test_sweep_csvs_match_the_per_row_writer(self, tmp_path, name):
        """dispersion.csv and both asymptote curves, rebuilt row by row
        and value by value, are the files the sweep writes."""
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", str(config_path(name)),
                         "--out", str(out)]) == cli.EXIT_OK
        cfg = load_config(config_path(name))
        sec = cfg.sections["sweep"]
        assert sec["spacing"] == "log"
        ks = np.logspace(np.log10(sec["k_min"]), np.log10(sec["k_max"]), sec["points"])
        model, state = build_all(cfg)
        lin = model.linearization(state)
        result = dispersion.sweep(lin, ks)
        header, rows = ["k"], [[k] for k in result.k_grid]
        for j, nm in enumerate(result.mode_names):
            header += [f"re_{nm}", f"im_{nm}", f"label_{nm}"]
            for row, alpha in zip(rows, result.roots[:, j]):
                row += [alpha.real, alpha.imag, result.labels[j].value]
        assert (out / "dispersion.csv").read_text() == per_row_csv(header, rows)
        for regime, co, sel in (("small", lin.small_k(), ks[ks <= sec["small_k_max"]]),
                                ("large", lin.large_k(), ks[ks >= sec["large_k_min"]])):
            header, rows = ["k"], [[k] for k in sel]
            for m in co.modes:
                header += [f"re_{m.name}", f"im_{m.name}"]
                each = np.array([m.evaluate(k) for k in sel], dtype=complex)
                assert m.evaluate(sel).tobytes() == each.tobytes(), m.name
                for row, v in zip(rows, each):
                    row += [v.real, v.imag]
            assert (out / f"asymptotes_{regime}.csv").read_text() == per_row_csv(header,
                                                                                  rows)

    def test_import_leaves_scipy_optimize_unloaded(self, tmp_path):
        import subprocess
        import sys
        import pfmix
        # numpy is the one runtime dependency: a sweep, which tracks roots,
        # loads no scipy module either
        code = ("import sys, pfmix.cli\n"
                "def scipy():\n"
                "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
                "print(scipy())\n"
                "pfmix.cli.main(['sweep', '--config', sys.argv[1],\n"
                "                '--out', sys.argv[2]])\n"
                "print(scipy())\n")
        src = os.path.dirname(os.path.dirname(pfmix.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code,
                              config_path("band_composition.ini"), str(tmp_path)],
                             capture_output=True, text=True, check=True, env=env,
                             timeout=120)
        assert out.stdout.splitlines()[0] == "False"
        assert out.stdout.splitlines()[-1] == "False"

    def test_sweep_summary_reports_band(self, tmp_path, capsys):
        path = write(tmp_path, "mini.ini", MINI_SWEEP)
        assert cli.main(["sweep", "--config", path,
                         "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "alpha1 unstable bands" in out
        assert "long-wave classification" in out


class TestMapOutput:
    def test_bundled_co2_decane_map_digests(self, tmp_path):
        # recorded before the map was vectorized; the outputs are linspace
        # coordinates and integer codes, so they must stay byte-identical
        out = str(tmp_path / "o")
        path = str(config_path("concavity_co2_decane.ini"))
        assert cli.main(["concavity-map", "--config", path, "--out", out]) == 0
        digests = {name: hashlib.sha256(
            open(os.path.join(out, name), "rb").read()).hexdigest()
            for name in ("concavity.csv", "summary.txt")}
        assert digests == {
            "concavity.csv":
                "8d2cef391734364cbb59a1c6f0a472bde1b5fc37e1df5139cf45ac41b44445f9",
            "summary.txt":
                "f2fbe3aec0b8e3d09e0af07ffb26b2fa73f2f354b5509c0df1da1834ce3b47ae",
        }

    def test_quadratic_map_all_positive(self, tmp_path):
        text = MINI_SWEEP.replace("c11 = -0.5", "c11 = 1.0")
        text = text.replace("[sweep]", "[map]").replace(
            "k_min = 0.01\nk_max = 100.0\npoints = 41\nspacing = log",
            "rho1_min = 0.5\nrho1_max = 2.0\nrho_min = 2.5\nrho_max = 4.0\n"
            "n_rho1 = 6\nn_rho = 6")
        path = write(tmp_path, "map.ini", text)
        out = str(tmp_path / "o")
        assert cli.main(["concavity-map", "--config", path, "--out", out]) == 0
        rows = open(os.path.join(out, "concavity.csv")).read().strip().split("\n")
        codes = {int(float(r.split(",")[2])) for r in rows[1:]}
        assert codes == {1}

    @pytest.mark.parametrize("case", ["global", "quasi"])
    def test_map_refuses_energy_not_in_rho1_rho(self, tmp_path, capsys, case):
        # the map classifies an energy in (rho1, rho): a global model's is
        # in (rho1, rho2), a phase-field model's in phi
        if case == "global":
            text = MINI_SWEEP.replace(
                "kappa_rho_rho1 = 0.0\nkappa_rho_rho = 0.002",
                "kappa_rho1_rho2 = 0.0\nkappa_rho2_rho2 = 0.002").replace(
                "class = compressible_local\nM11 = 0.05",
                "class = compressible_global\nM11 = 0.05\nM12 = -0.02\nM22 = 0.05"
            ).replace("rho0 = 3.0\nrho1_0 = 1.0", "rho1_0 = 1.0\nrho2_0 = 2.0")
            assert "compressible_global" in text and "rho2_0" in text
        else:
            text = open(config_path("quasi_spinodal.ini")).read()
        text += ("\n[map]\nrho1_min = 0.5\nrho1_max = 2.0\nrho_min = 2.5\n"
                 "rho_max = 4.0\nn_rho1 = 6\nn_rho = 6\n")
        path = write(tmp_path, "map.ini", text)
        code = cli.main(["concavity-map", "--config", path,
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert ("concavity-map requires the compressible_local class (energy "
                "in (rho1, rho) variables)") in capsys.readouterr().err

    @pytest.mark.parametrize("line, bad", [
        ("n_rho1 = 120", "n_rho1 = -1"),
        ("n_rho = 120", "n_rho = 0"),
    ], ids=["negative_n_rho1", "zero_n_rho"])
    def test_map_refuses_an_empty_axis(self, tmp_path, capsys, line, bad):
        text = open(config_path("concavity_co2_decane.ini")).read()
        assert line in text
        path = write(tmp_path, "map.ini", text.replace(line, bad))
        code = cli.main(["concavity-map", "--config", path,
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "concavity-map needs n_rho1 >= 1 and n_rho >= 1" in err
        assert "Traceback" not in err

    def test_co2_decane_map_has_both_regions(self, tmp_path):
        out = str(tmp_path / "o")
        cfgtext = open(config_path("concavity_co2_decane.ini")).read()
        cfgtext = cfgtext.replace("n_rho1 = 120", "n_rho1 = 40")
        cfgtext = cfgtext.replace("n_rho = 120", "n_rho = 40")
        path = write(tmp_path, "co2map.ini", cfgtext)
        assert cli.main(["concavity-map", "--config", path, "--out", out]) == 0
        rows = open(os.path.join(out, "concavity.csv")).read().strip().split("\n")
        codes = {int(float(r.split(",")[2])) for r in rows[1:]}
        assert 1 in codes and 2 in codes and 0 in codes


class TestSimulateVerdicts:
    def test_verdict_lines(self, tmp_path, capsys):
        # both bundled runs, RK4 and semi-implicit (beyond the RK4 guard),
        # conserve mass and measure the predicted growth rate
        for name in ("simulate_relaxation.ini", "simulate_quasi.ini"):
            out = str(tmp_path / name)
            code = cli.main(["simulate", "--config", str(config_path(name)),
                             "--out", out])
            assert code == 0
            text = capsys.readouterr().out
            assert "MASS_DRIFT" in text
            assert "ENERGY_MONOTONE" in text
            assert "ALPHA_MEASURED" in text and "ALPHA_PREDICTED" in text
            drift = float(text.split("MASS_DRIFT")[1].split()[0])
            assert drift <= 1e-10
            rel = float(text.split("REL_ERROR")[1].split()[0])
            assert rel < 0.05

    def test_energy_rise_of_1e6_fails_energy_monotone(self, tmp_path, capsys,
                                                      monkeypatch):
        # a short run of the bundled mixture (|E0| ~ 55), then the same run
        # with its last record's energy 1e-6 |E0| above the one before
        text = open(config_path("simulate_relaxation.ini")).read()
        path = write(tmp_path, "short.ini", text.replace("t_end = 4.0", "t_end = 0.05"))
        real_run = cli.simulator.run

        def rising(run_cfg):
            trace = real_run(run_cfg)
            assert abs(trace.energy[0]) > 1.0
            trace.energy[-1] = trace.energy[-2] + 1e-6 * abs(trace.energy[0])
            return trace

        verdicts = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(cli.simulator, "run", rising)
            assert cli.main(["simulate", "--config", path,
                             "--out", str(tmp_path / str(patch))]) == cli.EXIT_OK
            verdicts.append(capsys.readouterr().out.split("ENERGY_MONOTONE ")[1].split()[0])
        assert verdicts == ["yes", "no"]

    def test_bundled_semi_implicit_run_keeps_the_guard(self, tmp_path):
        path = config_path("simulate_quasi.ini")
        assert load_config(path).sections["simulate"]["enforce_dt_guard"]
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_OK

    @pytest.mark.parametrize("config, integrator, dt", [
        ("band_density.ini", "rk4", 0.0065),
        ("stable_dense.ini", "semi_implicit", 2.4e-4),
    ], ids=["band_density_rk4", "stable_dense_semi_implicit"])
    def test_dt_that_blows_up_is_refused(self, tmp_path, capsys, config,
                                         integrator, dt):
        # without the guard these runs leave the domain at steps 4 and 133
        # (exit 4); the guard refuses them at once and names the mode
        text = open(config_path(config)).read() + f"""
[simulate]
length = 6.283185307179586
n = 256
dt = {dt}
t_end = {400 * dt}
integrator = {integrator}
perturb_field = rho1
perturb_mode = 3
perturb_amplitude = 1e-6
"""
        path = write(tmp_path, "unstable.ini", text)
        code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert f"exceeds the {integrator} stability guard" in err
        assert "grid mode 127 (k=127, root " in err     # the capillary wave


class TestFloryHugginsPhaseField:
    """A Flory-Huggins energy reaches both phase-field classes by the
    reduction of its (rho1, rho) form to phi."""

    def test_quasi_sweep_matches_the_closed_form(self, tmp_path):
        path = write(tmp_path, "fh.ini", FH_PHASE_FIELD)
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        model, state = build_all(load_config(path))
        lin = model.linearization(state)
        assert lin.one_minus_r == -1.0
        table = np.genfromtxt(out / "dispersion.csv", delimiter=",", names=True,
                              dtype=None, encoding="utf-8")
        for name, want in zip(("alpha0", "alpha1", "alpha2"),
                              dispersion.quasi_explicit_roots(lin, table["k"])):
            got = table[f"re_{name}"] + 1j * table[f"im_{name}"]
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_h_phi_phi_is_the_reduced_energy_s_curvature(self):
        model, state = build_all(parse_config(FH_PHASE_FIELD))
        lin = model.linearization(state)
        assert lin.kappa_phi_phi == pytest.approx(0.016, rel=1e-15)

        def on_the_line(phi):
            # the configured energy at rho1 = rho_hat_1 phi, rho2 = rho_hat_2 (1 - phi)
            r1, r2 = 2.0 * phi, 1.0 - phi
            r = r1 + r2
            return r1 * np.log(r1 / r) + r2 * np.log(r2 / r) + 3.0 * r1 * r2 / r

        phi, d = state.phi, 1e-4
        for h in (lambda x: model.free_energy.value([x]), on_the_line):
            fd = (h(phi + d) - 2.0 * h(phi) + h(phi - d)) / d**2
            assert lin.h_phi_phi == pytest.approx(fd, rel=1e-6)

    def test_every_verify_line_passes(self, tmp_path, capsys):
        path = write(tmp_path, "fh.ini", FH_PHASE_FIELD)
        assert cli.main(["verify", "--config", path,
                         "--out", str(tmp_path / "o")]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and all(ln.startswith("PASS ") for ln in lines)

    def test_simulate_measures_the_predicted_rate(self, tmp_path, capsys):
        path = write(tmp_path, "fh.ini", FH_PHASE_FIELD)
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "o")]) == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "ENERGY_MONOTONE yes" in text
        assert float(text.split("REL_ERROR")[1].split()[0]) < 0.05

    def test_incompressible_energy_is_reduced_along_the_resolved_densities(self):
        # rho_hat_2 := rho_hat_1 for the incompressible class before the
        # energy is reduced, so a pair inside EQUAL_DENSITY_RTOL builds the
        # same model as the equal pair, bit for bit
        text = FH_PHASE_FIELD.replace("class = quasi_incompressible",
                                      "class = incompressible").replace(
            "rho_hat_1 = 2.0", "rho_hat_1 = 1.0")
        h = []
        for rho_hat_2 in ("1.0", "1.00000001"):
            model, state = build_all(parse_config(text.replace(
                "rho_hat_2 = 1.0", f"rho_hat_2 = {rho_hat_2}")))
            assert model.rho_hat_2 == 1.0
            h.append(model.linearization(state).h_phi_phi)
        assert h == [-1.9595959595959607] * 2

    def test_incompressible_alpha1_is_the_closed_form(self):
        text = FH_PHASE_FIELD.replace("class = quasi_incompressible",
                                      "class = incompressible")
        model, state = build_all(parse_config(text.replace("rho_hat_1 = 2.0",
                                                           "rho_hat_1 = 1.0")))
        lin = model.linearization(state)
        assert lin.equal_densities and lin.one_minus_r == 0.0
        # symmetric Flory-Huggins at rho = 1: h'' = 1/phi + 1/(1 - phi) - 2 chi
        phi = state.phi
        assert lin.h_phi_phi == pytest.approx(1 / phi + 1 / (1 - phi) - 6.0, rel=1e-14)
        ks = np.logspace(-2, 2, 41)
        result = dispersion.sweep(lin, ks)
        _, want = dispersion.incompressible_roots(lin, ks)
        got = result.roots[:, result.mode_names.index("alpha1")]
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
