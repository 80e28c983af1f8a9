"""Command-line front end: sweeps, concavity maps, transient runs, verification.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure, 4 transient blow-up.  Each ``cmd_*`` is a function of
the config alone that returns ``(exit code, files)``: ``files`` holds
(name, text) pairs, the report last, and whatever can fail has run before
it returns.  ``main`` alone writes them, prints the report and echoes the
config, so a command that fails writes nothing.  Output files are written
atomically (temp file + rename), with the mode a plain ``open`` would give
under the umask, 17-significant-digit floats and newline line endings, so
identical configs give byte-identical results.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import tempfile

import numpy as np

from . import dispersion, free_energy, simulator
from .config import RunConfig, build_all, load_config
from .errors import (
    BlowupError,
    ConfigError,
    NumericalError,
    PfmixError,
    RangeError,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BLOWUP = 4

F = lambda x: format(float(x), ".17g")  # noqa: E731  (single CSV float format)


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)   # the mode open() gives, not mkstemp's 0600
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header, columns) -> str:
    """CSV text, one row per entry of the columns.  A column is a float
    array, each number as ``F`` formats it, or a label ``str`` that every
    row repeats.  The file is one %-format string applied row by row."""
    fmt = ",".join(c.replace("%", "%%") if isinstance(c, str) else "%.17g"
                   for c in columns)
    numeric = [np.asarray(c, dtype=float) for c in columns if not isinstance(c, str)]
    rows = np.column_stack(numeric).tolist()
    return "\n".join([",".join(header)] + [fmt % tuple(r) for r in rows]) + "\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_range(sec) -> tuple[float, float]:
    """(k_min, k_max) of a valid [sweep] section, else ConfigError."""
    if sec["k_min"] <= 0 or sec["k_max"] <= sec["k_min"] or sec["points"] < 2:
        raise ConfigError("sweep needs 0 < k_min < k_max and points >= 2")
    return sec["k_min"], sec["k_max"]


def cmd_sweep(cfg: RunConfig):
    model, state = build_all(cfg)
    sec = cfg.sections["sweep"]
    k_min, k_max = _sweep_range(sec)
    if sec["spacing"] == "log":
        ks = np.logspace(np.log10(k_min), np.log10(k_max), sec["points"])
    elif sec["spacing"] == "linear":
        ks = np.linspace(k_min, k_max, sec["points"])
    else:
        raise ConfigError(f"unknown spacing {sec['spacing']!r}")

    lin = model.linearization(state)
    result = dispersion.sweep(lin, ks)
    modes = result.long_wave.modes
    header, columns = ["k"], [result.k_grid]
    for j, m in enumerate(modes):
        header += [f"re_{m.name}", f"im_{m.name}", f"label_{m.name}"]
        columns += [result.roots[:, j].real, result.roots[:, j].imag, m.label.value]
    files = [("dispersion.csv", _csv(header, columns))]

    # asymptote curves over their windows, plus the flat coefficient blocks
    for regime, co, sel in (
        ("small", result.long_wave, ks[ks <= sec["small_k_max"]]),
        ("large", lin.large_k(), ks[ks >= sec["large_k_min"]]),
    ):
        files.append((f"asymptotes_{regime}.txt", co.flat_text()))
        header, columns = ["k"], [sel]
        for m in co.modes:
            v = m.evaluate(sel)
            header += [f"re_{m.name}", f"im_{m.name}"]
            columns += [v.real, v.imag]
        files.append((f"asymptotes_{regime}.csv", _csv(header, columns)))

    lines = []
    for j, m in enumerate(modes):
        re = result.roots[:, j].real
        lines.append(f"{m.name} ({m.label.value}): max Re = {F(re.max())} "
                     f"at k = {F(result.k_grid[np.argmax(re)])}")
        bands = dispersion.unstable_bands(lin, result, j)
        if bands:
            txt = ", ".join(f"({F(a)}, {F(b)})" for a, b in bands)
            lines.append(f"{m.name} unstable bands: {txt}")
    lines.append(lin.classification(result.long_wave))
    if result.ambiguous:
        lines.append(f"tracking ambiguity at grid indices {list(result.ambiguous)}")
    files.append(("summary.txt", "\n".join(lines) + "\n"))
    return EXIT_OK, files


# ---------------------------------------------------------------------------
# concavity map
# ---------------------------------------------------------------------------


def cmd_concavity_map(cfg: RunConfig):
    sec = cfg.sections["map"]
    if sec["n_rho1"] < 1 or sec["n_rho"] < 1:
        raise ConfigError("concavity-map needs n_rho1 >= 1 and n_rho >= 1")
    model, _ = build_all(cfg)
    if model.free_energy.variables != ("rho1", "rho"):
        raise ConfigError("concavity-map requires the compressible_local class "
                          "(energy in (rho1, rho) variables)")
    fe_tilde = model.free_energy
    rho1 = np.linspace(sec["rho1_min"], sec["rho1_max"], sec["n_rho1"])
    rho = np.linspace(sec["rho_min"], sec["rho_max"], sec["n_rho"])
    codes = free_energy.concavity_map(fe_tilde, rho1, rho)
    # cell[j][c] is ",rho[j],c" as F formats them, each number formatted once
    code_txt = [F(c) for c in range(5)]
    cell = np.array([[f",{F(r)},{c}" for c in code_txt] for r in rho], dtype=object)
    rows = cell[np.arange(len(rho)), codes].tolist()
    lines = ["rho1,rho,definiteness_code"]
    lines += [t + ("\n" + t).join(row) for t, row in zip(map(F, rho1), rows)]
    summary = ("cells: excluded={} positive_definite={} indefinite={} "
               "negative_definite={} singular={}\n").format(
                   *np.bincount(codes.ravel(), minlength=5))
    return EXIT_OK, [("concavity.csv", "\n".join(lines) + "\n"), ("summary.txt", summary)]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: RunConfig):
    sec = cfg.sections["simulate"]
    model, state = build_all(cfg)
    grid = simulator.PeriodicGrid1D(sec["length"], sec["n"])
    mode = sec["perturb_mode"]
    track = []
    for item in (sec["track"].split(",") if sec.get("track") else ()):
        fname, _, m = item.strip().partition(":")
        try:
            track.append((fname, int(m)))
        except ValueError:
            raise ConfigError(f"[simulate] track: {item.strip()!r} is not "
                              "field:mode") from None
    # the run's numbers and modes, before the eigenvector seed sweeps the
    # mode's wavenumber
    simulator.check_modes([mode] + [m for _, m in track], grid.n)
    run_cfg = simulator.SimulationConfig(
        model=model, state=state, length=sec["length"], n=sec["n"],
        dt=sec["dt"], t_end=sec["t_end"], integrator=sec["integrator"],
        diagnostics_every=sec["diagnostics_every"], perturbations=(),
        track=tuple(track), enforce_dt_guard=sec["enforce_dt_guard"],
        snapshot_every=sec["snapshot_every"])
    alpha_pred = None
    if sec["seed_eigenvector"]:
        try:
            perts, alpha_pred = simulator.eigenvector_perturbations(
                model, state, grid, mode=mode, amplitude=sec["perturb_amplitude"],
                track_name=sec["eigen_track"])
        except KeyError as exc:
            raise ConfigError(f"[simulate] eigen_track: {exc.args[0]}") from None
    else:
        if sec.get("perturb_field") is None:
            raise ConfigError("simulate needs perturb_field (or seed_eigenvector)")
        perts = (simulator.Perturbation(sec["perturb_field"], mode,
                                        sec["perturb_amplitude"]),)
    track = track or [(perts[0].field, mode)]
    trace = simulator.run(dataclasses.replace(run_cfg, perturbations=perts,
                                              track=tuple(track)))

    header = ["t", "mass", "energy", "dissipation"]
    columns = [trace.times, trace.mass, trace.energy, trace.dissipation]
    for fname, m in track:
        amp = trace.amplitudes[(fname, m)]
        header += [f"re_{fname}_{m}", f"im_{fname}_{m}"]
        columns += [amp.real, amp.imag]

    drift = float(np.max(np.abs(trace.mass - trace.mass[0]))
                  / max(abs(trace.mass[0]), 1e-300))
    dE = np.diff(trace.energy)
    tol = 1e-8 * max(1.0, abs(trace.energy[0]))
    monotone = bool(np.all(dE <= tol))
    lines = [f"MASS_DRIFT {F(drift)}",
             f"ENERGY_MONOTONE {'yes' if monotone else 'no'} "
             f"worst_increase {F(max(dE.max(), 0.0))}"]
    fname, m = track[0]
    try:
        fit = simulator.extract_growth_rate(trace, fname, m)
        line = f"ALPHA_MEASURED {F(fit.alpha.real)} {F(fit.alpha.imag)}"
        if alpha_pred is not None:
            rel = abs(fit.alpha.real - alpha_pred.real) / max(abs(alpha_pred.real),
                                                              1e-300)
            line += (f" ALPHA_PREDICTED {F(alpha_pred.real)} {F(alpha_pred.imag)}"
                     f" REL_ERROR {F(rel)}")
        lines.append(line)
    except PfmixError as exc:
        lines.append(f"ALPHA_MEASURED unavailable: {exc}")
    verdict = "\n".join(lines) + "\n"

    def files():
        # each text is formed only when main writes it
        for step, snap in trace.snapshots:
            names = sorted(snap)
            yield (f"snapshot_{step:08d}.csv",
                   _csv(["x"] + names, [trace.grid.x] + [snap[nm] for nm in names]))
        yield "trace.csv", _csv(header, columns)
        yield "verdict.txt", verdict

    return EXIT_OK, files()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig):
    """One-shot invariant suite on the configured model."""
    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except PfmixError as exc:
            ok, detail = False, str(exc)
        checks.append((name, ok, detail))

    model = state = None
    try:
        model, state = build_all(cfg)
    except PfmixError as exc:
        checks.append(("model_build", False, str(exc)))
    if model is not None:
        def fd_check():
            fe = model.free_energy
            base = model.state_densities(state)
            x = base * np.random.default_rng(0).uniform(0.8, 1.2, size=(25, base.size))
            inside = fe.domain_mask(x)
            if not inside.any():
                fe.check_domain(x)      # fails with the energy's reason
            x = x[inside]
            g = fe.gradient(x)
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            # row i of a sample's offsets moves its variable i by h_i
            e = h[:, :, None] * np.eye(base.size)
            up, down = fe.value(x[:, None, :] + np.stack([e, -e]))
            fd = (up - down) / (2 * h)
            worst = float(np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8),
                                 initial=0.0))
            return worst < 1e-5, f"max gradient FD deviation {worst:.3e}"

        check("gradient_fd", fd_check)
        lin = None

        def linearized():
            # one linearization for both pencil checks; if the state cannot
            # be linearized, each of them fails with the reason
            nonlocal lin
            lin = lin or model.linearization(state)
            return lin

        def pencil_poly():
            # four k over the config's sweep range, else a fixed spread
            ks = np.array([1e-2, 1.0, 10.0, 300.0])
            if cfg.has_section("sweep"):
                ks = np.geomspace(*_sweep_range(cfg.sections["sweep"]), 4)
            ok, err = dispersion.pencil_matches_scalar(linearized(), ks)
            if not ok.all():
                i = int(np.argmin(ok))
                return False, f"coefficient mismatch {err[i]:.3e} at k={ks[i]}"
            return True, f"max coefficient mismatch {err.max():.3e}"

        check("pencil_vs_polynomial", pencil_poly)

        def viscous_exact():
            ks = np.logspace(-3, 3, 13)
            alphas, _, _ = dispersion.growth_rates(linearized(), ks)
            v = dispersion.viscous_root(linearized(), ks)
            worst = float(np.max(np.min(np.abs(alphas - v[:, None]), axis=1)
                                 / np.abs(v)))
            return worst < 1e-12, f"worst viscous-root deviation {worst:.3e}"

        check("viscous_mode_exact", viscous_exact)

    lines = []
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    report = "\n".join(lines) + "\n"
    return (EXIT_OK if all_ok else EXIT_VERIFY_FAIL), [("verify.txt", report)]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# each command and the config section it needs; its handler is
# cmd_<command>, looked up when main is called, so that a handler wrapped
# or replaced on the module is the one that runs
COMMANDS = {"sweep": "sweep", "concavity-map": "map", "simulate": "simulate",
            "verify": None}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of ``main`` and
    kept for the process's later calls."""
    parser = argparse.ArgumentParser(
        prog="pfmix",
        description="Phase-field mixture models: stability sweeps, concavity "
                    "maps, transient verification runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    section = COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        if section is not None and not cfg.has_section(section):
            raise ConfigError(f"{cfg.source}: {args.command} needs a [{section}] section")
        code, files = globals()["cmd_" + args.command.replace("-", "_")](cfg)
        for name, text in files:
            _write_atomic(os.path.join(args.out, name), text)
        sys.stdout.write(text)      # the report, the last file
        _write_atomic(os.path.join(args.out, "config_echo.ini"), cfg.normalized())
        return code
    except (ConfigError, RangeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowupError as exc:
        print(f"transient blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PfmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
