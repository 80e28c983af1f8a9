#!/usr/bin/env python3
"""Run the test suite against one-line mutants of the package.

Each mutant replaces one fragment of one line of a package file, a fragment
that must occur exactly once there.  Per mutant the tree (``src``,
``tests``, ``scripts``, ``perfbench``, whose files the tests read, and
``pyproject.toml``) is copied to a temporary directory, the fragment is
replaced, and ``pytest -x -q`` runs in the copy.  The unmutated copy runs
first and must pass.  One line is printed per mutant: ``killed`` with the
first failing test, or ``survived``.  A mutant that the tests cannot tell apart from the package
would be listed with the reason it is equivalent; none is at present.

    python3 scripts/mutants.py                      # every mutant, all tests
    python3 scripts/mutants.py -m TIE_TOL           # mutants matching a text
    python3 scripts/mutants.py tests/test_cli.py    # a subset of the tests

This is not part of the test suite: every mutant but a survivor stops at
its first failure, and a survivor costs one whole run of the tests.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/pfmix, old text, new text, what the mutant breaks)
MUTANTS = [
    ("simulator.py", "DT_SAFETY = 0.5", "DT_SAFETY = 0.6", "dt guard: safety factor up"),
    ("simulator.py", "DT_SAFETY = 0.5", "DT_SAFETY = 0.4", "dt guard: safety factor down"),
    ("simulator.py", "(1.0 + z / 4)", "(1.0 + z / 5)", "dt guard: RK4 stability polynomial"),
    ("simulator.py", "np.log(amp.max(axis=1)) - dt * self.growth",
     "np.log(amp.max(axis=1))", "dt guard: exact growth not subtracted"),
    ("simulator.py", "np.log(amp.max(axis=1)) - dt",
     "0.9 * np.log(amp.max(axis=1)) - dt", "dt guard: log amplification x 0.9"),
    ("simulator.py", "AMPLIFICATION_TOL = float(np.sqrt(np.finfo(float).eps))",
     "AMPLIFICATION_TOL = 1e-2", "dt guard: amplification tolerance"),
    ("simulator.py", "A[-1] = A[-1].real", "A[-1] = A[-1]",
     "dt guard: Nyquist couplings kept"),
    ("simulator.py", "(dt / (1.0 + dt * self.stiff))", "(dt / (1.0 + 1.1 * dt * self.stiff))",
     "dt guard: semi-implicit gain"),
    ("simulator.py", "while hi > lo * 1.001:", "while hi > lo * 1.03:",
     "dt guard: bisection tolerance"),
    ("simulator.py", "due = step * config.dt", "due = (step + 1) * config.dt",
     "record times shifted by one step"),
    ("simulator.py", "FIT_SKIP_FRACTION = 0.1", "FIT_SKIP_FRACTION = 0.3",
     "growth fit: window start"),
    ("simulator.py", "if not 0 <= m <= n // 2:", "if not m <= n // 2:",
     "negative modes admitted"),
    ("cli.py", "tol = 1e-8 * max(1.0, abs(trace.energy[0]))",
     "tol = 1e-2 * max(1.0, abs(trace.energy[0]))", "ENERGY_MONOTONE tolerance"),
    ("cli.py", "return worst < 1e-5,", "return worst < 1e-1,", "verify: gradient bound"),
    ("free_energy.py", "DEFINITENESS_TOL = 1e-10", "DEFINITENESS_TOL = 1e-6",
     "definiteness: zero-eigenvalue tolerance"),
    ("free_energy.py", "idx = None if rho.ndim < 2 else", "idx = None if rho.ndim < 1 else",
     "domain: a lone point carries an index"),
    ("linearization.py", "max(self.h_phi_phi, 0.0)", "abs(self.h_phi_phi)",
     "stiff symbol: concave phase-field term"),
    ("linearization.py", "max(C[0, 0], 0.0)", "abs(C[0, 0])",
     "stiff symbol: concave first density term"),
    ("linearization.py", "max(C[1, 1], 0.0)", "abs(C[1, 1])",
     "stiff symbol: concave second density term"),
    ("linearization.py", "(-lam * PK, -lam * PC)", "(-lam * PK, -1.01 * lam * PC)",
     "rank-one large k: alpha1's k^2 coefficient x 1.01"),
    ("dispersion.py", "EIG_RESIDUAL_TOL = 1e-8", "EIG_RESIDUAL_TOL = 1e-4",
     "eigensolve residual tolerance"),
    ("dispersion.py", "OVERLAP_TIE_TOL = 1e-6", "OVERLAP_TIE_TOL = 1e-2",
     "mode tracking: overlap tie tolerance"),
    ("dispersion.py", "d *= 2", "d *= 3", "track scan: doubling step"),
    ("dispersion.py", "start = (result, lo)", "start = None",
     "band_peak: names re-seeded each sweep"),
    ("linearization.py", "B[0, 1] = -self.one_minus_r", "B[0, 1] = self.one_minus_r",
     "phase-field pencil: sign of B[0, 1]"),
    ("linearization.py", "A[:, 1, 0] = Mh * k * k * r1", "A[:, 1, 0] = 0.0",
     "phase-field pencil: A[1, 0] coupling dropped"),
    ("config.py", "reduce_quasi_incompressible(kappa, bulk, rh1, rh2)",
     "reduce_quasi_incompressible(kappa, bulk, rh2, rh1)",
     "phase-field reduction: rho_hat_1 and rho_hat_2 swapped"),
    ("config.py", "reduce_quasi_incompressible(kappa, bulk, rh1, rh2)",
     'reduce_quasi_incompressible(kappa, bulk, *_need(cfg, "model", '
     '["rho_hat_1", "rho_hat_2"]))',
     "phase-field reduction: along the configured, not the resolved, densities"),
    ("config.py", "        rh2 = rh1", "        rh2 = rh2",
     "incompressible class: rho_hat_2 not set to rho_hat_1"),
    ("cli.py", "except (ConfigError, RangeError) as exc:", "except ConfigError as exc:",
     "exit codes: range errors not configuration errors"),
    ("cli.py", "return EXIT_BLOWUP", "return EXIT_NUMERIC", "exit codes: blow-up as 3"),
    ("cli.py", "(EXIT_OK if all_ok else EXIT_VERIFY_FAIL)", "(EXIT_OK)",
     "exit codes: failed verify exits 0"),
    ("cli.py", 'print(f"error: {exc}", file=sys.stderr)', "raise",
     "exit codes: other package errors escape main"),
    ("cli.py", "_write_atomic(os.path.join(args.out, name), text)",
     "_write_atomic(os.path.join(args.out, name), text[:-1])",
     "main: each file written without its last newline"),
    ("cli.py", "sys.stdout.write(text)", "sys.stdout.write(name)",
     "main: the report's name printed, not its text"),
    ("cli.py", '_write_atomic(os.path.join(args.out, "config_echo.ini"), cfg.normalized())',
     "None", "main: no config echo"),
    ("cli.py", "if section is not None and not cfg.has_section(section):", "if False:",
     "main: command section not checked"),
    ("cli.py", 'f"# unavailable: {exc}\\n"', '"# unavailable\\n"',
     "sweep: unavailable asymptotes without their reason"),
    ("cli.py", 'ks = np.linspace(sec["k_min"]', 'ks = np.geomspace(sec["k_min"]',
     "sweep: linear spacing read as log"),
    ("cli.py", "for step, snap in trace.snapshots:",
     "for step, snap in trace.snapshots[1:]:",
     "simulate: first snapshot dropped"),
    ("cli.py", "names = sorted(snap)", "names = list(snap)",
     "simulate: snapshot columns in state-row order"),
    ("linearization.py", "y3 = -(x3**2 * r0 * MK", "y3 = (x3**2 * r0 * MK",
     "full-rank large k: sign of alpha3's constant term"),
    ("linearization.py", '("alpha1", (-MK + disc) / 2.0)',
     '("alpha1", (-MK + 1.01 * disc) / 2.0)',
     "full-rank large k: alpha1's k^4 coefficient off"),
    ("linearization.py", "((-iRe + disc) / (2.0 * r0),))", "((iRe + disc) / (2.0 * r0),))",
     "phase-field large k: oscillatory alpha1's sign of 1/Re"),
    ("linearization.py", '"no spinodal band (h_phi_phi >= 0)"', '"no spinodal band"',
     "phase-field classification: reason of no band dropped"),
    ("simulator.py", "return np.inf, None, None", "return hi, None, None",
     "dt guard: finite limit where every dt is admitted"),
    ("linearization.py", "(pCp > 0) != (det > 0)", "(pCp > 0) == (det > 0)",
     "sign table: alpha1's indefinite rows swapped"),
    ("linearization.py", "not pCp > 0", "pCp > 0",
     "sign table: alpha2's indefinite rows swapped"),
    ("linearization.py", "if abs(den) <= DEGENERATE_TOL * abs(r0) * max(MK**2, 1.0):",
     "if False:", "full-rank large k: vanishing k^4 branch denominator not refused"),
    ("cli.py", "os.fchmod(fd, 0o666 & ~umask)", "os.fchmod(fd, 0o600)",
     "output files: mkstemp's owner-only mode kept"),
]

# a failing test as pytest -q lists it in its short summary
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_mutant(name, old, new, pytest_args):
    """'killed by <first failing test>' or 'survived' for one mutant; with
    ``name`` None, the unmutated tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
        for part in ("src", "tests", "scripts", "perfbench"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        if name is not None:
            path = tree / "src" / "pfmix" / name
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times, not once")
            path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *pytest_args], cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode == 0:
        return "survived"
    failed = FAILED.search(out.stdout)
    return f"killed by {failed.group(1) if failed else f'pytest exit {out.returncode}'}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-m", "--match", default="",
                    help="only the mutants whose file, texts or reason contain this")
    ap.add_argument("pytest_args", nargs="*", help="passed on to pytest")
    args = ap.parse_args()
    verdict = run_mutant(None, None, None, args.pytest_args)
    if verdict != "survived":
        raise SystemExit(f"the unmutated tree fails: {verdict}")
    survivors = 0
    for mutant in MUTANTS:
        if args.match and not any(args.match in field for field in mutant):
            continue
        name, old, new, reason = mutant
        verdict = run_mutant(name, old, new, args.pytest_args)
        survivors += verdict == "survived"
        print(f"{name}: {old} -> {new} ({reason}): {verdict}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
