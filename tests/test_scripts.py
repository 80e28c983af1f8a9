"""The repository's scripts, run as a user runs them, and checks on the
package's source."""

import ast
import dataclasses
import re
import subprocess
import sys
from pathlib import Path

from pfmix import models, simulator

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PACKAGE = ROOT / "src" / "pfmix"

# The outputs of each command that ``scripts/bundled_digests.py`` digests,
# and the command each bundled config has a section for (all run verify).
OUTPUTS = {
    "sweep": ("asymptotes_large.csv", "asymptotes_large.txt", "asymptotes_small.csv",
              "asymptotes_small.txt", "config_echo.ini", "dispersion.csv", "summary.txt"),
    "concavity-map": ("concavity.csv", "config_echo.ini", "summary.txt"),
    "simulate": ("config_echo.ini", "trace.csv", "verdict.txt"),
    "verify": ("config_echo.ini", "verify.txt"),
}
BUNDLED_COMMANDS = {
    "band_composition.ini": "sweep", "band_density.ini": "sweep",
    "quasi_spinodal.ini": "sweep", "stable_dense.ini": "sweep",
    "concavity_co2_decane.ini": "concavity-map", "simulate_relaxation.ini": "simulate",
}

# Public package names that no command, script or benchmark reads yet,
# each waiting for the ROADMAP item that gives it a reader.  The list may
# only shrink: a name that gains a reader leaves it, and a new name needs one.
UNREAD_ALLOWED = {
    "change_variables_to_rho_rho1",             # item 4: the compare command
    "QuasiIncompressible.divergence_residual",  # item 1: DIVERGENCE_RESIDUAL
}


def test_calibrate_mixture_verifies_bundled_constants():
    # the default mode re-polishes and re-verifies the constants stored in
    # band_composition.ini; it builds a CompressibleLocal and reads its
    # state densities from outside the package
    out = subprocess.run([sys.executable, str(SCRIPTS / "calibrate_mixture.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "verification: PASS" in out.stdout.splitlines()


def test_no_class_switch_outside_the_models():
    # each model class's linearization owns what is specific to it, so the
    # modules that use models and linearizations never ask for their class
    for name in ("cli.py", "config.py", "dispersion.py", "simulator.py"):
        text = (PACKAGE / name).read_text(encoding="utf-8")
        for switch in ("isinstance(model", "isinstance(lin"):
            assert switch not in text, f"{name} contains {switch}"


def test_bundled_digests_cover_every_output():
    # the byte-identity check, run as a user runs it; the digests themselves
    # depend on the numpy build, so only the lines' names and exits are fixed
    out = subprocess.run([sys.executable, str(SCRIPTS / "bundled_digests.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = [ln.split() for ln in out.stdout.splitlines()]
    assert len(lines) == 70
    expected = {(name, command, f) for name, first in BUNDLED_COMMANDS.items()
                for command in (first, "verify")
                for f in OUTPUTS[command] + ("(stdout)", "(exit)")}
    assert {tuple(ln[:3]) for ln in lines} == expected
    exits = [ln for ln in lines if ln[2] == "(exit)"]
    assert len(exits) == 12 and all(ln[3] == "0" for ln in exits)
    assert all(re.fullmatch("[0-9a-f]{64}", ln[3]) for ln in lines if ln[2] != "(exit)")


def test_every_knob_is_set_by_a_command():
    # every init field of the model classes and of the run configuration is
    # passed by keyword where the commands build them (config.py, cli.py),
    # so the package has no option that no command can set
    classes = {cls.__name__: cls for cls in (
        models.CompressibleGlobal, models.CompressibleLocal,
        models.QuasiIncompressible, simulator.SimulationConfig)}
    passed = {name: set() for name in classes}
    for name in ("config.py", "cli.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if called in passed:
                    passed[called] |= {kw.arg for kw in node.keywords}
    unset = {f"{name}.{f.name}" for name, cls in classes.items()
             for f in dataclasses.fields(cls) if f.init and f.name not in passed[name]}
    assert unset == set()


def public_definitions():
    """(qualified name, file, first line, last line) of every public
    module-level function and class of the package, and of every public
    method of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield node.name, path, node.lineno, node.end_lineno
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", path, sub.lineno, sub.end_lineno


def test_every_public_name_has_a_reader():
    # a name is read where it appears as a whole word in the package, the
    # scripts or the benchmark (not its frozen baseline copy), outside the
    # lines of its own definition
    readers = {path: path.read_text(encoding="utf-8").splitlines()
               for base in (PACKAGE, SCRIPTS, ROOT / "perfbench")
               for path in sorted(base.glob("*.py"))}

    def read(name, own, first, last):
        word = re.compile(rf"\b{re.escape(name)}\b")
        return any(word.search(line) for path, lines in readers.items()
                   for i, line in enumerate(lines, 1)
                   if not (path == own and first <= i <= last))

    unread = {qual for qual, path, first, last in public_definitions()
              if not read(qual.rsplit(".", 1)[-1], path, first, last)}
    assert unread == UNREAD_ALLOWED
