"""The repository's scripts, run as a user runs them, and checks on the
package's source."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pfmix"


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
