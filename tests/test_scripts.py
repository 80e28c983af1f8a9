"""The repository's scripts, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_calibrate_mixture_verifies_bundled_constants():
    # the default mode re-polishes and re-verifies the constants stored in
    # band_composition.ini; it builds a CompressibleLocal and reads its
    # state densities from outside the package
    out = subprocess.run([sys.executable, str(SCRIPTS / "calibrate_mixture.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "verification: PASS" in out.stdout.splitlines()
