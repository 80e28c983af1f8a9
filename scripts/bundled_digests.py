#!/usr/bin/env python3
"""Print a SHA-256 digest of every output of every bundled configuration.

Each bundled config under ``src/pfmix/data/configs`` is run through every
CLI command it has a section for (``verify`` runs on all of them) into a
temporary directory.  One ``config command file sha256`` line is printed
per output file, plus the captured stdout and the exit code, so that two
checkouts can be compared with ``diff``:

    python3 scripts/bundled_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from pfmix import cli  # noqa: E402

CONFIGS = Path(cli.__file__).resolve().parent / "data" / "configs"
SECTIONS = {"sweep": "[sweep]", "concavity-map": "[map]", "simulate": "[simulate]"}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    for path in sorted(CONFIGS.glob("*.ini")):
        text = path.read_text(encoding="utf-8")
        commands = [c for c, s in SECTIONS.items() if s in text] + ["verify"]
        for command in commands:
            with tempfile.TemporaryDirectory() as out:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    rc = cli.main([command, "--config", str(path), "--out", out])
                for f in sorted(Path(out).iterdir()):
                    print(path.name, command, f.name, sha(f.read_bytes()))
            print(path.name, command, "(stdout)", sha(stdout.getvalue().encode()))
            print(path.name, command, "(exit)", rc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
