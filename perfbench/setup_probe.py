"""Set-up probe, run in a fresh interpreter for every sample of setup_s.

Usage: python3 perfbench/setup_probe.py CONFIG...   (checkout's src on
PYTHONPATH).  Imports ``pfmix.cli``, then loads and builds every config, and
prints one JSON line with the time of each phase in milliseconds.
"""

import json
import sys
import time

start = time.perf_counter()
import pfmix.cli  # noqa: E402,F401
from pfmix import config  # noqa: E402

imported = time.perf_counter()
configs = [config.load_config(path) for path in sys.argv[1:]]
loaded = time.perf_counter()
for cfg in configs:
    config.build_all(cfg)
built = time.perf_counter()
print(json.dumps({"import_ms": (imported - start) * 1e3,
                  "load_ms": (loaded - imported) * 1e3,
                  "build_ms": (built - loaded) * 1e3}))
