"""pfmix benchmark: seeded configs through the real CLI, gated and timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The configs are generated from the seed (``workloads.py``) into a temporary
directory inside the checkout, which is removed at the end.  Set-up time is
sampled in fresh interpreters (``setup_probe.py``); the workload's passes
run one after the other in a single warm worker process (``worker.py``)
with BLAS/OpenMP capped at one thread.  With ``--trace 0`` the last line is
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of the
traced passes.  The pass time in the JSON is relative to the frozen
``pfmix_baseline`` copy timed in alternation with it, which cancels the
drift of a shared host; the raw seconds are printed on the lines before it.
The exit code is 0 only when every output passed its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 100          # warm-up pass, gates and one overrunning pass
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THROUGHPUT_NAME = {"transient_rk4": "simulate_cell_steps_per_s",
                   "transient_quasi": "simulate_cell_steps_per_s",
                   "stability": "sweep_k_per_s",
                   "concavity_map": "map_cells_per_s"}


def _env(root):
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_CAPS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def setup_samples(env, paths):
    """Wall time of a fresh interpreter importing pfmix.cli and loading and
    building every config, plus that probe's own phase timings."""
    walls, phases = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), *paths],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        phases.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return walls, phases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "pfmix", "cli.py")):
        return _fail(f"no pfmix sources under {os.path.join(root, 'src')}")
    env = _env(root)
    invocations = workloads.generate(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        for i, inv in enumerate(invocations):
            inv["path"] = os.path.join(workdir, f"{i:02d}-{inv['name']}.ini")
            with open(inv["path"], "w", encoding="utf-8") as f:
                f.write(inv["config"])
        paths = sorted({inv["path"] for inv in invocations})
        walls, phases = setup_samples(env, paths)

        trace_dir = os.path.join(root, ".perfbench-traces")
        if args.trace:
            os.makedirs(trace_dir, exist_ok=True)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump({"root": root, "workdir": workdir, "workload": args.workload,
                       "seconds": args.seconds, "trace": args.trace,
                       "trace_dir": trace_dir, "invocations": invocations}, f)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            env=env, capture_output=True, text=True,
            timeout=args.seconds + WORKER_GRACE_S)
        if proc.returncode != 0:
            return _fail(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in res["failures"]:
        print(f"FAIL {line}")
    print("machine " + json.dumps(res["machine"], sort_keys=True))
    setup_s = statistics.median(walls)
    if args.trace:
        metrics = dict(res["per_layer"])
        for key, name in (("import_ms", "cli.import_ms"), ("load_ms", "config.load_ms"),
                          ("build_ms", "config.build_ms")):
            metrics[name] = statistics.median(p[key] for p in phases)
        for statement, holds in res["identities"]:
            print(f"identity {statement}: {'holds' if holds else 'does not hold'}")
        for name, values in res["inexact_counts"].items():
            print(f"FAIL exact count {name} differs between traced passes: {values}")
        units = dict(res["per_layer_units"], **{
            "cli.import_ms": "ms", "config.load_ms": "ms", "config.build_ms": "ms"})
        print(f"traced passes {res['traced_passes']}, untraced passes {res['passes']}")
    else:
        metrics = {"wall_rel": res["wall_rel"], "setup_s": setup_s,
                   "peak_rss_mb": res["peak_rss_mb"]}
        units = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"passes {res['passes']} (median reported), setup samples {len(walls)}")
        for name, value, unit in (
                ("wall_s", res["wall_s"], "s"), ("setup_s", setup_s, "s"),
                ("peak_rss_mb", res["peak_rss_mb"], "MB"),
                ("error_rate", res["failed"] / res["attempted"], "fraction"),
                (THROUGHPUT_NAME[args.workload], res["throughput_per_s"], "1/s"),
                ("baseline_wall_s", res["baseline_wall_s"], "s"),
                ("wall_rel", res["wall_rel"], "ratio")):
            print(f"metric {name} {value:.6g} {unit}")
    correct = res["failed"] == 0 and not (args.trace and res["inexact_counts"])
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
