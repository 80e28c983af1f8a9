"""Measure one workload in one warm process.

Started by ``run.py`` as ``python3 perfbench/worker.py SPEC.json`` with
BLAS/OpenMP capped at one thread.  It checks the generated configs, runs one
warm-up pass whose outputs are gated, then runs timed passes one after the
other until the time budget is spent.  Every later invocation must exit 0
and reproduce the warm-up output byte for byte.

Timed passes of the checkout alternate with passes of ``pfmix_baseline``, a
frozen copy of the package taken when the benchmark was defined, on the
same configs.  Each checkout pass is divided by the mean of the baseline
passes on either side of it.  On a shared host the CPU speed drifts by tens
of percent within minutes; both sides of the ratio see the same drift, so
the ratio stays steady while a change to ``src/pfmix`` moves it fully.

With tracing on, untraced and traced checkout passes alternate instead; the
traced ones give the per-layer metrics and the ratio of the two medians
gives the tracing overhead.

Prints one JSON object on its last line.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

MIN_PASSES = 3

# The command whose wall time the workload's throughput divides, and the
# invocation field that counts its units of work.
PRIMARY_WORK = {"simulate": lambda inv: inv["n"] * inv["steps"],
                "sweep": lambda inv: inv["points"],
                "concavity-map": lambda inv: inv["cells"]}


class GeneratorError(Exception):
    """A generated config that must not be measured."""


class BaselineError(Exception):
    """The frozen baseline failed on a generated config."""


def _import_pfmix(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import pfmix.cli  # noqa: F401  (imports every layer module)
    from pfmix import config, dispersion, errors, simulator

    expected = os.path.join(root, "src", "pfmix")
    if os.path.dirname(os.path.abspath(pfmix.cli.__file__)) != expected:
        raise ImportError(f"pfmix imported from {pfmix.cli.__file__}, not {expected}")
    return types.SimpleNamespace(cli=pfmix.cli, config=config, errors=errors,
                                 dispersion=dispersion, simulator=simulator)


def validate(invocations, pf):
    """Every config parses, builds, linearizes inside the energy domain and,
    for transient runs, keeps dt under the explicit stability guard."""
    for inv in invocations:
        try:
            cfg = pf.config.load_config(inv["path"])
            model, state = pf.config.build_all(cfg)
            model.linearization(state)
            if inv["command"] == "simulate":
                sec = cfg.sections["simulate"]
                if round(sec["t_end"] / sec["dt"]) != inv["steps"]:
                    raise GeneratorError("t_end / dt does not give the planned steps")
                grid = pf.simulator.PeriodicGrid1D(sec["length"], sec["n"])
                guard = pf.simulator.stable_dt_estimate(model, state, grid)
                if not sec["dt"] < guard:
                    raise GeneratorError(f"dt {sec['dt']} not below guard {guard}")
        except (pf.errors.PfmixError, GeneratorError) as exc:
            raise GeneratorError(f"{inv['name']}: {type(exc).__name__}: {exc}") from exc


def _digest(path):
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(path)) if os.path.isdir(path) else ():
        with open(os.path.join(path, name), "rb") as f:
            data = f.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def run_pass(cli, invocations, outroot):
    """Run every invocation once; returns (records, outdirs)."""
    records, outdirs = [], []
    for i, inv in enumerate(invocations):
        out = os.path.join(outroot, f"{i:02d}-{inv['name']}-{inv['command']}")
        argv = [inv["command"], "--config", inv["path"], "--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # an uncaught error is a failed invocation
                rc = -1
                stderr.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        digest, size = _digest(out)
        records.append({"rc": rc, "s": elapsed, "digest": digest, "bytes": size,
                        "stderr": stderr.getvalue()[-2000:]})
        outdirs.append(out)
    return records, outdirs


def _pass_summary(records, invocations):
    """Wall time of the pass and work per second of its primary command."""
    work = sum(PRIMARY_WORK[inv["command"]](inv) for inv in invocations
               if inv["command"] in PRIMARY_WORK)
    busy = sum(r["s"] for r, inv in zip(records, invocations)
               if inv["command"] in PRIMARY_WORK)
    return {"wall_s": sum(r["s"] for r in records), "throughput_per_s": work / busy}


def _baseline_pass(cli, invocations, outroot):
    """Wall time of one pass of the frozen baseline, which must not fail."""
    records, _ = run_pass(cli, invocations, outroot)
    shutil.rmtree(outroot)
    for rec, inv in zip(records, invocations):
        if rec["rc"] != 0:
            raise BaselineError(f"{inv['name']} {inv['command']} exited {rec['rc']}: "
                                f"{rec['stderr'].strip()}")
    return sum(r["s"] for r in records)


def machine_facts():
    import numpy as np
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    caps = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas(np), "scipy_blas": blas(scipy),
        "fft": "numpy.fft (pocketfft)" if hasattr(np.fft, "_pocketfft_umath")
        else "numpy.fft", "thread_caps": caps,
    }


def measure(spec):
    workdir, invocations, trace = spec["workdir"], spec["invocations"], spec["trace"]
    pf = _import_pfmix(spec["root"])
    validate(invocations, pf)
    warm_records, warm_dirs = run_pass(pf.cli, invocations,
                                       os.path.join(workdir, "warmup"))
    # read before the baseline is imported, so only the checkout counts
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scratch = os.path.join(workdir, "baseline")
    if trace:
        import layers
        import tracer as tracing

        tracer = tracing.Tracer()
    else:
        baseline = importlib.import_module("pfmix_baseline.cli")
        _baseline_pass(baseline, invocations, scratch)        # warm-up
        ref_before = _baseline_pass(baseline, invocations, scratch)

    plain, traced, per_layer, all_records = [], [], [], [warm_records]
    deadline = time.perf_counter() + spec["seconds"]
    n = 0
    while len(plain) < MIN_PASSES or len(traced) < (MIN_PASSES if trace else 0) \
            or time.perf_counter() < deadline:
        n += 1
        outroot = os.path.join(workdir, f"pass-{n}")
        if trace and n % 2 == 0:
            tracer.reset()
            tracer.install()
            try:
                records, _ = run_pass(pf.cli, invocations, outroot)
            finally:
                tracer.uninstall()
            metrics = layers.compute(tracer.table(), invocations)
            metrics["cli.bytes_written"] = sum(r["bytes"] for r in records)
            per_layer.append(metrics)
            traced.append(_pass_summary(records, invocations))
        else:
            records, _ = run_pass(pf.cli, invocations, outroot)
            summary = _pass_summary(records, invocations)
            if not trace:
                ref_after = _baseline_pass(baseline, invocations, scratch)
                summary["baseline_wall_s"] = 0.5 * (ref_before + ref_after)
                summary["wall_rel"] = summary["wall_s"] / summary["baseline_wall_s"]
                ref_before = ref_after
            plain.append(summary)
        all_records.append(records)
        shutil.rmtree(outroot)

    import gates
    gate_fails = gates.check(invocations, warm_dirs, pf)
    failures, attempted, failed = [], 0, 0
    for p, records in enumerate(all_records):
        for i, (rec, inv) in enumerate(zip(records, invocations)):
            attempted += 1
            why = []
            if rec["rc"] != 0:
                why.append(f"exit {rec['rc']}: {rec['stderr'].strip()}")
            elif rec["digest"] != warm_records[i]["digest"]:
                why.append("output differs from the gated warm-up output")
            why += gate_fails[i]
            if why:
                failed += 1
                if p == 0 or len(failures) < 20:
                    failures += [f"pass {p} {inv['name']} {inv['command']}: {w}"
                                 for w in why]

    result = {"attempted": attempted, "failed": failed, "failures": failures,
              "machine": machine_facts(), "passes": len(plain),
              "peak_rss_mb": peak_rss_mb,
              **{k: statistics.median(p[k] for p in plain) for k in plain[0]}}
    if trace:
        tracer.dump(os.path.join(spec["trace_dir"], f"{spec['workload']}.tsv"))
        exact = {k: [m[k] for m in per_layer] for k in layers.EXACT}
        result["inexact_counts"] = {k: v for k, v in exact.items() if len(set(v)) > 1}
        result["per_layer"] = {k: statistics.median(m[k] for m in per_layer)
                               for k in per_layer[0]}
        result["per_layer"]["tracing_overhead"] = (
            statistics.median(p["wall_s"] for p in traced) / result["wall_s"])
        result["traced_passes"] = len(traced)
        result["per_layer_units"] = layers.UNITS
        result["identities"] = layers.identities(per_layer[0], invocations)
    return result


def main():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    try:
        result = measure(spec)
    except (GeneratorError, BaselineError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
