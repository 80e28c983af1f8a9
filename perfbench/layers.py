"""Per-layer metrics of one traced pass, computed from its spans.

Span names are ``<layer>.<function>`` or ``<layer>.<Class>.<method>``; the
queries below match on the layer and the last name component, so they hold
for every model class and free-energy kind.  Counts marked exact must repeat
bit-for-bit across traced passes of one seed (the worker asserts it).
"""

from __future__ import annotations

import numpy as np

UNITS = {
    "grid.derivative_calls_per_rhs": "calls/rhs", "grid.fft_calls_per_step": "calls/step",
    "grid.derivative_us": "us",
    "models.rhs_calls": "count", "models.rhs_us_p50": "us", "models.rhs_us_p99": "us",
    "models.rhs_self_us": "us", "models.mu_evals_per_rhs": "evals/rhs",
    "models.diagnostics_ms": "ms", "models.solve_pressure_calls_per_rhs": "calls/rhs",
    "models.solve_pressure_us": "us", "models.linearization_calls_per_k": "calls/k",
    "models.linearization_us": "us",
    "free_energy.gradient_calls": "count", "free_energy.gradient_us": "us",
    "free_energy.hessian_calls": "count", "free_energy.hessian_us": "us",
    "free_energy.domain_checks_per_cell": "calls/cell",
    "free_energy.concavity_map_s": "s",
    "simulator.steps": "count", "simulator.run_s": "s",
    "simulator.run_self_ms_per_step": "ms", "simulator.seed_ms": "ms",
    "simulator.dt_guard_ms": "ms",
    "dispersion.eigensolves": "count", "dispersion.eigensolves_per_k": "calls/k",
    "dispersion.growth_rates_us_p50": "us", "dispersion.growth_rates_us_p99": "us",
    "dispersion.assemble_pencil_us": "us", "dispersion.sweep_self_ms": "ms",
    "dispersion.bisection_steps": "count", "dispersion.unstable_bands_ms": "ms",
    "dispersion.asymptotics_ms": "ms",
    "cli.self_s.simulate": "s", "cli.self_s.sweep": "s", "cli.self_s.verify": "s",
    "cli.self_s.concavity_map": "s", "cli.bytes_written": "bytes",
    "tracing_overhead": "ratio",
}

# metrics whose value is a ratio of call counts fixed by the inputs
EXACT = (
    "grid.derivative_calls_per_rhs", "grid.fft_calls_per_step",
    "models.rhs_calls", "models.mu_evals_per_rhs",
    "models.solve_pressure_calls_per_rhs", "models.linearization_calls_per_k",
    "free_energy.gradient_calls", "free_energy.hessian_calls",
    "free_energy.domain_checks_per_cell", "simulator.steps",
    "dispersion.eigensolves", "dispersion.eigensolves_per_k",
    "dispersion.bisection_steps", "cli.bytes_written",
)

CLI_COMMANDS = {"simulate": "cmd_simulate", "sweep": "cmd_sweep",
                "verify": "cmd_verify", "concavity-map": "cmd_concavity_map"}


RHS_PER_STEP = {"rk4": 4, "semi_implicit": 1}


def identities(metrics, invocations) -> list:
    """(statement, holds) for the count identities of the seed code: one RHS
    per integrator stage, at least one linearization per swept k, and one
    domain check per map cell.  They describe the code, not a requirement,
    so a change that removes redundant calls may break them on purpose."""
    out = []
    rhs = sum(inv["steps"] * RHS_PER_STEP[inv["integrator"]]
              for inv in invocations if inv["command"] == "simulate")
    if rhs:
        out.append((f"models.rhs_calls == {rhs} (steps x stages)",
                    metrics["models.rhs_calls"] == rhs))
    if any(inv["command"] == "sweep" for inv in invocations):
        out.append(("models.linearization_calls_per_k >= 1",
                    metrics["models.linearization_calls_per_k"] >= 1))
    if any(inv["command"] == "concavity-map" for inv in invocations):
        out.append(("free_energy.domain_checks_per_cell == 1",
                    metrics["free_energy.domain_checks_per_cell"] == 1))
    return out


def _ratio(num, den):
    return float(num) / den if den else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if values.size else 0.0


def _mean(values):
    return float(values.mean()) if values.size else 0.0


def compute(t, invocations) -> dict:
    """Per-layer metrics of one pass; ``t`` is a :class:`tracer.SpanTable`."""
    steps = sum(inv["steps"] for inv in invocations if inv["command"] == "simulate")
    k_points = sum(inv["points"] for inv in invocations if inv["command"] == "sweep")
    cells = sum(inv["cells"] for inv in invocations
                if inv["command"] == "concavity-map")
    d = t.dur
    m = {}

    run = t.outer(t.select("simulator", "run"))
    rhs = t.outer(t.select("models", "rhs_1d"))
    n_rhs = int(rhs.sum())
    deriv = t.select("grid", ("dx1", "dx2"))
    m["grid.derivative_calls_per_rhs"] = _ratio(t.under(deriv, rhs).sum(), n_rhs)
    m["grid.fft_calls_per_step"] = _ratio(t.fft[run].sum(), steps)
    m["grid.derivative_us"] = _mean(d[deriv]) * 1e6

    m["models.rhs_calls"] = n_rhs
    m["models.rhs_us_p50"] = _pct(d[rhs], 50) * 1e6
    m["models.rhs_us_p99"] = _pct(d[rhs], 99) * 1e6
    below = t.select(("grid", "free_energy"))
    m["models.rhs_self_us"] = _ratio(d[rhs].sum() - t.foreign_time(rhs, below),
                                     n_rhs) * 1e6
    mu = (t.select("free_energy", "chemical_potentials")
          | t.select("models", "mu_phi"))
    m["models.mu_evals_per_rhs"] = _ratio(t.under(t.outer(mu), run).sum(), n_rhs)
    records = t.under(t.outer(t.select("models", "total_mass")), run)
    diag = t.under(t.outer(t.select(
        "models", ("total_mass", "total_energy", "energy_dissipation_rate"))), run)
    m["models.diagnostics_ms"] = _ratio(d[diag].sum(), records.sum()) * 1e3
    pressure = t.outer(t.select("models", "solve_pressure"))
    m["models.solve_pressure_calls_per_rhs"] = _ratio(pressure.sum(), n_rhs)
    m["models.solve_pressure_us"] = _mean(d[pressure]) * 1e6
    sweep = t.outer(t.select("dispersion", "sweep"))
    lin = t.select("models", "linearization")
    m["models.linearization_calls_per_k"] = _ratio(t.under(lin, sweep).sum(),
                                                   k_points)
    m["models.linearization_us"] = _mean(d[lin]) * 1e6

    grad = t.outer(t.select("free_energy", "gradient"))
    hess = t.outer(t.select("free_energy", "hessian"))
    cmap = t.outer(t.select("free_energy", "concavity_map"))
    m["free_energy.gradient_calls"] = int(grad.sum())
    m["free_energy.gradient_us"] = _mean(d[grad]) * 1e6
    m["free_energy.hessian_calls"] = int(hess.sum())
    m["free_energy.hessian_us"] = _mean(d[hess]) * 1e6
    m["free_energy.domain_checks_per_cell"] = _ratio(
        t.under(t.outer(t.select("free_energy", "in_domain")), cmap).sum(), cells)
    m["free_energy.concavity_map_s"] = float(d[cmap].sum())

    m["simulator.steps"] = steps
    m["simulator.run_s"] = float(d[run].sum())
    m["simulator.run_self_ms_per_step"] = _ratio(
        d[run].sum() - t.foreign_time(run, t.select(("models", "grid"))), steps) * 1e3
    m["simulator.seed_ms"] = float(d[t.outer(t.select(
        "simulator", "eigenvector_perturbations"))].sum()) * 1e3
    m["simulator.dt_guard_ms"] = float(d[t.outer(t.select(
        "simulator", "stable_dt_estimate"))].sum()) * 1e3

    eig = t.outer(t.select("dispersion", "growth_rates"))
    m["dispersion.eigensolves"] = int(eig.sum())
    m["dispersion.eigensolves_per_k"] = _ratio(t.under(eig, sweep).sum(), k_points)
    m["dispersion.growth_rates_us_p50"] = _pct(d[eig], 50) * 1e6
    m["dispersion.growth_rates_us_p99"] = _pct(d[eig], 99) * 1e6
    m["dispersion.assemble_pencil_us"] = _mean(
        d[t.select("dispersion", "assemble_pencil")]) * 1e6
    child_time = np.zeros(d.size)
    has_parent = t.parent >= 0
    np.add.at(child_time, t.parent[has_parent], d[has_parent])
    m["dispersion.sweep_self_ms"] = float((d[sweep] - child_time[sweep]).sum()) * 1e3
    m["dispersion.bisection_steps"] = int(t.under(
        t.select("dispersion", "track_root_at"),
        t.select("dispersion", "refine_edge")).sum())
    m["dispersion.unstable_bands_ms"] = float(d[t.outer(t.select(
        "dispersion", "unstable_bands"))].sum()) * 1e3
    m["dispersion.asymptotics_ms"] = float(d[t.outer(t.select(
        "dispersion", ("asymptotic_small_k", "asymptotic_large_k")))].sum()) * 1e3

    layers = t.select(("config", "grid", "free_energy", "models", "simulator",
                       "dispersion"))
    for command, fn in CLI_COMMANDS.items():
        cmd = t.outer(t.select("cli", fn))
        m[f"cli.self_s.{command.replace('-', '_')}"] = float(
            d[cmd].sum() - t.foreign_time(cmd, layers))
    return m
