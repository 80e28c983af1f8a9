"""Seeded workload generators.

Each workload turns a seed into a list of CLI invocations on generated INI
configs.  Only the standard library is used, so the same seed gives the same
configs on every machine and Python version (``random.Random`` is a fixed
Mersenne Twister).  Problem sizes (grid cells, steps, k points, map cells)
are fixed per workload; the seed moves only the physical parameters, so the
work done per pass does not depend on the seed.
"""

from __future__ import annotations

import math
import random

# The calibrated working-unit pseudo-species shared by the bundled band_*
# and stable_dense configs.
_CALIBRATED_PR = {
    "kind": "peng_robinson",
    "T": 103.71705908840643,
    "R": 1.0,
    "k12": -12.609256292891342,
    "lambda_thermal": 1.0,
    "species1": "solute",
    "species1_Tc": 205.04572205633292,
    "species1_Pc": 1.0368467543128044,
    "species1_acentric": 0.3,
    "species1_molar_mass": 13942.138920843885,
    "species2": "solvent",
    "species2_Tc": 106.10171406985489,
    "species2_Pc": 43938.461124579924,
    "species2_acentric": 0.3,
    "species2_molar_mass": 1.0,
    "kappa_rho1_rho1": 1e-4,
    "kappa_rho_rho1": 0.0,
    "kappa_rho_rho": 1.06e-4,
}

# (name, rho0, rho1_0, Re_s, Re_v, mode expected to carry an unstable band)
_STABILITY_STATES = (
    ("composition", 400.0, 2.0, 1.0, 3.0, "alpha1"),
    ("density", 1000.0, 0.025, 1.0, 3.0, "alpha2"),
    ("stable", 400.0, 200.0, 1e6, 3e6, None),
)

RK4_N = 256
RK4_STEPS = 240
RK4_DT = 7e-5
RK4_DIAGNOSTICS_EVERY = 8

QUASI_N = 1024
QUASI_STEPS = 500
QUASI_DT = 1.2e-4
QUASI_DIAGNOSTICS_EVERY = 2
QUASI_SNAPSHOT_EVERY = 125
QUASI_LENGTH = 20.0 * math.pi

SWEEP_POINTS = 400
SWEEP_K_MIN = 1e-3
SWEEP_K_MAX = 1e3

MAP_CELLS_PER_AXIS = 120


def _ini(sections: dict) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        for key, value in values.items():
            if isinstance(value, float):
                value = repr(value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _simulate_section(length, n, dt, steps, integrator, diagnostics_every,
                      mode, track, snapshot_every=0):
    return {
        "length": float(length), "n": n, "dt": float(dt),
        "t_end": float(steps * dt), "integrator": integrator,
        "diagnostics_every": diagnostics_every, "seed_eigenvector": True,
        "eigen_track": "alpha1", "perturb_mode": mode,
        "perturb_amplitude": 1e-7, "track": f"{track}:{mode}",
        "snapshot_every": snapshot_every,
    }


def _invocation(command, name, text, **meta):
    return {"command": command, "name": name, "config": text, **meta}


def _simulate_invocation(name, text, n, steps, diagnostics_every, mode, length,
                         field, integrator):
    return _invocation("simulate", name, text, n=n, steps=steps,
                       diagnostics_every=diagnostics_every, mode=mode,
                       length=length, track=f"{field}_{mode}",
                       integrator=integrator)


def transient_rk4(rng: random.Random) -> list:
    """RK4 at n=256 on a locally and a globally conserving quadratic mixture,
    each seeded along one in-band alpha1 eigenvector."""
    length = 2.0 * math.pi
    out = []
    # composition spinodal in (rho1, rho): C11 < 0, stiff total density
    c11, c12, c22 = rng.uniform(-0.55, -0.45), rng.uniform(-0.03, 0.03), \
        rng.uniform(1.9, 2.1)
    kap = rng.uniform(1.9e-4, 2.1e-4)
    re_s = rng.uniform(6.0, 7.5)
    mode = rng.randint(4, 8)
    local = _ini({
        "free_energy": {"kind": "quadratic", "c11": c11, "c12": c12, "c22": c22,
                        "kappa_rho1_rho1": kap, "kappa_rho_rho1": 0.0,
                        "kappa_rho_rho": kap},
        "model": {"class": "compressible_local",
                  "M11": rng.uniform(0.045, 0.05), "Re_s": re_s,
                  "Re_v": rng.uniform(9.0, 11.0)},
        "state": {"rho0": rng.uniform(2.9, 3.1), "rho1_0": rng.uniform(0.95, 1.05)},
        "simulate": _simulate_section(length, RK4_N, RK4_DT, RK4_STEPS, "rk4",
                                      RK4_DIAGNOSTICS_EVERY, mode, "rho1"),
    })
    out.append(_simulate_invocation("rk4_local", local, RK4_N, RK4_STEPS,
                                    RK4_DIAGNOSTICS_EVERY, mode, length, "rho1", "rk4"))
    # the same kind of energy written in (rho1, rho2): indefinite C, p.C.p > 0
    a, b, c = rng.uniform(1.4, 1.6), rng.uniform(1.95, 2.05), rng.uniform(1.9, 2.1)
    m_diag, m_off = rng.uniform(0.045, 0.05), rng.uniform(-0.025, -0.015)
    kap = rng.uniform(1.9e-4, 2.1e-4)
    mode = rng.randint(4, 8)
    glob = _ini({
        "free_energy": {"kind": "quadratic", "c11": a, "c12": b, "c22": c,
                        "kappa_rho1_rho1": kap, "kappa_rho1_rho2": 0.0,
                        "kappa_rho2_rho2": kap},
        "model": {"class": "compressible_global", "M11": m_diag, "M12": m_off,
                  "M22": m_diag, "Re_s": rng.uniform(6.0, 7.5),
                  "Re_v": rng.uniform(9.0, 11.0)},
        "state": {"rho1_0": rng.uniform(0.95, 1.05), "rho2_0": rng.uniform(1.9, 2.1)},
        "simulate": _simulate_section(length, RK4_N, RK4_DT, RK4_STEPS, "rk4",
                                      RK4_DIAGNOSTICS_EVERY, mode, "rho1"),
    })
    out.append(_simulate_invocation("rk4_global", glob, RK4_N, RK4_STEPS,
                                    RK4_DIAGNOSTICS_EVERY, mode, length, "rho1", "rk4"))
    return out


def transient_quasi(rng: random.Random) -> list:
    """Semi-implicit quasi-incompressible run at n=1024 with diagnostics every
    other step and a few field snapshots."""
    mode = rng.randint(20, 40)          # k = mode / 10, inside 0 < k < ~10
    text = _ini({
        "free_energy": {"kind": "quadratic", "h_phi_phi": rng.uniform(-1.1, -0.9),
                        "kappa_phi_phi": rng.uniform(0.009, 0.011)},
        "model": {"class": "quasi_incompressible", "M11": rng.uniform(0.09, 0.11),
                  "Re_s": rng.uniform(9.0, 11.0), "Re_v": rng.uniform(9.0, 11.0),
                  "rho_hat_1": rng.uniform(1.9, 2.1), "rho_hat_2": 1.0},
        "state": {"phi0": rng.uniform(0.37, 0.43)},
        "simulate": _simulate_section(QUASI_LENGTH, QUASI_N, QUASI_DT, QUASI_STEPS,
                                      "semi_implicit", QUASI_DIAGNOSTICS_EVERY,
                                      mode, "phi", QUASI_SNAPSHOT_EVERY),
    })
    return [_simulate_invocation("quasi", text, QUASI_N, QUASI_STEPS,
                                 QUASI_DIAGNOSTICS_EVERY, mode, QUASI_LENGTH, "phi",
                                 "semi_implicit")]


def stability(rng: random.Random) -> list:
    """Sweep and verify one composition-unstable, one density-unstable and
    one stable Peng-Robinson state near the bundled calibrated configs."""
    out = []
    for name, rho0, rho1_0, re_s, re_v, unstable in _STABILITY_STATES:
        re_s *= rng.uniform(0.95, 1.05)
        rho0 *= rng.uniform(0.995, 1.005)
        text = _ini({
            "free_energy": dict(_CALIBRATED_PR),
            "model": {"class": "compressible_local", "M11": 1e-4,
                      "Re_s": re_s, "Re_v": re_v},
            "state": {"rho0": rho0, "rho1_0": rho1_0 * rng.uniform(0.98, 1.02)},
            "sweep": {"k_min": SWEEP_K_MIN, "k_max": SWEEP_K_MAX,
                      "points": SWEEP_POINTS, "spacing": "log",
                      "small_k_max": 0.01, "large_k_min": 100.0},
        })
        out.append(_invocation("sweep", f"sweep_{name}", text, points=SWEEP_POINTS,
                               unstable_mode=unstable, re_s=re_s, rho0=rho0))
        out.append(_invocation("verify", f"sweep_{name}", text))
    return out


def concavity_map(rng: random.Random) -> list:
    """Definiteness map of CO2 / n-decane from the bundled species data on a
    120 x 120 (rho1, rho) grid, the size of the bundled map config."""
    text = _ini({
        "free_energy": {"kind": "peng_robinson", "T": rng.uniform(295.0, 305.0),
                        "R": 8.31446261815324, "k12": rng.uniform(0.11, 0.12),
                        "lambda_thermal": 1.0, "species1": "n-decane",
                        "species2": "CO2", "kappa_rho1_rho1": 1e-4,
                        "kappa_rho_rho1": 0.0, "kappa_rho_rho": 1.06e-4},
        "model": {"class": "compressible_local", "M11": 1e-4, "Re_s": 1.0,
                  "Re_v": 3.0},
        "state": {"rho0": 400.0, "rho1_0": 2.0},
        "map": {"rho1_min": 2.0, "rho1_max": 500.0, "rho_min": 2.0,
                "rho_max": 500.0, "n_rho1": MAP_CELLS_PER_AXIS,
                "n_rho": MAP_CELLS_PER_AXIS},
    })
    return [_invocation("concavity-map", "map", text,
                        cells=MAP_CELLS_PER_AXIS * MAP_CELLS_PER_AXIS)]


WORKLOADS = {
    "transient_rk4": transient_rk4,
    "transient_quasi": transient_quasi,
    "stability": stability,
    "concavity_map": concavity_map,
}


def generate(workload: str, seed: int) -> list:
    """The invocations of one pass of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
