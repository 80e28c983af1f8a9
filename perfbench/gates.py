"""Correctness gates on the CLI outputs of one pass.

Each gate checks an output against an oracle that does not share the code
path that produced it:

* simulate: mass drift and energy monotonicity recomputed from trace.csv,
  the CLI's own verdict lines (as in acceptance criterion 9), and a growth
  rate fitted here from the tracked amplitude, compared with a root of the
  closed-form scalar dispersion polynomial;
* sweep: tracked roots at sampled k are the roots of the closed-form
  polynomial (one to one, to 1e-9 of the largest root), the
  viscous root equals -k^2 / (Re_s rho0), every refined band edge brackets a
  sign change of the closed-form root, and the unstable mode is the one the
  generator aimed for;
* concavity-map: sampled cells match an eigvalsh classification of
  ``free_energy.hessian`` made here;
* verify: every line is PASS.

``check`` returns one list of failure messages per invocation.
"""

from __future__ import annotations

import csv
import math
import os
import re

import numpy as np

MASS_DRIFT_MAX = 1e-10
REL_ERROR_MAX = 0.05
ENERGY_TOL = 1e-8          # allowed energy increase, relative to max(1, |E0|)
ROOT_MATCH_MAX = 1e-9      # tracked vs closed-form root, relative to max |root|
VISCOUS_REL_MAX = 1e-10
PENCIL_VS_POLY_MAX = 1e-6  # predicted root vs nearest closed-form root, relative
EDGE_OFFSET = 1e-5         # band edges are bisected to 1e-6 relative
SINGULAR_TOL = 1e-10       # |eigenvalue| <= tol * ||H||_F counts as singular
SWEEP_SAMPLES = 24
MAP_SAMPLES = 400


def _read_text(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _poly_roots(dispersion, model, state, k):
    """Roots of the closed-form scalar dispersion polynomial at k."""
    coeffs = dispersion.scalar_dispersion_coefficients(model, state, k)
    return np.roots(coeffs[::-1])


def _simulate(inv, out, pf):
    fails = []
    verdict = _read_text(os.path.join(out, "verdict.txt"))
    drift = re.search(r"^MASS_DRIFT (\S+)", verdict, re.M)
    rel = re.search(r"REL_ERROR (\S+)", verdict)
    pred = re.search(r"ALPHA_PREDICTED (\S+) (\S+)", verdict)
    if not drift or float(drift.group(1)) > MASS_DRIFT_MAX:
        fails.append(f"verdict MASS_DRIFT above {MASS_DRIFT_MAX}: {drift and drift.group(1)}")
    if not re.search(r"^ENERGY_MONOTONE yes", verdict, re.M):
        fails.append("verdict ENERGY_MONOTONE is not yes")
    if not rel or not float(rel.group(1)) < REL_ERROR_MAX:
        fails.append(f"verdict REL_ERROR not below {REL_ERROR_MAX}: {rel and rel.group(1)}")
    if not pred:
        return fails + ["verdict has no ALPHA_PREDICTED"]

    header, rows = _read_csv(os.path.join(out, "trace.csv"))
    data = np.array(rows, dtype=float)
    expected_rows = inv["steps"] // inv["diagnostics_every"] + 1
    if data.shape[0] != expected_rows:
        fails.append(f"trace.csv has {data.shape[0]} rows, expected {expected_rows}")
    t, mass, energy = data[:, 0], data[:, 1], data[:, 2]
    own_drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
    if own_drift > MASS_DRIFT_MAX:
        fails.append(f"mass drift from trace.csv {own_drift:.3e}")
    if np.any(np.diff(energy) > ENERGY_TOL * max(1.0, abs(energy[0]))):
        fails.append("energy increases in trace.csv")

    cfg = pf.config.load_config(inv["path"])
    model, state = pf.config.build_all(cfg)
    k = 2.0 * math.pi * inv["mode"] / inv["length"]
    roots = _poly_roots(pf.dispersion, model, state, k)
    predicted = complex(float(pred.group(1)), float(pred.group(2)))
    closed = roots[np.argmin(np.abs(roots - predicted))]
    if abs(closed - predicted) > PENCIL_VS_POLY_MAX * max(abs(closed), 1e-300):
        fails.append(f"predicted root {predicted} is no closed-form root (nearest {closed})")
    amp = data[:, header.index(f"re_{inv['track']}")] \
        + 1j * data[:, header.index(f"im_{inv['track']}")]
    skip = len(t) // 10
    slope = np.polyfit(t[skip:], np.log(np.abs(amp[skip:])), 1)[0]
    own_rel = abs(slope - closed.real) / max(abs(closed.real), 1e-300)
    if not own_rel < REL_ERROR_MAX:
        fails.append(f"fitted growth {slope:.6g} vs closed-form {closed.real:.6g}: "
                     f"rel {own_rel:.3e}")
    return fails


def _sweep(inv, out, pf):
    fails = []
    header, rows = _read_csv(os.path.join(out, "dispersion.csv"))
    if len(rows) != inv["points"]:
        fails.append(f"dispersion.csv has {len(rows)} rows, expected {inv['points']}")
    names = [h[3:] for h in header if h.startswith("re_")]
    labels = {nm: rows[0][header.index(f"label_{nm}")] for nm in names}
    ks = np.array([float(r[0]) for r in rows])
    roots = np.array([[complex(float(r[header.index(f"re_{nm}")]),
                               float(r[header.index(f"im_{nm}")])) for nm in names]
                      for r in rows])
    cfg = pf.config.load_config(inv["path"])
    model, state = pf.config.build_all(cfg)
    viscous = [j for j, nm in enumerate(names) if labels[nm] == "viscous"]
    if len(viscous) != 1:
        fails.append(f"expected one viscous track, labels {labels}")
    for i in np.linspace(0, len(rows) - 1, SWEEP_SAMPLES).astype(int):
        closed = _poly_roots(pf.dispersion, model, state, ks[i])
        gap = np.abs(roots[i][:, None] - closed[None, :])
        nearest = np.argmin(gap, axis=1)
        worst = gap.min(axis=1).max() / np.abs(closed).max()
        if worst > ROOT_MATCH_MAX or len(set(nearest)) != closed.size:
            fails.append(f"k={ks[i]:.6g}: tracked roots {roots[i]} are not the "
                         f"closed-form roots {closed} (worst {worst:.3e})")
        if len(viscous) == 1:
            exact = -ks[i] ** 2 / (inv["re_s"] * inv["rho0"])
            got = roots[i, viscous[0]]
            if abs(got - exact) > VISCOUS_REL_MAX * abs(exact):
                fails.append(f"k={ks[i]:.6g}: viscous root {got} != {exact}")

    summary = _read_text(os.path.join(out, "summary.txt"))
    banded = {}
    for nm, spans in re.findall(r"^(\w+) unstable bands: (.*)$", summary, re.M):
        banded[nm] = [tuple(float(x) for x in pair)
                      for pair in re.findall(r"\(([^,]+), ([^)]+)\)", spans)]
    want = {inv["unstable_mode"]} if inv["unstable_mode"] else set()
    if set(banded) != want:
        fails.append(f"unstable modes {sorted(banded)}, generator aimed for {sorted(want)}")
    for nm, bands in banded.items():
        j = names.index(nm)
        for lo, hi in bands:
            for edge, rising in ((lo, True), (hi, False)):
                if math.isclose(edge, ks[0], rel_tol=1e-12) \
                        or math.isclose(edge, ks[-1], rel_tol=1e-12):
                    continue            # open at the grid end, not refined
                near = roots[np.argmin(np.abs(np.log(ks / edge))), j]
                signs = []
                for kk in (edge * (1 - EDGE_OFFSET), edge * (1 + EDGE_OFFSET)):
                    rts = _poly_roots(pf.dispersion, model, state, kk)
                    signs.append(rts[np.argmin(np.abs(rts - near))].real > 0.0)
                if signs != [not rising, rising]:
                    fails.append(f"{nm} band edge {edge:.9g} does not bracket a "
                                 f"sign change")
    return fails


def _classify(H):
    """Map codes a Hessian may get: 1 positive definite, 2 indefinite,
    3 negative definite, 4 singular (the CLI's concavity.csv codes)."""
    H = 0.5 * (H + H.T)
    scale = np.linalg.norm(H)
    if scale == 0.0:
        return {4}
    eig = np.linalg.eigvalsh(H)
    tol = SINGULAR_TOL * scale
    small = np.min(np.abs(eig))
    if np.all(eig > 0):
        sign = 1
    elif np.all(eig < 0):
        sign = 3
    else:
        sign = 2
    if small <= tol / 10:
        return {4}
    if small <= tol * 10:
        return {4, sign}        # within a decade of the singular threshold
    return {sign}


def _concavity_map(inv, out, pf):
    fails = []
    _, rows = _read_csv(os.path.join(out, "concavity.csv"))
    if len(rows) != inv["cells"]:
        return [f"concavity.csv has {len(rows)} rows, expected {inv['cells']}"]
    cfg = pf.config.load_config(inv["path"])
    model, _ = pf.config.build_all(cfg)
    sec = cfg.sections["map"]
    r1 = np.linspace(sec["rho1_min"], sec["rho1_max"], sec["n_rho1"])
    r = np.linspace(sec["rho_min"], sec["rho_max"], sec["n_rho"])
    counts = [0] * 5
    for row in rows:
        counts[int(row[2])] += 1
    summary = _read_text(os.path.join(out, "summary.txt"))
    want = "excluded={0} positive_definite={1} indefinite={2} " \
           "negative_definite={3} singular={4}".format(*counts)
    if want not in summary:
        fails.append(f"summary counts differ from concavity.csv ({want})")
    for idx in np.linspace(0, len(rows) - 1, MAP_SAMPLES).astype(int):
        i, j = divmod(int(idx), sec["n_rho"])
        x = np.array([float(rows[idx][0]), float(rows[idx][1])])
        if not np.allclose(x, [r1[i], r[j]], rtol=1e-15, atol=0):
            fails.append(f"cell {idx} at {x}, expected {(r1[i], r[j])}")
            continue
        code = int(rows[idx][2])
        try:
            allowed = _classify(model.free_energy.hessian(x))
        except pf.errors.DomainError:
            allowed = {0}
        if code not in allowed:
            fails.append(f"cell {tuple(x.tolist())}: code {code}, expected {sorted(allowed)}")
    return fails


def _verify(inv, out, pf):
    lines = _read_text(os.path.join(out, "verify.txt")).splitlines()
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    return [f"verify line not PASS: {ln}" for ln in bad] if lines else ["verify.txt empty"]


_GATES = {"simulate": _simulate, "sweep": _sweep, "concavity-map": _concavity_map,
          "verify": _verify}


def check(invocations, outdirs, pf) -> list:
    """Failure messages per invocation; ``pf`` bundles the pfmix modules."""
    result = []
    for inv, out in zip(invocations, outdirs):
        try:
            result.append(_GATES[inv["command"]](inv, out, pf))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            result.append([f"unreadable output: {type(exc).__name__}: {exc}"])
    return result
