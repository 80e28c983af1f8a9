"""1D periodic transient solver for the binary models.

Used to verify dispersion predictions, mass conservation and the energy
dissipation inequality independently of the linear analysis.  Explicit RK4
is the default integrator; a first-order semi-implicit scheme (stiff linear
terms integrated in Fourier space) is available for stiff parameter sets.
It steps in Fourier space on the spectra that ``model.rhs_pass(u, grid,
spectral=True)`` hands back: by default one batched ``rfft`` of the state
and its right-hand side, while the quasi-incompressible class returns the
spectra its own spectral core already holds.  A diagnostics record is
taken from the forward spectra of the next step's first pass.

The state is carried as one (n_fields, n) array in ``model.field_names``
order; traces, snapshots and blow-up dumps hand it out as dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, DomainError, FitError, RangeError
from .grid import PeriodicGrid1D
from .models import MixtureState
from . import dispersion

DT_SAFETY = 0.2


@dataclass(frozen=True)
class Perturbation:
    """One seeded Fourier mode: field += Re(amplitude * exp(i k_m x)).

    Velocity perturbations are specified on vx/vy even for the classes that
    evolve momenta; the initializer converts them.
    """

    field: str
    mode: int
    amplitude: complex


@dataclass(frozen=True)
class SimulationConfig:
    model: object
    state: MixtureState
    length: float
    n: int
    dt: float
    t_end: float
    integrator: str = "rk4"                  # "rk4" | "semi_implicit"
    diagnostics_every: int = 10
    perturbations: tuple = ()
    track: tuple = ()                        # (field, mode) pairs to record
    enforce_dt_guard: bool = True
    snapshot_every: int = 0                  # 0 disables field snapshots

    def __post_init__(self):
        if self.n & (self.n - 1):
            raise RangeError("cell count must be a power of two")
        if self.dt <= 0 or self.t_end <= 0:
            raise RangeError("dt and t_end must be positive")
        if self.integrator not in ("rk4", "semi_implicit"):
            raise RangeError(f"unknown integrator {self.integrator!r}")
        if self.diagnostics_every < 1:
            raise RangeError("diagnostics cadence must be >= 1")


@dataclass
class SimulationTrace:
    """Diagnostics time series of one run."""

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    amplitudes: dict                    # (field, mode) -> complex array
    final_fields: dict
    grid: PeriodicGrid1D
    config: SimulationConfig
    snapshots: tuple = ()               # (step, fields dict) pairs


RK4_REAL_AXIS = 2.5   # conservative RK4 stability radius on the negative real axis
RK4_IMAG_AXIS = 2.5


def stable_dt_estimate(model, state: MixtureState, grid: PeriodicGrid1D) -> float:
    """Explicit step bound, DT_SAFETY times the RK4 limit of the viscous,
    mobility-stiffness and acoustic eigenvalue magnitudes at the spectral
    cutoff k_max = pi/dx."""
    kmax = np.pi / grid.dx
    lin = model.linearization(state)
    rates = []
    if lin.inv_Re > 0:
        rates.append(RK4_REAL_AXIS / (lin.inv_Re / lin.rho0 * kmax**2))
    real, imag = lin.explicit_stiffness(kmax)
    rates += [RK4_REAL_AXIS / s for s in real] + [RK4_IMAG_AXIS / s for s in imag]
    if not rates:
        return np.inf
    return DT_SAFETY * min(rates)


# ---------------------------------------------------------------------------
# Initialization and eigenvector seeding
# ---------------------------------------------------------------------------

def eigenvector_perturbations(model, state: MixtureState, grid: PeriodicGrid1D,
                              mode: int, amplitude: float,
                              track_name: str) -> tuple:
    """Perturbations aligned with one dispersion eigenvector so a single
    growth rate is excited, and that root.

    The root is the one ``dispersion.sweep(lin, [k])`` tracks under
    ``track_name`` (e.g. "alpha1"; KeyError for a name it does not have).
    """
    lin = model.linearization(state)
    result = dispersion.sweep(lin, [grid.mode_wavenumber(mode)])
    idx = result.track(track_name)
    vec = result.vectors[0, idx]
    comp = {n: vec[i] for i, n in enumerate(lin.vector_fields) if n != "Pi"}
    scale = amplitude / max(abs(v) for v in comp.values())
    return tuple(
        Perturbation(field=n, mode=mode, amplitude=scale * v)
        for n, v in comp.items() if abs(v) > 0.0
    ), result.roots[0, idx]


def initial_state(config: SimulationConfig, grid: PeriodicGrid1D) -> np.ndarray:
    """The state array that :func:`run` starts from: the uniform fields plus
    the perturbations, whose velocity bumps add rho * v to the momenta in
    the classes that evolve momenta; checked for the energy's domain."""
    model = config.model
    u = model.state_array(model.uniform_fields(config.state, grid))
    names = model.field_names
    bumps = {}
    for p in config.perturbations:
        wave = (p.amplitude * np.exp(1j * grid.mode_wavenumber(p.mode) * grid.x)).real
        bumps[p.field] = bumps.get(p.field, 0.0) + wave
    conservative = "mx" in names   # the compressible classes evolve momenta
    for name, bump in bumps.items():
        if name in ("vx", "vy") and conservative:
            continue
        if name not in names:
            raise RangeError(f"unknown field {name!r} for {type(model).__name__}")
        u[names.index(name)] += bump
    if conservative:
        rho = model.total_density(u)
        u[-2] += rho * bumps.get("vx", 0.0)
        u[-1] += rho * bumps.get("vy", 0.0)
    _check_in_domain(model, u, step=None)
    return u


def _check_in_domain(model, u, step):
    if not np.all(np.isfinite(u)):
        raise BlowupError("non-finite field value", step=step)
    try:
        model.free_energy.check_domain(model.energy_variables(u), pointwise=True)
    except DomainError as exc:
        raise BlowupError(f"field left the free-energy domain: {exc}",
                          step=step) from exc


# ---------------------------------------------------------------------------
# Time steppers
# ---------------------------------------------------------------------------


def _rk4_step(model, u, grid, dt, k1):
    k2 = model.rhs_1d(u + 0.5 * dt * k1, grid)
    k3 = model.rhs_1d(u + 0.5 * dt * k2, grid)
    k4 = model.rhs_1d(u + dt * k3, grid)
    return u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _semi_implicit_step(fh, rh, grid, dt, L):
    """One step with the stiff symbols ``L`` (one row per field) implicit:
    d/dt u = -L u + N(u), N = rhs + L u evaluated explicitly, from the
    spectra of u and of its right-hand side; it ends in one ``irfft``."""
    nh = rh + L * fh
    return np.fft.irfft((fh + dt * nh) / (1.0 + dt * L), n=grid.n, axis=-1)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run(config: SimulationConfig) -> SimulationTrace:
    """Time-step the model, recording diagnostics at the configured cadence.

    A record step's state is checked for the domain at once; its record
    comes from the spectra of the next step's first right-hand side pass,
    and only the final record makes its own pass.  Aborts with
    :class:`BlowupError` (carrying the step index) if any field leaves the
    free-energy domain or turns non-finite.
    """
    model = config.model
    grid = PeriodicGrid1D(config.length, config.n)
    if config.enforce_dt_guard:
        guard = stable_dt_estimate(model, config.state, grid)
        if config.dt > guard:
            raise RangeError(
                f"dt={config.dt:g} exceeds the stability guard {guard:g}; "
                "reduce dt or set enforce_dt_guard=False")
    u = initial_state(config, grid)
    n_steps = int(round(config.t_end / config.dt))
    semi_implicit = config.integrator == "semi_implicit"
    if semi_implicit:
        # Fourier symbols of the stiffest linear operators, one row per field
        symbols = model.linearization(config.state).stiff_symbols(grid.wavenumbers**2)
        stiff = np.stack([symbols[name] for name in model.field_names])

    records, snapshots = [], []    # records: (t, mass, energy, dissipation, amplitudes)

    def record(t, core):
        records.append((t, *model.record(u, grid, core, config.track)))

    def snapshot(step):
        if config.snapshot_every > 0 and step % config.snapshot_every == 0:
            snapshots.append((step, model.field_dict(u.copy())))

    due = 0.0                # time of the record the next pass takes
    snapshot(0)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            try:
                rhs, core = model.rhs_pass(u, grid, spectral=semi_implicit)
                if due is not None:
                    record(due, core)
                    due = None
                if semi_implicit:
                    u = _semi_implicit_step(*rhs, grid, config.dt, stiff)
                else:
                    u = _rk4_step(model, u, grid, config.dt, rhs)
            except DomainError as exc:
                err = BlowupError(f"field left the free-energy domain: {exc}",
                                  step=step)
                err.fields = model.field_dict(u)  # state dump for post-mortem
                raise err from exc
            if step % config.diagnostics_every == 0 or step == n_steps:
                try:
                    _check_in_domain(model, u, step)
                except BlowupError as err:
                    err.fields = model.field_dict(u)
                    raise
                due = step * config.dt
            snapshot(step)
    record(due, None)
    times, masses, energies, dissipations, amps = zip(*records)
    return SimulationTrace(
        times=np.array(times), mass=np.array(masses), energy=np.array(energies),
        dissipation=np.array(dissipations),
        amplitudes={pair: np.array(a) for pair, a in zip(config.track, zip(*amps))},
        final_fields=model.field_dict(u), grid=grid, config=config,
        snapshots=tuple(snapshots))


# ---------------------------------------------------------------------------
# Growth-rate extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    alpha: complex
    residual: float
    window: tuple          # (t_start, t_end) actually used
    n_samples: int


# growth-rate fits skip this leading fraction of the samples (the initial
# transient) and fail above this relative residual of log|amplitude|
FIT_SKIP_FRACTION = 0.1
FIT_MAX_RESIDUAL = 0.05


def extract_growth_rate(trace: SimulationTrace, field: str, mode: int) -> GrowthFit:
    """Least-squares fit of log|amplitude| (growth) and unwrapped phase
    (frequency) over a window that discards the initial transient and spans
    at most one decade of amplitude change.

    Raises :class:`FitError` on excessive residual or underflowed amplitude.
    """
    key = (field, mode)
    if key not in trace.amplitudes:
        raise FitError(f"mode {key} was not tracked")
    amp = trace.amplitudes[key]
    t = trace.times
    if len(t) < 20:
        raise FitError("need at least 20 diagnostic samples")
    start = int(len(t) * FIT_SKIP_FRACTION)
    a = amp[start:]
    tt = t[start:]
    mag = np.abs(a)
    if np.any(mag < 1e-250):
        raise FitError("amplitude underflowed")
    # stop after one decade of growth/decay to stay in a clean window
    change = np.abs(np.log10(mag / mag[0]))
    idx = np.nonzero(change > 1.0)[0]
    stop = idx[0] + 1 if idx.size else len(tt)
    if stop < 20:
        stop = min(len(tt), 20)
    tt, a, mag = tt[:stop], a[:stop], mag[:stop]
    A = np.vstack([tt, np.ones_like(tt)]).T
    logmag = np.log(mag)
    coef_r, res_r, *_ = np.linalg.lstsq(A, logmag, rcond=None)
    phase = np.unwrap(np.angle(a))
    coef_i, _, *_ = np.linalg.lstsq(A, phase, rcond=None)
    fit = A @ coef_r
    denom = max(np.max(logmag) - np.min(logmag), 1e-3)
    residual = float(np.sqrt(np.mean((logmag - fit) ** 2)) / denom)
    if residual > FIT_MAX_RESIDUAL:
        raise FitError(f"fit residual {residual:.3g} exceeds {FIT_MAX_RESIDUAL}")
    return GrowthFit(alpha=complex(coef_r[0], coef_i[0]), residual=residual,
                     window=(float(tt[0]), float(tt[-1])), n_samples=len(tt))
