"""1D periodic transient solver for the binary models.

Used to verify dispersion predictions, mass conservation and the energy
dissipation inequality independently of the linear analysis.  Explicit RK4
is the default integrator; a first-order semi-implicit scheme (stiff linear
terms integrated in Fourier space) is available for stiff parameter sets.
It steps in Fourier space on the spectra u^ and rhs^ that
``model.rhs_pass(u, grid, spectral=True)`` hands back: by default one
batched ``rfft`` of the state and its right-hand side, while the
quasi-incompressible class returns the spectra its own spectral core
already holds.  Each step is u^ + dt / (1 + dt L) rhs^, with the stiff
symbols L and the gain dt / (1 + dt L) formed once per run, then one
``irfft``.  A diagnostics record is taken from the forward spectra of the
next step's first pass.

The state is carried as one (n_fields, n) array in ``model.field_names``
order; traces, snapshots and blow-up dumps hand it out as dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, DomainError, FitError, RangeError, SolveError
from .grid import PeriodicGrid1D
from .models import MixtureState
from . import dispersion

# run admits dt where StepRule admits dt / DT_SAFETY: a factor 2 for the
# nonlinear terms, which still admits simulate_quasi.ini (0.36 of its limit)
DT_SAFETY = 0.5
# per-step amplification beyond the exact rate put down to the roots' rounding
AMPLIFICATION_TOL = float(np.sqrt(np.finfo(float).eps))


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
        if not (np.isfinite(self.dt) and np.isfinite(self.t_end)
                and self.dt > 0 and self.t_end > 0):
            raise RangeError(f"dt and t_end must be finite and positive, not "
                             f"dt={self.dt:g} and t_end={self.t_end:g}")
        steps = round(self.t_end / self.dt)
        if steps < 1 or abs(self.t_end - steps * self.dt) > 1e-9 * self.t_end:
            raise RangeError(f"t_end={self.t_end:g} is not a whole number of "
                             f"steps dt={self.dt:g}")
        if self.integrator not in ("rk4", "semi_implicit"):
            raise RangeError(f"unknown integrator {self.integrator!r}")
        if self.diagnostics_every < 1:
            raise RangeError("diagnostics cadence must be >= 1")
        check_modes([p.mode for p in self.perturbations] + [m for _, m in self.track],
                    self.n)


def check_modes(modes, n: int):
    """RangeError for the first mode outside 0..n/2, the modes of n cells."""
    for m in modes:
        if not 0 <= m <= n // 2:
            raise RangeError(f"mode {m} lies outside the grid's 0..{n // 2}")


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


class StepRule:
    """The dt rule of both integrators: no grid mode k > 0 may grow faster
    per step under the scheme than e^{dt max(Re alpha, 0)} over the roots
    alpha(k) of the standard form J(k).  RK4 amplifies a mode by
    max |R(dt alpha)|, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, and the
    semi-implicit step by the spectral radius of I + G J(k), G = dt /
    (1 + dt L) from the stiff symbols L; the diagonal changes vx / i and
    m = rho0 v leave both as they are.  Logs are compared."""

    def __init__(self, lin, grid: PeriodicGrid1D, integrator: str):
        if integrator not in ("rk4", "semi_implicit"):
            raise RangeError(f"unknown integrator {integrator!r}")
        k = grid.wavenumbers[1:]
        A = lin.pencil_matrices(k)
        A[-1] = A[-1].real    # the grid's ik is 0 at Nyquist: no i k couplings
        self.J = lin.standard_form(A)
        self.roots = np.linalg.eigvals(self.J)
        self.growth = np.maximum(self.roots.real.max(axis=1), 0.0)
        self.stiff = (np.stack(list(lin.stiff_symbols(k * k).values()), axis=-1)
                      if integrator == "semi_implicit" else None)

    def excess(self, dt: float) -> np.ndarray:
        """Per mode, the log of the scheme's amplification minus the exact one's."""
        if self.stiff is None:
            z = dt * self.roots
            amp = np.abs(1.0 + z * (1.0 + z / 2 * (1.0 + z / 3 * (1.0 + z / 4))))
        else:
            gain = (dt / (1.0 + dt * self.stiff))[:, :, None]
            amp = np.abs(np.linalg.eigvals(np.eye(gain.shape[1]) + gain * self.J))
        with np.errstate(divide="ignore"):
            return np.log(amp.max(axis=1)) - dt * self.growth

    def admits(self, dt: float) -> bool:
        return bool(self.excess(dt).max() <= AMPLIFICATION_TOL)

    def limit(self) -> tuple:
        """(dt, mode, alpha): the largest dt admitted, to a relative 1e-3 (by
        doubling from 1 / max|alpha|, then bisection), the grid mode that
        binds above it and its root of largest modulus; inf past 2^60 times."""
        top = np.abs(self.roots).max()
        lo, hi, cap = 0.0, 1.0 / top, 2.0**60 / top
        while hi < cap and self.admits(hi):
            lo, hi = hi, 2.0 * hi
        if hi >= cap:
            return np.inf, None, None
        while hi > lo * 1.001:
            mid = np.sqrt(lo * hi) if lo else hi / 2.0    # dt = 0 is admitted
            lo, hi = (mid, hi) if self.admits(mid) else (lo, mid)
        i = int(np.argmax(self.excess(hi)))
        return lo, i + 1, self.roots[i, np.argmax(np.abs(self.roots[i]))]


def stable_dt_estimate(model, state: MixtureState, grid: PeriodicGrid1D,
                       integrator: str = "rk4") -> float:
    """The largest dt that ``run`` admits: DT_SAFETY times the limit."""
    return DT_SAFETY * StepRule(model.linearization(state), grid, integrator).limit()[0]


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
    RangeError for mode 0, whose k = 0 the sweep does not take.
    """
    if mode < 1:
        raise RangeError(f"an eigenvector seed needs a mode >= 1, not {mode}")
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
    _check_state(model, u, step=None)
    return u


def _check_state(model, u, step):
    if not np.isfinite(u).all():
        raise BlowupError("non-finite field value", step=step)
    try:
        model.free_energy.check_domain(model.energy_variables(u))
    except DomainError as exc:
        raise BlowupError(f"field left the free-energy domain: {exc}",
                          step=step) from exc


# ---------------------------------------------------------------------------
# Time steppers
# ---------------------------------------------------------------------------


def _rk4_step(model, u, grid, dt, k1):
    """The classic step u + dt / 6 (k1 + 2 k2 + 2 k3 + k4) from k1 = rhs(u),
    with each stage input and the final sum formed in place, in the order
    of the written-out step and so bit for bit its result.  The stage
    inputs share one array and the sum builds up in k2, so rhs_1d must hand
    back a fresh array; u and k1 are not written, so a stage that raises
    leaves u the state before the step."""
    s = np.multiply(k1, 0.5 * dt)
    k2 = model.rhs_1d(np.add(u, s, out=s), grid)
    k3 = model.rhs_1d(np.add(u, np.multiply(k2, 0.5 * dt, out=s), out=s), grid)
    k4 = model.rhs_1d(np.add(u, np.multiply(k3, dt, out=s), out=s), grid)
    acc = np.add(k1, np.multiply(k2, 2.0, out=k2), out=k2)
    acc += np.multiply(k3, 2.0, out=k3)
    acc += k4
    acc *= dt / 6.0
    return np.add(u, acc, out=acc)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run(config: SimulationConfig) -> SimulationTrace:
    """Time-step the model, recording diagnostics at the configured cadence.

    A record step's state is checked for the domain at once; its record
    comes from the spectra of the next step's first right-hand side pass,
    and only the final record makes its own pass.  Aborts with
    :class:`BlowupError` (carrying the step index and the ``fields`` dump)
    if any field leaves the free-energy domain or turns non-finite, or a
    step's pressure solve produces non-finite values.
    """
    model = config.model
    grid = PeriodicGrid1D(config.length, config.n)
    semi_implicit = config.integrator == "semi_implicit"
    if config.enforce_dt_guard or semi_implicit:
        lin = model.linearization(config.state)
    if config.enforce_dt_guard:
        rule = StepRule(lin, grid, config.integrator)
        if not rule.admits(config.dt / DT_SAFETY):
            limit, mode, alpha = rule.limit()
            raise RangeError(
                f"dt={config.dt:g} exceeds the {config.integrator} stability guard "
                f"{DT_SAFETY * limit:g}, DT_SAFETY={DT_SAFETY:g} times the step above "
                f"which grid mode {mode} (k={grid.mode_wavenumber(mode):g}, root "
                f"{alpha:.6g}) outgrows the linearized flow; reduce dt or set "
                "enforce_dt_guard=False")
    u = initial_state(config, grid)
    n_steps = int(round(config.t_end / config.dt))
    if semi_implicit:
        # Fourier symbols L of the stiffest linear operators, one row per
        # field (0 for an eliminated vx, which is stationary), taken
        # implicitly: d/dt u = -L u + N(u) with N = rhs + L u explicit gives
        # u^ + dt (rhs^ + L u^) / (1 + dt L) = u^ + gain rhs^
        symbols = lin.stiff_symbols(grid.wavenumbers**2)
        stiff = np.stack([symbols.get(name, 0.0 * grid.wavenumbers)
                          for name in model.field_names])
        gain = config.dt / (1.0 + config.dt * stiff)

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
                    fh, rh = rhs
                    u = np.fft.irfft(fh + gain * rh, n=grid.n, axis=-1)
                else:
                    u = _rk4_step(model, u, grid, config.dt, rhs)
            except (DomainError, SolveError) as exc:
                # a state the pressure solve cannot take is a blow-up too
                err = BlowupError(f"field left the free-energy domain: {exc}"
                                  if isinstance(exc, DomainError) else str(exc),
                                  step=step)
                err.fields = model.field_dict(u)  # state dump for post-mortem
                raise err from exc
            if step % config.diagnostics_every == 0 or step == n_steps:
                try:
                    _check_state(model, u, step)
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
