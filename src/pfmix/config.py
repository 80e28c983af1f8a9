"""Flat INI-style run configuration: parsing, validation, normalized echo.

Sections: free_energy, model, state, and one of sweep | map | simulate.
Unknown keys and missing keys without documented defaults are hard errors.
Physical keys use the transliterated symbol names (kappa_rho1_rho1, M11,
Re_s, Re_v, rho0, rho1_0, phi0, rho_hat_1, rho_hat_2, ...).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from . import free_energy as fe
from . import models
from .errors import ConfigError
from .linearization import EQUAL_DENSITY_RTOL, equal_specific_densities

_FLOAT_FMT = ".17g"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, _FLOAT_FMT)
    return str(v)


# key -> (type, default)  -- REQUIRED marks a mandatory key
REQUIRED = object()

_SCHEMAS = {
    "free_energy": {
        "kind": (str, REQUIRED),
        # quadratic (binary; matrix in the model class's natural variable order)
        "c11": (float, None), "c12": (float, None), "c22": (float, None),
        "g1": (float, 0.0), "g2": (float, 0.0),
        # quadratic in phi
        "h_phi_phi": (float, None), "g_phi": (float, 0.0),
        # flory_huggins
        "kbt_over_m": (float, None), "n1": (float, None), "n2": (float, None),
        "chi": (float, None),
        # peng_robinson
        "t": (float, None), "r": (float, 8.31446261815324),
        "k12": (float, 0.0), "lambda_thermal": (float, 1.0),
        "species1": (str, None), "species2": (str, None),
        "species1_tc": (float, None), "species1_pc": (float, None),
        "species1_acentric": (float, None), "species1_molar_mass": (float, None),
        "species2_tc": (float, None), "species2_pc": (float, None),
        "species2_acentric": (float, None), "species2_molar_mass": (float, None),
        # gradient coefficients, by class variables
        "kappa_rho1_rho1": (float, None), "kappa_rho1_rho2": (float, None),
        "kappa_rho2_rho2": (float, None),
        "kappa_rho_rho": (float, None), "kappa_rho_rho1": (float, None),
        "kappa_phi_phi": (float, None),
    },
    "model": {
        "class": (str, REQUIRED),
        "m11": (float, None), "m12": (float, None), "m22": (float, None),
        "re_s": (float, REQUIRED), "re_v": (float, REQUIRED),
        "rho_hat_1": (float, None), "rho_hat_2": (float, None),
    },
    "state": {
        "rho1_0": (float, None), "rho2_0": (float, None),
        "rho0": (float, None), "phi0": (float, None),
    },
    "sweep": {
        "k_min": (float, REQUIRED), "k_max": (float, REQUIRED),
        "points": (int, REQUIRED), "spacing": (str, "log"),
        "small_k_max": (float, 0.01), "large_k_min": (float, 100.0),
    },
    "map": {
        "rho1_min": (float, REQUIRED), "rho1_max": (float, REQUIRED),
        "rho_min": (float, REQUIRED), "rho_max": (float, REQUIRED),
        "n_rho1": (int, REQUIRED), "n_rho": (int, REQUIRED),
    },
    "simulate": {
        "length": (float, REQUIRED), "n": (int, REQUIRED),
        "dt": (float, REQUIRED), "t_end": (float, REQUIRED),
        "integrator": (str, "rk4"), "diagnostics_every": (int, 10),
        "seed_eigenvector": (bool, False), "eigen_track": (str, "alpha1"),
        "perturb_field": (str, None), "perturb_mode": (int, 1),
        "perturb_amplitude": (float, 1e-6),
        "track": (str, None),            # "field:mode[,field:mode...]"
        "enforce_dt_guard": (bool, True),
        "snapshot_every": (int, 0),
    },
}

_PHASE_FIELD_CLASSES = ("quasi_incompressible", "incompressible")
_MODEL_CLASSES = ("compressible_global", "compressible_local") + _PHASE_FIELD_CLASSES
_FE_KINDS = ("quadratic", "flory_huggins", "peng_robinson")


@dataclass
class RunConfig:
    """Parsed, validated configuration with typed values per section."""

    sections: dict = field(default_factory=dict)
    source: str = ""

    def has_section(self, name: str) -> bool:
        return name in self.sections

    # -- normalized echo -----------------------------------------------------
    def normalized(self) -> str:
        """Canonical text form: sorted sections and keys, 17-digit floats."""
        out = io.StringIO()
        for sec in sorted(self.sections):
            out.write(f"[{sec}]\n")
            for key in sorted(self.sections[sec]):
                val = self.sections[sec][key]
                if val is None:
                    continue
                out.write(f"{key} = {_fmt(val)}\n")
            out.write("\n")
        return out.getvalue()


def _coerce(raw: str, typ, section: str, key: str):
    try:
        if typ is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from exc
    if typ is float and not np.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a finite number")
    return value


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    sections = {}
    for sec in cp.sections():
        if sec not in _SCHEMAS:
            raise ConfigError(f"{source}: unknown section [{sec}]")
        schema = _SCHEMAS[sec]
        values = {}
        for key, raw in cp.items(sec):
            if key not in schema:
                raise ConfigError(f"{source}: unknown key {key!r} in [{sec}]")
            typ, _ = schema[key]
            values[key] = _coerce(raw, typ, sec, key)
        for key, (typ, default) in schema.items():
            if key in values:
                continue
            if default is REQUIRED:
                raise ConfigError(f"{source}: missing required key {key!r} in [{sec}]")
            if default is not None:
                values[key] = default
        sections[sec] = values
    for required_sec in ("free_energy", "model", "state"):
        if required_sec not in sections:
            raise ConfigError(f"{source}: missing section [{required_sec}]")
    return RunConfig(sections=sections, source=source)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read(), source=str(path))


# ---------------------------------------------------------------------------
# Building model objects from a config
# ---------------------------------------------------------------------------


def _need(cfg: RunConfig, section: str, keys):
    vals = []
    for key in keys:
        v = cfg.sections[section].get(key)
        if v is None:
            raise ConfigError(
                f"{cfg.source}: [{section}] requires {key!r} for this setup")
        vals.append(v)
    return vals


def _build_species(cfg: RunConfig, idx: int) -> fe.PRSpecies:
    sec = cfg.sections["free_energy"]
    inline = sec.get(f"species{idx}_tc")
    if inline is not None:
        tc, pc, ac, mm = _need(cfg, "free_energy", [
            f"species{idx}_tc", f"species{idx}_pc",
            f"species{idx}_acentric", f"species{idx}_molar_mass"])
        name = sec.get(f"species{idx}") or f"species{idx}"
        return fe.PRSpecies(name, tc, pc, ac, mm)
    name = sec.get(f"species{idx}")
    if name is None:
        raise ConfigError(
            f"{cfg.source}: species{idx} needs either a data-file name or "
            f"inline species{idx}_tc/.../_molar_mass values")
    data = fe.load_species_data()
    if name not in data:
        raise ConfigError(f"{cfg.source}: unknown species {name!r} in data file")
    return data[name]


def build_free_energy(cfg: RunConfig, model_class: str):
    """(bulk energy, kappa).  A quadratic energy is read in the class's
    natural variables; a (rho1, rho2) energy of any other kind is carried
    to (rho1, rho) by the paper's change of variables for every class but
    compressible_global, and ``build_model`` reduces it on to phi for the
    phase-field classes."""
    sec = cfg.sections["free_energy"]
    kind = sec["kind"]
    if kind not in _FE_KINDS:
        raise ConfigError(f"{cfg.source}: unknown free energy kind {kind!r}")
    local = model_class == "compressible_local"
    kappa = build_kappa(cfg, model_class)
    if kind == "quadratic":
        if model_class in _PHASE_FIELD_CLASSES:
            (hpp,) = _need(cfg, "free_energy", ["h_phi_phi"])
            return fe.Quadratic([[hpp]], g=[sec["g_phi"]], variables=("phi",)), kappa
        c11, c12, c22 = _need(cfg, "free_energy", ["c11", "c12", "c22"])
        return fe.Quadratic([[c11, c12], [c12, c22]], g=[sec["g1"], sec["g2"]],
                            variables=("rho1", "rho") if local else None), kappa
    if kind == "flory_huggins":
        c, n1, n2, chi = _need(cfg, "free_energy",
                               ["kbt_over_m", "n1", "n2", "chi"])
        bulk = fe.FloryHuggins(c, n1, n2, chi)
    else:
        bulk = _pr_from_config(cfg)
    if model_class == "compressible_global":
        return bulk, kappa
    return fe.TildeFreeEnergy(bulk), kappa


def build_kappa(cfg: RunConfig, model_class: str) -> fe.GradientCoefficients:
    """The configured gradient coefficients, checked PSD on construction:
    [[kappa_phi_phi]] for a quadratic phase-field energy, the (rho1, rho2)
    matrix for compressible_global, else the (rho1, rho) one."""
    if model_class in _PHASE_FIELD_CLASSES \
            and cfg.sections["free_energy"]["kind"] == "quadratic":
        return fe.GradientCoefficients(
            np.array([_need(cfg, "free_energy", ["kappa_phi_phi"])]))
    if model_class == "compressible_global":
        k11, k12, k22 = _need(cfg, "free_energy", [
            "kappa_rho1_rho1", "kappa_rho1_rho2", "kappa_rho2_rho2"])
        return fe.GradientCoefficients(np.array([[k11, k12], [k12, k22]]))
    k11, kr1, krr = _need(cfg, "free_energy", [
        "kappa_rho1_rho1", "kappa_rho_rho1", "kappa_rho_rho"])
    # stored in (rho1, rho) order to match the tilde free energy
    return fe.GradientCoefficients(np.array([[k11, kr1], [kr1, krr]]))


def _pr_from_config(cfg: RunConfig) -> fe.PengRobinson:
    sec = cfg.sections["free_energy"]
    (T,) = _need(cfg, "free_energy", ["t"])
    return fe.PengRobinson(
        _build_species(cfg, 1), _build_species(cfg, 2), temperature=T,
        gas_constant=sec["r"], k12=sec["k12"],
        thermal_wavelength=sec["lambda_thermal"])


def build_model(cfg: RunConfig):
    sec = cfg.sections["model"]
    cls = sec["class"]
    if cls not in _MODEL_CLASSES:
        raise ConfigError(f"{cfg.source}: unknown model class {cls!r}")
    if sec["re_s"] <= 0 or sec["re_v"] <= 0:
        raise ConfigError(f"{cfg.source}: Re_s and Re_v must be positive")
    inv_s, inv_v = 1.0 / sec["re_s"], 1.0 / sec["re_v"]
    bulk, kappa = build_free_energy(cfg, cls)
    if cls == "compressible_global":
        m11, m12, m22 = _need(cfg, "model", ["m11", "m12", "m22"])
        return models.CompressibleGlobal(
            free_energy=bulk, kappa=kappa,
            mobility=np.array([[m11, m12], [m12, m22]]),
            inv_Re_s=inv_s, inv_Re_v=inv_v)
    if cls == "compressible_local":
        (m11,) = _need(cfg, "model", ["m11"])
        return models.CompressibleLocal(
            free_energy=bulk, kappa=kappa, M11=m11,
            inv_Re_s=inv_s, inv_Re_v=inv_v)
    (m11,) = _need(cfg, "model", ["m11"])
    rh1, rh2 = _need(cfg, "model", ["rho_hat_1", "rho_hat_2"])
    equal = equal_specific_densities(rh1, rh2)
    if cls == "incompressible":
        if not equal:
            raise ConfigError(
                f"{cfg.source}: incompressible class needs rho_hat_1 == rho_hat_2")
        rh2 = rh1
    elif equal:
        raise ConfigError(
            f"{cfg.source}: rho_hat_1 == rho_hat_2 (to a relative "
            f"{EQUAL_DENSITY_RTOL:.1e}) degenerates the quasi-incompressible "
            "model to the incompressible one; set class = incompressible instead")
    # the energy is reduced along the resolved specific densities
    kphi = float(kappa.kappa[0, 0])
    if bulk.variables != ("phi",):
        kphi, bulk = fe.reduce_quasi_incompressible(kappa, bulk, rh1, rh2)
    return models.QuasiIncompressible(
        free_energy=bulk, kappa_phi_phi=kphi, M11=m11,
        inv_Re_s=inv_s, inv_Re_v=inv_v, rho_hat_1=rh1, rho_hat_2=rh2)


def build_state(cfg: RunConfig) -> models.MixtureState:
    cls = cfg.sections["model"]["class"]
    if cls == "compressible_global":
        return models.MixtureState.binary(*_need(cfg, "state", ["rho1_0", "rho2_0"]))
    if cls == "compressible_local":
        return models.MixtureState.total_partial(*_need(cfg, "state", ["rho0", "rho1_0"]))
    return models.MixtureState.fraction(*_need(cfg, "state", ["phi0"]))


def build_all(cfg: RunConfig):
    model = build_model(cfg)
    state = build_state(cfg)
    return model, state
