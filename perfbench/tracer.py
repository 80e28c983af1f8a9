"""Span recorder installed from outside the pfmix package.

``Tracer.install`` wraps every public function and every public method of
the classes defined in the layer modules (``config``, ``grid``,
``free_energy``, ``models``, ``simulator``, ``dispersion``, ``cli``), and
rebinds the names other pfmix modules imported from them, so calls made
through ``from .config import load_config`` are traced too.  The FFT entry
points of ``numpy.fft`` (and ``scipy.fft`` once pfmix has imported it) get a
counter, not a span.

Each span records its name, start, end, parent and the FFT counter at start
and end.  Spans live in flat in-memory arrays until the pass ends; the
worker turns them into per-layer metrics and writes the last pass out.
Nothing inside ``src/pfmix`` is changed; ``uninstall`` restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from enum import Enum

import numpy as np

LAYERS = ("config", "grid", "free_energy", "models", "simulator", "dispersion",
          "cli")
_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn",
              "rfft2", "irfft2", "fft2", "ifft2", "hfft", "ihfft")


def _public_callables(module) -> list:
    """(owner, attribute, function, span name) for one layer module."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and obj.__name__ != "<lambda>":
            out.append((module, attr, obj, f"{layer}.{attr}"))
        elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
            out += [(obj, mattr, mobj, f"{layer}.{obj.__name__}.{mattr}")
                    for mattr, mobj in vars(obj).items()
                    if not mattr.startswith("_") and inspect.isfunction(mobj)]
    return out


class Tracer:
    """Records nested spans of pfmix calls into flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.fft_calls = 0
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}
        self.reset()

    def reset(self):
        self.sid = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.f0 = array("q")
        self.f1 = array("q")
        self._stack = [-1]

    # -- wrappers ------------------------------------------------------------
    def _wrapper(self, fn, name):
        """Span wrapper for ``fn`` (FFT counter when ``name`` is None), made
        once per function so repeated installs reuse the same span ids."""
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        rec = self
        if name is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec.fft_calls += 1
                return fn(*args, **kwargs)
        else:
            sid = len(self.names)
            self.names.append(name)
            perf = time.perf_counter

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(rec.sid)
                rec.sid.append(sid)
                rec.parent.append(rec._stack[-1])
                rec.f0.append(rec.fft_calls)
                rec.f1.append(0)
                rec.t1.append(0.0)
                rec._stack.append(idx)
                rec.t0.append(perf())
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.t1[idx] = perf()
                    rec.f1[idx] = rec.fft_calls
                    rec._stack.pop()

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            for owner, attr, fn, name in _public_callables(sys.modules[f"pfmix.{layer}"]):
                self._patch(owner, attr, self._wrapper(fn, name))
        for modname in ("numpy.fft", "scipy.fft"):
            module = sys.modules.get(modname)
            for attr in _FFT_NAMES if module is not None else ():
                fn = getattr(module, attr, None)
                if callable(fn):
                    self._patch(module, attr, self._wrapper(fn, None))
        # names bound by ``from .x import y`` inside other pfmix modules
        wrapped = {id(orig) for _, _, orig in self._patches}
        for modname, module in list(sys.modules.items()):
            if module is not None and modname.split(".")[0] == "pfmix":
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        self._patch(module, attr, self._wrappers[id(obj)])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def dump(self, path):
        """Write the recorded spans as tab-separated text."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tparent\tstart_s\tend_s\tfft_calls\n")
            for i, sid in enumerate(self.sid):
                f.write(f"{i}\t{self.names[sid]}\t{self.parent[i]}\t"
                        f"{self.t0[i]:.9f}\t{self.t1[i]:.9f}\t"
                        f"{self.f1[i] - self.f0[i]}\n")


class SpanTable:
    """Array view of one pass's spans with the queries the metrics need."""

    def __init__(self, tracer: Tracer):
        names = tracer.names
        self.sid = np.frombuffer(tracer.sid, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.dur = (np.frombuffer(tracer.t1, dtype=float)
                    - np.frombuffer(tracer.t0, dtype=float))
        self.fft = (np.frombuffer(tracer.f1, dtype=np.int64)
                    - np.frombuffer(tracer.f0, dtype=np.int64))
        layer = np.array([n.split(".", 1)[0] for n in names] or [""])
        attr = np.array([n.rsplit(".", 1)[-1] for n in names] or [""])
        self._layer = layer[self.sid] if self.sid.size else np.array([], dtype=str)
        self._attr = attr[self.sid] if self.sid.size else np.array([], dtype=str)

    def select(self, layer=None, attrs=None) -> np.ndarray:
        """Mask of spans in ``layer`` (or any of a tuple of layers) whose
        method or function name is in ``attrs``."""
        mask = np.ones(self.sid.size, dtype=bool)
        if layer is not None:
            layers = (layer,) if isinstance(layer, str) else tuple(layer)
            mask &= np.isin(self._layer, layers)
        if attrs is not None:
            attrs = (attrs,) if isinstance(attrs, str) else tuple(attrs)
            mask &= np.isin(self._attr, attrs)
        return mask

    def nearest_ancestor(self, mask: np.ndarray) -> np.ndarray:
        """Index of each span's nearest ancestor inside ``mask``, or -1.
        Parents are opened before children, so one forward pass suffices."""
        parent = self.parent.tolist()
        inside = mask.tolist()
        out = [-1] * len(parent)
        for i, p in enumerate(parent):
            if p >= 0:
                out[i] = p if inside[p] else out[p]
        return np.array(out, dtype=np.int64)

    def outer(self, mask: np.ndarray) -> np.ndarray:
        """Spans of ``mask`` with no ancestor in ``mask``."""
        return mask & (self.nearest_ancestor(mask) < 0)

    def under(self, mask: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """Spans of ``mask`` that have an ancestor in ``roots``."""
        return mask & (self.nearest_ancestor(roots) >= 0)

    def foreign_time(self, roots: np.ndarray, foreign: np.ndarray) -> float:
        """Time inside ``roots`` spent in the outermost ``foreign`` spans
        below them; a root's layer self time is its duration minus this."""
        na = self.nearest_ancestor(roots | foreign)
        hit = foreign & (na >= 0)
        hit[hit] = roots[na[hit]]
        return float(self.dur[hit].sum())
