"""Span recorder for the traced benchmark run.

``Recorder.install`` rebinds every public function, every public method and
every ``__init__`` of the classes of a package, in every module namespace
and class that binds it (``extremals`` and ``zygmund`` import ``synthesize``
by name, ``growth`` imports ``next_pow2``), plus the ``numpy.fft``
transforms the package calls.  Each call then records a span: name, start,
end, parent span and the id of the benchmark item it ran under, kept in
memory until the run ends.  ``uninstall`` puts every original back.

A span's self time is its duration minus the wall time its child spans
cover; a child covers its own bookkeeping too, so the recorder's cost lands
in no layer's self time.  Counters (work sizes, repeated inputs, ascent gains)
are taken at the same boundaries.
"""

import contextlib
import contextvars
import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict, namedtuple

import numpy as np

Span = namedtuple("Span", "name start end parent item outer")

ROOT = "bench.item"
FFT = "numpy.fft"
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn")
DRAWS = ("growth.PlainSpectrum.draw", "growth.SumsetSpectrum.draw",
         "growth.TensorSpectrum.draw", "growth.TensorSpectrum.draw_factors")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _count_nudft(rec, args, kwargs, result):
    values, points, freqs = (_arg(args, kwargs, i, n)
                             for i, n in enumerate(("values", "points", "freqs")))
    rec.counts["kernels.nudft.terms"] += np.size(points) * np.size(freqs)
    rec.keys["kernels.nudft"].add(_digest(values, points, freqs))


def _count_phase_evals(name):
    def count(rec, args, kwargs, result):
        base, phases = _arg(args, kwargs, 0, "base_vals"), _arg(args, kwargs, 2, "phases")
        rec.counts[f"{name}.evals"] += np.size(base) * np.size(phases)
    return count


def _count_fourier(rec, args, kwargs, result):
    rec.counts["realline.fourier_transform.nodes"] += np.size(_arg(args, kwargs, 1, "freq_grid"))


def _count_block_nodes(rec, args, kwargs, result):
    mu, k = args[0], _arg(args, kwargs, 1, "k")
    # the nodes depend on the density and the block only; measures built by
    # the same named constructor share the density
    rec.keys["realline.PaleyMeasure.block_nodes"].add((mu.kind, mu.density_name, mu.atoms, k))


def _count_orlicz(rec, args, kwargs, result):
    rec.counts["torus.orlicz_functional.grid_points"] += _arg(args, kwargs, 0, "s").npoints


def _count_trigpoly(rec, args, kwargs, result):
    rec.counts["torus.TrigPoly.coeffs"] += len(args[0].coeffs)


def _count_ascent_gain(rec, args, kwargs, result):
    freqs, p = _arg(args, kwargs, 0, "freqs"), _arg(args, kwargs, 1, "p")
    flat = rec.original("growth.even_p_ratio")({n: 1.0 + 0j for n in freqs}, p)
    rec.gains["growth.phase_ascent_ratio"].append(result / flat)


def _count_sidon_gain(rec, args, kwargs, result):
    ensembles = _arg(args, kwargs, 2, "ensembles")
    if not isinstance(ensembles, (list, tuple)):
        ensembles = (ensembles,)
    if not any(e.kind == "phase-ascent" for e in ensembles):
        return
    flat_only = type(ensembles[0])("flat")
    rest = {k: v for k, v in kwargs.items() if k != "ensembles"}
    flat = rec.original("growth.sidon_lower_bound")(args[0], args[1], flat_only, *args[3:], **rest)
    rec.gains["growth.sidon_lower_bound"].append(result / flat)


def _count_fft(rec, result, parent_name):
    """FFT sizes count as the points of the transform and as grid points of
    the layer that asked for it."""
    rec.counts[f"{FFT}.points"] += result.size
    if parent_name is not None:
        rec.counts[f"{parent_name}.grid_points"] += result.size


COUNTERS = {
    "kernels.nudft": _count_nudft,
    "kernels.best_phase_pow": _count_phase_evals("kernels.best_phase_pow"),
    "kernels.min_sup_phase": _count_phase_evals("kernels.min_sup_phase"),
    "realline.fourier_transform": _count_fourier,
    "realline.PaleyMeasure.block_nodes": _count_block_nodes,
    "torus.orlicz_functional": _count_orlicz,
    "torus.TrigPoly": _count_trigpoly,
    "growth.phase_ascent_ratio": _count_ascent_gain,
    "growth.sidon_lower_bound": _count_sidon_gain,
}


class Recorder:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.keys = defaultdict(set)
        self.gains = defaultdict(list)
        self._current = contextvars.ContextVar("perfbench_span", default=(None, None, None))
        self._paused = contextvars.ContextVar("perfbench_paused", default=False)
        self._bindings = []
        self._originals = {}

    def original(self, name):
        return self._originals[name]

    @contextlib.contextmanager
    def item(self, item_id):
        """Root span for one benchmark item; spans inside carry its id."""
        idx = len(self.spans)
        self.spans.append(None)
        token = self._current.set((idx, item_id, ROOT))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans[idx] = Span(ROOT, start, end, None, item_id, end - start)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, current, paused = self.spans, self._current, self._paused
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if paused.get():
                return fn(*args, **kwargs)
            t0 = clock()
            parent, item, parent_name = current.get()
            idx = len(spans)
            spans.append(None)
            token = current.set((idx, item, name))
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                current.reset(token)
                if done and count is not None:
                    self._bookkeep(count, args, kwargs, result)
                elif done and name == FFT:
                    _count_fft(self, result, parent_name)
                spans[idx] = Span(name, start, end, parent, item, clock() - t0)

        traced.__perfbench_traced__ = True
        return traced

    def _bookkeep(self, count, args, kwargs, result):
        token = self._paused.set(True)
        try:
            count(self, args, kwargs, result)
        finally:
            self._paused.reset(token)

    def _rebind(self, owner, attr, wrapper):
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, package):
        """Wrap the package's public callables in every namespace binding them."""
        if self._bindings:
            raise RuntimeError("recorder already installed")
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(prefix))]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2].lstrip("_")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    self._originals[name] = obj
                    wrappers[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj):
                    for mattr, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (mattr == "__init__"
                                                         or not mattr.startswith("_")):
                            name = f"{layer}.{attr}" + ("" if mattr == "__init__" else f".{mattr}")
                            self._originals[name] = meth
                            self._rebind(obj, mattr, self._wrap(name, meth))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._rebind(mod, attr, wrappers[id(obj)])
        for attr in FFT_FUNCTIONS:
            self._rebind(np.fft, attr, self._wrap(FFT, getattr(np.fft, attr)))

    def uninstall(self):
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def totals(self):
        """name -> [calls, self seconds]."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.outer
        out = defaultdict(lambda: [0, 0.0])
        for s, c in zip(self.spans, covered):
            agg = out[s.name]
            agg[0] += 1
            agg[1] += (s.end - s.start) - c
        return dict(out)

    def layer_metrics(self):
        """Flat per-layer metrics: <layer>.calls, .self_s, counters and ratios."""
        totals = self.totals()
        out = {}
        for name, (calls, self_s) in totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        for name, keys in self.keys.items():
            out[f"{name}.distinct_per_call"] = len(keys) / totals[name][0]
        for name, gains in self.gains.items():
            out[f"{name}.gain_over_flat"] = max(gains)
        out["growth.draw.self_s"] = sum(totals[n][1] for n in DRAWS if n in totals)
        return out


def is_traced(obj):
    return getattr(obj, "__perfbench_traced__", False)
