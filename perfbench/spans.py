"""In-memory spans around eomod's public functions, and per-layer totals.

Tracing is applied from outside the package: every public function of the
layer modules is replaced, at each module that holds it by name, with a
wrapper that opens a span.  ``eomod.wigner.hermitian_eigen`` and
``eomod.verify.hermitian_eigen`` are thus separate spans of the same
function, so a call is seen whichever binding the caller used.  A layer's
self time is the time of its spans minus the time of their child spans, so
the self times of all layers plus the job's own add up to the job's root span.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("numkernel", "su2", "wigner", "dynamics", "unrestricted",
          "detection", "cli", "verify")

# function name -> per-layer metric group; names missing at a later commit
# leave their group at zero and produce a note
GROUPS = {
    "hermitian_eigen": "numkernel.eigen",
    "wigner_d_exponential": "wigner.d",
    "wigner_d_factorial": "wigner.d",
    "wigner_d_jacobi": "wigner.d",
    "propagator": "dynamics.propagator",
    "mode_occupations": "dynamics.occupations",
    "central_mode_probability": "dynamics.occupations",
    "bessel_j": "unrestricted.bessel",
    "bessel_j_sequence": "unrestricted.bessel",
    "unrestricted_occupations": "unrestricted.norm",
    "spectral_scan": "detection.scan",
    "main": "cli.main",
}


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent, job id, size."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.size = array("d")
        self.err = array("b")
        self._stack = []
        self.job_id = -1
        self.meta = {}

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid, start=None):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.size.append(0.0)
        self.err.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter() if start is None else start)
        return i

    def close(self, i, err=False, end=None):
        self.end[i] = time.perf_counter() if end is None else end
        self._stack.pop()
        if err:
            self.err[i] = 1

    def span(self, name):
        return _Span(self, self.intern(name))

    def arrays(self):
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.int32),
                "size": np.frombuffer(self.size),
                "err": np.frombuffer(self.err, dtype=np.int8)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.i = self.tracer.open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.i, err=exc_type is not None)
        return False


def _layer_modules(notes):
    mods = []
    for short in LAYERS:
        try:
            mods.append((short, importlib.import_module(f"eomod.{short}")))
        except ImportError as exc:
            notes.append(f"module eomod.{short} not importable ({exc}); "
                         f"its spans record zero")
    return mods


def _bindings(notes):
    """(module, attribute, function, home layer) for every public function."""
    out = []
    for short, mod in _layer_modules(notes):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = getattr(inspect.unwrap(obj), "__module__", "") or ""
            layer = home.split(".")[-1]
            if home.startswith("eomod.") and layer in LAYERS:
                out.append((mod, attr, obj, layer))
    return out


def _sizer(func):
    """What one call counts: matrix dimension, kernel evaluations, exit code."""
    if func == "hermitian_eigen":
        return lambda args, kwargs, out: float(np.shape(args[0])[0])
    if func.startswith("wigner_d_"):
        return lambda args, kwargs, out: float(out.entries.shape[0])
    if func == "main":
        return lambda args, kwargs, out: float(out or 0)
    if func == "spectral_scan":
        return _scan_kernel_evals
    return None


def _scan_kernel_evals(args, kwargs, out):
    """Grid points x (restricted modes + Bessel sidebands) of one scan."""
    p = out.params
    evals = len(out.frequencies) * p.n_modes
    try:
        from eomod.unrestricted import default_cutoff, modulation_index
    except ImportError:
        return float(evals)
    mu = modulation_index(p.omega, p.gamma, p.T).mu
    return float(evals + len(out.frequencies) * (2 * default_cutoff(mu) + 1))


def _wrap(tracer, fn, nid, sizer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(i, err=True)
            raise
        tracer.close(i)
        if sizer is not None:
            try:
                tracer.size[i] = sizer(args, kwargs, out)
            except Exception:  # a later signature the sizer does not know: count 0
                pass
        return out
    return traced


class Patches:
    """Module attributes replaced by wrappers; ``restore`` puts them back."""

    def __init__(self):
        self._saved = []

    def set(self, mod, attr, new):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def restore(self):
        for mod, attr, old in reversed(self._saved):
            setattr(mod, attr, old)
        self._saved.clear()


def instrument(tracer, notes):
    """Wrap every public layer function at every binding; returns Patches.

    Span names are the bindings (``eomod.<module>.<function>``); ``meta``
    maps each to the function's home layer and its own name.
    """
    patches = Patches()
    found = set()
    for mod, attr, fn, layer in _bindings(notes):
        func = inspect.unwrap(fn).__name__
        name = f"{mod.__name__}.{attr}"
        tracer.meta[name] = (layer, func)
        found.add(func)
        patches.set(mod, attr, _wrap(tracer, fn, tracer.intern(name), _sizer(func)))
    for func, group in GROUPS.items():
        if func not in found:
            notes.append(f"public function {func} not found in any layer "
                         f"module; {group} records zero")
    return patches


def capture_eigensolves(store, notes):
    """Record (input, eigenvalues, eigenvectors) of every hermitian_eigen call.

    Used outside timing decisions only: the caller checks the round trip
    V diag(w) V^H = A once the job is done.
    """
    patches = Patches()
    found = False
    for mod, attr, fn, layer in _bindings(notes):
        if inspect.unwrap(fn).__name__ != "hermitian_eigen":
            continue
        found = True

        def capturing(A, *args, _fn=fn, **kwargs):
            dec = _fn(A, *args, **kwargs)
            try:
                store.append((np.asarray(A), np.asarray(dec[0]), np.asarray(dec[1])))
            except (TypeError, IndexError, ValueError):
                notes.append("hermitian_eigen result is not (values, vectors); "
                             "eigen reconstruction unchecked")
            return dec
        patches.set(mod, attr, functools.wraps(fn)(capturing))
    if not found:
        notes.append("hermitian_eigen not found; eigen reconstruction unchecked")
    return patches


def reconstruction_errors(store):
    """max |V diag(w) V^H - A| / max |w| per solved dimension (worst case)."""
    worst = {}
    for A, w, V in store:
        err = float(np.max(np.abs((V * w) @ V.conj().T - A))
                    / max(float(np.max(np.abs(w))), 1e-300))
        worst[str(A.shape[0])] = max(worst.get(str(A.shape[0]), 0.0), err)
    return worst


def layer_totals(tracer):
    """Per-layer sums over all recorded spans (divide by jobs for means)."""
    a = tracer.arrays()
    n = len(a["start"])
    totals = {"spans": float(n)}
    if n == 0:
        return totals
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.zeros(n)
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_s = dur - child
    layer_of = []
    func_of = []
    for name in tracer.names:
        layer, func = tracer.meta.get(name, (name.split(".")[0], name))
        layer_of.append(layer)
        func_of.append(func)
    layer = np.array(layer_of)[a["name_id"]]
    func = np.array(func_of)[a["name_id"]]
    binding = np.array(tracer.names)[a["name_id"]]

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + float(value)

    for lay in set(layer_of):
        add(f"{lay}.self_s", self_s[layer == lay].sum())
    for fname, group in GROUPS.items():
        sel = func == fname
        add(f"{group}.calls", sel.sum())
        add(f"{group}.self_s", self_s[sel].sum())
        add(f"{group}.n3", (a["size"][sel] ** 3).sum())
        add(f"{group}.errors", a["err"][sel].sum())
        add(f"{group}.nonzero", (a["size"][sel] != 0).sum())
        add(f"{group}.size", a["size"][sel].sum())
        totals[f"{group}.max_size"] = max(totals.get(f"{group}.max_size", 0.0),
                                          float(a["size"][sel].max(initial=0.0)))
    add("wigner.eigen_calls", ((func == "hermitian_eigen")
                               & np.char.startswith(binding, "eomod.wigner.")).sum())
    add("root_s", dur[a["parent"] < 0].sum())
    for name in tracer.names:
        if name.startswith("verify.check."):
            add(f"{name}.s", dur[binding == name].sum())
    return totals
