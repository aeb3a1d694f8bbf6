"""Span recorder for the traced run, kept entirely in the benchmark's files.

``Recorder.install`` wraps every public function of the hgritz layer modules
once and rebinds every ``hgritz.*`` module attribute that refers to it:
``from .x import y`` copies the binding, so patching only ``hgritz.x.y``
would miss the calls made through ``y`` in the importing module.  Each call
becomes a span (name, start, end, parent, request id, ok); spans stay in
memory until ``write`` puts them out as JSON lines.  Counters for the work
each layer does are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

#: Package whose modules are traced.
PACKAGE = "hgritz"

#: hgritz modules timed as layers, in call order from the CLI down.
LAYERS = ("cli", "variational", "operators", "eigensolver", "spectral",
          "basis", "quadrature", "numerov")

#: Root span of a request; its self time is the benchmark's own capture cost.
REQUEST = "request"


def _dim(matrix):
    return matrix.dim if hasattr(matrix, "dim") else len(matrix)


def _band_entries(matrix):
    return sum(len(band) for band in matrix.bands)


def _points(x):
    return getattr(x, "size", 1)


def call_arg(args, kwargs, index, name):
    """A call's argument by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


# Work counters: span name -> f(args, kwargs, result, nested) -> {counter: amount}.
# ``nested`` is true when the caller is in the same layer, so that composite
# builders (hamiltonian_matrix calling kinetic_matrix) are counted once.
_COUNTERS = {
    "eigensolver.eigh": lambda a, k, r, n:
        {"eigensolver.n3_sum": _dim(call_arg(a, k, 0, "matrix")) ** 3},
    "eigensolver.eigh_tridiagonal": lambda a, k, r, n:
        {"eigensolver.n3_sum": len(call_arg(a, k, 0, "diag")) ** 3},
    "operators.hamiltonian_matrix": lambda a, k, r, n:
        {"operators.band_entries": _band_entries(r)},
    "operators.kinetic_matrix": lambda a, k, r, n:
        {} if n else {"operators.band_entries": _band_entries(r)},
    "operators.potential_matrix": lambda a, k, r, n:
        {} if n else {"operators.band_entries": _band_entries(r)},
    "variational.solve_spectrum": lambda a, k, r, n: {"variational.objective_evals": 1},
    "spectral.count_nodes": lambda a, k, r, n: {"spectral.states_certified": 1},
    "basis.basis_table": lambda a, k, r, n: {"basis.points": r.size},
    "basis.basis_value": lambda a, k, r, n:
        {"basis.points": (call_arg(a, k, 1, "r") + 1) * _points(r)},
    "basis.basis_derivative": lambda a, k, r, n:
        {"basis.points": (call_arg(a, k, 1, "r") + 2) * _points(r)},
    "quadrature.element_oracle": lambda a, k, r, n: {"quadrature.elements": 1},
    "quadrature.gauss_hermite_rule": lambda a, k, r, n:
        {"quadrature.rule_order_sum": call_arg(a, k, 0, "order")},
    "numerov.shoot": lambda a, k, r, n:
        {"numerov.shoots": 1, "numerov.steps": call_arg(a, k, 2, "config").steps},
    "numerov.eigenvalue": lambda a, k, r, n: {"numerov.refinements": 1},
}

#: Counters reported per request, in output order.
COUNTERS = ("eigensolver.n3_sum", "operators.band_entries", "variational.objective_evals",
            "spectral.states_certified", "basis.points", "quadrature.elements",
            "quadrature.rule_order_sum", "numerov.shoots", "numerov.steps",
            "numerov.refinements")

#: Functions whose inputs are kept so LAPACK can be timed on the same matrices.
EIGEN_CALLS = ("eigensolver.eigh", "eigensolver.eigh_tridiagonal")


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.eigen_inputs: list[tuple[int, int, tuple, dict]] = []
        self.request: int | None = None
        self.keep_inputs = True
        self._stack: list[tuple[int, str]] = []
        self._bindings: list[tuple] = []
        self._wrapped: dict[int, tuple] | None = None

    def _wrap(self, fn, name, layer):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = _COUNTERS.get(name)
        keep_inputs = name in EIGEN_CALLS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent, parent_layer = stack[-1] if stack else (None, None)
            spans.append(None)
            stack.append((sid, layer))
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request, ok)
            if counter is not None:
                counts[self.request].update(counter(args, kwargs, result, parent_layer == layer))
            if keep_inputs and self.keep_inputs:
                self.eigen_inputs.append((self.request, sid, args, kwargs))
            return result

        return wrapper

    def _wrappers(self):
        """id(function) -> (function, wrapper) for every public layer function."""
        if self._wrapped is None:
            self._wrapped = {}
            for layer in LAYERS:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
                for attr, obj in vars(module).items():
                    if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                            and not attr.startswith("_")):
                        self._wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        return self._wrapped

    def install(self):
        """Rebind every hgritz.* reference to a public layer function to its wrapper."""
        if self._bindings:
            raise RuntimeError("recorder already installed")
        wrappers = self._wrappers()
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, obj in reversed(self._bindings):
            setattr(module, attr, obj)
        self._bindings.clear()

    def call(self, request_id: int, fn, *args):
        """Run fn(*args) as the root span of one request."""
        self.request = request_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append((sid, REQUEST))
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (REQUEST, start, end, None, request_id, ok)
            self.request = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "request", "ok"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def spans_layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(spans, requests=None):
    """Per-layer self time, calls and errors, plus total request wall time.

    Self time is a span's duration minus its children's; calls are made
    one at a time, so children never overlap.  ``requests`` limits the sum
    to those request ids.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s, calls, errors = Counter(), Counter(), Counter()
    wall = 0.0
    for sid, (name, start, end, parent, request, ok) in enumerate(spans):
        if requests is not None and request not in requests:
            continue
        if name == REQUEST:
            wall += end - start
        layer = spans_layer(name)
        self_s[layer] += end - start - child[sid]
        calls[layer] += 1
        errors[layer] += not ok
    return self_s, calls, errors, wall
