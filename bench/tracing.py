"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function in every
``causalcurves`` module that holds it (``classify``, ``cli`` and the
package ``__init__`` bind several of them by ``from ... import``), and
wraps numpy's eigensolvers and factorizations for calls made from the
package.  Spans are kept in memory as [name, start, end, parent, op]
and written out when the run ends; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np

#: Functions that get a span, by module.
SPANNED = {
    "causalcurves.symmat": ("sym_eig", "det_poly", "real_roots", "psd_sqrt", "pd_inv_sqrt"),
    "causalcurves.charpoly": (
        "is_characteristic",
        "check_positive_all_s",
        "schur_condition",
        "reduce_degenerate",
    ),
    "causalcurves.classify": (
        "realize",
        "affine_spectrum",
        "simple_spectrum_form",
        "apply_certificate",
        "search_certificate",
    ),
    "causalcurves.construction": ("build",),
}
#: numpy eigensolvers: spans, grouped with symmat.sym_eig.
NUMPY_EIG = ("eigh", "eigvalsh", "eig", "eigvals")
#: numpy factorizations: counted only.
NUMPY_FACTOR = ("det", "svd", "cholesky", "solve", "inv", "qr")

EIG_GROUP = frozenset(["symmat.sym_eig"] + [f"numpy.{name}" for name in NUMPY_EIG])
SQRT_GROUP = frozenset(["symmat.psd_sqrt", "symmat.pd_inv_sqrt"])

NAME, START, END, PARENT, OP = range(5)


def _from_package(depth=2):
    return sys._getframe(depth).f_globals.get("__name__", "").startswith("causalcurves")


class Tracer:
    """Span recorder; ``op`` is the index of the operation being run.

    Used as a context manager around one operation's call: entering
    installs the wrappers and starts the next operation, leaving
    restores every binding, so checks of the result are never traced.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.poly_evals = 0
        self.factor_calls = 0
        self._undo = []

    def _span(self, name, fn, package_only=False):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if package_only and not _from_package():
                return fn(*args, **kwargs)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        return wrapper

    def _poly_eval(self, fn):
        def wrapper(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][NAME] == "symmat.real_roots":
                self.poly_evals += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factor(self, fn):
        def wrapper(*args, **kwargs):
            if _from_package():
                self.factor_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        self.op += 1
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        """Rebind every traced name; ``uninstall`` restores them."""
        replace = {}
        for module_name, names in SPANNED.items():
            module = importlib.import_module(module_name)
            layer = module_name.split(".")[1]
            for name in names:
                fn = getattr(module, name)
                replace[id(fn)] = (fn, self._span(f"{layer}.{name}", fn))
        poly_eval = sys.modules["causalcurves.symmat"].poly_eval
        replace[id(poly_eval)] = (poly_eval, self._poly_eval(poly_eval))
        for module_name, module in list(sys.modules.items()):
            if module_name != "causalcurves" and not module_name.startswith("causalcurves."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._rebind(module, attr, replace[id(value)][1])
        for name in NUMPY_EIG:
            fn = getattr(np.linalg, name)
            self._rebind(np.linalg, name, self._span(f"numpy.{name}", fn, package_only=True))
        for name in NUMPY_FACTOR:
            self._rebind(np.linalg, name, self._factor(getattr(np.linalg, name)))

    def _rebind(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)


def self_times(spans):
    """Duration of each span minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def outermost(spans, group):
    """Flags of the spans in ``group`` with no ancestor in ``group``."""
    inside = [False] * len(spans)
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        inside[i] = p >= 0 and (spans[p][NAME] in group or inside[p])
        flags[i] = s[NAME] in group and not inside[i]
    return flags


def layer_metrics(tracer, n_ops):
    """Per-operation figures of the library layers from one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    n_ops = max(n_ops, 1)

    def self_ms(group):
        return 1e3 * sum(t for s, t in zip(spans, own) if s[NAME] in group) / n_ops

    def calls(group):
        return sum(outermost(spans, group)) / n_ops

    real_roots = sum(1 for s in spans if s[NAME] == "symmat.real_roots")
    return {
        "symmat.eig.calls": calls(EIG_GROUP),
        "symmat.eig.self_ms": self_ms(EIG_GROUP),
        "symmat.det_poly.self_ms": self_ms({"symmat.det_poly"}),
        "symmat.real_roots.calls": real_roots / n_ops,
        "symmat.real_roots.self_ms": self_ms({"symmat.real_roots"}),
        "symmat.poly_eval.per_real_roots": tracer.poly_evals / real_roots if real_roots else 0.0,
        "symmat.sqrt.calls": calls(SQRT_GROUP),
        "linalg.factor.calls": tracer.factor_calls / n_ops,
        "charpoly.is_characteristic.calls": calls({"charpoly.is_characteristic"}),
        "charpoly.check_positive_all_s.self_ms": self_ms({"charpoly.check_positive_all_s"}),
        "charpoly.schur_condition.self_ms": self_ms({"charpoly.schur_condition"}),
        "charpoly.reduce_degenerate.self_ms": self_ms({"charpoly.reduce_degenerate"}),
        "classify.realize.calls": calls({"classify.realize"}),
        "classify.realize.self_ms": self_ms({"classify.realize"}),
        "classify.affine_spectrum.self_ms": self_ms({"classify.affine_spectrum"}),
        "classify.simple_spectrum_form.self_ms": self_ms({"classify.simple_spectrum_form"}),
        "classify.apply_certificate.calls": calls({"classify.apply_certificate"}),
        "classify.search_certificate.self_ms": self_ms({"classify.search_certificate"}),
        "construction.build.calls": calls({"construction.build"}),
        "construction.build.self_ms": self_ms({"construction.build"}),
    }
