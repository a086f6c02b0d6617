"""Span tracing around the public functions of each specpreserve module and
around the LAPACK-level calls the library makes.

The wrappers live in the benchmark, not in the library: ``install`` rebinds
each traced name in every loaded ``specpreserve`` module that holds it, and
replaces the modules' ``np`` / ``scipy`` globals by thin proxies whose
linear-algebra entry points are wrapped.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time

# module -> public functions traced; "space_init" is the validation that
# runs whenever a ScalarProductSpace is built
TRACED = {
    "core": ("space_init", "adjoint", "structure_residual", "pseudoinverse",
             "numerical_rank", "sample_structured"),
    "spectral": ("assemble_complex", "assemble_real_lie",
                 "assemble_real_jordan", "validate_pairing_closure",
                 "certificate_residual", "extract_jordan_pairs"),
    "mapping": ("feasibility_check", "map_family"),
    "subspaces": ("reproduce_invariant", "preserve_complementary",
                  "no_spillover", "gram_inverse_apply"),
    "reassign": ("reassign_simple", "reassign_family", "reassign_no_spillover"),
    "diagnostics": ("verify_reassignment", "spectrum_multiset_compare",
                    "generate_instance"),
    "matio": ("load_matrix", "save_matrix", "dump_json"),
}

# span name -> (library module path, attribute) seen from specpreserve
LAPACK = {
    "eig": [("numpy.linalg", "eig")],
    "eigvals": [("numpy.linalg", "eigvals")],
    "svd": [("numpy.linalg", "svd")],
    "pinv": [("numpy.linalg", "pinv")],
    "solve": [("numpy.linalg", "solve")],
    "lu": [("scipy.linalg", "lu_factor"), ("scipy.linalg", "lu_solve")],
    "cond": [("numpy.linalg", "cond")],
    "hungarian": [("scipy.optimize", "linear_sum_assignment")],
}

FUNCTION_SPANS = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)
LAPACK_SPANS = tuple(f"lapack.{k}" for k in LAPACK)
MODULES = tuple(TRACED) + ("lapack",)


class Tracer:
    """In-memory span recorder.

    A span is (name, start, end, parent index, op id, raised).  ``op`` is
    set by the caller before each operation; spans opened while it is set
    carry it.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, raised)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


class _Namespace:
    """Attribute proxy: listed names are replaced, the rest fall through."""

    def __init__(self, target, overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every loaded specpreserve module."""
    import numpy
    import scipy
    import scipy.linalg
    import scipy.optimize

    import specpreserve  # noqa: F401  loads every submodule
    import specpreserve.cli  # noqa: F401
    from specpreserve.core import ScalarProductSpace

    loaded = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "specpreserve"
                                    or name.startswith("specpreserve."))]

    def rebind(orig, wrapped):
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)

    for module, names in TRACED.items():
        mod = importlib.import_module(f"specpreserve.{module}")
        for fname in names:
            span = f"{module}.{fname}"
            if fname == "space_init":
                orig = ScalarProductSpace.__post_init__
                ScalarProductSpace.__post_init__ = tracer.wrap(span, orig)
                continue
            orig = getattr(mod, fname)
            rebind(orig, tracer.wrap(span, orig))

    overrides = {}
    for short, targets in LAPACK.items():
        for modpath, attr in targets:
            target = importlib.import_module(modpath)
            overrides.setdefault(modpath, {})[attr] = tracer.wrap(
                f"lapack.{short}", getattr(target, attr))
    np_proxy = _Namespace(numpy, {
        "linalg": _Namespace(numpy.linalg, overrides["numpy.linalg"])})
    scipy_proxy = _Namespace(scipy, {
        "linalg": _Namespace(scipy.linalg, overrides["scipy.linalg"]),
        "optimize": _Namespace(scipy.optimize, overrides["scipy.optimize"])})
    for mod in loaded:
        if vars(mod).get("np") is numpy:
            mod.np = np_proxy
        if vars(mod).get("scipy") is scipy:
            mod.scipy = scipy_proxy


def span_cost():
    """Seconds one span adds to a call: a wrapped no-op against a plain one,
    timed in this process, so it is free of drift between processes."""
    calls = 200_000

    def noop():
        return None

    wrapped = Tracer().wrap("probe", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    plain = clock() - start
    start = clock()
    for _ in range(calls):
        wrapped()
    return max(0.0, clock() - start - plain) / calls


def aggregate(spans, keep):
    """Per-span-name totals over the spans whose op id passes ``keep``.

    Returns {name: [self seconds, calls, errors]}; self time is a span's
    duration minus the time covered by its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, raised in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, op, raised) in enumerate(spans):
        if not keep(op):
            continue
        row = out.setdefault(name, [0.0, 0, 0])
        row[0] += (end - start) - child[i]
        row[1] += 1
        row[2] += int(raised)
    return out
