"""Outside tracer: wraps psilab's public functions and four numpy kernels.

Nothing in the program is edited.  Each target is wrapped once and the
wrapper is rebound wherever the original object is bound by name: in its
defining module, in every ``psilab.*`` module that imported it with
``from ... import`` and, for the numpy kernels, in the numpy modules that
hold it.  Methods are wrapped on their class.  A target that no longer
exists is skipped and reports 0 calls.

A span is ``[name, start, end, parent, raised]`` with ``parent`` the index
of the enclosing span (-1 at top level).  Spans stay in memory in the
traced process and are written out when it exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (module, qualified name) of every wrapped function; psilab modules are
# named without the package prefix.
TARGETS = [
    ("config", "load_config"), ("config", "build_grid"),
    ("experiments", "run_defect_sweep"), ("experiments", "run_ch_compare"),
    ("experiments", "run_homotopy_verify"), ("experiments", "run_index_compare"),
    ("quantize", "t_quantize"), ("quantize", "t_quantize_charts"),
    ("quantize", "op_quantize"), ("quantize", "multiplication_operator"),
    ("quantize", "quantize_sampled"),
    ("symbols", "Loop.coefficients"), ("symbols", "Symbol.sup_norm"),
    ("symbols", "smash"),
    ("partition", "build_partition"), ("partition", "DyadicPartition.gamma"),
    ("numerics", "operator_norm"),
    ("connes_higson", "ch_apply"), ("connes_higson", "ch_extended_apply"),
    ("homotopy", "equ1_defect"), ("homotopy", "equ2_defect"),
    ("homotopy", "theta_discrepancy_norm"), ("homotopy", "endpoint_defect"),
    ("homotopy", "psi_s"), ("homotopy", "i0_block_operator"),
    ("index_theory", "higson_trace_index"), ("index_theory", "fredholm_index_svd"),
    ("index_theory", "BottPair.p_sigma"), ("index_theory", "BottPair.p_base"),
    ("index_theory", "winding_number"),
    ("numpy.linalg", "svd"), ("numpy.linalg", "eigvalsh"), ("numpy.linalg", "inv"),
    ("numpy.fft", "fft"),
]

NAMES = [f"{module}.{qualname}" for module, qualname in TARGETS]


def _shape(obj):
    shape = getattr(getattr(obj, "mat", obj), "shape", ())
    return tuple(shape)


def _batch(shape):
    out = 1
    for n in shape[:-2]:
        out *= n
    return out


def _svd_ops(args, kwargs, result):
    # m * n * min(m, n) per matrix of the (possibly stacked) input
    shape = _shape(args[0] if args else kwargs.get("a"))
    if len(shape) < 2:
        return 0
    m, n = shape[-2:]
    return _batch(shape) * m * n * min(m, n)


def _eigvalsh_ops(args, kwargs, result):
    shape = _shape(args[0] if args else kwargs.get("a"))
    if len(shape) < 2:
        return 0
    return _batch(shape) * shape[-1] ** 3


def _result_bytes(args, kwargs, result):
    return int(getattr(getattr(result, "mat", result), "nbytes", 0))


#: metrics computed from argument or result shapes: name -> (target name(s), fn)
COMPUTED = {
    "numerics.operator_norm.ops": (("numerics.operator_norm",), _svd_ops),
    "numpy.linalg.svd.ops": (("numpy.linalg.svd",), _svd_ops),
    "numpy.linalg.eigvalsh.ops": (("numpy.linalg.eigvalsh",), _eigvalsh_ops),
    "quantize.bytes": (tuple(n for n in NAMES if n.startswith("quantize.")),
                       _result_bytes),
}


def _module_name(module):
    return module if module.startswith("numpy") else "psilab." + module


def _rebind(original, replacement, package):
    """Replace ``original`` by identity in every loaded module of the package
    and of psilab."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")
                               or modname == "psilab" or modname.startswith("psilab.")):
            continue
        namespace = getattr(mod, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def install(make_wrapper, targets=TARGETS):
    """Wrap every target that exists with ``make_wrapper(name, fn)``.

    Returns {name: original function} for the wrapped targets; each original
    is the object cProfile sees called.
    """
    wrapped = {}
    for module, qualname in targets:
        name = f"{module}.{qualname}"
        try:
            mod = importlib.import_module(_module_name(module))
        except ImportError:
            continue
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None:
            continue
        raw = inspect.getattr_static(owner, attr, None)
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(owner, attr, type(raw)(make_wrapper(name, raw.__func__)))
            wrapped[name] = raw.__func__
        elif owner_name:
            if not callable(raw):
                continue
            setattr(owner, attr, make_wrapper(name, raw))
            wrapped[name] = raw
        else:
            if raw is None or not callable(raw):
                continue
            _rebind(raw, make_wrapper(name, raw), _module_name(module).split(".")[0])
            wrapped[name] = raw
    return wrapped


class Tracer:
    """Span recorder; ``install()`` puts its wrappers in place."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._computed = {}
        for metric, (names, fn) in COMPUTED.items():
            for name in names:
                self._computed.setdefault(name, []).append((metric, fn))

    def install(self, targets=TARGETS):
        return install(self.wrap, targets)

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        computed = self._computed.get(name, ())
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            for metric, count in computed:
                counters[metric] = counters.get(metric, 0) + count(args, kwargs, result)
            return result

        return traced


def unit(metric):
    """Unit of a metric from ``summarize``."""
    return {"s": "s", "self_s": "s", "ops": "ops", "bytes": "B"}.get(
        metric.rsplit(".", 1)[-1], "count")


def summarize(spans, counters):
    """Per-layer metrics of one traced invocation.

    ``.s`` sums span durations, leaving out spans nested inside a span of
    the same name; ``.self_s`` is a span's duration minus its direct
    children's.
    """
    out = {}
    for name in NAMES:
        out[name + ".calls"] = 0
        out[name + ".s"] = 0.0
        out[name + ".self_s"] = 0.0
    for metric in COMPUTED:
        out[metric] = 0
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    attempts = conclusive = 0
    for i, (name, start, end, parent, raised) in enumerate(spans):
        dur = end - start
        out[name + ".calls"] += 1
        out[name + ".self_s"] += dur - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name + ".s"] += dur
        if name == "index_theory.higson_trace_index":
            attempts += 1
            conclusive += not raised
    out.update({k: v for k, v in counters.items() if k in COMPUTED})
    out["index_theory.pairing_attempts"] = attempts
    out["index_theory.pairing_conclusive"] = conclusive
    return out
