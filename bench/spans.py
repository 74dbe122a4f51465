"""Spans around liep's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function in every liep
namespace that holds it (a name imported with ``from .rootsys import
...`` is patched too) and each traced method on its class.  Untraced
runs never call it, so they execute unmodified code.

Three kinds of wrapper keep memory bounded on hot paths:

* ``span``: one record (name, start, end, parent) per call;
* ``leaf``: a hot function called thousands of times per op, timed and
  aggregated into a per-name total and into its parent span's child time;
* ``count``: a hotter function still, only counted.

A span's self time is its duration minus its child spans and the leaf
time charged to it.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute or Class.method, kind, layer name, counter function or None)
POINTS = (
    ("rootsys", "build", "span", "rootsys.build", None),
    ("rootsys", "coxeter_via_element", "span", "rootsys.coxeter_via_element", None),
    ("rootsys", "simple_reflection_matrix", "leaf", "rootsys.simple_reflection_matrix", None),
    ("rootsys", "RootSystem.reflect", "count", "rootsys.reflect", None),
    ("alcove", "reduce_to_alcove", "span", "alcove.reduce_to_alcove",
     lambda args, out: {"alcove.reduction_steps": len(out[1].steps),
                        "alcove.weyl_word_letters": len(out[1].weyl_word)}),
    ("alcove", "word_matrix", "span", "alcove.word_matrix",
     lambda args, out: {"alcove.word_matrix_letters": len(args[1])}),
    ("alcove", "window_basis_report", "span", "alcove.window_basis_report", None),
    ("alcove", "critical_roots", "span", "alcove.critical_roots", None),
    ("alcove", "boundary_roots", "span", "alcove.boundary_roots", None),
    ("alcove", "oracle_valid_bases", "span", "alcove.oracle_valid_bases", None),
    ("alcove", "same_basis", "span", "alcove.same_basis", None),
    ("alcove", "BasisChoice.is_positive", "span", "alcove.is_positive", None),
    ("heights", "dynkin_height", "span", "heights.dynkin_height", None),
    ("heights", "antidominant_conjugate", "span", "heights.antidominant_conjugate", None),
    ("charp", "trunc_exp", "span", "charp.trunc_exp", None),
    ("charp", "trunc_log", "span", "charp.trunc_log", None),
    ("charp", "t_power", "span", "charp.t_power", None),
    ("charp", "bch_apply", "span", "charp.bch_apply", None),
    ("charp", "heisenberg_module_check", "span", "charp.heisenberg_module_check", None),
    ("charp", "FpMatrix.__mul__", "leaf", "charp.mul", None),
    ("charp", "FpMatrix.from_rows", "count", "charp.from_rows", None),
    ("bch", "bracket_terms", "span", "bch.bracket_terms", None),
    ("primes", "is_prime", "leaf", "primes.is_prime", None),
    ("cli", "main", "span", "cli.main", None),
)

# Per-layer metrics: (metric, layer, statistic).  "self_ms" and "leaf_ms" are
# per-op means; "total_ms" sums a set-up layer over the whole run; "calls" and
# counter names are exact totals per run.
METRICS = (
    ("alcove.word_matrix_ms", "alcove.word_matrix", "self_ms"),
    ("alcove.word_matrix_letters", "alcove.word_matrix_letters", "counter"),
    ("alcove.reduce_to_alcove_self_ms", "alcove.reduce_to_alcove", "self_ms"),
    ("alcove.window_basis_report_self_ms", "alcove.window_basis_report", "self_ms"),
    ("alcove.critical_roots_ms", "alcove.critical_roots", "self_ms"),
    ("alcove.boundary_roots_ms", "alcove.boundary_roots", "self_ms"),
    ("alcove.is_positive_ms", "alcove.is_positive", "self_ms"),
    ("alcove.is_positive_calls", "alcove.is_positive", "calls"),
    ("rootsys.reflect_calls", "rootsys.reflect", "calls"),
    ("rootsys.simple_reflection_matrix_ms", "rootsys.simple_reflection_matrix", "leaf_ms"),
    ("alcove.reduction_steps", "alcove.reduction_steps", "counter"),
    ("alcove.weyl_word_letters", "alcove.weyl_word_letters", "counter"),
    ("heights.dynkin_height_ms", "heights.dynkin_height", "self_ms"),
    ("heights.antidominant_conjugate_ms", "heights.antidominant_conjugate", "self_ms"),
    ("rootsys.build_ms", "rootsys.build", "total_ms"),
    ("charp.mul_calls", "charp.mul", "calls"),
    ("charp.mul_ms", "charp.mul", "leaf_ms"),
    ("charp.trunc_exp_ms", "charp.trunc_exp", "self_ms"),
    ("charp.trunc_log_ms", "charp.trunc_log", "self_ms"),
    ("charp.t_power_ms", "charp.t_power", "self_ms"),
    ("charp.bch_apply_ms", "charp.bch_apply", "self_ms"),
    ("charp.heisenberg_module_check_ms", "charp.heisenberg_module_check", "self_ms"),
    ("bch.bracket_terms_ms", "bch.bracket_terms", "total_ms"),
    ("charp.from_rows_calls", "charp.from_rows", "calls"),
    ("primes.is_prime_calls", "primes.is_prime", "calls"),
    ("primes.is_prime_ms", "primes.is_prime", "leaf_ms"),
    ("alcove.oracle_valid_bases_ms", "alcove.oracle_valid_bases", "self_ms"),
    ("alcove.same_basis_ms", "alcove.same_basis", "self_ms"),
    ("rootsys.coxeter_via_element_ms", "rootsys.coxeter_via_element", "self_ms"),
    ("cli.main_self_ms", "cli.main", "self_ms"),
    ("cli.report_bytes", "cli.report_bytes", "counter"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, leaf seconds]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.counters: Counter = Counter()
        self._undo: list[tuple] = []

    # -------------------------------------------------------------- wrappers

    def _span(self, name, fn, counter):
        spans, stack, calls, counters = self.spans, self.stack, self.calls, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            calls[name] += 1
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter:
                counters.update(counter(args, out))
            return out

        return wrapper

    def _leaf(self, name, fn, _counter):
        spans, stack, calls, leaf_s = self.spans, self.stack, self.calls, self.leaf_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                calls[name] += 1
                leaf_s[name] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        return wrapper

    def _count(self, name, fn, _counter):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every traced point; the liep modules must already be imported."""
        namespaces = [m for k, m in sys.modules.items() if k == "liep" or k.startswith("liep.")]
        for module, attr, kind, name, counter in POINTS:
            make = {"span": self._span, "leaf": self._leaf, "count": self._count}[kind]
            owner = sys.modules[f"liep.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(make(name, raw.__func__, counter))
                else:
                    new = make(name, raw, counter)
                self._set(cls, meth, new)
                continue
            orig = getattr(owner, attr)
            new = make(name, orig, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._set(ns, key, new)

    def _set(self, obj, key, value) -> None:
        self._undo.append((obj, key, getattr(obj, key) if not isinstance(obj, type) else obj.__dict__[key]))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()

    # -------------------------------------------------------------- results

    def self_seconds(self) -> Counter:
        """Self time per layer name, summed over all spans."""
        own = Counter()
        for name, start, end, parent, leaf in self.spans:
            dur = end - start
            own[name] += dur - leaf
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
        return own

    def metrics(self, ops: int, speed: float = 1.0) -> dict:
        """Every per-layer metric; times are multiplied by ``speed`` (see run.py)."""
        own = self.self_seconds()
        ms = 1000 * speed
        out = {}
        for metric, layer, stat in METRICS:
            if stat == "self_ms":
                value, unit = ms * own[layer] / ops, "ms"
            elif stat == "leaf_ms":
                value, unit = ms * self.leaf_s[layer] / ops, "ms"
            elif stat == "total_ms":
                value, unit = ms * own[layer], "ms"
            elif stat == "calls":
                value, unit = self.calls[layer], "count"
            else:
                value, unit = self.counters[layer], "count"
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: index, name, start, end, parent, leaf seconds."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, leaf) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, leaf]) + "\n")
