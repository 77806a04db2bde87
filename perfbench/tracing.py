"""Span tracing of nestalg's public functions, from outside the package.

install() wraps each function in TRACED and rebinds the wrapper in every
nestalg module that binds the original, so calls between modules are
seen as well as calls from the benchmark.  Each call leaves one span
(function, start, end, parent span) in memory; SeqRule.value calls are
only counted, because a span per rule evaluation would swamp the run.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import Counter

import numpy as np

TRACED = (
    "operators.canonicalize",
    "operators.render",
    "operators.inner_rules",
    "rules.exact_support",
    "algebra.alg_membership",
    "algebra.MultiplicationTask.build",
    "numerics.singular_values",
    "numerics.power_norm",
    "compactness.classify_compact",
    "compactness.boundary_rq",
    "compactness.boundary_ul",
    "compactness.ess_norm_proxy",
    "decisions.mult_zero_test",
    "decisions.mult_compact_decision",
    "decisions.mult_weak_decision",
    "decisions.mult_weak_decision_2proj",
    "decisions.quasitriangular_decision",
    "decisions.quotient_verdict",
    "ideals.radical_seminorm",
    "ideals.delta_norm",
    "ideals.jc_decompose",
    "ideals.reconstruction_residual",
    "constructions.greedy_subsequence",
    "constructions.certificate_check",
    "constructions.linf_embedding",
    "constructions.counterexample_refuter",
    "constructions.stabilization_analysis",
)

# question name -> decision function, in the order the decide operations ask
QUESTIONS = (
    ("zero", "mult_zero_test"),
    ("compact", "mult_compact_decision"),
    ("weak", "mult_weak_decision"),
    ("weak2", "mult_weak_decision_2proj"),
    ("quasitriangular", "quasitriangular_decision"),
    ("quotient", "quotient_verdict"),
)

# known defects, each counted by workloads.probe_op on inputs outside the
# timed operations' domain in a checked round (0 once the defect is fixed)
KNOWN_DEFECTS = ("constructions.linf_embedding.inverted",)

# per-layer numbers besides calls and self time, with their units
COUNTERS = {
    "rules.value.calls": "count",
    "operators.canonicalize.hit_ratio": "ratio",
    "operators.canonicalize.cache_entries": "count",
    "operators.render.cells": "count",
    "numerics.singular_values.above_lapack": "count",
    **{f"decisions.{q}.decided_frac": "ratio" for q, _fn in QUESTIONS},
    "decisions.compact.proxy_fallbacks": "count",
    "constructions.greedy_subsequence.exhausted": "count",
    **{name: "count" for name in KNOWN_DEFECTS},
}

OP_SPAN = "bench.op"  # one root span per benchmark operation
PROBE_SPAN = "trace.probe"  # the tracer's own checks, kept out of every self time


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start ns, end ns, parent span index or -1)
        self.stack = []
        self.counts = Counter()
        self.probe_ns = 0
        self.cache = None

    def wrap(self, name: str, fn):
        """fn, recording a span named `name` per call."""
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (idx, t0, clock(), parent)
                stack.pop()

        return traced

    # -- counters and probes on single functions

    def _count_rule_values(self, rules):
        counts = self.counts

        def counting(orig):
            def value(self, i):
                counts["rules.value.calls"] += 1
                return orig(self, i)

            return value

        todo = [rules.SeqRule]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "value" in cls.__dict__:
                cls.value = counting(cls.__dict__["value"])

    def _render_cells(self, fn):
        counts = self.counts

        def render(T, lo, hi, *args, **kwargs):
            counts["operators.render.cells"] += (hi - lo + 1) ** 2
            return fn(T, lo, hi, *args, **kwargs)

        return render

    def _greedy_exhausted(self, fn, exhausted):
        counts = self.counts

        def greedy(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except exhausted:
                counts["constructions.greedy_subsequence.exhausted"] += 1
                raise

        return greedy

    def _sv_against_lapack(self, fn):
        """Count outputs above LAPACK's sigma_k: breaches of the lower-bound
        contract of singular_values.  The LAPACK call is a probe span."""
        counts = self.counts
        probe = self.wrap(PROBE_SPAN, lambda M, k: np.linalg.svd(M, compute_uv=False)[:k])

        def singular_values(M, k, *args, **kwargs):
            out = fn(M, k, *args, **kwargs)
            if out.size:
                t0 = time.perf_counter_ns()
                ref = probe(M, len(out))
                self.probe_ns += time.perf_counter_ns() - t0
                # LAPACK's own rounding stays inside n * eps * sigma_1
                slack = max(M.shape) * np.finfo(float).eps * float(ref[0])
                counts["numerics.singular_values.above_lapack"] += int(np.sum(out > ref + slack))
            return out

        return singular_values

    # -- installation

    def install(self):
        import nestalg
        from nestalg import algebra, errors, rules

        modules = [m for n, m in sys.modules.items() if n == "nestalg" or n.startswith("nestalg.")]
        self.cache = nestalg.operators.canonicalize
        self._count_rule_values(rules)
        for name in TRACED:
            mod, attr = name.split(".", 1)
            if attr == "MultiplicationTask.build":
                orig = algebra.MultiplicationTask.build
                algebra.MultiplicationTask.build = staticmethod(self.wrap(name, orig))
                continue
            orig = getattr(sys.modules["nestalg." + mod], attr)
            fn = orig
            if name == "operators.render":
                fn = self._render_cells(fn)
            elif name == "constructions.greedy_subsequence":
                fn = self._greedy_exhausted(fn, errors.WitnessBudgetExhausted)
            elif name == "numerics.singular_values":
                fn = self._sv_against_lapack(fn)
            wrapped = self.wrap(name, fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def cache_info(self):
        info = getattr(self.cache, "cache_info", None)
        return info() if info is not None else None

    # -- results

    def self_times(self):
        """Per traced name: (calls, self ns); plus compact-route proxy calls."""
        child = [0] * len(self.spans)
        for idx, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_ns = Counter(), Counter()
        proxy_from_compact = 0
        compact = self.names.index("decisions.mult_compact_decision")
        proxy = self.names.index("compactness.ess_norm_proxy")
        for sid, (idx, t0, t1, parent) in enumerate(self.spans):
            calls[idx] += 1
            self_ns[idx] += t1 - t0 - child[sid]
            if idx == proxy and parent >= 0 and self.spans[parent][0] == compact:
                proxy_from_compact += 1
        per_name = {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}
        return per_name, proxy_from_compact

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_ns", "end_ns", "parent"])
            for sid, (idx, t0, t1, parent) in enumerate(self.spans):
                w.writerow([sid, self.names[idx], t0, t1, parent])
