"""Spans and counters around the package's public functions.

The tracer replaces each traced function by a wrapper in every `waring.*`
module namespace that holds it (so `from .linalg import solve_exact` call
sites are covered too) and restores the originals on `uninstall`.  Nothing
under src/ changes.  A span is [name, start_ns, end_ns, parent index, job];
spans stay in memory and are written out once, at the end of a run.  A
layer's self time is the sum over its spans of duration minus the durations
of direct children.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# Per-layer metric -> (end-to-end metric it should move, on which workloads,
# and where it is predicted to stay at zero).
TARGETS = {
    "linalg.solve_s": ("jobs_per_s, latency_p80_ms", "decompose; 0 on reverify, certify"),
    "linalg.solve_calls": ("jobs_per_s, latency_p80_ms", "decompose; 0 on reverify, certify"),
    "linalg.solve_cells": ("jobs_per_s, latency_p80_ms", "decompose; 0 on reverify, certify"),
    "linalg.rank_s": ("jobs_per_s, latency_p80_ms", "certify"),
    "linalg.rank_calls": ("jobs_per_s, latency_p80_ms", "certify"),
    "linalg.rank_cells": ("jobs_per_s, latency_p80_ms", "certify"),
    "decompose.build_s": ("jobs_per_s, latency_p80_ms", "decompose"),
    "decompose.terms": ("jobs_per_s, latency_p80_ms", "decompose"),
    "decompose.verify_s": ("jobs_per_s, latency_p50_ms", "reverify, decompose"),
    "decompose.verify_calls": ("jobs_per_s, latency_p50_ms", "reverify, decompose"),
    "decompose.verify_failed": ("jobs_per_s, latency_p50_ms", "reverify"),
    "polynomials.pow_linear_s": ("jobs_per_s, latency_p50_ms", "reverify, decompose"),
    "polynomials.pow_linear_calls": ("jobs_per_s, latency_p50_ms", "reverify, decompose"),
    "polynomials.pow_linear_terms": ("jobs_per_s, latency_p50_ms", "reverify, decompose"),
    "cyclotomic.mul_calls": ("jobs_per_s, peak_rss_mb", "reverify, decompose; 0 on certify"),
    "cyclotomic.field_builds": ("jobs_per_s, peak_rss_mb", "reverify, decompose; 0 on certify"),
    "serialize.to_json_s": ("latency_p50_ms", "decompose"),
    "serialize.from_json_s": ("latency_p50_ms", "reverify"),
    "serialize.json_bytes": ("latency_p50_ms", "reverify, decompose"),
    "apolarity.catalecticant_s": ("latency_p80_ms", "certify"),
    "apolarity.catalecticant_cells": ("latency_p80_ms", "certify"),
    "apolarity.hf_s": ("latency_p50_ms", "certify"),
    "apolarity.standard_monomials": ("latency_p50_ms", "certify"),
    "apolarity.claim_s": ("latency_p50_ms", "certify"),
    "rank.survey_s": ("latency_p80_ms", "certify"),
    "rank.survey_candidates": ("latency_p80_ms", "certify"),
    "forms.parse_s": ("latency_p50_ms", "certify"),
    "forms.parse_calls": ("latency_p50_ms", "certify"),
    "cli.self_s": ("latency_p50_ms", "certify"),
    "cli.output_bytes": ("latency_p50_ms", "certify"),
    "trace.jobs_per_s": ("jobs_per_s (traced, for the overhead)", "all"),
    "trace.overhead_ratio": ("untraced / traced jobs_per_s", "all"),
}


def _cells(matrix):
    return len(matrix) * len(matrix[0]) if matrix else 0


# (module, function, span name, counters): a counter maps (args, result) to
# {metric: increment}.  Counters marked outer_only count a call only when it
# is not nested in a span of the same name, so a layer's own recursion or
# delegation is not counted twice.
TRACED = (
    ("linalg", "solve_exact", "linalg.solve",
     lambda a, r: {"linalg.solve_calls": 1, "linalg.solve_cells": _cells(a[0].matrix)}),
    ("linalg", "matrix_rank", "linalg.rank",
     lambda a, r: {"linalg.rank_calls": 1, "linalg.rank_cells": _cells(a[0])}),
    ("decompose", "decompose_form", "decompose.build",
     lambda a, r: {"decompose.terms": len(r.terms)}),
    ("decompose", "solve_gammas", "decompose.build", None),
    ("decompose", "verify_decomposition", "decompose.verify",
     lambda a, r: {"decompose.verify_calls": 1, "decompose.verify_failed": int(not r.passed)}),
    ("decompose", "least_variable_check", "decompose.verify", None),
    ("polynomials", "poly_pow_linear", "polynomials.pow_linear",
     lambda a, r: {"polynomials.pow_linear_calls": 1,
                   "polynomials.pow_linear_terms": len(r.terms)}),
    ("serialize", "decomposition_to_json", "serialize.to_json", None),
    ("serialize", "dumps", "serialize.to_json",
     lambda a, r: {"serialize.json_bytes": len(r)}),
    ("serialize", "decomposition_from_json", "serialize.from_json", None),
    ("apolarity", "catalecticant", "apolarity.catalecticant",
     lambda a, r: {"apolarity.catalecticant_cells": len(r.row_monomials) * len(r.col_monomials)}),
    ("apolarity", "catalecticant_lower_bound", "apolarity.catalecticant", None),
    ("apolarity", "standard_monomial_levels", "apolarity.hf",
     lambda a, r: {"apolarity.standard_monomials": sum(map(len, r))}, "outer_only"),
    ("apolarity", "hf_table", "apolarity.hf",
     lambda a, r: {"apolarity.standard_monomials": sum(r)}, "outer_only"),
    ("apolarity", "hf_monomial_quotient", "apolarity.hf",
     lambda a, r: {"apolarity.standard_monomials": r}, "outer_only"),
    ("apolarity", "total_multiplicity", "apolarity.hf",
     lambda a, r: {"apolarity.standard_monomials": r}, "outer_only"),
    ("apolarity", "verify_claim_identity", "apolarity.claim", None),
    ("apolarity", "claim_ideals", "apolarity.claim", None),
    ("apolarity", "intersect_monomial_ideals", "apolarity.claim", None),
    ("apolarity", "random_claim_configuration", "apolarity.claim", None),
    ("rank", "survey_max_monomial_rank", "rank.survey",
     lambda a, r: {"rank.survey_candidates": len(r.table)}),
    ("forms", "parse_form", "forms.parse", lambda a, r: {"forms.parse_calls": 1}),
    ("forms", "parse_homogeneous", "forms.parse", lambda a, r: {"forms.parse_calls": 1}),
    ("cli", "main", "cli", None),
)
LAYERS = tuple(dict.fromkeys(entry[2] for entry in TRACED))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, job]
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._patches = []       # (namespace object, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, counter, outer_only):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            nested = outer_only and parent >= 0 and spans[parent][0] == name
            record = [name, 0, 0, parent, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if counter and not nested:
                counts.update(counter(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn, key):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "waring" and not mod_name.startswith("waring."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        """Wrap every traced function that the loaded package still has."""
        for entry in TRACED:
            mod_name, fn_name, span_name, counter = entry[:4]
            module = sys.modules.get(f"waring.{mod_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                continue
            self._replace_everywhere(
                original, self._wrap(original, span_name, counter, len(entry) > 4))
        number = getattr(sys.modules.get("waring.cyclotomic"), "CyclotomicNumber", None)
        if number is not None:
            mul = self._counting(number.__mul__, "cyclotomic.mul_calls")
            for attr in ("__mul__", "__rmul__"):
                self._patches.append((number, attr, number.__dict__[attr]))
                setattr(number, attr, mul)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self, first=0):
        """Self time in seconds per span name, over spans[first:]."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _job in self.spans[first:]:
            if parent >= first:
                child_ns[parent] += end - start
        out = Counter()
        for i, (name, start, end, _parent, _job) in enumerate(self.spans[first:], first):
            out[name] += (end - start - child_ns[i]) / 1e9
        return out

    def layer_metrics(self, first=0):
        """Every per-layer metric (times and counts) over spans[first:] and
        the current counters."""
        times = self.self_times(first)
        metrics = {f"{layer}_s" if layer != "cli" else "cli.self_s": times.get(layer, 0.0)
                   for layer in LAYERS}
        for name in TARGETS:
            if not name.endswith("_s") and not name.startswith("trace."):
                metrics[name] = self.counts.get(name, 0)
        return metrics

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                       "spans": self.spans}, fh)


def field_builds():
    """Cyclotomic polynomials built so far (cache misses of the package's
    `cyclotomic_polynomial`), or 0 if it keeps no such cache."""
    fn = getattr(sys.modules.get("waring.cyclotomic"), "cyclotomic_polynomial", None)
    info = getattr(fn, "cache_info", None)
    return info().misses if info else 0
