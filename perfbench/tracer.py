"""Outside-in tracing of potalg's layers for the traced benchmark run.

The tracer rebinds each traced function, in every loaded ``potalg``
module namespace that holds it, to a wrapper that records a span: name,
start, end, parent span and the job it belongs to. Several modules import
these functions by name (``from .rewrite import complete``), so rebinding
only the defining module would miss calls made from ``cli``, ``classify``,
``reproduce`` or ``quotient``; calls inside a module go through its
globals and are caught the same way. Spans stay in memory and are turned
into per-layer numbers when a pass ends. Counts are read from return
values at the same boundaries.
"""

import statistics
import sys
import time

# the public functions a span is recorded around, per layer; README.md
# says which end-to-end metric each should move on which workload
LAYERS = [
    ("rewrite", "complete"), ("rewrite", "normal_form"),
    ("rewrite", "s_polynomial"), ("rewrite", "ambiguities"),
    ("rewrite", "oracle_dimension"),
    ("quotient", "hilbert"), ("quotient", "mult_table"),
    ("quotient", "invariant_profile"),
    ("isotest", "algebra_from_json"), ("isotest", "from_quotient"),
    ("isotest", "algebra_profile"), ("isotest", "lifted_iso_search"),
    ("isotest", "is_isomorphism"),
    ("classify", "classify_potential"), ("classify", "cubic_class"),
    ("classify", "cleanup_x2y"), ("classify", "cleanup_x3y3"),
    ("freepoly", "substitute"),
    ("parsing", "parse_poly"),
    ("potential", "relations_of"),
    ("brace", "check_brace"), ("brace", "check_filtration"),
    ("brace", "associated_graded"), ("brace", "pre_lie_defect"),
    ("brace", "distributivity_series"),
    ("cli", "main"),
]

# Functions watched for counts only, without a span: every call of
# _window_stage appends one entry to the stage log it is handed.
COUNTED = [("classify", "_window_stage")]

# per-layer metrics and their units, in the order BENCHMARK.json lists them
PER_LAYER = [
    ("rewrite.complete.calls", "count"),
    ("rewrite.complete.busy_s", "s"),
    ("rewrite.complete.self_s", "s"),
    ("rewrite.normal_form.calls", "count"),
    ("rewrite.normal_form.busy_s", "s"),
    ("rewrite.s_polynomial.calls", "count"),
    ("rewrite.ambiguities.calls", "count"),
    ("rewrite.basis_size", "count"),
    ("rewrite.useful_spoly_ratio", "ratio"),
    ("rewrite.oracle_dimension.calls", "count"),
    ("rewrite.oracle_dimension.busy_s", "s"),
    ("quotient.hilbert.busy_s", "s"),
    ("quotient.mult_table.busy_s", "s"),
    ("quotient.mult_table.self_s", "s"),
    ("quotient.invariant_profile.busy_s", "s"),
    ("quotient.table_entries", "count"),
    ("isotest.algebra_from_json.busy_s", "s"),
    ("isotest.from_quotient.busy_s", "s"),
    ("isotest.algebra_profile.calls", "count"),
    ("isotest.algebra_profile.busy_s", "s"),
    ("isotest.lifted_iso_search.calls", "count"),
    ("isotest.lifted_iso_search.busy_s", "s"),
    ("isotest.is_isomorphism.calls", "count"),
    ("isotest.linear_parts", "count"),
    ("classify.classify_potential.calls", "count"),
    ("classify.classify_potential.busy_s", "s"),
    ("classify.classify_potential.self_s", "s"),
    ("classify.cubic_class.busy_s", "s"),
    ("classify.cleanup_x2y.busy_s", "s"),
    ("classify.cleanup_x3y3.busy_s", "s"),
    ("classify.stages", "count"),
    ("classify.projected_ratio", "ratio"),
    ("freepoly.substitute.calls", "count"),
    ("freepoly.substitute.busy_s", "s"),
    ("parsing.parse_poly.busy_s", "s"),
    ("potential.relations_of.busy_s", "s"),
    ("brace.check_brace.busy_s", "s"),
    ("brace.check_filtration.busy_s", "s"),
    ("brace.associated_graded.busy_s", "s"),
    ("brace.pre_lie_defect.busy_s", "s"),
    ("brace.distributivity_series.calls", "count"),
    ("brace.distributivity_series.busy_s", "s"),
    ("brace.triples", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _count_from(name, args, result):
    """Counts read at a span boundary from the call and its result."""
    if name == "rewrite.complete":
        return {"rewrite.basis_size": len(result.elements)}
    if name == "quotient.mult_table":
        return {"quotient.table_entries": len(result.table)}
    if name == "isotest.lifted_iso_search":
        cert = result.certificate or {}
        return {"isotest.linear_parts": cert.get("linear_parts", 0)}
    if name == "brace.check_brace":
        return {"brace.triples": args[0].order ** 3}
    return None


class Tracer:
    """Span recorder for one traced pass at a time.

    A span is (name, start, end, parent index, job, reentrant); reentrant
    marks a span opened while another span of the same name was open, so
    busy time is not counted twice for recursive calls.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self.open_names = {}
        self.job = None
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            depth = tracer.open_names.get(name, 0)
            tracer.open_names[name] = depth + 1
            spans.append(None)
            tracer.stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.open_names[name] = depth
                spans[idx] = (name, start, end, parent, tracer.job, depth > 0)
            counts = _count_from(name, args, result)
            if counts:
                for key, value in counts.items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_counted(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            # _window_stage(body, cap, window, moves, targets, trail, log)
            log = args[6] if len(args) > 6 else kwargs.get("stage_log")
            if log:
                c = tracer.counts
                c["classify.stages"] = c.get("classify.stages", 0) + 1
                if log[-1].get("projected"):
                    c["classify.projected"] = c.get("classify.projected", 0) + 1
            return result

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Rebind every traced function in every potalg module holding it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "potalg" or n.startswith("potalg."))]
        targets = [(key, True) for key in LAYERS] + [(key, False) for key in COUNTED]
        for (mod_name, fn_name), spanned in targets:
            home = sys.modules.get("potalg." + mod_name)
            original = getattr(home, fn_name, None)
            if original is None:
                print("trace: potalg.%s.%s not found; its metrics read 0"
                      % (mod_name, fn_name), file=sys.stderr)
                continue
            wrapper = (self._wrap("%s.%s" % (mod_name, fn_name), original)
                       if spanned else self._wrap_counted(original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def reset(self):
        self.spans, self.counts, self.stack, self.open_names = [], {}, [], {}

    # -- aggregation -------------------------------------------------------

    def pass_metrics(self):
        """Per-layer numbers of the spans and counts since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, self_s = {}, {}, {}
        under_complete = {"rewrite.ambiguities": 0, "rewrite.s_polynomial": 0}
        for i, (name, start, end, parent, _, reentrant) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            if not reentrant:
                busy[name] = busy.get(name, 0.0) + dur
            if name in under_complete:
                p = parent
                while p >= 0 and spans[p][0] != "rewrite.complete":
                    p = spans[p][3]
                if p >= 0:
                    under_complete[name] += 1
        counts = self.counts
        out = {}
        for metric, _ in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(base, 0)
            elif kind == "busy_s":
                out[metric] = busy.get(base, 0.0)
            elif kind == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif metric in counts:
                out[metric] = counts[metric]
        # nonzero remainders: each one restarts the scan, which calls
        # ambiguities() again; the last scan of every completion finds none
        spolys = under_complete["rewrite.s_polynomial"]
        useful = under_complete["rewrite.ambiguities"] - calls.get("rewrite.complete", 0)
        out["rewrite.useful_spoly_ratio"] = useful / spolys if spolys else 0.0
        stages = counts.get("classify.stages", 0)
        out["classify.stages"] = stages
        out["classify.projected_ratio"] = (
            counts.get("classify.projected", 0) / stages if stages else 0.0)
        for metric, _ in PER_LAYER:
            out.setdefault(metric, 0)
        return out

    def dump(self, path):
        """Write the spans of the last pass, one JSON array per line."""
        import json
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
