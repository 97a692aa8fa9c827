"""Spans around the library's layer boundaries, recorded from outside.

`Tracer.install` rebinds each public function listed in LAYERS (and the
`SegmentTable` constructor) in every loaded module that holds it, so calls
between library modules and recursive calls pass through the wrapper too.
`lasso_value` is rebound separately in `staromega.system` and in
`staromega.pda`, so the automaton's certificate graph can be counted apart.
`SemiringValue` arithmetic is counted, not spanned.

A span is (name, start, end, parent span, query id, counts).  Spans are kept
in memory and only recorded while a query scope is open; spans and counts of
a scope that ran past its time limit are dropped, so the aggregated numbers
cover completed work only and repeat exactly from run to run.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from timelimit import QueryTimeout


# (module, function, span name, counts taken at the boundary)
LAYERS = [
    ("staromega.matrix", "mat_star", "matrix.mat_star", {}),
    ("staromega.matrix", "mat_omega_t", "matrix.mat_omega_t", {}),
    ("staromega.matrix", "mat_omega", "matrix.mat_omega", {"matrix.mat_omega.calls": None}),
    ("staromega.series", "substitute", "series.substitute", {"series.substitute.calls": None}),
    ("staromega.system", "least_solution_finite", "system.least_solution_finite", {}),
    ("staromega.system", "canonical_omega_lasso", "system.canonical_omega_lasso", {}),
    ("staromega.system", "support_triples", "system.support_triples", {}),
    (
        "staromega.system",
        "SegmentTable",
        "system.SegmentTable",
        {"system.SegmentTable.entries": lambda args, result: len(result.table)},
    ),
    (
        "staromega._search",
        "lasso_value",
        "search.lasso_value",
        {"search.lasso_value.nodes": lambda args, result: len(args[1])},
    ),
    ("staromega._search", "path_sums", "search.path_sums", {}),
    ("staromega.pda", "behavior_finite", "pda.behavior_finite", {}),
    ("staromega.pda", "behavior_omega_lasso", "pda.behavior_omega_lasso", {}),
    (
        "staromega.pda",
        "induced_omega_pda",
        "pda.induced_omega_pda",
        {
            "pda.states": lambda args, result: result.matrix.n_states,
            "pda.stack_symbols": lambda args, result: len(result.matrix.stack_alphabet),
        },
    ),
    (
        "staromega.gnf",
        "decompose_canonical",
        "gnf.decompose_canonical",
        {"gnf.decompose_canonical.terms": lambda args, result: result.width},
    ),
    ("staromega.gnf", "normalize_decomposition", "gnf.normalize_decomposition", {}),
    ("staromega.gnf", "finite_gnf", "gnf.finite_gnf", {"gnf.finite_gnf.calls": None}),
    ("staromega.gnf", "build_pair_system", "gnf.build_pair_system", {}),
    ("staromega.gnf", "sum_systems", "gnf.sum_systems", {}),
    (
        "staromega.gnf",
        "unmix",
        "gnf.unmix",
        {"gnf.unmix.variables": lambda args, result: len(result[0].variables)},
    ),
    ("staromega.cli", "parse_grammar", "cli.parse_grammar", {}),
    (
        "staromega.cli",
        "format_grammar",
        "cli.format_grammar",
        {"cli.output_bytes": lambda args, result: len(result.encode())},
    ),
]

# counted on the automaton route only, from lasso_value as called by
# staromega.pda: the certificate graph's nodes, and the searches whose graph
# reached the default node budget, which the library truncates without saying
PDA_LASSO_NODES = "pda.certificate_nodes"
PDA_TRUNCATED = "pda.truncated_searches"

VALUE_OPS = ("__add__", "__mul__", "star", "omega")


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.qid = None
        self.value_ops = 0
        self.ops_by_query: dict = {}
        self.dropped: set = set()

    # -- recording ---------------------------------------------------------------

    @contextmanager
    def scope(self, qid):
        """Attribute spans to one query (or set-up step) while the body runs."""
        self.qid, self.stack = qid, []
        ops0 = self.value_ops
        try:
            yield
        except QueryTimeout:
            self.dropped.add(qid)
            raise
        finally:
            self.ops_by_query[qid] = self.value_ops - ops0
            self.qid, self.stack = None, []

    def wrap(self, fn, name: str, counts: dict):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.qid is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            measured = {}
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                measured = {
                    key: 1 if f is None else f(args, result) for key, f in counts.items()
                }
                return result
            finally:
                end = perf_counter()
                if stack and stack[-1] == idx:
                    stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.qid, measured)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Rebind every listed function in every module that imported it."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k.startswith("staromega") or k == "workloads")
        ]
        for mod_name, attr, name, counts in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            for mod in modules:
                if getattr(mod, attr, None) is not original:
                    continue
                extra = dict(counts)
                if attr == "lasso_value" and mod.__name__ == "staromega.pda":
                    budget = mod.PdaLassoCaps.__dataclass_fields__["max_nodes"].default
                    extra[PDA_LASSO_NODES] = lambda args, result: len(args[1])
                    extra[PDA_TRUNCATED] = lambda args, result: int(len(args[1]) >= budget)
                setattr(mod, attr, self.wrap(original, name, extra))
        from staromega.semiring import SemiringValue

        for op in VALUE_OPS:
            setattr(SemiringValue, op, self._counted(getattr(SemiringValue, op)))

    def _counted(self, method):
        tracer = self

        def counted(*args):
            tracer.value_ops += 1
            return method(*args)

        return counted

    # -- aggregation ---------------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Self time per span name (ms), call counts and boundary counts."""
        spans = self.spans
        child_time = defaultdict(float)
        for s in spans:
            if s is not None and s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        unmix_vars = []
        for idx, s in enumerate(spans):
            if s is None or s[4] in self.dropped:
                continue
            name, start, end, _parent, _qid, counts = s
            out[name + ".self_ms"] += 1000.0 * (end - start - child_time[idx])
            for key, value in counts.items():
                out[key] += value
            if "gnf.unmix.variables" in counts:
                unmix_vars.append(counts["gnf.unmix.variables"])
        out["semiring.value_ops"] = sum(
            n for q, n in self.ops_by_query.items() if q not in self.dropped
        )
        out["nf_vars_p50"] = statistics.median(unmix_vars) if unmix_vars else 0
        return dict(out)

    def dump(self) -> list[list]:
        """Kept spans as [index, name, start, end, parent index, query id, counts]."""
        return [
            [idx, s[0], round(s[1], 6), round(s[2], 6), s[3], repr(s[4]), s[5]]
            for idx, s in enumerate(self.spans)
            if s is not None and s[4] not in self.dropped
        ]
