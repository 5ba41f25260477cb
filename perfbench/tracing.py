"""Span and counter tracing of multlab, installed from outside by patching.

Each traced function is replaced, in every ``multlab`` module that holds a
reference to it, by a wrapper that times the call and charges the time to
its caller, so a layer's self time is its duration minus the time its
traced callees took.  Names imported by value (``hildebrand.build_sieve``,
``multfunc.valuation``, ``cli.hildebrand_constant``) are found by identity
and patched in each importing module; methods are patched on their class.

Coarse calls become spans (name, start, end, parent, op) kept in memory and
written out at the end.  Hot calls (``valuation``, ``evaluate``,
``color_of``, ``subset_sum``), which run up to millions of times per pass,
only add to the per-name counters, but still charge their time to the
enclosing span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# (module, attribute, layer name); functions whose calls become spans.
SPANS = [
    ("multlab.cli", "main", "cli.main"),
    ("multlab.hildebrand", "hildebrand_constant", "hildebrand.constant"),
    ("multlab.hildebrand", "avoidance_search", "hildebrand.search"),
    ("multlab.hildebrand", "verify_certificate", "hildebrand.verify_certificate"),
    ("multlab.arith", "build_sieve", "arith.build_sieve"),
    ("multlab.multfunc", "class_table", "multfunc.class_table"),
    ("multlab.multfunc", "find_runs", "multfunc.find_runs"),
    ("multlab.blockseq", "generate_block_sequence", "blockseq.generate"),
    ("multlab.blockseq", "verify_block_divisibility", "blockseq.verify"),
    ("multlab.hindman", "random_coloring", "hindman.random_coloring"),
    ("multlab.hindman", "monochromatic_fu_search", "hindman.search"),
    ("multlab.witness", "ip_witness_from_proof", "witness.proof"),
    ("multlab.witness", "ip_witness_direct", "witness.direct"),
    ("multlab.witness", "verify_witness", "witness.verify"),
    ("multlab.witness", "witness_to_dict", "witness.serialize"),
]

# (module, attribute, layer name); hot functions that only feed counters.
COUNTED = [
    ("multlab.arith", "valuation", "arith.valuation"),
    ("multlab.blockseq", "subset_sum", "blockseq.subset_sum"),
]

# (module, class, method, layer name); hot methods that only feed counters.
COUNTED_METHODS = [
    ("multlab.multfunc", "MultiplicativeFunction", "evaluate", "multfunc.evaluate"),
    ("multlab.hindman", "SubsetColoring", "color_of", "hindman.color_of"),
]


class Tracer:
    """Per-name calls, inclusive and self seconds, spans and result counts.

    A single-threaded stack of frames [child seconds, span index] tracks
    nesting; every workload op runs sequentially on the main thread.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []
        self._stack: list[list] = [[0.0, -1]]
        self._patched: list[tuple[object, str, object]] = []
        self.op = None

    def reset(self):
        """Clear the per-pass tallies; spans are kept for the spans file."""
        self.calls.clear()
        self.total.clear()
        self.self_s.clear()
        self.counts.clear()

    def parent_name(self) -> str | None:
        idx = self._stack[-1][1]
        return self.spans[idx][0] if idx >= 0 else None

    def _wrap(self, fn, name: str, span: bool, observe=None):
        stack, spans = self._stack, self.spans
        calls, total, self_s = self.calls, self.total, self.self_s

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent[1], self.op])
            else:
                idx = parent[1]
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[0] += dt
                calls[name] += 1
                total[name] += dt
                self_s[name] += dt - frame[0]
                if span:
                    spans[idx][1] = t0
                    spans[idx][2] = t0 + dt
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def run_op(self, op_name: str, fn):
        """Call fn() as the root span of one workload op."""
        self.op = op_name
        try:
            return self._wrap(fn, "op", True)()
        finally:
            self.op = None

    def install(self):
        """Patch every traced function and method; undo with uninstall()."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "multlab" or name.startswith("multlab."))]
        for targets, span in ((SPANS, True), (COUNTED, False)):
            for mod_name, attr, name in targets:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(original, name, span, _OBSERVERS.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        for mod_name, cls_name, attr, name in COUNTED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name, False))

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _observe_search(tracer: Tracer, args, out):
    tracer.counts["nodes"] += out.stats.nodes
    tracer.counts["backtracks"] += out.stats.backtracks
    if tracer.parent_name() != "hildebrand.constant":
        tracer.counts["useful_probes"] += 1


def _observe_constant(tracer: Tracer, args, res):
    # Deepening uses two probes: the sat one at c - 1 and the unsat one at c.
    tracer.counts["useful_probes"] += 2 if res.c is not None else int(res.certificate is not None)


def _observe_sieve(tracer: Tracer, args, sieve):
    tracer.counts["sieve_cells"] += sieve.limit + 1


def _observe_valuation(tracer: Tracer, args, e):
    bits = args[0].bit_length()
    if bits > tracer.counts["valuation_max_bits"]:
        tracer.counts["valuation_max_bits"] = bits


def _observe_divisibility(tracer: Tracer, args, report):
    tracer.counts["pairs_checked"] += report.checked


def _observe_fu_search(tracer: Tracer, args, family):
    tracer.counts["fu_found"] += family is not None


_OBSERVERS = {
    "hildebrand.search": _observe_search,
    "hildebrand.constant": _observe_constant,
    "arith.build_sieve": _observe_sieve,
    "arith.valuation": _observe_valuation,
    "blockseq.verify": _observe_divisibility,
    "hindman.search": _observe_fu_search,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric name, unit); the per-layer metrics of one traced pass.
LAYER_METRICS = [
    ("hildebrand.probes", "count"),
    ("hildebrand.useful_probe_ratio", "ratio"),
    ("hildebrand.search.self_s", "s"),
    ("hildebrand.nodes", "count"),
    ("hildebrand.backtracks", "count"),
    ("hildebrand.nodes_per_s", "1/s"),
    ("hildebrand.verify_certificate.calls", "count"),
    ("hildebrand.verify_certificate.s", "s"),
    ("arith.build_sieve.calls", "count"),
    ("arith.build_sieve.s", "s"),
    ("arith.sieve_cells", "count"),
    ("arith.valuation.calls", "count"),
    ("arith.valuation.s", "s"),
    ("arith.valuation.max_bits", "bits"),
    ("multfunc.class_table.calls", "count"),
    ("multfunc.class_table.s", "s"),
    ("multfunc.evaluate.calls", "count"),
    ("multfunc.evaluate.s", "s"),
    ("multfunc.find_runs.s", "s"),
    ("witness.proof.self_s", "s"),
    ("witness.direct.s", "s"),
    ("witness.verify.calls", "count"),
    ("witness.verify.s", "s"),
    ("witness.serialize.s", "s"),
    ("blockseq.generate.s", "s"),
    ("blockseq.verify.s", "s"),
    ("blockseq.pairs_checked", "count"),
    ("blockseq.subset_sum.calls", "count"),
    ("hindman.random_coloring.s", "s"),
    ("hindman.search.self_s", "s"),
    ("hindman.color_calls", "count"),
    ("hindman.found_ratio", "ratio"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
]


def layer_metrics(tracer: Tracer, cli_out_bytes: int) -> dict[str, float]:
    """The LAYER_METRICS values of the pass just traced."""
    calls, total, self_s, counts = tracer.calls, tracer.total, tracer.self_s, tracer.counts
    probes = calls["hildebrand.search"]
    return {
        "hildebrand.probes": probes,
        "hildebrand.useful_probe_ratio": _ratio(counts["useful_probes"], probes),
        "hildebrand.search.self_s": self_s["hildebrand.search"],
        "hildebrand.nodes": counts["nodes"],
        "hildebrand.backtracks": counts["backtracks"],
        "hildebrand.nodes_per_s": _ratio(counts["nodes"], total["hildebrand.search"]),
        "hildebrand.verify_certificate.calls": calls["hildebrand.verify_certificate"],
        "hildebrand.verify_certificate.s": total["hildebrand.verify_certificate"],
        "arith.build_sieve.calls": calls["arith.build_sieve"],
        "arith.build_sieve.s": total["arith.build_sieve"],
        "arith.sieve_cells": counts["sieve_cells"],
        "arith.valuation.calls": calls["arith.valuation"],
        "arith.valuation.s": total["arith.valuation"],
        "arith.valuation.max_bits": counts["valuation_max_bits"],
        "multfunc.class_table.calls": calls["multfunc.class_table"],
        "multfunc.class_table.s": total["multfunc.class_table"],
        "multfunc.evaluate.calls": calls["multfunc.evaluate"],
        "multfunc.evaluate.s": total["multfunc.evaluate"],
        "multfunc.find_runs.s": total["multfunc.find_runs"],
        "witness.proof.self_s": self_s["witness.proof"],
        "witness.direct.s": total["witness.direct"],
        "witness.verify.calls": calls["witness.verify"],
        "witness.verify.s": total["witness.verify"],
        "witness.serialize.s": total["witness.serialize"],
        "blockseq.generate.s": total["blockseq.generate"],
        "blockseq.verify.s": total["blockseq.verify"],
        "blockseq.pairs_checked": counts["pairs_checked"],
        "blockseq.subset_sum.calls": calls["blockseq.subset_sum"],
        "hindman.random_coloring.s": total["hindman.random_coloring"],
        "hindman.search.self_s": self_s["hindman.search"],
        "hindman.color_calls": calls["hindman.color_of"],
        "hindman.found_ratio": _ratio(counts["fu_found"], calls["hindman.search"]),
        "cli.main.s": total["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "cli.out_bytes": cli_out_bytes,
    }
