"""Outside-in tracing: spans around the calls into each plif module,
recorded from the benchmark's own code.

While a :class:`Tracer` is installed it replaces the module attributes
through which ops and plif's modules call one another
(``infer.bounds_at``, ``infer.root_set``, ``retrieval.materialize``,
``model.validate``, ...) with wrappers that record a span around the
original and count what it returned. Lazy models get a resolver that
counts its calls. Nothing under ``src/`` changes.

Spans stay in memory as ``(id, parent, op, name, start_ns, end_ns)``
and are written out at the end. A span's self time is its duration minus
that of its child spans.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import numpy as np

import plif.cli as cli
import plif.gen as gen
import plif.infer as infer
import plif.model as model
import plif.retrieval as retrieval
from plif import LazyNetwork

from kchain import KChain

COUNTS = (
    "model.resolver.calls",
    "model.materialize.nodes",
    "retrieval.interior_nodes",
    "retrieval.frontier_nodes",
    "infer.thresholds",
    "infer.clamps",
    "infer.clamps_zero",
)
# spans whose self times partition an op; the sweep loops around them
# (anytime_sweep, hmm_sweep_experiment) are thin and left out
LAYERS = (
    "cli.main",
    "model.load_network",
    "model.validate",
    "model.materialize",
    "retrieval.root_set",
    "infer.default_schedule",
    "infer.frontier_clamp_table",
    "infer.bounds_at",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self._stack: list[int] = [0]
        self._next = 1
        self._saved: list[tuple[object, str, object]] = []
        self.op = 0
        self.start_pass()

    def set_op(self, op: int) -> None:
        self.op = op

    def start_pass(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.min_normalizer = math.inf
        self.steps: list[tuple[int, int]] = []  # (interior nodes, ns) per bounds_at
        self._interior = 0
        self._first_span = len(self.spans)

    def call(self, name, fn, *args, **kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))

    # -- wrappers ---------------------------------------------------------

    def _span(self, name):
        return lambda real: lambda *a, **kw: self.call(name, real, *a, **kw)

    def _counting(self, real):
        def make(*args, **kwargs) -> LazyNetwork:
            lazy = real(*args, **kwargs)
            resolver = lazy.resolver

            def counted(name):
                self.counts["model.resolver.calls"] += 1
                return resolver(name)

            return LazyNetwork(resolver=counted, t0=lazy.t0, open_past=lazy.open_past)

        return make

    def _materialize(self, real):
        def traced(*args, **kwargs):
            net = self.call("model.materialize", real, *args, **kwargs)
            self.counts["model.materialize.nodes"] += len(net)
            return net

        return traced

    def _root_set(self, real):
        def traced(*args, **kwargs):
            rs = self.call("retrieval.root_set", real, *args, **kwargs)
            self.counts["retrieval.interior_nodes"] += len(rs.interior)
            self.counts["retrieval.frontier_nodes"] += len(rs.frontier)
            self._interior = len(rs.interior)
            return rs

        return traced

    def _clamp_table(self, real):
        def traced(*args, **kwargs):
            scan, num, den = self.call("infer.frontier_clamp_table", real, *args, **kwargs)
            self.counts["infer.clamps"] += den.size
            self.counts["infer.clamps_zero"] += int((den == 0.0).sum())
            positive = den[den > 0.0]
            if positive.size:
                self.min_normalizer = min(self.min_normalizer, float(positive.min()))
            return scan, num, den

        return traced

    def _bounds_at(self, real):
        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            out = self.call("infer.bounds_at", real, *args, **kwargs)
            self.steps.append((self._interior, time.perf_counter_ns() - start))
            self.counts["infer.thresholds"] += 1
            return out

        return traced

    def install(self) -> None:
        for owner, attr, make in (
            (cli, "main", self._span("cli.main")),
            (cli, "hmm_sweep_experiment", self._span("gen.hmm_sweep_experiment")),
            (gen, "hmm_model", self._counting),
            (gen, "default_schedule", self._span("infer.default_schedule")),
            (gen, "anytime_sweep", self._span("infer.anytime_sweep")),
            (KChain, "model", self._counting),
            (model, "load_network", self._span("model.load_network")),
            (model, "validate", self._span("model.validate")),
            (retrieval, "materialize", self._materialize),
            (infer, "default_schedule", self._span("infer.default_schedule")),
            (infer, "anytime_sweep", self._span("infer.anytime_sweep")),
            (infer, "bounds_at", self._bounds_at),
            (infer, "root_set", self._root_set),
            (infer, "frontier_clamp_table", self._clamp_table),
        ):
            real = getattr(owner, attr)
            self._saved.append((owner, attr, real))
            setattr(owner, attr, make(real))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, real = self._saved.pop()
            setattr(owner, attr, real)

    # -- per-layer metrics --------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer times (ms, summed over the pass since
        :meth:`start_pass`) and counts."""
        spans = self.spans[self._first_span :]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        child_ms: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            child_ms[parent] += (end - start) / 1e6
        for sid, _, _, name, start, end in spans:
            ms = (end - start) / 1e6
            total[name] += ms
            own[name] += ms - child_ms[sid]
        out = {
            "cli.main.self_ms": own["cli.main"],
            "model.load_network.ms": total["model.load_network"],
            "model.materialize.self_ms": own["model.materialize"],
            "model.validate.ms": total["model.validate"],
            "infer.default_schedule.ms": total["infer.default_schedule"],
            "retrieval.root_set.ms": own["retrieval.root_set"],
            "infer.frontier_clamp_table.ms": total["infer.frontier_clamp_table"],
            "infer.bounds_at.self_ms": own["infer.bounds_at"],
            "trace.layer_sum_ms": sum(own[name] for name in LAYERS),
        }
        out.update({name: self.counts[name] for name in COUNTS})
        nodes = self.counts["model.materialize.nodes"]
        out["model.resolver.hit_ratio"] = 1.0 - self.counts["model.resolver.calls"] / nodes if nodes else None
        out["infer.min_normalizer_log10"] = (
            math.log10(self.min_normalizer) if math.isfinite(self.min_normalizer) else None
        )
        out["infer.step_growth"] = step_growth(self.steps)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(x) for x in span) + "\n")


def step_growth(steps: list[tuple[int, int]]) -> float:
    """Log-log slope of the time of one threshold against its fragment size
    (interior nodes, which grow linearly with depth on the chains)."""
    sizes = np.array([s for s, _ in steps], dtype=float)
    if len(set(sizes)) < 2:
        return 0.0
    times = np.array([t for _, t in steps], dtype=float)
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
