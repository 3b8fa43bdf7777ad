"""The four benchmark workloads: their inputs, one op, and the check.

Each workload builds its inputs from the seed (``__init__``), lists one
pass of ops (``ops``), and checks an op's result against an independent
reference computed outside every timed region (``references`` then
``check``). An op returns a tuple of rows ``(threshold, lower, upper,
exact)``, where ``exact`` is None when the op's output does not carry
the exactness flag (the CLI's CSV).

Ops call plif through module attributes (``infer.bounds_at``, not a
name bound at import), so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from typing import Callable, NamedTuple

import numpy as np

import plif.cli as cli
import plif.gen as gen
import plif.infer as infer
import plif.model as model
from plif import HmmParams, Query, Schedule, Threshold

import reference
from kchain import KChain
from reference import TOL


class Row(NamedTuple):
    threshold: float
    lower: float
    upper: float
    exact: bool | None


class Op(NamedTuple):
    label: str
    run: Callable[[], tuple[Row, ...]]


def _rows(bounds) -> tuple[Row, ...]:
    return tuple(Row(qb.threshold.v, qb.lower, qb.upper, qb.exactness.is_exact) for qb in bounds)


def _bracket_miss(row: Row, lo: float, hi: float) -> str | None:
    """A row must equal its reference bracket; a row flagged exact must
    also cover everything the reference still allows."""
    if abs(row.lower - lo) > TOL or abs(row.upper - hi) > TOL:
        return f"threshold {row.threshold:g}: [{row.lower!r}, {row.upper!r}] vs reference [{lo!r}, {hi!r}]"
    if row.exact and (lo < row.lower - TOL or hi > row.upper + TOL):
        return f"threshold {row.threshold:g}: flagged exact but excludes the reference [{lo!r}, {hi!r}]"
    return None


class HmmSweep:
    """The paper's chain experiment through the CLI, scaled up: one
    ``plif sweep --hmm`` with depth = window = DEPTH, stdout captured.
    The query is the paper's fixed one (stay 0.9, emit 0.8, all-ones
    window); the seed does not change it."""

    name = "hmm_sweep"
    DEPTH = 120
    STAY, EMIT = 0.9, 0.8

    def __init__(self, seed: int):
        self.argv = ["sweep", "--hmm", "--depth", str(self.DEPTH), "--window", str(self.DEPTH), "--format", "csv"]
        self.ops = [Op(f"depth={self.DEPTH}", self._run)]

    def _run(self) -> tuple[Row, ...]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"plif sweep exited with {code}")
        rows = []
        for line in out.getvalue().splitlines()[1:]:
            th, lo, hi = line.split(",")[:3]
            rows.append(Row(float(th), float(lo), float(hi), None))
        return tuple(rows)

    def references(self) -> None:
        self.ref = [reference.hmm_bracket(self.STAY, self.EMIT, d, self.DEPTH) for d in range(1, self.DEPTH + 1)]

    def check(self, index: int, rows: tuple[Row, ...]) -> str | None:
        if [r.threshold for r in rows] != [-float(d) for d in range(1, self.DEPTH + 1)]:
            return f"expected thresholds -1..-{self.DEPTH}, got {len(rows)} rows"
        for row, (lo, hi) in zip(rows, self.ref):
            miss = _bracket_miss(row, lo, hi)
            if miss:
                return miss
        return None


class HmmWindow:
    """One ``bounds_at`` at threshold -w on the paper's chain with window
    w, for each w in WINDOWS. The w=2500 op underflows today (lower =
    upper = 1.0 flagged coincidence; the truth is 0.871578) and counts
    as failed."""

    name = "hmm_window"
    WINDOWS = (400, 1200, 2500)

    def __init__(self, seed: int):
        self.params = [HmmParams(window=w) for w in self.WINDOWS]
        self.ops = [Op(f"w={p.window}", self._op(p)) for p in self.params]

    @staticmethod
    def _op(p: HmmParams) -> Callable[[], tuple[Row, ...]]:
        th = Threshold(-float(p.window))
        return lambda: _rows([infer.bounds_at(gen.hmm_model(p), gen.hmm_query(p), th)])

    def references(self) -> None:
        self.ref = [
            reference.hmm_bracket(p.transition_stay, p.emission_true, p.window, p.window) for p in self.params
        ]

    def check(self, index: int, rows: tuple[Row, ...]) -> str | None:
        if len(rows) != 1 or rows[0].threshold != -float(self.params[index].window):
            return f"expected one row at threshold -{self.params[index].window}"
        return _bracket_miss(rows[0], *self.ref[index])


def corpus_document(rng: random.Random, node_count: int, state_count: int) -> dict:
    """One closed-past random network, the acceptance-corpus recipe: nodes
    along a random topological order, up to 3 earlier parents each, 2 to
    ``state_count`` states, every CPT entry lifted by 0.05 before
    normalizing (so every evidence set has positive probability), roots
    at t0 = 0 and node i at pl = i."""
    nodes = []
    for i in range(node_count):
        parents = sorted(rng.sample(range(i), rng.randint(0, min(3, i))))
        n_states = rng.randint(2, state_count)
        cpt = []
        for _ in range(math.prod(len(nodes[p]["states"]) for p in parents)):
            raw = [0.05 + rng.random() for _ in range(n_states)]
            total = sum(raw)
            cpt.append([x / total for x in raw])
        nodes.append(
            {
                "name": f"n{i:02d}",
                "states": [str(s) for s in range(n_states)],
                "pl": float(i) if parents else 0.0,
                "parents": [f"n{p:02d}" for p in parents],
                "cpt": cpt,
            }
        )
    return {"t0": 0.0, "open_past": False, "nodes": nodes}


def corpus_query(rng: random.Random, doc: dict) -> tuple[dict, dict]:
    """1-2 objective nodes and 0-3 disjoint evidence nodes, random states."""
    nodes = doc["nodes"]
    n_obj = rng.randint(1, min(2, len(nodes)))
    n_ev = rng.randint(0, min(3, len(nodes) - n_obj))
    perm = rng.sample(nodes, len(nodes))

    def pick(ns):
        return {n["name"]: rng.choice(n["states"]) for n in sorted(ns, key=lambda n: n["name"])}

    return pick(perm[:n_obj]), pick(perm[n_obj : n_obj + n_ev])


class Corpus:
    """Thousands of tiny fragments: per op, ``load_network`` on a JSON
    document, ``default_schedule``, and ``anytime_sweep`` stopping on the
    first exact row. The seed draws a pool of POOL networks (3-12 nodes,
    2-3 states); one pass sweeps each of them once."""

    name = "corpus"
    POOL = 2000

    def __init__(self, seed: int):
        self.docs, self.queries, self.ops = [], [], []
        for i in range(self.POOL):
            rng = random.Random(f"corpus-{seed}-{i}")
            doc = corpus_document(rng, node_count=3 + i % 10, state_count=2 + i % 2)
            objective, evidence = corpus_query(rng, doc)
            self.docs.append(doc)
            self.queries.append((objective, evidence))
            self.ops.append(Op(f"net{i}", self._op(json.dumps(doc), Query(objective, evidence))))

    @staticmethod
    def _op(text: str, query: Query) -> Callable[[], tuple[Row, ...]]:
        def run() -> tuple[Row, ...]:
            net = model.load_network(text)
            return _rows(infer.anytime_sweep(net, query, infer.default_schedule(net, query)))

        return run

    def references(self) -> None:
        self.ref = [reference.net_conditional(d, *q) for d, q in zip(self.docs, self.queries)]
        self.docs = None  # only the reference reads the parsed documents

    def check(self, index: int, rows: tuple[Row, ...]) -> str | None:
        exact = self.ref[index]
        for row in rows:
            if exact < row.lower - TOL or exact > row.upper + TOL:
                return f"threshold {row.threshold:g}: [{row.lower!r}, {row.upper!r}] excludes {exact!r}"
            if row.exact and (abs(row.lower - exact) > TOL or abs(row.upper - exact) > TOL):
                return f"threshold {row.threshold:g}: flagged exact at [{row.lower!r}, {row.upper!r}], truth {exact!r}"
        return None


class KChainSweep:
    """The time to an answer of a stated accuracy: ``anytime_sweep`` over
    thresholds -1, -2, ... on a lazy coupled k-chain DBN, stopping at the
    first row whose bracket is narrower than 1e-9 (the engine flags it
    coincident). The seed draws the CPTs and the evidence. Instances are
    drawn until one needs exactly STEPS thresholds, so that every seed
    does the same amount of contraction work."""

    name = "kchain_sweep"
    STEPS = 22
    MAX_STEPS = 64
    WIDTH = 1e-9

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed % 2**64)
        while True:
            kc = KChain.from_seed(int(rng.integers(2**63)))
            brackets = reference.kchain_brackets(kc.trans, kc.emit, kc.obs, self.STEPS)
            widths = brackets[:, 1] - brackets[:, 0]
            # clear of the width on both sides, so float noise cannot move the stop
            if widths[-1] < self.WIDTH * 0.99 and widths[-2] > self.WIDTH * 1.01:
                break
        self.kc = kc
        self.schedule = Schedule(tuple(Threshold(-float(d)) for d in range(1, self.MAX_STEPS + 1)))
        self.ops = [Op(f"k={kc.k}", self._run)]

    def _run(self) -> tuple[Row, ...]:
        return _rows(infer.anytime_sweep(self.kc.model(), self.kc.query(), self.schedule))

    def references(self) -> None:
        self.ref = reference.kchain_brackets(self.kc.trans, self.kc.emit, self.kc.obs, self.MAX_STEPS)

    def check(self, index: int, rows: tuple[Row, ...]) -> str | None:
        last = rows[-1] if rows else None
        if last is None or last.upper - last.lower > self.WIDTH:
            return "sweep ended before the bracket reached the stated width"
        for d, row in enumerate(rows, start=1):
            if row.threshold != -float(d):
                return f"row {d} sits at threshold {row.threshold:g}"
            miss = _bracket_miss(row, *self.ref[d - 1])
            if miss:
                return miss
        return None


WORKLOADS = {w.name: w for w in (HmmSweep, HmmWindow, Corpus, KChainSweep)}


def perturbed(rows: tuple[Row, ...]) -> tuple[Row, ...]:
    """The same result with its last row shifted by 1e-6: the check must
    count it as failed."""
    last = rows[-1]
    return rows[:-1] + (last._replace(lower=last.lower + 1e-6, upper=last.upper + 1e-6),)
