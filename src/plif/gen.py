"""Network generators and the sweep experiment driver.

Houses the seeded random networks and queries the property suites run
on, plus the unbounded hidden-state chain (a two-layer emission model
with an infinite past) used to demonstrate that a handful of backward
steps can settle a query whose relevant history is infinite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import QueryError, UnknownNodeError
from .infer import QueryBounds, anytime_sweep, bounds_at
from .infer import default_schedule  # noqa: F401  (bench/tracing.py wraps it here)
from .model import LazyNetwork, Network, NodeSpec, Query
from .retrieval import Threshold

# only the canonical names of hmm_node_name: x_t+0 or y_t-007 would alias a chain node
_HMM_NAME = re.compile(r"([xy])_t(?:([+-][1-9][0-9]*))?")


@dataclass(frozen=True, slots=True)
class HmmParams:
    """Parameters of the unbounded binary emission chain.

    ``transition_stay`` is the probability the hidden state repeats;
    ``emission_true`` the probability the observation copies it. The
    hidden node at offset k from the query time carries pl ``k - 2``;
    its observation sits ``y_pl_offset`` later. The window is how many
    trailing observations the standard query conditions on.
    """

    transition_stay: float = 0.9
    emission_true: float = 0.8
    window: int = 10
    y_pl_offset: float = 0.5

    def __post_init__(self):
        for label, p in (("transition_stay", self.transition_stay), ("emission_true", self.emission_true)):
            if not 0.0 < p < 1.0:
                raise QueryError(f"{label} must be inside (0, 1), got {p!r}")
        if self.window < 1:
            raise QueryError("window must be at least 1")
        if not 0.0 < self.y_pl_offset < 1.0:
            raise QueryError("y_pl_offset must keep observations between hidden steps")


def hmm_node_name(var: str, offset: int) -> str:
    """Canonical node names: x_t, x_t+1, y_t-3, ..."""
    suffix = "" if offset == 0 else f"{offset:+d}"
    return f"{var}_t{suffix}"


def hmm_model(params: HmmParams = HmmParams()) -> LazyNetwork:
    """The lazily expanded chain: hidden nodes x_t+k for every integer k,
    each with one observation child y_t+k. The past is unbounded. Every
    hidden node shares one CPT, and every observation another."""
    stay, emit = params.transition_stay, params.emission_true
    x_cpt = ((stay, 1.0 - stay), (1.0 - stay, stay))
    y_cpt = ((emit, 1.0 - emit), (1.0 - emit, emit))
    states = ("0", "1")

    def resolve(name: str) -> NodeSpec:
        m = _HMM_NAME.fullmatch(name)
        if not m:
            raise UnknownNodeError(f"unknown node: {name!r}")
        var, raw = m.groups()
        k = int(raw) if raw else 0
        x_pl = k - 2.0
        if var == "x":
            return NodeSpec(name, states, (hmm_node_name("x", k - 1),), x_cpt, x_pl)
        return NodeSpec(name, states, (hmm_node_name("x", k),), y_cpt, x_pl + params.y_pl_offset)

    return LazyNetwork(resolver=resolve, t0=float("-inf"), open_past=True)


def hmm_query(params: HmmParams = HmmParams()) -> Query:
    """P(next hidden state is 1 | the last ``window`` observations were 1).

    The window truncates an in-principle infinite observation stream.
    Bounds at thresholds of ``-window`` or shallower are unaffected by the
    truncation: observations older than the window sit below every such
    threshold, and the frontier clamp screens them off.
    """
    evidence = {hmm_node_name("y", -j): "1" for j in range(params.window)}
    return Query(objective={hmm_node_name("x", 1): "1"}, evidence=evidence)


def hmm_sweep_experiment(params: HmmParams, depth: int) -> Iterator[QueryBounds]:
    """Sweep thresholds -1, -2, ..., -depth on the standard chain query,
    one row per threshold whatever its exactness, so the whole
    shrinking-interval curve shows. This is :func:`anytime_sweep`'s
    generator, so its errors (``depth`` below 1 among them) surface on
    iteration."""
    return anytime_sweep(hmm_model(params), hmm_query(params), max_steps=depth, stop_on_exact=False)


def format_threshold(th: Threshold) -> str:
    return "-inf" if th.is_full_past else f"{th.v:g}"


SWEEP_CSV_HEADER = "threshold,lower,upper,frontier_size,interior_size,exactness"


def sweep_csv_row(qb: QueryBounds) -> str:
    """One line of :func:`sweep_csv`, without its newline."""
    return (
        f"{format_threshold(qb.threshold)},{qb.lower:.9f},{qb.upper:.9f},"
        f"{qb.frontier_size},{qb.interior_size},{qb.exactness.value}"
    )


def sweep_csv(rows: Iterable[QueryBounds]) -> str:
    """CSV table: :data:`SWEEP_CSV_HEADER`, then one line per row with
    probabilities at 9 decimal places; the last column shows why a
    sweep stopped."""
    return "".join(f"{line}\n" for line in [SWEEP_CSV_HEADER, *map(sweep_csv_row, rows)])


@dataclass(frozen=True, slots=True)
class RandomNetSpec:
    """Recipe for one seeded random network.

    CPT rows get every entry lifted by ``cpt_floor`` before normalizing,
    keeping the distributions away from degeneracy so tightening
    properties are meaningful.
    """

    seed: int
    node_count: int = 10
    max_parents: int = 3
    state_count: int = 3
    cpt_floor: float = 0.05

    def __post_init__(self):
        if self.seed < 0:
            raise QueryError("seed must be non-negative")
        if not 1 <= self.node_count <= 12:
            raise QueryError("node_count must be between 1 and 12")
        if not 1 <= self.max_parents <= 3:
            raise QueryError("max_parents must be between 1 and 3")
        if self.state_count not in (2, 3):
            raise QueryError("state_count must be 2 or 3")
        if not 0.0 <= self.cpt_floor < 0.5:
            raise QueryError("cpt_floor must be in [0, 0.5)")


def random_network(spec: RandomNetSpec) -> Network:
    """A valid closed-past network, deterministic in the seed.

    Nodes are laid out along a random topological order; node i draws up
    to ``max_parents`` parents among earlier nodes. Roots sit at t0=0,
    everything else at its position index.
    """
    rng = np.random.default_rng(spec.seed)
    names = [f"n{i:02d}" for i in range(spec.node_count)]

    structure: list[tuple[tuple[str, ...], int]] = []
    for i in range(spec.node_count):
        k = int(rng.integers(0, min(spec.max_parents, i) + 1))
        picks = sorted(int(j) for j in rng.choice(i, size=k, replace=False)) if k else []
        n_states = int(rng.integers(2, spec.state_count + 1))
        structure.append((tuple(names[j] for j in picks), n_states))

    nodes: dict[str, NodeSpec] = {}
    for i, (parents, n_states) in enumerate(structure):
        rows = 1
        for p in parents:
            rows *= len(nodes[p].states)
        raw = spec.cpt_floor + rng.random((rows, n_states))
        cpt = tuple(tuple(float(x) for x in row / row.sum()) for row in raw)
        nodes[names[i]] = NodeSpec(
            name=names[i],
            states=tuple(str(s) for s in range(n_states)),
            parents=parents,
            cpt=cpt,
            pl=0.0 if not parents else float(i),
        )
    return Network(t0=0.0, open_past=False, nodes=nodes)


def random_query(net: Network, seed: int) -> Query:
    """A random query against ``net``: 1-2 objective nodes, 0-3 evidence
    nodes, disjoint, with evidence redrawn until it has positive
    probability (shrinking the evidence set if 100 draws fail)."""
    rng = np.random.default_rng(seed)
    names = list(net.nodes)

    def draw(max_evidence: int) -> Query:
        n_obj = int(rng.integers(1, min(2, len(names)) + 1))
        n_ev = int(rng.integers(0, min(max_evidence, len(names) - n_obj) + 1))
        perm = [names[int(i)] for i in rng.permutation(len(names))]
        objective = {n: _random_state(rng, net, n) for n in sorted(perm[:n_obj])}
        evidence = {n: _random_state(rng, net, n) for n in sorted(perm[n_obj : n_obj + n_ev])}
        return Query(objective=objective, evidence=evidence)

    max_evidence = 3
    while True:
        for _ in range(100):
            q = draw(max_evidence)
            if not q.evidence:
                return q
            if bounds_at(net, Query(dict(q.evidence)), Threshold.full_past()).lower > 0.0:
                return q
        if max_evidence == 0:
            return draw(0)
        max_evidence -= 1


def _random_state(rng: np.random.Generator, net: Network, name: str) -> str:
    states = net.spec(name).states
    return states[int(rng.integers(0, len(states)))]
