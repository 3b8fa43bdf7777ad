"""Graph-side machinery: ancestor traversal, d-separation, and threshold
retrieval.

Retrieval walks backwards from the query variables. Given a threshold
``v``, a node is *interior* when its potential level is at least ``v``;
backtracking along every ancestral path stops at the first node below
``v``. Those stopping points form the *frontier*: the clamp points behind
which the past is never consulted. The interior specs plus the frontier
stubs make up the retrieved submodel, which is all downstream inference
is allowed to touch.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import NoStartNodesError, OpenPastError, QueryError, UnknownNodeError
from .model import (
    DEFAULT_EXPANSION_CAP,
    LazyNetwork,
    Network,
    NodeSpec,
    Query,
    check_query,
    materialize,
)

NetworkLike = Union[Network, LazyNetwork]


@dataclass(frozen=True)
class Threshold:
    """Inclusive retrieval cutoff: a node is interior iff ``pl >= v``.

    ``v = -inf`` is the full-past sentinel: retrieve every ancestor and
    leave the frontier empty.
    """

    v: float

    def __post_init__(self):
        if math.isnan(self.v) or self.v == math.inf:
            raise QueryError(f"threshold must be finite or -inf, got {self.v!r}")

    @classmethod
    def full_past(cls) -> "Threshold":
        return cls(float("-inf"))

    @property
    def is_full_past(self) -> bool:
        return math.isinf(self.v)


@dataclass(frozen=True)
class FrontierStub:
    """A clamp point: states and pl survive, the CPD deliberately does not."""

    name: str
    states: tuple[str, ...]
    pl: float


@dataclass(frozen=True)
class Submodel:
    """The retrieved fragment: full interior specs plus frontier stubs.

    Interior nodes are parent-closed: every parent of an interior node is
    itself interior or a frontier stub, so conditionals given the frontier
    are computable from this object alone.
    """

    interior: dict[str, NodeSpec]
    frontier: dict[str, FrontierStub]
    t0: float

    def states_of(self, name: str) -> tuple[str, ...]:
        if name in self.interior:
            return self.interior[name].states
        if name in self.frontier:
            return self.frontier[name].states
        raise UnknownNodeError(f"node {name!r} is not in the submodel")

    def to_document(self) -> dict:
        nodes = [
            {
                "name": s.name,
                "states": list(s.states),
                "pl": s.pl,
                "parents": list(s.parents),
                "cpt": None if s.cpt is None else [list(r) for r in s.cpt],
            }
            for s in self.interior.values()
        ]
        nodes += [
            {"name": f.name, "states": list(f.states), "pl": f.pl, "parents": [], "cpt": None}
            for f in self.frontier.values()
        ]
        return {
            "t0": "-inf" if math.isinf(self.t0) else self.t0,
            "open_past": True,
            "nodes": nodes,
            "frontier": sorted(self.frontier),
        }


@dataclass(frozen=True)
class RootSetResult:
    """Everything one threshold retrieval produces.

    The evidence partition is relative to the threshold: ``evidence_plus``
    sits at or above it, ``evidence_in_frontier`` was reached as a clamp
    point, ``evidence_minus`` is the rest (below threshold, never
    reached, and provably irrelevant given the frontier).
    """

    frontier: frozenset[str]
    interior: frozenset[str]
    evidence_plus: frozenset[str]
    evidence_in_frontier: frozenset[str]
    evidence_minus: frozenset[str]
    submodel: Submodel


def _spec_of(net: NetworkLike, name: str) -> NodeSpec:
    if isinstance(net, LazyNetwork):
        return net.resolve(name)
    return net.spec(name)


def ancestors(net: Network, targets: Iterable[str]) -> set[str]:
    """All strict ancestors of ``targets`` (a target appears only if it is
    an ancestor of another target)."""
    targets = set(targets)
    out: set[str] = set()
    queue = deque(targets)
    seen = set(targets)
    while queue:
        for p in net.spec(queue.popleft()).parents:
            out.add(p)
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return out


def d_separated(
    net: Network,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> bool:
    """Whether conditioning on ``c`` blocks every path between ``a`` and ``b``.

    Uses the moralized ancestral graph: restrict to the ancestral closure
    of ``a | b | c``, connect each node to its parents and marry co-parents,
    delete ``c``, and test undirected reachability.
    """
    a, b, c = set(a), set(b), set(c)
    for pair in ((a, b), (a, c), (b, c)):
        overlap = pair[0] & pair[1]
        if overlap:
            raise QueryError(f"d-separation sets must be disjoint; overlap on {sorted(overlap)}")
    for name in a | b | c:
        net.spec(name)
    if not a or not b:
        return True

    closure = (a | b | c) | ancestors(net, a | b | c)
    adj: dict[str, set[str]] = {n: set() for n in closure}
    for n in closure:
        parents = [p for p in net.spec(n).parents if p in closure]
        for p in parents:
            adj[n].add(p)
            adj[p].add(n)
        for i, p in enumerate(parents):
            for q in parents[i + 1 :]:
                adj[p].add(q)
                adj[q].add(p)

    queue = deque(a)
    reached = set(a)
    while queue:
        for nb in adj[queue.popleft()]:
            if nb in c or nb in reached:
                continue
            if nb in b:
                return False
            reached.add(nb)
            queue.append(nb)
    return True


def root_set(
    net: NetworkLike,
    query: Query,
    threshold: Threshold,
    *,
    max_nodes: int = DEFAULT_EXPANSION_CAP,
) -> RootSetResult:
    """Backtrack from every query/evidence node at or above the threshold.

    Expansion stops at the first sub-threshold node on each ancestral
    path; those nodes form the frontier. Lazy networks are materialized
    on demand with the threshold as the expansion floor, so only the
    fragment the retrieval actually touches is ever resolved.

    A parentless interior node contributes nothing to the frontier: its
    past is already complete.
    """
    v = threshold.v
    if isinstance(net, LazyNetwork):
        base = materialize(net, sorted(query.names), v, max_nodes=max_nodes)
    else:
        base = net
    check_query(base, query)

    starts = sorted(n for n in query.names if base.spec(n).pl >= v)
    if not starts:
        raise NoStartNodesError(
            f"no query or evidence node has pl >= {v:g}; nothing to retrieve"
        )

    interior: set[str] = set()
    frontier: set[str] = set()
    seen = set(starts)
    queue = deque(starts)
    while queue:
        name = queue.popleft()
        spec = base.spec(name)
        if spec.pl >= v:
            interior.add(name)
            for p in spec.parents:
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        else:
            frontier.add(name)

    interior_specs: dict[str, NodeSpec] = {}
    for name in sorted(interior):
        spec = base.spec(name)
        if spec.is_stub:
            raise OpenPastError(
                f"interior node {name!r} is a truncation stub with no CPD; "
                "materialize deeper or raise the threshold"
            )
        interior_specs[name] = spec
    stubs = {
        name: FrontierStub(name, base.spec(name).states, base.spec(name).pl)
        for name in sorted(frontier)
    }

    evidence = set(query.evidence)
    e_plus = frozenset(e for e in evidence if base.spec(e).pl >= v)
    e_front = frozenset(evidence & frontier)
    e_minus = frozenset(evidence - e_plus - e_front)

    return RootSetResult(
        frontier=frozenset(frontier),
        interior=frozenset(interior),
        evidence_plus=e_plus,
        evidence_in_frontier=e_front,
        evidence_minus=e_minus,
        submodel=Submodel(interior=interior_specs, frontier=stubs, t0=base.t0),
    )
