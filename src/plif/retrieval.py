"""Graph-side machinery: ancestor traversal, d-separation, and threshold
retrieval.

Retrieval walks backwards from the query variables. Given a threshold
``v``, a node is *interior* when its potential level is at least ``v``;
backtracking along every ancestral path stops at the first node below
``v``, or at a truncation stub wherever it sits. Those stopping points
form the *frontier*: the clamp points behind which the past is never
consulted. The interior and frontier specs make up the retrieved
submodel, which is all downstream inference is allowed to touch. One
:class:`Walk` is that retrieval: it carries it to the next, deeper
threshold, and gives that threshold
(:meth:`Walk.next_level`), so a sweep walks every node once.
:meth:`Walk.fragment` writes one retrieval as a finite network.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import (
    ExpansionCapError,
    InvalidNetworkError,
    NoStartNodesError,
    OpenPastError,
    QueryError,
    UnknownStateError,
)
from .model import (
    LazyNetwork,
    Network,
    NodeSpec,
    Query,
    node_violations,
    t0_violations,
)

NetworkLike = Union[Network, LazyNetwork]

#: the most nodes one walk may resolve, query nodes included
MAX_NODES = 1_000_000


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class Walk:
    """One retrieval walk for one network and query, extended in place as
    the threshold deepens; it is the retrieval itself
    (:func:`root_set` returns it) and all a sweep carries.

    Building a walk checks ``t0``, resolves and checks the query's nodes
    (each one as a cut node, whatever its pl) and the states the query
    names; a stub objective raises :class:`OpenPastError`, since a stub
    is only a clamp. ``specs`` holds every node resolved so far (the query's
    nodes, every node reached, and the parents :meth:`next_level` read),
    the one memo of a walk's resolutions, at most :data:`MAX_NODES` of
    them; each reached node is interior (in the order reached) or
    frontier, kept with its spec either way; a truncation stub is frontier
    at any pl. ``pending`` lists the query nodes the threshold has not yet
    passed, deepest first. The query's evidence is partitioned relative to
    the latest threshold: ``evidence_plus`` is interior,
    ``evidence_in_frontier`` was reached as a clamp point, and
    :attr:`evidence_minus` is the rest. ``evidence_index`` maps each
    evidence node to its observed state's index, filled as the query's
    labels are checked; inference clamps by it, and reads state counts
    from ``specs``.

    ``level`` is the latest threshold: inf once built, NaN while an
    extension runs. ``table`` is inference's clamp table (None until the
    first contraction), and ``band`` lists the interior nodes whose CPTs
    it does not yet hold: each extension appends to it, and
    ``infer.frontier_clamp_table`` contracts and clears it. Since
    ``table`` holds every other interior CPT, a walk stays consistent
    whatever raises after an extension. ``factors`` is inference's memo
    of CPT arrays (``infer._factor``), kept for the walk's lifetime, so
    nodes that share a CPT share one array across every step, and
    ``critical`` is the earliest objective node (ties on the name) and
    its level. :meth:`extend` refuses a threshold not below ``level``,
    and any extension once one raised.
    """

    net: NetworkLike
    query: Query
    specs: dict[str, NodeSpec] = field(default_factory=dict, init=False)
    interior: dict[str, NodeSpec] = field(default_factory=dict, init=False)
    frontier: dict[str, NodeSpec] = field(default_factory=dict, init=False)
    pending: list[str] = field(default_factory=list, init=False)
    evidence_plus: dict[str, str] = field(default_factory=dict, init=False)
    evidence_in_frontier: dict[str, str] = field(default_factory=dict, init=False)
    evidence_index: dict[str, int] = field(default_factory=dict, init=False, compare=False, repr=False)
    band: list[str] = field(default_factory=list, init=False)
    level: float = field(default=math.inf, init=False)
    table: object = field(default=None, init=False, compare=False, repr=False)
    factors: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    critical: tuple[str, float] = field(default=("", math.inf), init=False, compare=False, repr=False)

    def __post_init__(self):
        t0, open_past, objective, evidence = self.net.t0, self.net.open_past, self.query.objective, self.query.evidence
        report = t0_violations(t0, open_past)
        keys = []  # (pl, name) of each query node, objective first
        for name, label in (*objective.items(), *evidence.items()):
            spec = self.resolve(name)
            if label not in spec.states:
                raise UnknownStateError(f"node {name!r} has no state {label!r}; states are {list(spec.states)}")
            report += node_violations(spec, None, t0, open_past)
            if name in evidence:
                self.evidence_index[name] = spec.states.index(label)
            keys.append((spec.pl, name))
        if report:
            raise InvalidNetworkError(report)
        stubs = [n for n in objective if self.specs[n].is_stub]
        if stubs:
            raise OpenPastError(f"objective node {stubs[0]!r} is a truncation stub; it has no prior to answer with")
        self.critical = min(keys[: len(objective)])[::-1]
        keys.sort()
        self.pending = [name for _, name in keys]

    @property
    def evidence_minus(self) -> frozenset[str]:
        """Evidence below the threshold and never reached, which the
        frontier screens off."""
        return frozenset(self.query.evidence.keys() - self.evidence_plus.keys() - self.evidence_in_frontier.keys())

    def fragment(self) -> Network:
        """The retrieval as an open-past network: the interior specs in the
        order reached, then the frontier and the query nodes still below
        the threshold, sorted by name. Each of those is a truncation stub,
        except that a genuine root keeps its prior."""
        cut = (self.specs[n] for n in sorted({*self.frontier, *self.pending}))
        stubs = {s.name: NodeSpec(s.name, s.states, (), None if s.parents else s.cpt, s.pl) for s in cut}
        return Network(t0=self.net.t0, open_past=True, nodes={**self.interior, **stubs})

    def resolve(self, name: str) -> NodeSpec:
        """``net.resolve(name)``, once per walk, up to :data:`MAX_NODES` nodes."""
        spec = self.specs.get(name)
        if spec is None:
            spec = self.specs[name] = self.net.resolve(name)
            if len(self.specs) > MAX_NODES:
                raise ExpansionCapError(f"retrieval resolved more than {MAX_NODES} nodes; raise the threshold")
        return spec

    def extend(self, v: float) -> None:
        """Extend the walk to the threshold ``v``, as :func:`root_set`
        describes, appending to its band. :class:`QueryError` unless ``v``
        is below ``level``; a :class:`NoStartNodesError` changes nothing."""
        if not v < self.level:
            if math.isnan(self.level):
                raise QueryError("an extension of this walk raised; start a new one")
            raise QueryError(f"a walk needs strictly decreasing thresholds; got {v:g} after {self.level:g}")
        specs, interior, frontier, pending, resolve = self.specs, self.interior, self.frontier, self.pending, self.resolve
        evidence, e_plus, e_front, band = self.query.evidence, self.evidence_plus, self.evidence_in_frontier, self.band
        t0, open_past = self.net.t0, self.net.open_past
        # a walk that reached nothing yet: only a query node can start it
        if not interior and not frontier and not (pending and specs[pending[-1]].pl >= v):
            raise NoStartNodesError(f"no query or evidence node has pl >= {v:g}; nothing to retrieve")
        self.level = math.nan  # until this extension returns

        seen = {n for n, spec in frontier.items() if spec.pl >= v and not spec.is_stub}
        for name in seen:
            del frontier[name]
            e_front.pop(name, None)
        while pending and specs[pending[-1]].pl >= v:
            seen.add(pending.pop())

        queue = deque(sorted(seen))
        while queue:
            name = queue.popleft()
            spec = specs[name]
            parents = list(map(resolve, spec.parents)) if spec.pl >= v else None
            report = node_violations(spec, parents, t0, open_past)
            if report:
                raise InvalidNetworkError(report)
            if spec.pl < v or spec.cpt is None:  # spec.is_stub, read inline: this runs once a node
                frontier[name] = spec
                if name in evidence:
                    e_front[name] = evidence[name]
                continue
            interior[name] = spec
            if name in evidence:
                e_plus[name] = evidence[name]
            band.append(name)
            for p in spec.parents:
                if p not in seen and p not in interior and p not in frontier:
                    seen.add(p)
                    queue.append(p)
        self.level = v

    def next_level(self) -> float:
        """The latest level below the last retrieval: the largest pl among
        the frontier and the parents of the pending query nodes (read
        latest first, down to that level), behind which every other strict
        ancestor lies; -inf when there is none. Truncation stubs are
        skipped: one is a clamp at any threshold, so its pl is no level."""
        specs, level = self.specs, -math.inf
        for spec in self.frontier.values():
            if spec.pl > level and not spec.is_stub:
                level = spec.pl
        for name in reversed(self.pending):
            if specs[name].pl <= level:
                break
            for p in specs[name].parents:
                spec = self.resolve(p)
                if spec.pl > level and not spec.is_stub:
                    level = spec.pl
        return level


def walk_for(net: NetworkLike, query: Query, walk: Walk | None) -> Walk:
    """A new walk when ``walk`` is None, else ``walk`` itself once it is
    checked to be built for ``net`` (the same object) and ``query``;
    :class:`QueryError` when it is not."""
    if walk is None:
        return Walk(net, query)
    if walk.net is not net or (walk.query is not query and walk.query != query):
        raise QueryError("this walk was built for another network or query; start a new one")
    return walk


def _ancestors(net: Network, targets: Iterable[str]) -> set[str]:
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

    closure = (a | b | c) | _ancestors(net, a | b | c)
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
    walk: Walk | None = None,
) -> Walk:
    """Backtrack from every query/evidence node at or above the threshold.

    Expansion stops at the first sub-threshold node on each ancestral
    path, or at a truncation stub wherever it sits; those nodes form the
    frontier. Nodes are resolved one by one through ``net.resolve``,
    finite and lazy networks alike, and nothing is materialized. Instead
    the walk checks every node it reaches by the node rules of
    :func:`~plif.model.validate` (:func:`~plif.model.node_violations`), an
    expanded node against its resolved parents and a frontier node as a
    cut, so a lazy network obeys the rules a document does wherever the
    walk reaches.
    Resolving more than :data:`MAX_NODES` nodes raises
    :class:`ExpansionCapError`.

    Returns the walk, extended in place (:meth:`Walk.extend`) from the
    ``walk`` of a shallower threshold when one is given: only its old
    frontier nodes now at or above the threshold, and query nodes newly
    above it, are expanded, so a step costs its band and frontier, and
    the retrieval equals a fresh walk's. A ``walk`` built for another
    network (object) or query, whose last threshold is not above this
    one, or whose extension raised, raises :class:`QueryError` and is
    left as it was. Without a ``walk`` the call owns a new one.

    A parentless interior node contributes nothing to the frontier: its
    past is already complete.
    """
    walk = walk_for(net, query, walk)
    walk.extend(threshold.v)
    return walk


def materialize(net: NetworkLike, query: Query, floor: float) -> Network:
    """The fragment :func:`root_set` retrieves at ``Threshold(floor)``, as
    an open-past network (:meth:`Walk.fragment`)."""
    return root_set(net, query, Threshold(floor)).fragment()
