"""Probability computation: certified bounds from retrieved submodels
and anytime sweeps.

Every probability goes through one contraction, :func:`_contract`:
bucket elimination that multiplies CPTs into a table of numerators and
normalizers over the frontier clamps. It eliminates latest first, in
decreasing potential level, which puts every node's children before
it, and builds each CPT only when it reaches the node, so only the cut
is live. Each bucket is one einsum call, checked against underflow by
its summed message (at most ``|h|`` times its product's peak); a bucket
that fails, or has more than 31 factors, is redone one factor at a
time and rescaled per clamp. The scales are kept as logs, so long
evidence chains cannot underflow. A sweep keeps that table and, at
each deeper threshold, contracts only the CPTs of the newly retrieved
nodes into it, and reads each next threshold off its own retrieval
walk, whose resolved nodes, query nodes included, count against the
:class:`ExpansionCapError` cap. The exact value of a closed-past query
is its bracket at the full-past threshold, where the frontier is empty
and the bounds coincide.

Bounds come from scanning the unobserved frontier: for every joint clamp
of those stubs the submodel yields one conditional value, and the true
query is a convex combination of them, so their min and max bracket it.
Clamps whose normalizer is zero inside the submodel carry no weight in
that combination and are excluded from the scan.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    FactorTooLargeError,
    OpenPastError,
    QueryError,
    ThresholdError,
    ZeroEvidenceError,
    FrontierTooWideError,
)
from .model import (
    DEFAULT_EXPANSION_CAP,
    Assignment,
    LazyNetwork,
    NodeSpec,
    Query,
)
from .retrieval import (
    NetworkLike,
    RootSetResult,
    Submodel,
    Threshold,
    Walk,
    root_set,
)

DEFAULT_MAX_CLAMPS = 2**16
MAX_JOINT_CELLS = 50_000_000
PROB_TOL = 1e-9


class Exactness(enum.Enum):
    """Why (or whether) a bounds result is known to equal the exact answer."""

    NOT_EXACT = "not_exact"
    FRONTIER_SUBSET_OF_EVIDENCE = "frontier_subset_of_evidence"
    FULL_PAST = "full_past"
    COINCIDENCE = "coincidence"

    @property
    def is_exact(self) -> bool:
        return self is not Exactness.NOT_EXACT


@dataclass(frozen=True)
class QueryBounds:
    """A certified bracket on the query at one threshold."""

    threshold: Threshold
    lower: float
    upper: float
    exactness: Exactness
    frontier_size: int
    interior_size: int


@dataclass(frozen=True)
class Schedule:
    """Strictly decreasing thresholds to sweep, shallowest first."""

    thresholds: tuple[Threshold, ...]

    def __post_init__(self):
        if not self.thresholds:
            raise QueryError("a schedule needs at least one threshold")
        vs = [t.v for t in self.thresholds]
        if any(b >= a for a, b in zip(vs, vs[1:])):
            raise QueryError(f"schedule thresholds must strictly decrease, got {vs}")

    def __iter__(self) -> Iterator[Threshold]:
        return iter(self.thresholds)

    def __len__(self) -> int:
        return len(self.thresholds)


# ---------------------------------------------------------------------------
# factor algebra (internal)

_Axes = tuple[str, ...]
_Factor = tuple[_Axes, np.ndarray]

#: the last axis of every clamp table: 0 is the numerator, 1 the normalizer
#: (an object, so that no node name can collide with it)
_NUM_DEN = object()
#: factors are rescaled once their peak at some clamp falls below this;
#: they never exceed 1, since every variable summed out brings its own CPT
_TINY = 2.0**-64
#: numpy 1.x einsum takes at most 31 operands (numpy 2 takes 63)
_EINSUM_MAX = 31


@dataclass(frozen=True)
class _Table:
    """Numerators and normalizers indexed by the states of ``axes`` (the
    unobserved frontier), then by :data:`_NUM_DEN`. The true value at a
    cell is ``table`` there times ``exp(logscale)`` at its ``axes`` cell;
    ``logscale`` None means 0, and it is -inf where the normalizer is
    exactly zero."""

    axes: _Axes
    table: np.ndarray
    logscale: np.ndarray | None


def _cpt_factor(spec: NodeSpec, sizes: Mapping[str, int]) -> _Factor:
    axes = (*spec.parents, spec.name)
    shape = tuple(sizes[a] for a in axes)
    return axes, np.asarray(spec.cpt, dtype=float).reshape(shape)


def _reduce(factor: _Factor, clamps: Mapping[str, int]) -> _Factor:
    axes, table = factor
    if not any(a in clamps for a in axes):
        return factor
    idx = tuple(clamps[a] if a in clamps else slice(None) for a in axes)
    return tuple(a for a in axes if a not in clamps), table[idx]


def _align(axes: _Axes, table: np.ndarray, out_axes: _Axes) -> np.ndarray:
    """``table`` (over ``axes``) transposed and reshaped to broadcast
    against ``out_axes``."""
    where = [out_axes.index(a) for a in axes]
    shape = [1] * len(out_axes)
    for w, n in zip(where, table.shape):
        shape[w] = n
    if where != sorted(where):
        table = np.transpose(table, sorted(range(len(where)), key=where.__getitem__))
    return table.reshape(shape)


def _peak(axes: _Axes, table: np.ndarray, scan: _Axes) -> np.ndarray:
    """The maximum of ``table`` over its non-scan axes, per scan cell."""
    return table.max(axis=tuple(i for i, a in enumerate(axes) if a not in scan), keepdims=True)


def _rescale(
    axes: _Axes, table: np.ndarray, scan: _Axes, logscale: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Once the maximum over the non-scan axes falls below _TINY at some
    scan cell, divide by it per scan cell and add its log to ``logscale``
    (aligned to ``scan``). An all-zero cell keeps scale 1, so exact zeros
    stay exact."""
    peak = _peak(axes, table, scan)
    if peak.min() >= _TINY:
        return table, logscale
    peak = np.where(peak > 0.0, peak, 1.0)
    kept = tuple(a for a in axes if a in scan)
    log = _align(kept, np.log(peak).reshape([table.shape[axes.index(a)] for a in kept]), scan)
    return table / peak, log if logscale is None else logscale + log


def _product(
    factors: Sequence[_Factor], out_axes: _Axes, scan: _Axes, logscale: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The product of ``factors`` over ``out_axes``, one factor at a time,
    rescaling (:func:`_rescale`) after each, so that a scan cell is zero
    only where it is exactly zero; and ``logscale`` plus the logs of the
    rescaling."""
    out, logscale = _rescale(out_axes, _align(*factors[0], out_axes), scan, logscale)
    for axes, table in factors[1:]:
        out, logscale = _rescale(out_axes, out * _align(axes, table, out_axes), scan, logscale)
    return out, logscale


def _bucket(
    group: Sequence[_Factor],
    union: _Axes,
    h: str | None,
    sizes: Mapping[str, int],
    scan: _Axes,
    logscale: np.ndarray | None,
) -> tuple[_Factor, np.ndarray | None]:
    """The product of ``group`` (factors over ``union``) with ``h`` summed
    out (None sums nothing), which may share memory with a factor and so
    must not be written to, and ``logscale`` plus the logs of any
    rescaling.

    One :func:`numpy.einsum` call multiplies and sums. No factor exceeds
    1, so multiplying one in never raises the peak at a scan cell, and
    summing ``h`` out raises it at most ``|h|``-fold: if the sum's peak is
    at least ``|h|`` times _TINY at every scan cell, no partial product
    fell below _TINY. Otherwise, or past numpy 1.x einsum's 31 operands,
    two or more factors are multiplied by :func:`_product`."""
    cells = math.prod(sizes[a] for a in union)
    if cells > MAX_JOINT_CELLS:
        raise FactorTooLargeError(cells, MAX_JOINT_CELLS)
    out_axes = tuple(a for a in union if a != h)
    if len(group) <= _EINSUM_MAX:
        ids = {a: i for i, a in enumerate(union)}
        operands = itertools.chain.from_iterable((t, [ids[a] for a in axes]) for axes, t in group)
        out = np.einsum(*operands, [ids[a] for a in out_axes])
        bound = _TINY if h is None else _TINY * sizes[h]
        if len(group) == 1 or _peak(out_axes, out, scan).min() >= bound:
            return (out_axes, out), logscale
    out, logscale = _product(group, union, scan, logscale)
    return (out_axes, out if h is None else out.sum(axis=union.index(h))), logscale


def _state_index(sub: Submodel, name: str, label: str) -> int:
    states = sub.states_of(name)
    try:
        return states.index(label)
    except ValueError:
        raise QueryError(f"node {name!r} has no state {label!r}") from None


def _contract(
    sub: Submodel,
    specs: Mapping[str, NodeSpec],
    evidence: Assignment,
    scan: _Axes,
    prior: _Table | Assignment,
) -> _Table:
    """Multiply the CPTs in ``specs`` (nodes of ``sub``) into ``prior``,
    with ``evidence`` fixed, and sum out every variable but ``scan``, by
    bucket elimination in decreasing ``(pl, name)``.

    ``prior`` is either an earlier table, whose axes must be in ``scan``
    or in ``specs``, or the objective assignment to start from; then the
    objective nodes stay output axes until the numerator (their objective
    cell) and the normalizer (their sum) are read off. Because
    sum-products are linear in their factors, contracting a sweep's band
    of new CPTs into its previous table equals contracting every CPT
    from the start.

    Every edge runs from a strictly lower pl to a higher one, so the
    order reaches each node after its children. A CPT is built when the
    order reaches its node and each factor waits in the bucket of its
    first variable summed out, so only the cut is live. A bucket is one
    einsum call, or one factor at a time past its _TINY check or 31
    factors (:func:`_bucket`), so the numerator and normalizer of one
    clamp share one positive scale. ``prior``'s own log-scales are first
    brought, per surviving scan cell, to their maximum over the axes
    summed away.
    """
    start = not isinstance(prior, _Table)
    keep = (*scan, *prior) if start else (*scan, _NUM_DEN)
    sizes: dict = {_NUM_DEN: 2}
    for n in (*scan, *(prior if start else prior.axes)):
        sizes[n] = len(sub.states_of(n))
    for spec in specs.values():
        for a in (*spec.parents, spec.name):
            if a not in sizes:
                sizes[a] = len(sub.states_of(a))
    clamps = {n: _state_index(sub, n, evidence[n]) for n in sizes if n in evidence}
    order = sorted(specs.values(), key=lambda s: (s.pl, s.name), reverse=True)
    rank = {s.name: i for i, s in enumerate(order) if s.name not in clamps and s.name not in keep}
    buckets: dict[str, list[_Factor]] = {}
    rest: list[_Factor] = []

    def place(factor: _Factor) -> None:
        h = min((a for a in factor[0] if a in rank), key=rank.__getitem__, default=None)
        (rest if h is None else buckets.setdefault(h, [])).append(factor)

    logscale = None
    if not start:
        table = prior.table
        if prior.logscale is not None:
            gone = tuple(i for i, a in enumerate(prior.axes) if a not in scan)
            peak = prior.logscale.max(axis=gone, keepdims=True)
            base = np.where(np.isfinite(peak), peak, 0.0)
            table = table * np.exp(prior.logscale - base)[..., None]
            kept = tuple(a for a in prior.axes if a in scan)
            logscale = _align(kept, peak.reshape([sizes[a] for a in kept]), scan)
        place(((*prior.axes, _NUM_DEN), table))
    for spec in order:
        place(_reduce(_cpt_factor(spec, sizes), clamps))
        if spec.name in rank:
            group = buckets.pop(spec.name)
            union: _Axes = tuple(dict.fromkeys(a for axes, _ in group for a in axes))
            message, logscale = _bucket(group, union, spec.name, sizes, scan, logscale)
            place(message)

    (_, table), logscale = _bucket(rest, keep, None, sizes, scan, logscale)
    if start:
        target = tuple(_state_index(sub, n, v) for n, v in prior.items())
        pair = np.empty((*table.shape[: len(scan)], 2))
        pair[..., 0] = table[(Ellipsis, *target)]
        pair[..., 1] = table.sum(axis=tuple(range(len(scan), len(keep))))
        table = pair
    den = table[..., 1]  # the peak of each clamp, as num <= den
    if den.min() < _TINY:
        zero = den == 0.0
        den = np.where(zero, 1.0, den)
        table = table / den[..., None]
        logscale = np.where(zero, -np.inf, np.log(den) + (0.0 if logscale is None else logscale))
    elif logscale is not None:
        logscale = np.broadcast_to(logscale, den.shape)
    return _Table(scan, table, logscale)


# ---------------------------------------------------------------------------
# operations


def cpl(net: NetworkLike, query: Query) -> tuple[str, float]:
    """The objective node furthest into the past and its potential level.

    Ties break lexicographically on the node name.
    """
    pl_star, o_star = min((net.resolve(n).pl, n) for n in query.objective)
    return o_star, pl_star


@dataclass
class SweepState:
    """What a sweep carries from one threshold to the next: the retrieval
    walk, the retrieval of the latest step (a view of the walk, valid
    until the next step), and the clamp table over its unobserved
    frontier. A state belongs to one sweep: pass it to :func:`bounds_at`
    calls with strictly decreasing thresholds, shallowest first; a call
    whose threshold is not below ``threshold``, the latest step's, raises
    :class:`QueryError` and leaves the state as it was. Once any other
    error is raised, the walk or table may be half extended, and later
    calls with the state raise :class:`QueryError`."""

    walk: Walk = field(default_factory=Walk)
    threshold: Threshold | None = None
    retrieval: RootSetResult | None = None
    table: _Table | None = None
    failed: bool = False


def frontier_clamp_table(
    rs: RootSetResult, query: Query, state: SweepState | None = None
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Conditional numerators/denominators for every clamp of the
    unobserved frontier, in one contraction.

    Returns ``(scan_nodes, num, den)``: arrays indexed by the state of
    each unobserved frontier node (sorted by name, odometer order), where
    ``num/den`` at a clamp is P(objective | that clamp, the observed
    frontier, the evidence at or above the threshold) inside the submodel.
    ``num`` and ``den`` are scaled by the same positive factor at each
    clamp, chosen per clamp so that neither underflows; only their ratio
    and whether ``den`` is exactly zero carry meaning.

    Given the ``state`` whose walk produced ``rs``, only the CPTs of
    ``rs.band`` are contracted, into the state's previous table, and the
    new table replaces it.
    """
    sub = rs.submodel
    scan = tuple(sorted(rs.frontier - rs.evidence_in_frontier))
    if state is None or state.table is None:
        table = _contract(sub, sub.interior, query.evidence, scan, query.objective)
    else:
        band = {n: sub.interior[n] for n in rs.band}
        table = _contract(sub, band, query.evidence, scan, state.table)
    if state is not None:
        state.table = table
    return scan, table.table[..., 0], table.table[..., 1]


def exactness_status(rs: RootSetResult, t0: float, lower: float, upper: float) -> Exactness:
    """Classify a retrieval per the first matching exactness condition.

    In order: (1) the frontier lies entirely inside the evidence, so no
    clamp is free; (2) every frontier node sits at the time origin and no
    evidence was left below the threshold, so the retrieved past is
    complete; (3) the bounds coincide anyway. Under inclusive thresholds
    condition (2)'s evidence clause is exactly "evidence_minus is empty",
    which the sizes of the disjoint parts answer without building it.
    """
    if len(rs.frontier) == len(rs.evidence_in_frontier):
        return Exactness.FRONTIER_SUBSET_OF_EVIDENCE
    dropped = len(rs.evidence) - len(rs.evidence_plus) - len(rs.evidence_in_frontier)
    if not dropped and all(f.pl == t0 for f in rs.submodel.frontier.values()):
        return Exactness.FULL_PAST
    if abs(upper - lower) < PROB_TOL:
        return Exactness.COINCIDENCE
    return Exactness.NOT_EXACT


def _exact_from_retrieval(
    net: NetworkLike, rs: RootSetResult, query: Query, table: _Table
) -> float | None:
    """Exact value when the retrieval closed the past: the clamp table of
    the interior times the frontier roots' own priors. None when a
    frontier prior is missing (truncated fragment), in which case
    exactness cannot be certified."""
    roots = {}
    for name in sorted(rs.frontier):
        spec = net.resolve(name)
        if spec.parents or spec.cpt is None:
            return None
        roots[name] = spec
    num, den = _contract(rs.submodel, roots, query.evidence, (), table).table
    if den == 0.0:
        raise ZeroEvidenceError(f"evidence {dict(query.evidence)!r} has probability zero")
    return float(num / den)


def bounds_at(
    net: NetworkLike,
    query: Query,
    threshold: Threshold,
    *,
    max_clamps: int | None = None,
    max_nodes: int = DEFAULT_EXPANSION_CAP,
    state: SweepState | None = None,
) -> QueryBounds:
    """Certified bounds on the query from the submodel retrieved at
    ``threshold``.

    The threshold must not exceed the critical potential level (the
    earliest objective node); the full-past sentinel additionally needs a
    closed past. Frontier clamps with a zero normalizer are skipped; if
    all of them are, the evidence is unreachable and an error is raised.

    A sweep passes one ``state`` to its calls, shallowest threshold
    first: each call then extends the previous walk and clamp table
    rather than starting over, and leaves its retrieval in
    ``state.retrieval``. Without a state the call starts from an empty one.
    """
    state = SweepState() if state is None else state
    if state.failed:
        raise QueryError("an earlier step of this sweep state raised; start a new SweepState")
    if state.threshold is not None and threshold.v >= state.threshold.v:
        raise QueryError(
            f"a sweep state needs strictly decreasing thresholds; "
            f"got {threshold.v:g} after {state.threshold.v:g}"
        )
    state.failed = True  # until this step returns
    state.threshold = threshold
    o_star, pl_star = cpl(net, query)
    if threshold.v > pl_star:
        raise ThresholdError(threshold.v, pl_star, o_star)
    if threshold.is_full_past and net.open_past:
        raise OpenPastError("the full-past threshold needs a closed past (roots with priors)")
    rs = state.retrieval = root_set(net, query, threshold, max_nodes=max_nodes, walk=state.walk)
    cap = DEFAULT_MAX_CLAMPS if max_clamps is None else max_clamps
    width = math.prod(
        len(rs.submodel.frontier[n].states) for n in rs.frontier - rs.evidence_in_frontier
    )
    if width > cap:
        raise FrontierTooWideError(width, cap)
    scan, num, den = frontier_clamp_table(rs, query, state)

    valid = den > 0.0
    if not valid.any():
        raise ZeroEvidenceError(f"evidence {dict(query.evidence)!r} has probability zero")
    # num <= den holds exactly in real arithmetic; the clip only absorbs
    # last-ulp drift from summing the objective axis into den
    ratios = np.clip(num[valid] / den[valid], 0.0, 1.0)
    lower = float(ratios.min())
    upper = float(ratios.max())

    if threshold.is_full_past:
        status = Exactness.FULL_PAST
    else:
        status = exactness_status(rs, net.t0, lower, upper)
        if status is Exactness.FULL_PAST:
            exact = _exact_from_retrieval(net, rs, query, state.table)
            if exact is None:
                status = Exactness.NOT_EXACT
            else:
                lower = upper = exact
    state.failed = False
    return QueryBounds(
        threshold=threshold,
        lower=lower,
        upper=upper,
        exactness=status,
        frontier_size=len(rs.frontier),
        interior_size=len(rs.interior),
    )


def _levels(
    net: NetworkLike, query: Query, walk: Walk, max_steps: int | None, max_nodes: int
) -> Iterator[Threshold]:
    """The default thresholds, each read off ``walk`` (:meth:`Walk.next_level`)
    once the caller has retrieved at the one before: the critical level
    first, none at or below ``t0``, a truncation stub among the query
    nodes or a level holding a stub, then the full-past sentinel for a
    closed past; at most ``max_steps``, which an unbounded model needs."""
    if max_steps is not None and max_steps < 1:
        raise QueryError(f"max_steps must be at least 1, got {max_steps}")
    if max_steps is None and net.open_past and isinstance(net, LazyNetwork):
        raise QueryError("an unbounded model needs max_steps to bound the schedule")
    limit = max([net.t0] + [s.pl for s in map(net.resolve, query.names) if s.is_stub])
    v, count = cpl(net, query)[1], 0
    while v > limit and count != max_steps:
        yield Threshold(v)
        count += 1
        if count != max_steps:
            v = walk.next_level(net, max_nodes)
    if not net.open_past and count != max_steps:
        yield Threshold.full_past()
    elif not count:
        raise QueryError("no usable thresholds: the objective sits at or below the retrieval limit")


def default_schedule(
    net: NetworkLike,
    query: Query,
    *,
    max_steps: int | None = None,
    max_nodes: int = DEFAULT_EXPANSION_CAP,
) -> Schedule:
    """The thresholds a schedule-less :func:`anytime_sweep` visits: every
    distinct ancestor potential level from the critical one down, then
    the full past for a closed past. A retrieval walk steps through them
    without contracting and, like a sweep's, counts the nodes it
    resolves, query nodes included, against ``max_nodes``. Nothing is
    scheduled at or below ``t0`` or a truncation stub among the query
    nodes and their ancestors (one above the critical level raises the
    first retrieval's :class:`OpenPastError`)."""
    walk = Walk()
    out = []
    for th in _levels(net, query, walk, max_steps, max_nodes):
        if not th.is_full_past:
            walk.extend(net, query, th.v, max_nodes)
        out.append(th)
    return Schedule(tuple(out))


def anytime_sweep(
    net: NetworkLike,
    query: Query,
    schedule: Schedule | None = None,
    *,
    max_steps: int | None = None,
    stop_on_exact: bool = True,
    max_clamps: int | None = None,
    max_nodes: int = DEFAULT_EXPANSION_CAP,
) -> list[QueryBounds]:
    """Bounds at each threshold of ``schedule``, shallowest first, or
    without one at :func:`default_schedule`'s (at most ``max_steps``),
    each read off the sweep's own walk. One :class:`SweepState` carries
    the walk and the clamp table, so each step walks only from the
    frontier the threshold has passed and contracts only the newly
    retrieved CPTs: every node is resolved, checked and contracted once
    per sweep, and the nodes the walk resolves, query nodes included,
    count against ``max_nodes``. With ``stop_on_exact`` (the default)
    the sweep ends at the first result certified exact.
    """
    if schedule is not None and max_steps is not None:
        raise QueryError("max_steps caps the default thresholds; it cannot cap a schedule")
    out: list[QueryBounds] = []
    state = SweepState()
    for th in _levels(net, query, state.walk, max_steps, max_nodes) if schedule is None else schedule:
        qb = bounds_at(net, query, th, max_clamps=max_clamps, max_nodes=max_nodes, state=state)
        out.append(qb)
        if stop_on_exact and qb.exactness.is_exact:
            break
    return out


def map_decision(
    net: NetworkLike,
    query: Query,
    schedule: Schedule,
    *,
    max_clamps: int | None = None,
) -> tuple[str, Threshold] | None:
    """Sweep until the most likely state of a binary objective is settled.

    Returns the winning state label and the first threshold that decided
    it, or None when the schedule runs out (or the answer is certified
    exact) without separating the two states.
    """
    if len(query.objective) != 1:
        raise QueryError("map_decision needs exactly one objective node")
    ((name, label),) = query.objective.items()
    states = net.resolve(name).states
    if len(states) != 2:
        raise QueryError(f"map_decision needs a binary objective; {name!r} has {len(states)} states")
    other = states[0] if states[1] == label else states[1]

    state = SweepState()
    for th in schedule:
        qb = bounds_at(net, query, th, max_clamps=max_clamps, state=state)
        # separation must clear the probability tolerance, so an exact
        # tie at 0.5 never decides on float noise
        if qb.lower > 0.5 + PROB_TOL:
            return label, th
        if qb.upper < 0.5 - PROB_TOL:
            return other, th
        if qb.exactness.is_exact:
            return None
    return None
