"""Probability computation: certified bounds from retrieved submodels
and anytime sweeps.

Every probability goes through one contraction, :func:`_contract`:
bucket elimination that multiplies CPTs into a table of numerators and
normalizers over the frontier clamps. It eliminates latest first, in
decreasing potential level, which puts every node's children before
it, and builds each CPT only when it reaches the node, so only the cut
is live. Nodes that share a CPT share its array within one walk, and a
summed-out node's own CPT goes straight into its own bucket. Each
bucket is one einsum call, and a lone factor left at the end, which
only needs its axes reordered, is transposed without one into C order
in scan order, copied only when the transpose is strided, so later ops
read a chain step's table contiguously. Where a bucket cannot certify a
cell, the whole contraction is redone in logs (:func:`_bucket`). One size
rule holds for every reduction: at most :data:`_SMALL` cells are read as
Python floats, equal to numpy's reductions and cheaper there (a bucket's
minimum and peak, the normalizer minimum, the scan). Nothing else is
rebuilt per call: state counts come from the walk's specs or the
arrays' shapes, and evidence indices from the walk. The table keeps a
log-scale per clamp (one for all while they agree), so long evidence
chains cannot underflow. A sweep keeps that table and, at each deeper
threshold, contracts only the CPTs of the newly retrieved nodes into
it, and reads each next threshold off its own retrieval walk, whose
resolved nodes, query nodes included, count against the
:class:`ExpansionCapError` cap. The exact value of a
closed-past query is its bracket at the full-past threshold, where the
frontier is empty and the bounds coincide. Each cap is a module
constant read at call time: :data:`MAX_CLAMPS` joint frontier clamps a
threshold (``PLIF_MAX_FRONTIER`` overrides it), :data:`MAX_JOINT_CELLS`
cells a factor.

Bounds come from scanning the unobserved frontier: for every joint clamp
of those nodes the submodel yields one conditional value, and the true
query is a convex combination of them, so their min and max bracket it.
Clamps whose normalizer is zero inside the submodel carry no weight in
that combination and are excluded from the scan; a table with one
log-scale has none.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    FactorTooLargeError,
    OpenPastError,
    QueryError,
    ThresholdError,
    ZeroEvidenceError,
    FrontierTooWideError,
)
from .model import Assignment, LazyNetwork, NodeSpec, Query
from .retrieval import NetworkLike, Threshold, Walk, root_set, walk_for

MAX_CLAMPS = 2**16
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


@dataclass(frozen=True, slots=True)
class QueryBounds:
    """A certified bracket on the query at one threshold."""

    threshold: Threshold
    lower: float
    upper: float
    exactness: Exactness
    frontier_size: int
    interior_size: int


@dataclass(frozen=True, slots=True)
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
#: a linear contraction divides by its peak once the peak falls below this;
#: no cell exceeds 1, since every variable summed out brings its own CPT
_TINY = 2.0**-64
#: a linear cell below this is either an exact zero or redone in logs
_FLOOR = 2.0**-900
#: a reduction over at most this many cells reads them as Python floats
_SMALL = 8
#: numpy 1.x einsum takes at most 31 operands (numpy 2 takes 63)
_EINSUM_MAX = 31


class _NeedsLog(Exception):
    """A linear bucket cannot certify one of its cells."""


@dataclass(frozen=True, slots=True)
class _Table:
    """Numerators and normalizers indexed by the states of ``axes`` (the
    unobserved frontier), then by :data:`_NUM_DEN`. The true value at a
    cell is ``table`` there times ``exp(logscale)`` at its ``axes`` cell.
    ``logscale`` is one float when every clamp shares it (a linear
    contraction that left every normalizer at least _TINY, by the size
    rule's minimum), else an array over ``axes``, -inf where the
    normalizer is exactly zero. When the elimination ended with one
    factor (a chain step), ``table`` is C-ordered in scan order, copied
    only when the transpose is strided."""

    axes: _Axes
    table: np.ndarray
    logscale: np.ndarray | float


def _factor(spec: NodeSpec, nodes: Mapping[str, NodeSpec], clamps: Mapping[str, int], log: bool, memo: dict) -> _Factor:
    """``spec``'s CPT as a factor over its parents and itself, with the axes
    in ``clamps`` (node -> observed state index) fixed and dropped, in logs
    with ``log``; ``nodes`` gives each axis's state count. ``memo`` (a
    walk's :attr:`~plif.retrieval.Walk.factors`) keeps the tables by CPT,
    axis sizes, evidence cut and ``log``, each beside the CPT object it was
    built from, so that the CPT's id in the key stays valid. No table is
    written to, so one can serve many nodes and every step of a sweep."""
    axes = (*spec.parents, spec.name)
    shape, cut, kept = [], [], []
    for a in axes:
        c = clamps.get(a)
        shape.append(len(nodes[a].states))
        cut.append(c)
        if c is None:
            kept.append(a)
    key = (id(spec.cpt), *shape, *cut, log)
    hit = memo.get(key)
    if hit is None:
        table = np.asarray(spec.cpt, dtype=float).reshape(shape)
        if len(kept) < len(axes):
            table = table[tuple([slice(None) if c is None else c for c in cut])]
        hit = memo[key] = spec.cpt, np.log(table) if log else table
    return (axes if len(kept) == len(axes) else tuple(kept)), hit[1]


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


def _bucket(group: Sequence[_Factor], h: str | None, keep: _Axes, log: bool) -> tuple[_Factor, float]:
    """The product of ``group`` with ``h`` summed out, over its other axes
    in the order first seen, or with nothing summed (``h`` None) over
    ``keep``, which must list the group's axes; it may share memory with
    a factor and so must not be written to. Also returns the log of the
    scalar it was divided by. One pass over the group numbers its axes
    for einsum, lists the output axes and counts the product's cells
    from the factors' shapes.

    In logs (``log``) the factors are added and ``h`` is summed out by
    ``np.logaddexp``. Linearly, one :func:`numpy.einsum` call multiplies
    and sums. A lone factor is only summed, which is accurate (a lone
    factor with nothing to sum is :func:`_eliminate`'s to transpose); a
    product is divided by its peak once that is below _TINY. Each input
    is a CPT entry or a message of this function, so none exceeds 1 and
    each is accurate or exactly zero; so by the module's size rule a
    product of at most _SMALL cells reads its minimum and peak as Python
    floats, equal to numpy's reductions and cheaper there.
    A partial product that underflows stays below 2^-1022, so a cell of
    at least _FLOOR has lost at most ``|h|`` such terms, a relative
    error of at most ``|h|``·2^-122. A cell below _FLOOR must
    be an exact zero, as the einsum of the factors' 0/1 masks shows; if
    not, or past numpy 1.x einsum's 31 operands, :class:`_NeedsLog` is
    raised."""
    ids: dict = {}
    operands: list = []
    out_axes, out_ids = [], []
    cells = 1
    for axes, t in group:
        sub = []
        for a in axes:
            i = ids.get(a)
            if i is None:
                i = ids[a] = len(ids)
                cells *= t.shape[len(sub)]  # sub numbers the axes before a
                if a != h:
                    out_axes.append(a)
                    out_ids.append(i)
            sub.append(i)
        operands += (t, sub)
    if cells > MAX_JOINT_CELLS:
        raise FactorTooLargeError(cells, MAX_JOINT_CELLS)
    if h is None:
        out_axes, out_ids = keep, [ids[a] for a in keep]
    else:
        out_axes = tuple(out_axes)
    if log:
        union = keep if h is None else tuple(ids)
        out = sum(_align(axes, t, union) for axes, t in group)
        return (out_axes, out if h is None else np.logaddexp.reduce(out, axis=ids[h])), 0.0
    if len(group) > _EINSUM_MAX:
        raise _NeedsLog
    out = np.einsum(*operands, out_ids)
    if len(group) == 1:
        return (out_axes, out), 0.0
    flat = out.ravel().tolist() if out.size <= _SMALL else None
    low = np.minimum.reduce(out, axis=None) if flat is None else min(flat)
    if low < _FLOOR:
        operands[::2] = ((t > 0.0).astype(float) for t in operands[::2])
        support = np.einsum(*operands, out_ids)
        if ((out < _FLOOR) & (support > 0.0)).any():
            raise _NeedsLog
    elif low >= _TINY:  # so is the peak
        return (out_axes, out), 0.0
    peak = np.maximum.reduce(out, axis=None) if flat is None else max(flat)
    if 0.0 < peak < _TINY:
        return (out_axes, out / peak), math.log(peak)
    return (out_axes, out), 0.0


def _contract(walk: Walk, specs: Iterable[NodeSpec], scan: _Axes, prior: _Table | Assignment) -> _Table:
    """Multiply the CPTs of ``specs`` (nodes of ``walk``, read once) into ``prior``,
    with the query's evidence fixed, and sum out every variable but
    ``scan``, by bucket elimination in decreasing ``(pl, name)``.

    ``prior`` is either an earlier table, whose axes must be in ``scan``
    or in ``specs``, or the objective assignment to start from; then the
    objective nodes stay output axes until the numerator (their objective
    cell) and the normalizer (their sum) are read off. Because
    sum-products are linear in their factors, contracting a sweep's band
    of new CPTs into its previous table equals contracting every CPT
    from the start.

    Every edge runs from a strictly lower pl to a higher one, so the
    order reaches each node after its children and before its parents. A
    CPT is built when the order reaches its node, at most once per walk
    for each CPT object, axis sizes, evidence cut and domain
    (:func:`_factor`, memoized in ``walk.factors``), so a lazy chain's
    thousands of nodes use two arrays, however many steps its sweep
    takes. A summed-out node's own CPT joins its bucket last, and every
    other factor waits in the bucket of its first variable summed out,
    so only the cut is live.
    The elimination runs linearly first, with one einsum per bucket and
    one scalar scale, which starts at ``prior``'s one scale or at the
    maximum of its per-clamp scales; where a bucket cannot certify a
    cell (:func:`_bucket`), or ``prior``'s clamps span more than _FLOOR
    below it, the whole call is redone in logs. A ``prior`` whose every
    normalizer is zero stays all zero.
    The result is normalized per clamp, unless it is linear and no
    normalizer is below _TINY, when it keeps the one scale; from logs, a
    numerator below 2^-1074 of its normalizer reads zero.
    """
    order = sorted(specs, key=attrgetter("pl", "name"), reverse=True)
    try:
        return _eliminate(walk, order, scan, prior, False)
    except _NeedsLog:
        with np.errstate(divide="ignore"):
            return _eliminate(walk, order, scan, prior, True)


def _first(axes: _Axes, rank: Mapping[str, int]) -> str | None:
    """The axis of ``axes`` summed out first (least in ``rank``), whose
    bucket a factor over ``axes`` waits in; None if none is summed out."""
    h, first = None, math.inf
    for a in axes:
        r = rank.get(a, first)
        if r < first:
            h, first = a, r
    return h


def _eliminate(walk: Walk, order: Sequence[NodeSpec], scan: _Axes, prior: _Table | Assignment, log: bool) -> _Table:
    """:func:`_contract`, in logs (``log``) or linearly, over the specs in
    elimination ``order``, which both passes share. Nothing is rebuilt
    per call but each node's rank in it: state counts come from ``walk.specs``
    (:func:`_factor`) or the factors' shapes (:func:`_bucket`), and
    evidence indices from ``walk.evidence_index``. Each factor is placed
    where it is made, by :func:`_first`, in its bucket or in the rest; a
    lone rest is transposed here, under a bucket's MAX_JOINT_CELLS cap."""
    start = not isinstance(prior, _Table)
    keep = (*scan, *prior) if start else (*scan, _NUM_DEN)
    nodes, clamps, memo = walk.specs, walk.evidence_index, walk.factors
    rank = {s.name: i for i, s in enumerate(order) if s.name not in clamps and s.name not in keep}
    buckets: dict[str, list[_Factor]] = {}
    rest: list[_Factor] = []
    shift = 0.0
    if not start:
        table = prior.table
        if log:
            table = np.log(table) + np.expand_dims(prior.logscale, -1)
        elif isinstance(prior.logscale, float):
            shift = prior.logscale
        else:
            finite = prior.logscale[prior.logscale > -np.inf]
            # empty when every clamp had zero evidence: the table is all
            # zero, and so is every deeper one
            if finite.size:
                shift = float(finite.max())
                if finite.min() - shift < math.log(_FLOOR):
                    raise _NeedsLog
                table = table * np.exp(prior.logscale - shift)[..., None]
        h = _first(prior.axes, rank)
        (rest if h is None else buckets.setdefault(h, [])).append(((*prior.axes, _NUM_DEN), table))
    for spec in order:
        factor = _factor(spec, nodes, clamps, log, memo)
        if spec.name in rank:
            # every parent comes later in the order, so a CPT joins its own bucket, last
            group = buckets.pop(spec.name, [])
            group.append(factor)
            factor, scale = _bucket(group, spec.name, keep, log)
            shift += scale
        h = _first(factor[0], rank)
        (rest if h is None else buckets.setdefault(h, [])).append(factor)
    if len(rest) == 1:  # a lone factor only needs its axes reordered
        axes, table = rest[0]
        if table.size > MAX_JOINT_CELLS:
            raise FactorTooLargeError(table.size, MAX_JOINT_CELLS)
        table = np.ascontiguousarray(table.transpose([axes.index(a) for a in keep]))
    else:
        (_, table), scale = _bucket(rest, None, keep, log)
        shift += scale
    if start:
        target = tuple(nodes[n].states.index(v) for n, v in prior.items())
        pair = np.empty((*table.shape[: len(scan)], 2))
        pair[..., 0] = table[(Ellipsis, *target)]
        if log:
            pair[..., 1] = np.logaddexp.reduce(table.reshape((*pair.shape[:-1], -1)), axis=-1)
        else:
            pair[..., 1] = table.sum(axis=tuple(range(len(scan), len(keep))))
        table = pair
    den = table[..., 1]  # the peak of each clamp, as num <= den
    if log:
        finite = np.where(den == -np.inf, 0.0, den)
        return _Table(scan, np.exp(table - finite[..., None]), den)
    if (min(den.reshape(-1).tolist()) if den.size <= _SMALL else den.min()) >= _TINY:
        return _Table(scan, table, shift)
    zero = den == 0.0
    den = np.where(zero, 1.0, den)
    return _Table(scan, table / den[..., None], np.where(zero, -np.inf, np.log(den) + shift))


# ---------------------------------------------------------------------------
# operations


def frontier_clamp_table(walk: Walk) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Conditional numerators/denominators for every clamp of the
    unobserved frontier, in one contraction.

    Returns ``(scan_nodes, num, den)``: arrays indexed by the state of
    each unobserved frontier node (sorted by name, odometer order), where
    ``num/den`` at a clamp is P(objective | that clamp, the observed
    frontier, the evidence at or above the threshold) inside the retrieval.
    ``num`` and ``den`` are scaled by the same positive factor at each
    clamp, chosen per clamp so that neither underflows; only their ratio
    and whether ``den`` is exactly zero carry meaning.

    Only the CPTs of ``walk.band`` are contracted, into ``walk.table``
    (from the objective assignment when there is none yet); the new
    table replaces it and the band is cleared. If the contraction
    raises, the walk is left as it was.
    """
    scan = tuple(sorted(walk.frontier.keys() - walk.evidence_in_frontier))
    band = map(walk.interior.__getitem__, walk.band)
    walk.table = table = _contract(walk, band, scan, walk.query.objective if walk.table is None else walk.table)
    walk.band.clear()
    return scan, table.table[..., 0], table.table[..., 1]


def exactness_status(walk: Walk, lower: float, upper: float) -> Exactness:
    """Classify a retrieval per the first matching exactness condition.

    In order: (1) the frontier lies entirely inside the evidence, so no
    clamp is free; (2) every frontier node is a root with a prior, at any
    pl, or an observed truncation stub, whose prior cancels in the
    conditional, and no evidence was left unreached, so the retrieved
    past is complete; (3) the bounds coincide anyway.
    Condition (2)'s evidence clause is exactly "evidence_minus is empty",
    which the sizes of the disjoint parts answer without building it.
    """
    e_front = walk.evidence_in_frontier
    if len(walk.frontier) == len(e_front):
        return Exactness.FRONTIER_SUBSET_OF_EVIDENCE
    dropped = len(walk.query.evidence) - len(walk.evidence_plus) - len(e_front)
    if not dropped and all(not f.parents and (not f.is_stub or f.name in e_front) for f in walk.frontier.values()):
        return Exactness.FULL_PAST
    if abs(upper - lower) < PROB_TOL:
        return Exactness.COINCIDENCE
    return Exactness.NOT_EXACT


def _exact_from_retrieval(walk: Walk) -> float:
    """Exact value when the retrieval closed the past: the walk's clamp
    table times the frontier roots' own priors; an observed stub is
    only clamped, as its prior cancels."""
    roots = [s for s in walk.frontier.values() if not s.is_stub]
    num, den = _contract(walk, roots, (), walk.table).table
    if den == 0.0:
        raise _zero_evidence(walk.query.evidence)
    return float(num / den)


def _zero_evidence(evidence: Assignment) -> ZeroEvidenceError:
    more = f" and {len(evidence) - 5} more nodes" if len(evidence) > 5 else ""
    return ZeroEvidenceError(f"evidence {dict(itertools.islice(evidence.items(), 5))!r}{more} has probability zero")


def _clamp_cap() -> int:
    raw = os.environ.get("PLIF_MAX_FRONTIER")
    if raw is None:
        return MAX_CLAMPS
    try:
        cap = int(raw)
    except ValueError:
        raise QueryError(f"PLIF_MAX_FRONTIER must be an integer, got {raw!r}") from None
    if cap < 1:
        raise QueryError(f"PLIF_MAX_FRONTIER must be at least 1, got {cap}")
    return cap


def bounds_at(net: NetworkLike, query: Query, threshold: Threshold, *, walk: Walk | None = None) -> QueryBounds:
    """Certified bounds on the query from the submodel retrieved at
    ``threshold``.

    The threshold must not exceed the critical potential level (the
    earliest objective node); the full-past sentinel additionally needs a
    closed past. Frontier clamps with a zero normalizer are skipped; if
    all of them are, the evidence is unreachable and an error is raised;
    a table with one log-scale has none (:class:`_Table`), and at most
    _SMALL clamps are scanned as Python floats (the size rule).
    More joint clamps of the unobserved frontier than :data:`MAX_CLAMPS`
    (or ``PLIF_MAX_FRONTIER``, read first) raise :class:`FrontierTooWideError`.

    A sweep passes one ``walk``, built for ``net`` and ``query``, to its
    calls, shallowest threshold first; each extends the walk and its
    clamp table rather than starting over, as :func:`root_set` extends
    a walk, and refuses it the same way. A call that raises before or
    after the extension leaves the walk usable for a deeper threshold;
    only one whose extension raised leaves it refused. Without a walk the
    call starts a new one.
    """
    cap = _clamp_cap()
    walk = walk_for(net, query, walk)
    o_star, pl_star = walk.critical
    if threshold.v > pl_star:
        raise ThresholdError(threshold.v, pl_star, o_star)
    if threshold.is_full_past and net.open_past:
        raise OpenPastError("the full-past threshold needs a closed past (roots with priors)")
    root_set(net, query, threshold, walk=walk)
    width = math.prod([len(s.states) for n, s in walk.frontier.items() if n not in walk.evidence_in_frontier])
    if width > cap:
        raise FrontierTooWideError(width, cap)
    scan, num, den = frontier_clamp_table(walk)

    if den.size <= _SMALL:
        ratios = [n / d for n, d in zip(num.reshape(-1).tolist(), den.reshape(-1).tolist()) if d > 0.0]
    elif isinstance(walk.table.logscale, float) or den.min() > 0.0:  # one scale: none below _TINY
        ratios = num / den
    else:  # only here are clamps masked, and copied
        valid = den > 0.0
        ratios = num[valid] / den[valid]
    if not len(ratios):
        raise _zero_evidence(query.evidence)
    low, high = (min(ratios), max(ratios)) if den.size <= _SMALL else (float(ratios.min()), float(ratios.max()))
    # num <= den holds exactly in real arithmetic; the clamp to [0, 1]
    # only absorbs last-ulp drift from summing the objective axis into
    # den, and it is monotone, so it is applied to the extremes alone
    lower = min(max(low, 0.0), 1.0)
    upper = min(max(high, 0.0), 1.0)

    if threshold.is_full_past:
        status = Exactness.FULL_PAST
    else:
        status = exactness_status(walk, lower, upper)
        if status is Exactness.FULL_PAST:
            lower = upper = _exact_from_retrieval(walk)
    # positional: a frozen dataclass's keywords cost about a third more
    return QueryBounds(threshold, lower, upper, status, len(walk.frontier), len(walk.interior))


def _levels(walk: Walk, max_steps: int | None) -> Iterator[Threshold]:
    """The default thresholds, each read off ``walk`` (:meth:`Walk.next_level`)
    once the caller has retrieved at the one before: the critical level
    first, none at or below ``t0``, then the full-past sentinel for a
    closed past; at most ``max_steps``, which an unbounded model needs."""
    net = walk.net
    if max_steps is not None and max_steps < 1:
        raise QueryError(f"max_steps must be at least 1, got {max_steps}")
    if max_steps is None and net.open_past and isinstance(net, LazyNetwork):
        raise QueryError("an unbounded model needs max_steps to bound the schedule")
    v, count = walk.critical[1], 0
    while v > net.t0 and count != max_steps:
        yield Threshold(v)
        count += 1
        if count != max_steps:
            v = walk.next_level()
    if not net.open_past and count != max_steps:
        yield Threshold.full_past()
    elif not count:
        raise QueryError("no usable thresholds: the objective sits at or below t0")


def default_schedule(net: NetworkLike, query: Query, *, max_steps: int | None = None) -> Schedule:
    """The thresholds a schedule-less :func:`anytime_sweep` visits: every
    distinct ancestor potential level from the critical one down, then
    the full past for a closed past. A retrieval walk steps through them
    without contracting and, like a sweep's, counts the nodes it
    resolves, query nodes included, against ``retrieval.MAX_NODES``.
    Nothing is scheduled at or below ``t0``, and no truncation stub's
    level is scheduled: a stub is a clamp at every threshold."""
    walk = Walk(net, query)
    out = []
    for th in _levels(walk, max_steps):
        if not th.is_full_past:
            walk.extend(th.v)
        out.append(th)
    return Schedule(tuple(out))


def anytime_sweep(
    net: NetworkLike,
    query: Query,
    schedule: Schedule | None = None,
    *,
    max_steps: int | None = None,
    stop_on_exact: bool = True,
) -> Iterator[QueryBounds]:
    """Yield the bounds at each threshold of ``schedule``, shallowest
    first, or without one at :func:`default_schedule`'s (at most
    ``max_steps``), each as soon as :func:`bounds_at` certifies it.
    Every step reads off the sweep's own walk. The walk carries the
    retrieval and the clamp table, so each step walks only from the
    frontier the threshold has passed and contracts only the newly
    retrieved CPTs: every node is resolved, checked and contracted once
    per sweep, and the nodes the walk resolves, query nodes included,
    count against ``retrieval.MAX_NODES``. With ``stop_on_exact`` (the
    default) the sweep ends after the first row certified exact.

    This is a generator: nothing runs before the first ``next()``, so an
    argument or query error surfaces there, and an error at a later step
    (a cap, say) ends the sweep after the rows it already yielded.
    """
    if schedule is not None and max_steps is not None:
        raise QueryError("max_steps caps the default thresholds; it cannot cap a schedule")
    walk = Walk(net, query)
    for th in _levels(walk, max_steps) if schedule is None else schedule:
        qb = bounds_at(net, query, th, walk=walk)
        yield qb
        if stop_on_exact and qb.exactness.is_exact:
            return
