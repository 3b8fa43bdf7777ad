import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
import plif.infer as infer
from conftest import make_net, random_chain
from plif import (
    Exactness,
    ExpansionCapError,
    FactorTooLargeError,
    FrontierTooWideError,
    HmmParams,
    LazyNetwork,
    NodeSpec,
    OpenPastError,
    Query,
    QueryError,
    RandomNetSpec,
    Schedule,
    Threshold,
    ThresholdError,
    ZeroEvidenceError,
    anytime_sweep,
    as_lazy,
    bounds_at,
    default_schedule,
    hmm_model,
    hmm_query,
    materialize,
    random_network,
    root_set,
    validate,
)
from plif.gen import hmm_node_name, random_query
from plif.infer import cpl, exactness_status, map_decision
from plif.retrieval import Walk

HMM = HmmParams()


# --- query and schedule plumbing -------------------------------------------------


def test_query_rejects_overlap_and_empty_objective():
    with pytest.raises(QueryError):
        Query({"x": "1"}, {"x": "0"})
    with pytest.raises(QueryError):
        Query({})


def test_query_unknown_state_label_raises(two_node_net):
    from plif import UnknownStateError

    with pytest.raises(UnknownStateError):
        bounds_at(two_node_net, Query({"e": "maybe"}), Threshold.full_past())


def test_threshold_rejects_nan_and_plus_inf():
    with pytest.raises(QueryError):
        Threshold(float("nan"))
    with pytest.raises(QueryError):
        Threshold(float("inf"))


def test_schedule_must_strictly_decrease_and_be_nonempty():
    with pytest.raises(QueryError):
        Schedule(())
    with pytest.raises(QueryError):
        Schedule((Threshold(1.0), Threshold(1.0)))


# --- cpl ----------------------------------------------------------------------


def test_cpl_chain(chain_net):
    assert cpl(Walk(chain_net, Query({"x": "1"}, {"y": "1"}))) == ("x", 4.0)


def test_cpl_single_objective(two_node_net):
    assert cpl(Walk(two_node_net, Query({"e": "0"}))) == ("e", 1.0)


def test_cpl_on_lazy_model():
    assert cpl(Walk(hmm_model(HMM), hmm_query(HMM))) == ("x_t+1", -1.0)


def test_cpl_tie_breaks_lexicographically(collider_net):
    assert cpl(Walk(collider_net, Query({"b": "1", "a": "1"}))) == ("a", 0.0)


# --- exact values: the full-past bracket, where lower equals upper --------------


def test_exact_two_node_total_probability(two_node_net):
    qb = bounds_at(two_node_net, Query({"e": "1"}), Threshold.full_past())
    assert qb.lower == qb.upper == pytest.approx(0.31, abs=1e-12)


def test_exact_root_prior_identity(two_node_net):
    qb = bounds_at(two_node_net, Query({"c": "1"}), Threshold.full_past())
    assert qb.lower == qb.upper == pytest.approx(0.3, abs=1e-15)


def test_exact_hmm_fragment_matches_filter_oracle(hmm4_net):
    q = Query({"x_t+1": "1"}, {"y_t": "1", "y_t-1": "1", "x_t-2": "1"})
    value = bounds_at(hmm4_net, q, Threshold.full_past()).lower
    assert value == pytest.approx(2349 / 2690, abs=1e-12)
    assert value == pytest.approx(0.87324, abs=1e-5)
    assert value == pytest.approx(oracles.hmm_clamp_filter(0.9, 0.8, 1, 3, 10), abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_exact_matches_pure_python_enumeration(seed):
    net = random_network(RandomNetSpec(seed=seed, node_count=6))
    query = random_query(net, seed + 500)
    expected = (
        oracles.conditional(net, query.objective, query.evidence)
        if query.evidence
        else oracles.probability(net, query.objective)
    )
    qb = bounds_at(net, query, Threshold.full_past())
    assert qb.lower == qb.upper == pytest.approx(expected, abs=1e-12)


def _shared_cpt_net(*specs):
    # hand-built, so that nodes can share one CPT tuple object, as a lazy model's do
    net = make_net(0.0, False, *specs)
    assert not validate(net)
    return net


def test_one_cpt_object_shared_by_evidence_leaves_in_different_states():
    leaf = ((0.9, 0.1), (0.2, 0.8))
    net = _shared_cpt_net(
        NodeSpec("r", ("0", "1"), (), ((0.3, 0.7),), 0.0),
        NodeSpec("e1", ("0", "1"), ("r",), leaf, 1.0),
        NodeSpec("e2", ("0", "1"), ("r",), leaf, 1.0),
    )
    q = Query({"r": "1"}, {"e1": "0", "e2": "1"})
    expected = oracles.conditional(net, q.objective, q.evidence)
    for model in (net, as_lazy(net)):
        qb = bounds_at(model, q, Threshold.full_past())
        assert qb.lower == qb.upper == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "left, right",
    [((4,), (2, 2)), ((2, 4), (4, 2))],
    ids=["4-rows-one-4-state-parent-and-two-binary", "8-rows-parents-2x4-and-4x2"],
)
def test_one_cpt_object_shared_by_nodes_with_differently_sized_parents(left, right):
    def roots(prefix, sizes):
        prior = {2: (0.3, 0.7), 4: (0.1, 0.2, 0.3, 0.4)}
        return [NodeSpec(f"{prefix}{i}", tuple(map(str, range(n))), (), (prior[n],), 0.0) for i, n in enumerate(sizes)]

    rows = tuple((p, 1.0 - p) for p in (0.9, 0.6, 0.3, 0.2, 0.75, 0.4, 0.15, 0.5)[: math.prod(left)])
    parents = roots("a", left) + roots("b", right)
    net = _shared_cpt_net(
        *parents,
        NodeSpec("u", ("0", "1"), tuple(p.name for p in parents[: len(left)]), rows, 1.0),
        NodeSpec("v", ("0", "1"), tuple(p.name for p in parents[len(left) :]), rows, 1.0),
    )
    q = Query({"u": "1", "v": "0"})
    expected = oracles.probability(net, q.objective)
    for model in (net, as_lazy(net)):
        qb = bounds_at(model, q, Threshold.full_past())
        assert qb.lower == qb.upper == pytest.approx(expected, abs=1e-12)


def test_exact_rejects_zero_probability_evidence():
    sure = NodeSpec("s", ("0", "1"), (), ((1.0, 0.0),), pl=0.0)
    child = NodeSpec("k", ("0", "1"), ("s",), ((1.0, 0.0), (0.0, 1.0)), pl=1.0)
    net = make_net(0.0, False, sure, child)
    with pytest.raises(ZeroEvidenceError, match="probability zero"):
        bounds_at(net, Query({"s": "0"}, {"k": "1"}), Threshold.full_past())


def test_exact_rejects_open_past():
    frag = materialize(hmm_model(HMM), Query({"x_t+1": "1"}), -2.0)
    with pytest.raises(OpenPastError):
        bounds_at(frag, Query({"x_t+1": "1"}), Threshold.full_past())


# --- frontier conditionals: the cells of the clamp table ------------------------


def _clamp_values(rs):
    """The clamp table's conditional at every clamp, by scan node."""
    scan, num, den = infer.frontier_clamp_table(rs)
    assert (den > 0.0).all()
    return scan, num / den


def test_frontier_conditional_chain_is_cpt_row(chain_net):
    q = Query({"x": "1"}, {"y": "1"})
    scan, values = _clamp_values(root_set(chain_net, q, Threshold(4.0)))
    assert scan == ("t1",)
    assert values.tolist() == pytest.approx([0.25, 0.9])
    for s, got in zip(("0", "1"), values):
        assert got == pytest.approx(oracles.conditional(chain_net, {"x": "1"}, {"t1": s}))


def test_frontier_conditional_single_factor_lookup(two_node_net):
    q = Query({"e": "1"})
    scan, values = _clamp_values(root_set(two_node_net, q, Threshold(1.0)))
    assert scan == ("c",)
    assert values[0] == pytest.approx(0.1)
    assert values[0] == pytest.approx(oracles.conditional(two_node_net, {"e": "1"}, {"c": "0"}))


def test_frontier_conditional_normalizes_over_states(chain_net):
    total = 0.0
    for s in ("0", "1"):
        q = Query({"x": s}, {"y": "1"})
        scan, values = _clamp_values(root_set(chain_net, q, Threshold(3.0)))
        assert scan == ("t2",)
        total += values[1]
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_frontier_conditional_matches_full_network(seed):
    net = random_network(RandomNetSpec(seed=seed, node_count=4 + seed % 9))
    query = random_query(net, seed + 2000)
    names, joint = oracles.net_joint(net)
    pl_star = min(net.spec(n).pl for n in query.objective)
    levels = sorted(
        {net.spec(n).pl for n in net.nodes if net.spec(n).pl <= pl_star}, reverse=True
    )
    for v in levels:
        rs = root_set(net, query, Threshold(v))
        scan, values = _clamp_values(rs)
        assert scan == tuple(sorted(rs.frontier.keys() - set(query.evidence)))
        e_plus = {e: query.evidence[e] for e in rs.evidence_plus}
        observed = {e: query.evidence[e] for e in rs.evidence_in_frontier}
        for clamp, got in zip(_assignments(net, scan), values.flat, strict=True):
            full = {**clamp, **observed}
            want = oracles.joint_conditional(net, names, joint, query.objective, {**full, **e_plus})
            assert got == pytest.approx(want, abs=1e-9)


def _assignments(net, names):
    if not names:
        return [{}]
    out = [{}]
    for n in names:
        out = [{**a, n: s} for a in out for s in net.spec(n).states]
    return out


# --- bounds_at ------------------------------------------------------------------


def test_hmm_bounds_cross_half_at_three_steps():
    lazy = hmm_model(HMM)
    q = hmm_query(HMM)
    qb = bounds_at(lazy, q, Threshold(-3.0))
    assert qb.lower > 0.5
    assert qb.lower == pytest.approx(341 / 530, abs=1e-12)
    assert qb.upper == pytest.approx(2349 / 2690, abs=1e-12)
    assert qb.exactness is Exactness.NOT_EXACT


def test_bounds_exact_when_frontier_is_evidence(chain_net):
    q = Query({"x": "1"}, {"y": "1"})
    qb = bounds_at(chain_net, q, Threshold(2.0))
    assert qb.exactness is Exactness.FRONTIER_SUBSET_OF_EVIDENCE
    want = oracles.conditional(chain_net, q.objective, q.evidence)
    assert qb.lower == qb.upper == pytest.approx(want, abs=1e-12)


def test_bounds_threshold_above_cpl_raises(chain_net):
    with pytest.raises(ThresholdError) as exc:
        bounds_at(chain_net, Query({"x": "1"}, {"y": "1"}), Threshold(4.5))
    assert "4" in str(exc.value)


def test_bounds_full_past_sentinel_is_exact(chain_net):
    q = Query({"x": "1"}, {"y": "1"})
    qb = bounds_at(chain_net, q, Threshold.full_past())
    assert qb.exactness is Exactness.FULL_PAST
    assert qb.lower == pytest.approx(
        oracles.conditional(chain_net, q.objective, q.evidence), abs=1e-12
    )
    assert qb.frontier_size == 0


def test_bounds_sentinel_refused_on_open_past():
    frag = materialize(hmm_model(HMM), Query({"x_t+1": "1"}), -2.0)
    with pytest.raises(OpenPastError):
        bounds_at(frag, Query({"x_t+1": "1"}), Threshold.full_past())


def test_bounds_clamp_cap_enforced(chain_net, monkeypatch):
    monkeypatch.setattr(infer, "MAX_CLAMPS", 1)
    with pytest.raises(FrontierTooWideError):
        bounds_at(chain_net, Query({"x": "1"}), Threshold(4.0))


def test_frontier_cap_env_var_caps_a_library_sweep(monkeypatch):
    lazy, q = hmm_model(HMM), hmm_query(HMM)
    monkeypatch.setenv("PLIF_MAX_FRONTIER", "1")
    with pytest.raises(FrontierTooWideError, match="exceed the cap of 1"):
        anytime_sweep(lazy, q, max_steps=3)
    monkeypatch.setenv("PLIF_MAX_FRONTIER", "abc")
    with pytest.raises(QueryError, match="PLIF_MAX_FRONTIER must be an integer, got 'abc'"):
        anytime_sweep(lazy, q, max_steps=3)


def test_bounds_zero_normalizer_clamps_are_excluded():
    r = NodeSpec("r", ("0", "1"), (), ((0.5, 0.5),), pl=0.0)
    m = NodeSpec("m", ("0", "1"), ("r",), ((1.0, 0.0), (0.0, 1.0)), pl=1.0)
    o = NodeSpec("o", ("0", "1"), ("m",), ((0.3, 0.7), (0.6, 0.4)), pl=2.0)
    net = make_net(0.0, False, r, m, o)
    qb = bounds_at(net, Query({"o": "1"}, {"m": "1"}), Threshold(1.0))
    # the clamp r=0 forces P(m=1)=0 and must not pollute the bounds
    assert qb.lower == qb.upper == pytest.approx(0.4, abs=1e-12)
    assert qb.exactness is Exactness.FULL_PAST


def test_bounds_error_when_every_clamp_is_impossible():
    r = NodeSpec("r", ("0", "1"), (), ((0.5, 0.5),), pl=0.0)
    m = NodeSpec("m", ("0", "1"), ("r",), ((1.0, 0.0), (1.0, 0.0)), pl=1.0)
    o = NodeSpec("o", ("0", "1"), ("m",), ((0.3, 0.7), (0.6, 0.4)), pl=2.0)
    net = make_net(0.0, False, r, m, o)
    with pytest.raises(ZeroEvidenceError):
        bounds_at(net, Query({"o": "1"}, {"m": "1"}), Threshold(1.0))


@pytest.mark.parametrize("clamps", [infer._SMALL, 2 * infer._SMALL])
@pytest.mark.parametrize("case", ["positive", "some_zero", "all_zero"])
def test_bounds_scan_on_both_sides_of_the_small_table_size(clamps, case):
    # the scan reads at most _SMALL clamps as Python floats, more through
    # numpy, where a table with one scale is not masked; both must give the
    # per-clamp bracket exactly. The stub f is the frontier at any
    # threshold, o and m are children of f, and m = 1 is observed. Every
    # entry is dyadic, so each product and sum is exact
    states = tuple(str(i) for i in range(clamps))
    seen = [0.0 if case == "all_zero" or (case == "some_zero" and i % 3 == 0) else (1 + i % 3) / 4 for i in range(clamps)]
    # a permutation of 1/64 .. clamps/64: the minimum sits at a zeroed clamp
    hit = [((5 * i) % clamps + 1) / 64 for i in range(clamps)]
    f = NodeSpec("f", states, (), None, pl=-10.0)
    m = NodeSpec("m", ("0", "1"), ("f",), tuple((1.0 - p, p) for p in seen), pl=0.0)
    o = NodeSpec("o", ("0", "1"), ("f",), tuple((1.0 - p, p) for p in hit), pl=1.0)
    net = make_net(-20.0, True, f, m, o)
    q = Query({"o": "1"}, {"m": "1"})
    if case == "all_zero":
        with pytest.raises(ZeroEvidenceError):
            bounds_at(net, q, Threshold(-5.0))
        return
    ends = [float(Fraction(p) * Fraction(h) / (Fraction(p) * (Fraction(1.0 - h) + Fraction(h)))) for p, h in zip(seen, hit) if p > 0.0]
    qb = bounds_at(net, q, Threshold(-5.0))
    assert qb.frontier_size == 1 and (case == "positive") == (min(ends) == 1 / 64)
    assert (qb.lower, qb.upper) == (min(ends), max(ends))


@pytest.mark.parametrize("seed", range(40))
def test_bounds_bracket_the_exact_value(seed):
    net = random_network(RandomNetSpec(seed=seed, node_count=4 + seed % 9))
    query = random_query(net, seed + 3000)
    names, joint = oracles.net_joint(net)
    exact = oracles.joint_conditional(net, names, joint, query.objective, query.evidence)
    for th in default_schedule(net, query):
        qb = bounds_at(net, query, th)
        assert qb.lower - 1e-9 <= exact <= qb.upper + 1e-9


@pytest.mark.parametrize("window", [2500, 5000])
def test_bounds_long_window_matches_filter_oracle(window):
    # the evidence mass falls below the smallest double near w=2500
    p = HmmParams(window=window)
    qb = bounds_at(hmm_model(p), hmm_query(p), Threshold(-float(window)))
    lo = oracles.hmm_clamp_filter(0.9, 0.8, 0, window, window)
    hi = oracles.hmm_clamp_filter(0.9, 0.8, 1, window, window)
    assert qb.lower == pytest.approx(lo, abs=1e-9)
    assert qb.upper == pytest.approx(hi, abs=1e-9)


def test_bounds_exact_zero_normalizer_survives_scaling():
    # the chain at w=2500, except that x just above the frontier copies a
    # frontier state of 0 and its observation of 1 is impossible in state 0:
    # that clamp's normalizer is exactly zero, the other one underflows
    # without scaling
    window = 2500
    p = HmmParams(window=window)
    inner = hmm_model(p)
    gated = {
        hmm_node_name("x", 2 - window): ((1.0, 0.0), (0.1, 0.9)),
        hmm_node_name("y", 2 - window): ((1.0, 0.0), (0.2, 0.8)),
    }

    def resolve(name):
        spec = inner.resolve(name)
        return dataclasses.replace(spec, cpt=gated[name]) if name in gated else spec

    lazy = LazyNetwork(resolver=resolve, t0=inner.t0, open_past=True)
    q = hmm_query(p)
    th = Threshold(-float(window))
    _, _, den = infer.frontier_clamp_table(root_set(lazy, q, th))
    assert den[0] == 0.0 and den[1] > 0.0
    qb = bounds_at(lazy, q, th)
    want = oracles.hmm_clamp_filter(0.9, 0.8, 1, window - 1, window)
    assert qb.lower == qb.upper == pytest.approx(want, abs=1e-9)


def test_intermediate_factor_cap(monkeypatch, chain_net):
    monkeypatch.setattr(infer, "MAX_JOINT_CELLS", 3)
    with pytest.raises(FactorTooLargeError) as exc:
        bounds_at(chain_net, Query({"x": "1"}), Threshold(2.0))
    assert exc.value.cap == 3


def _coupled_chains(k, window):
    """k binary hidden chains with an unbounded past, wired as in
    ``bench/kchain.py``: ``x<i>_t<s>`` has the parents ``x<i>_t<s-1>`` and
    ``x<(i+1) mod k>_t<s-1>`` and one observed child ``y<i>_t<s>``."""

    def name(var, i, s):
        return f"{var}{i}_t{s}"

    def resolve(n):
        var, i, s = n[0], int(n[1 : n.index("_")]), int(n[n.index("_t") + 2 :])
        if var == "x":
            rows = tuple((1.0 - p, p) for p in (0.2, 0.45, 0.55, 0.8))
            parents = (name("x", i, s - 1), name("x", (i + 1) % k, s - 1))
            return NodeSpec(n, ("0", "1"), parents, rows, pl=s - 2.0)
        return NodeSpec(n, ("0", "1"), (name("x", i, s),), ((0.8, 0.2), (0.2, 0.8)), pl=s - 1.5)

    net = LazyNetwork(resolver=resolve, t0=float("-inf"), open_past=True)
    obs = {name("y", i, -j): str((i + j) % 2) for i in range(k) for j in range(window)}
    return net, Query({name("x", 0, 1): "1"}, obs)


@pytest.mark.parametrize("cap, fits", [(2**7, True), (2**7 - 1, False)])
def test_widest_bucket_of_coupled_chains_is_pinned(monkeypatch, cap, fits):
    # a reverse topological order needs buckets of 2^7 cells here: seven
    # binary axes, the numerator/normalizer axis among them. An
    # elimination order that widens a bucket fails the first case
    net, q = _coupled_chains(4, 4)
    schedule = Schedule(tuple(Threshold(-float(d)) for d in range(1, 8)))
    monkeypatch.setattr(infer, "MAX_JOINT_CELLS", cap)
    if fits:
        rows = anytime_sweep(net, q, schedule, stop_on_exact=False)
        assert len(rows) == 7 and rows[-1].upper - rows[-1].lower < rows[0].upper - rows[0].lower
    else:
        with pytest.raises(FactorTooLargeError):
            anytime_sweep(net, q, schedule, stop_on_exact=False)


# --- exactness_status -----------------------------------------------------------


def test_status_frontier_subset_of_evidence(chain_net):
    rs = root_set(chain_net, Query({"x": "1"}, {"y": "1"}), Threshold(2.0))
    status = exactness_status(rs, 0.3, 0.7)
    assert status is Exactness.FRONTIER_SUBSET_OF_EVIDENCE


def test_status_full_past_when_frontier_sits_at_origin(collider_net):
    rs = root_set(collider_net, Query({"c": "1"}), Threshold(1.0))
    status = exactness_status(rs, 0.2, 0.8)
    assert status is Exactness.FULL_PAST


def test_status_coincidence_at_a_truncation_stub_on_the_origin():
    # a stub on t0 has no prior, so the past stays open; the bracket still
    # coincides because a ignores s, and the sweep must see that
    s = NodeSpec("s", ("0", "1"), (), None, pl=0.0)
    a = NodeSpec("a", ("0", "1"), ("s",), ((0.3, 0.7), (0.3, 0.7)), pl=1.0)
    net = make_net(0.0, True, s, a)
    assert exactness_status(root_set(net, Query({"a": "1"}), Threshold(1.0)), 0.5, 0.9) is Exactness.NOT_EXACT
    (row,) = anytime_sweep(net, Query({"a": "1"}))
    assert row.exactness is Exactness.COINCIDENCE
    assert row.lower == pytest.approx(0.7) and row.upper == pytest.approx(0.7)


def test_status_full_past_at_a_root_with_a_prior_above_the_origin():
    # an open past may hold a genuine root above t0; nothing lies behind
    # it, so a retrieval whose frontier holds only such roots is complete
    r = NodeSpec("r", ("0", "1"), (), ((0.4, 0.6),), pl=1.0)
    a = NodeSpec("a", ("0", "1"), ("r",), ((0.9, 0.1), (0.2, 0.8)), pl=2.0)
    net = make_net(0.0, True, r, a)
    (row,) = anytime_sweep(net, Query({"a": "1"}), max_steps=3)
    assert row.threshold == Threshold(2.0) and row.exactness is Exactness.FULL_PAST
    assert row.lower == row.upper == pytest.approx(0.4 * 0.1 + 0.6 * 0.8, abs=1e-12)


def test_status_coincidence_when_bounds_meet():
    r = NodeSpec("r", ("0", "1"), (), ((0.5, 0.5),), pl=0.0)
    m = NodeSpec("m", ("0", "1"), ("r",), ((0.6, 0.4), (0.4, 0.6)), pl=1.0)
    o = NodeSpec("o", ("0", "1"), ("m",), ((0.42, 0.58), (0.42, 0.58)), pl=2.0)
    net = make_net(0.0, False, r, m, o)
    rs = root_set(net, Query({"o": "1"}), Threshold(2.0))
    status = exactness_status(rs, 0.42, 0.42)
    assert status is Exactness.COINCIDENCE
    qb = bounds_at(net, Query({"o": "0"}), Threshold(2.0))
    assert qb.exactness is Exactness.COINCIDENCE
    assert qb.lower == pytest.approx(0.42)


def test_status_not_exact(chain_net):
    rs = root_set(chain_net, Query({"x": "1"}, {"y": "1"}), Threshold(4.0))
    assert (
        exactness_status(rs, 0.25, 0.9)
        is Exactness.NOT_EXACT
    )


# --- default_schedule -----------------------------------------------------------


def test_schedule_chain_levels_then_sentinel(chain_net):
    sched = default_schedule(chain_net, Query({"x": "1"}, {"y": "1"}))
    assert [t.v for t in sched] == [4.0, 3.0, 2.0, float("-inf")]


def test_schedule_single_root_query_is_just_the_sentinel(two_node_net):
    sched = default_schedule(two_node_net, Query({"c": "1"}))
    assert [t.is_full_past for t in sched] == [True]


def test_schedule_hmm_capped():
    sched = default_schedule(hmm_model(HMM), hmm_query(HMM), max_steps=10)
    assert [t.v for t in sched] == [float(-k) for k in range(1, 11)]


def test_schedule_lazy_requires_cap():
    with pytest.raises(QueryError):
        default_schedule(hmm_model(HMM), hmm_query(HMM))


@pytest.mark.parametrize("max_steps", [0, -2])
def test_schedule_rejects_max_steps_below_one(chain_net, max_steps):
    with pytest.raises(QueryError, match="max_steps must be at least 1"):
        default_schedule(chain_net, Query({"x": "1"}), max_steps=max_steps)


def test_schedule_walk_is_capped(monkeypatch):
    monkeypatch.setattr("plif.retrieval.MAX_NODES", 26)
    with pytest.raises(ExpansionCapError):
        default_schedule(hmm_model(HMM), hmm_query(HMM), max_steps=50)
    assert len(default_schedule(hmm_model(HMM), hmm_query(HMM), max_steps=15)) == 15


@pytest.mark.parametrize("route", ["default_schedule", "anytime_sweep"])
def test_schedule_and_sweep_count_one_walk_against_the_node_cap(route, monkeypatch):
    # both walk the chain once, to the same depth, and resolve the same
    # nodes: the query's 11 and the 15 hidden nodes behind x_t+1, the
    # deepest of them on the frontier, and nothing more
    def run(cap):
        monkeypatch.setattr("plif.retrieval.MAX_NODES", cap)
        if route == "default_schedule":
            return default_schedule(hmm_model(HMM), hmm_query(HMM), max_steps=15)
        return anytime_sweep(hmm_model(HMM), hmm_query(HMM), max_steps=15, stop_on_exact=False)

    assert len(run(26)) == 15
    with pytest.raises(ExpansionCapError):
        run(25)


def _corpus_cases():
    for seed in range(500):
        net = random_network(RandomNetSpec(seed=seed, node_count=3 + seed % 10))
        yield net, random_query(net, seed + 1000)


def _stub_cases():
    s = NodeSpec("s", ("0", "1"), (), None, pl=1.5)
    z = NodeSpec("z", ("0", "1"), (), None, pl=1.5)
    w = NodeSpec("w", ("0", "1"), ("z",), ((0.5, 0.5), (0.5, 0.5)), pl=2.5)
    rows = ((0.6, 0.4), (0.5, 0.5), (0.1, 0.9), (0.2, 0.8))
    a = NodeSpec("a", ("0", "1"), ("b", "s"), rows, pl=2.0)
    yield _open_past_chain(z, w), Query({"o": "1"})
    yield _open_past_chain(s), Query({"o": "1"}, {"s": "1"})
    yield _open_past_chain(s, a), Query({"o": "1"})


def test_default_levels_match_the_ancestor_oracle():
    from plif import as_lazy

    for net, q in [*_corpus_cases(), *_stub_cases()]:
        want = oracles.ancestor_levels(net, q)
        # a lazy open past counts as unbounded and needs max_steps
        for model in (net,) if net.open_past else (net, as_lazy(net)):
            assert [t.v for t in default_schedule(model, q)] == want
            rows = anytime_sweep(model, q, stop_on_exact=False)
            assert [qb.threshold.v for qb in rows] == want
        capped = oracles.ancestor_levels(net, q, max_steps=2)
        assert [t.v for t in default_schedule(net, q, max_steps=2)] == capped
        rows = anytime_sweep(net, q, max_steps=2, stop_on_exact=False)
        assert [qb.threshold.v for qb in rows] == capped


def _holds_under_stub_priors(net, q, rows, stub="s"):
    """Every row contains P(q) in ``net`` closed with a prior put on the
    truncation stub, for both point priors (where the evidence keeps a
    positive probability) and six random ones."""
    rng = np.random.default_rng(0)
    for p in [0.0, 1.0, *rng.random(6)]:
        prior = dataclasses.replace(net.nodes[stub], cpt=((float(p), 1.0 - float(p)),))
        closed = dataclasses.replace(net, open_past=False, nodes={**net.nodes, stub: prior})
        if oracles.probability(closed, q.evidence) == 0.0:
            continue
        want = oracles.conditional(closed, q.objective, q.evidence)
        for qb in rows:
            assert qb.lower - 1e-12 <= want <= qb.upper + 1e-12, (p, qb)


def test_stub_above_the_critical_level_surfaces_from_the_first_retrieval():
    # e's parent s is a truncation stub above o's level: the first
    # retrieval clamps it, and the schedule goes on below it
    s = NodeSpec("s", ("0", "1"), (), None, pl=4.5)
    e = NodeSpec("e", ("0", "1"), ("s",), ((0.6, 0.4), (0.3, 0.7)), pl=5.0)
    net, q = _open_past_chain(s, e), Query({"o": "1"}, {"e": "1"})
    assert validate(net) == []
    assert oracles.ancestor_levels(net, q) == [3.0, 2.0, 1.0]
    assert [t.v for t in default_schedule(net, q)] == [3.0, 2.0, 1.0]
    first = root_set(net, q, Threshold(3.0))
    assert first.frontier == {"a": net.nodes["a"], "s": s}
    assert first.evidence_plus == {"e": "1"} and first.interior.keys() == {"o", "e"}
    rows = anytime_sweep(net, q)
    assert [qb.threshold.v for qb in rows] == [3.0, 2.0, 1.0]
    assert not any(qb.exactness.is_exact for qb in rows)
    _holds_under_stub_priors(net, q, rows)


def _seeded_open_past(seed):
    """A corpus network and its open past: root i lifted to pl i - 0.5, in
    among the other nodes' levels, and stubbed with probability 0.6."""
    closed = random_network(RandomNetSpec(seed=seed, node_count=3 + seed % 6))
    rng = np.random.default_rng(seed + 50_000)
    nodes = {}
    for i, spec in enumerate(closed.nodes.values()):
        if not spec.parents:
            spec = dataclasses.replace(spec, pl=i - 0.5, cpt=None if rng.random() < 0.6 else spec.cpt)
        nodes[spec.name] = spec
    return closed, make_net(-1.0, True, *nodes.values())


def test_open_past_rows_hold_under_random_priors_on_their_stubs():
    # a stub is a clamp wherever the walk meets it, so every row of a full
    # default sweep holds under any prior put on the stubs, and a row flagged
    # exact equals the truth under each; the truth comes from the numpy joint
    # of the network with such priors, not from plif. Each query is swept
    # again with 80% of the stubs outside it observed: an observed stub's
    # prior cancels, so it may stand in a full-past certificate
    met_above = refused = certified = 0
    for seed in range(300):
        closed, net = _seeded_open_past(seed)
        assert validate(net) == []
        q = random_query(closed, seed + 1000)
        stubs = [s for s in net.nodes.values() if s.is_stub]
        if any(net.nodes[n].is_stub for n in q.objective):
            level = Threshold(min(net.nodes[n].pl for n in q.objective))
            for run in (lambda: anytime_sweep(net, q), lambda: bounds_at(net, q, level)):
                with pytest.raises(OpenPastError, match="objective"):
                    run()
            refused += 1
            continue
        rows = anytime_sweep(net, q, stop_on_exact=False)
        pick = np.random.default_rng(seed + 60_000)
        seen = {s.name: s.states[pick.integers(len(s.states))] for s in stubs if s.name not in q.names and pick.random() < 0.8}
        q_seen = Query(q.objective, {**q.evidence, **seen})
        sweeps = [(q, rows), (q_seen, anytime_sweep(net, q_seen, stop_on_exact=False) if seen else [])]
        rng = np.random.default_rng(seed)
        for _ in range(4):
            priors = {s.name: dataclasses.replace(s, cpt=(tuple(rng.dirichlet(np.ones(len(s.states)))),)) for s in stubs}
            filled = dataclasses.replace(net, nodes={**net.nodes, **priors})
            names, joint = oracles.net_joint(filled)
            for query, swept in sweeps:
                want = oracles.joint_conditional(filled, names, joint, query.objective, query.evidence)
                for qb in swept:
                    assert qb.lower - 1e-9 <= want <= qb.upper + 1e-9, (seed, qb)
                    if qb.exactness.is_exact:
                        assert abs(qb.lower - want) <= 1e-9 and abs(qb.upper - want) <= 1e-9, (seed, qb)
        for _, swept in sweeps:
            assert all(qb.upper - qb.lower < infer.PROB_TOL for qb in swept if qb.exactness.is_exact)
        certified += sum(qb.exactness is Exactness.FULL_PAST for qb in sweeps[1][1])
        parents = {n: s.parents for n, s in net.nodes.items()}
        reached = set(q.evidence).union(*(oracles.reachable(parents, n) for n in q.names))
        met_above += any(net.nodes[n].is_stub and net.nodes[n].pl >= rows[-1].threshold.v for n in reached)
    assert met_above >= 40 and refused >= 90 and certified >= 10, (met_above, refused, certified)


def test_an_observed_stub_stands_in_a_full_past_certificate():
    # s is an evidence stub off every path to o: conditioning on it cancels
    # its prior, so at threshold 1 the row is the chain's own full-past value
    s = NodeSpec("s", ("0", "1"), (), None, pl=1.5)
    net, q = _open_past_chain(s), Query({"o": "1"}, {"s": "1"})
    rows = anytime_sweep(net, q)
    plain = anytime_sweep(_open_past_chain(), Query({"o": "1"}))
    assert [qb.threshold.v for qb in rows] == [qb.threshold.v for qb in plain] == [3.0, 2.0, 1.0]
    assert rows[-1].exactness is plain[-1].exactness is Exactness.FULL_PAST
    assert rows[-1].lower == rows[-1].upper == pytest.approx(plain[-1].lower, abs=1e-15)
    assert rows[-1].lower == pytest.approx(0.5375, abs=1e-12)
    assert exactness_status(root_set(net, q, Threshold(1.0)), 0.0, 1.0) is Exactness.FULL_PAST
    _holds_under_stub_priors(net, q, rows)


def test_sweep_takes_a_schedule_or_max_steps_not_both(chain_net):
    q = Query({"x": "1"}, {"y": "1"})
    with pytest.raises(QueryError, match="max_steps"):
        anytime_sweep(chain_net, q, default_schedule(chain_net, q), max_steps=2)
    with pytest.raises(QueryError, match="max_steps must be at least 1"):
        anytime_sweep(chain_net, q, max_steps=0)
    with pytest.raises(QueryError, match="unbounded model needs max_steps"):
        anytime_sweep(hmm_model(HMM), hmm_query(HMM))


def test_schedule_through_closed_lazy_wrapper_matches_finite(chain_net):
    from plif import as_lazy

    # e is evidence and an ancestor of the objective o: its level counts
    r = NodeSpec("r", ("0", "1"), (), ((0.5, 0.5),), pl=0.0)
    e = NodeSpec("e", ("0", "1"), ("r",), ((0.7, 0.3), (0.2, 0.8)), pl=3.0)
    m = NodeSpec("m", ("0", "1"), ("e",), ((0.6, 0.4), (0.1, 0.9)), pl=4.0)
    o = NodeSpec("o", ("0", "1"), ("m",), ((0.8, 0.2), (0.3, 0.7)), pl=5.0)
    remo, remo_q = make_net(0.0, False, r, e, m, o), Query({"o": "1"}, {"e": "1"})
    cases = [(chain_net, Query({"x": "1"}, {"y": "1"})), (remo, remo_q)]
    for seed in range(500):
        net = random_network(RandomNetSpec(seed=seed, node_count=3 + seed % 10))
        cases.append((net, random_query(net, seed + 1000)))
    for net, q in cases:
        finite = default_schedule(net, q)
        wrapped = default_schedule(as_lazy(net), q)
        assert [t.v for t in wrapped] == [t.v for t in finite]
    assert [t.v for t in default_schedule(remo, remo_q)] == [5.0, 4.0, 3.0, -math.inf]


def _open_past_chain(*extra):
    """r (pl 0, with its prior) -> b (1) -> a (2) -> o (3), open past;
    ``extra`` adds nodes or replaces them by name."""
    r = NodeSpec("r", ("0", "1"), (), ((0.5, 0.5),), pl=0.0)
    b = NodeSpec("b", ("0", "1"), ("r",), ((0.7, 0.3), (0.2, 0.8)), pl=1.0)
    a = NodeSpec("a", ("0", "1"), ("b",), ((0.6, 0.4), (0.1, 0.9)), pl=2.0)
    o = NodeSpec("o", ("0", "1"), ("a",), ((0.8, 0.2), (0.3, 0.7)), pl=3.0)
    return make_net(0.0, True, r, b, a, o, *extra)


def test_schedule_passes_below_a_stub_outside_the_query_closure():
    # the stub z (and its child w) sit off every path back from o, so
    # retrieval never reaches z and the schedule need not stop above it
    z = NodeSpec("z", ("0", "1"), (), None, pl=1.5)
    w = NodeSpec("w", ("0", "1"), ("z",), ((0.5, 0.5), (0.5, 0.5)), pl=2.5)
    net = _open_past_chain(z, w)
    assert validate(net) == []
    q = Query({"o": "1"})
    sched = default_schedule(net, q)
    assert [t.v for t in sched] == [3.0, 2.0, 1.0]
    rows = anytime_sweep(net, q, sched)
    assert len(rows) == 3
    assert rows[-1].exactness is Exactness.FULL_PAST
    closed = dataclasses.replace(_open_past_chain(), open_past=False)
    want = oracles.probability(closed, q.objective)
    assert rows[-1].lower == rows[-1].upper == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("where", ["query_node", "ancestor"])
def test_schedule_passes_a_stub_among_the_query_nodes_and_their_ancestors(where):
    # the stub s is evidence, or a second parent of a; a threshold at or
    # below its pl clamps it like any frontier node, so the schedule runs
    # on to t0 and every row holds under any prior put on s
    s = NodeSpec("s", ("0", "1"), (), None, pl=1.5)
    if where == "query_node":
        net, q = _open_past_chain(s), Query({"o": "1"}, {"s": "1"})
    else:
        rows = ((0.6, 0.4), (0.5, 0.5), (0.1, 0.9), (0.2, 0.8))
        a = NodeSpec("a", ("0", "1"), ("b", "s"), rows, pl=2.0)
        net, q = _open_past_chain(s, a), Query({"o": "1"})
    assert validate(net) == []
    assert [t.v for t in default_schedule(net, q)] == [3.0, 2.0, 1.0]
    rs = root_set(net, q, Threshold(1.0))
    assert rs.frontier.keys() == {"r", "s"} and "s" not in rs.evidence_plus
    rows = anytime_sweep(net, q, default_schedule(net, q))
    assert len(rows) == 3
    _holds_under_stub_priors(net, q, rows)


# --- anytime_sweep ---------------------------------------------------------------


def test_hmm_sweep_matches_filter_oracle():
    lazy = hmm_model(HMM)
    q = hmm_query(HMM)
    sched = default_schedule(lazy, q, max_steps=3)
    rows = anytime_sweep(lazy, q, sched, stop_on_exact=False)
    for depth, qb in enumerate(rows, start=1):
        lo = oracles.hmm_clamp_filter(0.9, 0.8, 0, depth, HMM.window)
        hi = oracles.hmm_clamp_filter(0.9, 0.8, 1, depth, HMM.window)
        assert qb.lower == pytest.approx(lo, abs=1e-9)
        assert qb.upper == pytest.approx(hi, abs=1e-9)


def test_sweep_chain_strictly_tightens():
    net = random_chain(seed=7)
    q = Query({"c3": "1"}, {"c0": "1"})
    rows = anytime_sweep(net, q, default_schedule(net, q))
    assert len(rows) >= 2
    for shallow, deep in zip(rows, rows[1:]):
        assert shallow.lower < deep.lower
        assert deep.upper < shallow.upper


def test_sweep_stops_early_on_exact(chain_net):
    q = Query({"x": "1"}, {"y": "1"})
    rows = anytime_sweep(chain_net, q, default_schedule(chain_net, q))
    assert len(rows) == 3  # stops at pl(t2) where the frontier is the evidence
    assert rows[-1].exactness is Exactness.FRONTIER_SUBSET_OF_EVIDENCE
    full = anytime_sweep(chain_net, q, default_schedule(chain_net, q), stop_on_exact=False)
    assert len(full) == 4


def test_sweep_reuses_lazy_resolutions_incrementally():
    from plif import LazyNetwork

    inner = hmm_model(HMM)
    calls = []

    def counting(name):
        calls.append(name)
        return inner.resolver(name)

    lazy = LazyNetwork(resolver=counting, t0=float("-inf"), open_past=True)
    q = hmm_query(HMM)
    # the walk is the only memo: every node a bounds_at call resolves
    # (the critical level and the query's states included) goes through it
    walk = Walk(lazy, q)
    bounds_at(lazy, q, Threshold(-3.0), walk=walk)
    assert len(calls) == len(walk.specs)
    # so a sweep or a schedule, one walk each, hits the raw resolver once
    # per distinct node, not once per threshold
    for run in (anytime_sweep, default_schedule):
        calls.clear()
        run(lazy, q, max_steps=5)
        assert calls and len(calls) == len(set(calls))


def test_sweep_degenerate_schedule(two_node_net):
    rows = anytime_sweep(two_node_net, Query({"c": "1"}), Schedule((Threshold.full_past(),)))
    assert len(rows) == 1
    assert rows[0].lower == rows[0].upper == pytest.approx(0.3)
    assert rows[0].exactness is Exactness.FULL_PAST


# --- map_decision ----------------------------------------------------------------


def test_map_decision_hmm_decides_at_third_step():
    lazy = hmm_model(HMM)
    q = hmm_query(HMM)
    sched = default_schedule(lazy, q, max_steps=10)
    assert map_decision(lazy, q, sched) == ("1", Threshold(-3.0))


def test_map_decision_deterministic_edge_decides_immediately():
    c = NodeSpec("c", ("0", "1"), (), ((0.5, 0.5),), pl=0.0)
    e = NodeSpec("e", ("0", "1"), ("c",), ((1.0, 0.0), (0.0, 1.0)), pl=1.0)
    net = make_net(0.0, False, c, e)
    q = Query({"e": "1"}, {"c": "1"})
    sched = default_schedule(net, q)
    assert map_decision(net, q, sched) == ("1", sched.thresholds[0])


def test_map_decision_symmetric_chain_is_undecided(symmetric_net):
    q = Query({"o": "1"})
    sched = default_schedule(symmetric_net, q)
    assert map_decision(symmetric_net, q, sched) is None
    final = bounds_at(symmetric_net, q, Threshold.full_past())
    assert final.lower == final.upper == pytest.approx(0.5, abs=1e-12)


def test_map_decision_rejects_nonbinary(collider_net):
    with pytest.raises(QueryError):
        map_decision(
            collider_net,
            Query({"a": "1", "b": "1"}),
            Schedule((Threshold(0.0),)),
        )


# --- convergence ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_sentinel_converges_to_exact(seed):
    net = random_network(RandomNetSpec(seed=seed, node_count=4 + seed % 9))
    query = random_query(net, seed + 4000)
    qb = bounds_at(net, query, Threshold.full_past())
    names, joint = oracles.net_joint(net)
    exact = oracles.joint_conditional(net, names, joint, query.objective, query.evidence)
    assert qb.lower == pytest.approx(exact, abs=1e-9)
    assert qb.upper == pytest.approx(exact, abs=1e-9)
