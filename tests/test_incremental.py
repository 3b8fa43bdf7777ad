"""Validation parity and incremental sweeps.

The first half checks that retrieval enforces the network rules on a
lazy model, and the truncation rule on a finite one, whether it goes
through one ``bounds_at`` call or a sweep that deepens step by step. The
second half checks that every row of an incremental sweep equals a
fresh one-shot ``bounds_at`` at the same threshold, and that the
carried clamp table stays right across wide bands, underflow-scale
windows, forced rescaling and exactly-zero normalizers. The last part
checks that a step's retrieval, the sweep's extended walk, equals a
fresh one; that a walk refuses a threshold not below its last one,
another network or query than its own, and any step once an extension
raised; and that a step which raised before or after its extension
leaves the walk to go on deeper as a fresh one would.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

import oracles
import plif.infer as infer
from conftest import make_net
from plif import (
    ExpansionCapError,
    FactorTooLargeError,
    FrontierTooWideError,
    HmmParams,
    InvalidNetworkError,
    LazyNetwork,
    Network,
    NoStartNodesError,
    NodeSpec,
    OpenPastError,
    PlifError,
    Query,
    QueryError,
    RandomNetSpec,
    Schedule,
    Threshold,
    ThresholdError,
    UnknownNodeError,
    anytime_sweep,
    bounds_at,
    default_schedule,
    hmm_model,
    hmm_query,
    hmm_sweep_experiment,
    random_network,
    root_set,
    validate,
)
from plif.gen import hmm_node_name, random_query
from plif.retrieval import Walk

HMM = HmmParams()
DEEP = Threshold(-3.0)


def _one_shot(net, query, th, **kw):
    return bounds_at(net, query, th, **kw)


def _swept(net, query, th, **kw):
    # reaches th only after two shallower steps of the same sweep
    schedule = Schedule((Threshold(-1.0), Threshold(-2.0), th))
    return list(anytime_sweep(net, query, schedule, stop_on_exact=False, **kw))


RUNS = pytest.mark.parametrize("run", [_one_shot, _swept], ids=["bounds_at", "anytime_sweep"])


def _tweaked(params=HMM, t0=float("-inf"), **changes):
    """The paper's chain with some node specs replaced field by field."""
    inner = hmm_model(params)

    def resolve(name):
        spec = inner.resolve(name)
        return dataclasses.replace(spec, **changes[name]) if name in changes else spec

    return LazyNetwork(resolver=resolve, t0=t0, open_past=True)


def _rules(exc_info) -> set[str]:
    return {v.rule for v in exc_info.value.violations}


# --- the network rules hold on every edge the walk crosses -----------------------


@RUNS
def test_lazy_edge_breaking_temporal_precedence_is_rejected(run):
    # x_t-1 sits at pl -3; moving its parent x_t-2 up to -3 breaks strict precedence
    lazy = _tweaked(**{"x_t-2": {"pl": -3.0}})
    with pytest.raises(InvalidNetworkError) as exc:
        run(lazy, hmm_query(HMM), DEEP)
    assert "temporal-precedence" in _rules(exc)


@RUNS
def test_lazy_cpt_rows_not_matching_parents_are_rejected(run):
    rows = ((0.9, 0.1), (0.1, 0.9), (0.5, 0.5))
    lazy = _tweaked(**{"x_t-1": {"cpt": rows}})
    with pytest.raises(InvalidNetworkError) as exc:
        run(lazy, hmm_query(HMM), DEEP)
    assert "cpt-shape" in _rules(exc)


_THREE = ((0.8, 0.1, 0.1), (0.1, 0.8, 0.1))


@RUNS
@pytest.mark.parametrize(
    "change, rule, words",
    [
        ({"parents": ("x_t-2", "x_t-2"), "cpt": ((0.9, 0.1), (0.1, 0.9)) * 2}, "duplicate-parent", "repeats a parent name"),
        ({"parents": ("x_t-2", "x_t-3", "x_t-2"), "cpt": ((0.9, 0.1), (0.1, 0.9)) * 4}, "duplicate-parent", "repeats a parent name"),
        ({"states": ("0", "0")}, "duplicate-state", "repeats a state label"),
        ({"states": ("0", "1", "0"), "cpt": _THREE}, "duplicate-state", "repeats a state label"),
        ({"states": ("0", "0", "1"), "cpt": _THREE}, "duplicate-state", "repeats a state label"),
        ({"pl": float("nan")}, "pl-not-finite", "has pl=nan"),
    ],
    ids=["duplicate-parent", "three-parents-one-repeat", "duplicate-state", "states-010", "states-001", "pl-not-finite"],
)
def test_lazy_node_breaking_a_rule_of_its_own_is_rejected(run, change, rule, words):
    # x_t-1 (pl -3) is interior at the deepest threshold; a sweep meets it first on the frontier
    lazy = _tweaked(**{"x_t-1": change})
    with pytest.raises(InvalidNetworkError) as exc:
        run(lazy, hmm_query(HMM), DEEP)
    assert [(v.rule, v.message) for v in exc.value.violations] == [(rule, f"node 'x_t-1' {words}")]


@RUNS
@pytest.mark.parametrize("v", [-3.0, -2.5], ids=["interior", "frontier"])
def test_lazy_open_past_root_before_t0_is_rejected(run, v):
    # x_t-1 (pl -3) becomes a genuine root, but the past only starts at
    # -2.75; the window of two keeps every observation after t0. The walk
    # meets x_t-1 as an interior node at -3 and as a frontier node at -2.5
    p = HmmParams(window=2)
    lazy = _tweaked(p, t0=-2.75, **{"x_t-1": {"parents": (), "cpt": ((0.5, 0.5),)}})
    with pytest.raises(InvalidNetworkError) as exc:
        run(lazy, hmm_query(p), Threshold(v))
    assert "root-pl" in _rules(exc)


@RUNS
def test_lazy_expansion_cap_is_enforced(run, monkeypatch):
    monkeypatch.setattr("plif.retrieval.MAX_NODES", 5)
    with pytest.raises(ExpansionCapError):
        run(hmm_model(HMM), hmm_query(HMM), DEEP)


@RUNS
def test_interior_truncation_stub_is_clamped(run):
    # an open-past network whose node at pl -2 lost its prior in truncation:
    # below the threshold or not, s is a clamp, so the bracket runs over
    # P(o=1 | s) = 0.55 and 0.8 and holds under any prior put on s
    stub = NodeSpec("s", ("0", "1"), (), None, pl=-2.0)
    mid = NodeSpec("m", ("0", "1"), ("s",), ((0.7, 0.3), (0.2, 0.8)), pl=-1.5)
    top = NodeSpec("o", ("0", "1"), ("m",), ((0.6, 0.4), (0.1, 0.9)), pl=-1.0)
    net = make_net(-5.0, True, stub, mid, top)
    out = run(net, Query({"o": "1"}), DEEP)
    qb = out[-1] if run is _swept else out
    assert (qb.lower, qb.upper) == pytest.approx((0.55, 0.8), abs=1e-12)
    assert (qb.exactness, qb.frontier_size, qb.interior_size) == (infer.Exactness.NOT_EXACT, 1, 2)
    rng = random.Random(0)
    for p in [0.0, 1.0] + [rng.random() for _ in range(6)]:
        closed = make_net(-2.0, False, dataclasses.replace(stub, cpt=((p, 1.0 - p),)), mid, top)
        assert qb.lower - 1e-12 <= oracles.conditional(closed, {"o": "1"}, {}) <= qb.upper + 1e-12


@pytest.mark.parametrize("v", [-1.5, -2.0, -3.0, -np.inf])
def test_closed_lazy_past_refuses_a_stub_wherever_the_walk_meets_it(v):
    # a closed past promises a prior on every root, so a resolver that
    # yields the stub s breaks the network's rules: a threshold that does
    # not reach s answers, and every one that does (the full past
    # included) reports cpt-missing, as validate does
    stub = NodeSpec("s", ("0", "1"), (), None, pl=-2.0)
    mid = NodeSpec("m", ("0", "1"), ("s",), ((0.7, 0.3), (0.2, 0.8)), pl=-1.5)
    top = NodeSpec("o", ("0", "1"), ("m",), ((0.6, 0.4), (0.1, 0.9)), pl=-1.0)
    finite = make_net(-2.0, False, stub, mid, top)
    assert {x.rule for x in validate(finite)} == {"cpt-missing"}
    lazy = LazyNetwork(resolver=finite.spec, t0=-2.0, open_past=False)
    q = Query({"o": "1"})
    assert bounds_at(lazy, q, Threshold(-1.0)).frontier_size == 1
    with pytest.raises(InvalidNetworkError) as exc:
        bounds_at(lazy, q, Threshold(v))
    assert _rules(exc) == {"cpt-missing"}
    with pytest.raises(InvalidNetworkError) as exc:
        list(anytime_sweep(lazy, q, Schedule((Threshold(-1.0), Threshold(v))), stop_on_exact=False))
    assert _rules(exc) == {"cpt-missing"}
    with pytest.raises(InvalidNetworkError) as exc:
        list(anytime_sweep(lazy, q, stop_on_exact=False))
    assert _rules(exc) == {"cpt-missing"}
    with pytest.raises(InvalidNetworkError) as exc:
        Walk(lazy, Query({"o": "1"}, {"s": "1"}))
    assert _rules(exc) == {"cpt-missing"}


@RUNS
@pytest.mark.parametrize(
    "t0, rule", [(0.0, "root-pl"), (-np.inf, "t0-not-finite")], ids=["root-off-t0", "t0-minus-inf"]
)
def test_closed_lazy_past_obeys_the_rules_a_document_does(run, t0, rule):
    # the walk checks every node by the rules validate applies: a closed
    # past has a finite t0, and each of its genuine roots sits at t0, so
    # the root r at pl 5 breaks the network under t0 = 0 and under -inf
    root = NodeSpec("r", ("0", "1"), (), ((0.3, 0.7),), pl=5.0)
    top = NodeSpec("o", ("0", "1"), ("r",), ((0.6, 0.4), (0.1, 0.9)), pl=6.0)
    finite = make_net(t0, False, root, top)
    expected = {(x.rule, x.message) for x in validate(finite)}
    assert rule in {r for r, _ in expected}
    lazy = LazyNetwork(resolver=finite.spec, t0=t0, open_past=False)
    with pytest.raises(InvalidNetworkError) as exc:
        run(lazy, Query({"o": "1"}), Threshold.full_past())
    assert rule in _rules(exc)
    assert {(x.rule, x.message) for x in exc.value.violations} <= expected


def _mutated(seed: int) -> Network:
    """A small seeded random network with up to two random faults (a node
    moved, a CPT row dropped or bent, a parent added or dropped, a prior
    cut to a stub) under a random t0 and past."""
    rng = random.Random(seed)
    net = random_network(RandomNetSpec(seed=seed, node_count=2 + seed % 5, state_count=2))
    nodes = dict(net.nodes)
    names = list(nodes)
    for _ in range(rng.randint(0, 2)):
        spec = nodes[rng.choice(names)]
        kind = rng.randrange(5)
        if kind == 0:
            spec = dataclasses.replace(spec, pl=rng.choice((-2.0, -1.0, 0.0, 0.5, spec.pl + 1.0, float("nan"))))
        elif kind == 1 and spec.cpt is not None:
            bent = ((0.5, 0.6),) if rng.random() < 0.5 else ()
            spec = dataclasses.replace(spec, cpt=spec.cpt[1:] + bent)
        elif kind == 2:
            spec = dataclasses.replace(spec, parents=spec.parents + (rng.choice(names + ["ghost"]),))
        elif kind == 3 and spec.parents:
            spec = dataclasses.replace(spec, parents=spec.parents[1:])
        else:
            spec = dataclasses.replace(spec, parents=(), cpt=None)
        nodes[spec.name] = spec
    return Network(rng.choice((0.0, -1.0, -math.inf)), rng.random() < 0.5, nodes)


def test_a_walk_refuses_exactly_the_networks_validate_refuses():
    # validate and the walk share one rule set: a full-past walk that
    # reaches every node refuses a mutated network exactly when validate
    # does, and a walk stepping down its own levels, cutting nodes on the
    # way, refuses none that validate passes
    refused = 0
    for seed in range(1200):
        net = _mutated(seed)
        lazy = LazyNetwork(resolver=net.spec, t0=net.t0, open_past=net.open_past)
        *rest, name = sorted(net.nodes)
        every = Query({name: net.nodes[name].states[0]}, {n: net.nodes[n].states[0] for n in rest})
        try:
            root_set(lazy, every, Threshold.full_past())
        except (InvalidNetworkError, UnknownNodeError):
            refused += 1
            assert validate(net), seed
        except OpenPastError:  # a stub objective: the walk raises before it reaches the rest
            continue
        else:
            assert validate(net) == [], seed
        try:
            walk = Walk(lazy, Query({name: net.nodes[name].states[0]}))
            while walk.level > -math.inf:
                walk.extend(walk.next_level())
        except InvalidNetworkError:
            assert validate(net), seed
        except PlifError:
            pass
    assert refused > 300


# --- incremental rows equal one-shot rows ----------------------------------------


def _assert_same_rows(rows, fresh):
    assert len(rows) == len(fresh)
    for qb, ref in zip(rows, fresh):
        assert qb.threshold == ref.threshold
        assert qb.lower == pytest.approx(ref.lower, abs=1e-12)
        assert qb.upper == pytest.approx(ref.upper, abs=1e-12)
        assert qb.exactness is ref.exactness
        assert qb.frontier_size == ref.frontier_size
        assert qb.interior_size == ref.interior_size


def test_incremental_sweep_matches_one_shot_on_long_chain():
    p = HmmParams(window=120)
    lazy, q = hmm_model(p), hmm_query(p)
    schedule = default_schedule(lazy, q, max_steps=120)
    rows = list(anytime_sweep(lazy, q, schedule, stop_on_exact=False))
    _assert_same_rows(rows, [bounds_at(hmm_model(p), q, th) for th in schedule])


def test_incremental_sweep_mixes_narrow_and_wide_bands_at_w2500():
    window = 2500
    p = HmmParams(window=window)
    depths = [*range(1, 11), *range(250, window + 1, 250)]
    schedule = Schedule(tuple(Threshold(-float(d)) for d in depths))
    rows = anytime_sweep(hmm_model(p), hmm_query(p), schedule, stop_on_exact=False)
    by_depth = dict(zip(depths, rows))
    for depth in (1, 10, 1250, 2500):
        lo = oracles.hmm_clamp_filter(0.9, 0.8, 0, depth, window)
        hi = oracles.hmm_clamp_filter(0.9, 0.8, 1, depth, window)
        assert by_depth[depth].lower == pytest.approx(lo, abs=1e-9)
        assert by_depth[depth].upper == pytest.approx(hi, abs=1e-9)


def test_incremental_sweep_skips_zero_normalizer_across_the_gate():
    # the gated chain of test_bounds_exact_zero_normalizer_survives_scaling:
    # at threshold -2500 the clamp x_t-2499 = 0 has an exactly zero
    # normalizer, and the other clamp's normalizer underflows unscaled
    window = 2500
    p = HmmParams(window=window)
    gate = {
        hmm_node_name("x", 2 - window): {"cpt": ((1.0, 0.0), (0.1, 0.9))},
        hmm_node_name("y", 2 - window): {"cpt": ((1.0, 0.0), (0.2, 0.8))},
    }
    q = hmm_query(p)
    depths = [1, 2, 1000, 2497, 2498, 2499, 2500]
    schedule = Schedule(tuple(Threshold(-float(d)) for d in depths))
    rows = list(anytime_sweep(_tweaked(p, **gate), q, schedule, stop_on_exact=False))
    _assert_same_rows(rows, [bounds_at(_tweaked(p, **gate), q, th) for th in schedule])
    want = oracles.hmm_clamp_filter(0.9, 0.8, 1, window - 1, window)
    assert rows[-1].lower == rows[-1].upper == pytest.approx(want, abs=1e-9)


def test_incremental_sweep_keeps_per_clamp_scales_of_a_surviving_frontier_node():
    # every observation also depends on a root switch s far in the past:
    # with s = 1 it shows 1 with probability 0.05 whatever the hidden
    # state. s stays on the frontier through the whole sweep, while the
    # evidence masses of its two clamps drift apart by a factor of about 14
    # per step, far past the range of a double
    window = 1000
    p = HmmParams(window=window)
    inner = hmm_model(p)
    switched = ((0.8, 0.2), (0.95, 0.05), (0.2, 0.8), (0.95, 0.05))

    def resolve(name):
        if name == "s":
            return NodeSpec("s", ("0", "1"), (), ((0.5, 0.5),), pl=-1e6)
        spec = inner.resolve(name)
        if name.startswith("y"):
            return dataclasses.replace(spec, parents=(*spec.parents, "s"), cpt=switched)
        return spec

    q = hmm_query(p)
    depths = [1, 2, 3, 400, 401, 1000]
    schedule = Schedule(tuple(Threshold(-float(d)) for d in depths))
    rows = list(anytime_sweep(LazyNetwork(resolve, float("-inf")), q, schedule, stop_on_exact=False))
    for depth, qb in zip(depths, rows):
        ends = [
            oracles.hmm_clamp_filter(0.9, emit, clamp, depth, window)
            for emit in (0.8, 0.5)  # s = 1 leaves the hidden state unobserved
            for clamp in (0, 1)
        ]
        assert qb.lower == pytest.approx(min(ends), abs=1e-9)
        assert qb.upper == pytest.approx(max(ends), abs=1e-9)
    fresh = [bounds_at(LazyNetwork(resolve, float("-inf")), q, th) for th in schedule]
    _assert_same_rows(rows, fresh)


def _switch_chain(with_z):
    """The window-1000 chain whose observations all depend on a switch s
    (pl -5000), as above. With ``with_z``, s has a parent z (pl -7000,
    prior (0.5, 0.5)): z = 0 forces s = 1, z = 1 leaves it at (0.5, 0.5),
    and 1000 observed children w_j of z (pl about -6999) make z = 0 about
    (0.95 / 0.05)^1000 times likelier. Without it, s has the prior (0, 1).
    Either way s = 1 is all but certain, every y then shows 1 with
    probability 0.05 whatever the hidden state, and the answer is 0.5 to
    within e^-172; but inside one factor the mass of s = 0 beats that of
    s = 1 by a factor of about 14 per observation, far past the range of
    a double."""
    p = HmmParams(window=1000)
    inner = hmm_model(p)
    switched = ((0.8, 0.2), (0.95, 0.05), (0.2, 0.8), (0.95, 0.05))
    ws = {f"w{j}": -6999.0 + j * 1e-4 for j in range(1000)} if with_z else {}

    def resolve(name):
        if name == "z":
            return NodeSpec("z", ("0", "1"), (), ((0.5, 0.5),), pl=-7000.0)
        if name == "s" and with_z:
            return NodeSpec("s", ("0", "1"), ("z",), ((0.0, 1.0), (0.5, 0.5)), pl=-5000.0)
        if name == "s":
            return NodeSpec("s", ("0", "1"), (), ((0.0, 1.0),), pl=-5000.0)
        if name in ws:
            return NodeSpec(name, ("0", "1"), ("z",), ((0.05, 0.95), (0.95, 0.05)), pl=ws[name])
        spec = inner.resolve(name)
        if name.startswith("y"):
            return dataclasses.replace(spec, parents=(*spec.parents, "s"), cpt=switched)
        return spec

    q = hmm_query(p)
    return LazyNetwork(resolve, float("-inf")), Query(q.objective, {**q.evidence, **dict.fromkeys(ws, "1")})


def test_switch_chain_brackets_the_truth_once_the_switch_is_interior():
    net, q = _switch_chain(with_z=True)
    # at -4000 the switch is a frontier clamp: s = 0 is the plain chain
    # and s = 1 leaves the hidden state unobserved
    qb = bounds_at(net, q, Threshold(-4000.0))
    ends = [oracles.hmm_clamp_filter(0.9, emit, c, 4000, 1000) for emit in (0.8, 0.5) for c in (0, 1)]
    assert qb.lower == pytest.approx(min(ends), abs=1e-9)
    assert qb.upper == pytest.approx(max(ends), abs=1e-9)
    assert qb.exactness is infer.Exactness.NOT_EXACT
    # at -6000 z is the clamp and the w_j lie below the threshold: z = 0
    # gives 0.5, and the bracket must keep it
    qb = bounds_at(net, q, Threshold(-6000.0))
    assert qb.lower - 1e-9 <= 0.5 <= qb.upper + 1e-9
    assert not qb.exactness.is_exact


def test_switch_chain_with_a_sure_switch_is_not_zero_evidence():
    # the evidence has probability about 0.05^1000, about e^-3000
    net, q = _switch_chain(with_z=False)
    qb = bounds_at(net, q, Threshold(-6000.0))
    assert qb.lower == pytest.approx(0.5, abs=1e-9)
    assert qb.upper == pytest.approx(0.5, abs=1e-9)


@RUNS
def test_bounds_keep_a_clamp_whose_many_small_factors_underflow_together(run):
    # a frontier node f with 200 interior children, each with an observed
    # child: every child leaves one factor over f alone, about 0.01 at f = 0,
    # and their plain product there (1e-400) is below the range of a double.
    # o depends on the evidence only through f, so the bounds are
    # P(o | f = 0) and P(o | f = 1); f is a truncation stub, whose prior is
    # unknown, so the bracket cannot close
    kids = []
    for i in range(200):
        kids.append(NodeSpec(f"c{i}", ("0", "1"), ("f",), ((1.0, 0.0), (0.0, 1.0)), pl=-3.0))
        kids.append(NodeSpec(f"e{i}", ("0", "1"), (f"c{i}",), ((0.99, 0.01), (0.1, 0.9)), pl=-2.5))
    f = NodeSpec("f", ("0", "1"), (), None, pl=-10.0)
    o = NodeSpec("o", ("0", "1"), ("f",), ((0.8, 0.2), (0.3, 0.7)), pl=0.0)
    net = make_net(-20.0, True, f, o, *kids)
    q = Query({"o": "1"}, {f"e{i}": "1" for i in range(200)})
    out = run(net, q, Threshold(-5.0))
    qb = out[-1] if run is _swept else out
    assert qb.lower == pytest.approx(0.2, abs=1e-12)
    assert qb.upper == pytest.approx(0.7, abs=1e-12)
    assert not qb.exactness.is_exact


@pytest.mark.parametrize("children", [29, 30, 31])
def test_bucket_at_the_einsum_operand_limit(children, monkeypatch):
    # h's bucket holds its own CPT, o's and one factor per observed child:
    # 31, 32 and 33 factors. numpy 1.x einsum refuses 32 operands or more
    # (numpy 2 refuses 64); einsum is held to that limit here, so a bucket
    # past it must be redone in logs on any numpy
    einsum = np.einsum

    def numpy1_einsum(*operands_and_sublists):
        if len(operands_and_sublists) // 2 >= 32:
            raise ValueError("too many operands")
        return einsum(*operands_and_sublists)

    monkeypatch.setattr(np, "einsum", numpy1_einsum)
    # f is a truncation stub, so the bracket runs over its clamps
    f = NodeSpec("f", ("0", "1"), (), None, pl=-10.0)
    h = NodeSpec("h", ("0", "1"), ("f",), ((0.9, 0.1), (0.2, 0.8)), pl=-3.0)
    o = NodeSpec("o", ("0", "1"), ("h",), ((0.8, 0.2), (0.3, 0.7)), pl=0.0)
    kids = [NodeSpec(f"e{i}", ("0", "1"), ("h",), ((0.3, 0.7), (0.6, 0.4)), pl=-2.0) for i in range(children)]
    net = make_net(-20.0, True, f, h, o, *kids)
    q = Query({"o": "1"}, {f"e{i}": "1" for i in range(children)})
    qb = bounds_at(net, q, Threshold(-5.0))
    # P(o = 1 | f, e) through h's posterior, at each clamp of f
    ends = []
    for row in h.cpt:
        post = [row[s] * kids[0].cpt[s][1] ** children for s in (0, 1)]
        ends.append(sum(p * o.cpt[s][1] for s, p in enumerate(post)) / sum(post))
    assert qb.lower == pytest.approx(min(ends), abs=1e-12)
    assert qb.upper == pytest.approx(max(ends), abs=1e-12)


@pytest.mark.parametrize("cells", [infer._SMALL, 2 * infer._SMALL])
@pytest.mark.parametrize("case", ["unscaled", "scaled", "exact_zero", "needs_log"])
def test_bucket_minimum_on_both_sides_of_the_small_table_size(cells, case):
    # a product of at most _SMALL cells reads its minimum and peak as Python
    # floats, a larger one through numpy's reductions; both must decide alike.
    # The product is u (cells / 2 states) times v (2 states), nothing summed
    u = np.linspace(0.25, 0.5, cells // 2)
    v = np.array([0.5, 0.25])
    if case == "scaled":  # every cell below _TINY, none below _FLOOR
        u, v = u * 2.0**-40, v * 2.0**-30
    elif case == "exact_zero":  # zero cells whose support is zero too
        u[-1] = 0.0
    elif case == "needs_log":  # one cell of 2^-1000: below _FLOOR, yet not zero
        u[-1], v[0] = 2.0**-500, 2.0**-500
    want = np.outer(u, v)
    assert want.size == cells
    group = [(("u",), u), (("v",), v)]
    if case == "needs_log":
        with pytest.raises(infer._NeedsLog):
            infer._bucket(group, None, ("u", "v"), False)
        return
    (axes, table), scale = infer._bucket(group, None, ("u", "v"), False)
    assert axes == ("u", "v")
    if case == "scaled":
        peak = want.max()
        assert want.min() > infer._FLOOR and peak < infer._TINY
        assert scale == math.log(peak)
        np.testing.assert_array_equal(table, want / peak)
    else:
        assert scale == 0.0
        np.testing.assert_array_equal(table, want)


@pytest.mark.parametrize("seed", range(30))
def test_bucket_output_axes_are_the_other_axes_in_first_seen_order(seed):
    # the loop that numbers a group's axes for einsum also lists the output
    # axes; they must be every axis but h in the order first seen, or keep
    # when nothing is summed out
    rng = np.random.default_rng(seed)
    sizes = {a: int(rng.integers(1, 4)) for a in "abcdef"}
    group = []
    for _ in range(int(rng.integers(1, 5))):
        axes = tuple(str(a) for a in rng.permutation(list(sizes))[: int(rng.integers(1, 4))])
        group.append((axes, rng.uniform(0.5, 1.0, [sizes[a] for a in axes])))
    seen = tuple(dict.fromkeys(a for axes, _ in group for a in axes))
    h = None if seed % 3 == 0 else seen[int(rng.integers(len(seen)))]
    keep = tuple(rng.permutation(seen).tolist()) if h is None else ()
    want = keep if h is None else tuple(a for a in seen if a != h)
    (axes, table), scale = infer._bucket(group, h, keep, False)
    assert axes == want and scale == 0.0
    letters = {a: chr(ord("a") + i) for i, a in enumerate(seen)}
    spec = ",".join("".join(letters[a] for a in ax) for ax, _ in group) + "->" + "".join(letters[a] for a in want)
    np.testing.assert_allclose(table, np.einsum(spec, *(t for _, t in group)), rtol=1e-12)


def _with_zeros(net, rng):
    """``net`` with about a third of its CPT rows given one zero entry."""
    nodes = {}
    for name, spec in net.nodes.items():
        rows = []
        for row in spec.cpt:
            if rng.random() < 0.3:
                row = list(row)
                row[rng.randrange(len(row))] = 0.0
                row = tuple(x / sum(row) for x in row)
            rows.append(row)
        nodes[name] = dataclasses.replace(spec, cpt=tuple(rows))
    return Network(net.t0, net.open_past, nodes)


@pytest.mark.parametrize(
    "seed, log",
    [pytest.param(seed, log, id=f"log-{seed}" if log else str(seed)) for log in (False, True) for seed in range(100)],
)
def test_incremental_sweep_with_rescaling_at_every_step(seed, log, monkeypatch):
    # random networks never get near underflow, so force the rescaling
    # (and with it the carried log-scales) at every elimination: with
    # _TINY = 1 every bucket whose peak is below 1 is divided by it, and
    # every table is normalized per clamp. With ``log``, _FLOOR = 2 also
    # sends every contraction that multiplies factors to the log path,
    # checked against the linear one. Zero CPT entries add exactly-zero
    # normalizers to carry
    net = random_network(RandomNetSpec(seed=seed, node_count=3 + seed % 10, state_count=2 + seed % 2))
    if seed % 2:
        net = _with_zeros(net, random.Random(seed))
    q = random_query(net, seed + 7)
    schedule = default_schedule(net, q)
    try:
        fused = list(anytime_sweep(net, q, schedule, stop_on_exact=False))
    except infer.ZeroEvidenceError:
        fused = None
    monkeypatch.setattr(infer, "_TINY", 1.0)
    if log:
        monkeypatch.setattr(infer, "_FLOOR", 2.0)
    try:
        fresh = [bounds_at(net, q, th) for th in schedule]
    except infer.ZeroEvidenceError:
        assert fused is None
        with pytest.raises(infer.ZeroEvidenceError):
            list(anytime_sweep(net, q, schedule, stop_on_exact=False))
        return
    rows = list(anytime_sweep(net, q, schedule, stop_on_exact=False))
    _assert_same_rows(rows, fresh)
    assert fused is not None
    _assert_same_rows(rows, fused)
    names, joint = oracles.net_joint(net)
    want = oracles.joint_conditional(net, names, joint, q.objective, q.evidence)
    for qb in rows:
        assert qb.lower - 1e-12 <= want <= qb.upper + 1e-12


# --- a step's retrieval is the sweep's walk; a stale or broken walk is refused -----


def _assert_same_retrieval(a, b):
    # what a walk reads as, not what it resolved on the way (specs, pending)
    assert a.interior == b.interior  # names to specs
    assert a.frontier == b.frontier  # names to stubs
    assert a.evidence_plus == b.evidence_plus
    assert a.evidence_in_frontier == b.evidence_in_frontier
    assert a.evidence_minus == b.evidence_minus
    assert a.net.t0 == b.net.t0


def _assert_shared_retrievals_match_fresh(net, q, schedule):
    walk = Walk(net, q)
    for th in schedule:
        bounds_at(net, q, th, walk=walk)
        _assert_same_retrieval(walk, root_set(net, q, th))


def test_shared_retrieval_matches_fresh_on_long_chain():
    p = HmmParams(window=120)
    lazy, q = hmm_model(p), hmm_query(p)
    _assert_shared_retrievals_match_fresh(lazy, q, default_schedule(lazy, q, max_steps=120))


@pytest.mark.parametrize("seed", range(0, 500, 5))
def test_shared_retrieval_matches_fresh_on_corpus_networks(seed):
    # the recipe of the acceptance corpus, swept over its full schedule
    net = random_network(RandomNetSpec(seed=seed, node_count=3 + seed % 10, state_count=2 + seed % 2))
    q = random_query(net, seed + 1_000_000)
    _assert_shared_retrievals_match_fresh(net, q, default_schedule(net, q))


def test_retrieval_from_an_extended_walk_reads_as_the_deeper_one():
    lazy, q = hmm_model(HMM), hmm_query(HMM)
    walk = Walk(lazy, q)
    shallow = root_set(lazy, q, Threshold(-1.0), walk=walk)
    own = root_set(lazy, q, Threshold(-1.0))
    _assert_same_retrieval(shallow, own)
    # the band lists the interior CPTs the walk's clamp table lacks
    assert shallow.band == list(own.interior)
    infer.frontier_clamp_table(walk)
    assert walk.band == []
    deep = root_set(lazy, q, Threshold(-3.0), walk=walk)
    assert shallow is deep is walk
    _assert_same_retrieval(shallow, root_set(lazy, q, Threshold(-3.0)))
    assert shallow.interior.keys() != own.interior.keys()
    assert set(deep.band) == deep.interior.keys() - own.interior.keys()
    # a retrieval without a walk owns its walk and never changes
    _assert_same_retrieval(own, root_set(lazy, q, Threshold(-1.0)))


def test_root_set_refuses_a_threshold_not_below_the_walks_last():
    # a shallower retrieval from a deeper walk would read as the deeper one
    lazy, q = hmm_model(HMM), hmm_query(HMM)
    walk = root_set(lazy, q, DEEP)
    for shallower in (Threshold(-1.0), DEEP):
        with pytest.raises(QueryError, match="strictly decreasing"):
            root_set(lazy, q, shallower, walk=walk)
    _assert_same_retrieval(walk, root_set(lazy, q, DEEP))


def test_root_set_refuses_a_walk_whose_extension_raised():
    # a half-extended walk would read as a retrieval missing most of its interior
    lazy, q = hmm_model(HMM), hmm_query(HMM)
    walk = Walk(lazy, q)
    with pytest.MonkeyPatch.context() as m:
        m.setattr("plif.retrieval.MAX_NODES", len(walk.specs) + 3)
        with pytest.raises(ExpansionCapError):
            root_set(lazy, q, Threshold(-8.0), walk=walk)
    with pytest.raises(QueryError, match="start a new one"):
        root_set(lazy, q, Threshold(-9.0), walk=walk)


def test_no_start_nodes_leaves_the_walk_usable():
    lazy, q = hmm_model(HMM), hmm_query(HMM)
    walk = Walk(lazy, q)
    with pytest.raises(NoStartNodesError):
        root_set(lazy, q, Threshold(0.0), walk=walk)
    _assert_same_retrieval(root_set(lazy, q, Threshold(-1.0), walk=walk), root_set(lazy, q, Threshold(-1.0)))


def test_frontier_clamp_table_twice_reads_the_same_table():
    # the second call has an empty band, so it contracts nothing into the table
    lazy, q = hmm_model(HMM), hmm_query(HMM)
    walk = root_set(lazy, q, DEEP)
    scan, num, den = infer.frontier_clamp_table(walk)
    again = infer.frontier_clamp_table(walk)
    assert again[0] == scan
    np.testing.assert_array_equal(again[1], num)
    np.testing.assert_array_equal(again[2], den)


def _assert_fresh_state_sweeps(walk, thresholds, **kw):
    net, q = walk.net, walk.query
    rows = [bounds_at(net, q, th, walk=walk, **kw) for th in thresholds]
    _assert_same_rows(rows, [bounds_at(net, q, th, **kw) for th in thresholds])


def test_state_refuses_a_step_after_the_expansion_cap_raised_mid_walk(monkeypatch):
    p = HmmParams(window=6)
    lazy, q = hmm_model(p), hmm_query(p)
    cap = len(root_set(lazy, q, Threshold(-1.0)).specs) + 2
    walk = Walk(lazy, q)
    with monkeypatch.context() as m:
        m.setattr("plif.retrieval.MAX_NODES", cap)
        bounds_at(lazy, q, Threshold(-1.0), walk=walk)
        with pytest.raises(ExpansionCapError):
            bounds_at(lazy, q, Threshold(-4.0), walk=walk)
        with pytest.raises(QueryError, match="start a new one"):
            bounds_at(lazy, q, Threshold(-4.0), walk=walk)
    _assert_fresh_state_sweeps(Walk(lazy, q), (Threshold(-1.0), Threshold(-4.0)))


def test_walk_goes_on_deeper_after_the_frontier_cap_raised_past_the_walk(monkeypatch):
    # two root switches on x_t put three binary nodes on the frontier at -2
    switches = {n: NodeSpec(n, ("0", "1"), (), ((0.5, 0.5),), pl=-100.0) for n in ("s1", "s2")}
    inner = hmm_model(HMM)

    def resolve(name):
        if name in switches:
            return switches[name]
        spec = inner.resolve(name)
        if name == "x_t":
            rows = ((0.9, 0.1),) * 4 + ((0.1, 0.9),) * 4
            return dataclasses.replace(spec, parents=("x_t-1", "s1", "s2"), cpt=rows)
        return spec

    lazy, q = LazyNetwork(resolve, float("-inf")), hmm_query(HMM)
    walk = Walk(lazy, q)
    monkeypatch.setattr(infer, "MAX_CLAMPS", 4)
    bounds_at(lazy, q, Threshold(-1.0), walk=walk)
    with pytest.raises(FrontierTooWideError):
        bounds_at(lazy, q, Threshold(-2.0), walk=walk)
    # the walk reached -2 and its band keeps the CPTs its table lacks
    monkeypatch.setattr(infer, "MAX_CLAMPS", 8)
    _assert_fresh_state_sweeps(walk, (DEEP,))
    _assert_fresh_state_sweeps(Walk(lazy, q), (Threshold(-1.0), Threshold(-2.0)))


def test_walk_goes_on_after_a_first_step_above_the_critical_level():
    lazy, q = hmm_model(HMM), hmm_query(HMM)
    walk = Walk(lazy, q)
    with pytest.raises(ThresholdError):
        bounds_at(lazy, q, Threshold(0.0), walk=walk)
    _assert_fresh_state_sweeps(walk, (Threshold(-1.0), Threshold(-2.0)))


def test_walk_goes_on_deeper_after_the_cell_cap_raised(monkeypatch):
    lazy, q = hmm_model(HMM), hmm_query(HMM)
    walk = Walk(lazy, q)
    bounds_at(lazy, q, Threshold(-1.0), walk=walk)
    with monkeypatch.context() as m:
        m.setattr(infer, "MAX_JOINT_CELLS", 1)
        with pytest.raises(FactorTooLargeError):
            bounds_at(lazy, q, Threshold(-2.0), walk=walk)
    _assert_fresh_state_sweeps(walk, (DEEP, Threshold(-4.0)))


@pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
def test_walk_goes_on_deeper_after_zero_evidence_raised(monkeypatch, log):
    # e = 1 is impossible whatever b is, so every clamp of every threshold
    # has a zero normalizer; the carried table is all zero and every
    # log-scale -inf, and each deeper step must say so again
    binary = ("0", "1")
    net = make_net(
        0.0,
        False,
        NodeSpec("r", binary, (), ((0.4, 0.6),), 0.0),
        NodeSpec("a", binary, ("r",), ((0.7, 0.3), (0.2, 0.8)), 1.0),
        NodeSpec("b", binary, ("a",), ((0.6, 0.4), (0.1, 0.9)), 2.0),
        NodeSpec("e", binary, ("b",), ((1.0, 0.0), (1.0, 0.0)), 3.0),
    )
    q = Query({"b": "1"}, {"e": "1"})
    if log:
        monkeypatch.setattr(infer, "_FLOOR", 2.0)  # every product goes to the log path
    walk = Walk(net, q)
    for th in (Threshold(2.0), Threshold(1.0), Threshold(0.0), Threshold.full_past()):
        with pytest.raises(infer.ZeroEvidenceError):
            bounds_at(net, q, th, walk=walk)


def _other_objective(lazy, q, walk):
    bounds_at(lazy, Query({"x_t+1": "0"}, q.evidence), Threshold(-2.0), walk=walk)


def _other_network(lazy, q, walk):
    bounds_at(hmm_model(HmmParams(transition_stay=0.6)), q, Threshold(-2.0), walk=walk)


def _root_set_of_another_query(lazy, q, walk):
    root_set(lazy, Query({"x_t+1": "0"}, q.evidence), Threshold(-2.0), walk=walk)


@pytest.mark.parametrize(
    "misuse",
    [_other_objective, _other_network, _root_set_of_another_query],
    ids=["objective", "network", "root_set"],
)
def test_sweep_state_belongs_to_its_first_step(misuse):
    # a walk is built for one network and query; a step with another
    # would read that walk's retrieval and clamp table (P(x_t+1=1),
    # stay 0.9) and return a wrong bracket
    lazy, q = hmm_model(HMM), hmm_query(HMM)
    walk = Walk(lazy, q)
    first = bounds_at(lazy, q, Threshold(-1.0), walk=walk)
    with pytest.raises(QueryError, match="another network or query"):
        misuse(lazy, q, walk)
    thresholds = (Threshold(-1.0), Threshold(-2.0), Threshold(-3.0))
    rows = [first, *(bounds_at(lazy, q, th, walk=walk) for th in thresholds[1:])]
    _assert_same_rows(rows, [bounds_at(lazy, q, th) for th in thresholds])


def test_state_refuses_a_threshold_not_below_the_last_and_goes_on_deeper():
    lazy, q = hmm_model(HMM), hmm_query(HMM)
    walk = Walk(lazy, q)
    bounds_at(lazy, q, Threshold(-3.0), walk=walk)
    for shallower in (Threshold(-1.0), Threshold(-3.0)):
        with pytest.raises(QueryError, match="strictly decreasing"):
            bounds_at(lazy, q, shallower, walk=walk)
    deeper = bounds_at(lazy, q, Threshold(-4.0), walk=walk)
    _assert_same_rows([deeper], [bounds_at(lazy, q, Threshold(-4.0))])


def test_ten_thousand_step_sweep_matches_the_filter_oracle():
    window = 10_000
    rows = list(hmm_sweep_experiment(HmmParams(window=window), window))
    assert [qb.threshold.v for qb in rows] == [-float(d) for d in range(1, window + 1)]
    for depth in (1, 10, 5000, window):
        lo, hi = (oracles.hmm_clamp_filter(0.9, 0.8, c, depth, window) for c in (0, 1))
        assert rows[depth - 1].lower == pytest.approx(lo, abs=1e-9)
        assert rows[depth - 1].upper == pytest.approx(hi, abs=1e-9)
