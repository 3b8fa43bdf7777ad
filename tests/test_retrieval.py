import numpy as np
import pytest

import oracles
from conftest import kchain, make_net
from plif import (
    HmmParams,
    NoStartNodesError,
    NodeSpec,
    Query,
    QueryError,
    RandomNetSpec,
    Threshold,
    UnknownNodeError,
    d_separated,
    hmm_model,
    hmm_query,
    random_network,
    root_set,
    validate,
)
from plif.gen import random_query
from plif.retrieval import Walk, _ancestors


def test_ancestors_of_chain_target(chain_net):
    assert _ancestors(chain_net, {"x"}) == {"t1", "t2", "y"}


def test_ancestors_of_roots_is_empty(chain_net):
    assert _ancestors(chain_net, {"y"}) == set()


def test_ancestors_includes_target_reachable_from_other_target(chain_net):
    assert "t1" in _ancestors(chain_net, {"x", "t1"})


@pytest.mark.parametrize("seed", range(15))
def test_ancestors_matches_reachability_oracle(seed):
    net = random_network(RandomNetSpec(seed=seed, node_count=10))
    parents = {n: net.spec(n).parents for n in net.nodes}
    for name in net.nodes:
        assert _ancestors(net, {name}) == oracles.reachable(parents, name)


def test_dsep_chain_blocked_by_middle(chain_net):
    assert d_separated(chain_net, {"x"}, {"y"}, {"t1"})
    assert d_separated(chain_net, {"x"}, {"y"}, {"t2"})
    assert not d_separated(chain_net, {"x"}, {"y"}, set())


def test_dsep_collider(collider_net):
    assert d_separated(collider_net, {"a"}, {"b"}, set())
    assert not d_separated(collider_net, {"a"}, {"b"}, {"c"})


def test_dsep_empty_side_is_separated(chain_net):
    assert d_separated(chain_net, {"x"}, set(), set())


def test_dsep_rejects_overlap_and_unknown(chain_net):
    with pytest.raises(QueryError):
        d_separated(chain_net, {"x"}, {"y"}, {"x"})
    with pytest.raises(UnknownNodeError):
        d_separated(chain_net, {"x"}, {"nope"}, set())


def test_dsep_implies_numeric_independence():
    found = 0
    for seed in range(12):
        net = random_network(RandomNetSpec(seed=seed, node_count=8))
        names, joint = oracles.net_joint(net)
        rng = np.random.default_rng(seed)
        for _ in range(12):
            picks = [names[int(i)] for i in rng.permutation(len(names))]
            a, b = picks[0], picks[1]
            cond = sorted(picks[2 : 2 + int(rng.integers(0, 3))])
            if not d_separated(net, {a}, {b}, cond):
                continue
            found += 1
            assert oracles.ci_gap(net, names, joint, a, b, cond) < 1e-9
    assert found >= 5  # implication direction only, but separation must occur


# --- threshold retrieval -----------------------------------------------------


def test_chain_retrieval_at_target_level(chain_net):
    rs = root_set(chain_net, Query({"x": "1"}, {"y": "1"}), Threshold(4.0))
    assert rs.frontier.keys() == {"t1"}
    assert rs.interior.keys() == {"x"}
    assert rs.evidence_minus == {"y"}
    assert rs.evidence_plus.keys() == frozenset()
    assert rs.evidence_in_frontier.keys() == frozenset()


def test_chain_retrieval_reaches_evidence(chain_net):
    rs = root_set(chain_net, Query({"x": "1"}, {"y": "1"}), Threshold(2.0))
    assert rs.frontier.keys() == {"y"}
    assert rs.evidence_in_frontier.keys() == {"y"}
    assert rs.interior.keys() == {"x", "t1", "t2"}


def test_two_node_retrieval_lands_on_evidence_parent(two_node_net):
    query = Query({"e": "1"}, {"c": "1"})
    rs = root_set(two_node_net, query, Threshold(1.0))
    assert rs.frontier.keys() == {"c"}
    assert rs.frontier.keys() <= set(query.evidence)


def test_full_past_threshold_empties_frontier(chain_net):
    rs = root_set(chain_net, Query({"x": "1"}, {"y": "1"}), Threshold.full_past())
    assert rs.frontier.keys() == frozenset()
    assert rs.interior.keys() == {"x", "t1", "t2", "y"}


def test_no_start_nodes_raises(chain_net):
    with pytest.raises(NoStartNodesError):
        root_set(chain_net, Query({"y": "1"}), Threshold(9.0))


def test_frontier_stubs_carry_states_and_pl_but_no_cpd(chain_net):
    # the walk keeps each frontier node's resolved spec; the fragment it
    # writes keeps only its states and pl
    rs = root_set(chain_net, Query({"x": "1"}), Threshold(4.0))
    assert rs.frontier["t1"] is rs.specs["t1"]
    stub = rs.fragment().spec("t1")
    assert stub.states == ("0", "1")
    assert stub.pl == 3.0
    assert stub.is_stub and stub.parents == ()


def test_a_walk_that_met_only_a_stub_extends_like_a_fresh_one():
    # at 4.0 the walk reaches only the evidence stub s, which stays a clamp;
    # at 3.5 it has nothing new to retrieve, and equals a fresh walk there
    s = NodeSpec("s", ("0", "1"), (), None, pl=5.0)
    o = NodeSpec("o", ("0", "1"), (), ((0.5, 0.5),), pl=3.0)
    net, q = make_net(0.0, True, s, o), Query({"o": "1"}, {"s": "1"})
    walk = root_set(net, q, Threshold(4.0))
    assert (walk.frontier, walk.interior, walk.evidence_in_frontier) == ({"s": s}, {}, {"s": "1"})
    assert root_set(net, q, Threshold(3.5), walk=walk) == root_set(net, q, Threshold(3.5))


def test_fragment_stubs_the_frontier_and_keeps_a_root_prior(chain_net):
    # t2 (pl 2) is the frontier; the evidence y (pl 1) is a genuine root
    # the threshold has not reached, so it keeps its prior
    frag = root_set(chain_net, Query({"x": "1"}, {"y": "1"}), Threshold(3.0)).fragment()
    assert frag.open_past is True
    assert list(frag.nodes) == ["x", "t1", "t2", "y"]
    assert frag.spec("t2").is_stub
    assert frag.spec("t2").pl == 2.0
    assert frag.spec("y") == chain_net.spec("y")
    assert validate(frag) == []


def test_root_set_is_deterministic(chain_net):
    q = Query({"x": "1"}, {"y": "1"})
    assert root_set(chain_net, q, Threshold(3.0)) == root_set(chain_net, q, Threshold(3.0))


def test_root_set_on_lazy_matches_hand_fragment():
    lazy = hmm_model(HmmParams())
    rs = root_set(lazy, hmm_query(HmmParams()), Threshold(-3.0))
    assert rs.frontier.keys() == {"x_t-2"}
    assert rs.interior.keys() == {"x_t+1", "x_t", "x_t-1", "y_t", "y_t-1"}
    assert rs.evidence_plus.keys() == {"y_t", "y_t-1"}
    assert rs.evidence_minus == frozenset(f"y_t-{j}" for j in range(2, 10))


@pytest.mark.parametrize("case", ["kchain", *(f"corpus-{s}" for s in range(40))])
def test_a_walk_lists_its_query_nodes_by_level_then_name(case):
    # a walk sorts the (pl, name) pairs it collects while resolving the
    # query; that must equal sorting the names by a key that looks each
    # spec up again, through ties on pl (8 per step on the k-chain, roots
    # at t0 in the corpus recipe)
    if case == "kchain":
        net, query = kchain(k=8, window=4)
    else:
        s = int(case.split("-")[1])
        net = random_network(RandomNetSpec(seed=s, node_count=3 + s % 10, state_count=2 + s % 2))
        query = random_query(net, s + 1_000_000)
    walk = Walk(net, query)
    spec = net.resolve
    assert walk.pending == sorted(query.names, key=lambda n: (spec(n).pl, n))
    assert walk.critical == min((spec(n).pl, n) for n in query.objective)[::-1]
    if case == "kchain":
        pls = [spec(n).pl for n in walk.pending]
        assert max(map(pls.count, pls)) == 8


def _threshold_values(net, query):
    pool = {net.spec(a).pl for a in _ancestors(net, query.names)} | {
        net.spec(n).pl for n in query.names
    }
    return sorted(pool, reverse=True)


@pytest.mark.parametrize("seed", range(25))
def test_retrieval_invariants_on_random_networks(seed):
    net = random_network(RandomNetSpec(seed=seed, node_count=4 + seed % 9))
    query = random_query(net, seed + 1000)
    pl_star = min(net.spec(n).pl for n in query.objective)
    previous_nodes = None
    for v in [x for x in _threshold_values(net, query) if x <= pl_star]:
        rs = root_set(net, query, Threshold(v))
        # frontier strictly below the threshold
        assert all(net.spec(r).pl < v for r in rs.frontier)
        # frontier and interior disjoint, parent closure holds
        assert not (rs.frontier.keys() & rs.interior.keys())
        for n in rs.interior:
            assert set(net.spec(n).parents) <= (rs.interior.keys() | rs.frontier.keys())
        # evidence partition covers the evidence exactly
        assert (
            rs.evidence_plus.keys() | rs.evidence_in_frontier.keys() | rs.evidence_minus
            == set(query.evidence)
        )
        assert not (rs.evidence_plus.keys() & rs.evidence_in_frontier.keys())
        assert not (rs.evidence_minus & (rs.evidence_plus.keys() | rs.evidence_in_frontier.keys()))
        # deeper thresholds retrieve supersets
        nodes = rs.interior.keys() | rs.frontier.keys()
        if previous_nodes is not None:
            assert previous_nodes <= nodes
        previous_nodes = nodes
        # the frontier plus elevated evidence screens off the rest
        if rs.evidence_minus:
            assert d_separated(
                net,
                set(query.objective),
                rs.evidence_minus,
                rs.frontier.keys() | rs.evidence_plus.keys(),
            )
