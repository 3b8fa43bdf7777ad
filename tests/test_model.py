import json
import math

import pytest

from conftest import CHAIN_DOC, TWO_NODE_DOC, make_net
from plif import (
    HmmParams,
    InvalidNetworkError,
    NetworkFormatError,
    NodeSpec,
    RandomNetSpec,
    as_lazy,
    hmm_model,
    load_network,
    materialize,
    random_network,
    serialize,
    validate,
)


def test_load_two_node_document():
    net = load_network(json.dumps(TWO_NODE_DOC))
    assert len(net) == 2
    assert net.spec("e").parents == ("c",)
    assert net.spec("c").cpt == ((0.7, 0.3),)


def test_load_reports_bad_row_sum_with_node_and_row():
    doc = json.loads(json.dumps(TWO_NODE_DOC))
    doc["nodes"][1]["cpt"][1] = [0.18, 0.8]
    with pytest.raises(InvalidNetworkError) as exc:
        load_network(json.dumps(doc))
    assert "'e'" in str(exc.value)
    assert "row 1" in str(exc.value)


def test_load_chain_orders_pls():
    net = load_network(json.dumps(CHAIN_DOC))
    assert [net.spec(n).pl for n in ("y", "t2", "t1", "x")] == [1.0, 2.0, 3.0, 4.0]
    assert net.spec("x").parents == ("t1",)


@pytest.mark.parametrize(
    "mutate, expect",
    [
        (lambda d: d["nodes"].pop(0), "unknown-parent"),
        (lambda d: d["nodes"][1].update(parents=["c", "c"], cpt=[[0.9, 0.1], [0.2, 0.8]]), "duplicate-parent"),
        (lambda d: d["nodes"][0].update(states=["0"]), "state-count"),
        (lambda d: d["nodes"][0].update(states=["0", "0"]), "duplicate-state"),
        (lambda d: d["nodes"][1].update(cpt=[[0.9, 0.1]]), "cpt-shape"),
        (lambda d: d["nodes"][0].update(cpt=[[1.2, -0.2]]), "cpt-entry-range"),
        (lambda d: d["nodes"][0].update(cpt=None), "cpt-missing"),
    ],
)
def test_validate_reports_rule(mutate, expect):
    doc = json.loads(json.dumps(TWO_NODE_DOC))
    mutate(doc)
    with pytest.raises(InvalidNetworkError) as exc:
        load_network(json.dumps(doc))
    assert any(v.rule == expect for v in exc.value.violations)


def test_validate_temporal_precedence_names_edge():
    doc = json.loads(json.dumps(TWO_NODE_DOC))
    doc["nodes"][0]["pl"] = 5.0
    doc["t0"] = 5.0
    with pytest.raises(InvalidNetworkError) as exc:
        load_network(json.dumps(doc))
    bad = [v for v in exc.value.violations if v.rule == "temporal-precedence"]
    assert bad and "'c'" in bad[0].message and "'e'" in bad[0].message


def test_validate_root_pl_must_equal_t0_unless_open_past():
    root = NodeSpec("r", ("0", "1"), (), ((0.5, 0.5),), pl=2.0)
    closed = make_net(0.0, False, root)
    assert any(v.rule == "root-pl" for v in validate(closed))
    assert validate(make_net(0.0, True, root)) == []


def test_validate_detects_cycle_independently_of_pls():
    a = NodeSpec("a", ("0", "1"), ("b",), ((0.5, 0.5), (0.5, 0.5)), pl=0.0)
    b = NodeSpec("b", ("0", "1"), ("a",), ((0.5, 0.5), (0.5, 0.5)), pl=0.0)
    rules = {v.rule for v in validate(make_net(0.0, True, a, b))}
    assert "cycle" in rules


def test_validate_rejects_self_loop():
    a = NodeSpec("a", ("0", "1"), ("a",), ((0.5, 0.5), (0.5, 0.5)), pl=0.0)
    rules = {v.rule for v in validate(make_net(0.0, True, a))}
    assert {"cycle", "temporal-precedence"} <= rules


def test_closed_past_needs_finite_t0():
    root = NodeSpec("r", ("0", "1"), (), ((0.5, 0.5),), pl=float("-inf"))
    net = make_net(float("-inf"), False, root)
    assert any(v.rule == "t0-not-finite" for v in validate(net))


def test_parse_rejects_nan_and_non_finite_literals():
    with pytest.raises(NetworkFormatError):
        load_network('{"t0": NaN, "open_past": false, "nodes": []}')
    doc = json.loads(json.dumps(TWO_NODE_DOC))
    doc["nodes"][0]["pl"] = "oops"
    with pytest.raises(NetworkFormatError):
        load_network(json.dumps(doc))


def test_parse_rejects_duplicate_node_names():
    doc = json.loads(json.dumps(TWO_NODE_DOC))
    doc["nodes"].append(dict(doc["nodes"][0]))
    with pytest.raises(NetworkFormatError):
        load_network(json.dumps(doc))


def test_parse_t0_minus_inf_sentinel():
    doc = json.loads(json.dumps(TWO_NODE_DOC))
    doc["t0"] = "-inf"
    doc["open_past"] = True
    net = load_network(json.dumps(doc))
    assert math.isinf(net.t0)
    assert serialize(net).count('"-inf"') == 1


def test_round_trip_is_lossless():
    for doc in (CHAIN_DOC, TWO_NODE_DOC):
        net = load_network(json.dumps(doc))
        assert load_network(serialize(net)) == net


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_random_networks(seed):
    net = random_network(RandomNetSpec(seed=seed, node_count=4 + seed % 9))
    assert load_network(serialize(net)) == net


def test_materialize_hmm_fragment_to_floor():
    frag = materialize(hmm_model(HmmParams()), ["x_t+1"], -3.0)
    assert sorted(frag.nodes) == ["x_t", "x_t+1", "x_t-1", "x_t-2"]
    stub = frag.spec("x_t-2")
    assert stub.is_stub and stub.parents == () and stub.pl == -4.0
    assert not frag.spec("x_t-1").is_stub
    assert frag.open_past


def test_materialize_floor_above_seeds_keeps_seeds_only():
    frag = materialize(hmm_model(HmmParams()), ["x_t", "y_t"], 5.0)
    assert sorted(frag.nodes) == ["x_t", "y_t"]
    assert all(frag.spec(n).is_stub for n in frag.nodes)


def test_materialize_wrapped_finite_network_is_identity():
    net = load_network(json.dumps(CHAIN_DOC))
    frag = materialize(as_lazy(net), ["x"], float("-inf"))
    assert frag.nodes == net.nodes
    assert frag.t0 == net.t0
    assert frag.open_past


@pytest.mark.parametrize("floors", [(-1.0, -2.5, -4.0, -6.0)])
def test_materialize_monotone_in_floor(floors):
    lazy = hmm_model(HmmParams())
    previous: set[str] = set()
    for floor in floors:
        nodes = set(materialize(lazy, ["x_t+1"], floor).nodes)
        assert previous <= nodes
        previous = nodes


def test_materialize_deterministic():
    lazy = hmm_model(HmmParams())
    a = materialize(lazy, ["x_t+1", "y_t"], -2.0)
    b = materialize(hmm_model(HmmParams()), ["x_t+1", "y_t"], -2.0)
    assert serialize(a) == serialize(b)


def test_lazy_resolver_is_deterministic():
    lazy = hmm_model(HmmParams())
    assert lazy.resolve("x_t") == lazy.resolve("x_t") == hmm_model(HmmParams()).resolve("x_t")
