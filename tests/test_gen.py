import pytest

import oracles
from conftest import random_chain
from plif import (
    HmmParams,
    Query,
    QueryError,
    RandomNetSpec,
    Schedule,
    Threshold,
    UnknownNodeError,
    anytime_sweep,
    bounds_at,
    hmm_model,
    hmm_query,
    hmm_sweep_experiment,
    load_network,
    materialize,
    random_network,
    serialize,
    sweep_csv,
    validate,
)
from plif.gen import random_query


def test_hmm_resolver_transition_node():
    spec = hmm_model(HmmParams()).resolve("x_t+1")
    assert spec.parents == ("x_t",)
    assert spec.cpt[1][1] == 0.9  # staying in state 1 is the likely move
    assert spec.cpt[0][0] == 0.9
    assert spec.cpt[0][1] == pytest.approx(0.1, abs=1e-15)
    assert spec.states == ("0", "1")


def test_hmm_resolver_emission_node():
    spec = hmm_model(HmmParams()).resolve("y_t")
    assert spec.parents == ("x_t",)
    assert spec.cpt[1][1] == 0.8


def test_hmm_pl_rules():
    lazy = hmm_model(HmmParams())
    assert lazy.resolve("x_t-1").pl == -3.0
    assert lazy.resolve("y_t-1").pl == -2.5
    assert lazy.resolve("x_t+1").pl == -1.0


@pytest.mark.parametrize("name", ["x_t+0", "x_t-0", "x_t+01", "y_t-007", "y_t+0", "x_t+\u0661", "y_t\n"])
def test_hmm_resolver_refuses_a_second_name_for_a_chain_node(name):
    with pytest.raises(UnknownNodeError, match="unknown node"):
        hmm_model(HmmParams()).resolve(name)
    # as evidence it would be a second, contradictory observation of one node
    query = Query({"x_t+1": "1"}, {"y_t": "1", name: "0"})
    with pytest.raises(UnknownNodeError):
        bounds_at(hmm_model(HmmParams()), query, Threshold(-3.0))


def test_hmm_query_window_names():
    q = hmm_query(HmmParams(window=3))
    assert q.objective == {"x_t+1": "1"}
    assert set(q.evidence) == {"y_t", "y_t-1", "y_t-2"}


def test_hmm_sweep_first_row_reads_the_transition_column():
    rows = list(hmm_sweep_experiment(HmmParams(), depth=1))
    assert len(rows) == 1
    assert rows[0].lower == pytest.approx(0.1, abs=1e-12)
    assert rows[0].upper == pytest.approx(0.9, abs=1e-12)


def test_hmm_sweep_crosses_half_at_third_row():
    rows = hmm_sweep_experiment(HmmParams(), depth=4)
    assert [qb.lower > 0.5 for qb in rows] == [False, False, True, True]


def test_hmm_sweep_intervals_weakly_shrink():
    rows = list(hmm_sweep_experiment(HmmParams(), depth=8))
    for shallow, deep in zip(rows, rows[1:]):
        assert deep.lower >= shallow.lower - 1e-9
        assert deep.upper <= shallow.upper + 1e-9


def test_hmm_sweep_insensitive_to_observation_pl_rule():
    base = hmm_sweep_experiment(HmmParams(), depth=6)
    moved = hmm_sweep_experiment(HmmParams(y_pl_offset=0.1), depth=6)
    assert [(r.lower, r.upper) for r in base] == [(r.lower, r.upper) for r in moved]


def test_hmm_sweep_insensitive_to_window_truncation():
    short = hmm_sweep_experiment(HmmParams(window=5), depth=5)
    long = hmm_sweep_experiment(HmmParams(window=20), depth=5)
    assert [(r.lower, r.upper) for r in short] == [(r.lower, r.upper) for r in long]


def test_sweep_csv_schema(hmm4_net):
    rows = hmm_sweep_experiment(HmmParams(), depth=2)
    text = sweep_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "threshold,lower,upper,frontier_size,interior_size,exactness"
    assert lines[1] == "-1,0.100000000,0.900000000,1,1,not_exact"
    assert len(lines) == 3
    # a fractional threshold and the full-past sentinel, byte for byte
    q = Query({"x_t+1": "1"}, {"y_t": "1", "y_t-1": "1"})
    schedule = Schedule((Threshold(-1.0), Threshold(-2.5), Threshold.full_past()))
    assert sweep_csv(anytime_sweep(hmm4_net, q, schedule, stop_on_exact=False)) == (
        "threshold,lower,upper,frontier_size,interior_size,exactness\n"
        "-1,0.100000000,0.900000000,1,1,not_exact\n"
        "-2.5,0.346153846,0.878378378,1,4,not_exact\n"
        "-inf,0.835403727,0.835403727,0,6,full_past\n"
    )


def test_hmm_materialized_depth_counts():
    params = HmmParams(window=4)
    for depth in (3, 5):
        frag = materialize(hmm_model(params), hmm_query(params), float(-depth))
        xs = [n for n in frag.nodes if n.startswith("x")]
        ys = [n for n in frag.nodes if n.startswith("y")]
        assert len(xs) == depth + 1
        assert len(ys) == params.window


@pytest.mark.parametrize("window", [10, 120])
@pytest.mark.parametrize("depth", [3, 5, 8])
def test_hmm_fragment_sweep_equals_lazy_sweep(depth, window):
    params = HmmParams(window=window)
    frag = load_network(serialize(materialize(hmm_model(params), hmm_query(params), float(-depth))))
    rows = list(anytime_sweep(frag, hmm_query(params), max_steps=depth, stop_on_exact=False))
    assert rows == list(hmm_sweep_experiment(params, depth))


def test_hmm_params_validated():
    with pytest.raises(QueryError):
        HmmParams(transition_stay=1.0)
    with pytest.raises(QueryError):
        HmmParams(window=0)


def test_random_network_deterministic_in_seed():
    a = random_network(RandomNetSpec(seed=11))
    b = random_network(RandomNetSpec(seed=11))
    assert serialize(a) == serialize(b)
    assert serialize(a) != serialize(random_network(RandomNetSpec(seed=12)))


def test_random_network_single_node_is_a_prior():
    net = random_network(RandomNetSpec(seed=0, node_count=1))
    (spec,) = net.nodes.values()
    assert spec.parents == ()
    assert spec.pl == 0.0


def test_random_networks_always_validate():
    for seed in range(500):
        net = random_network(RandomNetSpec(seed=seed, node_count=1 + seed % 12))
        assert validate(net) == []
        assert not net.open_past


def test_random_net_spec_rejects_out_of_range():
    with pytest.raises(QueryError):
        RandomNetSpec(seed=0, node_count=13)
    with pytest.raises(QueryError):
        RandomNetSpec(seed=0, state_count=4)
    with pytest.raises(QueryError):
        RandomNetSpec(seed=-1)


def test_random_query_deterministic_and_disjoint():
    net = random_network(RandomNetSpec(seed=3))
    a = random_query(net, 42)
    b = random_query(net, 42)
    assert a == b
    assert not (set(a.objective) & set(a.evidence))


def test_random_query_single_node_net_forced():
    net = random_network(RandomNetSpec(seed=5, node_count=1))
    q = random_query(net, 1)
    assert len(q.objective) == 1
    assert q.evidence == {}


@pytest.mark.parametrize("seed", range(25))
def test_random_query_evidence_has_positive_probability(seed):
    net = random_network(RandomNetSpec(seed=seed, node_count=3 + seed % 10))
    q = random_query(net, seed)
    if q.evidence:
        names, joint = oracles.net_joint(net)
        assert oracles.joint_conditional(net, names, joint, q.evidence, {}) > 0.0


def test_random_chain_shape_and_margin():
    net = random_chain(seed=9)
    assert list(net.nodes) == ["c0", "c1", "c2", "c3"]
    for spec in net.nodes.values():
        for row in spec.cpt:
            assert all(0.05 <= p <= 0.95 for p in row)
    assert validate(net) == []
