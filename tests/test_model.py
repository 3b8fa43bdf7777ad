import copy
import dataclasses
import json
import math
import pickle
import sys
import threading

import pytest

import plif.model as model
from conftest import CHAIN_DOC, TWO_NODE_DOC, make_net
from plif import (
    Exactness,
    HmmParams,
    InvalidNetworkError,
    LazyNetwork,
    NetworkFormatError,
    NodeSpec,
    NoStartNodesError,
    Query,
    QueryBounds,
    RandomNetSpec,
    Threshold,
    as_lazy,
    bounds_at,
    default_schedule,
    hmm_model,
    hmm_query,
    load_network,
    materialize,
    random_network,
    serialize,
    validate,
)
from plif.model import Violation
from plif.retrieval import Walk


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
    # strict precedence flags an edge of every cycle; here both edges tie
    a = NodeSpec("a", ("0", "1"), ("b",), ((0.5, 0.5), (0.5, 0.5)), pl=0.0)
    b = NodeSpec("b", ("0", "1"), ("a",), ((0.5, 0.5), (0.5, 0.5)), pl=0.0)
    report = validate(make_net(0.0, True, a, b))
    assert {v.rule for v in report} == {"temporal-precedence"}
    assert sorted(v.message.split(" has ")[0] for v in report) == ["edge 'a'->'b'", "edge 'b'->'a'"]


def test_validate_rejects_self_loop():
    a = NodeSpec("a", ("0", "1"), ("a",), ((0.5, 0.5), (0.5, 0.5)), pl=0.0)
    report = validate(make_net(0.0, True, a))
    assert [(v.rule, v.message.split(" has ")[0]) for v in report] == [("temporal-precedence", "edge 'a'->'a'")]


def test_closed_past_needs_finite_t0():
    root = NodeSpec("r", ("0", "1"), (), ((0.5, 0.5),), pl=float("-inf"))
    net = make_net(float("-inf"), False, root)
    assert any(v.rule == "t0-not-finite" for v in validate(net))


def test_integer_literals_round_trip_as_floats_with_zero_unsigned():
    text = (
        '{"t0": -0, "open_past": false, "nodes": ['
        '{"name": "c", "states": ["0", "1"], "pl": -0, "parents": [], "cpt": [[0, 1]]}, '
        '{"name": "e", "states": ["0", "1"], "pl": 1, "parents": ["c"], "cpt": [[1, -0], [0.5, 0.5]]}]}'
    )
    out = serialize(load_network(text))
    assert out == json.dumps(
        {
            "t0": 0.0,
            "open_past": False,
            "nodes": [
                {"name": "c", "states": ["0", "1"], "pl": 0.0, "parents": [], "cpt": [[0.0, 1.0]]},
                {"name": "e", "states": ["0", "1"], "pl": 1.0, "parents": ["c"], "cpt": [[1.0, 0.0], [0.5, 0.5]]},
            ],
        }
    )


def _doc_text(edit) -> str:
    doc = copy.deepcopy(TWO_NODE_DOC)
    edit(doc)
    return json.dumps(doc)


# integer literals, so that the decoder's number hook runs inside each parse
_INT_DOC = (
    '{"t0": 0, "open_past": false, "nodes": ['
    '{"name": "c", "states": ["0", "1"], "pl": 0, "parents": [], "cpt": [[1, 0]]}, '
    '{"name": "e", "states": ["0", "1"], "pl": 1, "parents": ["c"], "cpt": [[0, 1], [1, 0]]}]}'
)
_INT_NET = make_net(
    0.0,
    False,
    NodeSpec("c", ("0", "1"), (), ((1.0, 0.0),), 0.0),
    NodeSpec("e", ("0", "1"), ("c",), ((0.0, 1.0), (1.0, 0.0)), 1.0),
)

SHAPE_ERRORS = {
    "top-level-list": ("[]", "top level must be a JSON object"),
    "no-t0": ('{"open_past": false, "nodes": []}', "missing top-level key 't0'"),
    "no-open-past": ('{"t0": 0.0, "nodes": []}', "missing top-level key 'open_past'"),
    "no-nodes": ('{"t0": 0.0, "open_past": false}', "missing top-level key 'nodes'"),
    "t0-true": ('{"t0": true, "open_past": false, "nodes": []}', "t0 must be a number or \"-inf\", got True"),
    "t0-string": ('{"t0": "inf", "open_past": true, "nodes": []}', "t0 must be a number or \"-inf\", got 'inf'"),
    "open-past-number": ('{"t0": 0.0, "open_past": 0, "nodes": []}', "open_past must be true or false"),
    "nodes-object": ('{"t0": 0.0, "open_past": false, "nodes": {}}', "nodes must be a list"),
    "node-list": (_doc_text(lambda d: d["nodes"].append([])), "node #2 must be an object"),
    **{
        f"node-no-{key}": (_doc_text(lambda d, key=key: d["nodes"][1].pop(key)), f"node #1 is missing key {key!r}")
        for key in ("name", "states", "parents", "cpt", "pl")
    },
    "name-number": (_doc_text(lambda d: d["nodes"][0].update(name=1)), "node #0 name must be a string"),
    "states-string": (_doc_text(lambda d: d["nodes"][0].update(states="01")), "node 'c': states must be a list of strings"),
    "state-number": (_doc_text(lambda d: d["nodes"][0].update(states=["0", 1])), "node 'c': states must be a list of strings"),
    "parent-number": (_doc_text(lambda d: d["nodes"][1].update(parents=[0])), "node 'e': parents must be a list of strings"),
    "pl-true": (_doc_text(lambda d: d["nodes"][0].update(pl=True)), "node 'c': pl must be a number, got True"),
    "pl-string": (_doc_text(lambda d: d["nodes"][0].update(pl="oops")), "node 'c': pl must be a number, got 'oops'"),
    "cpt-object": (_doc_text(lambda d: d["nodes"][0].update(cpt={})), "node 'c': cpt must be a list of rows or null"),
    "row-number": (_doc_text(lambda d: d["nodes"][0].update(cpt=[0.7, 0.3])), "node 'c': cpt row 0 must be a list of numbers"),
    **{
        f"row-holds-{kind}": (
            _doc_text(lambda d, bad=bad: d["nodes"][1]["cpt"][1].append(bad)),
            "node 'e': cpt row 1 must be a list of numbers",
        )
        for kind, bad in (("true", True), ("null", None), ("string", "0.5"), ("list", [0.5]))
    },
    "duplicate-name": (_doc_text(lambda d: d["nodes"].append(dict(d["nodes"][0]))), "duplicate node name 'c'"),
    **{
        f"literal-{token}": (
            f'{{"t0": {token}, "open_past": false, "nodes": []}}',
            f"non-finite literal {token!r} is not allowed in network documents",
        )
        for token in ("NaN", "Infinity", "-Infinity")
    },
    "not-json": ('{"t0": ', "not valid JSON: Expecting value: line 1 column 8 (char 7)"),
    "utf8-bom": ("\ufeff" + _INT_DOC, "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    # bytes that do not decode in the encoding json.detect_encoding picks
    "bytes-bad-utf8": (
        b'{"t0": "\xff"}',
        "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte",
    ),
    "bytes-truncated-utf16": (
        b"\xff\xfe\x00",
        "not valid JSON: 'utf-16-le' codec can't decode byte 0x00 in position 2: truncated data",
    ),
    "bytearray-bad-utf8": (
        bytearray(b"\x80abc"),
        "not valid JSON: 'utf-8' codec can't decode byte 0x80 in position 0: invalid start byte",
    ),
    **{
        f"input-{kind}": (bad, f"a network document must be str, bytes or bytearray, not {kind}")
        for kind, bad in (("NoneType", None), ("dict", {}), ("int", 1))
    },
}


@pytest.mark.parametrize("name", SHAPE_ERRORS)
def test_every_shape_rule_raises_its_message_and_leaves_nothing_behind(name):
    text, message = SHAPE_ERRORS[name]
    with pytest.raises(NetworkFormatError) as exc:
        load_network(text)
    assert str(exc.value) == message
    # the decoder is shared by every call: a failed parse must not leak into the next
    assert load_network(_INT_DOC) == _INT_NET


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-32"])
def test_a_document_loads_from_bytes_as_from_text(encoding):
    data = _INT_DOC.encode(encoding)
    assert load_network(data) == load_network(bytearray(data)) == load_network(_INT_DOC) == _INT_NET


def test_loads_from_several_threads_equal_the_sequential_ones():
    texts = [_INT_DOC.replace('"pl": 1', f'"pl": {k + 1}') for k in range(40)]
    expected = [load_network(t) for t in texts]
    results: list = [None] * 4
    errors: list = []

    def work(slot: int) -> None:
        try:
            results[slot] = [load_network(t) for _ in range(10) for t in texts]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside a parse, not between them
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert all(r == expected * 10 for r in results)


def test_parse_t0_minus_inf_sentinel():
    doc = json.loads(json.dumps(TWO_NODE_DOC))
    doc["t0"] = "-inf"
    doc["open_past"] = True
    net = load_network(json.dumps(doc))
    assert math.isinf(net.t0)
    assert serialize(net).count('"-inf"') == 1


@pytest.mark.parametrize("t0", [math.inf, math.nan], ids=["plus-inf", "nan"])
def test_serialize_refuses_a_t0_that_is_no_time_origin(t0):
    # only -inf has a sentinel; writing "-inf" for +inf would give a document that loads
    net = make_net(t0, True, NodeSpec("a", ("0", "1"), (), ((0.5, 0.5),), 0.0))
    assert [v.rule for v in validate(net)][0] == "t0-invalid"
    with pytest.raises(ValueError):
        serialize(net)


def test_serialize_writes_the_documented_bytes():
    # key order, separators and the -inf sentinel are the format, not just what loads back
    assert serialize(load_network(json.dumps(TWO_NODE_DOC))) == (
        '{"t0": 0.0, "open_past": false, "nodes": ['
        '{"name": "c", "states": ["0", "1"], "pl": 0.0, "parents": [], "cpt": [[0.7, 0.3]]}, '
        '{"name": "e", "states": ["0", "1"], "pl": 1.0, "parents": ["c"], "cpt": [[0.9, 0.1], [0.2, 0.8]]}]}'
    )
    stub = make_net(-math.inf, True, NodeSpec("a", ("0", "1"), (), None, -3.5))
    assert serialize(stub) == (
        '{"t0": "-inf", "open_past": true, "nodes": ['
        '{"name": "a", "states": ["0", "1"], "pl": -3.5, "parents": [], "cpt": null}]}'
    )


def test_round_trip_is_lossless():
    for doc in (CHAIN_DOC, TWO_NODE_DOC):
        net = load_network(json.dumps(doc))
        assert load_network(serialize(net)) == net


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_random_networks(seed):
    net = random_network(RandomNetSpec(seed=seed, node_count=4 + seed % 9))
    assert load_network(serialize(net)) == net


def test_materialize_hmm_fragment_to_floor():
    frag = materialize(hmm_model(HmmParams()), Query({"x_t+1": "1"}), -3.0)
    assert sorted(frag.nodes) == ["x_t", "x_t+1", "x_t-1", "x_t-2"]
    stub = frag.spec("x_t-2")
    assert stub.is_stub and stub.parents == () and stub.pl == -4.0
    assert not frag.spec("x_t-1").is_stub
    assert frag.open_past


def test_materialize_floor_above_query_raises():
    with pytest.raises(NoStartNodesError):
        materialize(hmm_model(HmmParams()), Query({"x_t": "1"}, {"y_t": "1"}), 5.0)


def test_materialize_wrapped_finite_network_is_identity():
    net = load_network(json.dumps(CHAIN_DOC))
    frag = materialize(as_lazy(net), Query({"x": "1"}), float("-inf"))
    assert frag.nodes == net.nodes
    assert frag.t0 == net.t0
    assert frag.open_past


def test_materialize_cut_root_keeps_its_prior():
    # a (root) and m (child of root b) both feed c; the floor 1.5 cuts
    # both, so a keeps its prior, m becomes a stub and b is never reached
    a = NodeSpec("a", ("0", "1"), (), ((0.3, 0.7),), 0.0)
    b = NodeSpec("b", ("0", "1"), (), ((0.6, 0.4),), 0.0)
    m = NodeSpec("m", ("0", "1"), ("b",), ((0.9, 0.1), (0.2, 0.8)), 1.0)
    c = NodeSpec("c", ("0", "1"), ("a", "m"), ((0.5, 0.5), (0.1, 0.9), (0.8, 0.2), (0.4, 0.6)), 2.0)
    net = make_net(0.0, False, a, b, m, c)
    frag = materialize(as_lazy(net), Query({"c": "1"}), 1.5)
    assert list(frag.nodes) == ["c", "a", "m"]
    assert frag.spec("c") == c
    assert frag.spec("a") == a
    assert frag.spec("m") == NodeSpec("m", ("0", "1"), (), None, 1.0)
    assert frag.open_past and frag.t0 == 0.0
    assert validate(frag) == []


@pytest.mark.parametrize("floors", [(-1.0, -2.5, -4.0, -6.0)])
def test_materialize_monotone_in_floor(floors):
    lazy = hmm_model(HmmParams())
    previous: set[str] = set()
    for floor in floors:
        nodes = set(materialize(lazy, Query({"x_t+1": "1"}), floor).nodes)
        assert previous <= nodes
        previous = nodes


def test_materialize_deterministic():
    lazy = hmm_model(HmmParams())
    query = Query({"x_t+1": "1"}, {"y_t": "1"})
    a = materialize(lazy, query, -2.0)
    b = materialize(hmm_model(HmmParams()), query, -2.0)
    assert serialize(a) == serialize(b)


def test_lazy_resolver_is_deterministic():
    lazy = hmm_model(HmmParams())
    assert lazy.resolve("x_t") == lazy.resolve("x_t") == hmm_model(HmmParams()).resolve("x_t")


_NAN, _INF = math.nan, math.inf
_RANGE = ("cpt-entry-range", "node 'a' row 0 leaves [0, 1]")


_STATES = ("duplicate-state", "node 'a' repeats a state label")
_PARENTS = ("duplicate-parent", "node 'a' repeats a parent name")


@pytest.mark.parametrize(
    "states, row, report, parents",
    [
        (("0", "1"), (_NAN, 0.5), [_RANGE], ()),
        (("0", "1"), (0.5, _NAN), [_RANGE], ()),
        (("0", "1"), (_INF, 0.0), [_RANGE, ("cpt-row-sum", "node 'a' row 0 sums to inf, expected 1")], ()),
        (("0", "1"), (_INF, -_INF), [_RANGE], ()),
        (("0", "1"), (-0.0, 1.0), [], ()),
        (("0", "1"), (1.0, 0.0), [], ()),
        (
            (),
            (),
            [
                ("state-count", "node 'a' needs at least 2 states"),
                ("cpt-row-sum", "node 'a' row 0 sums to 0, expected 1"),
            ],
            (),
        ),
        # two labels are compared directly, more are counted through a set
        (("0", "0"), (0.5, 0.5), [_STATES], ()),
        (("0", "1", "0"), (0.5, 0.25, 0.25), [_STATES], ()),
        (("0", "0", "1"), (0.5, 0.25, 0.25), [_STATES], ()),
        (("0",), (1.0,), [("state-count", "node 'a' needs at least 2 states")], ()),
        # a parent list shorter than 2 cannot repeat, a longer one is counted through a set
        (("0", "1"), (0.5, 0.5), [], ("p",)),
        (("0", "1"), (0.5, 0.5), [_PARENTS], ("p", "q", "p")),
        (("0", "0"), (0.5, 0.5), [_STATES, _PARENTS], ("p", "p")),
    ],
    ids=[
        "nan-first",
        "nan-last",
        "inf",
        "inf-minus-inf",
        "minus-zero",
        "exact-one",
        "empty",
        "states-00",
        "states-010",
        "states-001",
        "one-state",
        "one-parent",
        "three-parents-one-repeat",
        "both-repeat",
    ],
)
def test_cpt_row_checks_report_each_rule_once_in_order(states, row, report, parents):
    # a NaN is out of range wherever it sits; its row sum is NaN, which no tolerance rejects
    roots = [NodeSpec(p, ("0", "1"), (), ((0.5, 0.5),), 0.0) for p in dict.fromkeys(parents)]
    spec = NodeSpec("a", states, parents, (row,) * 2 ** len(parents), 1.0 if parents else 0.0)
    assert [(v.rule, v.message) for v in validate(make_net(0.0, False, *roots, spec))] == report
    lazy = LazyNetwork({"a": spec}.__getitem__, 0.0)
    if not report:
        assert lazy.resolve("a") is spec
        return
    with pytest.raises(InvalidNetworkError) as exc:
        lazy.resolve("a")
    assert [(v.rule, v.message) for v in exc.value.violations] == report


def _rules(exc_info):
    return [(v.rule, v.message) for v in exc_info.value.violations]


def test_a_failing_shared_cpt_is_reported_at_every_node_that_uses_it():
    # only a CPT that passed is remembered, so a bad one is checked, and
    # named, wherever it is served
    bad = ((0.5, 0.6),)
    specs = {n: NodeSpec(n, ("0", "1"), (), bad, 0.0) for n in ("a", "b")}
    lazy = LazyNetwork(specs.__getitem__, 0.0)
    for name in ("a", "b", "a"):
        with pytest.raises(InvalidNetworkError) as exc:
            lazy.resolve(name)
        assert _rules(exc) == [("cpt-row-sum", f"node {name!r} row 0 sums to 1.1, expected 1")]


def test_a_checked_cpt_is_checked_again_at_another_state_count():
    cpt = ((0.5, 0.5),)
    specs = {"a": NodeSpec("a", ("0", "1"), (), cpt, 0.0), "b": NodeSpec("b", ("0", "1", "2"), (), cpt, 0.0)}
    lazy = LazyNetwork(specs.__getitem__, 0.0)
    assert lazy.resolve("a") is specs["a"]
    with pytest.raises(InvalidNetworkError) as exc:
        lazy.resolve("b")
    assert _rules(exc) == [("cpt-row-length", "node 'b' row 0 has 2 entries, expected 3")]
    assert lazy.resolve("a") is specs["a"]


def test_a_fresh_bad_cpt_deep_in_a_chain_is_caught(monkeypatch):
    # every call builds its CPT anew, so no memo entry ever fits the next
    # node; a small memo is cleared as it fills, and stays bounded
    monkeypatch.setattr(model, "MAX_CHECKED_CPTS", 8)

    def resolve(name):
        k = int(name[1:])
        # c600's second row is (0.6, 0.6)
        cpt = tuple((p, 0.6 if k == 600 and p == 0.6 else 1.0 - p) for p in ((0.3, 0.6) if k else (0.5,)))
        return NodeSpec(name, ("0", "1"), () if name == "c0" else (f"c{k - 1}",), cpt, float(k))

    lazy = LazyNetwork(resolve, float("-inf"))
    assert bounds_at(lazy, Query({"c599": "1"}), Threshold(1.0)).interior_size == 599
    assert len(lazy.checked) <= 8
    with pytest.raises(InvalidNetworkError) as exc:
        bounds_at(lazy, Query({"c900": "1"}), Threshold(1.0))
    assert _rules(exc) == [("cpt-row-sum", "node 'c600' row 1 sums to 1.2, expected 1")]


def test_a_chain_checks_its_rows_the_same_number_of_times_at_any_depth(monkeypatch):
    # work counted, not timed: the chain's nodes share two CPT objects
    checks = []
    rows = model._row_violations

    def counting(spec):
        checks.append(spec.name)
        return rows(spec)

    monkeypatch.setattr(model, "_row_violations", counting)
    p = HmmParams(window=10)
    counts = {}
    for depth in (1000, 4000):
        checks.clear()
        bounds_at(hmm_model(p), hmm_query(p), Threshold(-float(depth)))
        counts[depth] = len(checks)
    assert counts == {1000: 2, 4000: 2}


# the frozen records a walk builds by the thousand, with their reprs pinned: slots
# or a faster hand-written __init__ must keep equality, hashing, replace, repr,
# copying and pickling as they are
_RECORDS = {
    "Threshold": (Threshold, {"v": -3.0}, "Threshold(v=-3.0)"),
    "NodeSpec": (
        NodeSpec,
        {"name": "x_t-1", "states": ("0", "1"), "parents": ("x_t-2",), "cpt": ((0.9, 0.1), (0.1, 0.9)), "pl": -3.0},
        "NodeSpec(name='x_t-1', states=('0', '1'), parents=('x_t-2',), cpt=((0.9, 0.1), (0.1, 0.9)), pl=-3.0)",
    ),
    "QueryBounds": (
        QueryBounds,
        {
            "threshold": Threshold(-3.0),
            "lower": 0.25,
            "upper": 0.75,
            "exactness": Exactness.NOT_EXACT,
            "frontier_size": 1,
            "interior_size": 5,
        },
        "QueryBounds(threshold=Threshold(v=-3.0), lower=0.25, upper=0.75, "
        "exactness=<Exactness.NOT_EXACT: 'not_exact'>, frontier_size=1, interior_size=5)",
    ),
}


@pytest.mark.parametrize("record", list(_RECORDS))
def test_records_keep_the_frozen_dataclass_contract(record):
    cls, fields, pinned = _RECORDS[record]
    a, b = cls(**fields), cls(*fields.values())
    assert [f.name for f in dataclasses.fields(cls)] == list(fields)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == pinned
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, None)
    assert repr(a) == pinned
    last = list(fields)[-1]
    moved = dataclasses.replace(a, **{last: fields[last] + 1})
    assert moved != a and moved == cls(**{**fields, last: fields[last] + 1})
    assert dataclasses.replace(a) == a


@pytest.mark.parametrize("record", list(_RECORDS))
def test_records_copy_and_pickle_equal(record):
    cls, fields, pinned = _RECORDS[record]
    a = cls(**fields)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a and hash(twin) == hash(a)
        assert repr(twin) == pinned


def test_every_record_is_slotted():
    # one instance of each dataclass under plif, read off a real walk; none
    # carries an instance dict, so none takes an attribute it does not declare
    params = HmmParams(window=3)
    lazy, q = hmm_model(params), hmm_query(params)
    walk = Walk(lazy, q)
    qb = bounds_at(lazy, q, Threshold(-1.0), walk=walk)
    recipe = RandomNetSpec(seed=1)
    records = [
        walk.specs["x_t"],
        random_network(recipe),
        lazy,
        q,
        Violation("rule", "message"),
        qb.threshold,
        walk,
        qb,
        default_schedule(lazy, q, max_steps=2),
        walk.table,
        params,
        recipe,
    ]
    declared = {
        c for name, m in list(sys.modules.items()) if name.startswith("plif.") for c in vars(m).values()
        if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == name
    }
    assert {type(r) for r in records} == declared and len(declared) == 12
    for r in records:
        assert dataclasses.is_dataclass(r) and "__slots__" in type(r).__dict__
        assert not hasattr(r, "__dict__"), type(r).__name__
        # a frozen slotted record's __setattr__ ends in super() on the class
        # from before slots on Python 3.10 and 3.11, which raises TypeError
        with pytest.raises((AttributeError, TypeError)):
            r.unknown = 1
        assert not hasattr(r, "unknown")
