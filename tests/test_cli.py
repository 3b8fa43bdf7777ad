import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plif
import plif.cli
import plif.errors as errors
from conftest import TWO_NODE_DOC
from plif import Query, RandomNetSpec, hmm_model, hmm_query, load_network, materialize, random_network, serialize
from plif.model import Violation


def test_validate_ok(cli, chain_file):
    code, out, _ = cli("validate", chain_file)
    assert code == 0
    assert out.strip() == "OK: 4 nodes"


def test_validate_reports_reversed_pl_edge(cli, tmp_path):
    doc = json.loads(json.dumps(TWO_NODE_DOC))
    doc["nodes"][1]["pl"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = cli("validate", str(path))
    assert code == 2
    assert "temporal-precedence" in err
    assert "'c'" in err and "'e'" in err


def test_validate_truncated_json_exits_1(cli, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text(json.dumps(TWO_NODE_DOC)[:40])
    code, _, err = cli("validate", str(path))
    assert code == 1
    assert "error" in err


_DOC = json.dumps(TWO_NODE_DOC).encode()
_BIG = b"1" * 400

MALFORMED_DOCUMENTS = {
    "not_json": (_DOC[:40], 1, "not valid JSON"),
    "nan_literal": (_DOC.replace(b'"t0": 0.0', b'"t0": NaN'), 1, "non-finite literal 'NaN'"),
    "pl_string": (_DOC.replace(b'"pl": 1.0', b'"pl": "1.0"'), 1, "pl must be a number"),
    "not_utf8": (b"\xff\xfe" + _DOC, 1, "utf-8"),
    "deep_nesting": (b"[" * 100000 + b"]" * 100000, 1, "not valid JSON"),
    "huge_int_pl": (_DOC.replace(b'"pl": 1.0', b'"pl": ' + _BIG), 2, "pl-not-finite"),
    "huge_int_cpt": (_DOC.replace(b"0.9", _BIG), 2, "cpt-entry-range"),
    "huge_int_t0": (_DOC.replace(b'"t0": 0.0', b'"t0": ' + _BIG), 2, "t0-invalid"),
    "cpt_1e999": (_DOC.replace(b"0.9", b"1e999"), 2, "cpt-entry-range"),
    "two_node_cycle": (
        _DOC.replace(b'"parents": [], "cpt": [[0.7, 0.3]]', b'"parents": ["e"], "cpt": [[0.7, 0.3], [0.7, 0.3]]'),
        2,
        "temporal-precedence: edge 'e'->'c'",
    ),
}


@pytest.mark.parametrize("name", MALFORMED_DOCUMENTS)
def test_validate_malformed_document_exits_with_its_code(cli, tmp_path, name):
    data, expected_code, expected_text = MALFORMED_DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code, out, err = cli("validate", str(path))
    assert (code, out) == (expected_code, "")
    assert expected_text in err
    assert "Traceback" not in err


def test_a_document_with_a_byte_order_mark_is_refused_in_the_same_words(cli, tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + _DOC)
    message = "error: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"
    assert cli("validate", str(path)) == (1, "", message)


def test_query_chain_exact_via_frontier_evidence(cli, chain_file):
    code, out, _ = cli(
        "query", chain_file, "--target", "x=1", "--obs", "y=1", "--threshold", "2.0"
    )
    assert code == 0
    assert "exactness=frontier_subset_of_evidence" in out
    assert "lower=0.627000000" in out
    assert "upper=0.627000000" in out


def test_query_at_pl_of_matches_raw_threshold(cli, chain_file):
    _, by_node, _ = cli("query", chain_file, "--target", "x=1", "--obs", "y=1", "--at-pl-of", "t2")
    _, by_value, _ = cli("query", chain_file, "--target", "x=1", "--obs", "y=1", "--threshold", "2.0")
    assert by_node == by_value


def test_query_exact_two_node(cli, two_node_file):
    code, out, _ = cli("query", two_node_file, "--target", "e=1", "--exact")
    assert code == 0
    assert out.strip() == "exact=0.310000000"


def test_query_exact_unknown_state_exits_1(cli, two_node_file):
    code, _, err = cli("query", two_node_file, "--target", "e=maybe", "--exact")
    assert code == 1
    assert "maybe" in err


def test_query_exact_open_past_exits_5(cli, tmp_path):
    path = tmp_path / "frag.json"
    assert cli("gen-hmm", "--depth", "2", "--out", str(path))[0] == 0
    code, _, err = cli("query", str(path), "--target", "x_t+1=1", "--exact")
    assert code == 5
    assert "closed past" in err


# an open past r (with its prior) -> b -> a -> o; the parent s of the
# evidence e is a truncation stub above o's level, and e depends on s alone
_STUB_DOC = {
    "t0": 0.0,
    "open_past": True,
    "nodes": [
        {"name": "r", "states": ["0", "1"], "pl": 0.0, "parents": [], "cpt": [[0.5, 0.5]]},
        {"name": "b", "states": ["0", "1"], "pl": 1.0, "parents": ["r"], "cpt": [[0.7, 0.3], [0.2, 0.8]]},
        {"name": "a", "states": ["0", "1"], "pl": 2.0, "parents": ["b"], "cpt": [[0.6, 0.4], [0.1, 0.9]]},
        {"name": "o", "states": ["0", "1"], "pl": 3.0, "parents": ["a"], "cpt": [[0.8, 0.2], [0.3, 0.7]]},
        {"name": "s", "states": ["0", "1"], "pl": 4.5, "parents": [], "cpt": None},
        {"name": "e", "states": ["0", "1"], "pl": 5.0, "parents": ["s"], "cpt": [[0.6, 0.4], [0.3, 0.7]]},
    ],
}


def test_sweep_clamps_a_stub_above_the_objective(cli, tmp_path):
    path = tmp_path / "stub.json"
    path.write_text(json.dumps(_STUB_DOC))
    code, out, err = cli("sweep", str(path), "--target", "o=1", "--obs", "e=1", "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["threshold"] for r in rows] == ["3", "2", "1"]
    # e is independent of o, so every row holds P(o=1) = 0.5375, whatever s's prior
    assert all(float(r["lower"]) <= 0.5375 <= float(r["upper"]) for r in rows)
    assert {r["exactness"] for r in rows} == {"not_exact"}


@pytest.mark.parametrize("command", ["query", "sweep"])
def test_stub_objective_exits_5(cli, tmp_path, command):
    path = tmp_path / "stub.json"
    path.write_text(json.dumps(_STUB_DOC))
    flags = ("--threshold", "4.5") if command == "query" else ()
    code, out, err = cli(command, str(path), "--target", "s=1", *flags)
    assert (code, out) == (5, "")
    assert err == "error: objective node 's' is a truncation stub; it has no prior to answer with\n"


def test_query_threshold_above_cpl_exits_3_quoting_level(cli, chain_file):
    code, _, err = cli("query", chain_file, "--target", "x=1", "--threshold", "4.5")
    assert code == 3
    assert "4" in err


def test_query_unknown_state_exits_1_before_the_threshold_is_checked(cli, chain_file):
    # the query's states are checked when its walk is built, before the
    # threshold is compared with the critical level
    code, _, err = cli("query", chain_file, "--target", "x=maybe", "--threshold", "4.5")
    assert code == 1
    assert "maybe" in err


def test_query_zero_probability_evidence_exits_4(cli, tmp_path):
    doc = {
        "t0": 0.0,
        "open_past": False,
        "nodes": [
            {"name": "s", "states": ["0", "1"], "pl": 0.0, "parents": [], "cpt": [[1.0, 0.0]]},
            {"name": "k", "states": ["0", "1"], "pl": 1.0, "parents": ["s"],
             "cpt": [[1.0, 0.0], [0.0, 1.0]]},
        ],
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(doc))
    code, _, err = cli("query", str(path), "--target", "s=0", "--obs", "k=1", "--exact")
    assert code == 4
    assert "probability zero" in err


# the full-past bracket finds every clamp zero; at threshold 1 the root r
# is the one clamp, r = 1 is possible inside the fragment, and r's own
# prior then makes the exact value zero over zero
@pytest.mark.parametrize("mode", [["--exact"], ["--threshold", "1"]], ids=["full_past", "exact_from_retrieval"])
def test_zero_probability_message_names_a_few_of_many_evidence_nodes(cli, tmp_path, mode):
    copy = [[1.0, 0.0], [0.0, 1.0]]
    nodes = [{"name": "r", "states": ["0", "1"], "pl": 0.0, "parents": [], "cpt": [[1.0, 0.0]]}]
    nodes += [{"name": f"k{i}", "states": ["0", "1"], "pl": 1.0, "parents": ["r"], "cpt": copy} for i in range(2000)]
    nodes.append({"name": "o", "states": ["0", "1"], "pl": 2.0, "parents": ["r"], "cpt": copy})
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"t0": 0.0, "open_past": False, "nodes": nodes}))
    obs = [a for i in range(2000) for a in ("--obs", f"k{i}=1")]
    code, _, err = cli("query", str(path), "--target", "o=1", *obs, *mode)
    assert code == 4
    assert "and 1995 more nodes has probability zero" in err
    assert len(err) < 200


def test_query_formats_agree_on_numbers(cli, chain_file):
    _, human, _ = cli("query", chain_file, "--target", "x=1", "--threshold", "4.0")
    _, csv, _ = cli("query", chain_file, "--target", "x=1", "--threshold", "4.0", "--format", "csv")
    human_numbers = [line.split("=")[1] for line in human.strip().splitlines()[:2]]
    csv_numbers = csv.strip().splitlines()[1].split(",")[:2]
    assert human_numbers == csv_numbers


def test_query_json_format_is_machine_readable(cli, chain_file):
    _, out, _ = cli("query", chain_file, "--target", "x=1", "--threshold", "4.0", "--format", "json")
    payload = json.loads(out)
    assert payload["exactness"] == "not_exact"
    assert 0.0 <= payload["lower"] <= payload["upper"] <= 1.0


_GENERATED_QUERIES = {
    "random": ("--target", "n09=1", "--obs", "n02=0"),
    "fragment": ("--target", "x_t+1=1", "--obs", "y_t=1", "--obs", "y_t-1=1", "--obs", "y_t-2=1"),
}
_OPEN_PAST = (5, "", "error: the full-past threshold needs a closed past (roots with priors)\n")
_BOUNDS_CSV_HEADER = "lower,upper,exactness,frontier_size,interior_size\n"

# every query form in every format, byte for byte, on `gen-random --seed 7`
# and on the fragment `gen-hmm --depth 5 --window 3`, whose open past has
# no full-past bracket
QUERY_OUTPUTS = {
    ("random", "--threshold=5"): {
        "human": "lower=0.234169390\nupper=0.626325655\nexactness=not_exact\nfrontier_size=1\ninterior_size=1\n",
        "csv": _BOUNDS_CSV_HEADER + "0.234169390,0.626325655,not_exact,1,1\n",
        "json": '{"threshold": "5", "lower": 0.23416938951046978, "upper": 0.6263256547246121, '
        '"exactness": "not_exact", "frontier_size": 1, "interior_size": 1}\n',
    },
    ("random", "--at-pl-of=n04"): {
        "human": "lower=0.379838249\nupper=0.443108337\nexactness=not_exact\nfrontier_size=1\ninterior_size=2\n",
        "csv": _BOUNDS_CSV_HEADER + "0.379838249,0.443108337,not_exact,1,2\n",
        "json": '{"threshold": "4", "lower": 0.3798382489877766, "upper": 0.4431083369120895, '
        '"exactness": "not_exact", "frontier_size": 1, "interior_size": 2}\n',
    },
    ("random", "--exact"): {
        "human": "exact=0.423515370\n",
        "csv": "exact\n0.423515370\n",
        "json": '{"exact": 0.42351536966945597}\n',
    },
    ("random", "--threshold=-inf"): {
        "human": "lower=0.423515370\nupper=0.423515370\nexactness=full_past\nfrontier_size=0\ninterior_size=5\n",
        "csv": _BOUNDS_CSV_HEADER + "0.423515370,0.423515370,full_past,0,5\n",
        "json": '{"threshold": "-inf", "lower": 0.42351536966945597, "upper": 0.42351536966945597, '
        '"exactness": "full_past", "frontier_size": 0, "interior_size": 5}\n',
    },
    ("fragment", "--threshold=-3"): {
        "human": "lower=0.643396226\nupper=0.873234201\nexactness=not_exact\nfrontier_size=1\ninterior_size=5\n",
        "csv": _BOUNDS_CSV_HEADER + "0.643396226,0.873234201,not_exact,1,5\n",
        "json": '{"threshold": "-3", "lower": 0.6433962264150944, "upper": 0.8732342007434944, '
        '"exactness": "not_exact", "frontier_size": 1, "interior_size": 5}\n',
    },
    ("fragment", "--at-pl-of=y_t-1"): {
        "human": "lower=0.346153846\nupper=0.878378378\nexactness=not_exact\nfrontier_size=1\ninterior_size=4\n",
        "csv": _BOUNDS_CSV_HEADER + "0.346153846,0.878378378,not_exact,1,4\n",
        "json": '{"threshold": "-2.5", "lower": 0.34615384615384615, "upper": 0.8783783783783785, '
        '"exactness": "not_exact", "frontier_size": 1, "interior_size": 4}\n',
    },
    ("fragment", "--exact"): _OPEN_PAST,
    ("fragment", "--threshold=-inf"): _OPEN_PAST,
}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    d = tmp_path_factory.mktemp("generated")
    assert plif.cli.main(["gen-random", "--seed", "7", "--out", str(d / "random.json")]) == 0
    assert plif.cli.main(["gen-hmm", "--depth", "5", "--window", "3", "--out", str(d / "fragment.json")]) == 0
    return d


@pytest.mark.parametrize("fmt", ["human", "csv", "json"])
@pytest.mark.parametrize("net, mode", QUERY_OUTPUTS)
def test_every_query_form_prints_its_pinned_bytes(cli, generated, net, mode, fmt):
    expected = QUERY_OUTPUTS[net, mode]
    if isinstance(expected, dict):
        expected = (0, expected[fmt], "")
    assert cli("query", str(generated / f"{net}.json"), *_GENERATED_QUERIES[net], mode, "--format", fmt) == expected


def test_query_dump_submodel(cli, chain_file, tmp_path):
    out_path = tmp_path / "sub.json"
    code, _, _ = cli(
        "query", chain_file, "--target", "x=1", "--obs", "y=1",
        "--threshold", "3.0", "--dump-submodel", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    # the frontier t2 is a stub; the evidence y, a genuine root below the
    # threshold, keeps its prior
    assert [n["name"] for n in json.loads(text)["nodes"]] == ["x", "t1", "t2", "y"]
    net = load_network(Path(chain_file).read_text())
    assert text == serialize(materialize(net, Query({"x": "1"}, {"y": "1"}), 3.0)) + "\n"
    reloaded = load_network(text)
    assert reloaded.open_past
    assert reloaded.spec("t2").is_stub
    assert reloaded.spec("y") == net.spec("y")


def test_query_exact_dumps_the_full_past_submodel(cli, tmp_path):
    net_path, out_path = tmp_path / "random.json", tmp_path / "sub.json"
    assert cli("gen-random", "--seed", "7", "--nodes", "10", "--out", str(net_path))[0] == 0
    flags = ("query", str(net_path), "--target", "n09=1", "--exact")
    _, plain, _ = cli(*flags)
    code, dumped, _ = cli(*flags, "--dump-submodel", str(out_path))
    assert code == 0
    assert dumped == plain
    doc = json.loads(out_path.read_text())
    assert all(n["cpt"] is not None for n in doc["nodes"])
    assert "n09" in {n["name"] for n in doc["nodes"]}


def test_query_bad_pair_is_usage_error(cli, chain_file):
    code, _, err = cli("query", chain_file, "--target", "x", "--threshold", "4.0")
    assert code == 2
    assert "usage error" in err


def test_query_unknown_node_exits_1(cli, chain_file):
    code, _, _ = cli("query", chain_file, "--target", "zz=1", "--threshold=-inf")
    assert code == 1


def test_sweep_hmm_csv_rows(cli):
    code, out, _ = cli("sweep", "--hmm", "--depth", "10", "--window", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "threshold,lower,upper,frontier_size,interior_size,exactness"
    assert len(lines) == 11
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert float(rows["-3"][1]) > 0.5
    assert float(rows["-1"][1]) < 0.5 and float(rows["-2"][1]) < 0.5


def test_sweep_depth_one_reads_transition_column(cli):
    code, out, _ = cli("sweep", "--hmm", "--depth", "1", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1] == "-1,0.100000000,0.900000000,1,1,not_exact"


def test_sweep_csv_and_human_numbers_match(cli):
    _, human, _ = cli("sweep", "--hmm", "--depth", "4")
    _, csv, _ = cli("sweep", "--hmm", "--depth", "4", "--format", "csv")
    human_rows = [line.split() for line in human.strip().splitlines()[1:]]
    csv_rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    for h, c in zip(human_rows, csv_rows):
        assert h[:3] == c[:3]


def test_sweep_on_file_stops_early_and_full_sweep_overrides(cli, chain_file):
    _, short, _ = cli("sweep", chain_file, "--target", "x=1", "--obs", "y=1", "--format", "csv")
    _, full, _ = cli(
        "sweep", chain_file, "--target", "x=1", "--obs", "y=1", "--format", "csv", "--full-sweep"
    )
    assert len(short.strip().splitlines()) == 4   # header + 3 rows
    assert len(full.strip().splitlines()) == 5    # sentinel row included
    assert full.strip().splitlines()[-1].startswith("-inf,")


def test_sweep_csv_last_column_shows_why_the_sweep_stopped(cli, chain_file):
    _, out, _ = cli("sweep", chain_file, "--target", "x=1", "--obs", "y=1", "--format", "csv")
    column = [line.rsplit(",", 1)[1] for line in out.strip().splitlines()]
    assert column == ["exactness", "not_exact", "not_exact", "frontier_subset_of_evidence"]


def test_sweep_needs_path_or_hmm(cli):
    code, _, err = cli("sweep", "--target", "x=1")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--target", "x_t+1=0"], "--target"),
        (["--obs", "y_t=0"], "--obs"),
        (["FILE"], "network path"),
    ],
    ids=["target", "obs", "path"],
)
def test_sweep_hmm_rejects_query_flags(cli, chain_file, extra, flag):
    argv = [chain_file if a == "FILE" else a for a in extra]
    code, out, err = cli("sweep", "--hmm", "--depth", "3", *argv, "--format", "csv")
    assert code == 2
    assert out == ""
    assert f"sweep takes no {flag}" in err


@pytest.mark.parametrize("flag, value", [("--window", "5"), ("--stay", "0.7"), ("--emit", "0.6")])
def test_sweep_on_file_rejects_chain_flags(cli, chain_file, flag, value):
    code, out, err = cli("sweep", chain_file, "--target", "x=1", flag, value, "--format", "csv")
    assert code == 2
    assert out == ""
    assert f"sweep takes no {flag}" in err


def test_sweep_frontier_cap_env_var(cli, chain_file, tmp_path):
    code, _, err = cli(
        "sweep", chain_file, "--target", "x=1", "--format", "csv",
        env={"PLIF_MAX_FRONTIER": "1"},
    )
    assert code == 5
    assert "frontier too wide" in err
    # a cap met at a later step keeps the rows certified before it
    doc = str(tmp_path / "r113.json")
    assert cli("gen-random", "--seed", "113", "--nodes", "10", "--out", doc)[0] == 0
    code, out, err = cli(
        "sweep", doc, "--target", "n08=0", "--full-sweep", "--format", "csv",
        env={"PLIF_MAX_FRONTIER": "2"},
    )
    assert code == 5
    assert out == "threshold,lower,upper,frontier_size,interior_size,exactness\n8,0.286201231,0.319429120,1,1,not_exact\n"
    assert err == "error: frontier too wide: 6 clamp assignments exceed the cap of 2\n"


@pytest.mark.parametrize(
    "raw, code, message",
    [
        ("1", 5, "frontier too wide: 2 clamp assignments exceed the cap of 1"),
        ("abc", 2, "PLIF_MAX_FRONTIER must be an integer, got 'abc'"),
    ],
    ids=["cap-1", "not-an-integer"],
)
def test_sweep_hmm_reads_the_frontier_cap_env_var(cli, raw, code, message):
    got, out, err = cli("sweep", "--hmm", "--depth", "3", env={"PLIF_MAX_FRONTIER": raw})
    assert got == code
    assert out == ""
    assert message in err


def test_frontier_cap_env_var_below_one_is_a_usage_error(cli, chain_file):
    for raw in ("0", "-3"):
        code, _, err = cli(
            "query", chain_file, "--target", "x=1", "--threshold", "4.0",
            env={"PLIF_MAX_FRONTIER": raw},
        )
        assert code == 2
        assert "PLIF_MAX_FRONTIER must be at least 1" in err


def test_sweep_depth_below_one_is_a_usage_error(cli, chain_file):
    for route in ((chain_file, "--target", "x=1"), ("--hmm",)):
        for depth in ("0", "-1"):
            code, _, err = cli("sweep", *route, "--depth", depth)
            assert code == 2
            assert f"--depth must be at least 1, got {depth}" in err


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_gen_hmm_depth_below_one_is_a_usage_error(cli, tmp_path, depth):
    out = tmp_path / "frag.json"
    code, stdout, err = cli("gen-hmm", "--depth", depth, "--out", str(out))
    assert code == 2
    assert f"--depth must be at least 1, got {depth}" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("query", "{net}", "--target", "x=1", "--threshold", "3.0", "--dump-submodel", "{out}"),
        ("gen-random", "--seed", "7", "--out", "{out}"),
        ("gen-hmm", "--depth", "2", "--out", "{out}"),
    ],
    ids=["dump-submodel", "gen-random", "gen-hmm"],
)
def test_unwritable_output_is_a_usage_error(cli, chain_file, tmp_path, argv):
    out = str(tmp_path / "missing" / "out.json")
    code, stdout, err = cli(*(a.format(net=chain_file, out=out) for a in argv))
    assert code == 2
    assert err.startswith(f"usage error: cannot write {out!r}: ")
    assert stdout == ""


def test_intermediate_factor_cap_exits_5(cli, chain_file, monkeypatch):
    monkeypatch.setattr("plif.infer.MAX_JOINT_CELLS", 3)
    code, _, err = cli("query", chain_file, "--target", "x=1", "--threshold", "2")
    assert code == 5
    assert "intermediate factor too large" in err


@pytest.mark.parametrize(
    "argv", [("sweep", "--hmm", "--depth", "10"), ("gen-hmm", "--depth", "10")], ids=["sweep-hmm", "gen-hmm"]
)
def test_expansion_cap_exits_5(cli, monkeypatch, argv):
    monkeypatch.setattr("plif.retrieval.MAX_NODES", 5)
    code, out, err = cli(*argv)
    assert code == 5
    assert out == ""
    assert "resolved more than 5 nodes" in err


_RAISED = [
    (errors.NetworkFormatError("bad json"), 1, "error: bad json\n"),
    (errors.UnknownNodeError("unknown node: 'q'"), 1, "error: unknown node: 'q'\n"),
    (errors.UnknownStateError("no state '7'"), 1, "error: no state '7'\n"),
    (
        errors.InvalidNetworkError([Violation("cpt-row-sum", "row 0 of 'a'"), Violation("acyclic", "a -> a")]),
        2,
        "cpt-row-sum: row 0 of 'a'\nacyclic: a -> a\n",
    ),
    (errors.QueryError("--target names 'a' twice"), 2, "usage error: --target names 'a' twice\n"),
    (
        errors.ThresholdError(3.0, 2.0, "x"),
        3,
        "error: threshold 3 is above the critical potential level 2 (objective node 'x'); pick a threshold <= 2\n",
    ),
    (errors.ZeroEvidenceError("evidence {} has probability zero"), 4, "error: evidence {} has probability zero\n"),
    (errors.NoStartNodesError("nothing to start from"), 5, "error: nothing to start from\n"),
    (
        errors.FrontierTooWideError(10, 5),
        5,
        "error: frontier too wide: 10 clamp assignments exceed the cap of 5\n",
    ),
    (
        errors.FactorTooLargeError(10, 5),
        5,
        "error: intermediate factor too large: 10 cells exceed the cap of 5\n",
    ),
    (errors.ExpansionCapError("resolved too much"), 5, "error: resolved too much\n"),
    (errors.OpenPastError("open past"), 5, "error: open past\n"),
    (errors.PlifError("anything else"), 5, "error: anything else\n"),
]


@pytest.mark.parametrize("exc, code, stderr", _RAISED, ids=[type(e).__name__ for e, _, _ in _RAISED])
def test_every_error_class_exits_with_its_code_and_one_report(cli, chain_file, monkeypatch, exc, code, stderr):
    def read(path):
        raise exc

    monkeypatch.setattr(plif.cli, "_read", read)
    assert cli("validate", chain_file) == (code, "", stderr)
    if isinstance(exc, errors.PlifError):
        assert type(exc).exit_code == code


def test_an_unexpected_error_propagates_with_its_traceback(cli, chain_file, monkeypatch):
    # only a PlifError is a reported outcome; any other exception is a
    # fault in plif, so main lets it through rather than call it a usage error
    def read(path):
        raise ValueError("a missed check")

    monkeypatch.setattr(plif.cli, "_read", read)
    with pytest.raises(ValueError, match="a missed check"):
        cli("validate", chain_file)


def test_the_exit_code_table_covers_every_error_class():
    classes = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.PlifError)}
    assert classes == {type(e) for e, _, _ in _RAISED if isinstance(e, errors.PlifError)}


def test_dsep_chain_separated(cli, chain_file):
    code, out, _ = cli("dsep", chain_file, "-A", "x", "-B", "y", "-C", "t1")
    assert code == 0
    assert out.strip() == "true"


def test_dsep_collider_conditioned_not_separated(cli, tmp_path):
    from conftest import COLLIDER_DOC

    path = tmp_path / "collider.json"
    path.write_text(json.dumps(COLLIDER_DOC))
    code, out, _ = cli("dsep", str(path), "-A", "a", "-B", "b", "-C", "c")
    assert code == 6
    assert out.strip() == "false"


def test_dsep_overlapping_sets_usage_error(cli, chain_file):
    code, _, err = cli("dsep", chain_file, "-A", "x", "-B", "y", "-C", "x")
    assert code == 2
    assert "usage error" in err


def test_dsep_unknown_node_exits_1(cli, chain_file):
    code, _, _ = cli("dsep", chain_file, "-A", "x", "-B", "nope")
    assert code == 1


def test_gen_random_emits_loadable_deterministic_document(cli):
    code, out1, _ = cli("gen-random", "--seed", "4", "--nodes", "6")
    code2, out2, _ = cli("gen-random", "--seed", "4", "--nodes", "6")
    assert code == code2 == 0
    assert out1 == out2
    net = load_network(out1)
    assert len(net) == 6


_HMM_DEFAULTS = ("--window", "10", "--stay", "0.9", "--emit", "0.8")


@pytest.mark.parametrize(
    "bare, spelled, document",
    [
        (
            ("gen-hmm",),
            ("gen-hmm", "--depth", "10", *_HMM_DEFAULTS),
            lambda: materialize(hmm_model(), hmm_query(), -10),
        ),
        (
            ("gen-hmm", "--depth", "3"),
            ("gen-hmm", "--depth", "3", *_HMM_DEFAULTS),
            lambda: materialize(hmm_model(), hmm_query(), -3),
        ),
        (
            ("gen-random", "--seed", "7"),
            ("gen-random", "--seed", "7", "--nodes", "10", "--max-parents", "3", "--states", "3", "--cpt-floor", "0.05"),
            lambda: random_network(RandomNetSpec(seed=7)),
        ),
    ],
    ids=["gen-hmm", "gen-hmm-depth-3", "gen-random-seed-7"],
)
def test_a_generator_without_flags_prints_the_bytes_of_its_records_defaults(cli, bare, spelled, document):
    # the records hold the defaults: a flag left out is the record's own default
    out = cli(*bare)
    assert out == cli(*spelled) == (0, serialize(document()) + "\n", "")

@pytest.mark.parametrize(
    "args",
    [
        ("gen-random", "--seed", "1", "--nodes", "40"),
        ("gen-random", "--seed", "-1"),
        ("gen-random", "--seed", "1", "--cpt-floor", "nan"),
        ("gen-hmm", "--stay", "1.5"),
        ("sweep", "--hmm", "--window", "0"),
    ],
    ids=["nodes-40", "seed-minus-1", "cpt-floor-nan", "gen-hmm-stay-1.5", "sweep-hmm-window-0"],
)
def test_gen_random_rejects_oversized(cli, args):
    # the generators' argument checks raise QueryError: a usage error, not a traceback
    code, out, err = cli(*args)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")
    assert "Traceback" not in err


def test_gen_hmm_fragment_is_queryable(cli, tmp_path):
    out_path = tmp_path / "frag.json"
    code, _, _ = cli("gen-hmm", "--depth", "3", "--window", "2", "--out", str(out_path))
    assert code == 0
    net = load_network(out_path.read_text())
    assert net.open_past
    code, out, _ = cli(
        "query", str(out_path), "--target", "x_t+1=1",
        "--obs", "y_t=1", "--obs", "y_t-1=1", "--threshold", "-3",
    )
    assert code == 0
    assert "lower=0.643396226" in out
    assert "upper=0.873234201" in out


def test_cli_outputs_are_byte_identical_across_runs(cli, chain_file):
    first = cli("sweep", chain_file, "--target", "x=1", "--obs", "y=1", "--format", "csv")
    second = cli("sweep", chain_file, "--target", "x=1", "--obs", "y=1", "--format", "csv")
    assert first == second


def test_in_process_calls_share_one_parser(cli):
    assert plif.cli._build_parser() is plif.cli._build_parser()
    argv = ("sweep", "--hmm", "--depth", "3", "--format", "csv")
    first = cli(*argv)
    assert first[0] == 0 and len(first[1].splitlines()) == 4
    # a usage error in between leaves nothing behind in the shared parser
    code, out, err = cli("sweep", "--hmm", "--depth", "0")
    assert (code, out) == (2, "") and "--depth must be at least 1" in err
    assert cli(*argv) == first


def test_module_entry_point_runs_as_subprocess(two_node_file):
    proc = subprocess.run(
        [sys.executable, "-m", "plif", "query", two_node_file, "--target", "e=1", "--exact"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "exact=0.310000000"


def test_a_reader_that_closes_the_pipe_early_ends_the_sweep_quietly():
    # 5,000 rows overflow the pipe's buffer, so the sweep writes after the
    # reader is gone, as under `plif sweep ... | head -n 1`
    argv = [sys.executable, "-m", "plif", "sweep", "--hmm", "--depth", "5000", "--window", "5000", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "threshold,lower,upper,frontier_size,interior_size,exactness\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == ""


def test_ci_checks_script_passes(tmp_path):
    # the workflow's end-to-end checks, with plif resolved to python -m plif
    shim = tmp_path / "plif"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m plif "$@"\n')
    shim.chmod(0o755)
    (tmp_path / "python").symlink_to(sys.executable)
    script = Path(__file__).with_name("cli_checks.sh")
    # the plif these tests import, wherever the checks run from
    path = [str(Path(plif.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PATH": f"{tmp_path}{os.pathsep}{os.environ['PATH']}", "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(["bash", str(script)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("unwritable dump check: exit 2")
