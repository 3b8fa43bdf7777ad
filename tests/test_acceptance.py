"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

The shared corpus is 500 seeded random networks (3-12 nodes, 2-3 states,
up to 3 parents) with one random query each, swept over the full default
threshold schedule.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import oracles
from conftest import CHAIN_DOC
from plif import (
    HmmParams,
    Query,
    QueryBounds,
    RandomNetSpec,
    Threshold,
    anytime_sweep,
    bounds_at,
    d_separated,
    default_schedule,
    hmm_sweep_experiment,
    load_network,
    network_to_document,
    random_chain,
    random_network,
    random_query,
    root_set,
)
from plif.cli import main as cli_main
from plif.infer import Exactness, frontier_clamp_table
from plif.retrieval import Walk

CORPUS_SIZE = 500
ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "test_artifacts"


class Step(NamedTuple):
    threshold: Threshold
    rs: Walk
    bounds: QueryBounds


class Record(NamedTuple):
    seed: int
    net: object
    query: Query
    exact: float
    steps: list[Step]


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def corpus():
    start = time.perf_counter()
    records: list[Record] = []
    for seed in range(CORPUS_SIZE):
        spec = RandomNetSpec(
            seed=seed, node_count=3 + seed % 10, state_count=2 + seed % 2
        )
        net = random_network(spec)
        query = random_query(net, seed + 1_000_000)
        names, joint = oracles.net_joint(net)
        exact = oracles.joint_conditional(net, names, joint, query.objective, query.evidence)
        steps = [
            Step(th, root_set(net, query, th), bounds_at(net, query, th))
            for th in default_schedule(net, query)
        ]
        records.append(Record(seed, net, query, exact, steps))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_01_hmm_lower_bound_crosses_half_at_three_steps(capsys):
    start = time.perf_counter()
    code = cli_main(["sweep", "--hmm", "--depth", "10", "--window", "10", "--format", "csv"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    lowers = {row[0]: float(row[1]) for row in rows}
    ok = (
        len(rows) == 10
        and lowers["-3"] > 0.5
        and lowers["-1"] <= 0.5
        and lowers["-2"] <= 0.5
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, ok, f"10-step sweep crosses 0.5 first at threshold -3 ({elapsed:.3f}s)")
    assert lowers["-3"] > 0.5
    assert lowers["-1"] <= 0.5 and lowers["-2"] <= 0.5
    assert elapsed < 1.0


def test_criterion_02_hmm_interval_values():
    frozen = {
        -1.0: (0.1, 0.9),
        -2.0: (0.346154, 0.878378),
        -3.0: (0.643365, 0.873239),
    }
    rows = hmm_sweep_experiment(HmmParams(), depth=3)
    ok = True
    for depth, qb in enumerate(rows, start=1):
        lo_ref = oracles.hmm_clamp_filter(0.9, 0.8, 0, depth, 10)
        hi_ref = oracles.hmm_clamp_filter(0.9, 0.8, 1, depth, 10)
        lo_frozen, hi_frozen = frozen[qb.threshold.v]
        ok = ok and abs(qb.lower - lo_ref) < 1e-9 and abs(qb.upper - hi_ref) < 1e-9
        ok = ok and abs(qb.lower - lo_frozen) < 1e-4 and abs(qb.upper - hi_frozen) < 1e-4
    _report(2, ok, "first three intervals match the forward-filter oracle")
    for depth, qb in enumerate(rows, start=1):
        assert qb.lower == pytest.approx(oracles.hmm_clamp_filter(0.9, 0.8, 0, depth, 10), abs=1e-9)
        assert qb.upper == pytest.approx(oracles.hmm_clamp_filter(0.9, 0.8, 1, depth, 10), abs=1e-9)
        lo_frozen, hi_frozen = frozen[qb.threshold.v]
        assert qb.lower == pytest.approx(lo_frozen, abs=1e-4)
        assert qb.upper == pytest.approx(hi_frozen, abs=1e-4)


def test_criterion_03_bounds_bracket_exact_values(corpus):
    records, build_seconds = corpus
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for rec in records:
        for step in rec.steps:
            checked += 1
            assert step.bounds.lower - 1e-9 <= rec.exact <= step.bounds.upper + 1e-9
            worst = max(worst, step.bounds.lower - rec.exact, rec.exact - step.bounds.upper)
    elapsed = build_seconds + (time.perf_counter() - start)
    ok = elapsed < 120.0
    _report(
        3,
        ok,
        f"{checked} bracketings over {len(records)} networks hold "
        f"(worst slack {worst:.2e}, {elapsed:.1f}s)",
    )
    assert checked >= CORPUS_SIZE
    assert elapsed < 120.0


def test_criterion_04_submodel_conditionals_match_full_network(corpus):
    records, _ = corpus
    compared = 0
    for rec in records:
        names, joint = oracles.net_joint(rec.net)

        def idx(assignment):
            return {n: rec.net.spec(n).states.index(s) for n, s in assignment.items()}

        for step in rec.steps:
            scan, num, den = frontier_clamp_table(step.rs)
            observed = {
                e: rec.query.evidence[e]
                for e in step.rs.evidence_plus.keys() | step.rs.evidence_in_frontier.keys()
            }
            base = idx(observed)
            oracle_den = oracles.joint_marginal(names, joint, base, list(scan))
            oracle_num = oracles.joint_marginal(
                names, joint, {**base, **idx(rec.query.objective)}, list(scan)
            )
            feasible = oracle_den > 0.0
            # the submodel must define a value wherever the full network does
            assert bool(np.all(den[feasible] > 0.0))
            got = num[feasible] / den[feasible]
            want = oracle_num[feasible] / oracle_den[feasible]
            assert bool(np.all(np.abs(got - want) < 1e-9))
            compared += int(feasible.sum())
    _report(4, True, f"{compared} frontier clamps agree with the full-network conditionals")


def test_criterion_05_frontier_screens_off_dropped_evidence(corpus):
    records, _ = corpus
    checked = 0
    for rec in records:
        for step in rec.steps:
            if not step.rs.evidence_minus:
                continue
            checked += 1
            assert d_separated(
                rec.net,
                set(rec.query.objective),
                step.rs.evidence_minus,
                step.rs.frontier.keys() | step.rs.evidence_plus.keys(),
            )
    _report(5, True, f"{checked} retrievals with dropped evidence are screened off")
    assert checked > 0


def test_criterion_06_exactness_flags_are_sound(corpus):
    records, _ = corpus
    flagged = 0
    for rec in records:
        for step in rec.steps:
            if step.bounds.exactness.is_exact:
                flagged += 1
                assert step.bounds.lower == pytest.approx(rec.exact, abs=1e-9)
                assert step.bounds.upper - step.bounds.lower < 1e-9
    chain = load_network(json.dumps(CHAIN_DOC))
    q = Query({"x": "1"}, {"y": "1"})
    qb = bounds_at(chain, q, Threshold(2.0))
    both = (
        qb.exactness is Exactness.FRONTIER_SUBSET_OF_EVIDENCE
        and abs(qb.upper - qb.lower) < 1e-9
    )
    _report(6, both, f"{flagged} exact-flagged results match the oracle; evidence-frontier chain meets both conditions")
    assert flagged > 0
    assert qb.exactness is Exactness.FRONTIER_SUBSET_OF_EVIDENCE
    assert abs(qb.upper - qb.lower) < 1e-9  # coincidence condition holds simultaneously


def test_criterion_07_chains_tighten_strictly():
    rng = np.random.default_rng(2026)
    pairs = 0
    for seed in range(100):
        net = random_chain(seed=seed)
        objective = {"c3": str(rng.integers(0, 2))}
        evidence = {"c0": str(rng.integers(0, 2))}
        query = Query(objective, evidence)
        rows = [
            bounds_at(net, query, th) for th in default_schedule(net, query)
        ]
        rows = rows[:3]  # pl 3, 2, then the frontier hits the evidence
        for shallow, deep in zip(rows, rows[1:]):
            pairs += 1
            assert deep.lower > shallow.lower
            assert deep.upper < shallow.upper
    _report(7, True, f"{pairs} consecutive chain intervals strictly nest over 100 chains")
    assert pairs == 200


def test_criterion_08_weak_tightening_reported_not_asserted(corpus):
    records, _ = corpus
    violations = []
    pairs = 0
    for rec in records:
        for shallow, deep in zip(rec.steps, rec.steps[1:]):
            pairs += 1
            if (
                deep.bounds.lower < shallow.bounds.lower - 1e-9
                or deep.bounds.upper > shallow.bounds.upper + 1e-9
            ):
                violations.append(
                    {
                        "seed": rec.seed,
                        "query": {
                            "objective": dict(rec.query.objective),
                            "evidence": dict(rec.query.evidence),
                        },
                        "shallow_threshold": shallow.threshold.v,
                        "deep_threshold": deep.threshold.v,
                        "shallow_interval": [shallow.bounds.lower, shallow.bounds.upper],
                        "deep_interval": [deep.bounds.lower, deep.bounds.upper],
                        "network": network_to_document(rec.net),
                    }
                )
    if violations:
        ARTIFACT_DIR.mkdir(exist_ok=True)
        path = ARTIFACT_DIR / "weak_tightening_violations.json"
        path.write_text(json.dumps(violations, indent=2))
        detail = (
            f"{len(violations)}/{pairs} consecutive intervals fail containment; "
            f"counterexamples written to {path}"
        )
    else:
        detail = f"all {pairs} consecutive intervals nest within 1e-9"
    _report(8, True, detail)  # empirical, non-blocking by design


def test_criterion_09_full_past_threshold_converges(corpus):
    records, _ = corpus
    for rec in records:
        final = rec.steps[-1]
        assert final.threshold.is_full_past
        assert final.bounds.lower == pytest.approx(rec.exact, abs=1e-9)
        assert final.bounds.upper == pytest.approx(rec.exact, abs=1e-9)
    _report(9, True, f"all {len(records)} full-past retrievals collapse onto the exact value")


def test_criterion_10_dsep_implies_numeric_independence(corpus):
    records, _ = corpus
    found = 0
    worst = 0.0
    for rec in records[:200]:
        names, joint = oracles.net_joint(rec.net)
        rng = np.random.default_rng(rec.seed + 77)
        for _ in range(8):
            if len(names) < 2:
                break
            picks = [names[int(i)] for i in rng.permutation(len(names))]
            a, b = picks[0], picks[1]
            cond = sorted(picks[2 : 2 + int(rng.integers(0, 3))])
            if not d_separated(rec.net, {a}, {b}, cond):
                continue
            found += 1
            gap = oracles.ci_gap(rec.net, names, joint, a, b, cond)
            worst = max(worst, gap)
            assert gap < 1e-9
    _report(
        10,
        True,
        f"{found} separated triples over 200 networks are numerically independent "
        f"(worst gap {worst:.2e})",
    )
    assert found >= 100


def test_incremental_sweep_matches_one_shot_on_corpus(corpus):
    # not a criterion: every row of one sweep that carries its walk and
    # clamp table across thresholds equals the fresh per-threshold bounds_at
    records, _ = corpus
    rows = 0
    for rec in records:
        schedule = default_schedule(rec.net, rec.query)
        swept = anytime_sweep(rec.net, rec.query, schedule, stop_on_exact=False)
        assert len(swept) == len(rec.steps)
        for qb, step in zip(swept, rec.steps):
            rows += 1
            ref = step.bounds
            assert qb.threshold == ref.threshold
            assert qb.lower == pytest.approx(ref.lower, abs=1e-12)
            assert qb.upper == pytest.approx(ref.upper, abs=1e-12)
            assert qb.exactness is ref.exactness
            assert (qb.frontier_size, qb.interior_size) == (ref.frontier_size, ref.interior_size)
    assert rows > len(records)
