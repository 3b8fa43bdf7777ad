"""Brackets against exact rationals on small hostile networks.

Each seeded closed-past network has 2-6 nodes with 2-3 states, and its
rows come from one family: some entries exactly zero, near-deterministic
(ε down to 1e-14), or plain. A full default sweep (``stop_on_exact=False``)
is checked against :func:`oracles.exact_conditional`, which enumerates
the joint in :class:`fractions.Fraction` arithmetic: every row must hold
the rational truth within 2^-40, every row flagged exact must equal it
within 2^-40, and :class:`ZeroEvidenceError` must be raised exactly when
the evidence has probability zero.
"""

from __future__ import annotations

import random

import pytest

import oracles
from conftest import make_net
from plif import NodeSpec, Query, ZeroEvidenceError, anytime_sweep

SLACK = 2.0**-40
NETWORKS = 300


def _row(rng: random.Random, family: str, k: int) -> tuple[float, ...]:
    if family == "near":
        eps = 10.0 ** -rng.uniform(1.0, 14.0)
        row = [eps] * k
        row[rng.randrange(k)] = 1.0 - (k - 1) * eps
        return tuple(row)
    weights = [rng.random() + 0.01 for _ in range(k)]
    if family == "zeros":
        keep = rng.randrange(k)
        weights = [w if i == keep or rng.random() < 0.5 else 0.0 for i, w in enumerate(weights)]
    total = sum(weights)
    return tuple(w / total for w in weights)


def _hostile(seed: int):
    """A closed-past network on t0 = 0, whose non-roots sit 1-2 levels
    after their latest parent, and a query: one or two objective nodes
    and up to three evidence nodes."""
    rng = random.Random(f"hostile-{seed}")
    family = rng.choice(("zeros", "near", "plain"))
    specs: list[NodeSpec] = []
    for i in range(rng.randint(2, 6)):
        parents = rng.sample(specs, rng.randint(0, min(i, 3)))
        k = rng.randint(2, 3)
        rows = 1
        for p in parents:
            rows *= len(p.states)
        pl = max((p.pl for p in parents), default=-1.0) + rng.choice((1.0, 2.0)) if parents else 0.0
        cpt = tuple(_row(rng, family, k) for _ in range(rows))
        specs.append(NodeSpec(f"n{i}", tuple(str(s) for s in range(k)), tuple(p.name for p in parents), cpt, pl))
    net = make_net(0.0, False, *specs)
    names = [s.name for s in specs]
    rng.shuffle(names)
    picked = names[: rng.randint(1, min(2, len(names)))]
    observed = names[len(picked) : len(picked) + rng.randint(0, 3)]

    def state(n):
        return str(rng.randrange(len(net.nodes[n].states)))

    return net, Query({n: state(n) for n in picked}, {n: state(n) for n in observed})


def test_sweeps_hold_the_rational_truth_on_hostile_networks():
    zero = rows = 0
    for seed in range(NETWORKS):
        net, q = _hostile(seed)
        truth = oracles.exact_conditional(net, q.objective, q.evidence)
        if truth is None:
            with pytest.raises(ZeroEvidenceError):
                anytime_sweep(net, q, stop_on_exact=False)
            zero += 1
            continue
        for qb in anytime_sweep(net, q, stop_on_exact=False):
            rows += 1
            where = f"seed {seed}, threshold {qb.threshold.v}: [{qb.lower!r}, {qb.upper!r}] against {float(truth)!r}"
            assert qb.lower - SLACK <= truth <= qb.upper + SLACK, where
            if qb.exactness.is_exact:
                assert abs(qb.lower - truth) <= SLACK and abs(qb.upper - truth) <= SLACK, where
    # the slice holds both outcomes, and more rows than networks
    assert 0 < zero < NETWORKS // 2 and rows > NETWORKS
