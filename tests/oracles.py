"""Independent reference computations the engine is tested against.

Nothing here imports engine internals beyond the plain data model; the
probability math is reimplemented from first principles (pure-python
enumeration for small networks, exact rational enumeration, a direct
numpy joint table for the corpus, and a conditioned forward filter for
the unbounded chain).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def _row_index(spec, names_to_state, net) -> int:
    """CPT row for a full parent assignment: odometer order, last parent fastest."""
    idx = 0
    for p in spec.parents:
        idx = idx * len(net.nodes[p].states) + names_to_state[p]
    return idx


def enumerate_joint(net) -> dict[tuple[int, ...], float]:
    """Pure-python joint over all nodes, keyed by state indices in document
    order. Only for small networks."""
    names = list(net.nodes)
    table: dict[tuple[int, ...], float] = {}
    for combo in itertools.product(*(range(len(net.nodes[n].states)) for n in names)):
        by_name = dict(zip(names, combo))
        p = 1.0
        for i, n in enumerate(names):
            spec = net.nodes[n]
            p *= spec.cpt[_row_index(spec, by_name, net)][combo[i]]
        table[combo] = p
    return table


def probability(net, assignment: dict[str, str]) -> float:
    """P(assignment) by summing the pure-python joint."""
    names = list(net.nodes)
    want = {
        names.index(n): net.nodes[n].states.index(s) for n, s in assignment.items()
    }
    total = 0.0
    for combo, p in enumerate_joint(net).items():
        if all(combo[i] == v for i, v in want.items()):
            total += p
    return total


def conditional(net, target: dict[str, str], given: dict[str, str]) -> float:
    return probability(net, {**given, **target}) / probability(net, given)


def exact_conditional(net, target: dict[str, str], given: dict[str, str]) -> Fraction | None:
    """P(target | given) in exact rationals, or None when P(given) is zero.

    Each CPT entry is read as the rational its float denotes, and the
    joint is enumerated over every node of ``net`` with no float
    operation and no pruning. The entries are held as integer multiples
    of one power of two (every float is a dyadic rational), so a joint
    term is an integer product and that power cancels in the ratio.
    Only for small networks."""
    names = list(net.nodes)
    pos = {n: i for i, n in enumerate(names)}
    specs = [net.nodes[n] for n in names]
    unit = max(Fraction(x).denominator for s in specs for row in s.cpt for x in row)
    rows = [[[int(Fraction(x) * unit) for x in row] for row in s.cpt] for s in specs]
    parents = [[pos[p] for p in s.parents] for s in specs]
    fixed = {pos[n]: net.nodes[n].states.index(v) for n, v in given.items()}
    hit = {pos[n]: net.nodes[n].states.index(v) for n, v in target.items()}
    ranges = [(fixed[i],) if i in fixed else range(len(s.states)) for i, s in enumerate(specs)]
    num = den = 0
    for combo in itertools.product(*ranges):
        term = 1
        for i, state in enumerate(combo):
            r = 0
            for p in parents[i]:
                r = r * len(specs[p].states) + combo[p]
            term *= rows[i][r][state]
        den += term
        if all(combo[i] == v for i, v in hit.items()):
            num += term
    return Fraction(num, den) if den else None


def net_joint(net) -> tuple[list[str], np.ndarray]:
    """Full joint as a numpy table, axes in document order."""
    names = list(net.nodes)
    axis = {n: i for i, n in enumerate(names)}
    sizes = [len(net.nodes[n].states) for n in names]
    joint = np.ones(sizes)
    for n, spec in net.nodes.items():
        own = [len(net.nodes[p].states) for p in spec.parents] + [len(spec.states)]
        arr = np.asarray(spec.cpt, dtype=float).reshape(own)
        dims = [axis[p] for p in spec.parents] + [axis[n]]
        order = np.argsort(dims)
        arr = np.transpose(arr, order)
        shape = [1] * len(names)
        for d in (dims[i] for i in order):
            shape[d] = sizes[d]
        joint = joint * arr.reshape(shape)
    return names, joint


def joint_marginal(
    names: list[str],
    joint: np.ndarray,
    clamps: dict[str, int],
    keep: list[str],
) -> np.ndarray:
    """Clamp some axes, sum out all others except ``keep`` (returned in
    ``keep`` order)."""
    idx = tuple(clamps.get(n, slice(None)) for n in names)
    sub = joint[idx]
    remaining = [n for n in names if n not in clamps]
    sum_axes = tuple(i for i, n in enumerate(remaining) if n not in keep)
    out = sub.sum(axis=sum_axes) if sum_axes else sub
    current = [n for n in remaining if n in keep]
    return np.transpose(out, [current.index(k) for k in keep]) if keep else out


def joint_conditional(net, names, joint, target: dict[str, str], given: dict[str, str]) -> float:
    """P(target | given) from the numpy joint ``names, joint = net_joint(net)``:
    the reference for networks too large for ``enumerate_joint``."""

    def mass(assignment: dict[str, str]) -> float:
        clamps = {n: net.nodes[n].states.index(s) for n, s in assignment.items()}
        return float(joint_marginal(names, joint, clamps, []))

    return mass({**given, **target}) / mass(given)


def hmm_clamp_filter(stay: float, emit: float, clamp: int, depth: int, window: int) -> float:
    """P(hidden state at t+1 is 1 | clamped hidden state depth steps back,
    all observations in the window that sit at/above threshold -depth).

    Alternates a transition push with a Bayes update on each observed
    step; the chain's own structure makes observations below the
    threshold irrelevant once the clamp is given.
    """
    pi = float(clamp)
    for j in range(2 - depth, 2):
        pi = pi * stay + (1.0 - pi) * (1.0 - stay)
        if j <= 0 and j >= 1 - window:
            a = pi * emit
            b = (1.0 - pi) * (1.0 - emit)
            pi = a / (a + b)
    return pi


def ci_gap(net, names, joint, a: str, b: str, cond: list[str]) -> float:
    """Largest |P(a,b|c) - P(a|c)P(b|c)| over all state combinations with
    P(c) > 0, from the numpy joint."""
    p_abc = joint_marginal(names, joint, {}, [a, b] + cond)
    p_ac = joint_marginal(names, joint, {}, [a] + cond)
    p_bc = joint_marginal(names, joint, {}, [b] + cond)
    p_c = joint_marginal(names, joint, {}, cond)
    gap = 0.0
    c_sizes = [len(net.spec(n).states) for n in cond]
    for c_idx in np.ndindex(*c_sizes) if cond else [()]:
        pc = p_c[c_idx] if cond else float(p_c)
        if pc == 0.0:
            continue
        for ia in range(len(net.spec(a).states)):
            for ib in range(len(net.spec(b).states)):
                lhs = p_abc[(ia, ib) + c_idx] / pc
                rhs = (p_ac[(ia,) + c_idx] / pc) * (p_bc[(ib,) + c_idx] / pc)
                gap = max(gap, abs(lhs - rhs))
    return gap


def reachable(parents: dict[str, tuple[str, ...]], start: str) -> set[str]:
    """Brute-force ancestor reachability by repeated edge relaxation."""
    edges = [(p, child) for child, ps in parents.items() for p in ps]
    out = {start}
    changed = True
    while changed:
        changed = False
        for p, child in edges:
            if child in out and p not in out:
                out.add(p)
                changed = True
    out.discard(start)
    return out


def ancestor_levels(net, query, max_steps=None) -> list[float]:
    """The thresholds of a default sweep, from the parent lists of a finite
    network: the critical level (the earliest objective node's pl), then
    the distinct pls of the query nodes' strict ancestors below it,
    latest first. Levels at or below ``t0``, or at or below the highest
    truncation stub (no CPT) among the query nodes and their ancestors,
    are dropped; ``-inf`` follows for a closed past, and ``max_steps``
    keeps the first ones."""
    names = set(query.objective) | set(query.evidence)
    strict: set[str] = set()
    todo = [p for n in names for p in net.nodes[n].parents]
    while todo:
        p = todo.pop()
        if p not in strict:
            strict.add(p)
            todo.extend(net.nodes[p].parents)
    floor = max([net.t0] + [net.nodes[n].pl for n in names | strict if net.nodes[n].cpt is None])
    critical = min(net.nodes[n].pl for n in query.objective)
    below = sorted({net.nodes[a].pl for a in strict if net.nodes[a].pl < critical}, reverse=True)
    levels = [v for v in [critical, *below] if v > floor]
    if not net.open_past:
        levels.append(float("-inf"))
    return levels[:max_steps]
