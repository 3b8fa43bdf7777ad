"""Independent reference values the benchmark checks every op against.

Nothing here imports plif: each function recomputes the answer from the
model definition alone, with arithmetic that cannot underflow on the
sizes the workloads use.
"""

from __future__ import annotations

import numpy as np

# a row may miss its reference by at most this much
TOL = 1e-9


def hmm_clamp_filter(stay: float, emit: float, clamp: int, depth: int, window: int) -> float:
    """P(x_t+1 = 1 | x clamped ``depth`` steps back, the all-ones
    observations of the window that sit above the threshold).

    A normalized forward filter: one transition push per step, then a
    Bayes update on each observed step. The belief is renormalized at
    every step, so it never underflows.
    """
    pi = float(clamp)
    for j in range(2 - depth, 2):
        pi = pi * stay + (1.0 - pi) * (1.0 - stay)
        if 1 - window <= j <= 0:
            a = pi * emit
            b = (1.0 - pi) * (1.0 - emit)
            pi = a / (a + b)
    return pi


def hmm_bracket(stay: float, emit: float, depth: int, window: int) -> tuple[float, float]:
    """The bracket at threshold ``-depth``: min and max over both clamps."""
    values = [hmm_clamp_filter(stay, emit, c, depth, window) for c in (0, 1)]
    return min(values), max(values)


def net_conditional(doc: dict, objective: dict[str, str], evidence: dict[str, str]) -> float:
    """P(objective | evidence) from the full numpy joint of a closed-past
    network document (axes in document order)."""
    nodes = doc["nodes"]
    axis = {n["name"]: i for i, n in enumerate(nodes)}
    sizes = [len(n["states"]) for n in nodes]
    joint = np.ones(sizes)
    for n in nodes:
        own = [sizes[axis[p]] for p in n["parents"]] + [sizes[axis[n["name"]]]]
        table = np.asarray(n["cpt"], dtype=float).reshape(own)
        dims = [axis[p] for p in n["parents"]] + [axis[n["name"]]]
        order = np.argsort(dims)
        shape = [1] * len(nodes)
        for d in dims:
            shape[d] = sizes[d]
        joint *= np.transpose(table, order).reshape(shape)  # in place: one joint-sized array

    def mass(assignment: dict[str, str]) -> float:
        idx = [slice(None)] * len(nodes)
        for name, label in assignment.items():
            i = axis[name]
            idx[i] = nodes[i]["states"].index(label)
        return float(joint[tuple(idx)].sum())

    return mass({**evidence, **objective}) / mass(evidence)


def kchain_brackets(trans: np.ndarray, emit: np.ndarray, obs: np.ndarray, depth: int) -> np.ndarray:
    """Brackets of the coupled k-chain query at thresholds -1 .. -depth.

    ``trans[i, a, b]`` is P(x_i,s = 1 | x_i,s-1 = a, x_i+1,s-1 = b),
    ``emit[i]`` is P(y_i,s = x_i,s), and ``obs[i, j]`` is the observed
    y_i,-j. The query is P(x_0,+1 = 1 | obs). The threshold ``-d`` clamps
    the hidden states at step ``1 - d`` and keeps every observation above
    them, so one scaled backward pass over the 2^k joint hidden states
    gives every row: entry ``c`` of the message at step ``1 - d`` is the
    conditional for frontier clamp ``c``. Returns a ``(depth, 2)`` array
    of (min, max) over the clamps.
    """
    k = trans.shape[0]
    states = (np.arange(2**k)[:, None] >> np.arange(k)[None, :]) & 1  # [joint, chain]
    nxt = np.roll(states, -1, axis=1)
    p_one = trans[np.arange(k)[None, :], states, nxt]  # [prev joint, chain]
    # T[a, b] = prod_i P(x_i = b_i | a)
    step = np.ones((2**k, 2**k))
    for i in range(k):
        step *= np.where(states[None, :, i] == 1, p_one[:, i, None], 1.0 - p_one[:, i, None])

    window = obs.shape[1]
    num = states[:, 0].astype(float)
    den = np.ones(2**k)
    out = np.empty((depth, 2))
    for d in range(1, depth + 1):
        s = 2 - d  # the step being summed out; the frontier sits at 1 - d
        if 0 <= -s < window:
            match = states == obs[:, -s][None, :]
            lik = np.prod(np.where(match, emit[None, :], 1.0 - emit[None, :]), axis=1)
        else:
            lik = np.ones(2**k)
        num = step @ (lik * num)
        den = step @ (lik * den)
        scale = den.max()
        num, den = num / scale, den / scale
        ratios = num / den
        out[d - 1] = ratios.min(), ratios.max()
    return out
