"""The coupled k-chain dynamic Bayesian network (a 2-TBN in the style of
Murphy 2002, *Dynamic Bayesian Networks*), served lazily through plif's
resolver interface.

There are ``k`` binary hidden chains with an unbounded past. The hidden
node ``x<i>_t<s>`` has the parents ``x<i>_t<s-1>`` and
``x<(i+1) mod k>_t<s-1>``, and one observation child ``y<i>_t<s>``. All
hidden nodes of one step share a potential level, so every threshold
below the first step clamps all k chains at once: 2^k frontier clamps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from plif import LazyNetwork, NodeSpec, Query
from plif.errors import UnknownNodeError

K = 8
WINDOW = 32
# P(x_i = 1 | own previous state, neighbour's previous state), before the
# seeded jitter; both parents pull the chain, so it mixes in ~20 steps
BASE_P_ONE = np.array([[0.2, 0.45], [0.55, 0.8]])
JITTER = 0.05
EMIT_RANGE = (0.7, 0.9)

_NAME = re.compile(r"^([xy])(\d+)_t(?:([+-]\d+))?$")


def node_name(var: str, chain: int, step: int) -> str:
    return f"{var}{chain}_t" + ("" if step == 0 else f"{step:+d}")


@dataclass(frozen=True)
class KChain:
    """One seeded instance: CPTs and the observed window.

    ``trans[i, a, b]`` is P(x_i,s = 1 | x_i,s-1 = a, x_i+1,s-1 = b);
    ``emit[i]`` is P(y_i,s = x_i,s); ``obs[i, j]`` is the observed
    y_i,-j for j < ``WINDOW``.
    """

    trans: np.ndarray
    emit: np.ndarray
    obs: np.ndarray

    @classmethod
    def from_seed(cls, seed: int, k: int = K, window: int = WINDOW) -> "KChain":
        rng = np.random.default_rng(seed)
        trans = BASE_P_ONE[None, :, :] + rng.uniform(-JITTER, JITTER, (k, 2, 2))
        emit = rng.uniform(*EMIT_RANGE, k)
        obs = rng.integers(0, 2, (k, window))
        return cls(trans=trans, emit=emit, obs=obs)

    @property
    def k(self) -> int:
        return self.trans.shape[0]

    def model(self) -> LazyNetwork:
        """A fresh lazy network: its resolver cache starts empty."""
        k = self.k
        # CPT rows enumerate (own, neighbour) with the neighbour fastest
        hidden_cpt = [
            tuple((1.0 - float(p), float(p)) for p in self.trans[i].reshape(-1)) for i in range(k)
        ]
        emit_cpt = [((float(e), 1.0 - float(e)), (1.0 - float(e), float(e))) for e in self.emit]

        def resolve(name: str) -> NodeSpec:
            m = _NAME.match(name)
            if not m or int(m.group(2)) >= k:
                raise UnknownNodeError(f"unknown node: {name!r}")
            var, chain, raw = m.group(1), int(m.group(2)), m.group(3)
            step = int(raw) if raw else 0
            if var == "x":
                return NodeSpec(
                    name=name,
                    states=("0", "1"),
                    parents=(node_name("x", chain, step - 1), node_name("x", (chain + 1) % k, step - 1)),
                    cpt=hidden_cpt[chain],
                    pl=float(step - 2),
                )
            return NodeSpec(
                name=name,
                states=("0", "1"),
                parents=(node_name("x", chain, step),),
                cpt=emit_cpt[chain],
                pl=step - 1.5,
            )

        return LazyNetwork(resolver=resolve, t0=float("-inf"), open_past=True)

    def query(self) -> Query:
        """P(x0 at the next step is 1 | every observation in the window)."""
        evidence = {
            node_name("y", i, -j): str(int(self.obs[i, j]))
            for i in range(self.k)
            for j in range(self.obs.shape[1])
        }
        return Query(objective={node_name("x", 0, 1): "1"}, evidence=evidence)
