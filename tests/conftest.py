import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from plif import LazyNetwork, Network, NodeSpec, Query, load_network
from plif.cli import main as cli_main
from plif.errors import UnknownNodeError

# y -> t2 -> t1 -> x with pl 1 < 2 < 3 < 4
CHAIN_DOC = {
    "t0": 1.0,
    "open_past": False,
    "nodes": [
        {"name": "y", "states": ["0", "1"], "pl": 1.0, "parents": [], "cpt": [[0.6, 0.4]]},
        {"name": "t2", "states": ["0", "1"], "pl": 2.0, "parents": ["y"], "cpt": [[0.7, 0.3], [0.2, 0.8]]},
        {"name": "t1", "states": ["0", "1"], "pl": 3.0, "parents": ["t2"], "cpt": [[0.9, 0.1], [0.3, 0.7]]},
        {"name": "x", "states": ["0", "1"], "pl": 4.0, "parents": ["t1"], "cpt": [[0.75, 0.25], [0.1, 0.9]]},
    ],
}

TWO_NODE_DOC = {
    "t0": 0.0,
    "open_past": False,
    "nodes": [
        {"name": "c", "states": ["0", "1"], "pl": 0.0, "parents": [], "cpt": [[0.7, 0.3]]},
        {"name": "e", "states": ["0", "1"], "pl": 1.0, "parents": ["c"], "cpt": [[0.9, 0.1], [0.2, 0.8]]},
    ],
}

COLLIDER_DOC = {
    "t0": 0.0,
    "open_past": False,
    "nodes": [
        {"name": "a", "states": ["0", "1"], "pl": 0.0, "parents": [], "cpt": [[0.5, 0.5]]},
        {"name": "b", "states": ["0", "1"], "pl": 0.0, "parents": [], "cpt": [[0.4, 0.6]]},
        {"name": "c", "states": ["0", "1"], "pl": 1.0, "parents": ["a", "b"],
         "cpt": [[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]]},
    ],
}

# closed-past 4-step fragment of the unbounded chain: the deepest hidden
# node is a root with an uninformative prior (it is always conditioned on)
HMM4_DOC = {
    "t0": -4.0,
    "open_past": False,
    "nodes": [
        {"name": "x_t-2", "states": ["0", "1"], "pl": -4.0, "parents": [], "cpt": [[0.5, 0.5]]},
        {"name": "x_t-1", "states": ["0", "1"], "pl": -3.0, "parents": ["x_t-2"],
         "cpt": [[0.9, 0.1], [0.1, 0.9]]},
        {"name": "x_t", "states": ["0", "1"], "pl": -2.0, "parents": ["x_t-1"],
         "cpt": [[0.9, 0.1], [0.1, 0.9]]},
        {"name": "x_t+1", "states": ["0", "1"], "pl": -1.0, "parents": ["x_t"],
         "cpt": [[0.9, 0.1], [0.1, 0.9]]},
        {"name": "y_t-1", "states": ["0", "1"], "pl": -2.5, "parents": ["x_t-1"],
         "cpt": [[0.8, 0.2], [0.2, 0.8]]},
        {"name": "y_t", "states": ["0", "1"], "pl": -1.5, "parents": ["x_t"],
         "cpt": [[0.8, 0.2], [0.2, 0.8]]},
    ],
}

# r -> m -> o with symmetric flips: P(o=1) is exactly 0.5 but never pinned
# down before the full past is retrieved
SYMMETRIC_DOC = {
    "t0": 0.0,
    "open_past": False,
    "nodes": [
        {"name": "r", "states": ["0", "1"], "pl": 0.0, "parents": [], "cpt": [[0.5, 0.5]]},
        {"name": "m", "states": ["0", "1"], "pl": 1.0, "parents": ["r"],
         "cpt": [[0.7, 0.3], [0.3, 0.7]]},
        {"name": "o", "states": ["0", "1"], "pl": 2.0, "parents": ["m"],
         "cpt": [[0.8, 0.2], [0.2, 0.8]]},
    ],
}


@pytest.fixture
def chain_net() -> Network:
    return load_network(json.dumps(CHAIN_DOC))


@pytest.fixture
def two_node_net() -> Network:
    return load_network(json.dumps(TWO_NODE_DOC))


@pytest.fixture
def collider_net() -> Network:
    return load_network(json.dumps(COLLIDER_DOC))


@pytest.fixture
def hmm4_net() -> Network:
    return load_network(json.dumps(HMM4_DOC))


@pytest.fixture
def symmetric_net() -> Network:
    return load_network(json.dumps(SYMMETRIC_DOC))


@pytest.fixture
def chain_file(tmp_path) -> str:
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_DOC))
    return str(path)


@pytest.fixture
def two_node_file(tmp_path) -> str:
    path = tmp_path / "two_node.json"
    path.write_text(json.dumps(TWO_NODE_DOC))
    return str(path)


@pytest.fixture
def cli(capsys, monkeypatch):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*args: str, env: dict[str, str] | None = None):
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        code = cli_main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def make_net(t0: float, open_past: bool, *specs: NodeSpec) -> Network:
    return Network(t0=t0, open_past=open_past, nodes={s.name: s for s in specs})


def random_chain(seed: int, length: int = 4, *, margin: float = 0.05) -> Network:
    """A binary chain c0 -> c1 -> ... with every CPT entry in
    [margin, 1 - margin], for strict-tightening checks."""
    rng = np.random.default_rng(seed)
    nodes: dict[str, NodeSpec] = {}
    for i in range(length):
        name = f"c{i}"
        rows = 1 if i == 0 else 2
        ps = rng.uniform(margin, 1.0 - margin, size=rows)
        cpt = tuple((float(p), float(1.0 - p)) for p in ps)
        nodes[name] = NodeSpec(
            name=name,
            states=("0", "1"),
            parents=() if i == 0 else (f"c{i - 1}",),
            cpt=cpt,
            pl=float(i),
        )
    return Network(t0=0.0, open_past=False, nodes=nodes)


# only canonical names: x01_t, x0_t+0 or y0_t-007 would alias a chain node
_KCHAIN_NAME = re.compile(r"([xy])(0|[1-9][0-9]*)_t(?:([+-][1-9][0-9]*))?")


def kchain_name(var: str, chain: int, step: int) -> str:
    return f"{var}{chain}_t" + ("" if step == 0 else f"{step:+d}")


def kchain(k: int = 3, window: int = 4, seed: int = 0) -> tuple[LazyNetwork, Query]:
    """A seeded coupled k-chain, after bench/kchain.py's recipe: k binary
    hidden chains with an unbounded past, where ``x<i>`` at step s has the
    parents ``x<i>`` and ``x<i+1 mod k>`` at step s-1 and one observation
    child ``y<i>``, and every hidden node of a step shares one pl. The
    query asks for x0 at step 1 given the last ``window`` observations."""
    rng = np.random.default_rng(seed)
    p_one = np.array([[0.2, 0.45], [0.55, 0.8]]) + rng.uniform(-0.05, 0.05, (k, 2, 2))
    emit = rng.uniform(0.7, 0.9, k)
    hidden = [tuple((1.0 - float(p), float(p)) for p in p_one[i].reshape(-1)) for i in range(k)]
    observe = [((float(e), 1.0 - float(e)), (1.0 - float(e), float(e))) for e in emit]

    def resolve(name: str) -> NodeSpec:
        m = _KCHAIN_NAME.fullmatch(name)
        if not m or int(m[2]) >= k:
            raise UnknownNodeError(f"unknown node: {name!r}")
        var, i, step = m[1], int(m[2]), int(m[3] or 0)
        if var == "x":
            parents = (kchain_name("x", i, step - 1), kchain_name("x", (i + 1) % k, step - 1))
            return NodeSpec(name, ("0", "1"), parents, hidden[i], step - 2.0)
        return NodeSpec(name, ("0", "1"), (kchain_name("x", i, step),), observe[i], step - 1.5)

    obs = rng.integers(0, 2, (k, window))
    evidence = {kchain_name("y", i, -j): str(int(obs[i, j])) for i in range(k) for j in range(window)}
    return LazyNetwork(resolve, float("-inf")), Query({kchain_name("x", 0, 1): "1"}, evidence)
