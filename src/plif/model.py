"""Causal Bayesian networks annotated with potential levels.

A network is a finite DAG of discrete nodes. Every node carries a
conditional probability table (CPT) over its states, one row per joint
parent assignment, plus a *potential level* (``pl``): a real number that
places the node strictly after all of its parents on the model's time
axis. In a closed-past network every parentless node sits exactly at the
time origin ``t0``; an open-past network is a truncation of some larger
model, so its roots may sit later than ``t0``.

The on-disk format is a UTF-8 JSON document::

    {"t0": 0.0, "open_past": false, "nodes": [
        {"name": "c", "states": ["0", "1"], "pl": 0.0,
         "parents": [], "cpt": [[0.7, 0.3]]},
        {"name": "e", "states": ["0", "1"], "pl": 1.0,
         "parents": ["c"], "cpt": [[0.9, 0.1], [0.2, 0.8]]}]}

``cpt[i][j]`` is the probability that the node takes its ``j``-th state
given the ``i``-th joint parent assignment. Assignments enumerate the
declared parent list in odometer order with the *last* parent varying
fastest; columns follow the declared state order. ``"t0": "-inf"``
encodes an unbounded past. A ``null`` CPT marks a truncation stub: a
parentless placeholder whose prior was cut away during materialization;
stubs are legal only in open-past networks. Every number reads as a
float: :func:`load_network` checks a document's shape, :func:`validate`
its values.

Unbounded models are represented by :class:`LazyNetwork`, a deterministic
name-to-spec resolver. Both kinds answer ``resolve(name)``, the one
interface retrieval walks; ``retrieval.materialize`` writes the
fragment that walk retrieves above a floor as a finite :class:`Network`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import (
    InvalidNetworkError,
    NetworkFormatError,
    QueryError,
    UnknownNodeError,
)

ROW_SUM_TOL = 1e-9
#: the most CPT objects one memo of checked rows keeps; a full one is cleared
MAX_CHECKED_CPTS = 1024

#: An assignment maps node names to state labels.
Assignment = Mapping[str, str]


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """One node: states, declared parents, CPT rows, and potential level."""

    name: str
    states: tuple[str, ...]
    parents: tuple[str, ...]
    cpt: tuple[tuple[float, ...], ...] | None
    pl: float

    @property
    def is_stub(self) -> bool:
        """True for a truncation stub (parentless, prior cut away)."""
        return self.cpt is None


@dataclass(frozen=True, slots=True)
class Network:
    """A finite, immutable network. Construction does not validate; run
    :func:`validate` (or go through :func:`load_network`) first."""

    t0: float
    open_past: bool
    nodes: dict[str, NodeSpec]

    def spec(self, name: str) -> NodeSpec:
        try:
            return self.nodes[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node: {name!r}") from None

    #: the name-to-spec interface shared with :class:`LazyNetwork`
    resolve = spec

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, slots=True)
class LazyNetwork:
    """An on-demand network: ``resolver`` maps a node name to its spec.

    The resolver must be deterministic: resolving the same name twice
    yields the same spec. Each call resolves and checks the spec afresh
    (:func:`_local_spec_violations`, save the rows of a CPT ``checked``
    holds as passed); a walk resolves each node once and checks the rest
    of its rules there (:func:`node_violations`).
    """

    resolver: Callable[[str], NodeSpec]
    t0: float
    open_past: bool = True
    checked: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def resolve(self, name: str) -> NodeSpec:
        try:
            spec = self.resolver(name)
        except KeyError:
            raise UnknownNodeError(f"unknown node: {name!r}") from None
        problems = _local_spec_violations(spec, self.checked)
        if spec.name != name:
            problems.append(Violation("resolver-name", f"asked for {name!r}, got {spec.name!r}"))
        if problems:
            raise InvalidNetworkError(problems)
        return spec


@dataclass(frozen=True, slots=True)
class Query:
    """A conditional query: probability of ``objective`` given ``evidence``.

    The two assignments must name disjoint sets of nodes and the
    objective must be nonempty.
    """

    objective: dict[str, str]
    evidence: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.objective:
            raise QueryError("query objective must name at least one node")
        overlap = set(self.objective) & set(self.evidence)
        if overlap:
            raise QueryError(f"objective and evidence overlap on {sorted(overlap)}")

    @property
    def names(self) -> set[str]:
        return set(self.objective) | set(self.evidence)


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken invariant; ``rule`` is a stable machine-readable tag."""

    rule: str
    message: str


def _local_spec_violations(spec: NodeSpec, checked: dict) -> list[Violation]:
    """Checks that need no other node: states, parent list, CPT shape, PL.

    ``checked`` keeps each CPT object whose rows passed, by its id and the
    state count, at most :data:`MAX_CHECKED_CPTS` of them; it holds the
    object, so the id cannot be reused. Their rows are not checked again,
    and a failing CPT is checked and reported at every node that has it."""
    out: list[Violation] = []
    width = len(spec.states)
    if width < 2:
        out.append(Violation("state-count", f"node {spec.name!r} needs at least 2 states"))
    # two labels are compared, not hashed into a set
    if (spec.states[0] == spec.states[1]) if width == 2 else len(set(spec.states)) != width:
        out.append(Violation("duplicate-state", f"node {spec.name!r} repeats a state label"))
    if len(spec.parents) > 1 and len(set(spec.parents)) != len(spec.parents):
        out.append(Violation("duplicate-parent", f"node {spec.name!r} repeats a parent name"))
    if not math.isfinite(spec.pl):
        out.append(Violation("pl-not-finite", f"node {spec.name!r} has pl={spec.pl!r}"))
    if spec.cpt is None:
        if spec.parents:
            out.append(
                Violation("cpt-missing", f"node {spec.name!r} has parents but no CPT")
            )
        return out
    key = (id(spec.cpt), width)
    if key in checked:
        return out
    rows = _row_violations(spec)
    if not rows:
        if len(checked) >= MAX_CHECKED_CPTS:
            checked.clear()
        checked[key] = spec.cpt
    return out + rows


def _row_violations(spec: NodeSpec) -> list[Violation]:
    """Each CPT row of ``spec`` has one entry per state, in [0, 1], summing to 1."""
    out: list[Violation] = []
    width = len(spec.states)
    for i, row in enumerate(spec.cpt):
        if len(row) != width:
            message = f"node {spec.name!r} row {i} has {len(row)} entries, expected {width}"
            out.append(Violation("cpt-row-length", message))
            continue
        total = sum(row)
        # a NaN entry makes the sum NaN, wherever it sits; min and max alone miss some
        if row and (total != total or min(row) < 0.0 or max(row) > 1.0):
            out.append(Violation("cpt-entry-range", f"node {spec.name!r} row {i} leaves [0, 1]"))
        if abs(total - 1.0) > ROW_SUM_TOL:
            out.append(Violation("cpt-row-sum", f"node {spec.name!r} row {i} sums to {total!r}, expected 1"))
    return out


def t0_violations(t0: float, open_past: bool) -> list[Violation]:
    """Whether ``t0`` can be a time origin."""
    if math.isnan(t0) or (math.isinf(t0) and t0 > 0):
        return [Violation("t0-invalid", f"t0={t0!r} is not a time origin")]
    if math.isinf(t0) and not open_past:
        return [Violation("t0-not-finite", "closed-past networks need a finite t0")]
    return []


def node_violations(spec: NodeSpec, parents: Sequence[NodeSpec] | None, t0: float, open_past: bool) -> list[Violation]:
    """The rules on one node that its parents, ``t0`` and the past decide.

    ``parents`` holds the specs of the declared parents that exist, or is
    None where a walk cuts the node (a frontier node, or a query node not
    yet reached). Edges need strict temporal precedence (so no cycle) and,
    with every parent present, one CPT row per joint parent state. A root
    or cut node may not sit before ``t0``; a genuine root has one CPT row
    and, in a closed past, a prior and pl ``t0``.
    """
    if parents is not None and spec.parents:
        out: list[Violation] = []
        if spec.cpt is not None and len(parents) == len(spec.parents):
            expected = 1  # counted in a loop: on Python 3.11 a comprehension is one more call per node
            for p in parents:
                expected *= len(p.states)
            if len(spec.cpt) != expected:
                out.append(Violation("cpt-shape", f"node {spec.name!r} has {len(spec.cpt)} CPT rows, expected {expected}"))
        for parent in parents:
            if not (parent.pl < spec.pl):
                out.append(
                    Violation(
                        "temporal-precedence",
                        f"edge {parent.name!r}->{spec.name!r} has pl({parent.name!r})={parent.pl:g} "
                        f">= pl({spec.name!r})={spec.pl:g}",
                    )
                )
        return out
    cpt, root, out = spec.cpt, not spec.parents, []
    if root and cpt is None and not open_past:
        out.append(Violation("cpt-missing", f"closed-past node {spec.name!r} has no prior (stub)"))
    if root and cpt is not None and len(cpt) != 1:
        out.append(Violation("cpt-shape", f"node {spec.name!r} has {len(cpt)} CPT rows, expected 1"))
    if root and not open_past and spec.pl != t0:
        message = f"root {spec.name!r} has pl={spec.pl:g}, closed-past roots must sit at t0={t0:g}"
        out.append(Violation("root-pl", message))
    elif spec.pl < t0:
        out.append(Violation("root-pl", f"root {spec.name!r} has pl={spec.pl:g} before t0={t0:g}"))
    return out


def validate(net: Network) -> list[Violation]:
    """Return every violated invariant; an empty list means the network is valid.

    Violations are data, not exceptions: a network that fails several
    rules reports all of them, each naming the offending nodes; a cycle
    breaks strict ``temporal-precedence`` on at least one of its edges.
    """
    out, checked, nodes = t0_violations(net.t0, net.open_past), {}, net.nodes
    for key, spec in nodes.items():
        if key != spec.name:
            out.append(Violation("node-key", f"node keyed {key!r} is named {spec.name!r}"))
        out.extend(_local_spec_violations(spec, checked))
        parents = []
        for p in spec.parents:
            if p in nodes:
                parents.append(nodes[p])
            else:
                out.append(Violation("unknown-parent", f"node {spec.name!r} lists missing parent {p!r}"))
        out.extend(node_violations(spec, parents, net.t0, net.open_past))
    return out


# ---------------------------------------------------------------------------
# document parsing and serialization


def _reject_constant(token: str):
    raise NetworkFormatError(f"non-finite literal {token!r} is not allowed in network documents")


def _parse_int(token: str) -> float:
    return float(token) + 0.0  # the literal -0 reads as 0.0, not -0.0


#: built once; see :func:`load_network`
_DECODER = json.JSONDecoder(parse_int=_parse_int, parse_constant=_reject_constant)


def load_network(text: str | bytes | bytearray) -> Network:
    """Parse and validate a network document.

    ``text`` is a ``str``, or ``bytes`` / ``bytearray`` in the UTF-8,
    UTF-16 or UTF-32 that :func:`json.detect_encoding` detects. Every
    input goes through one decoder, built at import: it holds only its
    two number hooks and keeps nothing between calls, so it is safe to
    share across calls and threads. A ``str`` that starts with a byte
    order mark is refused in the words of :func:`json.loads`.
    The parser checks only shape: every JSON number reads as a float (one
    too large reads as ``inf``), and :func:`validate` alone judges values.
    Raises :class:`NetworkFormatError` on any other type, on bytes that do
    not decode and on malformed syntax or shape, and :class:`InvalidNetworkError`
    (carrying the full report) when the parsed network breaks an invariant.
    """
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode(json.detect_encoding(text), "surrogatepass")
        elif not isinstance(text, str):
            raise NetworkFormatError(f"a network document must be str, bytes or bytearray, not {type(text).__name__}")
        elif text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise NetworkFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("top level must be a JSON object")
    for key in ("t0", "open_past", "nodes"):
        if key not in doc:
            raise NetworkFormatError(f"missing top-level key {key!r}")
    t0 = float("-inf") if doc["t0"] == "-inf" else doc["t0"]
    if type(t0) is not float:
        raise NetworkFormatError(f"t0 must be a number or \"-inf\", got {t0!r}")
    open_past = doc["open_past"]
    if not isinstance(open_past, bool):
        raise NetworkFormatError("open_past must be true or false")
    if not isinstance(doc["nodes"], list):
        raise NetworkFormatError("nodes must be a list")

    nodes: dict[str, NodeSpec] = {}
    for i, raw in enumerate(doc["nodes"]):
        spec = _node_from_document(raw, i)
        if spec.name in nodes:
            raise NetworkFormatError(f"duplicate node name {spec.name!r}")
        nodes[spec.name] = spec
    net = Network(t0, open_past, nodes)
    report = validate(net)
    if report:
        raise InvalidNetworkError(report)
    return net


def _node_from_document(raw, index: int) -> NodeSpec:
    if not isinstance(raw, dict):
        raise NetworkFormatError(f"node #{index} must be an object")
    try:
        name = raw["name"]
        states = raw["states"]
        parents = raw["parents"]
        cpt = raw["cpt"]
        pl = raw["pl"]
    except KeyError as exc:
        raise NetworkFormatError(f"node #{index} is missing key {exc.args[0]!r}") from None
    if not isinstance(name, str):
        raise NetworkFormatError(f"node #{index} name must be a string")
    # map with a bound isinstance check: no generator frame per list
    if not (isinstance(states, list) and all(map(str.__instancecheck__, states))):
        raise NetworkFormatError(f"node {name!r}: states must be a list of strings")
    if not (isinstance(parents, list) and all(map(str.__instancecheck__, parents))):
        raise NetworkFormatError(f"node {name!r}: parents must be a list of strings")
    if type(pl) is not float:
        raise NetworkFormatError(f"node {name!r}: pl must be a number, got {pl!r}")
    if cpt is not None:
        if not isinstance(cpt, list):
            raise NetworkFormatError(f"node {name!r}: cpt must be a list of rows or null")
        for r, row in enumerate(cpt):
            if not (isinstance(row, list) and all(map(float.__instancecheck__, row))):
                raise NetworkFormatError(f"node {name!r}: cpt row {r} must be a list of numbers")
        cpt = tuple(map(tuple, cpt))
    return NodeSpec(name, tuple(states), tuple(parents), cpt, pl)


def serialize(net: Network) -> str:
    """Inverse of :func:`load_network`; round-trips every field exactly.
    A ``t0`` of +inf or NaN, which has no sentinel, raises ValueError."""
    doc = {
        "t0": "-inf" if net.t0 == -math.inf else net.t0,
        "open_past": net.open_past,
        "nodes": [
            {
                "name": s.name,
                "states": list(s.states),
                "pl": s.pl,
                "parents": list(s.parents),
                "cpt": None if s.cpt is None else [list(row) for row in s.cpt],
            }
            for s in net.nodes.values()
        ],
    }
    return json.dumps(doc, allow_nan=False)


def as_lazy(net: Network) -> LazyNetwork:
    """Wrap a finite network behind the resolver interface."""
    return LazyNetwork(resolver=net.spec, t0=net.t0, open_past=net.open_past)
