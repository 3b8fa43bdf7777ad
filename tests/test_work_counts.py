"""Work counted, not timed.

A wrapper around ``infer._contract`` records the nodes each contraction
is given, one around ``infer._bucket`` the buckets it runs, and one around
``np.einsum`` its calls. A sweep must contract each interior node exactly
once, a step of a long chain sweep must do the same work, with one
einsum and one bucket, at any depth, a step of a coupled k-chain must cover the same
cells bucket by bucket, and one threshold on the chain must run buckets
in a number affine in its window, and numpy contraction calls (``np.einsum``
and ``np.matmul``) in a number logarithmic in it. Nodes are
counted, not arrays built: a walk builds one array per distinct CPT
(``Walk.factors``), so a lazy chain's nodes share two at any depth.
Layout is checked, not timed: a chain step leaves its clamp table
C-contiguous over its scan axes, which every later op reads. A resolver
that records the names it is asked for shows that a walk, one threshold's
or a whole sweep's, resolves each node of the chain once.
"""

import math

import numpy as np
import pytest

import plif.infer as infer
from plif import (
    HmmParams,
    LazyNetwork,
    RandomNetSpec,
    Threshold,
    anytime_sweep,
    as_lazy,
    bounds_at,
    hmm_model,
    hmm_query,
    random_network,
)
from conftest import kchain
from plif.errors import UnknownNodeError
from plif.gen import random_query
from plif.retrieval import Walk


class _Count:
    """The contractions of one sweep: per call, whether its nodes were
    interior (a band) or frontier roots (the exact value of a closed
    past), their names and the buckets it ran. An interior node contracted
    a second time fails at once, so a sweep that redoes its interior at
    every step fails at its second step, however deep it was meant to go."""

    def __init__(self, monkeypatch):
        self.reset()
        self.buckets = 0
        contract, bucket = infer._contract, infer._bucket

        def counting_bucket(*args):
            self.buckets += 1
            return bucket(*args)

        def counting_contract(walk, specs, scan, prior):
            specs = list(specs)  # the contraction reads its specs once, so they are kept for it
            names = [s.name for s in specs]
            if all(n in walk.interior for n in names):
                kind = "band"
                again = self.done.intersection(names)
                assert not again, f"interior nodes contracted again: {sorted(again)[:5]}"
                self.done.update(names)
            else:
                kind = "roots"
                assert all(n in walk.frontier and not walk.specs[n].parents for n in names), names
            start = self.buckets
            out = contract(walk, specs, scan, prior)
            self.calls.append((kind, names, self.buckets - start))
            return out

        monkeypatch.setattr(infer, "_contract", counting_contract)
        monkeypatch.setattr(infer, "_bucket", counting_bucket)

    def reset(self):
        self.calls, self.done = [], set()

    def of(self, kind):
        return [(names, buckets) for k, names, buckets in self.calls if k == kind]


@pytest.mark.parametrize("lazy", [False, True], ids=["network", "as_lazy"])
def test_a_sweep_contracts_each_interior_node_once(monkeypatch, lazy):
    # the recipe of the acceptance corpus, swept over its full default schedule
    nets = [random_network(RandomNetSpec(seed=s, node_count=3 + s % 10, state_count=2 + s % 2)) for s in range(50)]
    queries = [random_query(net, seed + 1_000_000) for seed, net in enumerate(nets)]
    count = _Count(monkeypatch)
    for net, q in zip(nets, queries):
        count.reset()
        rows = list(anytime_sweep(as_lazy(net) if lazy else net, q, stop_on_exact=False))
        sizes = [0] + [qb.interior_size for qb in rows]
        # one band a step: the nodes that step newly retrieved
        assert [len(names) for names, _ in count.of("band")] == [b - a for a, b in zip(sizes, sizes[1:])]
        assert len(count.done) == rows[-1].interior_size
        # the frontier roots are contracted for an exact value at a finite threshold, not into the table
        exact = [qb for qb in rows if not qb.threshold.is_full_past and qb.exactness is infer.Exactness.FULL_PAST]
        assert len(count.of("roots")) == len(exact)


def test_chain_steps_do_the_same_work_at_any_depth(monkeypatch):
    p = HmmParams(window=10)
    count = _Count(monkeypatch)
    list(anytime_sweep(hmm_model(p), hmm_query(p), max_steps=4010, stop_on_exact=False))
    steps = [(len(names), buckets) for names, buckets in count.of("band")]
    assert len(steps) == 4010 and not count.of("roots")
    assert steps[1000:1010] == steps[4000:4010]
    assert len(count.done) == 4010 + p.window


def test_coupled_chain_steps_cover_the_same_cells_at_any_depth(monkeypatch):
    # k = 3 chains, 4 observed steps: the sweep runs past the window's end
    lazy, q = kchain(k=3, window=4)
    for alias in ("x01_t", "x0_t+0", "y0_t-007", "x3_t"):
        with pytest.raises(UnknownNodeError):
            lazy.resolve(alias)
    steps = []
    contract, bucket = infer._contract, infer._bucket

    def counting_contract(*args):
        steps.append([])
        return contract(*args)

    def counting_bucket(group, *args):
        sizes = {a: n for axes, t in group for a, n in zip(axes, t.shape)}
        steps[-1].append(math.prod(sizes.values()))
        return bucket(group, *args)

    monkeypatch.setattr(infer, "_contract", counting_contract)
    monkeypatch.setattr(infer, "_bucket", counting_bucket)
    rows = list(anytime_sweep(lazy, q, max_steps=12, stop_on_exact=False))
    assert len(rows) == len(steps) == 12
    # the cells of each bucket, in order: flat once the frontier holds all k chains
    assert steps[2] and steps[2:] == [steps[2]] * 10


def test_one_threshold_runs_buckets_affine_in_its_window(monkeypatch):
    count = _Count(monkeypatch)
    buckets = {}
    for w in (400, 1200, 2500):
        p = HmmParams(window=w)
        count.reset()
        start = count.buckets
        bounds_at(hmm_model(p), hmm_query(p), Threshold(-float(w)))
        buckets[w] = count.buckets - start
    # three counts on one line: a redo in logs at the widest window, or
    # work that grows faster than the fragment, would bend it
    assert (buckets[1200] - buckets[400]) * (2500 - 1200) == (buckets[2500] - buckets[1200]) * (1200 - 400)


def test_one_threshold_makes_contraction_calls_logarithmic_in_its_window(monkeypatch):
    # the chain's hidden nodes make one run: its first _RUN_MIN - 1 steps
    # are buckets, then a matmul a level of the pairwise product and one
    # einsum where the product meets the run's message, so a doubling of
    # the window adds one level
    calls = [0]
    for name in ("einsum", "matmul"):
        wrapped = getattr(np, name)

        def counting(*args, _wrapped=wrapped, **kwargs):
            calls[0] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    made = {}
    for w in (400, 1200, 2500, 10_000):
        p = HmmParams(window=w)
        calls[0] = 0
        bounds_at(hmm_model(p), hmm_query(p), Threshold(-float(w)))
        made[w] = calls[0]
    windows = sorted(made)
    assert all(made[b] - made[a] <= math.log2(b / a) + 1 for a, b in zip(windows, windows[1:])), made


def test_a_chain_step_runs_one_einsum_at_any_depth(monkeypatch):
    # a step's one bucket multiplies the table into the new node's CPT; the
    # table it leaves only needs its axes reordered, which the elimination
    # does itself, with no einsum and no second bucket
    p = HmmParams(window=10)
    lazy, q = hmm_model(p), hmm_query(p)
    walk = Walk(lazy, q)
    calls, einsum = [0], np.einsum
    count = _Count(monkeypatch)

    def counting_einsum(*args):
        calls[0] += 1
        return einsum(*args)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    per_step = {}
    for d in range(1, 4001):
        before = calls[0], count.buckets
        bounds_at(lazy, q, Threshold(-float(d)), walk=walk)
        if d in (1000, 4000):
            per_step[d] = calls[0] - before[0], count.buckets - before[1]
    # (einsum calls, buckets)
    assert per_step == {1000: (1, 1), 4000: (1, 1)}


def test_a_chain_walk_keeps_the_same_arrays_at_any_depth():
    p = HmmParams(window=10)
    lazy, q = hmm_model(p), hmm_query(p)
    walk = Walk(lazy, q)
    held = {}
    for d in range(1, 4001):
        bounds_at(lazy, q, Threshold(-float(d)), walk=walk)
        if d in (1000, 4000):
            held[d] = len(walk.factors)
    # the transition CPT, and the emission CPT cut at its observed state
    assert held[1000] == held[4000] == 2


@pytest.mark.parametrize("chain", ["kchain", "hmm"])
def test_a_chain_step_leaves_its_clamp_table_c_contiguous_in_scan_order(monkeypatch, chain):
    lazy, q = kchain(k=3, window=4) if chain == "kchain" else (hmm_model(HmmParams()), hmm_query(HmmParams()))
    layouts, clamp_table = [], infer.frontier_clamp_table

    def recording(walk):
        scan, num, den = clamp_table(walk)
        table = walk.table.table
        sizes = tuple(len(walk.frontier[n].states) for n in scan)
        layouts.append((walk.table.axes == scan, table.shape == (*sizes, 2), table.flags.c_contiguous))
        return scan, num, den

    monkeypatch.setattr(infer, "frontier_clamp_table", recording)
    list(anytime_sweep(lazy, q, max_steps=12, stop_on_exact=False))
    assert layouts == [(True, True, True)] * 12


def _counted(lazy):
    """``lazy`` behind a resolver that records every name it is asked for."""
    names = []

    def resolver(name):
        names.append(name)
        return lazy.resolver(name)

    return LazyNetwork(resolver, lazy.t0, lazy.open_past), names


@pytest.mark.parametrize("w", [10, 100, 1000])
def test_one_threshold_resolves_each_node_once(w):
    # at -w the walk resolves the w observations, x_t+1 down to x_t-(w-2)
    # and its one frontier node x_t-(w-1): 2w + 1 nodes, each once
    p = HmmParams(window=w)
    lazy, names = _counted(hmm_model(p))
    bounds_at(lazy, hmm_query(p), Threshold(-float(w)))
    assert len(names) == len(set(names)) == 2 * w + 1


@pytest.mark.parametrize("d", [10, 120])
def test_a_chain_sweep_resolves_each_node_once(d):
    # depth = window = d: the sweep's one walk resolves the same 2d + 1
    # nodes as one threshold at -d
    p = HmmParams(window=d)
    lazy, names = _counted(hmm_model(p))
    rows = list(anytime_sweep(lazy, hmm_query(p), max_steps=d, stop_on_exact=False))
    assert len(rows) == d
    assert len(names) == len(set(names)) == 2 * d + 1
