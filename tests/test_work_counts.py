"""Work counted, not timed.

A wrapper around ``infer._contract`` records the nodes each contraction
is given, and one around ``infer._bucket`` the buckets it runs. A sweep
must contract each interior node exactly once, and a step of a long
chain sweep must do the same work at any depth. Nodes are counted, not
arrays built: a contraction builds one array per distinct CPT, so a lazy
chain's nodes share two.
"""

import pytest

import plif.infer as infer
from plif import HmmParams, RandomNetSpec, anytime_sweep, as_lazy, hmm_model, hmm_query, random_network
from plif.gen import random_query


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
            names = list(specs)
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
        rows = anytime_sweep(as_lazy(net) if lazy else net, q, stop_on_exact=False)
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
    anytime_sweep(hmm_model(p), hmm_query(p), max_steps=4010, stop_on_exact=False)
    steps = [(len(names), buckets) for names, buckets in count.of("band")]
    assert len(steps) == 4010 and not count.of("roots")
    assert steps[1000:1010] == steps[4000:4010]
    assert len(count.done) == 4010 + p.window
