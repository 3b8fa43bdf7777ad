"""A fixed computation, timed next to the ops, that measures how fast the
machine runs at that moment.

On a shared machine the speed of one core drifts by up to 2x over
seconds and minutes, with the load that other tenants put on the host.
The same op then takes anywhere from 0.6 to 1.2 s. The yardstick runs
the same mix of work as the ops: pure-Python float loops and small numpy
arrays (the references of the ``hmm_*`` and ``corpus`` workloads), and
one matrix-vector sweep over 2^6 joint states (the ``kchain_sweep``
reference). It calls nothing in plif, so no change to plif moves it.
Dividing an op's time by the yardstick's time next to it cancels most of
the machine's drift. The garbage collector is off while it runs, so that
objects an op leaves behind do not slow it.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

import reference
from workloads import corpus_document, corpus_query

_DOCS = []
for _i in range(12):
    _rng = random.Random(f"yardstick-{_i}")
    _doc = corpus_document(_rng, node_count=3 + _i % 10, state_count=2 + _i % 2)
    _DOCS.append((_doc, *corpus_query(_rng, _doc)))
_RNG = np.random.default_rng(0)
_K = 6
_TRANS = 0.2 + 0.6 * _RNG.random((_K, 2, 2))
_EMIT = 0.7 + 0.2 * _RNG.random(_K)
_OBS = _RNG.integers(0, 2, (_K, 16))


REPEAT = 8  # about 45 ms on one vCPU of a Sapphire Rapids Xeon


def _work() -> None:
    for _ in range(REPEAT):
        for depth in range(1, 61):
            reference.hmm_bracket(0.9, 0.8, depth, 60)
        for doc, objective, evidence in _DOCS:
            reference.net_conditional(doc, objective, evidence)
        reference.kchain_brackets(_TRANS, _EMIT, _OBS, 24)


def run() -> float:
    """One run of the yardstick; returns its time in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _work()
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        if enabled:
            gc.enable()
