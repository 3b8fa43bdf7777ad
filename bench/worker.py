"""One workload in one process: build the inputs, then run the ops.

    python3 bench/worker.py --workload NAME --seed N --mode setup|measure|trace --seconds S [--spans FILE]

``setup`` stops once the inputs are built. ``measure`` runs one warm-up
pass, then passes over the workload's ops, untraced, until ``--seconds``
have gone by, with the yardstick between them. ``trace``
runs rounds of one untraced and one traced pass over the same ops, for
at least as long. Every mode prints one JSON report as its last stdout line; its
``ready`` field is ``time.monotonic()`` once the inputs are built, which
the parent turns into the set-up time. The references are computed after
that, before the first timed op.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import plif  # noqa: E402

if Path(plif.__file__).resolve().parent != ROOT / "src" / "plif":
    sys.exit(f"error: imported plif from {plif.__file__}, not from this checkout")

from tracing import COUNTS, Tracer  # noqa: E402
from workloads import WORKLOADS, perturbed  # noqa: E402

# trace.coverage is the median of the per-round ratios, so a run needs a
# few rounds even when one round takes longer than --seconds
MIN_ROUNDS = 3


class Checker:
    """Checks each op's result as it arrives, so that no result is kept
    alive (and scanned by the garbage collector) while ops are timed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.reasons: list[str] = []
        self.sample = None  # the first passing result, for the self-test

    def record(self, index: int, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            reason = self.workload.check(index, out)
            if reason is None and self.sample is None:
                self.sample = (index, out)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{self.workload.ops[index].label}: {reason}")

    def report(self) -> dict:
        """Counts, the first reasons, and whether a perturbed copy of a
        passing result counts as failed (None if no op passed)."""
        self_test = None
        if self.sample is not None:
            index, rows = self.sample
            self_test = self.workload.check(index, perturbed(rows)) is not None
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.reasons, "self_test": self_test}


def timed_pass(ops, checker: Checker, latencies: list, before_op=None, after_op=None) -> float:
    """One pass over the ops; appends each op's time (ms) to ``latencies``
    and returns the summed op time in seconds. The check and ``after_op``
    run between ops, outside the timed region."""
    total = 0
    for index, op in enumerate(ops):
        if before_op is not None:
            before_op(checker.attempted)
        t = time.perf_counter_ns()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises counts as failed
            out = exc
        ns = time.perf_counter_ns() - t
        total += ns
        latencies.append(ns / 1e6)
        checker.record(index, out)
        if after_op is not None:
            after_op(ns / 1e6, index == len(ops) - 1)
    return total / 1e9


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


class Yardstick:
    """Runs the yardstick after every CHUNK_MS of op time and at the end of
    each pass, and divides each op's time by the mean of the two yardstick
    runs around its chunk: the op's time in yardsticks."""

    CHUNK_MS = 250.0

    def __init__(self):
        import yardstick  # not at the top: set-up time leaves it out

        self._run = yardstick.run
        self._run()  # warm-up
        self.ms = [self._run()]
        self._chunk: list[float] = []
        self.rel: list[float] = []  # per op, in the order they ran

    def after_op(self, ms: float, last_of_pass: bool) -> None:
        self._chunk.append(ms)
        if last_of_pass or sum(self._chunk) >= self.CHUNK_MS:
            self.ms.append(self._run())
            scale = (self.ms[-2] + self.ms[-1]) / 2
            self.rel.extend(t / scale for t in self._chunk)
            self._chunk = []


def measure(workload, seconds: float) -> dict:
    checker = Checker(workload)
    timed_pass(workload.ops, checker, [])  # warm-up
    yard = Yardstick()
    op_ms, passes = [], []  # op_ms[p][i]: op i in pass p
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        op_ms.append([])
        passes.append(timed_pass(workload.ops, checker, op_ms[-1], after_op=yard.after_op))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(workload.ops)
    return {
        **checker.report(),
        "pass_s": passes,
        "op_ms": op_ms,
        "op_rel": [yard.rel[p * n : (p + 1) * n] for p in range(len(passes))],
        "yardstick_ms": yard.ms,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def trace(workload, seconds: float, spans_path: Path) -> dict:
    """Rounds of one untraced and one traced pass, in alternating order,
    for ``seconds`` and at least MIN_ROUNDS rounds."""
    checker = Checker(workload)
    tracer = Tracer()
    untraced, rounds = [], []

    def traced_pass() -> None:
        tracer.start_pass()
        tracer.install()
        try:
            timed_pass(workload.ops, checker, [], before_op=tracer.set_op)
        finally:
            tracer.uninstall()
        rounds.append(tracer.pass_metrics())

    timed_pass(workload.ops, checker, [])  # warm-up, so both sides of a round run warm
    start = time.perf_counter()

    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if len(rounds) % 2:
            traced_pass()
            untraced.append(timed_pass(workload.ops, checker, []))
        else:
            untraced.append(timed_pass(workload.ops, checker, []))
            traced_pass()
    tracer.write_spans(spans_path)

    repeat = all(r[name] == rounds[0][name] for r in rounds for name in COUNTS)
    layers = {}
    for name, value in rounds[0].items():
        if name in COUNTS or value is None:
            layers[name] = value
        else:
            layers[name] = statistics.median(r[name] for r in rounds)
    # the two passes of a round run back to back, so the machine's speed,
    # which drifts over seconds, mostly cancels in their ratio
    layers["trace.coverage"] = statistics.median(
        r["trace.layer_sum_ms"] / (u * 1e3) for r, u in zip(rounds, untraced)
    )
    return {
        **checker.report(),
        "rounds": len(rounds),
        "counts_repeat": repeat,
        "layers": layers,
        "untraced_pass_s": untraced,
        "traced_layer_sum_s": [r["trace.layer_sum_ms"] / 1e3 for r in rounds],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", type=Path, help="where the trace mode writes its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    report: dict = {"ready": time.monotonic()}
    if args.mode != "setup":
        workload.references()
    if args.mode == "measure":
        report.update(measure(workload, args.seconds))
    elif args.mode == "trace":
        report.update(trace(workload, args.seconds, args.spans))
    report["machine"] = machine()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
