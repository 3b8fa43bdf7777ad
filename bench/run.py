"""Run one plif benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it benchmarks the plif under
``src/``. Each workload runs in a process of its own (``worker.py``).
With ``--trace 0`` the run measures set-up time over several fresh
processes, then runs the workload untraced for ``--seconds`` and prints
the end-to-end metrics. With ``--trace 1`` it runs the traced workload
instead and prints the per-layer metrics. Every op is checked against an
independent reference. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with machine details, goes to ``bench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("hmm_sweep", "hmm_window", "corpus", "kchain_sweep")
SETUP_SAMPLES = 5  # set-up processes per run, the measuring one included
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "yardstick",
    "ops_per_yardstick": "1/yardstick",
    "op_rel_p50": "yardstick",
    "op_rel_p99": "yardstick",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# the same times in seconds: printed and recorded, not part of the JSON
# result line, because the machine's drifting speed spreads them too far
END_TO_END_SECONDS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "yardstick_ms": "ms",
}
PER_LAYER = {
    "model.resolver.calls": "count",
    "model.materialize.nodes": "count",
    "model.validate.ms": "ms",
    "retrieval.root_set.ms": "ms",
    "retrieval.interior_nodes": "count",
    "retrieval.frontier_nodes": "count",
    "infer.frontier_clamp_table.ms": "ms",
    "infer.bounds_at.self_ms": "ms",
    "infer.thresholds": "count",
    "infer.clamps": "count",
    "infer.clamps_zero": "count",
    "infer.min_normalizer_log10": "log10",
    "infer.step_growth": "slope",
    "trace.coverage": "ratio",
}
# measured only where the workload reaches the layer; printed and recorded,
# not part of the JSON result line
PER_LAYER_EXTRA = {
    "cli.main.self_ms": "ms",
    "model.load_network.ms": "ms",
    "model.materialize.self_ms": "ms",
    "model.resolver.hit_ratio": "ratio",
    "infer.default_schedule.ms": "ms",
}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, seconds: float, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run one worker process; return its report and its set-up time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--mode", mode, "--seconds", str(seconds), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - spawned


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {name: os.environ.get(name, "default") for name in BLAS_ENV},
        "loadavg_start": os.getloadavg(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; the
    benchmark may run in a tree that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Identifies the program and benchmark code a count was measured on."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "plif").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    run_worker(workload, seed, "setup", seconds, deadline)  # warm-up: bytecode and file caches
    # half of the set-up samples before the measuring process and half
    # after it, so that their median spans the machine's speed over the run
    before = (SETUP_SAMPLES - 1) // 2
    setups = [run_worker(workload, seed, "setup", seconds, deadline)[1] for _ in range(before)]
    report, setup = run_worker(workload, seed, "measure", seconds, deadline)
    setups.append(setup)
    setups += [run_worker(workload, seed, "setup", seconds, deadline)[1] for _ in range(SETUP_SAMPLES - 1 - before)]
    # The machine's speed drifts by up to 2x over tens of seconds, so a
    # median over the passes of one run jumps with the share of the run
    # spent slow. Means over the passes move only in proportion to it, and
    # times in yardsticks hardly move at all.
    op_ms = [statistics.fmean(samples) for samples in zip(*report.pop("op_ms"))]
    op_rel = report.pop("op_rel")
    per_op_rel = [statistics.fmean(samples) for samples in zip(*op_rel)]
    timed_ops = sum(len(one_pass) for one_pass in op_rel)  # the warm-up pass is not timed
    attempted = report["attempted"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_rel": statistics.fmean(sum(one_pass) for one_pass in op_rel),
        "ops_per_yardstick": timed_ops / sum(sum(one_pass) for one_pass in op_rel),
        "op_rel_p50": statistics.median(per_op_rel),
        "op_rel_p99": p99(per_op_rel),
        "pass_ratio": (attempted - report["failed"]) / attempted,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    report["times_s"] = {
        "wall_s": statistics.fmean(report["pass_s"]),
        "ops_per_s": timed_ops / sum(report["pass_s"]),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p99": p99(op_ms),
        "yardstick_ms": statistics.fmean(report["yardstick_ms"]),
    }
    report["samples"] = {
        "setup": len(setups),
        "passes": len(report["pass_s"]),
        "ops_per_pass": len(op_ms),
        "yardstick_runs": len(report["yardstick_ms"]),
    }
    report["setup_samples_s"] = setups
    return metrics, report


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98] if len(values) > 1 else values[0]


def per_layer(workload: str, seed: int, seconds: float, deadline: float, digest: str) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}.spans.csv"
    report, _ = run_worker(workload, seed, "trace", seconds, deadline, "--spans", str(spans))
    layers = report["layers"]
    # counts must repeat across runs of the same code and seed, not only
    # across the passes of this run
    previous = OUT / f"{workload}-seed{seed}-trace1.json"
    report["counts_match_previous_run"] = None
    if previous.is_file():
        old = json.loads(previous.read_text())
        if old.get("source_digest") == digest:
            report["counts_match_previous_run"] = all(
                old["layers"][name] == layers[name] for name, unit in PER_LAYER.items() if unit == "count"
            )
    report["samples"] = {"rounds": report["rounds"]}
    return {name: layers[name] for name in PER_LAYER}, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "plif" / "__init__.py").is_file():
        print(f"error: no plif sources under {ROOT / 'src'}; run from a plif checkout", file=sys.stderr)
        return 2
    info = machine()
    digest = source_digest()
    try:
        if args.trace:
            metrics, report = per_layer(args.workload, args.seed, args.seconds, deadline, digest)
            units = PER_LAYER
        else:
            metrics, report = end_to_end(args.workload, args.seed, args.seconds, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = report["self_test"] is True
    if args.trace:
        correct = correct and report["counts_repeat"] and report["counts_match_previous_run"] is not False
    attempted, failed = report["attempted"], report["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**info, **report.pop("machine")},
        "source_digest": digest,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        **report,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    m = record["machine"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} commit={m['commit'][:12]} "
        f"python={m['python']} numpy={m['numpy']} blas={m['blas']} nproc={m['nproc']} "
        f"load={','.join(f'{x:.2f}' for x in m['loadavg_start'])} cpu={m['cpu']!r}"
    )
    print(f"  samples: {report['samples']}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {units[name]}")
    if not args.trace:
        for name, value in report["times_s"].items():
            print(f"  {name:32s} {value:>14.6g} {END_TO_END_SECONDS[name]}")
    if args.trace:
        for name, unit in PER_LAYER_EXTRA.items():
            value = report["layers"][name]
            print(f"  {name:32s} {'-' if value is None else format(value, '>14.6g'):>14} {unit}")
    print(f"  {'fail_ratio':32s} {failed / attempted:>14.6g} ({failed} of {attempted} ops failed)")
    for reason in report["failures"]:
        print(f"    failed: {reason}")
    print(f"  self-test (a perturbed result counts as failed): {report['self_test']}")
    if args.trace:
        print(
            f"  counts repeat across passes: {report['counts_repeat']}; "
            f"match the previous run of this code and seed: {report['counts_match_previous_run']}"
        )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
