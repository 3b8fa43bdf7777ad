"""Command-line interface.

Exit codes (1-5 are the ``exit_code`` of the error class raised, see
errors.py):
  0  success (dsep: separated)
  1  parse failure or unknown node/state
  2  validation report (validate) or usage error, including an output file
     that cannot be written
  3  threshold above the critical potential level
  4  zero-probability evidence / all clamps excluded
  5  other inference errors (frontier too wide, intermediate factor too large,
     full past or stub objective on a truncated past, expansion cap)
  6  not separated (dsep)

The PLIF_MAX_FRONTIER environment variable overrides the cap of 65536
joint frontier clamps per threshold (infer.MAX_CLAMPS) in every bounds_at.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import InvalidNetworkError, NetworkFormatError, PlifError, QueryError
from .gen import (
    HmmParams,
    RandomNetSpec,
    format_threshold,
    hmm_model,
    hmm_query,
    hmm_sweep_experiment,
    random_network,
    sweep_csv,
)
from .infer import QueryBounds, anytime_sweep, bounds_at
from .model import Query, load_network, serialize
from .retrieval import Threshold, Walk, d_separated, materialize


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidNetworkError as exc:
        for v in exc.violations:
            print(f"{v.rule}: {v.message}", file=sys.stderr)
        return exc.exit_code
    except PlifError as exc:
        usage = isinstance(exc, QueryError)
        print(f"{'usage error' if usage else 'error'}: {exc}", file=sys.stderr)
        return exc.exit_code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, so
    in-process calls of :func:`main` share it."""
    parser = argparse.ArgumentParser(
        prog="plif",
        description="Anytime bounds on causal Bayesian network queries, guided by potential levels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network document against every invariant")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("query", help="bounds (or the exact value) for one query")
    p.add_argument("path")
    _add_query_flags(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--threshold",
        type=float,
        help="inclusive threshold value; --threshold=-inf retrieves the whole past",
    )
    mode.add_argument("--at-pl-of", metavar="NODE", help="use the named node's potential level as the threshold")
    mode.add_argument("--exact", action="store_true", help="the full-past bracket as one value (closed past only)")
    p.add_argument("--format", choices=("human", "csv", "json"), default="human")
    p.add_argument("--dump-submodel", metavar="OUT", help="write the retrieved submodel document to OUT")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("sweep", help="anytime sweep over a threshold schedule")
    p.add_argument("path", nargs="?", help="network document (omit with --hmm)")
    p.add_argument("--hmm", action="store_true", help="run the built-in unbounded chain experiment")
    _add_query_flags(p, required=False)
    p.add_argument("--depth", type=int, default=10, help="number of thresholds (default 10)")
    p.add_argument("--window", type=int, help="observation window for --hmm (default 10)")
    p.add_argument("--stay", type=float, help="hidden-state stay probability for --hmm (default 0.9)")
    p.add_argument("--emit", type=float, help="observation match probability for --hmm (default 0.8)")
    p.add_argument("--full-sweep", action="store_true", help="do not stop early on an exact result")
    p.add_argument("--format", choices=("human", "csv"), default="human")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("dsep", help="test d-separation between two node sets")
    p.add_argument("path")
    p.add_argument("-A", action="append", required=True, metavar="NODE")
    p.add_argument("-B", action="append", required=True, metavar="NODE")
    p.add_argument("-C", action="append", default=[], metavar="NODE")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("gen-random", help="emit a seeded random network document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--max-parents", type=int, default=3)
    p.add_argument("--states", type=int, default=3, choices=(2, 3))
    p.add_argument("--cpt-floor", type=float, default=0.05)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("gen-hmm", help="emit a materialized fragment of the unbounded chain")
    p.add_argument("--depth", type=int, default=10, help="retrieval floor is -depth; at least 1")
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--stay", type=float, default=0.9)
    p.add_argument("--emit", type=float, default=0.8)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_gen_hmm)

    return parser


def _add_query_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    pair = {"action": "append", "metavar": "NODE=STATE"}  # None when not given
    p.add_argument("--target", required=required, help="objective assignment; repeatable", **pair)
    p.add_argument("--obs", help="evidence assignment; repeatable", **pair)


def _parse_pairs(pairs: list[str] | None, flag: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs or []:
        name, sep, state = item.partition("=")
        if not sep or not name or not state:
            raise QueryError(f"{flag} expects NODE=STATE, got {item!r}")
        if name in out:
            raise QueryError(f"{flag} names {name!r} twice")
        out[name] = state
    return out


def _query_from_args(args) -> Query:
    return Query(
        objective=_parse_pairs(args.target, "--target"),
        evidence=_parse_pairs(args.obs, "--obs"),
    )


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise NetworkFormatError(f"cannot read {path!r}: {exc}") from None


def _cmd_validate(args) -> int:
    net = load_network(_read(args.path))
    print(f"OK: {len(net)} nodes")
    return 0


def _cmd_query(args) -> int:
    net = load_network(_read(args.path))
    query = _query_from_args(args)

    if args.exact:
        v = float("-inf")
    else:
        v = net.spec(args.at_pl_of).pl if args.at_pl_of is not None else args.threshold
    walk = Walk(net, query)
    qb = bounds_at(net, query, Threshold(v), walk=walk)
    if args.dump_submodel:
        _write_doc(serialize(walk.fragment()), args.dump_submodel)
    if args.exact:
        _emit_exact(qb.lower, args.format)
    else:
        _emit_bounds(qb, args.format)
    return 0


def _emit_exact(value: float, fmt: str) -> None:
    if fmt == "human":
        print(f"exact={value:.9f}")
    elif fmt == "csv":
        print("exact")
        print(f"{value:.9f}")
    else:
        print(json.dumps({"exact": value}))


def _emit_bounds(qb: QueryBounds, fmt: str) -> None:
    if fmt == "human":
        print(f"lower={qb.lower:.9f}")
        print(f"upper={qb.upper:.9f}")
        print(f"exactness={qb.exactness.value}")
        print(f"frontier_size={qb.frontier_size}")
        print(f"interior_size={qb.interior_size}")
    elif fmt == "csv":
        print("lower,upper,exactness,frontier_size,interior_size")
        print(
            f"{qb.lower:.9f},{qb.upper:.9f},{qb.exactness.value},"
            f"{qb.frontier_size},{qb.interior_size}"
        )
    else:
        print(
            json.dumps(
                {
                    "threshold": format_threshold(qb.threshold),
                    "lower": qb.lower,
                    "upper": qb.upper,
                    "exactness": qb.exactness.value,
                    "frontier_size": qb.frontier_size,
                    "interior_size": qb.interior_size,
                }
            )
        )


def _cmd_sweep(args) -> int:
    chain = {"--window": args.window, "--stay": args.stay, "--emit": args.emit}
    unused = {"network path": args.path, "--target": args.target, "--obs": args.obs} if args.hmm else chain
    for flag, value in unused.items():
        if value is not None:
            raise QueryError(f"sweep takes no {flag} {'with' if args.hmm else 'without'} --hmm")
    if args.hmm:
        given = zip(("window", "transition_stay", "emission_true"), chain.values())
        params = HmmParams(**{k: v for k, v in given if v is not None})
    else:
        if args.path is None:
            raise QueryError("sweep needs a network path or --hmm")
        if not args.target:
            raise QueryError("sweep needs at least one --target (or --hmm)")
        net, query = load_network(_read(args.path)), _query_from_args(args)
    if args.depth < 1:
        raise QueryError(f"--depth must be at least 1, got {args.depth}")
    if args.hmm:
        rows = hmm_sweep_experiment(params, args.depth)
    else:
        rows = anytime_sweep(net, query, max_steps=args.depth, stop_on_exact=not args.full_sweep)
    _emit_sweep(rows, args.format)
    return 0


def _emit_sweep(rows: list[QueryBounds], fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(sweep_csv(rows))
        return
    print(f"{'threshold':>10}  {'lower':>12}  {'upper':>12}  {'frontier':>8}  {'interior':>8}")
    for qb in rows:
        print(
            f"{format_threshold(qb.threshold):>10}  {qb.lower:>12.9f}  {qb.upper:>12.9f}  "
            f"{qb.frontier_size:>8}  {qb.interior_size:>8}"
        )


def _cmd_dsep(args) -> int:
    net = load_network(_read(args.path))
    separated = d_separated(net, args.A, args.B, args.C)
    print("true" if separated else "false")
    return 0 if separated else 6


def _cmd_gen_random(args) -> int:
    spec = RandomNetSpec(
        seed=args.seed,
        node_count=args.nodes,
        max_parents=args.max_parents,
        state_count=args.states,
        cpt_floor=args.cpt_floor,
    )
    _write_doc(serialize(random_network(spec)), args.out)
    return 0


def _cmd_gen_hmm(args) -> int:
    params = HmmParams(transition_stay=args.stay, emission_true=args.emit, window=args.window)
    if args.depth < 1:
        raise QueryError(f"--depth must be at least 1, got {args.depth}")
    _write_doc(serialize(materialize(hmm_model(params), hmm_query(params), -args.depth)), args.out)
    return 0


def _write_doc(text: str, out: str | None) -> None:
    if out is None:
        print(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise QueryError(f"cannot write {out!r}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
