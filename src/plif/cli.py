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
  141  stdout closed by its reader before the output ended (`| head`),
       the code a shell reports for a writer ended by SIGPIPE

The PLIF_MAX_FRONTIER environment variable overrides the cap of 65536
joint frontier clamps per threshold (infer.MAX_CLAMPS) in every bounds_at.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Iterator

from .errors import InvalidNetworkError, NetworkFormatError, PlifError, QueryError
from .gen import (
    SWEEP_CSV_HEADER,
    HmmParams,
    RandomNetSpec,
    format_threshold,
    hmm_model,
    hmm_query,
    hmm_sweep_experiment,
    random_network,
    sweep_csv_row,
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
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at
        # exit cannot fail again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


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
    # the chain flags are stored under the HmmParams fields they set; the record holds their defaults
    hmm = HmmParams()
    p.add_argument("--window", type=int, help=f"observation window for --hmm (default {hmm.window})")
    p.add_argument("--stay", type=float, dest="transition_stay", metavar="STAY",
                   help=f"hidden-state stay probability for --hmm (default {hmm.transition_stay})")
    p.add_argument("--emit", type=float, dest="emission_true", metavar="EMIT",
                   help=f"observation match probability for --hmm (default {hmm.emission_true})")
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
    p.add_argument("--nodes", type=int, dest="node_count", metavar="NODES")
    p.add_argument("--max-parents", type=int)
    p.add_argument("--states", type=int, dest="state_count", choices=(2, 3))
    p.add_argument("--cpt-floor", type=float)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("gen-hmm", help="emit a materialized fragment of the unbounded chain")
    p.add_argument("--depth", type=int, default=10, help="retrieval floor is -depth; at least 1")
    p.add_argument("--window", type=int)
    p.add_argument("--stay", type=float, dest="transition_stay", metavar="STAY")
    p.add_argument("--emit", type=float, dest="emission_true", metavar="EMIT")
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
        record = {"exact": qb.lower}
    else:
        # the bracket's fields in declaration order, the threshold and exactness as text
        record = {f.name: getattr(qb, f.name) for f in dataclasses.fields(qb)}
        record.update(threshold=format_threshold(qb.threshold), exactness=qb.exactness.value)
    _emit_record(record, args.format)
    return 0


def _emit_record(record: dict, fmt: str) -> None:
    """Print one query record. JSON prints its fields as they are; the
    human ``key=value`` lines and CSV (a header, then one row) leave out
    the threshold and print floats at 9 decimals."""
    if fmt == "json":
        print(json.dumps(record))
        return
    shown = {k: f"{v:.9f}" if isinstance(v, float) else str(v) for k, v in record.items() if k != "threshold"}
    if fmt == "human":
        print("\n".join(f"{k}={v}" for k, v in shown.items()))
    else:
        print(",".join(shown))
        print(",".join(shown.values()))


def _cmd_sweep(args) -> int:
    chain = {"--window": args.window, "--stay": args.transition_stay, "--emit": args.emission_true}
    unused = {"network path": args.path, "--target": args.target, "--obs": args.obs} if args.hmm else chain
    for flag, value in unused.items():
        if value is not None:
            raise QueryError(f"sweep takes no {flag} {'with' if args.hmm else 'without'} --hmm")
    if args.hmm:
        params = _given(HmmParams, args)
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


def _emit_sweep(rows: Iterator[QueryBounds], fmt: str) -> None:
    """Print each row as the sweep yields it. The header waits for the
    first row, so a sweep that raises at its first step prints nothing,
    and one that raises later leaves the rows it printed."""
    header, row = (SWEEP_CSV_HEADER, sweep_csv_row) if fmt == "csv" else (_HUMAN_HEADER, _human_row)
    for i, qb in enumerate(rows):
        if i == 0:
            print(header)
        print(row(qb), flush=True)


_HUMAN_HEADER = f"{'threshold':>10}  {'lower':>12}  {'upper':>12}  {'frontier':>8}  {'interior':>8}"


def _human_row(qb: QueryBounds) -> str:
    return (
        f"{format_threshold(qb.threshold):>10}  {qb.lower:>12.9f}  {qb.upper:>12.9f}  "
        f"{qb.frontier_size:>8}  {qb.interior_size:>8}"
    )


def _cmd_dsep(args) -> int:
    net = load_network(_read(args.path))
    separated = d_separated(net, args.A, args.B, args.C)
    print("true" if separated else "false")
    return 0 if separated else 6


def _given(record: type, args):
    """A generator ``record`` built from only the flags that were given:
    each flag is stored under the field it sets, and the record alone
    holds the default of every other field."""
    given = ((f.name, getattr(args, f.name, None)) for f in dataclasses.fields(record))
    return record(**{name: value for name, value in given if value is not None})


def _cmd_gen_random(args) -> int:
    _write_doc(serialize(random_network(_given(RandomNetSpec, args))), args.out)
    return 0


def _cmd_gen_hmm(args) -> int:
    params = _given(HmmParams, args)
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
