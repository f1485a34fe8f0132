"""Command line front end.

    gfs ingest <store> [--budget M] [--stats LIST] < data.csv
    gfs compact <store>
    gfs query <store> --interval t0:t1 | --member v1,..,vd | --range lo:hi,..
    gfs compare <A> <B>
    gfs inspect <store> [--json]
    gfs serve <store> --socket PATH

CSV input is one row per time step, d comma-separated reals; an optional
first line "#observation,action,reward" labels the channels.  Every row
must hold as many values as the first, or nothing is ingested, and the rows
go into the store as one block.  A new store gets --budget slots, 256 when
the flag is absent, the statistics of --stats and the header's labels.  An
existing store keeps its budget unless --budget is given, and is then
rebalanced to it at once, before any new rows; --stats and a header on it
must name its own statistics and labels, or nothing is saved.
inspect lists the event totals, among them the per-level access tallies
of the requests gfs serve answered, which it saves on exit; inspect --json
prints the whole accounting as one JSON object, including the event totals
and the last events kept.  Exit codes: 0 success, 1 usage error, 2 data
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import compare, container, curation, index, service, stats
from .errors import ChannelMismatch, StoreError
from .record import SummaryRecord

DEFAULT_BUDGET = 256
VALID_LABELS = {"observation", "action", "reward"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def _parse_stats(spec: str | None) -> stats.StatisticSet:
    if not spec:
        return stats.StatisticSet()
    kw = {}
    for token in spec.split(","):
        token = token.strip()
        if token == "cov":
            kw["covariance"] = True
        elif token == "hull":
            kw["hull"] = True
        elif token == "swv":
            kw["swv"] = True
        elif token.startswith("hist="):
            lo, hi, n = token[5:].split(":")
            kw["histogram_edges"] = tuple(np.linspace(float(lo), float(hi), int(n) + 1).tolist())
        else:
            raise ValueError(f"unknown statistic token {token!r}")
    return stats.StatisticSet(**kw)


def _stats_list(opts: stats.StatisticSet) -> str:
    """The statistic ids of ``opts``, the histogram with its range and bin count."""
    names = opts.names()
    if opts.histogram_edges is not None:
        edges = opts.histogram_edges
        names[names.index("histogram")] = f"histogram[{_fmt(edges[0])}:{_fmt(edges[-1])}:{len(edges) - 1}]"
    return ",".join(names)


def _read_csv(stream):
    labels = None
    rows = []
    for lineno, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            labels = tuple(tok.strip() for tok in line[1:].split(","))
            bad = [tok for tok in labels if tok not in VALID_LABELS]
            if bad:
                raise ValueError(f"line {lineno}: unknown channel label(s) {bad}")
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {lineno}: expected {len(rows[0])} values, got {len(row)}")
        rows.append(row)
    return labels, rows


def cmd_ingest(args) -> int:
    labels, rows = _read_csv(sys.stdin)
    if os.path.exists(args.store):
        rec = container.load(args.store)
        if args.stats is not None and _parse_stats(args.stats) != rec.opts:
            raise ValueError(
                f"the store keeps {_stats_list(rec.opts)}; "
                f"--stats asks for {_stats_list(_parse_stats(args.stats))}"
            )
        if labels is not None and labels != rec.labels:
            raise ChannelMismatch(f"the store labels its channels {','.join(rec.labels)}; the header {','.join(labels)}")
        if args.budget is not None and args.budget != rec.budget:
            rec.rules.budget_slots = args.budget
            rec.rules.check()
            rec.rebalance(reason="budget")
    else:
        if not rows:
            raise ValueError("no data on stdin and no existing store")
        channels = len(rows[0])
        rec = SummaryRecord(
            channels=channels,
            budget=DEFAULT_BUDGET if args.budget is None else args.budget,
            opts=_parse_stats(args.stats),
            labels=labels,
        )
    rec.ingest_block(rows)
    rec.validate()
    container.save(rec, args.store)
    print(f"ingested {len(rows)} rows; slots {rec.slots()}/{rec.budget}; t = {rec.now}")
    return 0


def cmd_compact(args) -> int:
    rec = container.load(args.store)
    curation.compact(rec)
    rec.validate()
    container.save(rec, args.store)
    print(f"compacted; slots {rec.slots()}/{rec.budget}")
    return 0


def cmd_query(args) -> int:
    rec = container.load(args.store)
    if args.interval:
        t0, t1 = (int(tok) for tok in args.interval.split(":"))
        for part in rec.query_interval(t0, t1):
            s = part.sample
            flag = " coarse" if part.coarse else ""
            print(
                f"[{s.t_start},{s.t_end}) n={s.n} mean={np.array2string(s.mean, precision=6)}{flag}"
            )
        return 0
    if args.member:
        q = [float(tok) for tok in args.member.split(",")]
        res = rec.membership(q)
        if res.absent_certain:
            print(f"absent (certain), {res.nodes_visited} stored sample(s) tested")
        else:
            print(f"{len(res.candidates)} candidate sample(s), {res.nodes_visited} stored sample(s) tested")
            for s, like in res.candidates:
                print(f"  [{s.t_start},{s.t_end}) n={s.n} likelihood={_fmt(like)}")
        return 0
    if args.range:
        lo, hi = [], []
        for tok in args.range.split(","):
            a, b = tok.split(":")
            lo.append(float(a))
            hi.append(float(b))
        leaves = list(rec.samples_in_time_order())
        if not leaves:
            print("count in [0, 0]")
            return 0
        low, up = index.range_count_bounds(index.build(leaves), lo, hi)
        print(f"count in [{low}, {up}]")
        return 0
    raise ValueError("one of --interval/--member/--range is required")


def cmd_compare(args) -> int:
    a = container.load(args.store_a)
    b = container.load(args.store_b)
    verdict = compare.subset_verdict(a.aggregate(), b.aggregate(), tau=args.tau)
    print(f"verdict: {verdict.verdict}")
    print(f"D(A||B): {_fmt(verdict.d_ab)}")
    print(f"D(B||A): {_fmt(verdict.d_ba)}")
    if verdict.note:
        print(f"note: {verdict.note}")
    return 0


def cmd_inspect(args) -> int:
    rec = container.load(args.store)
    info = container.inspect_summary(rec)
    if args.json:
        print(json.dumps(info, sort_keys=True))
        return 0
    print(
        f"stream t = {info['now']}; slots {info['slots']}/{info['budget']}; "
        f"merges {info['merge_count']}; scalars {info['scalar_footprint']}"
    )
    print(f"channels: {info['channels']} {info['labels']}; statistics: {','.join(info['statistics'])}")
    for row in info["levels"]:
        print(
            f"  level {row['level']:2d} (scale {row['scale']:6d}): {row['count']:4d} samples, "
            f"raw [{row['t_start']},{row['t_end']}), n={row['n_total']}, "
            f"{row['floats_per_sample']:.1f} floats + {row['ints_per_sample']:.1f} ints per sample"
        )
    print(f"provenance: {info['provenance_events']} events, last {len(info['provenance'])} kept")
    for op, level, reason, count in info["event_counts"]:
        where = "" if level is None else f" level {level}"
        why = "" if reason is None else f" ({reason})"
        print(f"  {op}{where}{why}: {count}")
    print(f"rules: {info['rules']}")
    return 0


def cmd_serve(args) -> int:
    service.serve(args.store, args.socket)
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="gfs", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="append CSV rows from stdin to a store")
    sp.add_argument("store")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--stats", default=None, help="e.g. cov,hull,swv,hist=0:10:20")
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("compact", help="force a curation pass")
    sp.add_argument("store")
    sp.set_defaults(func=cmd_compact)

    sp = sub.add_parser("query", help="interval, membership, or range-count query")
    # a value may start with "-" then a digit or "." (--range -1:1, --member -0.5,0.2);
    # argparse takes such a token for an option unless the whole token is one number
    sp._negative_number_matcher = re.compile(r"^-[\d.]")
    sp.add_argument("store")
    sp.add_argument("--interval", default=None, metavar="T0:T1")
    sp.add_argument("--member", default=None, metavar="V1,..,VD")
    sp.add_argument("--range", default=None, metavar="L:H,..")
    sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("compare", help="KL-divergence verdict between two stores")
    sp.add_argument("store_a")
    sp.add_argument("store_b")
    sp.add_argument("--tau", type=float, default=0.1)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("inspect", help="span report, storage cost, rules, provenance")
    sp.add_argument("store")
    sp.add_argument("--json", action="store_true", help="print one JSON object")
    sp.set_defaults(func=cmd_inspect)

    sp = sub.add_parser("serve", help="answer line-delimited JSON queries on a socket")
    sp.add_argument("store")
    sp.add_argument("--socket", required=True)
    sp.set_defaults(func=cmd_serve)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (StoreError, OSError, ValueError) as exc:
        print(f"gfs: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
