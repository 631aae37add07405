"""Command-line front end: every capability as a subcommand.

Exit codes: 0 completed, 1 usage or input error, 2 counterexample found
(search) or fact violation (lemmas stress/scan).  Rationals on the
command line are exact `p/q` strings; decimal input is rejected because
the interesting boundaries are razor-thin.

An option the chosen mode never reads is an error, checked in one place
per mode: each `audit` kind's sub-parser declares only the options it
reads, `_cmd_lemmas` and `_cmd_search` reject `--count` and `--seed`
outside the mode that reads them, and `search.SearchConfig` rejects
eulerian with the randomized mode.  Numbers are ASCII digits, and only
`layers --max` and the `construct offset` residues take a minus sign.
Rationals and seeds are nonnegative (`random.Random` takes a seed's
absolute value, so a negative seed would repeat a positive one's stream),
and counts are at least 1.  `main` builds the parser once per process, on
its first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from typing import Optional

from . import constructions, frontier, lemmas, search
from .audit import audit_bells, audit_bigindeg, audit_bigset
from .digraph import (
    BipartiteDigraph,
    GeneralDigraph,
    VertexRef,
    backward_layers,
    compliance_profile,
    forward_layers,
    girth,
    is_compliant,
)
from .errors import BipgirthError
from .io import parse_edge_list, to_dot, to_edge_list

# Numbers on the command line are ASCII digits, as vertex labels are
# (`digraph._LABEL`): `\d`, `str.isdecimal` and `int` also take the digits of
# other scripts, and `int` takes underscores and spaces.
_NATURAL_RE = re.compile("[0-9]+")
_INTEGER_RE = re.compile("-?[0-9]+")
_RATIONAL_RE = re.compile("[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """A nonnegative p/q rational: every rational option is nonnegative."""
    if not _RATIONAL_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a nonnegative p/q rational (decimals are rejected)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None


def _natural(text: str) -> int:
    if not _NATURAL_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return int(text)


def _positive_int(text: str) -> int:
    if not _NATURAL_RE.fullmatch(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _integer(text: str) -> int:
    """For the options that take a negative value: offsets (taken modulo n)
    and `layers --max` (whose check names the depth)."""
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def _offsets(text: str) -> frozenset[int]:
    return frozenset(_integer(x) for x in text.split(","))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a comma list led by a negative number (`--out-offsets -1,2`) is a value
        self._negative_number_matcher = re.compile(r"^-[0-9][0-9,.-]*$")

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_out(text: str, path: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load(path: str, kind=BipartiteDigraph):
    """Parse an edge-list file holding a digraph of class `kind` (a class or
    a tuple of classes)."""
    with open(path) as fh:
        g = parse_edge_list(fh.read())
    if not isinstance(g, kind):
        raise ValueError(f"{path} holds a {type(g).__name__}, "
                         "which this command does not take")
    return g


def _emit_graph(g, args) -> int:
    text = to_dot(g) if args.format == "dot" else to_edge_list(g)
    _write_out(text, args.out)
    return 0


def _cmd_construct(args) -> int:
    which = args.family
    if which == "layered":
        g = constructions.layered_cycle(args.k, args.t)
    elif which == "circulant":
        g = constructions.circulant(args.k, args.s, args.t)
    elif which == "offset":
        g = constructions.offset_circulant(args.n, args.out_offsets, args.in_offsets)
    elif which == "ch-reduce":
        g = constructions.ch_reduce(_load(args.file, GeneralDigraph))
    else:
        g = constructions.random_compliant(args.na, args.nb, args.alpha,
                                           args.beta, seed=args.seed)
    return _emit_graph(g, args)


def _cmd_girth(args) -> int:
    gr = girth(_load(args.file, (BipartiteDigraph, GeneralDigraph)))
    if gr is None:
        print("acyclic")
    else:
        print(f"girth {gr.length}")
        print("cycle " + " ".join(str(v) for v in gr.cycle))
    return 0


def _cmd_layers(args) -> int:
    g = _load(args.file)
    v = VertexRef.parse(args.vertex)
    fn = backward_layers if args.backward else forward_layers
    layers = fn(g, v, args.max)
    for i in range(args.max + 1):
        members = " ".join(str(u) for u in sorted(
            layers[i], key=lambda u: (u.side.value, u.index)))
        print(f"{i}: {members}")
    return 0


def _cmd_comply(args) -> int:
    g = _load(args.file)
    a, b = compliance_profile(g)
    print(f"profile {a} {b}")
    print(f"compliant {str(is_compliant(g, args.alpha, args.beta)).lower()}")
    return 0


def _cmd_classify(args) -> int:
    v = frontier.classify(args.k, args.alpha, args.beta)
    print(f"{v.status.name} {v.provenance}".rstrip())  # the region CSV's provenance
    return 0


def _cmd_region(args) -> int:
    if args.format == "svg":
        text = frontier.region_svg(args.k, args.resolution)
    else:
        text = frontier.region_csv(args.k, args.resolution)
    _write_out(text, args.out)
    return 0


def _cmd_search(args) -> int:
    if args.mode != "random" and args.seed is not None:
        raise ValueError("search without --mode random ignores --seed")
    mode = "randomized" if args.mode == "random" else args.mode
    cfg = search.SearchConfig(
        n_a=args.na, n_b=args.nb, k=args.k, alpha=args.alpha, beta=args.beta,
        mode=mode, eulerian=args.eulerian, seed=args.seed or 0,
        node_limit=args.node_limit)
    report = search.find_counterexample(cfg)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 2 if report.status is search.SearchStatus.FoundCounterexample else 0


def _fact_entry(fact_id: str) -> dict:
    t0 = time.perf_counter()
    rep = lemmas.fact_scan(fact_id)
    return {
        "fact_id": rep.fact_id,
        "holds": rep.holds_everywhere,
        "margin_min": None if rep.margin_min is None else str(rep.margin_min),
        "grid_step": str(rep.grid_step),
        "wall_time_ms": round((time.perf_counter() - t0) * 1000, 3),
    }


def _cmd_lemmas(args) -> int:
    unread = [f"--{f}" for f in ("count", "seed") if getattr(args, f) is not None]
    if not args.stress and unread:
        raise ValueError(f"lemmas without --stress ignores {', '.join(unread)}")
    if args.stress:
        t0 = time.perf_counter()
        count = 1000 if args.count is None else args.count
        seed = 7 if args.seed is None else args.seed
        violations = lemmas.newineq_stress("abc", count, seed)
        out = {"stress": args.stress, "count": count, "seed": seed,
               "violations": violations,
               "wall_time_ms": round((time.perf_counter() - t0) * 1000, 3)}
        print(json.dumps(out, indent=2))
        return 2 if violations else 0
    ids = [args.fact] if args.fact else lemmas.all_fact_ids()
    entries = [_fact_entry(i) for i in ids]
    print(json.dumps(entries, indent=2))
    return 2 if any(not e["holds"] for e in entries) else 0


def _cmd_audit(args) -> int:
    g = _load(args.file)
    if args.which == "bigset":
        report = audit_bigset(g, args.k, args.alpha, args.beta, args.delta,
                              VertexRef.parse(args.vertex), horizon=args.horizon)
        out = {"kind": args.which, "passed": report.passed, "detail": report.detail,
               "entries": [asdict(e) for e in report.entries]}
    elif args.which == "bigindeg":
        report = audit_bigindeg(g, args.alpha, args.beta)
        out = {"kind": args.which, "passed": report.passed,
               "detail": report.detail}
    else:
        rep = audit_bells(g)
        out = {"kind": "bells", "conclusion_held": rep.conclusion_held,
               "lhs": str(rep.lhs), "rhs": str(rep.rhs)}
    print(json.dumps(out, indent=2))
    return 0


@functools.cache
def build_parser() -> _Parser:
    top = _Parser(prog="bipgirth",
                  description="bipartite digraph girth toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="emit a digraph from a family")
    fam = pc.add_subparsers(dest="family", required=True)
    for name in ("layered", "circulant", "offset", "ch-reduce", "random"):
        fp = fam.add_parser(name)
        fp.add_argument("--out", default="-")
        fp.add_argument("--format", choices=["edge-list", "dot"],
                        default="edge-list")
        if name == "layered":
            fp.add_argument("--k", type=_natural, required=True)
            fp.add_argument("--t", type=_natural, required=True)
        elif name == "circulant":
            fp.add_argument("--k", type=_natural, required=True)
            fp.add_argument("--s", type=_natural, required=True)
            fp.add_argument("--t", type=_natural, required=True)
        elif name == "offset":
            fp.add_argument("--n", type=_natural, required=True)
            fp.add_argument("--out-offsets", type=_offsets, required=True,
                            help="comma-separated residues for A->B")
            fp.add_argument("--in-offsets", type=_offsets, required=True,
                            help="comma-separated residues for B->A")
        elif name == "ch-reduce":
            fp.add_argument("file", help="general digraph edge-list file")
        else:
            fp.add_argument("--na", type=_natural, required=True)
            fp.add_argument("--nb", type=_natural, required=True)
            fp.add_argument("--alpha", type=parse_rational, required=True)
            fp.add_argument("--beta", type=parse_rational, required=True)
            fp.add_argument("--seed", type=_natural, default=0)
    pc.set_defaults(fn=_cmd_construct)

    pg = sub.add_parser("girth", help="shortest directed cycle")
    pg.add_argument("file")
    pg.set_defaults(fn=_cmd_girth)

    pl = sub.add_parser("layers", help="distance layers from a vertex")
    pl.add_argument("file")
    pl.add_argument("--vertex", required=True)
    pl.add_argument("--max", type=_integer, default=8)
    pl.add_argument("--backward", action="store_true")
    pl.set_defaults(fn=_cmd_layers)

    pm = sub.add_parser("comply", help="compliance profile and check")
    pm.add_argument("file")
    pm.add_argument("--alpha", type=parse_rational, required=True)
    pm.add_argument("--beta", type=parse_rational, required=True)
    pm.set_defaults(fn=_cmd_comply)

    pk = sub.add_parser("classify", help="good/bad/unknown verdict")
    pk.add_argument("--k", type=_natural, required=True)
    pk.add_argument("--alpha", type=parse_rational, required=True)
    pk.add_argument("--beta", type=parse_rational, required=True)
    pk.set_defaults(fn=_cmd_classify)

    pr = sub.add_parser("region", help="classified grid as CSV or SVG")
    pr.add_argument("--k", type=_natural, required=True)
    pr.add_argument("--resolution", type=_natural, required=True)
    pr.add_argument("--format", choices=["csv", "svg"], default="csv")
    pr.add_argument("--out", default="-")
    pr.set_defaults(fn=_cmd_region)

    ps = sub.add_parser("search", help="counterexample search (JSON report)")
    ps.add_argument("--k", type=_natural, required=True)
    ps.add_argument("--na", type=_natural, required=True)
    ps.add_argument("--nb", type=_natural, required=True)
    ps.add_argument("--alpha", type=parse_rational, required=True)
    ps.add_argument("--beta", type=parse_rational, required=True)
    ps.add_argument("--eulerian", action="store_true", help="exhaustive mode only")
    ps.add_argument("--mode", choices=["exhaustive", "random"],
                    default="exhaustive")
    ps.add_argument("--seed", type=_natural, help="with --mode random (default 0)")
    ps.add_argument("--node-limit", type=_positive_int,
                    default=search.DEFAULT_NODE_LIMIT)
    ps.set_defaults(fn=_cmd_search)

    pf = sub.add_parser("lemmas", help="fact scans and stress suites (JSON)")
    group = pf.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true")
    group.add_argument("--fact")
    group.add_argument("--stress", choices=["newineq"])
    pf.add_argument("--count", type=_positive_int,
                    help="instances with --stress (default 1000)")
    pf.add_argument("--seed", type=_natural, help="seed with --stress (default 7)")
    pf.set_defaults(fn=_cmd_lemmas)

    pa = sub.add_parser("audit", help="replay a proved dichotomy on a digraph")
    kinds = pa.add_subparsers(dest="which", required=True)
    bigset, bigindeg, bells = (kinds.add_parser(n) for n in ("bigset", "bigindeg", "bells"))
    for kp in (bigset, bigindeg, bells):
        kp.add_argument("file")
    bigset.add_argument("--k", type=_natural, required=True)
    for kp in (bigset, bigindeg):
        kp.add_argument("--alpha", type=parse_rational, required=True)
        kp.add_argument("--beta", type=parse_rational, required=True)
    bigset.add_argument("--delta", type=parse_rational, required=True)
    bigset.add_argument("--vertex", required=True)
    bigset.add_argument("--horizon", type=_positive_int)
    pa.set_defaults(fn=_cmd_audit)

    return top


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except (BipgirthError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # e.g. a header that declares 10^9 vertices: the rows are allocated up front
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
