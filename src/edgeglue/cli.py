"""Command-line surface.

Subcommands: glue, count, ex, zex, exponent, threshold, construct,
supersat, verify, cache.  Exit codes: 0 success, 1 domain error (JSON on
stderr), 2 usage error.  Randomized subcommands require --seed and echo it.

Graphs are named inline (c4, p3, k2,3, s3) or given as raw graph6; signed
patterns use c{2k} (alternating cycle), k{a},{b}, s{k}+ / s{k}-.
Exact rationals print as "num/den" strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import bounds, constructions, extremal, gluing, store, supersat
from .errors import EdgeGlueError, EdgeNotInGraph, InvalidRootedPattern, SizeExceeded
from .graphs import GRAPH6_MAX_SHORT, LabeledGraph, encode_graph6, parse_graph, parse_signed_graph

STORE_ENV = "EDGEGLUE_STORE"


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _natural(text: str) -> int:
    """argparse type: a nonnegative integer (a size, an index, a cap or a seed)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _naturals(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated nonnegative integers."""
    return tuple(_natural(t) for t in text.split(","))


def _pairs(text: str) -> frozenset[tuple[int, ...]]:
    """argparse type: comma-separated a-b vertex pairs."""
    return frozenset(tuple(_natural(x) for x in pair.split("-")) for pair in text.split(","))


def _probability(text: str) -> Fraction:
    p = _frac(text)
    if not 0 <= p <= 1:
        raise argparse.ArgumentTypeError(f"expected a probability in [0, 1], got {text!r}")
    return p


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _store_path(args) -> str | None:
    return getattr(args, "store", None) or os.environ.get(STORE_ENV)


def _edge_at(g: LabeledGraph, index: int) -> tuple[int, int]:
    """The edge a CLI edge index names: an index into g.sorted_edges."""
    try:
        return g.sorted_edges[index]
    except IndexError:
        raise EdgeNotInGraph(f"edge index {index} out of range for {g.edge_count} edges") from None


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_glue(args) -> int:
    a = parse_graph(args.a)
    b = parse_graph(args.b)
    ea = _edge_at(a, args.ea)
    eb = _edge_at(b, args.eb)
    for g in gluing.glue_along_edge(a, ea, b, eb):
        print(encode_graph6(g))
    return 0


def cmd_count(args) -> int:
    from .embed import count_copies, count_embeddings

    if args.signed:
        h = parse_signed_graph(args.pattern)
        g = parse_signed_graph(args.host)
    else:
        h = parse_graph(args.pattern)
        g = parse_graph(args.host)
    _emit({"embeddings": count_embeddings(h, g), "copies": count_copies(h, g)})
    return 0


def _exact(args, kind: str, size: tuple[int, ...], forbidden: list) -> int:
    """ex and zex: the stored record for the query, marked "cached", or a
    fresh solve, appended to the store when there is one."""
    path = _store_path(args)
    certs = extremal.forbidden_certificates(forbidden)
    hit = store.lookup(path, kind, certs, size) if path else None
    if hit is not None:
        rec = replace(hit, method="cached")
    else:
        if kind == "turan":
            rec = extremal.exact_turan(*size, forbidden, method=args.method)
        else:
            rec = extremal.exact_zarankiewicz(*size, *forbidden, method=args.method)
        if path:
            store.store_record(path, rec)
    _emit({"value": rec.value, "witness": rec.witness, "method": rec.method})
    return 0


def cmd_ex(args) -> int:
    return _exact(args, "turan", (args.n,), [parse_graph(t) for t in args.forbid])


def cmd_zex(args) -> int:
    return _exact(args, "zarankiewicz", (args.m, args.n), [parse_signed_graph(args.pattern)])


def _rooted_from_args(args) -> gluing.RootedPattern:
    h = parse_graph(args.pattern)
    if args.root_edge is not None:
        return gluing.edge_rooted(h, _edge_at(h, args.root_edge))
    dist = _edge_at(h, args.marked_edge) if args.marked_edge is not None else None
    return gluing.RootedPattern(h, args.root_vertices, args.root_edges or frozenset(), dist)


def _stats_from_args(args) -> bounds.PatternStats:
    try:
        return bounds.PatternStats.from_rooted(_rooted_from_args(args))
    except ValueError as exc:  # the root forest is not a proper part of the pattern
        raise InvalidRootedPattern(str(exc)) from None


def cmd_exponent(args) -> int:
    b1, b2 = bounds.es_exponent_branches(args.alpha, _stats_from_args(args))
    _emit({"alpha_prime": _frac_str(max(b1, b2)), "branch": 1 if b1 >= b2 else 2})
    return 0


def cmd_threshold(args) -> int:
    stats = _stats_from_args(args)
    th = bounds.cleaning_threshold(args.n, stats, args.gamma, args.alpha, args.c)
    _emit(
        {
            "value": th.value,
            "dominating_branch": th.dominating_branch,
            "branch1_n_exponent": _frac_str(th.branch1.n_exponent),
            "branch2_n_exponent": _frac_str(th.branch2.n_exponent),
        }
    )
    return 0


_CONSTRUCT_NEEDS = {"gnp": ("n", "p"), "deletion": ("n", "forbid"), "sign-split": ("host",)}


def cmd_construct(args) -> int:
    missing = [f"--{name}" for name in _CONSTRUCT_NEEDS[args.kind] if getattr(args, name) is None]
    if missing:
        raise EdgeGlueError(f"construct --kind {args.kind} needs {' and '.join(missing)}")
    if "n" in _CONSTRUCT_NEEDS[args.kind] and args.n > GRAPH6_MAX_SHORT:
        raise SizeExceeded(f"construct prints graph6, which supports --n <= {GRAPH6_MAX_SHORT}")
    sampler = constructions.SeededSampler(args.seed)
    if args.kind == "gnp":
        p = float(args.p)
        g = constructions.sample_gnp(args.n, p, sampler)
        header = {"kind": "gnp", "seed": args.seed, "p": p, "n": args.n}
    elif args.kind == "deletion":
        f = parse_graph(args.forbid)
        g = constructions.deletion_construction(args.n, f, sampler)
        header = {
            "kind": "deletion",
            "seed": args.seed,
            "p": constructions.deletion_probability(args.n, f),
            "n": args.n,
            "forbidden": args.forbid,
        }
    else:
        base = parse_graph(args.host)
        sg = constructions.random_sign_split(base, sampler)
        header = {"kind": "sign-split", "seed": args.seed, "n": base.vertex_count}
        _emit(header)
        print(sg.to_json())
        return 0
    _emit(header)
    print(encode_graph6(g))
    return 0


def cmd_supersat(args) -> int:
    host = parse_graph(args.host)
    p = _rooted_from_args(args)
    caps = supersat.FamilyConstraints(
        per_edge_cap=args.per_edge_cap,
        per_pair_cap=args.per_pair_cap,
        target_size=args.target_size,
    )
    sampler = constructions.SeededSampler(args.seed) if args.shuffle else None
    fam = supersat.build_balanced_family(host, p, caps, sampler)
    _emit({"seed": args.seed, "size": fam.size})
    print(fam.to_json())
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.family, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise EdgeGlueError(f"cannot read family file: {exc}") from exc
    fam = supersat.BalancedFamily.from_json(data)
    caps = supersat.FamilyConstraints(
        per_edge_cap=args.per_edge_cap, per_pair_cap=args.per_pair_cap
    )
    report = supersat.verify_family(fam, caps)
    _emit(
        {
            "size": report.size,
            "edge_violations": len(report.edge_violations),
            "pair_violations": len(report.pair_violations),
            "invalid_members": len(report.invalid_members),
            "repeated_members": len(report.repeated_members),
        }
    )
    return 0


def cmd_cache(args) -> int:
    path = _store_path(args)
    if not path:
        raise EdgeGlueError("cache needs --store or EDGEGLUE_STORE")
    for rec in store.load_records(path, kind=args.kind):
        _emit(rec.to_dict())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_rooted_flags(sp):
    sp.add_argument("--pattern", required=True, help="pattern graph (name or graph6)")
    roots = sp.add_mutually_exclusive_group(required=True)
    roots.add_argument("--root-edge", type=_natural, default=None,
                       help="index into the sorted edge list; F = that single edge")
    roots.add_argument("--root-vertices", type=_naturals, default=None,
                       help="comma-separated root vertices")
    sp.add_argument("--root-edges", type=_pairs, default=None, help="comma-separated a-b pairs")
    sp.add_argument("--marked-edge", type=_natural, default=None,
                    help="distinguished edge index (defaults to the root edge)")


def _add_exact_flags(sp):
    sp.add_argument("--method", choices=["oracle", "branch-and-bound"],
                    default="branch-and-bound")
    sp.add_argument("--store", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="edgeglue")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("glue", help="glue two graphs along marked edges")
    sp.add_argument("--a", required=True)
    sp.add_argument("--ea", type=_natural, required=True,
                    help="edge index in a's sorted edge list")
    sp.add_argument("--b", required=True)
    sp.add_argument("--eb", type=_natural, required=True)
    sp.set_defaults(func=cmd_glue)

    sp = sub.add_parser("count", help="embedding and copy counts")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--host", required=True)
    sp.add_argument("--signed", action="store_true")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("ex", help="exact Turán number")
    sp.add_argument("--n", type=_natural, required=True)
    sp.add_argument("--forbid", action="append", required=True)
    _add_exact_flags(sp)
    sp.set_defaults(func=cmd_ex)

    sp = sub.add_parser("zex", help="exact Zarankiewicz number")
    sp.add_argument("--m", type=_natural, required=True)
    sp.add_argument("--n", type=_natural, required=True)
    sp.add_argument("--pattern", required=True, help="signed pattern (c4, k2,3, s2+, ...)")
    _add_exact_flags(sp)
    sp.set_defaults(func=cmd_zex)

    sp = sub.add_parser("exponent", help="forest-gluing exponent")
    sp.add_argument("--alpha", type=_frac, required=True, help="rational, e.g. 1/2")
    _add_rooted_flags(sp)
    sp.set_defaults(func=cmd_exponent)

    sp = sub.add_parser("threshold", help="greedy-builder density threshold")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=_frac, required=True)
    sp.add_argument("--gamma", type=_frac, required=True)
    sp.add_argument("--c", type=_frac, default=Fraction(1))
    _add_rooted_flags(sp)
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("construct", help="seeded random constructions")
    sp.add_argument("--kind", choices=["gnp", "deletion", "sign-split"], required=True)
    sp.add_argument("--n", type=_natural, default=None)
    sp.add_argument("--p", type=_probability, default=None)
    sp.add_argument("--forbid", default=None)
    sp.add_argument("--host", default=None)
    sp.add_argument("--seed", type=_natural, required=True)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("supersat", help="greedy balanced-family builder")
    sp.add_argument("--host", required=True)
    _add_rooted_flags(sp)
    sp.add_argument("--per-edge-cap", type=_natural, default=None)
    sp.add_argument("--per-pair-cap", type=_natural, default=None)
    sp.add_argument("--target-size", type=_natural, default=None)
    sp.add_argument("--shuffle", action="store_true", help="seeded shuffle of the edge order")
    sp.add_argument("--seed", type=_natural, required=True)
    sp.set_defaults(func=cmd_supersat)

    sp = sub.add_parser("verify", help="re-check a serialized family against caps")
    sp.add_argument("--family", required=True, help="path to a family JSON file")
    sp.add_argument("--per-edge-cap", type=_natural, default=None)
    sp.add_argument("--per-pair-cap", type=_natural, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("cache", help="list stored extremal records")
    sp.add_argument("--store", default=None)
    sp.add_argument("--kind", default=None, choices=["turan", "zarankiewicz"])
    sp.set_defaults(func=cmd_cache)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (EdgeGlueError, OSError) as exc:  # OSError: an unusable --store path
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
