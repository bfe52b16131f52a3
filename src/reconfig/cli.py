"""Command-line entry point.

Subcommands: construct, diameter, decide2, search, verify, apset. All
emit machine-readable JSON on stdout. Exit codes: 0 success, 1 failed
check/disagreement, 2 precondition refusal or unreadable/unwritable file,
3 node cap exceeded, 64 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import constructions, engine, search, verify
from .apsets import (
    APSetError,
    behrend_info,
    greedy_3ap_free,
    max_3ap_free,
    odd_3ap_free,
)
from .engine import DEFAULT_NODE_CAP, TJ, TS, NodeCapExceeded
from .graph import GraphError, read_graph, write_graph

EX_OK = 0
EX_FAIL = 1
EX_REFUSED = 2
EX_CAPPED = 3
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # usage problems (unknown subcommand, bad flags) exit 64, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _emit(obj) -> None:
    json.dump(obj, sys.stdout)
    sys.stdout.write("\n")


def _parse_vertices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise GraphError(f"expected comma-separated vertex ids, got {text!r}")


# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    name = args.builder
    if name == "comp-path":
        g, report = constructions.complement_path(args.n)
    elif name == "circulant":
        g, report = constructions.circulant_ap_graph(args.p, _parse_vertices(args.s))
    elif name == "toll":
        base = read_graph(args.graph, args.format)
        g, report = constructions.toll_booth_extend(
            base, args.k, _parse_vertices(args.frm), _parse_vertices(args.to),
            args.n, node_cap=args.cap,
        )
    elif name == "iterate-toll":
        g, report = constructions.iterate_toll(
            args.steps, args.per_step_n, args.base_path_n, node_cap=args.cap
        )
    elif name == "triple":
        base = read_graph(args.graph, args.format)
        g, report = constructions.triple_extend(
            base, args.k, _parse_vertices(args.frm), _parse_vertices(args.to),
            args.p, node_cap=args.cap,
        )
    elif name == "k3":
        g, report = constructions.build_k3_extremal(args.budget, node_cap=args.cap)
    else:
        g, report = constructions.build_general(
            args.k, args.budget, node_cap=args.cap
        )
    prefix = args.out or f"construct_{name}"
    write_graph(g, prefix + ".edges")
    with open(prefix + ".report.json", "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")
    _emit({
        "graph_file": prefix + ".edges",
        "report_file": prefix + ".report.json",
        "n": g.n,
        "k": report.k,
        "claimed_diameter_lb": report.claimed_diameter_lb,
    })
    return EX_OK


def _cmd_diameter(args) -> int:
    g = read_graph(args.graph, args.format)
    report = engine.max_component_diameter(g, args.k, args.rule, args.cap)
    _emit(report.to_json())
    return EX_CAPPED if report.capped else EX_OK


def _cmd_decide2(args) -> int:
    g = read_graph(args.graph, args.format)
    a = _parse_vertices(args.frm)
    b = _parse_vertices(args.to)
    out: dict = {"from": list(a), "to": list(b), "algo": args.algo}
    if args.algo == "fast":
        out["reachable"] = verify.decide_k2_fast(g, a, b)
    elif args.algo == "naive":
        out["reachable"] = verify.decide_k2_naive(g, a, b)
    else:
        fast = verify.decide_k2_fast(g, a, b)
        naive = verify.decide_k2_naive(g, a, b)
        out["fast"] = fast
        out["naive"] = naive
        out["agree"] = fast == naive
        out["reachable"] = naive
        _emit(out)
        return EX_OK if fast == naive else EX_FAIL
    _emit(out)
    return EX_OK


def _cmd_search(args) -> int:
    if args.exhaustive:
        result = search.exhaustive_search(args.n, args.k, args.rule, args.cap)
    else:
        result = search.random_search(
            args.n, args.k, args.rule, args.random, args.seed, args.cap,
            workers=args.threads,
        )
    _emit(result.to_json())
    return EX_OK


def _cmd_verify(args) -> int:
    check = args.check
    witness = None
    if check == "circulant-structure":
        ok, details = verify.check_circulant_structure(
            args.p, _parse_vertices(args.s), node_cap=args.cap
        )
        witness = details
    elif check == "63-free":
        g, report = constructions.circulant_ap_graph(args.p, _parse_vertices(args.s))
        seq = engine.shortest_sequence(
            g, 3, report.start, report.target, TJ, args.cap
        )
        ok = True
        parities = ("even", "odd") if args.parity == "both" else (args.parity,)
        witness = {}
        for parity in parities:
            fam = verify.extract_63(g, seq, parity, TJ, args.cap)
            free, bad = verify.is_63_free(fam)
            witness[parity] = {"edges": len(fam.edges), "witness": bad}
            ok = ok and free
    elif check == "config-path":
        g = read_graph(args.graph, args.format)
        ok, reason = verify.is_config_path(g, args.k, args.rule, args.cap)
        witness = reason
    elif check == "upper-bound-map":
        g = read_graph(args.graph, args.format)
        seq = engine.shortest_sequence(
            g, args.k, _parse_vertices(args.frm), _parse_vertices(args.to),
            args.rule, args.cap,
        )
        if seq is None:
            raise GraphError("endpoints are not connected")
        ok, collision = verify.verify_upper_bound_mapping(g, seq, args.rule, args.cap)
        witness = collision
    elif check == "claim-inter":
        g, report = constructions.build_k3_extremal(args.budget, node_cap=args.cap)
        ok, failures = verify.check_junction_windows(
            g, report.k, report.roles.get("junctions", [])
        )
        witness = failures or None
    else:
        g = read_graph(args.graph, args.format)
        before = engine.max_component_diameter(g, 3, TJ, args.cap).exact(
            "verify saturate", args.cap
        ).diameter
        sat = verify.saturate_to_path(g, node_cap=args.cap)
        after = engine.max_component_diameter(sat, 3, TJ, args.cap).exact(
            "verify saturate", args.cap
        ).diameter
        path_ok, reason = verify.is_config_path(sat, 3, TJ, args.cap)
        ok = path_ok and before == after
        witness = {"diameter_before": before, "diameter_after": after,
                   "path": path_ok, "reason": reason}
        if args.out:
            write_graph(sat, args.out)
    _emit({"check": check, "pass": bool(ok), "witness": witness})
    return EX_OK if ok else EX_FAIL


def _cmd_apset(args) -> int:
    method = args.method
    params = None
    if method == "exact":
        s = max_3ap_free(args.n)
    elif method == "greedy":
        s = greedy_3ap_free(args.n)
    elif method == "behrend":
        s, info = behrend_info(args.n)
        method = info["method"]
        params = info["params"]
    else:
        s = odd_3ap_free(args.n, args.mod)
        params = {"mod": args.mod}
    _emit({
        "n": args.n,
        "size": len(s.elements),
        "method": method,
        "params": params,
        "elements": list(s.elements),
    })
    return EX_OK


# ---------------------------------------------------------------------------


@functools.cache  # built by the first main() call; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="reconfig", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--cap", type=int, default=DEFAULT_NODE_CAP,
        help="node cap for configuration-graph exploration",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker processes for random search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p):
        p.add_argument("graph", help="input graph file")
        p.add_argument(
            "--format", choices=("edge-list", "graph6"), default="edge-list"
        )

    pc = sub.add_parser("construct", help="build an extremal graph")
    pcs = pc.add_subparsers(dest="builder", required=True)
    b = pcs.add_parser("comp-path")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--out")
    b = pcs.add_parser("circulant")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--s", required=True, help="comma-separated differences")
    b.add_argument("--out")
    b = pcs.add_parser("toll")
    add_graph_arg(b)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--from", dest="frm", required=True)
    b.add_argument("--to", required=True)
    b.add_argument("--n", type=int, required=True, help="toll sections")
    b.add_argument("--out")
    b = pcs.add_parser("iterate-toll")
    b.add_argument("--steps", type=int, required=True)
    b.add_argument("--per-step-n", type=int, default=1)
    b.add_argument("--base-path-n", type=int, default=4)
    b.add_argument("--out")
    b = pcs.add_parser("triple")
    add_graph_arg(b)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--from", dest="frm", required=True)
    b.add_argument("--to", required=True)
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--out")
    b = pcs.add_parser("k3")
    b.add_argument("--budget", type=int, required=True)
    b.add_argument("--out")
    b = pcs.add_parser("general")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--budget", type=int, required=True)
    b.add_argument("--out")

    pd = sub.add_parser("diameter", help="max component diameter")
    add_graph_arg(pd)
    pd.add_argument("--k", type=int, required=True)
    pd.add_argument("--rule", choices=(TJ, TS), default=TJ)

    p2 = sub.add_parser("decide2", help="2-token reachability")
    add_graph_arg(p2)
    p2.add_argument("--from", dest="frm", required=True)
    p2.add_argument("--to", required=True)
    p2.add_argument("--algo", choices=("fast", "naive", "both"), default="both")

    ps = sub.add_parser("search", help="search for extremal graphs")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--rule", choices=(TJ, TS), default=TJ)
    mode = ps.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", type=int, metavar="TRIALS")

    pv = sub.add_parser("verify", help="run a structural check")
    pvs = pv.add_subparsers(dest="check", required=True)
    c = pvs.add_parser("circulant-structure")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--s", required=True)
    c = pvs.add_parser("63-free")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--s", required=True)
    c.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    c = pvs.add_parser("config-path")
    add_graph_arg(c)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--rule", choices=(TJ, TS), default=TJ)
    c = pvs.add_parser("upper-bound-map")
    add_graph_arg(c)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--from", dest="frm", required=True)
    c.add_argument("--to", required=True)
    c.add_argument("--rule", choices=(TJ, TS), default=TJ)
    c = pvs.add_parser("claim-inter")
    c.add_argument("--budget", type=int, default=47)
    c = pvs.add_parser("saturate")
    add_graph_arg(c)
    c.add_argument("--out", help="write the saturated graph here")

    pa = sub.add_parser("apset", help="3-AP-free set generators")
    pa.add_argument("method", choices=("exact", "behrend", "greedy", "odd"))
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--mod", type=int, default=4, choices=(4, 8))

    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "diameter": _cmd_diameter,
    "decide2": _cmd_decide2,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "apset": _cmd_apset,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except NodeCapExceeded as exc:
        print(f"capped: {exc}", file=sys.stderr)
        _emit({"capped": True, "error": str(exc)})
        return EX_CAPPED
    except (GraphError, APSetError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EX_REFUSED


if __name__ == "__main__":
    sys.exit(main())
