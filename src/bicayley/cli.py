"""Command-line front end: build and analyze graphs, regenerate the census,
run the exhaustive searches, and emit machine-readable reports."""

from __future__ import annotations

import argparse
import json
import random
import sys

from bicayley import __version__
from bicayley.bci import bci_by_criterion, bci_oracle, cross_check, verdict_payload
from bicayley.census import (
    SCOPE_NOTE,
    THEOREM_A_GRAPHS,
    analysis,
    negative_controls,
    table1_instances,
    table2_instances,
    theorem_a_search,
    theorem_b_verify,
    verify_instance,
)
from bicayley.construction import build, parse_spec, predicted_connected
from bicayley.graphs import bipartition, encode_graph6, is_connected
from bicayley.symmetry import _check_search_bound, certificate
from bicayley.voltage import derive, fig_alpha, fig_assignment, fig_base, lifts

__all__ = ["main"]


def _emit(payload: dict, args, lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _report(instances: list[dict], passed: bool) -> dict:
    return {
        "version": __version__,
        "scope": SCOPE_NOTE,
        "instances": instances,
        "pass": passed,
    }


def _refuse_empty(args, selection: str) -> int:
    """A selection of no instance checks nothing, so it cannot pass."""
    if args.json:
        _emit(_report([], False), args, [])
    print(f"bicayley {args.command}: no instances {selection}", file=sys.stderr)
    return 2


def cmd_build(args) -> int:
    spec = _searchable_spec(args.spec)
    bigraph = build(spec)
    g = bigraph.graph
    text = encode_graph6(g)
    if args.graph6_out:
        with open(args.graph6_out, "w") as fh:
            fh.write(text + "\n")
    payload = {
        "spec": args.spec,
        "vertices": g.n,
        "edges": g.edge_count,
        "connected": is_connected(g),
        "predicted_connected": predicted_connected(spec),
        "graph6": text,
    }
    _emit(
        payload,
        args,
        [
            f"vertices: {g.n}",
            f"edges: {g.edge_count}",
            f"connected: {payload['connected']}",
            f"graph6: {text}",
        ],
    )
    return 0 if payload["connected"] == payload["predicted_connected"] else 1


def _searchable_spec(text: str):
    """The parsed spec, refused before it is built if its 2|H| vertices exceed the search bound."""
    spec = parse_spec(text)
    n = 2 * spec.group.size
    _check_search_bound(n, f"graph on {n} vertices")
    return spec


def cmd_analyze(args) -> int:
    g = (bigraph := build(_searchable_spec(args.spec))).graph
    record = analysis(bigraph)
    payload = {
        "spec": args.spec,
        "vertices": record["vertices"],
        "girth": record["girth"],
        "bipartite": bipartition(g) is not None,
        **{
            key: record[key]
            for key in ("connected", "aut_order", "arc_type", "arc_regular", "order_formula_ok")
        },
        "certificate": certificate(g),
    }
    ok = True
    if args.seed is not None:
        rng = random.Random(args.seed)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            if certificate(g.relabel(perm)) != payload["certificate"]:
                ok = False
        payload["relabel_selfcheck"] = ok
    _emit(
        payload,
        args,
        [f"{key}: {value}" for key, value in payload.items()],
    )
    return 0 if ok else 1


def _searchable_bound(max_vertices: int) -> int:
    """``--max-vertices``, refused before any instance is listed if it exceeds the search bound."""
    _check_search_bound(max_vertices, f"--max-vertices {max_vertices}")
    return max_vertices


def _cmd_table(args, instances) -> int:
    if not instances:
        return _refuse_empty(args, f"within --max-vertices {args.max_vertices}")
    records = [verify_instance(inst) for inst in instances]
    passed = all(rec["ok"] for rec in records)
    lines = [
        f"row {rec['row']}: {rec['description']}: n={rec['vertices']} "
        f"girth={rec['girth']} k={rec['arc_type']} |Aut|={rec['aut_order']} "
        f"ok={rec['ok']}"
        for rec in records
    ]
    lines.append(f"pass: {passed}")
    _emit(_report(records, passed), args, lines)
    return 0 if passed else 1


def cmd_table1(args) -> int:
    return _cmd_table(args, table1_instances(_searchable_bound(args.max_vertices)))


def cmd_table2(args) -> int:
    # the largest one-matching member has 48 vertices
    return _cmd_table(args, table2_instances(args.max_vertices))


def cmd_theorem_a(args) -> int:
    if args.max_group_order < 2:  # Z_2 is the smallest group a triple generates
        return _refuse_empty(args, f"within --max-group-order {args.max_group_order}")
    results = theorem_a_search(args.max_group_order)
    # Theorem A's graphs by vertex count; one over H has 2|H| vertices
    expected = sorted(name for _, name, n in THEOREM_A_GRAPHS if n <= 2 * args.max_group_order)
    passed = sorted(rec["name"] for rec in results) == expected
    lines = [
        f"{rec['name']}: n={rec['vertices']} k={rec['arc_type']} example {rec['example']}"
        for rec in results
    ]
    lines.append(f"pass: {passed}")
    _emit(_report(results, passed), args, lines)
    return 0 if passed else 1


def cmd_theorem_b(args) -> int:
    results = theorem_b_verify(_searchable_bound(args.max_vertices))
    if not results:
        return _refuse_empty(args, f"within --max-vertices {args.max_vertices}")
    passed = all(rec["is_bci"] for rec in results)
    lines = [
        f"{rec['description']}: n={rec['vertices']} bci={rec['is_bci']} "
        f"oracle_checked={rec['oracle_checked']}"
        for rec in results
    ]
    lines.append(f"pass: {passed}")
    _emit(_report(results, passed), args, lines)
    return 0 if passed else 1


def cmd_voltage_fig(args) -> int:
    orders = [int(tok) for tok in args.orders.split(",") if tok.strip()]
    if not orders:
        return _refuse_empty(args, f"in --orders {args.orders!r}")
    known = {name: cert for cert, name, _ in THEOREM_A_GRAPHS}
    base_ok = certificate(fig_base()) == known["Q_3"]
    alpha = fig_alpha()
    records = []
    passed = base_ok
    for order in orders:
        va = fig_assignment(order)
        cover = derive(va)
        lifted = lifts(va, alpha) is not None
        # the image circuits force sigma*(1) = 1 and sigma*(1) = -2, so a
        # lift exists exactly when 3 = 0 in the voltage group
        expected = order in (1, 3)
        rec = {
            "order": order,
            "cover_vertices": cover.n,
            "alpha_lifts": lifted,
            "expected_lift": expected,
            "ok": lifted == expected,
        }
        if order == 3:
            rec["cover_is_gp_12_5"] = certificate(cover) == known["GP(12,5)"]
            rec["ok"] = rec["ok"] and rec["cover_is_gp_12_5"]
        passed = passed and rec["ok"]
        records.append(rec)
    payload = _report(records, passed)
    payload["base_is_cube"] = base_ok
    lines = [f"base is the cube: {base_ok}"]
    for rec in records:
        extra = (
            f" cover=GP(12,5): {rec['cover_is_gp_12_5']}" if "cover_is_gp_12_5" in rec else ""
        )
        lines.append(
            f"order {rec['order']}: cover n={rec['cover_vertices']} "
            f"lifts={rec['alpha_lifts']} expected={rec['expected_lift']}{extra}"
        )
    lines.append(f"pass: {passed}")
    _emit(payload, args, lines)
    return 0 if passed else 1


def cmd_iso(args) -> int:
    spec1, spec2 = _searchable_spec(args.spec1), _searchable_spec(args.spec2)
    g1, g2 = build(spec1).graph, build(spec2).graph
    same = certificate(g1) == certificate(g2)
    payload = {"spec1": args.spec1, "spec2": args.spec2, "isomorphic": same}
    _emit(payload, args, [f"isomorphic: {same}"])
    return 0 if same else 1


def cmd_bci(args) -> int:
    bigraph = build(_searchable_spec(args.spec))
    decide = {"criterion": bci_by_criterion, "oracle": bci_oracle, "cross": cross_check}
    verdict = decide[args.method](bigraph)
    payload = verdict_payload(verdict)
    _emit(payload, args, [f"{key}: {value}" for key, value in payload.items()])
    return 0 if verdict.is_bci else 1


def cmd_negative_controls(args) -> int:
    result = negative_controls()
    lines = [
        f"Desargues spoke-only match: {result['desargues_spoke_only_match']}",
    ]
    for name, rec in result["non_transitive"].items():
        lines.append(f"{name}: arc_regular={rec['arc_regular']}")
    for name, rec in result["positive_control"].items():
        lines.append(f"{name}: arc_type={rec['arc_type']}")
    lines.append(f"pass: {result['ok']}")
    _emit(result, args, lines)
    return 0 if result["ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bicayley",
        description="Bi-Cayley graphs over finite abelian groups: construction, "
        "symmetry, census verification, and the BCI property.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("build", help="build a graph from a spec string")
    p.add_argument("spec", help='e.g. "H=[6,2]; R={(0,1)}; L={(3,0)}; S={(0,0),(1,1)}"')
    p.add_argument("--graph6-out", help="write the graph6 encoding to a file")
    p.set_defaults(func=cmd_build)

    p = add_parser("analyze", help="symmetry analysis of a spec")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, help="also run a seeded relabel self-check")
    p.set_defaults(func=cmd_analyze)

    p = add_parser("table1", help="verify the spoke-only census within a bound")
    p.add_argument("--max-vertices", type=int, default=64)
    p.set_defaults(func=cmd_table1)

    p = add_parser("table2", help="verify the one-matching census within a bound")
    p.add_argument("--max-vertices", type=int, default=64)
    p.set_defaults(func=cmd_table2)

    p = add_parser("theorem-a", help="exhaustive search for 1-type symmetric graphs")
    p.add_argument("--max-group-order", type=int, default=24)
    p.set_defaults(func=cmd_theorem_a)

    p = add_parser("theorem-b", help="BCI verification over the spoke-only census")
    p.add_argument("--max-vertices", type=int, default=64)
    p.set_defaults(func=cmd_theorem_b)

    p = add_parser(
        "voltage-fig1", help="cube-quotient voltage covers and the order-3 lift"
    )
    p.add_argument("--orders", default="3,5,7", help="comma-separated voltage group orders")
    p.set_defaults(func=cmd_voltage_fig)

    p = add_parser("iso", help="certificate comparison of two specs (exit 0 iff isomorphic)")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.set_defaults(func=cmd_iso)

    p = add_parser("bci", help="BCI verdict for a spoke-only spec (exit 0 iff BCI)")
    p.add_argument("spec")
    p.add_argument(
        "--method", choices=("criterion", "oracle", "cross"), default="criterion"
    )
    p.set_defaults(func=cmd_bci)

    p = add_parser("negative-controls", help="non-membership checks for the census")
    p.set_defaults(func=cmd_negative_controls)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad input, a bound it exceeds or an unwritable output file;
        # RuntimeError (a failed check) propagates
        print(f"bicayley {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
