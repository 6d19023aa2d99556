"""Command-line front end with deterministic, scriptable output.

JSON is the default payload; ``--human`` renders the same data as
aligned text.  Exit codes: 0 means computed (and, for predicate
commands, the property holds), 1 means the property fails, 2 means bad
input, 3 means a resource cap was hit or memory ran out.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from math import comb

from .balance import (circle_sign, is_balanceable, is_balanced,
                      negative_fundamental_circle)
from .camion import camion_reorient, frustration
from .errors import InputError, ResourceError
from .gamma import cyclomatic_number
from .linalg import Domain
from .matroids import enumerate_circuits, fano_demo, lk_negative_circle_minimum
from .model import (
    dump,
    incidence_matrix,
    load,
    matrix_csv,
    serialize,
    to_dot,
)
from .shunting import ShuntingDecomposition, verify_shunting


def _render_human(payload, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value and not _flat(value):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_human(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.extend(_render_human(item, indent))
                lines.append("")
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(payload)}")
    return lines


def _flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(x, (dict, list)) for x in value)
    return False


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, list):
        return " ".join(str(x) for x in value)
    return str(value)


def _emit(payload: dict, human: bool) -> None:
    if human:
        print("\n".join(_render_human(payload)))
    else:
        print(json.dumps(payload, indent=2))


def _cmd_validate(args) -> int:
    g = load(args.file)
    _emit({
        "command": "validate",
        "ok": True,
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "incidences": len(g.incidences),
    }, args.human)
    return 0


def _cmd_info(args) -> int:
    g = load(args.file)
    balanceable, _ = is_balanceable(g)
    balanced = balanceable and negative_fundamental_circle(g) is None
    cyclomatic = cyclomatic_number(g)
    _emit({
        "command": "info",
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "incidences": len(g.incidences),
        "components": len(g.vertices) + len(g.edges) - len(g.incidences)
        + cyclomatic,
        "cyclomatic_number": cyclomatic,
        "two_uniform": g.is_two_uniform(),
        "balanced": balanced,
        "balanceable": balanceable,
    }, args.human)
    return 0


def _cmd_matrix(args) -> int:
    g = load(args.file)
    domain = Domain.coerce(args.field)
    m = incidence_matrix(g, domain)
    payload = {
        "command": "matrix",
        "domain": domain.label(),
        "rows": list(m.rows),
        "cols": list(m.cols),
        "entries": [list(row) for row in m.entries],
    }
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(matrix_csv(g, domain))
        payload["csv"] = args.csv
    _emit(payload, args.human)
    return 0


def _cmd_gamma(args) -> int:
    g = load(args.file)
    text = to_dot(g)
    with open(args.dot, "w", encoding="utf-8") as fh:
        fh.write(text)
    _emit({
        "command": "gamma",
        "dot": args.dot,
        "nodes": len(g.vertices) + len(g.edges),
        "links": len(g.incidences),
    }, args.human)
    return 0


def _cmd_balance(args) -> int:
    g = load(args.file)
    balanced, circle = is_balanced(g)
    payload = {"command": "balance", "balanced": balanced}
    if args.certificate and circle is not None:
        payload["certificate"] = {
            "nodes": [list(n) for n in circle.nodes],
            "incidences": list(circle.incidences),
            "sign": circle_sign(g, circle),
        }
    _emit(payload, args.human)
    return 0 if balanced else 1


def _cmd_balanceable(args) -> int:
    if args.jobs < 1:
        raise InputError(f"jobs must be at least 1, got {args.jobs}")
    g = load(args.file)
    ok, cert = is_balanceable(g)
    payload = {"command": "balanceable", "jobs": args.jobs,
               "balanceable": ok}
    if args.certificate and cert is not None:
        payload["certificate"] = cert.to_json()
    _emit(payload, args.human)
    return 0 if ok else 1


def _cmd_camion(args) -> int:
    from .gamma import spanning_forest

    g = load(args.file)
    forest = spanning_forest(g, strategy=args.tree, seed=args.seed)
    result = camion_reorient(g, forest)
    payload = {
        "command": "camion",
        "strategy": args.tree,
        "seed": args.seed,
        "balanced": result.balanced,
        "changed": sorted(result.changed),
    }
    if args.out:
        dump(result.hypergraph, args.out)
        payload["out"] = args.out
    _emit(payload, args.human)
    return 0 if result.balanced else 1


def _cmd_frustration(args) -> int:
    if args.budget is not None and args.budget < 0:
        raise InputError(f"budget must not be negative, got {args.budget}")
    g = load(args.file)
    mode = args.mode.replace("-", "_")
    result = frustration(g, mode=mode, budget=args.budget, seed=args.seed)
    _emit({
        "command": "frustration",
        "mode": args.mode,
        "seed": args.seed,
        "budget": args.budget,
        "value": result.value,
        "exact": result.exact,
        "witness": list(result.witness),
        "evaluations": result.evaluations,
    }, args.human)
    return 0


def _cmd_circuits(args) -> int:
    if args.max_size is not None and args.max_size < 1:
        raise InputError(f"max size must be at least 1, got {args.max_size}")
    g = load(args.file)
    domain = Domain.coerce(args.field)
    reports = enumerate_circuits(g, domain, max_size=args.max_size)
    _emit({
        "command": "circuits",
        "domain": domain.label(),
        "max_size": args.max_size,
        "count": len(reports),
        "circuits": [r.to_json_dict() for r in reports],
    }, args.human)
    return 0


def _cmd_shunt_verify(args) -> int:
    g = load(args.file)
    with open(args.decomposition, "r", encoding="utf-8") as fh:
        d = ShuntingDecomposition.from_json(fh.read())
    report, balanceable, optimal = verify_shunting(d, g)
    payload = {
        "command": "shunt-verify",
        "ok": report.ok,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
        "balanceable": balanceable,
        "optimal": optimal,
    }
    _emit(payload, args.human)
    return 0 if report.ok else 1


def _cmd_demo(args) -> int:
    if args.what == "fano":
        sys.stdout.write(fano_demo())
        return 0
    entrant = args.entrant
    # Checked before the witness of k signs is built, which a huge k cannot
    # afford; a k below 2 is left to the construction's own message.
    if args.k >= 2 and not 0 <= entrant <= args.k:
        raise InputError("entrant count must lie between 0 and k")
    result = lk_negative_circle_minimum(args.k)
    _emit({
        "command": "demo-lk",
        "k": args.k,
        "entrant": entrant,
        "salient": args.k - entrant,
        "negative_circles": comb(entrant, 2) + comb(args.k - entrant, 2),
        "minimum": result.minimum,
        "minimum_witness": list(result.witness),
        "verified": result.verified,
    }, args.human)
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as
    it was, so every call of ``main`` can share it."""
    parser = argparse.ArgumentParser(
        prog="ohg",
        description="Exact analysis of oriented hypergraphs: balance, "
                    "reorientation, frustration, shunting structure, and "
                    "matroid circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="hypergraph JSON file")
        p.add_argument("--human", action="store_true",
                       help="render text instead of JSON")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "parse a hypergraph file and report size")
    add("info", _cmd_info, "summary: counts, connectivity, balance status")

    p = add("matrix", _cmd_matrix, "incidence matrix over a chosen domain")
    p.add_argument("--field", default="q",
                   help="q, rational, or a prime (default q)")
    p.add_argument("--csv", metavar="PATH", help="also write CSV to PATH")

    p = add("gamma", _cmd_gamma, "export the bipartite representation as DOT")
    p.add_argument("--dot", metavar="PATH", required=True,
                   help="output DOT file")

    p = add("balance", _cmd_balance, "is every circle positive?")
    p.add_argument("--certificate", action="store_true",
                   help="include a negative circle when unbalanced")

    p = add("balanceable", _cmd_balanceable,
            "can some reorientation balance it?")
    p.add_argument("--certificate", action="store_true",
                   help="include the three-path obstruction when not")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and echoed; the obstruction scan is serial")

    p = add("camion", _cmd_camion, "forest-guided reorientation")
    p.add_argument("--tree", choices=("bfs", "dfs", "random"), default="bfs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH",
                   help="write the reoriented hypergraph to PATH")

    p = add("frustration", _cmd_frustration,
            "fewest incidence reversals to balance")
    p.add_argument("--mode", choices=("exact", "local-search"),
                   required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = add("circuits", _cmd_circuits, "minimal dependent edge subsets")
    p.add_argument("--field", required=True,
                   help="q, rational, or a prime")
    p.add_argument("--max-size", type=int, default=None)

    p = add("shunt-verify", _cmd_shunt_verify,
            "check a decomposition file against a hypergraph")
    p.add_argument("decomposition", help="decomposition JSON file")

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("what", choices=("fano", "lk"))
    p.add_argument("--k", type=int, default=3,
                   help="incidence count for the lk demo")
    p.add_argument("--entrant", type=int, default=2,
                   help="entrant incidences for the lk demo")
    p.add_argument("--human", action="store_true")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ResourceError, MemoryError) as exc:
        print(json.dumps({"error": str(exc) or "out of memory",
                          "kind": "resource"}), file=sys.stderr)
        return 3
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": str(exc), "kind": "input"}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
