"""Command-line surface: one JSON document per invocation on stdout.

Every document is ``{"schema": 1, "command": <subcommand>, ...}``, built in
``cli_main`` from the payload its command's handler returns; ``gen --format
graph6|edgelist`` is the exception and prints the raw graph text instead.

Graphs are accepted either as files (edge-list format with an 'n m' header,
or graph6 lines) or as literal graph6 strings.  Exit codes: 0 on success,
1 when a property violation or counterexample was found, 2 on usage or
parse errors, on a hunt that checked no graph, and on any unexpected error
(reported in one line on stderr, never as a traceback).

Run as ``pathecc ...`` or ``python -m pathecc.cli ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator, Optional, Sequence

from . import eccentricity, star_c1p
from .asteroidal import KatWitness, find_k_at, is_k_at, min_k_at_free
from .central_path import find_k_dominating_path_or_witness
from .eccentricity import path_eccentricity, pe_exact
from .families import (
    FAMILY_NAMES,
    emit_graph6,
    enumerate_connected,
    generate,
    parse_graph6,
)
from .graphs import Graph, format_edge_list, parse_edge_list
from .pqtree import has_c1p, parse_matrix
from .star_c1p import OrderingWitness, find_star_c1p, verify_witness
from .suite import PROPERTIES, hunt_conjecture, run_property_suite

SCHEMA = 1


def _load_graph(
    arg: str, cap: Optional[tuple[str, int]] = None, connected: Optional[str] = None
) -> Graph:
    """A graph file or graph6 string; cap is (search, largest n) for a capped
    command, connected names the search for one that needs a connected graph.

    An edge-list header is checked before the graph is built, n against the
    cap and, since a connected graph has m >= n - 1 edges, n <= m + 1, so
    a huge header fails fast instead of allocating n adjacency rows.
    """
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError(f"{arg}: empty graph file")
        head = lines[0].split()
        if len(head) == 2 and all(tok.isdecimal() for tok in head):
            n, m = int(head[0]), int(head[1])
            if cap is not None and n > cap[1]:
                raise ValueError(f"{cap[0]} is limited to n <= {cap[1]}, got n={n}")
            if connected is not None and n > m + 1:
                raise ValueError(f"{connected} requires a connected graph, "
                                 f"got n={n} with m={m} edges")
            return parse_edge_list(text)
        if len(lines) > 1:
            raise ValueError(f"{arg}: expected one graph6 line, found {len(lines)} "
                             f"non-blank lines")
        return parse_graph6(lines[0])
    try:
        return parse_graph6(arg)
    except ValueError as exc:
        raise ValueError(f"not a file and not a graph6 line: {arg!r} ({exc})") from exc


def _load_corpus(arg: str) -> Iterator[Graph]:
    if arg.startswith("exhaustive:"):
        try:
            n = int(arg.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"corpus {arg!r}: N in 'exhaustive:N' must be an integer") from None
        yield from enumerate_connected(n)
    elif arg.startswith("gen:"):
        parts = arg.split(":")
        try:
            params = tuple(float(x) for x in parts[2:])
        except ValueError:
            raise ValueError(f"corpus {arg!r}: the params in 'gen:family:params' "
                             f"must be numbers") from None
        yield generate(parts[1], params)
    elif os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            for lineno, ln in enumerate(fh, start=1):
                if ln.strip():
                    try:
                        g = parse_graph6(ln)
                    except ValueError as exc:
                        raise ValueError(f"{arg}:{lineno}: {exc}") from exc
                    yield g
    else:
        raise ValueError(
            f"corpus {arg!r} is neither a file, 'exhaustive:N', nor 'gen:family:params'"
        )


def _kat_json(w: Optional[KatWitness]) -> Optional[dict]:
    if w is None:
        return None
    return {
        "triple": list(w.triple),
        "k": w.k,
        "paths": [list(p) for p in w.paths],
    }


def _ordering_json(w: Optional[OrderingWitness]) -> Optional[dict]:
    if w is None:
        return None
    return {"order": list(w.mu), "diagonal": sorted(w.diagonal)}


def _parse_path_arg(arg: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in arg.split(","))
    except ValueError as exc:
        raise ValueError(f"bad path {arg!r}, expected comma-separated vertices") from exc


def _int_list(value: object) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    )


# One handler per command: args -> (payload, exit code).  cli_main wraps the
# payload in the envelope; a None payload (gen's raw formats) prints nothing.
_Result = tuple[Optional[dict], int]


def _pe(args: argparse.Namespace) -> _Result:
    g = _load_graph(args.graph, ("pe_exact", eccentricity.MAX_N))
    result = pe_exact(g)
    return {"n": g.n, "pe": result.value, "witness": list(result.witness)}, 0


def _ecc(args: argparse.Namespace) -> _Result:
    g = _load_graph(args.graph, connected="path eccentricity")
    path = _parse_path_arg(args.path)
    return {"ecc": path_eccentricity(g, path)}, 0


def _kat(args: argparse.Namespace) -> _Result:
    g = _load_graph(args.graph)
    if args.triple:
        witness = is_k_at(g, _parse_path_arg(args.triple), args.k)
    else:
        witness = find_k_at(g, args.k)
    return {"k": args.k, "witness": _kat_json(witness)}, 0


def _min_kat(args: argparse.Namespace) -> _Result:
    g = _load_graph(args.graph, connected="min_k_at_free")
    return {"min_k": min_k_at_free(g)}, 0


def _c1p(args: argparse.Namespace) -> _Result:
    with open(args.matrix, encoding="utf-8") as fh:
        matrix = parse_matrix(fh.read())
    perm = has_c1p(matrix)
    return {"permutation": None if perm is None else list(perm)}, 0


def _star_c1p(args: argparse.Namespace) -> _Result:
    # only the search is capped; --check verifies a witness at any n
    cap = None if args.check is not None else ("find_star_c1p", star_c1p.MAX_N)
    g = _load_graph(args.graph, cap)
    if args.check is None:
        return {"witness": _ordering_json(find_star_c1p(g))}, 0
    raw = args.check
    if os.path.exists(raw):
        with open(raw, encoding="utf-8") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
        order, diagonal = doc["order"], doc["diagonal"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"bad witness JSON: {exc}") from exc
    if not (_int_list(order) and _int_list(diagonal)):
        raise ValueError("bad witness JSON: order and diagonal must be lists of integers")
    witness = OrderingWitness(tuple(order), frozenset(diagonal))
    return {"witness": _ordering_json(witness), "valid": verify_witness(g, witness)}, 0


def _central_path(args: argparse.Namespace) -> _Result:
    g = _load_graph(args.graph, connected="find_k_dominating_path_or_witness")
    trace: Optional[list] = [] if args.trace else None
    d = find_k_dominating_path_or_witness(g, args.k, trace=trace)
    for record in trace or ():
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return {"k": args.k, "path": None if d.path is None else list(d.path),
            "witness": _kat_json(d.witness)}, 0


def _gen(args: argparse.Namespace) -> _Result:
    g = generate(args.family, args.params)
    if args.format == "graph6":
        print(emit_graph6(g))
        return None, 0
    if args.format == "edgelist":
        print(format_edge_list(g), end="")
        return None, 0
    return {"family": args.family, "params": args.params, "n": g.n,
            "edges": [list(e) for e in g.edges()], "graph6": emit_graph6(g)}, 0


def _suite(args: argparse.Namespace) -> _Result:
    report = run_property_suite(_load_corpus(args.corpus), args.props)
    results = [
        {
            "property": r.property_id,
            "checked": r.checked,
            "skipped": r.skipped,
            "violations": [{"graph6": g6, "details": details} for g6, details in r.violations],
            "passed": r.passed,
        }
        for r in report.results
    ]
    return {"corpus": args.corpus, "results": results, "passed": report.passed,
            "wall_time_s": round(report.wall_time_s, 3)}, 0 if report.passed else 1


def _hunt(args: argparse.Namespace) -> _Result:
    result = hunt_conjecture(_load_corpus(args.corpus))
    if result.searched == 0:
        raise ValueError(f"hunt checked no graph: the corpus {args.corpus} is empty")
    if result.checked == 0:
        raise ValueError(
            f"hunt checked no graph: all {result.searched} in {args.corpus} are "
            f"empty, oversized or disconnected"
        )
    if result.skipped:
        print(f"pathecc: hunt skipped {result.skipped} of {result.searched} "
              f"graphs (empty, oversized or disconnected)", file=sys.stderr)
    ce = result.counterexample
    return {
        "corpus": args.corpus,
        "searched": result.searched,
        "with_witness": result.with_witness,
        "counterexample": None if ce is None else {
            "graph6": ce.graph6,
            "witness": _ordering_json(ce.witness),
            "pe": ce.pe_value,
            "pe_witness": list(ce.pe_witness),
        },
    }, 0 if ce is None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathecc",
        description="Path-eccentricity toolbox: exact oracles, triple "
        "detection, consecutivity witnesses, and corpus harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pe", help="exact path eccentricity of a graph")
    p.set_defaults(handler=_pe)
    p.add_argument("graph")

    p = sub.add_parser("ecc", help="eccentricity of a given path")
    p.set_defaults(handler=_ecc)
    p.add_argument("graph")
    p.add_argument("path", help="comma-separated vertex list, e.g. 0,1,2")

    p = sub.add_parser("kat", help="find a k-AT")
    p.set_defaults(handler=_kat)
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--triple", help="check one comma-separated triple instead")

    p = sub.add_parser("min-kat", help="smallest k with no k-AT")
    p.set_defaults(handler=_min_kat)
    p.add_argument("graph")

    p = sub.add_parser("c1p", help="consecutive-ones test for a matrix file")
    p.set_defaults(handler=_c1p)
    p.add_argument("matrix", help="matrix file: 'rows cols' header then 0/1 rows")

    p = sub.add_parser("star-c1p", help="ordering witness with free diagonal")
    p.set_defaults(handler=_star_c1p)
    p.add_argument("graph")
    p.add_argument(
        "--check",
        help="verify a witness (inline JSON or a file) instead of searching",
    )

    p = sub.add_parser("central-path", help="k-dominating path or k-AT witness")
    p.set_defaults(handler=_central_path)
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trace", action="store_true", help="JSON trace lines on stderr")

    p = sub.add_parser("gen", help="generate a named family member")
    p.set_defaults(handler=_gen)
    p.add_argument("family", choices=FAMILY_NAMES)
    p.add_argument("params", nargs="*", type=float)
    p.add_argument("--format", choices=("json", "graph6", "edgelist"), default="json")

    p = sub.add_parser("suite", help="run property checks over a corpus")
    p.set_defaults(handler=_suite)
    p.add_argument("corpus", help="graph6 file, 'exhaustive:N', or 'gen:family:p'")
    p.add_argument(
        "--props",
        nargs="+",
        required=True,
        choices=sorted(PROPERTIES),
    )

    p = sub.add_parser("hunt", help="hunt the pe<=1 conjecture over a corpus")
    p.set_defaults(handler=_hunt)
    p.add_argument("corpus")

    return parser


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2

    try:
        payload, code = args.handler(args)
        if payload is not None:
            print(json.dumps({"schema": SCHEMA, "command": args.command, **payload},
                             sort_keys=True))
        return code
    except (ValueError, OSError) as exc:
        print(f"pathecc: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "violation found", so never let one escape
        import traceback  # only this branch reads it, so start-up does not load it

        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"pathecc: internal error: {type(exc).__name__}: {exc} "
              f"(at {os.path.basename(where.filename)}:{where.lineno})", file=sys.stderr)
        return 2


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(cli_main())


if __name__ == "__main__":  # pragma: no cover - python -m pathecc.cli
    main()
