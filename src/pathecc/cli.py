"""Command-line surface: one JSON document per invocation on stdout.

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
import traceback
from typing import Optional, Sequence

from . import eccentricity, star_c1p
from .asteroidal import KatWitness, find_k_at, is_k_at, min_k_at_free
from .central_path import find_k_dominating_path_or_witness
from .eccentricity import path_eccentricity, pe_exact
from .families import (
    FAMILY_NAMES,
    FamilySpec,
    emit_graph6,
    enumerate_connected,
    generate,
    parse_graph6,
)
from .graphs import Graph, format_edge_list, parse_edge_list
from .pqtree import has_c1p, parse_matrix
from .star_c1p import OrderingWitness, find_star_c1p, verify_witness
from .suite import PROPERTIES, PropertyReport, hunt_conjecture, run_property_suite

SCHEMA = 1


class CliError(Exception):
    pass


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
            raise CliError(f"{arg}: empty graph file")
        head = lines[0].split()
        if len(head) == 2 and all(tok.isdecimal() for tok in head):
            n, m = int(head[0]), int(head[1])
            if cap is not None and n > cap[1]:
                raise CliError(f"{cap[0]} is limited to n <= {cap[1]}, got n={n}")
            if connected is not None and n > m + 1:
                raise CliError(f"{connected} requires a connected graph, "
                               f"got n={n} with m={m} edges")
            return parse_edge_list(text)
        if len(lines) > 1:
            raise CliError(f"{arg}: expected one graph6 line, found {len(lines)} "
                           f"non-blank lines")
        return parse_graph6(lines[0])
    try:
        return parse_graph6(arg)
    except ValueError as exc:
        raise CliError(f"not a file and not a graph6 line: {arg!r} ({exc})") from exc


def _load_corpus(arg: str) -> tuple[list[Graph], str]:
    if arg.startswith("exhaustive:"):
        try:
            n = int(arg.split(":", 1)[1])
        except ValueError:
            raise CliError(f"corpus {arg!r}: N in 'exhaustive:N' must be an integer") from None
        return list(enumerate_connected(n)), arg
    if arg.startswith("gen:"):
        parts = arg.split(":")
        try:
            params = tuple(float(x) for x in parts[2:])
        except ValueError:
            raise CliError(f"corpus {arg!r}: the params in 'gen:family:params' "
                           f"must be numbers") from None
        return [generate(FamilySpec(parts[1], params))], arg
    if os.path.exists(arg):
        graphs = []
        with open(arg, encoding="utf-8") as fh:
            for lineno, ln in enumerate(fh, start=1):
                if ln.strip():
                    try:
                        graphs.append(parse_graph6(ln))
                    except ValueError as exc:
                        raise CliError(f"{arg}:{lineno}: {exc}") from exc
        return graphs, arg
    raise CliError(
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


def _report_json(report: PropertyReport) -> dict:
    return {
        "schema": SCHEMA,
        "command": "suite",
        "corpus": report.corpus,
        "results": [
            {
                "property": r.property_id,
                "checked": r.checked,
                "skipped": r.skipped,
                "violations": [
                    {"graph6": g6, "details": details} for g6, details in r.violations
                ],
                "passed": r.passed,
            }
            for r in report.results
        ],
        "passed": report.passed,
        "wall_time_s": round(report.wall_time_s, 3),
    }


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _parse_path_arg(arg: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in arg.split(","))
    except ValueError as exc:
        raise CliError(f"bad path {arg!r}, expected comma-separated vertices") from exc


def _int_list(value: object) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathecc",
        description="Path-eccentricity toolbox: exact oracles, triple "
        "detection, consecutivity witnesses, and corpus harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pe", help="exact path eccentricity of a graph")
    p.add_argument("graph")

    p = sub.add_parser("ecc", help="eccentricity of a given path")
    p.add_argument("graph")
    p.add_argument("path", help="comma-separated vertex list, e.g. 0,1,2")

    p = sub.add_parser("kat", help="find a k-AT")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--triple", help="check one comma-separated triple instead")

    p = sub.add_parser("min-kat", help="smallest k with no k-AT")
    p.add_argument("graph")

    p = sub.add_parser("c1p", help="consecutive-ones test for a matrix file")
    p.add_argument("matrix", help="matrix file: 'rows cols' header then 0/1 rows")

    p = sub.add_parser("star-c1p", help="ordering witness with free diagonal")
    p.add_argument("graph")
    p.add_argument(
        "--check",
        help="verify a witness (inline JSON or a file) instead of searching",
    )

    p = sub.add_parser("central-path", help="k-dominating path or k-AT witness")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trace", action="store_true", help="JSON trace lines on stderr")

    p = sub.add_parser("gen", help="generate a named family member")
    p.add_argument("family", choices=FAMILY_NAMES)
    p.add_argument("params", nargs="*", type=float)
    p.add_argument("--format", choices=("json", "graph6", "edgelist"), default="json")

    p = sub.add_parser("suite", help="run property checks over a corpus")
    p.add_argument("corpus", help="graph6 file, 'exhaustive:N', or 'gen:family:p'")
    p.add_argument(
        "--props",
        nargs="+",
        required=True,
        choices=sorted(PROPERTIES),
    )

    p = sub.add_parser("hunt", help="hunt the pe<=1 conjecture over a corpus")
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
        if args.command == "pe":
            g = _load_graph(args.graph, ("pe_exact", eccentricity.MAX_N))
            result = pe_exact(g)
            _emit({"schema": SCHEMA, "command": "pe", "n": g.n,
                   "pe": result.value, "witness": list(result.witness)})
            return 0

        if args.command == "ecc":
            g = _load_graph(args.graph, connected="path eccentricity")
            path = _parse_path_arg(args.path)
            _emit({"schema": SCHEMA, "command": "ecc",
                   "ecc": path_eccentricity(g, path)})
            return 0

        if args.command == "kat":
            g = _load_graph(args.graph)
            if args.triple:
                triple = _parse_path_arg(args.triple)
                witness = is_k_at(g, triple, args.k)
            else:
                witness = find_k_at(g, args.k)
            _emit({"schema": SCHEMA, "command": "kat", "k": args.k,
                   "witness": _kat_json(witness)})
            return 0

        if args.command == "min-kat":
            g = _load_graph(args.graph, connected="min_k_at_free")
            _emit({"schema": SCHEMA, "command": "min-kat",
                   "min_k": min_k_at_free(g)})
            return 0

        if args.command == "c1p":
            with open(args.matrix, encoding="utf-8") as fh:
                matrix = parse_matrix(fh.read())
            perm = has_c1p(matrix)
            _emit({"schema": SCHEMA, "command": "c1p",
                   "permutation": None if perm is None else list(perm)})
            return 0

        if args.command == "star-c1p":
            # only the search is capped; --check verifies a witness at any n
            cap = None if args.check is not None else ("find_star_c1p", star_c1p.MAX_N)
            g = _load_graph(args.graph, cap)
            if args.check is not None:
                raw = args.check
                if os.path.exists(raw):
                    with open(raw, encoding="utf-8") as fh:
                        raw = fh.read()
                try:
                    doc = json.loads(raw)
                    order, diagonal = doc["order"], doc["diagonal"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise CliError(f"bad witness JSON: {exc}") from exc
                if not (_int_list(order) and _int_list(diagonal)):
                    raise CliError("bad witness JSON: order and diagonal must be "
                                   "lists of integers")
                witness = OrderingWitness(tuple(order), frozenset(diagonal))
                _emit({"schema": SCHEMA, "command": "star-c1p",
                       "witness": _ordering_json(witness),
                       "valid": verify_witness(g, witness)})
                return 0
            _emit({"schema": SCHEMA, "command": "star-c1p",
                   "witness": _ordering_json(find_star_c1p(g))})
            return 0

        if args.command == "central-path":
            g = _load_graph(args.graph, connected="find_k_dominating_path_or_witness")
            trace: Optional[list] = [] if args.trace else None
            d = find_k_dominating_path_or_witness(g, args.k, trace=trace)
            if trace is not None:
                for record in trace:
                    print(json.dumps(record, sort_keys=True), file=sys.stderr)
            _emit({"schema": SCHEMA, "command": "central-path", "k": args.k,
                   "path": None if d.path is None else list(d.path),
                   "witness": _kat_json(d.witness)})
            return 0

        if args.command == "gen":
            spec = FamilySpec(args.family, tuple(args.params))
            g = generate(spec)
            if args.format == "graph6":
                print(emit_graph6(g))
            elif args.format == "edgelist":
                print(format_edge_list(g), end="")
            else:
                _emit({"schema": SCHEMA, "command": "gen", "family": args.family,
                       "params": list(args.params), "n": g.n,
                       "edges": [list(e) for e in g.edges()],
                       "graph6": emit_graph6(g)})
            return 0

        if args.command == "suite":
            graphs, name = _load_corpus(args.corpus)
            report = run_property_suite(graphs, args.props, corpus_name=name)
            _emit(_report_json(report))
            return 0 if report.passed else 1

        if args.command == "hunt":
            graphs, name = _load_corpus(args.corpus)
            result = hunt_conjecture(graphs)
            if result.searched == 0:
                raise CliError(f"hunt checked no graph: the corpus {name} is empty")
            if result.checked == 0:
                raise CliError(
                    f"hunt checked no graph: all {result.searched} in {name} are "
                    f"empty, oversized or disconnected"
                )
            if result.skipped:
                print(f"pathecc: hunt skipped {result.skipped} of {result.searched} "
                      f"graphs (empty, oversized or disconnected)", file=sys.stderr)
            ce = result.counterexample
            _emit({
                "schema": SCHEMA,
                "command": "hunt",
                "corpus": name,
                "searched": result.searched,
                "with_witness": result.with_witness,
                "counterexample": None if ce is None else {
                    "graph6": ce.graph6,
                    "witness": _ordering_json(ce.witness),
                    "pe": ce.pe_value,
                    "pe_witness": list(ce.pe_witness),
                },
            })
            return 0 if ce is None else 1

        raise CliError(f"unhandled command {args.command!r}")
    except (CliError, ValueError, OSError) as exc:
        print(f"pathecc: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "violation found", so never let one escape
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"pathecc: internal error: {type(exc).__name__}: {exc} "
              f"(at {os.path.basename(where.filename)}:{where.lineno})", file=sys.stderr)
        return 2


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(cli_main())


if __name__ == "__main__":  # pragma: no cover - python -m pathecc.cli
    main()
