"""Frozen expected outputs and the re-verification of every returned witness.

Each check returns a list of problems; an empty list means the output is
correct.  The benchmark counts an operation as failed when its check
returns any problem, so these functions are what ``fail_ratio`` rests on.
"""

from __future__ import annotations

import hashlib
import json

from pathecc.asteroidal import KatWitness, find_k_at, verify_kat
from pathecc.eccentricity import path_eccentricity
from pathecc.pqtree import is_c1p_order
from pathecc.star_c1p import OrderingWitness, verify_witness
from workloads import KAT_STAR_MAX_N

# OEIS A001349: connected graphs on n = 1..7 vertices up to isomorphism
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853)
CORPUS_SHA256 = "2bef914382c439409b8fb806bf8508d57d2cf6c44d6e7d9dbe1f6fa462443feb"

EXPECTED_HUNT = {
    "schema": 1,
    "command": "hunt",
    "corpus": "exhaustive:7",
    "searched": 853,
    "with_witness": 411,
    "counterexample": None,
}


def expected_suite(props) -> dict:
    """The suite report on the corpus, without ``corpus`` and ``wall_time_s``."""
    return {
        "schema": 1,
        "command": "suite",
        "passed": True,
        "results": [
            {"property": p, "checked": 996, "skipped": 0, "violations": [], "passed": True}
            for p in sorted(props)
        ],
    }


def check_corpus(data: bytes) -> list[str]:
    problems = []
    digest = hashlib.sha256(data).hexdigest()
    if digest != CORPUS_SHA256:
        problems.append(f"corpus digest {digest} != {CORPUS_SHA256}")
    counts = [0] * len(CONNECTED_COUNTS)
    for line in data.decode("ascii").splitlines():
        n = ord(line[0]) - 63  # graph6 vertex count, short form
        if 1 <= n <= len(counts):
            counts[n - 1] += 1
    if tuple(counts) != CONNECTED_COUNTS:
        problems.append(f"corpus counts {counts} != {list(CONNECTED_COUNTS)}")
    return problems


def _cli_json(stdout: str, rc: int, want_rc: int) -> tuple[dict | None, list[str]]:
    problems = []
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return None, problems + [f"expected one JSON line on stdout, got {len(lines)}"]
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return None, problems + [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return None, problems + ["stdout JSON is not an object"]
    return doc, problems


def check_hunt(stdout: str, rc: int) -> list[str]:
    doc, problems = _cli_json(stdout, rc, 0)
    if doc is not None and doc != EXPECTED_HUNT:
        problems.append(f"hunt report {doc} != {EXPECTED_HUNT}")
    return problems


def comparable_suite(doc: dict) -> dict:
    """The report with the fields that legitimately vary between runs removed."""
    return {k: v for k, v in doc.items() if k not in ("corpus", "wall_time_s")}


def check_suite(stdout: str, rc: int, props) -> list[str]:
    doc, problems = _cli_json(stdout, rc, 0)
    if doc is not None:
        want = expected_suite(props)
        got = comparable_suite(doc)
        if got != want:
            problems.append(f"suite report {got} != {want}")
    return problems


def _ecc(g, path) -> int | None:
    """Eccentricity of path, or None when it is not a path of g."""
    try:
        return path_eccentricity(g, path)
    except (ValueError, IndexError, TypeError):
        return None


def check_pe(g, out: dict) -> list[str]:
    problems = []
    pe = out.get("pe")
    if not isinstance(pe, int) or pe < 0:
        return [f"pe value {pe!r} is not a nonnegative integer"]
    ecc = _ecc(g, out.get("witness"))
    if ecc != pe:
        problems.append(f"pe witness {out.get('witness')} has eccentricity {ecc}, not {pe}")
    if out.get("witness_ecc") != pe:
        problems.append(f"path_eccentricity returned {out.get('witness_ecc')} on a pe={pe} witness")
    hit = out.get("hit")
    hit_ecc = None if hit is None else _ecc(g, hit)
    if hit_ecc is None or hit_ecc > pe:
        problems.append(f"has_path_with_ecc_at_most(g, {pe}) returned {hit}")
    if out.get("miss") is not None:
        problems.append(f"has_path_with_ecc_at_most(g, {pe - 1}) found {out['miss']} below pe")
    return problems


def _kat(doc) -> KatWitness | None:
    try:
        return KatWitness(
            tuple(doc["triple"]), doc["k"], tuple(tuple(p) for p in doc["paths"])
        )
    except (KeyError, TypeError, ValueError):
        return None


def _verified_kat(g, doc, k: int) -> bool:
    w = _kat(doc)
    if w is None or w.k != k or len(w.triple) != 3 or len(w.paths) != 3:
        return False
    try:
        return verify_kat(g, w)
    except (ValueError, IndexError):
        return False


def check_kat_graph(g, out: dict) -> list[str]:
    problems = []
    min_k = out.get("min_k")
    if not isinstance(min_k, int) or min_k < 1:
        return [f"min_k {min_k!r} is not a positive integer"]
    if find_k_at(g, min_k) is not None:
        problems.append(f"graph has a {min_k}-AT although min_k_at_free returned {min_k}")
    sides = out.get("dichotomy") or []
    if [s.get("k") for s in sides] != [1, 2, 3]:
        return problems + [f"dichotomy answers for k = {[s.get('k') for s in sides]}"]
    for s in sides:
        k, path, witness = s["k"], s.get("path"), s.get("witness")
        if (path is None) == (witness is None):
            problems.append(f"k={k}: dichotomy must give exactly one side")
        elif path is not None:
            ecc = _ecc(g, path)
            if ecc is None or ecc > k:
                problems.append(f"k={k}: path {path} has eccentricity {ecc}")
            if k < min_k:
                problems.append(f"k={k}: path returned although a {k}-AT exists")
        else:
            if not _verified_kat(g, witness, k):
                problems.append(f"k={k}: witness {witness} fails verify_kat")
            if k >= min_k:
                problems.append(f"k={k}: witness returned although min_k={min_k}")
    if min_k > 1:
        # a (min_k - 1)-AT must exist; the dichotomy may already have shown one
        shown = next((s["witness"] for s in sides if s["k"] == min_k - 1), None)
        if shown is not None:
            ok = _verified_kat(g, shown, min_k - 1)
        else:
            w = find_k_at(g, min_k - 1)
            ok = w is not None and verify_kat(g, w)
        if not ok:
            problems.append(f"no verified {min_k - 1}-AT although min_k={min_k}")
    star = out.get("star")
    if isinstance(star, dict):
        try:
            ok = verify_witness(g, OrderingWitness(tuple(star["order"]), frozenset(star["diagonal"])))
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            problems.append(f"ordering witness {star} fails verify_witness")
    elif star is not None and (star != "skipped" or g.n <= KAT_STAR_MAX_N):
        problems.append(f"unexpected ordering-witness answer {star!r}")
    return problems


def check_matrix(m, out: dict, has_c1p: bool) -> list[str]:
    perm = out.get("permutation")
    if not has_c1p:
        return [] if perm is None else [f"permutation {perm} for a matrix without C1P"]
    if perm is None:
        return ["no permutation for a C1P matrix"]
    if sorted(perm) != list(range(m.rows)):
        return [f"permutation is not a row permutation of {m.rows} rows"]
    if not is_c1p_order(m, perm):
        return ["permutation does not make every column consecutive"]
    return []
