"""Spans around pathecc's public functions, recorded from outside the package.

A :class:`Tracer` wraps each function in :data:`TRACED` and rebinds every
``pathecc.*`` module attribute that holds it, so calls between pathecc
modules are caught as well as the benchmark's own.  Each call becomes a span:
name, start, end, parent span, and two flags (returned something other than
``None``; outermost span of its name).  Spans live in flat arrays and are
written to one file when the traced invocation ends; :func:`layer_metrics`
turns such a file into the per-layer figures.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SUITE_PROPS

TRACED = {
    "families": ("canonical_key", "enumerate_connected", "parse_graph6"),
    "eccentricity": ("pe_exact", "has_path_with_ecc_at_most", "path_eccentricity"),
    "asteroidal": ("find_k_at", "is_k_at", "min_k_at_free", "verify_kat"),
    "pqtree": ("pq_reduce", "has_c1p"),
    "star_c1p": ("find_star_c1p", "check_order_lemma"),
    "central_path": ("find_k_dominating_path_or_witness", "improve_once"),
    "graphs": ("bfs_distances", "neighborhood_k", "is_connected", "induced_paths"),
    "suite": ("run_property_suite", "hunt_conjecture"),
    "cli": ("cli_main",),
}
LAYERS = tuple(TRACED)

# every kind central_path.find_k_dominating_path_or_witness writes to its trace
STEP_KINDS = (
    "seed",
    "improved",
    "shortened",
    "certificate",
    "stuck",
    "fallback_improved",
    "ground_truth_witness",
    "ground_truth_path",
    "witness_priority",
    "path_done",
)
RETURNED = 1  # the call returned something other than None
OUTERMOST = 2  # no enclosing span has the same name

_MARK = "__bench_traced__"
_ARRAY_TYPES = (("name", "H"), ("parent", "i"), ("start", "d"), ("end", "d"), ("flags", "B"))


def _pathecc_namespaces() -> list[dict]:
    spaces = [
        vars(mod)
        for name, mod in sorted(sys.modules.items())
        if name == "pathecc" or name.startswith("pathecc.")
    ]
    suite = sys.modules.get("pathecc.suite")
    if suite is not None:
        spaces.append(suite.PROPERTIES)
    return spaces


def leftover_wrappers() -> int:
    """Traced wrappers still bound anywhere in pathecc; 0 once uninstalled."""
    return sum(
        1 for space in _pathecc_namespaces() for v in list(space.values())
        if getattr(v, _MARK, False)
    )


@dataclass
class Tracer:
    run_id: str
    names: list[str] = field(default_factory=list)
    arrays: dict[str, array] = field(
        default_factory=lambda: {key: array(code) for key, code in _ARRAY_TYPES}
    )
    steps: Counter = field(default_factory=Counter)
    canonical_keys: set = field(default_factory=set)
    _stack: list[int] = field(default_factory=lambda: [-1])
    _depth: list[int] = field(default_factory=list)
    _patched: list[tuple[dict, str, object]] = field(default_factory=list)

    def _span(self, fn, name: str):
        """fn wrapped so that every call records one span."""
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        a = self.arrays
        names, parents, starts, ends, flags = (a[k] for k, _ in _ARRAY_TYPES)
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            flags.append(0 if depth[nid] else OUTERMOST)
            ends.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[nid] -= 1
            if result is not None:
                flags[idx] |= RETURNED
            return result

        setattr(traced, _MARK, True)
        return traced

    def _span_generator(self, fn, name: str):
        """A generator function whose every resumption records one span."""
        resume = self._span(next, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = resume(gen)
                except StopIteration:
                    return
                yield item

        setattr(traced, _MARK, True)
        return traced

    def _wrapped(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if inspect.isgeneratorfunction(fn):
            return self._span_generator(fn, name)
        if name == "families.canonical_key":
            keys = self.canonical_keys

            def collect(g):
                key = fn(g)
                keys.add(key)
                return key

            return self._span(functools.wraps(fn)(collect), name)
        if name == "central_path.find_k_dominating_path_or_witness":
            steps = self.steps

            def with_sink(g, k, trace=None):
                sink = [] if trace is None else trace
                before = len(sink)
                try:
                    return fn(g, k, trace=sink)
                finally:
                    steps.update(rec["step"] for rec in sink[before:])

            return self._span(functools.wraps(fn)(with_sink), name)
        return self._span(fn, name)

    def install(self) -> None:
        import pathecc.cli  # noqa: F401  (loads every pathecc module)

        replace: dict[int, object] = {}
        for layer, attrs in TRACED.items():
            mod = sys.modules[f"pathecc.{layer}"]
            for attr in attrs:
                fn = getattr(mod, attr)
                replace[id(fn)] = self._wrapped(layer, attr, fn)
        props = sys.modules["pathecc.suite"].PROPERTIES
        for pid, fn in props.items():
            replace[id(fn)] = self._span(fn, f"suite.prop.{pid}")
        for space in _pathecc_namespaces():
            for key, value in list(space.items()):
                if id(value) in replace:
                    self._patched.append((space, key, value))
                    space[key] = replace[id(value)]

    def uninstall(self) -> None:
        while self._patched:
            space, key, original = self._patched.pop()
            space[key] = original

    def write(self, path: Path) -> None:
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "count": len(self.arrays["start"]),
            "steps": dict(self.steps),
            "distinct_canonical_keys": len(self.canonical_keys),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in _ARRAY_TYPES:
                self.arrays[key].tofile(fh)


@dataclass
class SpanFile:
    header: dict
    arrays: dict[str, array]


def read(path: Path) -> SpanFile:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for key, code in _ARRAY_TYPES:
            arrays[key] = array(code)
            arrays[key].fromfile(fh, header["count"])
    return SpanFile(header, arrays)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: SpanFile, measured_s: float) -> dict[str, float]:
    """Per-layer figures of one traced invocation.

    Self time is a span's duration minus that of its child spans; busy time
    sums only outermost spans of a name, so nothing is counted twice.  A
    layer's shares divide its summed self time, and the time any of its
    spans was open, by ``measured_s``, the invocation's measured region.
    """
    a, names = spans.arrays, spans.header["names"]
    name_of, parent_of, flags = a["name"], a["parent"], a["flags"]
    dur = [e - s for s, e in zip(a["start"], a["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent_of):
        if p >= 0:
            child[p] += dur[i]
    k = len(names)
    calls, self_s, busy, returned = [0] * k, [0.0] * k, [0.0] * k, [0] * k
    for i, nid in enumerate(name_of):
        calls[nid] += 1
        self_s[nid] += dur[i] - child[i]
        if flags[i] & OUTERMOST:
            busy[nid] += dur[i]
        if flags[i] & RETURNED:
            returned[nid] += 1
    nid_of = {name: i for i, name in enumerate(names)}

    def stat(name: str):
        i = nid_of.get(name)
        return (0, 0.0, 0.0, 0) if i is None else (calls[i], self_s[i], busy[i], returned[i])

    def ancestor_named(i: int, target: int) -> bool:
        p = parent_of[i]
        while p >= 0:
            if name_of[p] == target:
                return True
            p = parent_of[p]
        return False

    m: dict[str, float] = {}

    def put(name: str, *fields: str) -> None:
        c, s, b, _ = stat(name)
        for f in fields:
            m[f"{name}.{f}"] = {"calls": c, "self_s": s, "busy_s": b}[f]

    put("families.canonical_key", "calls", "self_s")
    put("families.enumerate_connected", "busy_s")
    m["families.dedup_ratio"] = _ratio(
        spans.header["distinct_canonical_keys"], stat("families.canonical_key")[0]
    )
    put("families.parse_graph6", "self_s")

    put("eccentricity.pe_exact", "calls", "busy_s")
    put("eccentricity.has_path_with_ecc_at_most", "calls", "busy_s")
    c, _, _, r = stat("eccentricity.has_path_with_ecc_at_most")
    m["eccentricity.has_path_with_ecc_at_most.hit_ratio"] = _ratio(r, c)
    put("eccentricity.path_eccentricity", "calls")

    put("asteroidal.find_k_at", "calls", "self_s")
    put("asteroidal.is_k_at", "calls", "self_s")
    c, _, _, r = stat("asteroidal.is_k_at")
    m["asteroidal.is_k_at.hit_ratio"] = _ratio(r, c)
    put("asteroidal.min_k_at_free", "busy_s")
    put("asteroidal.verify_kat", "calls")

    put("pqtree.pq_reduce", "calls", "self_s")
    c, _, _, r = stat("pqtree.pq_reduce")
    m["pqtree.pq_reduce.fail_ratio"] = _ratio(c - r, c)
    put("pqtree.has_c1p", "busy_s")

    put("star_c1p.find_star_c1p", "calls", "busy_s")
    searches, _, _, found = stat("star_c1p.find_star_c1p")
    m["star_c1p.find_star_c1p.hit_ratio"] = _ratio(found, searches)
    if "pqtree.pq_reduce" in nid_of and "star_c1p.find_star_c1p" in nid_of:
        reduce_id, search_id = nid_of["pqtree.pq_reduce"], nid_of["star_c1p.find_star_c1p"]
        under = sum(
            1 for i, nid in enumerate(name_of)
            if nid == reduce_id and ancestor_named(i, search_id)
        )
    else:
        under = 0
    m["star_c1p.reductions_per_search"] = _ratio(under, searches)
    put("star_c1p.check_order_lemma", "calls", "self_s")

    dich = "central_path.find_k_dominating_path_or_witness"
    put(dich, "calls", "busy_s", "self_s")
    put("central_path.improve_once", "calls", "self_s")
    steps = spans.header["steps"]
    for kind in STEP_KINDS:
        m[f"central_path.steps.{kind}"] = steps.get(kind, 0)
    # whole duration, not self time: find_k_at's work is in its is_k_at children
    if dich in nid_of and "asteroidal.find_k_at" in nid_of:
        dich_id, kat_id = nid_of[dich], nid_of["asteroidal.find_k_at"]
        lurking = sum(
            dur[i] for i, nid in enumerate(name_of)
            if nid == kat_id and parent_of[i] >= 0 and name_of[parent_of[i]] == dich_id
        )
    else:
        lurking = 0.0
    m["central_path.find_k_at_share"] = _ratio(lurking, stat(dich)[2])

    put("graphs.bfs_distances", "calls", "self_s")
    put("graphs.neighborhood_k", "calls", "self_s")
    put("graphs.is_connected", "calls")
    put("graphs.induced_paths", "busy_s")

    for pid in SUITE_PROPS:
        put(f"suite.prop.{pid}", "busy_s")
    put("suite.run_property_suite", "busy_s")
    put("suite.hunt_conjecture", "busy_s")

    put("cli.cli_main", "self_s")

    # a layer is busy while any of its spans is open; spans are stored in call
    # order, so a parent's mask of enclosing layers is known before its children
    bit_of = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    name_bit = [bit_of[name.split(".", 1)[0]] for name in names]
    enclosing = [0] * len(dur)
    layer_busy = [0.0] * len(LAYERS)
    for i, nid in enumerate(name_of):
        p = parent_of[i]
        if p >= 0:
            enclosing[i] = enclosing[p] | name_bit[name_of[p]]
        if not enclosing[i] & name_bit[nid]:
            layer_busy[name_bit[nid].bit_length() - 1] += dur[i]
    layer_self = Counter()
    for nid, name in enumerate(names):
        layer_self[name.split(".", 1)[0]] += self_s[nid]
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.self_share"] = _ratio(layer_self[layer], measured_s)
        m[f"{layer}.busy_share"] = _ratio(layer_busy[i], measured_s)
    return m
