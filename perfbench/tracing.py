"""Span tracing for the benchmark's traced run, recorded from outside the library.

``install(tracer)`` replaces each function of the wrapper table below, in
every csspheres module namespace that binds it (``from .core import
fh_vectors`` also binds ``iso.fh_vectors`` and ``cli.fh_vectors``), with a
wrapper that records a span: name, start, end and the enclosing span.
Methods are wrapped on the class.  Spans stay in memory; ``layer_metrics``
reduces them to the per-layer numbers and ``write_spans`` writes them out
when the run ends.  Hot leaf helpers (``canon_face``, ``vertex_key`` and
the like) are deliberately left unwrapped: a span per call would cost more
than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

MODULES = ("builders", "cli", "core", "fileio", "flips", "gf2", "iso", "props", "sew3", "shelling")


def _facets(args, kwargs, result):
    return {"facets": len(result.facets)}


def _f_counts(args, kwargs, result):
    return {"complex": id(args[0]), "faces": sum(result[1:])}


def _gf2(args, kwargs, result):
    rows = args[0]
    return {"rows": len(rows) if hasattr(rows, "__len__") else 0, "rank": result}


def _read_bytes(args, kwargs, result):
    return {"bytes": len(args[0].encode())}


def _write_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (module, attribute, attribute recorder or None).  The span name is
# "<module>.<attribute>".  Two private hooks are included because the
# public API hides the split they measure: ``iso._Search.run`` separates
# backtracking from invariant computation, and the generator
# ``props._antipode_free_subsets`` is counted item by item.
WRAPPERS = [
    *(("builders", f, _facets) for f in (
        "cross_polytope", "build_delta", "build_B", "sew", "build_lambda", "squeezed_ball",
        "rho_embed", "lambda_squeezed")),
    *(("flips", f, None) for f in ("bistellar_flip", "build_gamma", "fg_pair")),
    *(("sew3", f, None) for f in ("enum_I", "build_T", "build_B_I", "build_delta_I", "tree_isomorphic")),
    ("core", "Complex.link", None),
    ("core", "Complex.f_counts", _f_counts),
    ("core", "Complex.faces_of_card", None),
    *(("core", f, None) for f in ("fh_vectors", "z2_betti_numbers", "topology_report", "facet_ridge_graph")),
    ("gf2", "gf2_rank", _gf2),
    *(("props", f, None) for f in (
        "is_cs", "cs_neighborliness", "stackedness", "edge_link_census", "is_subcomplex",
        "enum_S", "delta3_facet_formula")),
    *(("iso", f, None) for f in ("isomorphic", "automorphisms", "vertex_fingerprints", "necessary_conditions")),
    ("iso", "_Search.run", None),
    ("shelling", "is_shelling", _facets),
    *(("shelling", f, None) for f in ("symmetric_shelling_delta3", "shelling_B42")),
    *(("fileio", f, None) for f in ("read_path", "loads_text", "loads_json", "write_path", "dumps_text", "dumps_json")),
    ("fileio", "loads", _read_bytes),
    ("fileio", "dumps", _write_bytes),
    ("cli", "main", None),
]
COUNTED_GENERATORS = [("props", "_antipode_free_subsets", "props.subsets_checked")]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end=None, parent=None, attrs=None):
        self.name, self.start, self.end, self.parent, self.attrs = name, start, end, parent, attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced pass, held in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def wrap(self, fn, name, recorder):
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), parent=stack[-1] if stack else None))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx].end = clock()
                stack.pop()
            if recorder is not None:
                spans[idx].attrs = recorder(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted


def _namespaces():
    package = importlib.import_module("csspheres")
    return [package] + [importlib.import_module(f"csspheres.{m}") for m in MODULES]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every table entry wherever it is bound; return what to restore."""
    spaces = _namespaces()
    by_name = {ns.__name__.rsplit(".", 1)[-1]: ns for ns in spaces}
    patches = []

    def patch_everywhere(original, replacement):
        for ns in spaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    patches.append((ns, attr, original))
                    setattr(ns, attr, replacement)

    for module, attr, recorder in WRAPPERS:
        owner = by_name[module]
        *cls, leaf = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        original = vars(owner).get(leaf) if owner is not None else None
        if original is None:  # the layer no longer has this entry point
            continue
        wrapped = tracer.wrap(original, f"{module}.{attr}", recorder)
        if cls:
            patches.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
        else:
            patch_everywhere(original, wrapped)
    for module, attr, key in COUNTED_GENERATORS:
        original = vars(by_name[module]).get(attr)
        if original is not None:
            patch_everywhere(original, tracer.wrap_generator(original, key))
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def _union_length(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _union_length(children.get(i, ())) for i, s in enumerate(spans)]


def covered(spans: list[Span], names) -> float:
    """Time inside spans named in `names`, counting nested ones once."""
    names = set(names)
    return sum((s.duration for s in spans if s.name in names and not _has_ancestor(spans, s, names)), 0.0)


def _prefixed(spans, prefix):
    return {s.name for s in spans if s.name.startswith(prefix)}


def _attr_sum(spans, name, key):
    return sum(s.attrs[key] for s in spans if s.name == name and s.attrs)


def _has_ancestor(spans, s, names) -> bool:
    p = s.parent
    while p is not None:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


ISO_ENTRY = ("iso.isomorphic", "iso.automorphisms", "iso.vertex_fingerprints", "iso.necessary_conditions")
READS = ("fileio.read_path", "fileio.loads", "fileio.loads_text", "fileio.loads_json")
WRITES = ("fileio.write_path", "fileio.dumps", "fileio.dumps_text", "fileio.dumps_json")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass, under the benchmark's metric names."""
    spans = tracer.spans
    selfs = self_times(spans)
    count = Counter(s.name for s in spans)

    def self_sum(name):
        return sum((t for s, t in zip(spans, selfs) if s.name == name), 0.0)

    builder_names = _prefixed(spans, "builders.")
    seen_faces = {}
    for s in spans:
        if s.name == "core.Complex.f_counts" and s.attrs:
            seen_faces[(s.attrs["complex"], s.attrs["faces"])] = s.attrs["faces"]
    return {
        "iso.invariants_s": covered(spans, ISO_ENTRY) - covered(spans, ["iso._Search.run"]),
        "iso.fingerprint_calls": count["iso.vertex_fingerprints"],
        "iso.search_s": covered(spans, ["iso._Search.run"]),
        "iso.pairs": count["iso.isomorphic"] + count["iso.automorphisms"],
        "core.link_calls": count["core.Complex.link"],
        "core.link_s": covered(spans, ["core.Complex.link"]),
        "core.betti_s": covered(spans, ["core.z2_betti_numbers"]),
        "core.closure_s": covered(spans, ["core.Complex.faces_of_card"]),
        "core.fvec_s": covered(spans, ["core.Complex.f_counts", "core.fh_vectors"]),
        "core.topology_s": self_sum("core.topology_report"),
        "core.faces": sum(seen_faces.values()),
        "gf2.s": covered(spans, ["gf2.gf2_rank"]),
        "gf2.rows": _attr_sum(spans, "gf2.gf2_rank", "rows"),
        "gf2.rank": _attr_sum(spans, "gf2.gf2_rank", "rank"),
        "props.cs_s": covered(spans, ["props.is_cs"]),
        "props.neighborly_s": covered(spans, ["props.cs_neighborliness"]),
        "props.subsets_checked": tracer.counts["props.subsets_checked"],
        "props.census_s": covered(spans, ["props.edge_link_census"]),
        "props.stacked_s": covered(spans, ["props.stackedness"]),
        "builders.s": covered(spans, builder_names),
        "builders.calls": sum(count[n] for n in builder_names),
        "builders.facets_out": sum(
            s.attrs["facets"] for s in spans
            if s.name in builder_names and s.attrs and not _has_ancestor(spans, s, builder_names)
        ),
        "flips.s": covered(spans, _prefixed(spans, "flips.")),
        "sew3.s": covered(spans, _prefixed(spans, "sew3.")),
        "shelling.s": covered(spans, _prefixed(spans, "shelling.")),
        "shelling.facets": _attr_sum(spans, "shelling.is_shelling", "facets"),
        "fileio.read_s": covered(spans, READS),
        "fileio.write_s": covered(spans, WRITES),
        "fileio.bytes": _attr_sum(spans, "fileio.loads", "bytes") + _attr_sum(spans, "fileio.dumps", "bytes"),
        "cli.self_s": self_sum("cli.main"),
        "cli.cmds": count["cli.main"],
    }


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def write_spans(tracer: Tracer, path: str) -> None:
    """One JSON object per span: index, name, start, end, parent, attributes."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "attrs": s.attrs}) + "\n")
