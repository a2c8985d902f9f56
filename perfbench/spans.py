"""Span tracing for the benchmark's traced run.

The tracer rebinds the package's public functions (and every copy of them
imported into a sibling module, such as ``cli.build_schrijver``) with
wrappers that record one span per call: name, start, end and the enclosing
span.  Times are process CPU times, like the op times of ``worker.py``.
Spans stay in memory until the run ends.  A layer's self time is the sum of
its spans' durations minus the time their child spans cover.

A target that no longer exists raises ``TraceTargetMissing``, so a rename in
the package stops the traced run instead of silently zeroing a layer.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import nullcontext
import json
import math
import sys
from time import process_time as clock

PACKAGE = "kneser_chroma"

# span names the benchmark records around its own code
OP = "op"
ARTIFACT = "cli.artifact"
JSON_READ = "graphs.json_read"


class TraceTargetMissing(RuntimeError):
    """A function the traced run must wrap is missing or not callable."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "hook_s")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict | None = None
        self.hook_s = 0.0  # time spent deriving counts right after the call

    def bump(self, key: str, amount: int = 1) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = self.attrs.get(key, 0) + amount


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = clock()
        self._stack.pop()

    def region(self, name: str):
        """Context manager recording a span around the benchmark's own code."""
        return _Region(self, name)

    def bump(self, key: str) -> None:
        """Count one event against the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]].bump(key)

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                t0 = clock()
                for key, value in hook(args, result).items():
                    span.bump(key, value)
                span.hook_s = clock() - t0
            return result

        return traced

    def wrap_count(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.bump(key)
            return fn(*args, **kwargs)

        return counted

    def wrap_count_yields(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.bump(key)
                yield item

        return counted

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the footprint of its children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start + span.hook_s
        out: dict[str, float] = {}
        for span, covered in zip(self.spans, child):
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start - covered
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "attrs": span.attrs,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class _Region:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer._open(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False


class NoTracer:
    """Stand-in used by untraced runs: regions record nothing."""

    def region(self, name: str):
        return _NO_SPAN


_NO_SPAN = nullcontext()


# --- what gets wrapped ----------------------------------------------------


def _subsets(args, result):
    return {"subsets": len(result)}


def _sample(args, result):
    return {"edges_sampled": args[0].num_edges, "edges_kept": result.num_edges}


def _json_bytes(args, result):
    return {"json_bytes": len(result.encode("utf-8"))}


def _solve(args, result):
    tight = result.status == "exact" and len(result.clique) == result.chi
    return {
        "nodes": result.nodes_explored,
        "timeout": int(result.status != "exact"),
        "gap": result.upper - result.lower,
        "tight": int(tight),
    }


def _faces(args, result):
    emb = args[0]
    return {"faces": len(result.faces), "n": emb.n, "d": emb.d}


def _find(args, result):
    faces = args[0].faceset.faces
    return {"faces_scanned": faces.index(result.face) + 1}


# (module, attribute, span name, hook); an attribute "Class.method" wraps the
# method on the class, which covers every module that imported the class.
SPAN_TARGETS = (
    ("setfam", "enumerate_ksubsets", "setfam.enumerate_ksubsets", _subsets),
    ("setfam", "enumerate_stable_ksubsets", "setfam.enumerate_stable_ksubsets", _subsets),
    ("graphs", "build_kneser", "graphs.build_kneser", None),
    ("graphs", "build_schrijver", "graphs.build_schrijver", None),
    ("graphs", "sample_subgraph", "graphs.sample_subgraph", _sample),
    ("graphs", "to_canonical_json", "graphs.to_canonical_json", _json_bytes),
    ("graphs", "from_json_dict", "graphs.from_json_dict", None),
    ("chromatic", "chromatic_number", "chromatic.chromatic_number", _solve),
    ("gale", "build_embedding", "gale.build_embedding", None),
    ("gale", "general_position_check", "gale.general_position_check", None),
    ("gale", "verify_gale_property", "gale.verify_gale_property", None),
    ("gale", "enumerate_faces", "gale.enumerate_faces", _faces),
    ("gale", "WitnessSearch.__init__", "gale.WitnessSearch", None),
    ("gale", "WitnessSearch.find", "gale.WitnessSearch.find", _find),
    ("bounds", "best_gap", "bounds.best_gap", None),
    ("bounds", "corollary_regime_report", "bounds.corollary_regime_report", None),
    ("bounds", "ln_pA_bound", "bounds.ln_pA_bound", None),
    ("bounds", "g_is_decreasing", "bounds.g_is_decreasing", None),
    ("cli", "gen_graph", "cli.gen_graph", None),
    ("cli", "random_chi_csv", "cli.random_chi_csv", None),
    ("cli", "gale_verify_report", "cli.gale_verify_report", None),
    ("cli", "run_witness", "cli.run_witness", None),
    ("cli", "bounds_report", "cli.bounds_report", None),
)

# counted without a span: the call sits in a hot loop (condition_holds runs
# once per ell inside best_gap) or is a generator
COUNT_TARGETS = (
    ("bounds", "condition_holds", "condition_evals", "call"),
    ("gale", "canonical_hemispheres", "hemispheres", "yield"),
)


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    owner = mod
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceTargetMissing(f"{PACKAGE}.{module}.{attr}: no {part!r}")
    fn = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(
        owner, parts[-1], None
    )
    if not callable(fn):
        raise TraceTargetMissing(
            f"{PACKAGE}.{module}.{attr} is missing or not callable; "
            "update perfbench/spans.py to the package's new name for it"
        )
    return owner, parts[-1], fn


def install(tracer: Tracer):
    """Rebind every target and every copy of it; returns a function undoing that."""
    resolved = []
    for module, attr, name, hook in SPAN_TARGETS:
        owner, leaf, fn = _resolve(module, attr)
        resolved.append((owner, leaf, fn, tracer.wrap(name, fn, hook)))
    for module, attr, key, kind in COUNT_TARGETS:
        owner, leaf, fn = _resolve(module, attr)
        wrap = tracer.wrap_count if kind == "call" else tracer.wrap_count_yields
        resolved.append((owner, leaf, fn, wrap(key, fn)))

    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    undo = []
    for owner, leaf, fn, wrapped in resolved:
        places = [(owner, leaf)]
        if not isinstance(owner, type):
            places = [
                (mod, name)
                for mod in modules
                for name, value in vars(mod).items()
                if value is fn
            ]
        for place, name in places:
            setattr(place, name, wrapped)
            undo.append((place, name, fn))

    def uninstall():
        for place, name, fn in reversed(undo):
            setattr(place, name, fn)

    return uninstall


# --- per-layer metrics ----------------------------------------------------

# span name -> self-time metric
TIME_METRIC = {
    "setfam.enumerate_ksubsets": "setfam.enumerate_s",
    "setfam.enumerate_stable_ksubsets": "setfam.enumerate_s",
    "graphs.build_kneser": "graphs.build_s",
    "graphs.build_schrijver": "graphs.build_s",
    "graphs.sample_subgraph": "graphs.sample_s",
    "graphs.to_canonical_json": "graphs.json_write_s",
    "graphs.from_json_dict": "graphs.json_read_s",
    JSON_READ: "graphs.json_read_s",
    "chromatic.chromatic_number": "chromatic.solve_s",
    "gale.build_embedding": "gale.embed_s",
    "gale.general_position_check": "gale.position_s",
    "gale.verify_gale_property": "gale.verify_s",
    "gale.enumerate_faces": "gale.faces_s",
    "gale.WitnessSearch": "gale.census_s",
    "gale.WitnessSearch.find": "gale.find_s",
    "bounds.best_gap": "bounds.best_gap_s",
    "bounds.corollary_regime_report": "bounds.regime_s",
    "bounds.ln_pA_bound": "bounds.report_s",
    "bounds.g_is_decreasing": "bounds.report_s",
    "cli.gen_graph": "cli.self_s",
    "cli.random_chi_csv": "cli.self_s",
    "cli.gale_verify_report": "cli.self_s",
    "cli.run_witness": "cli.self_s",
    "cli.bounds_report": "cli.self_s",
    ARTIFACT: "cli.artifact_s",
    OP: "bench.glue_s",
}

# (span name, count key) -> count metric
COUNT_METRIC = {
    ("setfam.enumerate_ksubsets", "subsets"): "setfam.subsets",
    ("setfam.enumerate_stable_ksubsets", "subsets"): "setfam.subsets",
    ("graphs.sample_subgraph", "edges_sampled"): "graphs.edges_sampled",
    ("graphs.sample_subgraph", "edges_kept"): "graphs.edges_kept",
    ("graphs.to_canonical_json", "json_bytes"): "graphs.json_bytes",
    ("chromatic.chromatic_number", "nodes"): "chromatic.nodes",
    ("chromatic.chromatic_number", "timeout"): "chromatic.timeouts",
    ("gale.enumerate_faces", "faces"): "gale.faces",
    ("gale.WitnessSearch.find", "faces_scanned"): "gale.faces_scanned",
    ("gale.verify_gale_property", "hemispheres"): "gale.hemispheres",
    ("bounds.best_gap", "condition_evals"): "bounds.condition_evals",
    (ARTIFACT, "artifact_bytes"): "cli.artifact_bytes",
}


def count_totals(spans) -> dict[str, int]:
    """Exact work counts summed over spans; these repeat for a fixed seed."""
    totals = {name: 0 for name in sorted(set(COUNT_METRIC.values()))}
    totals.update(nodes_exact=0, nodes_timeout=0, open_gap=0, exact=0, tight=0)
    for span in spans:
        if not span.attrs:
            continue
        for key, value in span.attrs.items():
            metric = COUNT_METRIC.get((span.name, key))
            if metric is not None:
                totals[metric] += value
        if span.name == "chromatic.chromatic_number":
            a = span.attrs
            if a["timeout"]:
                totals["nodes_timeout"] += a["nodes"]
                totals["open_gap"] += a["gap"]
            else:
                totals["nodes_exact"] += a["nodes"]
                totals["exact"] += 1
                totals["tight"] += a["tight"]
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced loop, normalised per op where additive."""
    times = {metric: 0.0 for metric in TIME_METRIC.values()}
    for name, secs in tracer.self_times().items():
        times[TIME_METRIC[name]] += secs
    c = count_totals(tracer.spans)
    out = {metric: (secs / ops, "s/op") for metric, secs in sorted(times.items())}
    for metric in sorted(set(COUNT_METRIC.values())):
        out[metric] = (c[metric] / ops, "count/op")
    out["chromatic.nodes_exact"] = (c["nodes_exact"] / ops, "count/op")
    out["chromatic.nodes_timeout"] = (c["nodes_timeout"] / ops, "count/op")
    out["chromatic.open_gap"] = (c["open_gap"] / ops, "colors/op")
    out["chromatic.us_per_node"] = (
        _ratio(times["chromatic.solve_s"] * 1e6, c["chromatic.nodes"]),
        "us",
    )
    out["chromatic.wasted_node_frac"] = (
        _ratio(c["nodes_timeout"], c["chromatic.nodes"]),
        "fraction",
    )
    out["chromatic.clique_tight_frac"] = (_ratio(c["tight"], c["exact"]), "fraction")
    out["graphs.sample_ns_per_edge"] = (
        _ratio(times["graphs.sample_s"] * 1e9, c["graphs.edges_sampled"]),
        "ns",
    )
    out["trace.hook_s"] = (sum(s.hook_s for s in tracer.spans) / ops, "s/op")
    return out


def cover_face_count(n: int, d: int) -> int:
    """Faces of n generic central hyperplanes in R^d (Cover 1965), zeros included."""
    return sum(
        math.comb(n, j) * 2 * sum(math.comb(n - j - 1, i) for i in range(d - j))
        for j in range(d)
    )


def face_count_problems(spans) -> list[str]:
    """Every enumerate_faces call must return Cover's count of faces."""
    problems = []
    for span in spans:
        if span.name == "gale.enumerate_faces":
            a = span.attrs
            want = cover_face_count(a["n"], a["d"])
            if a["faces"] != want:
                problems.append(
                    f"enumerate_faces(n={a['n']}, d={a['d']}) gave {a['faces']} "
                    f"faces, Cover's formula gives {want}"
                )
    return problems
