"""Spans around calls into each mts_select module, recorded from outside the program.

The modules bind their collaborators with `from .x import y`, so a call is
caught by replacing the name where it is looked up: `mts_select.ranker.nmi`,
not `mts_select.info.nmi`. SITES lists every such name on the rank, select
and eval paths. Tracer.installed() swaps in timing wrappers and restores the
originals on exit. Spans stay in memory; layer_metrics() folds them into the
per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import threading
import time
from dataclasses import dataclass, field

# (module whose global is replaced, names looked up there)
SITES = (
    ("mts_select.cli", ("load_dataset", "split", "rank_features", "select_features",
                        "cached_distance_matrix", "aggregate", "nn1_classify")),
    ("mts_select.ranker", ("cached_distance_matrix", "knn_graph", "symmetrize",
                           "power_iteration_embedding", "nmi")),
    ("mts_select.select", ("feature_embeddings", "build_redundancy", "nystrom_redundancy",
                           "psd_shift", "flatten", "solve", "solve_for_support")),
    ("mts_select.distance", ("fingerprint", "distance_matrix")),
    ("mts_select.solver", ("solve",)),
)


@dataclass
class Span:
    id: int
    name: str  # "<defining module>.<function>", e.g. "distance.distance_matrix"
    parent: int | None  # enclosing span on the same thread
    thread: int
    request: int  # index of the CLI command that caused it
    start: float
    end: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _facts(name: str, args, kwargs, result) -> dict:
    """State the program returns but does not report, read off one call."""
    if name == "spectral.power_iteration_embedding":
        max_iter = kwargs.get("max_iter", args[2] if len(args) > 2 else 1000)
        return {"iterations": result.iterations_used,
                "max_iter_hit": result.iterations_used == max_iter}
    if name == "solver.solve":
        return {"sweeps": result.sweeps_used, "converged": result.converged}
    if name == "distance.distance_matrix":
        ds, feature_id = args[0], kwargs.get("feature_id", args[1] if len(args) > 1 else None)
        return {"kind": ds.descriptors[feature_id].kind.value}
    if name in ("info.build_redundancy", "info.nystrom_redundancy"):
        return {"kind": kwargs.get("kind", args[3] if len(args) > 3 else None),
                "m": len(args[0])}
    if name == "solver.flatten":
        return {"n": int(args[1].shape[0]), "m": len(args[0])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span = Span(len(self.spans), name, stack[-1].id if stack else None,
                            threading.get_ident(), self.request, 0.0)
                self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.facts = _facts(name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every name in SITES with a timing wrapper; restore on exit."""
        saved = []
        try:
            for module_name, names in SITES:
                module = importlib.import_module(module_name)
                for attr in names:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _self_seconds(span: Span, children: dict[int, list[Span]]) -> float:
    return span.seconds - sum(c.seconds for c in children.get(span.id, ()))


def layer_metrics(spans: list[Span], command_seconds: float,
                  main_thread: int) -> tuple[dict, dict]:
    """Measured per-layer figures of one traced sequence, and the facts that
    run.py checks against the counts computed from the inputs.

    cli.self_s is the commands' wall time minus the root spans on the main
    thread. The cache layer's read and write times are the self time of
    cached_distance_matrix on hits and on misses: the call minus the
    fingerprint hashing and the distance computation inside it.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def total(*names):
        return sum(s.seconds for name in names for s in calls(name))

    lookups = calls("distance.cached_distance_matrix")
    misses = [s for s in lookups
              if any(c.name == "distance.distance_matrix" for c in children.get(s.id, ()))]
    miss_ids = {s.id for s in misses}
    hits = [s for s in lookups if s.id not in miss_ids]
    matrices = calls("distance.distance_matrix")
    embeds = calls("spectral.power_iteration_embedding")
    solves = calls("solver.solve")
    redundancy = calls("info.build_redundancy") + calls("info.nystrom_redundancy")
    dtw = [s for s in matrices if s.facts["kind"] == "timeseries"]
    roots = sum(s.seconds for s in spans if s.parent is None and s.thread == main_thread)
    facts = {
        "dtw_seconds": sum(s.seconds for s in dtw),
        "dtw_matrices": len(dtw),
        "design_shapes": [[s.facts["n"], s.facts["m"]] for s in calls("solver.flatten")],
        "redundancy_sizes": [s.facts["m"] for s in redundancy],
    }
    return {
        "dataset.load_s": total("dataset.load_dataset", "dataset.split"),
        "dataset.fingerprint_calls": len(calls("dataset.fingerprint")),
        "dataset.fingerprint_s": total("dataset.fingerprint"),
        "distance.matrix_calls": len(matrices),
        "distance.matrix_s": total("distance.distance_matrix"),
        "distance.matrix_p50_ms": 1e3 * statistics.median(s.seconds for s in matrices)
        if matrices else 0.0,
        "distance.cache_hits": len(hits),
        "distance.cache_misses": len(misses),
        "distance.cache_read_s": sum(_self_seconds(s, children) for s in hits),
        "distance.cache_write_s": sum(_self_seconds(s, children) for s in misses),
        "graph.knn_calls": len(calls("graph.knn_graph")),
        "graph.knn_s": total("graph.knn_graph", "graph.symmetrize"),
        "spectral.embed_calls": len(embeds),
        "spectral.embed_s": total("spectral.power_iteration_embedding"),
        "spectral.iterations": sum(s.facts["iterations"] for s in embeds),
        "spectral.max_iter_hits": sum(s.facts["max_iter_hit"] for s in embeds),
        "info.nmi_s": total("info.nmi"),
        "info.redundancy_mi_s": sum(s.seconds for s in redundancy if s.facts["kind"] == "mi"),
        "info.redundancy_cmi_s": sum(s.seconds for s in redundancy if s.facts["kind"] == "cmi"),
        "info.psd_shift_s": total("info.psd_shift"),
        "solver.flatten_s": total("solver.flatten"),
        "solver.solve_calls": len(solves),
        "solver.sweeps": sum(s.facts["sweeps"] for s in solves),
        "solver.unconverged": sum(not s.facts["converged"] for s in solves),
        "solver.solve_s": total("solver.solve"),
        "solver.bisect_s": total("solver.solve_for_support"),
        "evaluation.aggregate_s": total("evaluation.aggregate"),
        "evaluation.nn1_s": total("evaluation.nn1_classify"),
        "cli.self_s": command_seconds - roots,
    }, facts
