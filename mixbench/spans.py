"""Per-layer spans around the calls ``mixrec.backtest`` makes.

``Tracer.installed()`` swaps every module-level function that
``mixrec.backtest`` looks up by name for a wrapper that records a span:
calls, total time and self time (total minus the time of spans nested in
it). ``ChunkModel.fold_into`` is wrapped on its class, because the backtest
calls it as a method. The program's source is untouched and the originals
come back when the context ends, so a traced and an untraced run execute
the same code apart from the wrappers.

Spans of functions called once per query (retrievers and per-query scoring)
are only aggregated; every other span is also kept as an event with its
start, end and parent. The candidate checks of ``CandidateChecker`` run
inside the retriever wrappers under their own span name, ``bench.check``,
so their cost is accounted for and never charged to a layer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import mixrec.backtest as bt
from mixrec.retrieval import RetrievalConfig
from mixrec.sampler import ChunkModel

LAYER_OF = {
    "load_edge_list": "graph",
    "load_graph": "graph",
    "save_graph": "graph",
    "graph_stats": "graph",
    "format_stats": "graph",
    "split": "graph",
    "regroup_chunks": "graph",
    "train_embeddings": "embeddings",
    "load_embeddings": "embeddings",
    "save_embeddings": "embeddings",
    "cluster_items": "clustering",
    "load_clusters": "clustering",
    "save_clusters": "clustering",
    "export_cluster_map": "clustering",
    "build_init": "initialization",
    "mle_mixture": "initialization",
    "load_init": "initialization",
    "save_init": "initialization",
    "fit_chunk": "sampler",
    "load_chunk_model": "sampler",
    "save_chunk_model": "sampler",
    "sweep_diagnostics_text": "sampler",
    "fold_into": "sampler",
    "build_index": "retrieval",
    "build_mle_index": "retrieval",
    "ann_encode_items": "retrieval",
    "popularity_ranking": "retrieval",
    "batch_retrieve": "retrieval",
    "retrieve_micro": "retrieval",
    "retrieve_mle": "retrieval",
    "ann_retrieve": "retrieval",
    "popularity_retrieve": "retrieval",
    "build_queries": "metrics",
    "score_query": "metrics",
    "aggregate": "metrics",
}
LAYERS = ("graph", "embeddings", "clustering", "initialization", "sampler", "retrieval", "metrics")
RETRIEVERS = {"retrieve_micro": "micro", "retrieve_mle": "mle", "ann_retrieve": "ann", "popularity_retrieve": "popularity"}
PER_QUERY = set(RETRIEVERS) | {"score_query"}
# results kept for the counts that describe a stage's work
KEEP = {"cluster_items", "build_init", "load_init", "fit_chunk"}
CHECK = "bench.check"


class Tracer:
    def __init__(self, checker: "CandidateChecker | None" = None):
        self.checker = checker
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.events: list[tuple[str, float, float, str]] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[list] = []  # [name, time covered by child spans]

    def _enter(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        dur = t1 - t0
        _, child = self._stack.pop()
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        parent = self._stack[-1][0] if self._stack else ""
        if self._stack:
            self._stack[-1][1] += dur
        if name not in PER_QUERY:
            self.events.append((name, t0, t1, parent))

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            if name in KEEP:
                self.results[name].append(out)
            if self.checker is not None and name in RETRIEVERS:
                t0 = self._enter(CHECK)
                try:
                    self.checker.check(RETRIEVERS[name], out, _retrieval_config(args, kwargs))
                finally:
                    self._exit(CHECK, t0)
            return out

        return wrapper

    @contextmanager
    def root(self, name: str = "backtest"):
        t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, t0)

    @contextmanager
    def installed(self):
        """Wrap the functions ``mixrec.backtest`` calls, for the duration."""
        originals = {name: getattr(bt, name) for name in LAYER_OF if name != "fold_into"}
        fold_into = ChunkModel.fold_into
        try:
            for name, fn in originals.items():
                setattr(bt, name, self.span(name, fn))
            ChunkModel.fold_into = self.span("fold_into", fold_into)
            yield self
        finally:
            for name, fn in originals.items():
                setattr(bt, name, fn)
            ChunkModel.fold_into = fold_into

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_time.items():
            if name in LAYER_OF:
                out[LAYER_OF[name]] += s
        return out


def _retrieval_config(args, kwargs):
    for a in list(args) + list(kwargs.values()):
        if isinstance(a, RetrievalConfig):
            return a
    raise RuntimeError("retriever called without a RetrievalConfig")


class CandidateChecker:
    """Checks candidate lists against the generated edges.

    A list is valid when it has at most M items, no duplicates, is ordered
    by (score desc, item asc), holds only items engaged in the source chunk
    (the chunk before the target) and, with seen exclusion on, no item the
    user engaged before the target chunk. Relies on the generator's ids
    being the loader's dense ids.
    """

    def __init__(self, edges):
        self._I = int(edges.items.max()) + 1
        key = edges.users * self._I + edges.items
        order = np.lexsort((edges.chunks, key))
        k = key[order]
        first = np.r_[True, k[1:] != k[:-1]]
        self._keys = k[first]
        self._first_chunk = edges.chunks[order][first]
        self._pools = {int(t): np.unique(edges.items[edges.chunks == t]) for t in np.unique(edges.chunks)}
        self._warm = np.zeros(int(edges.users.max()) + 1, dtype=bool)
        self._warm[edges.users[edges.chunks < edges.train_chunks]] = True
        self.lists = defaultdict(int)  # per method
        self.invalid = 0
        self.short = 0
        self.fallback = 0
        self.problems: list[str] = []

    def check(self, method: str, cands, rcfg) -> None:
        self.lists[method] += 1
        ids = np.fromiter((i for i, _ in cands.items), dtype=np.int64, count=len(cands.items))
        scores = np.fromiter((s for _, s in cands.items), dtype=np.float64, count=len(cands.items))
        if len(ids) < rcfg.M:
            self.short += 1
        if method in ("micro", "mle") and not self._warm[cands.user]:
            self.fallback += 1
        problem = None
        if len(ids) > rcfg.M:
            problem = f"{len(ids)} items > M={rcfg.M}"
        elif len(np.unique(ids)) != len(ids):
            problem = "duplicate items"
        elif np.any((scores[1:] > scores[:-1]) | ((scores[1:] == scores[:-1]) & (ids[1:] <= ids[:-1]))):
            problem = "not ordered by (score desc, item asc)"
        else:
            pool = self._pools.get(cands.chunk - 1, np.empty(0, np.int64))
            pos = np.minimum(np.searchsorted(pool, ids), max(len(pool) - 1, 0))
            if len(ids) and (len(pool) == 0 or np.any(pool[pos] != ids)):
                problem = "item outside the source-chunk pool"
            elif rcfg.exclude_seen and len(ids):
                keys = cands.user * self._I + ids
                pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
                seen = (self._keys[pos] == keys) & (self._first_chunk[pos] < cands.chunk)
                if np.any(seen):
                    problem = "seen item returned"
        if problem is not None:
            self.invalid += 1
            if len(self.problems) < 5:
                self.problems.append(f"{method} user={cands.user} chunk={cands.chunk}: {problem}")


def summarize(tr: Tracer, root: str = "backtest") -> dict:
    """The JSON-ready numbers of one traced call: spans plus the counts
    read off the stage results."""
    res = tr.results
    init = (res["build_init"] + res["load_init"] or [None])[-1]
    clusters = (res["cluster_items"] or [None])[-1]
    cold = None
    if init is not None:
        cold = np.diff(init.support_ptr) == 0

    def chunk(m) -> dict:
        return {
            "n": int(m.n),
            "sweeps": int(m.sweeps_run),
            "converged": bool(m.converged),
            "underflow": int(m.underflow_events),
            "cold": int(cold[m.slice.users].sum()) if cold is not None else 0,
        }

    c = tr.checker
    return {
        "calls": dict(tr.calls),
        "total": dict(tr.total),
        "layer_self": tr.layer_self(),
        "wall": tr.total.get(root, 0.0),
        "root_self": tr.self_time.get(root, 0.0),
        "check": tr.total.get(CHECK, 0.0),
        "kmeans_iters": len(clusters.objective_history) if clusters is not None else 0,
        "mean_support": float(np.diff(init.support_ptr)[~cold].mean()) if init is not None and (~cold).any() else 0.0,
        "cold_users": int(cold.sum()) if cold is not None else 0,
        "fits": [chunk(m) for m in res["fit_chunk"]],
        "lists": dict(c.lists) if c else {},
        "invalid": c.invalid if c else 0,
        "short": c.short if c else 0,
        "fallback": c.fallback if c else 0,
        "problems": list(c.problems) if c else [],
        "events": [list(e) for e in tr.events],
    }


def layer_metrics(timed: dict, setup: dict | None, epochs: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    A stage the workload builds in set-up (embed and cluster on refresh and
    serve, fit on serve) reports the time and counts of that set-up, since
    that is the end-to-end metric it moves there; everything else comes from
    the timed ``backtest`` call.
    """
    setup = setup or {"calls": {}, "total": {}, "fits": [], "kmeans_iters": 0}

    def src(name: str) -> dict:
        return timed if timed["calls"].get(name) else setup

    def pick(name: str) -> float:
        return src(name)["total"].get(name, 0.0)

    def t(*names: str) -> float:
        return sum(timed["total"].get(n, 0.0) for n in names)

    fits = src("fit_chunk")["fits"]
    fit_s = pick("fit_chunk")
    n = sum(f["n"] for f in fits)
    updates = sum(f["n"] * f["sweeps"] for f in fits)
    train_s = pick("train_embeddings")
    out = {
        "graph.load_s": pick("load_edge_list"),
        "embeddings.train_s": train_s,
        "embeddings.epoch_s": train_s / epochs,
        "clustering.kmeans_s": pick("cluster_items"),
        "clustering.iters": src("cluster_items")["kmeans_iters"],
        "initialization.build_s": pick("build_init") + pick("mle_mixture"),
        "initialization.mean_support": timed["mean_support"],
        "initialization.cold_users": timed["cold_users"],
        "sampler.fit_s": fit_s,
        "sampler.sweeps": sum(f["sweeps"] for f in fits),
        "sampler.updates_per_s": updates / fit_s if fit_s else 0.0,
        "sampler.converged_chunks": sum(f["converged"] for f in fits),
        "sampler.underflow_events": sum(f["underflow"] for f in fits),
        "sampler.cold_engagement_share": sum(f["cold"] for f in fits) / n if n else 0.0,
        "sampler.persist_s": t("save_chunk_model", "load_chunk_model", "sweep_diagnostics_text"),
        "retrieval.index_s": t("build_index", "build_mle_index", "ann_encode_items", "popularity_ranking"),
    }
    for fn, method in RETRIEVERS.items():
        secs = t(fn)
        out[f"retrieval.{method}_s"] = secs
        out[f"retrieval.{method}_qps"] = timed["calls"].get(fn, 0) / secs if secs else 0.0
    lists = sum(timed["lists"].values())
    fallback_base = timed["lists"].get("micro", 0) + timed["lists"].get("mle", 0)
    out["retrieval.fallback_share"] = timed["fallback"] / fallback_base if fallback_base else 0.0
    out["retrieval.short_list_share"] = timed["short"] / lists if lists else 0.0
    out["metrics.score_s"] = t("score_query", "build_queries", "aggregate")
    for layer, secs in timed["layer_self"].items():
        out[f"{layer}.self_s"] = secs
    out["backtest.self_s"] = timed["root_self"]
    out["backtest.check_s"] = timed["check"]
    out["backtest.traced_wall_s"] = timed["wall"]
    return out
