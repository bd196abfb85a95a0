"""Rolling backtest: fit on chunk t, retrieve and score against chunk t+1.

One config drives the whole pipeline. Artifacts (graph, embeddings,
clusters, t=0 counts, per-chunk fitted models) persist under the output
directory and are reused on rerun, so a run can resume per chunk. All file
writes are atomic (temp file + rename) and all outputs are deterministic
given the config, including float formatting. A stage's ``.npz`` marks it
done, so it is written after the stage's side files.

The first held-out chunk is only fitted (it has no fitted predecessor to
retrieve from); every later chunk is the query target for the previous
chunk's representations. The candidate pool for every method is the set of
items engaged in the source chunk, so comparisons stay fair; the static
mixture baseline ranks train items restricted to that pool.

Every method is one retriever ``fn(u, index, cfg, seen, chunk)``; its
index is built once per source chunk (``ann``, ``popularity``) or per
(chunk, M) (the two mixtures).

``open_run`` starts every run, here and in the CLI's stage commands: it
validates the config, checks it against the output directory's
``config.json`` on every field some artifact depends on (all but the
retrieval and output fields) and writes it. A bad or stale config raises
before anything is touched, instead of building or reusing artifacts.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .clustering import cluster_items, export_cluster_map, load_clusters, save_clusters
from .embeddings import check_embedding_args, load_embeddings, save_embeddings, train_embeddings
from .graph import ChunkSlice, EngagementGraph, SplitSpec, format_stats, graph_stats, load_edge_list, load_graph, regroup_chunks, save_graph, split
from .initialization import _check_priors, build_init, load_init, mle_mixture, save_init
from .metrics import MetricsReport, aggregate, build_queries, score_query
from .retrieval import (
    RetrievalConfig,
    ann_encode_items,
    ann_retrieve,
    batch_retrieve,
    build_index,
    build_mle_index,
    chunk_tables,
    popularity_ranking,
    popularity_retrieve,
)
# one retriever serves both mixtures, bound to one name per method so
# that each method's calls can be wrapped and timed on their own
from .retrieval import retrieve_mixture as retrieve_micro
from .retrieval import retrieve_mixture as retrieve_mle
from .sampler import SamplerConfig, UserCounts, fit_chunk, load_chunk_model, save_chunk_model, sweep_diagnostics_text

__all__ = ["RunConfig", "backtest", "open_run", "split_graph", "write_reports", "report", "METHODS"]

logger = logging.getLogger(__name__)

METHODS = ("micro", "mle", "ann", "popularity")


@dataclass
class EmbedParams:
    dim: int = 64
    epochs: int = 10
    negatives: int = 10
    lr: float = 0.05
    batch_size: int = 1024


@dataclass
class RunConfig:
    data_path: str = ""
    out_dir: str = "runs/default"
    delimiter: str = "\t"
    regroup_factor: int = 1
    test_chunks: int = 3
    num_interests: int = 100
    kmeans_iters: int = 25
    alpha: float = 0.1
    beta: float = 0.01
    embed: EmbedParams = field(default_factory=EmbedParams)
    max_sweeps: int = 20
    convergence_tol: float = 1e-4
    user_count_mode: str = "reset"
    m_values: list[int] = field(default_factory=lambda: [100])
    truncation: int | None = None
    exclude_seen: bool = True
    workers: int = 1
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    dump_candidates: bool = False
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.embed, dict):
            self.embed = EmbedParams(**self.embed)
        self._check_lists()

    def _check_lists(self) -> None:
        """Reject an empty or repeated M and an unknown or repeated method;
        ``open_run`` checks again, since the CLI sets fields after
        construction."""
        if not self.m_values:
            raise ValueError("m_values must be nonempty")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; valid: {METHODS}")
        for name in ("m_values", "methods"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {values}")

    @staticmethod
    def from_json(path) -> "RunConfig":
        with open(path) as fh:
            return RunConfig(**json.load(fh))

    def to_json(self, path) -> None:
        _atomic_write(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    def sampler_config(self, chunk_ordinal: int) -> SamplerConfig:
        return SamplerConfig(
            max_sweeps=self.max_sweeps,
            convergence_tol=self.convergence_tol,
            seed=self.seed + 100_003 * (chunk_ordinal + 1),
            user_count_mode=self.user_count_mode,
        )

    def retrieval_config(self, m: int) -> RetrievalConfig:
        return RetrievalConfig(
            M=m,
            L=self.truncation,
            exclude_seen=self.exclude_seen,
            workers=self.workers,
        )


# fields that only shape retrieval, scoring or output; every other field
# feeds some cached artifact
_RETRIEVAL_FIELDS = {
    "out_dir", "m_values", "truncation", "exclude_seen", "workers", "methods",
    "dump_candidates",
}


def open_run(cfg: RunConfig) -> dict[int, RetrievalConfig]:
    """Validate ``cfg``, check it against the output directory's
    ``config.json`` and write it there; returns the retrieval config per M.

    Every check runs before anything is written: a bad config creates no
    directory, and one that disagrees with the existing ``config.json`` on
    an artifact field (the cached artifacts would be stale) raises, naming
    the fields, and leaves the directory untouched.
    """
    cfg._check_lists()
    rcfgs = {m: cfg.retrieval_config(m) for m in cfg.m_values}
    cfg.sampler_config(0)
    for name in ("num_interests", "kmeans_iters", "regroup_factor"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(cfg, name)!r}")
    _check_priors(cfg.alpha, cfg.beta)
    e = cfg.embed
    check_embedding_args(e.dim, e.epochs, e.negatives, e.lr, e.batch_size)
    out = Path(cfg.out_dir)
    if (out / "config.json").exists():
        old = json.loads((out / "config.json").read_text())
        new = json.loads(json.dumps(asdict(cfg)))
        stale = [
            f.name for f in fields(RunConfig)
            if f.name not in _RETRIEVAL_FIELDS and old.get(f.name) != new[f.name]
        ]
        if stale:
            raise ValueError(
                f"{out} holds artifacts built with a different {', '.join(stale)}; "
                "use a new output directory or remove this one"
            )
    cfg.to_json(out / "config.json")
    return rcfgs


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _atomic_npz(path, save_fn) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp.npz")
    save_fn(tmp)
    os.replace(tmp, path)


# -- artifact stages ----------------------------------------------------------


def ensure_graph(cfg: RunConfig) -> EngagementGraph:
    out = Path(cfg.out_dir)
    cache = out / "graph.npz"
    if cache.exists():
        logger.info("stage=ingest action=reuse path=%s", cache)
        return load_graph(cache)
    g = load_edge_list(cfg.data_path, delimiter=cfg.delimiter)
    stats = format_stats(graph_stats(g))
    _atomic_write(out / "graph_stats.txt", stats + "\n")
    _atomic_npz(cache, lambda p: save_graph(g, p))
    for line in stats.splitlines():
        logger.info("stage=ingest %s", line)
    return g


def ensure_embeddings(cfg: RunConfig, train: EngagementGraph):
    cache = Path(cfg.out_dir) / "embeddings.npz"
    if cache.exists():
        logger.info("stage=embed action=reuse path=%s", cache)
        return load_embeddings(cache)
    e = cfg.embed
    emb = train_embeddings(
        train,
        dim=e.dim,
        epochs=e.epochs,
        negatives=e.negatives,
        lr=e.lr,
        seed=cfg.seed,
        batch_size=e.batch_size,
    )
    _atomic_npz(cache, lambda p: save_embeddings(emb, p))
    logger.info("stage=embed dim=%d epochs=%d final_loss=%.6f", e.dim, e.epochs, emb.epoch_losses[-1])
    return emb


def ensure_clusters(cfg: RunConfig, emb):
    out = Path(cfg.out_dir)
    cache = out / "clusters.npz"
    if cache.exists():
        logger.info("stage=cluster action=reuse path=%s", cache)
        return load_clusters(cache)
    clusters = cluster_items(emb.item_vectors, K=cfg.num_interests, iters=cfg.kmeans_iters, seed=cfg.seed)
    export_cluster_map(clusters, out / "cluster_map.tsv", delimiter=cfg.delimiter)
    _atomic_npz(cache, lambda p: save_clusters(clusters, p))
    logger.info(
        "stage=cluster K=%d iters=%d objective=%.4f",
        cfg.num_interests,
        len(clusters.objective_history),
        clusters.objective_history[-1] if clusters.objective_history else float("nan"),
    )
    return clusters


def ensure_init(cfg: RunConfig, train: EngagementGraph, clusters):
    cache = Path(cfg.out_dir) / "init.npz"
    if cache.exists():
        logger.info("stage=init action=reuse path=%s", cache)
        return load_init(cache)
    init = build_init(
        train, clusters.item_to_interest, cfg.num_interests, alpha=cfg.alpha, beta=cfg.beta
    )
    _atomic_npz(cache, lambda p: save_init(init, p))
    logger.info(
        "stage=init users=%d cold_users=%d mean_support=%.2f",
        init.num_users,
        int((np.diff(init.support_ptr) == 0).sum()),
        float(np.diff(init.support_ptr).mean()),
    )
    return init


class _SeenTracker:
    """Per-user seen items as one ascending ``int64`` array: the user's train
    items, with the items of each passed test chunk merged in.

    All users' arrays are slices of one CSR, the distinct (user, item) pairs
    kept as ascending keys ``user * num_items + item``; a chunk is merged in
    one pass over them.
    """

    def __init__(self, train: EngagementGraph):
        self._stride = max(train.num_items, 1)
        self._keys = np.empty(0, dtype=np.int64)
        self._items = self._keys
        self._ptr = np.zeros(1, dtype=np.int64)
        self.add_chunk(ChunkSlice.from_edges(0, train.users, train.items))

    def view(self, user: int) -> np.ndarray:
        if not 0 <= user < len(self._ptr) - 1:
            return self._items[:0]
        return self._items[self._ptr[user]:self._ptr[user + 1]]

    def add_chunk(self, slice_) -> None:
        new = np.sort(slice_.users * self._stride + slice_.items)
        # two ascending runs, which the stable sort (a timsort) merges in one pass
        keys = np.sort(np.concatenate([self._keys, new]), kind="stable")
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        users, self._items = np.divmod(keys, self._stride)
        self._keys = keys
        self._ptr = np.concatenate([[0], np.cumsum(np.bincount(users))])


def _fit_or_load(cfg, slc, init, ordinal, base):
    path = Path(cfg.out_dir) / "chunks" / f"chunk_{slc.chunk:05d}.npz"
    scfg = cfg.sampler_config(ordinal)
    if path.exists():
        logger.info("stage=fit chunk=%d action=reuse", slc.chunk)
        return load_chunk_model(path, slc, init, scfg, base=base)
    m = fit_chunk(slc, init, scfg, base=base)
    _atomic_write(
        Path(cfg.out_dir) / "chunks" / f"chunk_{slc.chunk:05d}_sweeps.tsv",
        sweep_diagnostics_text(m),
    )
    _atomic_npz(path, lambda p: save_chunk_model(m, p))
    logger.info(
        "stage=fit chunk=%d engagements=%d sweeps=%d converged=%s log_joint=%r",
        slc.chunk,
        m.n,
        m.sweeps_run,
        m.converged,
        m.current_log_joint,
    )
    return m


def split_graph(cfg: RunConfig) -> tuple[EngagementGraph, EngagementGraph, list[ChunkSlice]]:
    """The (regrouped) graph, its train graph and its held-out chunk slices;
    raises ``ValueError`` when ``test_chunks`` leaves no train chunk."""
    g = regroup_chunks(ensure_graph(cfg), cfg.regroup_factor)
    t_split = g.num_chunks - cfg.test_chunks
    if t_split < 1:
        raise ValueError(
            f"test_chunks={cfg.test_chunks} leaves no train chunks (total {g.num_chunks})"
        )
    train, test = split(g, SplitSpec(t_split=t_split))
    return g, train, test


def backtest(cfg: RunConfig) -> dict[tuple[str, int], MetricsReport]:
    """Run the rolling protocol and return reports keyed by (method, M)."""
    out = Path(cfg.out_dir)
    rcfgs = open_run(cfg)

    _, train, test = split_graph(cfg)
    logger.info(
        "stage=split train_edges=%d test_chunks=%d", train.num_edges, len(test)
    )
    if len(test) < 2:
        logger.warning("fewer than 2 test chunks: nothing can be evaluated")

    methods = list(cfg.methods)
    need_emb = bool({"micro", "mle", "ann"} & set(methods))
    need_init = bool({"micro", "mle"} & set(methods))
    emb = ensure_embeddings(cfg, train) if need_emb else None
    init = None
    mix = None
    if need_init:
        clusters = ensure_clusters(cfg, emb)
        init = ensure_init(cfg, train, clusters)
        if "mle" in methods:
            mix = mle_mixture(init)

    seen = _SeenTracker(train) if cfg.exclude_seen else None
    ledger = (
        UserCounts.from_init(init)
        if (init is not None and cfg.user_count_mode == "accumulate")
        else None
    )
    # looked up at call time, so wrappers installed on this module's names apply
    retrievers = {"micro": retrieve_micro, "mle": retrieve_mle, "ann": ann_retrieve, "popularity": popularity_retrieve}

    per_query: dict[tuple[str, int], list[tuple[float, float, float]]] = {
        (meth, m): [] for meth in methods for m in cfg.m_values
    }
    eval_queries: list = []
    cand_dump: dict[int, list[str]] = {m: [] for m in cfg.m_values}

    prev_model = None
    prev_slice = None
    for j, slc in enumerate(test):
        model = _fit_or_load(cfg, slc, init, j, ledger) if "micro" in methods else None

        if j >= 1:
            queries = build_queries([slc])
            eval_queries.extend(queries)
            pop_rank = popularity_ranking(prev_slice)
            indexes = {"popularity": pop_rank}
            if "ann" in methods:
                indexes["ann"] = ann_encode_items(prev_slice, emb)
            # the fitted model's counts are final: read them once for every M
            tables = chunk_tables(prev_model) if "micro" in methods else None
            for m in cfg.m_values:
                rcfg = rcfgs[m]
                if "micro" in methods:
                    indexes["micro"] = build_index(prev_model, rcfg, pop_rank, tables)
                if "mle" in methods:
                    indexes["mle"] = build_mle_index(mix, rcfg, prev_slice.item_pool, pop_rank)
                for meth in methods:
                    fn, index = retrievers[meth], indexes[meth]
                    cands = batch_retrieve(
                        lambda q: fn(q.user, index, rcfg, seen.view(q.user) if seen else None, slc.chunk),
                        queries, rcfg,
                    )
                    per_query[(meth, m)].extend(
                        score_query(c.item_ids(), q.truth, m) for c, q in zip(cands, queries)
                    )
                    if cfg.dump_candidates:
                        for c in cands:
                            for rank, (item, score) in enumerate(c.items, start=1):
                                cand_dump[m].append(
                                    f"{c.user}\t{c.chunk}\t{rank}\t{item}\t{score!r}\t{meth}"
                                )
            logger.info("stage=eval chunk=%d queries=%d", slc.chunk, len(queries))

        if seen is not None:
            seen.add_chunk(slc)
        if ledger is not None and model is not None:
            model.fold_into(ledger)
        prev_model, prev_slice = model, slc

    # aggregate; queries were extended chunk by chunk, matching score order
    reports: dict[tuple[str, int], MetricsReport] = {}
    for meth in methods:
        for m in cfg.m_values:
            rep = aggregate(per_query[(meth, m)], eval_queries, method=meth, m=m)
            rep.check_consistency()
            reports[(meth, m)] = rep
    write_reports(reports, out / "metrics")
    if cfg.dump_candidates:
        for m in cfg.m_values:
            _atomic_write(
                out / "metrics" / f"candidates_M{m}.tsv",
                "user\tchunk\trank\titem\tscore\tmethod\n" + "\n".join(cand_dump[m]) + "\n",
            )
    return reports


# -- report files -------------------------------------------------------------


def write_reports(reports: dict[tuple[str, int], MetricsReport], metrics_dir) -> None:
    metrics_dir = Path(metrics_dir)
    series = ["method\tM\tchunk\tn_queries\trecall\tmrr\tndcg"]
    overall = ["method\tM\tn_queries\trecall\tmrr\tndcg"]
    for (meth, m) in sorted(reports):
        rep = reports[(meth, m)]
        for chunk in sorted(rep.per_chunk):
            b = rep.per_chunk[chunk]
            series.append(
                f"{meth}\t{m}\t{chunk}\t{b.n_queries}\t{b.recall!r}\t{b.mrr!r}\t{b.ndcg!r}"
            )
        o = rep.overall
        overall.append(f"{meth}\t{m}\t{o.n_queries}\t{o.recall!r}\t{o.mrr!r}\t{o.ndcg!r}")
    _atomic_write(metrics_dir / "series.tsv", "\n".join(series) + "\n")
    _atomic_write(metrics_dir / "overall.tsv", "\n".join(overall) + "\n")


def read_reports(metrics_dir) -> dict[tuple[str, int], MetricsReport]:
    from .metrics import MetricBlock

    metrics_dir = Path(metrics_dir)
    reports: dict[tuple[str, int], MetricsReport] = {}
    with open(metrics_dir / "series.tsv") as fh:
        next(fh)
        for line in fh:
            meth, m, chunk, n, r, rr, nd = line.rstrip("\n").split("\t")
            key = (meth, int(m))
            rep = reports.setdefault(key, MetricsReport(method=meth, m=int(m)))
            rep.per_chunk[int(chunk)] = MetricBlock(
                n_queries=int(n), recall=float(r), mrr=float(rr), ndcg=float(nd)
            )
    with open(metrics_dir / "overall.tsv") as fh:
        next(fh)
        for line in fh:
            meth, m, n, r, rr, nd = line.rstrip("\n").split("\t")
            key = (meth, int(m))
            if key in reports:
                reports[key].overall = MetricBlock(
                    n_queries=int(n), recall=float(r), mrr=float(rr), ndcg=float(nd)
                )
    return reports


def report(cfg: RunConfig) -> None:
    """Side-by-side method tables per M plus per-metric time-series files."""
    out = Path(cfg.out_dir)
    if not (out / "metrics" / "series.tsv").exists():
        raise FileNotFoundError(
            f"no metrics under {out / 'metrics'}; run the `backtest` subcommand first"
        )
    reports = read_reports(out / "metrics")
    report_dir = out / "report"
    ms = sorted({m for _, m in reports})
    for m in ms:
        methods = [meth for meth in METHODS if (meth, m) in reports]
        missing = [meth for meth in cfg.methods if (meth, m) not in reports]
        for meth in missing:
            logger.warning("report M=%d: no output for method %s; omitted", m, meth)
        lines = [f"M={m}", f"{'method':<12}{'recall':>12}{'mrr':>12}{'ndcg':>12}{'queries':>10}"]
        for meth in methods:
            o = reports[(meth, m)].overall
            lines.append(
                f"{meth:<12}{o.recall:>12.6f}{o.mrr:>12.6f}{o.ndcg:>12.6f}{o.n_queries:>10d}"
            )
        _atomic_write(report_dir / f"table_M{m}.txt", "\n".join(lines) + "\n")
        chunks = sorted({c for meth in methods for c in reports[(meth, m)].per_chunk})
        for metric in ("recall", "mrr", "ndcg"):
            rows = ["chunk\t" + "\t".join(methods)]
            for c in chunks:
                vals = []
                for meth in methods:
                    b = reports[(meth, m)].per_chunk.get(c)
                    vals.append(repr(getattr(b, metric)) if b else "")
                rows.append(f"{c}\t" + "\t".join(vals))
            _atomic_write(report_dir / f"{metric}_M{m}.tsv", "\n".join(rows) + "\n")
