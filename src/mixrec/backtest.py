"""Rolling backtest: fit on chunk t, retrieve and score against chunk t+1.

One config drives the whole pipeline. Artifacts (graph, embeddings,
clusters, t=0 counts, per-chunk fitted models) persist under the output
directory and are reused on rerun, so a run can resume per chunk. Every
file is written whole by ``mixrec.npz``, its bytes fixed by the config and
data file: two runs write the same bytes but to ``config.json``. A stage's
``.npz`` marks it done, so it is written after the stage's side files. It
records what it was built from: the data file's size, CRC-32 and
delimiter, and every config field that feeds it (``_record``). One helper,
``_stage``, reuses an artifact only when that record matches the run.
``open_run`` reads the data file for its record once and checks each
artifact's record once, and ``backtest`` hands what it read (an
``OpenRun``) to every stage, which checks only an artifact ``open_run``
did not find.

The first held-out chunk is only fitted (it has no fitted predecessor to
retrieve from); every later chunk is the query target for the previous
chunk's representations. The candidate pool for every method is the set of
items engaged in the source chunk, so comparisons stay fair; the static
mixture baseline ranks train items restricted to that pool.

Every method is one retriever ``fn(u, index, cfg, seen, chunk)``; its
index is built once per source chunk for ``ann`` and ``popularity``, and
once per (chunk, M) for the two mixtures, whose per-interest lists hold
L = 5*M entries. Each query is retrieved once per distinct index, at the
largest M that index serves, and each smaller M takes the first M entries
of that list (see ``mixrec.retrieval``). A cut list whose longer list
missed the truth also misses it, so it reuses that zero score.

A ``RunConfig`` is frozen and checked when it is made. ``open_run`` starts
every run, here and in the CLI's stage commands: it checks the config and
the data file against the record of every artifact the output directory
holds, writing nothing, so a stale config or a missing data file raises
before anything is touched.

The results are not reused: at its end every ``backtest`` writes
``config.json``, ``metrics/`` and ``report/`` whole (``write_results``) and
removes any other file in the last two. A run that raises leaves them as
they were; nothing reads ``config.json`` back.
"""

from __future__ import annotations

import json
import logging
import zlib
from dataclasses import asdict, dataclass, field, fields
from fnmatch import fnmatchcase
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .clustering import cluster_items, export_cluster_map, load_clusters, save_clusters
from .embeddings import check_embedding_args, load_embeddings, save_embeddings, train_embeddings
from .graph import ChunkSlice, EngagementGraph, SplitSpec, format_stats, graph_stats, load_edge_list, load_graph, regroup_chunks, save_graph, split
from .initialization import _check_priors, build_init, load_init, save_init
from .metrics import MetricBlock, MetricsReport, aggregate, build_queries, score_query
from .npz import read_source, write_text
from .retrieval import (
    RetrievalConfig,
    ann_encode_items,
    ann_retrieve,
    batch_retrieve,
    build_index,
    chunk_tables,
    mle_mixture,
    popularity_ranking,
    popularity_retrieve,
    same_index,
)
# one builder and one retriever serve both mixtures, each bound to one name
# per method so that each method's calls can be wrapped and timed on their own
from .retrieval import build_index as build_mle_index
from .retrieval import retrieve_mixture as retrieve_micro
from .retrieval import retrieve_mixture as retrieve_mle
from .sampler import SamplerConfig, UserCounts, fit_chunk, load_chunk_model, save_chunk_model, sweep_diagnostics_text

__all__ = ["RunConfig", "OpenRun", "backtest", "open_run", "split_graph", "write_results", "read_reports", "METHODS"]

logger = logging.getLogger(__name__)

METHODS = ("micro", "mle", "ann", "popularity")
USER_COUNT_MODES = ("reset", "accumulate")  # accumulate: fit on a ledger
_MISS = (0.0, 0.0, 0.0)  # score_query of a list that misses the truth


@dataclass(frozen=True)
class EmbedParams:
    dim: int = 64
    epochs: int = 10
    negatives: int = 10
    lr: float = 0.05
    batch_size: int = 1024

    def __post_init__(self):
        _check_types(self, "embed.")
        check_embedding_args(self.dim, self.epochs, self.negatives, self.lr, self.batch_size)


@dataclass(frozen=True)
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
    exclude_seen: bool = True
    workers: int = 1
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    dump_candidates: bool = False
    seed: int = 0

    def __post_init__(self):
        """Reject, when the config is made, a field whose value is not of
        its annotated type (see ``_check_types``; ``embed`` may be a dict),
        an empty or repeated M or method, an M below 1, an unknown method or
        user count mode, a negative seed, a count below 1 and a prior or
        sweep setting the stages refuse. Frozen, a config stays checked."""
        if isinstance(self.embed, dict):
            object.__setattr__(self, "embed", EmbedParams(**self.embed))
        _check_types(self, "")
        for name in ("m_values", "methods"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        if min(self.m_values) < 1:
            raise ValueError("M must be >= 1")
        if self.user_count_mode not in USER_COUNT_MODES:
            raise ValueError(f"user_count_mode must be one of {USER_COUNT_MODES}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; valid: {METHODS}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("test_chunks", "num_interests", "kmeans_iters", "regroup_factor", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        _check_priors(self.alpha, self.beta)
        self.sampler_config(0)

    @staticmethod
    def from_json(path) -> "RunConfig":
        """The config in a JSON file; a field this version does not have,
        at the top level or in ``embed``, raises ``ValueError`` naming it."""
        with open(path) as fh:
            data = json.load(fh)
        _check_known(RunConfig, data, "")
        if isinstance(data.get("embed"), dict):
            _check_known(EmbedParams, data["embed"], "embed.")
        return RunConfig(**data)

    def to_json(self, path) -> None:
        write_text(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    def sampler_config(self, chunk_ordinal: int) -> SamplerConfig:
        return SamplerConfig(
            max_sweeps=self.max_sweeps,
            convergence_tol=self.convergence_tol,
            seed=self.seed + 100_003 * (chunk_ordinal + 1),
        )


def _check_types(obj, prefix: str) -> None:
    """Raise ``ValueError`` naming the first field of dataclass ``obj`` whose
    value does not have its annotated type: an integer field takes an
    integer, a float field an integer or a float, a list field a list of its
    element type; a bool is no number."""

    def has(value, t) -> bool:
        if isinstance(value, bool) and t is not bool:
            return False
        return isinstance(value, (int, float) if t is float else t)

    for name, hint in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if get_origin(hint) is list:
            ok = isinstance(value, list) and all(has(v, get_args(hint)[0]) for v in value)
        else:
            ok = has(value, hint)
        if not ok:
            raise ValueError(f"{prefix}{name} must be {hint.__name__ if isinstance(hint, type) else hint}, got {value!r}")


def _check_known(cls, data: dict, prefix: str) -> None:
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(prefix + k for k in unknown)}")


@dataclass(frozen=True)
class OpenRun:
    """What ``open_run`` read: the data file's record ``data``
    (``_data_record``) and the artifacts, by path under the output
    directory, whose records it ``checked`` against ``data`` and the
    config."""

    data: str
    checked: frozenset[str] = frozenset()


def open_run(cfg: RunConfig) -> OpenRun:
    """The data file's record, once ``cfg`` is checked against every
    artifact the output directory holds; the stages take it as ``run`` so
    that a run reads the file, and each artifact's record, once.

    It writes nothing: an artifact built from another data file, or with
    another value of a field that feeds it, raises ``ValueError`` (see
    ``_check_built``) and leaves the directory untouched. ``cfg`` itself
    was checked when it was made.
    """
    data = _data_record(cfg)
    out = Path(cfg.out_dir)
    # an interrupted write leaves chunk_XXXXX.npz.tmp, which this misses
    built = [p.relative_to(out).as_posix() for pattern, _ in _STAGES for p in sorted(out.glob(pattern))]
    if built:
        _check_built(cfg, built, data)
    return OpenRun(data, frozenset(built))


# -- artifact stages ----------------------------------------------------------

_REMEDY = "use a new output directory or remove this one"
# each stage's artifacts (a glob under the output directory) in build order, and the fields that
# feed them beyond the earlier stages'; any other field only shapes retrieval, scoring or output
_STAGES = (
    ("graph.npz", ()),
    ("embeddings.npz", ("regroup_factor", "test_chunks", "embed", "seed")),
    ("clusters.npz", ("num_interests", "kmeans_iters")),
    ("init.npz", ("alpha", "beta")),
    ("chunks/chunk_*.npz", ("max_sweeps", "convergence_tol", "user_count_mode")),
)


def _data_record(cfg: RunConfig) -> str:
    """The data file's byte size and zlib CRC-32, and the delimiter; a
    missing file raises."""
    crc = size = 0
    with open(cfg.data_path, "rb") as fh:
        while block := fh.read(1 << 20):
            crc, size = zlib.crc32(block, crc), size + len(block)
    return f"size={size} crc32={crc:08x} delimiter={cfg.delimiter!r}"


def _record(cfg: RunConfig, name: str, data: str) -> dict:
    """What artifact ``name`` (its path under the output directory) is built
    from under ``cfg``: the data file's record ``data`` and every field that
    feeds it or an artifact built before it (``_STAGES``)."""
    config = asdict(cfg)
    record = {"data": data}
    for pattern, names in _STAGES:
        record.update((n, config[n]) for n in names)
        if fnmatchcase(name, pattern):
            return record


def _check_built(cfg: RunConfig, names: list[str], data: str) -> None:
    """Raise ``ValueError`` unless each artifact in ``names`` (paths under
    the output directory) records ``data`` and ``cfg``'s value of every
    field that feeds it. An unreadable artifact, one with no record and a
    data mismatch are named at once; otherwise the message names every
    stale artifact and the union of their differing fields."""
    out = Path(cfg.out_dir)
    stale, differ = [], []
    for name in names:
        try:
            got = read_source(out / name)
        except ValueError as exc:
            raise ValueError(f"{exc}; {_REMEDY}") from None
        if got["data"] != data:
            raise ValueError(f"{out / name} records {got['data']}, but {cfg.data_path} now has {data}; {_REMEDY}")
        want = _record(cfg, name, data)
        diff = [k for k in {**want, **got} if got.get(k) != want.get(k)]
        if diff:
            stale.append(name)
            differ += [k for k in diff if k not in differ]
    if stale:
        raise ValueError(f"{out} holds {', '.join(stale)} built with a different {', '.join(differ)}; {_REMEDY}")


def _stage(cfg: RunConfig, stage: str, name: str, build, save, load, run: OpenRun | None):
    """Artifact ``name``: reused, once its record matches ``cfg`` and the
    data file's record ``run.data``, through ``load(path)``; or else
    ``build()``, which writes the stage's side files, then saved through
    ``save(obj, path, record)``. An artifact in ``run.checked`` matched when
    ``open_run`` found it and is not read for its record again; with ``run``
    None the data file is read for its record and every artifact checked
    here. ``stage`` heads the reuse log line."""
    path = Path(cfg.out_dir) / name
    if run is None:
        run = OpenRun(_data_record(cfg))
    if path.exists():
        if name not in run.checked:
            _check_built(cfg, [name], run.data)
        logger.info("stage=%s action=reuse path=%s", stage, path)
        return load(path)
    obj = build()
    save(obj, path, _record(cfg, name, run.data))
    return obj


def ensure_graph(cfg: RunConfig, run: OpenRun | None = None) -> EngagementGraph:
    """The run's graph, from ``graph.npz`` or the data file. This stage,
    the others below and ``_fit_or_load`` take what ``open_run`` read as
    ``run`` (see ``_stage``)."""

    def build():
        g = load_edge_list(cfg.data_path, delimiter=cfg.delimiter)
        stats = format_stats(graph_stats(g))
        write_text(Path(cfg.out_dir) / "graph_stats.txt", stats + "\n")
        for line in stats.splitlines():
            logger.info("stage=ingest %s", line)
        return g

    return _stage(cfg, "ingest", "graph.npz", build, save_graph, load_graph, run)


def ensure_embeddings(cfg: RunConfig, train: EngagementGraph, run: OpenRun | None = None):
    e = cfg.embed

    def build():
        emb = train_embeddings(train, dim=e.dim, epochs=e.epochs, negatives=e.negatives, lr=e.lr,
                               seed=cfg.seed, batch_size=e.batch_size)
        logger.info("stage=embed dim=%d epochs=%d final_loss=%.6f", e.dim, e.epochs, emb.epoch_losses[-1])
        return emb

    return _stage(cfg, "embed", "embeddings.npz", build, save_embeddings, load_embeddings, run)


def ensure_clusters(cfg: RunConfig, emb, run: OpenRun | None = None):
    def build():
        clusters = cluster_items(emb.item_vectors, K=cfg.num_interests, iters=cfg.kmeans_iters, seed=cfg.seed)
        export_cluster_map(clusters, Path(cfg.out_dir) / "cluster_map.tsv")
        history = clusters.objective_history
        logger.info("stage=cluster K=%d iters=%d objective=%.4f", cfg.num_interests, len(history),
                    history[-1] if history else float("nan"))
        return clusters

    return _stage(cfg, "cluster", "clusters.npz", build, save_clusters, load_clusters, run)


def ensure_init(cfg: RunConfig, train: EngagementGraph, clusters, run: OpenRun | None = None):
    def build():
        init = build_init(train, clusters.item_to_interest, cfg.num_interests, alpha=cfg.alpha, beta=cfg.beta)
        support = np.diff(init.support_ptr)
        logger.info("stage=init users=%d cold_users=%d mean_support=%.2f",
                    init.num_users, int((support == 0).sum()), float(support.mean()))
        return init

    return _stage(cfg, "init", "init.npz", build, save_init, load_init, run)


@dataclass(frozen=True)
class _Seen:
    """Per-user seen items, a value: each user's train items, with the
    items of each merged test chunk, as one ascending ``int64`` array.

    All users' arrays are slices of one CSR over the distinct (user, item)
    pairs: ``items`` and the row pointers ``ptr``, Python ints so that a
    query reads its row bounds without numpy scalars. ``merge`` returns the
    next value, written in one pass over the pairs as ascending keys ``user
    * stride + item``; it writes neither value. ``items`` stays writable, so
    a view goes to the kernels as it is (see ``mixrec.retrieval._listed``).
    """

    stride: int
    items: np.ndarray
    ptr: tuple[int, ...]

    @staticmethod
    def of_train(train: EngagementGraph) -> "_Seen":
        empty = _Seen(max(train.num_items, 1), np.empty(0, dtype=np.int64), (0,))
        return empty.merge(ChunkSlice.from_edges(0, train.users, train.items))

    def view(self, user: int) -> np.ndarray:
        ptr = self.ptr
        if not 0 <= user < len(ptr) - 1:
            return self.items[:0]
        return self.items[ptr[user]:ptr[user + 1]]

    def merge(self, slice_: ChunkSlice) -> "_Seen":
        new = np.sort(slice_.users * self.stride + slice_.items)
        keys = np.repeat(np.arange(len(self.ptr) - 1) * self.stride, np.diff(self.ptr))
        keys += self.items
        # two ascending runs, which the stable sort (a timsort) merges in one pass
        keys = np.sort(np.concatenate([keys, new]), kind="stable")
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        users, items = np.divmod(keys[first], self.stride)
        return _Seen(self.stride, items, (0, *np.cumsum(np.bincount(users)).tolist()))


def _fit_or_load(cfg, slc, init, ordinal, base, run=None):
    name = f"chunks/chunk_{slc.chunk:05d}"
    scfg = cfg.sampler_config(ordinal)

    def build():
        m = fit_chunk(slc, init, scfg, base=base)
        write_text(Path(cfg.out_dir) / f"{name}_sweeps.tsv", sweep_diagnostics_text(m))
        logger.info("stage=fit chunk=%d engagements=%d sweeps=%d converged=%s log_joint=%r",
                    slc.chunk, m.n, m.sweeps_run, m.converged, m.current_log_joint)
        return m

    return _stage(
        cfg, f"fit chunk={slc.chunk}", f"{name}.npz", build, save_chunk_model,
        lambda p: load_chunk_model(p, slc, init, scfg, base=base), run,
    )


def split_graph(cfg: RunConfig, run: OpenRun | None = None) -> tuple[EngagementGraph, EngagementGraph, list[ChunkSlice]]:
    """The (regrouped) graph, its train graph and its held-out chunk slices;
    raises ``ValueError`` when ``test_chunks`` leaves no train chunk."""
    g = regroup_chunks(ensure_graph(cfg, run), cfg.regroup_factor)
    t_split = g.num_chunks - cfg.test_chunks
    if t_split < 1:
        raise ValueError(
            f"test_chunks={cfg.test_chunks} leaves no train chunks (total {g.num_chunks})"
        )
    train, test = split(g, SplitSpec(t_split=t_split))
    return g, train, test


def backtest(cfg: RunConfig) -> dict[tuple[str, int], MetricsReport]:
    """Run the rolling protocol and return reports keyed by (method, M).

    A fold over (source, target) pairs of held-out chunks carries three
    values from one pair to the next, each replaced and none changed in
    place or advanced past the last chunk: the seen items ``seen``, the
    user ledger ``ledger`` and the source chunk's fitted ``model``.

    For each method the Ms are served from the largest down. An M whose
    index is the next larger M's (``same_index``: always for ``ann`` and
    ``popularity``, for both mixtures when the two Ms' list lengths
    L = 5*M give the same lists) scores and dumps the first M entries of
    that M's lists: on one index every list is a prefix of the list at a
    larger M (see ``mixrec.retrieval``). Any other M is retrieved at M. A
    cut list whose longer list scored ``(0.0, 0.0, 0.0)`` misses the truth
    too and keeps that score without a ``score_query`` call. Queries, and
    lists unless they are dumped, are held for the current chunk only; the
    reports need only each query's chunk id.
    """
    run = open_run(cfg)

    _, train, test = split_graph(cfg, run)
    logger.info("stage=split train_edges=%d test_chunks=%d", train.num_edges, len(test))
    if len(test) < 2:
        logger.warning("fewer than 2 test chunks: nothing can be evaluated")

    methods = list(cfg.methods)
    fit = "micro" in methods
    need_emb = bool({"micro", "mle", "ann"} & set(methods))
    emb = ensure_embeddings(cfg, train, run) if need_emb else None
    # ann gives a user without a train engagement the popularity list
    warm = np.bincount(train.users, minlength=train.num_users) > 0
    init = mle = None
    if {"micro", "mle"} & set(methods):
        init = ensure_init(cfg, train, ensure_clusters(cfg, emb, run), run)
        if "mle" in methods:
            mle = mle_mixture(init)  # the static mixture's tables serve every chunk

    seen = _Seen.of_train(train) if cfg.exclude_seen else None
    ledger = UserCounts.from_init(init) if fit and cfg.user_count_mode == "accumulate" else None
    # looked up at call time, so wrappers installed on this module's names apply
    retrievers = {"micro": retrieve_micro, "mle": retrieve_mle, "ann": ann_retrieve, "popularity": popularity_retrieve}
    builders = {"micro": build_index, "mle": build_mle_index}

    per_query: dict[tuple[str, int], list[tuple[float, float, float]]] = {
        (meth, m): [] for meth in methods for m in cfg.m_values
    }
    eval_chunks: list[int] = []  # each scored query's chunk, in score order
    dumps: dict[int, list[tuple[str, list]]] = {m: [] for m in cfg.m_values} if cfg.dump_candidates else {}

    model = _fit_or_load(cfg, test[0], init, 0, ledger, run) if fit else None
    for j, (src, slc) in enumerate(zip(test, test[1:]), start=1):
        if seen is not None:
            seen = seen.merge(src)
        queries = build_queries([slc])
        eval_chunks += [slc.chunk] * len(queries)
        pop_rank = popularity_ranking(src)
        # what each method's index is built from: the mixtures' ChunkTables
        # give one index per M, every other method's is its index
        built_from = {"popularity": pop_rank, "mle": mle}
        if "ann" in methods:
            built_from["ann"] = ann_encode_items(src, emb, pop_rank, warm)
        if fit:
            # the fitted model's counts are final: read them once for every M
            built_from["micro"] = chunk_tables(model)

        def index_for(meth, m):
            if meth in builders:  # each interest's list holds L = 5*M entries
                return builders[meth](built_from[meth], 5 * m, src.item_pool, pop_rank)
            return built_from[meth]

        for meth in methods:
            fn = retrievers[meth]
            index = None
            for m in sorted(cfg.m_values, reverse=True):
                rcfg = RetrievalConfig(M=m, exclude_seen=cfg.exclude_seen)
                new = index_for(meth, m)
                if not same_index(new, index):
                    # a new index: retrieve at this M, the largest it serves
                    index = new
                    cands = batch_retrieve(
                        lambda q: fn(q.user, index, rcfg, seen.view(q.user) if seen else None, slc.chunk),
                        queries, cfg.workers,
                    )
                    scores = [score_query(c.item_ids(), q.truth, m) for c, q in zip(cands, queries)]
                else:
                    # the longer lists cut to M; score_query reads their first M ids
                    scores = [
                        s if s == _MISS else score_query(c.item_ids(), q.truth, m)
                        for s, c, q in zip(scores, cands, queries)
                    ]
                per_query[(meth, m)].extend(scores)
                if cfg.dump_candidates:
                    dumps[m].append((meth, cands))
        logger.info("stage=eval chunk=%d queries=%d", slc.chunk, len(queries))

        if ledger is not None:
            ledger = model.fold_into(ledger)
        model = _fit_or_load(cfg, slc, init, j, ledger, run) if fit else None

    reports: dict[tuple[str, int], MetricsReport] = {}
    for meth in methods:
        for m in cfg.m_values:
            rep = aggregate(per_query[(meth, m)], eval_chunks, method=meth, m=m)
            rep.check_consistency()
            reports[(meth, m)] = rep
    write_results(cfg, reports, dumps)
    return reports


# -- result files -------------------------------------------------------------


def write_results(cfg: RunConfig, reports: dict[tuple[str, int], MetricsReport], dumps: dict[int, list]) -> None:
    """Write a run of ``cfg``'s results under its output directory whole,
    from memory, and remove every other file in ``metrics/`` and
    ``report/``, which the run owns:

    - ``config.json``: ``cfg``, the config of the results beside it;
    - ``metrics/series.tsv`` and ``overall.tsv``: every report, by (method, M);
    - ``metrics/candidates_M<M>.tsv``: the first M entries of each list of
      each (method, lists) in ``dumps[M]``, in order;
    - ``report/table_M<M>.txt``: the methods' overall metrics side by side;
    - ``report/{recall,mrr,ndcg}_M<M>.tsv``: one row per chunk, one column
      per method. Every report of one M covers the same chunks.
    """
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
    files = {"metrics/series.tsv": series, "metrics/overall.tsv": overall}
    for m, dumped in dumps.items():
        rows = files[f"metrics/candidates_M{m}.tsv"] = ["user\tchunk\trank\titem\tscore\tmethod"]
        for meth, cands in dumped:
            for c in cands:
                for rank, (item, score) in enumerate(zip(c.ids[:m].tolist(), c.scores[:m].tolist()), start=1):
                    rows.append(f"{c.user}\t{c.chunk}\t{rank}\t{item}\t{score!r}\t{meth}")
    for m in sorted({m for _, m in reports}):
        methods = [meth for meth in METHODS if (meth, m) in reports]
        table = [f"M={m}", f"{'method':<12}{'recall':>12}{'mrr':>12}{'ndcg':>12}{'queries':>10}"]
        for meth in methods:
            o = reports[(meth, m)].overall
            table.append(f"{meth:<12}{o.recall:>12.6f}{o.mrr:>12.6f}{o.ndcg:>12.6f}{o.n_queries:>10d}")
        files[f"report/table_M{m}.txt"] = table
        per_chunk = [reports[(meth, m)].per_chunk for meth in methods]
        for metric in ("recall", "mrr", "ndcg"):
            files[f"report/{metric}_M{m}.tsv"] = ["chunk\t" + "\t".join(methods)] + [
                f"{c}\t" + "\t".join(repr(getattr(blocks[c], metric)) for blocks in per_chunk)
                for c in sorted(per_chunk[0])
            ]
    out = Path(cfg.out_dir)
    for name, lines in files.items():
        write_text(out / name, "\n".join(lines) + "\n")
    cfg.to_json(out / "config.json")
    for sub in ("metrics", "report"):
        for p in (out / sub).iterdir():
            if f"{sub}/{p.name}" not in files and not p.is_dir():
                p.unlink()


def read_reports(metrics_dir) -> dict[tuple[str, int], MetricsReport]:
    """The reports ``write_results`` wrote to ``metrics_dir``: one per row
    of ``overall.tsv``, so that a report without queries is kept, each with
    its chunks' rows of ``series.tsv``."""

    def rows(name: str) -> list[list[str]]:
        with open(Path(metrics_dir) / name) as fh:
            next(fh)
            return [line.rstrip("\n").split("\t") for line in fh]

    def block(n, recall, mrr, ndcg) -> MetricBlock:
        return MetricBlock(n_queries=int(n), recall=float(recall), mrr=float(mrr), ndcg=float(ndcg))

    reports = {
        (meth, int(m)): MetricsReport(meth, int(m), overall=block(*v)) for meth, m, *v in rows("overall.tsv")
    }
    for meth, m, chunk, *v in rows("series.tsv"):
        reports[(meth, int(m))].per_chunk[int(chunk)] = block(*v)
    return reports
