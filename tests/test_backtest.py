import dataclasses
import json
import logging
import re
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import mixrec.backtest
import mixrec.retrieval
import mixrec.sampler
import mixrec.sweep_kernel as sweep_kernel
from mixrec.backtest import EmbedParams, RunConfig, _Seen, backtest, read_reports, write_results
from mixrec.cli import main as cli_main
from mixrec.clustering import load_clusters, save_clusters
from mixrec.graph import ChunkSlice, SplitSpec, load_graph, save_graph, split, write_edge_list
from mixrec.metrics import MetricBlock, MetricsReport, build_queries
from mixrec.npz import write_npz
from mixrec.sampler import ChunkFit
from mixrec.synth import SynthSpec, generate

from oracles import aggregate_loop, deflated_and_integer_members, score_reference, seen_union_loop


@pytest.fixture(scope="module")
def synth_edges(tmp_path_factory):
    """Small synthetic dataset shared across harness tests."""
    d = tmp_path_factory.mktemp("data")
    spec = SynthSpec(
        num_users=60, num_items=150, num_interests=4, num_chunks=5,
        engagements_per_user=10, support_size=2, seed=21,
    )
    g, _ = generate(spec)
    path = d / "edges.tsv"
    write_edge_list(g, path)
    return path


def with_cold_users(synth_edges, path) -> Path:
    """``synth_edges`` with two users absent from train written to ``path``:
    raw user 1000 engages the two most engaged items of chunks 2 and 3, so
    they are seen when chunks 3 and 4 are queried from those chunks, and
    1001 is new in chunk 4 and has seen nothing."""
    edges = np.loadtxt(synth_edges, dtype=np.int64)

    def top(t):  # chunk t's two most engaged raw items
        items, counts = np.unique(edges[edges[:, 2] == t, 1], return_counts=True)
        return items[np.lexsort((items, -counts))][:2].tolist()

    extra = [(1000, i, t) for t in (2, 3) for i in top(t)] + [(1000, top(2)[0], 4), (1001, top(3)[0], 4)]
    path.write_text(synth_edges.read_text() + "".join(f"{u}\t{i}\t{t}\n" for u, i, t in extra))
    return path


EMBED_FIELDS = {f.name for f in dataclasses.fields(EmbedParams)}


def small_config(data_path, out_dir, **kw) -> RunConfig:
    """A small run's config; an embedding field in ``kw`` goes to ``embed``."""
    embed = {"dim": 8, "epochs": 4, "negatives": 3}
    embed.update((k, kw.pop(k)) for k in EMBED_FIELDS & set(kw))
    base = dict(
        data_path=str(data_path),
        out_dir=str(out_dir),
        test_chunks=3,
        num_interests=4,
        kmeans_iters=10,
        m_values=[10],
        seed=5,
        exclude_seen=False,
        embed=embed,
    )
    base.update(kw)
    return RunConfig(**base)


def report_bytes(out_dir) -> dict[str, bytes]:
    out = {}
    for p in sorted(Path(out_dir).glob("metrics/*.tsv")) + sorted(
        Path(out_dir).glob("report/*")
    ):
        out[p.name] = p.read_bytes()
    return out


def run_bytes(out_dir) -> dict[str, bytes]:
    """Every file under a run's output directory, by relative path, except
    ``config.json``, which names the directory."""
    out = Path(out_dir)
    files = (p for p in out.rglob("*") if p.is_file() and p != out / "config.json")
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(files)}


class TestSeen:
    def test_matches_union_loop(self):
        # train users and users first seen in a test chunk, duplicate pairs
        # within and across chunks, an empty chunk and ids at the range ends:
        # after every merge each user's view equals the union1d loop's array,
        # and is a writable contiguous int64 array that goes to the kernels
        # as it is; a merge leaves the value it was called on as it was
        spec = SynthSpec(num_users=40, num_items=90, num_interests=3, num_chunks=4, engagements_per_user=6, seed=4)
        g, _ = generate(spec)
        train, test = split(g, SplitSpec(t_split=2))
        keep = train.users < 30  # users 30 and up have no train engagements
        train = dataclasses.replace(train, users=train.users[keep], items=train.items[keep], chunks=train.chunks[keep])
        rng = np.random.default_rng(3)
        U, I = g.num_users, g.num_items
        extra = [
            ChunkSlice.from_edges(9, [], []),
            ChunkSlice.from_edges(10, [U - 1, U - 1, 0, U - 1, 5], [I - 1, 0, I - 1, I - 1, 0]),
            ChunkSlice.from_edges(11, rng.integers(0, U, 300), rng.integers(0, I, 300)),
        ]
        seen = _Seen.of_train(train)
        slices = [ChunkSlice.from_edges(0, train.users, train.items)]
        assert max(seen_union_loop(slices)) < 30
        for slc in [None, *test, *extra]:
            if slc is not None:
                before = (seen.items.tobytes(), seen.ptr)
                seen, prev = seen.merge(slc), seen
                assert (prev.items.tobytes(), prev.ptr) == before
                slices.append(slc)
            want = seen_union_loop(slices)
            for u in range(-1, U + 2):
                got = seen.view(u)
                assert got.dtype == np.int64 and got.ndim == 1, u
                assert got.flags.writeable and got.flags.c_contiguous, u
                assert np.array_equal(got, want.get(u, np.empty(0, np.int64))), (len(slices), u)
        assert len(want) == U


class TestBacktest:
    def test_popularity_only_two_chunks(self, synth_edges, tmp_path):
        cfg = small_config(synth_edges, tmp_path / "pop", test_chunks=2, methods=["popularity"])
        reports = backtest(cfg)
        rep = reports[("popularity", 10)]
        assert len(rep.per_chunk) == 1  # only the second held-out chunk is evaluable
        assert rep.overall.n_queries > 0
        assert not (tmp_path / "pop" / "embeddings.npz").exists()  # no embedding work

    def test_all_methods_and_report_files(self, synth_edges, tmp_path):
        cfg = small_config(synth_edges, tmp_path / "full", m_values=[5, 10])
        reports = backtest(cfg)
        assert set(reports) == {(m, k) for m in cfg.methods for k in (5, 10)}
        for rep in reports.values():
            rep.check_consistency()
            for b in list(rep.per_chunk.values()) + [rep.overall]:
                for v in (b.recall, b.mrr, b.ndcg):
                    assert 0.0 <= v <= 1.0
        out = tmp_path / "full"
        assert (out / "metrics" / "series.tsv").exists()
        assert (out / "metrics" / "overall.tsv").exists()
        for m in (5, 10):
            table = (out / "report" / f"table_M{m}.txt").read_text()
            for meth in cfg.methods:
                assert meth in table
            for metric in ("recall", "mrr", "ndcg"):
                series = (out / "report" / f"{metric}_M{m}.tsv").read_text().splitlines()
                assert series[0].split("\t")[0] == "chunk"
                assert len(series) == 1 + 2  # two evaluated chunks

    @pytest.mark.parametrize("interests", [4, 40], ids=["None", "None-40-interests"])
    def test_lists_cut_from_the_largest_m_match_separate_runs(self, synth_edges, tmp_path, interests):
        # ann and popularity are retrieved once at the largest M and cut to
        # each smaller M; the mixtures, at L = 5*M, are retrieved per M when
        # L = 25 cuts an interest's list (4 interests), and mle once at 40
        # interests, where L = 25 and L = 100 give one index. Either way a
        # run at M = 5 and 20 writes what runs at each M alone write. The
        # retrieval fields may change in one output directory, whose
        # artifacts the three runs share
        out = tmp_path / "out"

        def run(ms):
            backtest(small_config(
                synth_edges, out, m_values=ms, num_interests=interests, exclude_seen=True,
                dump_candidates=True,
            ))
            metrics = {
                name: (out / "metrics" / name).read_text().splitlines() for name in ("series.tsv", "overall.tsv")
            }
            return metrics, {m: (out / "metrics" / f"candidates_M{m}.tsv").read_bytes() for m in ms}

        both, both_cands = run([5, 20])
        alone = [run([5]), run([20])]
        for name, rows in both.items():
            # rows are sorted by (method, M)
            key = lambda row: (row.split("\t")[0], int(row.split("\t")[1]))
            want = sorted(alone[0][0][name][1:] + alone[1][0][name][1:], key=key)
            assert rows == alone[0][0][name][:1] + want, name
        assert both_cands == {**alone[0][1], **alone[1][1]}
        assert len(both_cands[20].splitlines()) > len(both_cands[5].splitlines()) > 1

    @pytest.mark.parametrize("interests", [40, 4])
    def test_one_retrieval_per_distinct_index(self, synth_edges, tmp_path, monkeypatch, interests):
        # at 40 interests each lists fewer pool items than L = 25, so mle's
        # index is one at M = 5 and 20 and each query is retrieved once, at
        # M = 20; at 4 interests L = 25 cuts a list and mle is retrieved per
        # M. micro's floor runs reach L, so it is retrieved per M at both.
        # The hits of each retrieved list set are found once, and every M
        # that set serves is scored from those hits
        calls, found, events = [], [], []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if name == "find_hits":
                    found.append(out)
                    events.append("find")
                elif name == "score_hits":
                    hits, _, m = args
                    events.append(("score", m, hits is found[-1]))
                else:
                    calls.append((name, args[2].M))
                return out

            monkeypatch.setattr(mixrec.backtest, name, wrapper)

        for name in ("retrieve_micro", "retrieve_mle", "find_hits", "score_hits"):
            spy(name, getattr(mixrec.backtest, name))
        cfg = small_config(
            synth_edges, tmp_path / "out", m_values=[5, 20], num_interests=interests, methods=["micro", "mle"],
            exclude_seen=True,
        )
        reports = backtest(cfg)
        queries = reports[("micro", 5)].overall.n_queries
        # each retriever is called once per query at every M it retrieves
        retrieved = {("retrieve_micro", 20), ("retrieve_micro", 5), ("retrieve_mle", 20)}
        if interests == 4:
            retrieved.add(("retrieve_mle", 5))
        assert {key: calls.count(key) for key in set(calls)} == dict.fromkeys(retrieved, queries)
        # per target chunk, each method from M = 20 down: hits found once per
        # retrieval, each M scored once from the hits found last; mle's M = 5
        # reads M = 20's hits when its index is one across M
        per_method = {
            meth: ["find", ("score", 20, True)] + ["find"] * ((f"retrieve_{meth}", 5) in retrieved) + [("score", 5, True)]
            for meth in ("micro", "mle")
        }
        chunks = len(reports[("micro", 5)].per_chunk)
        assert chunks >= 2
        assert events == (per_method["micro"] + per_method["mle"]) * chunks

    def test_overall_recomputable_from_series(self, synth_edges, tmp_path):
        cfg = small_config(synth_edges, tmp_path / "agg")
        backtest(cfg)
        reports = read_reports(Path(cfg.out_dir) / "metrics")
        for rep in reports.values():
            n = sum(b.n_queries for b in rep.per_chunk.values())
            assert n == rep.overall.n_queries
            for name in ("recall", "mrr", "ndcg"):
                weighted = sum(
                    getattr(b, name) * b.n_queries for b in rep.per_chunk.values()
                ) / n
                assert weighted == pytest.approx(getattr(rep.overall, name), abs=1e-12)

    def test_written_metrics_match_bruteforce_scores(self, synth_edges, tmp_path):
        # every series.tsv and overall.tsv value, recomputed from the dumped
        # candidate lists and the held-out chunks by the reference metrics
        # and the per-query aggregation loop; raw users 1000 and 1001 have
        # no train engagements (1000 is in every held-out chunk, 1001 only
        # in the last)
        data = tmp_path / "edges.tsv"
        extra = [(1000, 3, 2), (1000, 7, 2), (1000, 3, 3), (1000, 11, 3), (1000, 7, 4), (1000, 20, 4), (1001, 5, 4)]
        data.write_text(synth_edges.read_text() + "".join(f"{u}\t{i}\t{t}\n" for u, i, t in extra))
        cfg = small_config(data, tmp_path / "score", m_values=[5, 10], exclude_seen=True, dump_candidates=True)
        backtest(cfg)
        g, train, test = mixrec.backtest.split_graph(cfg)
        new_users = g.user_ids.to_dense([1000, 1001]).tolist()
        assert not set(new_users) & set(train.users.tolist())
        queries = build_queries(test[1:])
        assert set(new_users) <= {q.user for q in queries}
        series = ["method\tM\tchunk\tn_queries\trecall\tmrr\tndcg"]
        overall = ["method\tM\tn_queries\trecall\tmrr\tndcg"]
        for m in sorted(cfg.m_values):
            lists = {}
            for line in (tmp_path / "score" / "metrics" / f"candidates_M{m}.tsv").read_text().splitlines()[1:]:
                user, chunk, rank, item, _, meth = line.split("\t")
                ids = lists.setdefault((meth, int(user), int(chunk)), [])
                assert int(rank) == len(ids) + 1
                ids.append(int(item))
            for meth in sorted(cfg.methods):
                per_query = [score_reference(lists.get((meth, q.user, q.chunk), []), q.truth, m) for q in queries]
                per_chunk, (n, means) = aggregate_loop(per_query, queries)
                for chunk, (c, vals) in per_chunk.items():
                    series.append("\t".join([meth, str(m), str(chunk), str(c), *map(repr, vals.tolist())]))
                overall.append("\t".join([meth, str(m), str(n), *map(repr, means.tolist())]))
        # write_results sorts by (method, M)
        key = lambda line: (line.split("\t")[0], int(line.split("\t")[1]))
        metrics = tmp_path / "score" / "metrics"
        assert (metrics / "series.tsv").read_text() == "\n".join(series[:1] + sorted(series[1:], key=key)) + "\n"
        assert (metrics / "overall.tsv").read_text() == "\n".join(overall[:1] + sorted(overall[1:], key=key)) + "\n"

    def test_cold_users_get_the_popularity_list(self, synth_edges, tmp_path, monkeypatch):
        # a user absent from train has no interests under either mixture and
        # is not warm under ann, so each of their micro, mle and ann rows is
        # that query's popularity row: rank, id and score repr, with their
        # seen items dropped; at two M (M=3 cut from M=10's popularity lists,
        # each mixture retrieved per M), on the compiled selection (when
        # built) and the numpy one
        data = with_cold_users(synth_edges, tmp_path / "edges.tsv")
        cfg = small_config(data, tmp_path / "cold", m_values=[3, 10], exclude_seen=True, dump_candidates=True)
        backtest(cfg)
        g, train, test = mixrec.backtest.split_graph(cfg)
        cold = {q.user for q in build_queries(test[1:])} - set(train.users.tolist())
        assert set(g.user_ids.to_dense([1000, 1001]).tolist()) <= cold

        def cold_rows(m):
            rows = {meth: {} for meth in cfg.methods}
            for line in (tmp_path / "cold" / "metrics" / f"candidates_M{m}.tsv").read_text().splitlines()[1:]:
                user, chunk, rank, item, score, meth = line.split("\t")
                if int(user) in cold:
                    rows[meth].setdefault((int(user), int(chunk)), []).append((rank, item, score))
            return rows

        dumps = {}
        for path in ("compiled", "numpy"):
            if path == "numpy":
                monkeypatch.setattr(mixrec.retrieval, "load_kernel", lambda: None)
                backtest(cfg)  # every artifact reused; only retrieval and scoring rerun
            for m in cfg.m_values:
                rows = cold_rows(m)
                popularity = rows["popularity"]
                assert len(popularity) >= 3 and max(map(len, popularity.values())) == m, (path, m)
                assert rows["micro"] == rows["mle"] == rows["ann"] == popularity, (path, m)
                dumps[path, m] = (tmp_path / "cold" / "metrics" / f"candidates_M{m}.tsv").read_bytes()
        assert all(dumps["compiled", m] == dumps["numpy", m] for m in cfg.m_values)

    def test_one_kernel_call_per_query(self, synth_edges, tmp_path, monkeypatch):
        # on the compiled path every retriever call is one kernel call, a
        # cold user's under either mixture included (the mixture kernel
        # walks the popularity ranking itself); it hands sweep_kernel.arg
        # only writable arrays (a view of the seen items, the output buffer
        # and the ANN products) and makes no contiguous copy: the indexes
        # hold their arrays' addresses. A backtest with cold users, seen
        # exclusion and two M
        kernel = sweep_kernel.load_kernel()
        if kernel is None:
            pytest.skip("no C compiler: only the numpy selection runs here")
        kernel_calls, read_only, copies, inside = [], [], [], []

        def counted(name):
            fn = getattr(kernel, name)
            return lambda *args: kernel_calls.append(name) or fn(*args)

        counting = kernel._replace(**{name: counted(name) for name in ("mixture", "cosine", "walk")})
        monkeypatch.setattr(mixrec.retrieval, "load_kernel", lambda: counting)
        arg = mixrec.retrieval._arg

        def checked_arg(a):
            if not a.flags.writeable:
                read_only.append(a.shape)
            return arg(a)

        monkeypatch.setattr(mixrec.retrieval, "_arg", checked_arg)
        contiguous = np.ascontiguousarray
        monkeypatch.setattr(np, "ascontiguousarray", lambda *a, **kw: (inside and copies.append(1)) or contiguous(*a, **kw))
        per_call = {name: [] for name in ("retrieve_micro", "retrieve_mle", "ann_retrieve", "popularity_retrieve")}
        users = {name: set() for name in per_call}

        def wrapped(name):
            fn = getattr(mixrec.backtest, name)

            def retrieve(u, *args):
                before = len(kernel_calls)
                inside.append(name)
                try:
                    return fn(u, *args)
                finally:
                    inside.pop()
                    per_call[name].append(len(kernel_calls) - before)
                    users[name].add(u)

            return retrieve

        for name in per_call:
            monkeypatch.setattr(mixrec.backtest, name, wrapped(name))
        data = with_cold_users(synth_edges, tmp_path / "edges.tsv")
        cfg = small_config(data, tmp_path / "calls", m_values=[3, 10], exclude_seen=True)
        backtest(cfg)
        _, train, test = mixrec.backtest.split_graph(cfg)
        cold = {q.user for q in build_queries(test[1:])} - set(train.users.tolist())
        for name, calls in per_call.items():
            assert calls and set(calls) == {1}, name
            assert cold and cold <= users[name], name
        assert kernel_calls.count("mixture") == len(per_call["retrieve_micro"]) + len(per_call["retrieve_mle"])
        assert read_only == [] and copies == []

    def test_determinism_byte_identical(self, synth_edges, tmp_path, monkeypatch):
        # two runs of one config, a day apart, write the same bytes to every
        # file, the artifacts included, but config.json
        now = time.time()
        for run, day in (("d1", 0), ("d2", 1)):
            monkeypatch.setattr(time, "time", lambda day=day: now + 86400 * day)
            cfg = small_config(synth_edges, tmp_path / run)
            backtest(cfg)
        b1, b2 = run_bytes(tmp_path / "d1"), run_bytes(tmp_path / "d2")
        assert b1.keys() == b2.keys()
        assert {"graph.npz", "init.npz", "chunks/chunk_00004.npz", "report/table_M10.txt"} <= b1.keys()
        for name in b1:
            assert b1[name] == b2[name], f"{name} differs between identical runs"

    def test_rerun_leaves_only_its_own_results(self, synth_edges, tmp_path):
        # a rerun in a used directory, at other Ms, with other methods and no
        # candidate dump, leaves metrics/ and report/ as a fresh run of its
        # config writes them: no file of the first run, nor an interrupted
        # write's leftover, is kept
        backtest(small_config(synth_edges, tmp_path / "rerun", m_values=[5, 10], dump_candidates=True))
        assert (tmp_path / "rerun" / "metrics" / "candidates_M5.tsv").exists()
        (tmp_path / "rerun" / "metrics" / "series.tsv.tmp").write_text("")
        for run in ("rerun", "fresh"):
            backtest(small_config(synth_edges, tmp_path / run, m_values=[7], methods=["micro", "popularity"]))

        def results(run):
            return {k: v for k, v in run_bytes(tmp_path / run).items() if k.startswith(("metrics/", "report/"))}

        assert results("rerun") == results("fresh")
        assert sorted(results("fresh")) == [
            "metrics/overall.tsv", "metrics/series.tsv", "report/mrr_M7.tsv", "report/ndcg_M7.tsv",
            "report/recall_M7.tsv", "report/table_M7.txt",
        ]

    def test_resumable_per_chunk(self, synth_edges, tmp_path):
        out = tmp_path / "resume"
        cfg = small_config(synth_edges, out)
        backtest(cfg)
        first = report_bytes(out)
        # wipe later chunk models and all metrics, keep earlier artifacts
        chunk_files = sorted((out / "chunks").glob("chunk_*.npz"))
        assert len(chunk_files) == 3
        chunk_files[-1].unlink()
        for p in (out / "metrics").glob("*.tsv"):
            p.unlink()
        cfg2 = small_config(synth_edges, out)
        backtest(cfg2)
        second = report_bytes(out)
        for name in first:
            assert first[name] == second[name], f"{name} changed after resume"

    @pytest.mark.parametrize("compiled, lost", [
        pytest.param(True, 3, id="True"), pytest.param(False, 3, id="False"),
        pytest.param(True, 2, id="True-first"), pytest.param(False, 2, id="False-first"),
    ])
    def test_resumable_in_accumulate_mode(self, synth_edges, tmp_path, monkeypatch, compiled, lost):
        # a lost chunk model (the middle chunk, or the first held-out one,
        # which is fitted before the loop) refitted on the ledger folded
        # from the reloaded chunks before it, and every later chunk
        # reloaded on the ledger that refit gives: with cold users, seen
        # exclusion and a candidate dump, the resumed run writes every file
        # of the uninterrupted one but config.json, on the compiled sweep or
        # on the Python and numpy paths
        if compiled and sweep_kernel.load_kernel() is None:
            pytest.skip("no C compiler: only the Python and numpy paths run here")
        data = with_cold_users(synth_edges, tmp_path / "edges.tsv")
        kw = dict(user_count_mode="accumulate", exclude_seen=True, dump_candidates=True)
        chunks = tmp_path / "resumed" / "chunks"
        if not compiled:
            monkeypatch.setattr(sweep_kernel, "CC", "/nonexistent/cc")
            sweep_kernel.load_kernel.cache_clear()
        try:
            for run in ("whole", "resumed"):
                backtest(small_config(data, tmp_path / run, **kw))
            assert sorted(p.name for p in chunks.glob("*.npz")) == [f"chunk_0000{t}.npz" for t in (2, 3, 4)]
            (chunks / f"chunk_0000{lost}.npz").unlink()
            (chunks / f"chunk_0000{lost}_sweeps.tsv").unlink()
            later = {t: (chunks / f"chunk_0000{t}.npz").stat().st_mtime_ns for t in range(lost + 1, 5)}
            backtest(small_config(data, tmp_path / "resumed", **kw))
            assert (sweep_kernel.load_kernel() is not None) == compiled
        finally:
            monkeypatch.undo()
            sweep_kernel.load_kernel.cache_clear()
        # reloaded, not refitted
        assert {t: (chunks / f"chunk_0000{t}.npz").stat().st_mtime_ns for t in later} == later
        whole, resumed = run_bytes(tmp_path / "whole"), run_bytes(tmp_path / "resumed")
        assert whole.keys() == resumed.keys()
        assert {f"chunks/chunk_0000{lost}.npz", f"chunks/chunk_0000{lost}_sweeps.tsv", "metrics/candidates_M10.tsv"} <= whole.keys()
        for name in whole:
            assert whole[name] == resumed[name], f"{name} changed after resume"

    def test_nothing_carried_past_the_last_chunk(self, synth_edges, tmp_path, monkeypatch):
        # with 3 test chunks the loop folds the first two chunk models into
        # the ledger and merges train and the first two chunks into the seen
        # items; the last chunk is neither folded nor merged, as no chunk
        # follows it
        calls = {"fold_into": 0, "merge": 0}

        def counted(cls, name):
            fn = getattr(cls, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(cls, name, wrapper)

        counted(mixrec.sampler.ChunkModel, "fold_into")
        counted(_Seen, "merge")
        data = with_cold_users(synth_edges, tmp_path / "edges.tsv")
        backtest(small_config(data, tmp_path / "run", user_count_mode="accumulate", exclude_seen=True))
        assert calls == {"fold_into": 2, "merge": 3}

    def test_compressed_npz_loads_same_arrays(self, synth_edges, tmp_path):
        # every artifact deflates its integer members and stores the rest;
        # a directory whose artifacts an earlier version wrote with
        # np.savez_compressed (level 6) loads to the same arrays and is
        # reused as it is
        out = tmp_path / "r"
        cfg = small_config(synth_edges, out, dump_candidates=True)
        backtest(cfg)
        first = report_bytes(out) | {"cands": (out / "metrics" / "candidates_M10.tsv").read_bytes()}
        names = ["graph.npz", "embeddings.npz", "clusters.npz", "init.npz"]
        names += sorted(p.relative_to(out).as_posix() for p in out.glob("chunks/*.npz"))
        assert len(names) == 7
        arrays = {}
        for name in names:
            deflated, integer = deflated_and_integer_members(out / name)
            assert deflated == integer, name
            with np.load(out / name) as z:
                arrays[name] = {k: z[k] for k in z.files}
            np.savez_compressed(out / name, **arrays[name])
            with np.load(out / name) as z:
                for k, want in arrays[name].items():
                    got = z[k]
                    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), (name, k)
        for p in (out / "metrics").glob("*.tsv"):
            p.unlink()
        stamps = {name: (out / name).stat().st_mtime_ns for name in names}
        backtest(cfg)
        assert {name: (out / name).stat().st_mtime_ns for name in names} == stamps
        assert report_bytes(out) | {"cands": (out / "metrics" / "candidates_M10.tsv").read_bytes()} == first

    def test_artifact_records_read_once_per_run(self, synth_edges, tmp_path, monkeypatch):
        # open_run checks the record of every artifact it finds, and the
        # stages reuse those without reading a record again; a stage called
        # without what open_run read checks its artifact itself
        cfg = small_config(synth_edges, tmp_path / "r")
        out = Path(cfg.out_dir)
        reads = []
        read = mixrec.backtest.read_source
        monkeypatch.setattr(mixrec.backtest, "read_source", lambda p: reads.append(Path(p).relative_to(out).as_posix()) or read(p))
        backtest(cfg)
        assert reads == []
        built = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.npz"))
        assert len(built) == 7
        backtest(cfg)
        assert sorted(reads) == built
        reads.clear()
        mixrec.backtest.ensure_graph(cfg)
        assert reads == ["graph.npz"]

    def test_data_file_read_once_per_run(self, synth_edges, tmp_path, monkeypatch):
        # open_run reads the data file for its record once, and every stage
        # takes that record: on a fresh directory and on a full one
        calls = []
        record = mixrec.backtest._data_record
        monkeypatch.setattr(mixrec.backtest, "_data_record", lambda cfg: calls.append(cfg) or record(cfg))
        cfg = small_config(synth_edges, tmp_path / "r")
        for _ in range(2):
            calls.clear()
            backtest(cfg)
            assert len(calls) == 1

    def test_accumulate_mode_runs(self, synth_edges, tmp_path):
        cfg = small_config(
            synth_edges, tmp_path / "acc", user_count_mode="accumulate", methods=["micro"]
        )
        reports = backtest(cfg)
        assert reports[("micro", 10)].overall.n_queries > 0

    def test_exclude_seen_never_returns_seen(self, synth_edges, tmp_path):
        cfg = small_config(
            synth_edges, tmp_path / "seen", exclude_seen=True, dump_candidates=True
        )
        backtest(cfg)
        # recompute seen sets from the raw edge list, mapped to dense ids
        from mixrec.graph import load_graph

        g = load_graph(Path(cfg.out_dir) / "graph.npz")
        rows = [
            tuple(map(int, line.split()))
            for line in Path(cfg.data_path).read_text().strip().splitlines()
        ]
        dense_rows = [
            (int(g.user_ids.to_dense([u])[0]), int(g.item_ids.to_dense([i])[0]), t)
            for (u, i, t) in rows
        ]
        dump = (Path(cfg.out_dir) / "metrics" / "candidates_M10.tsv").read_text().splitlines()[1:]
        assert dump
        for line in dump:
            user, chunk, rank, item, score, meth = line.split("\t")
            seen_before = {
                i for (u, i, t) in dense_rows if u == int(user) and t < int(chunk)
            }
            assert int(item) not in seen_before

    def test_insufficient_train_chunks(self, synth_edges, tmp_path):
        cfg = small_config(synth_edges, tmp_path / "bad", test_chunks=5)
        with pytest.raises(ValueError):
            backtest(cfg)

    def test_changed_artifact_config_raises(self, synth_edges, tmp_path):
        out = tmp_path / "stale"
        common = ["backtest", "--data", str(synth_edges), "--out", str(out), "--test-chunks", "3",
                  "--dim", "8", "--epochs", "2", "--methods", "micro", "mle", "--seed", "1"]
        assert cli_main([*common, "--interests", "5", "--m", "5"]) == 0
        stamps = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        config = (out / "config.json").read_text()
        with pytest.raises(ValueError, match="num_interests, alpha"):
            cli_main([*common, "--interests", "3", "--alpha", "5", "--m", "5"])
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == stamps
        assert (out / "config.json").read_text() == config
        # retrieval-only fields may change between runs
        assert cli_main([*common, "--interests", "5", "--m", "4"]) == 0
        assert json.loads((out / "config.json").read_text())["m_values"] == [4]

    def test_directory_with_removed_embed_field_refused(self, synth_edges, tmp_path):
        # an embeddings.npz whose record holds an embedding field this
        # version no longer has, such as a scoring mode, was built by other
        # code: it is refused, not reused
        out = tmp_path / "old"
        backtest(small_config(synth_edges, out, methods=["mle"]))
        with np.load(out / "embeddings.npz") as z:
            arrays = {k: z[k] for k in z.files}
        record = json.loads(str(arrays["source"]))
        record["embed"]["score_mode"] = "translation"
        np.savez(out / "embeddings.npz", **{**arrays, "source": np.asarray(json.dumps(record))})
        stamps = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        assert {"graph.npz", "embeddings.npz", "clusters.npz", "init.npz"} <= {p.name for p in stamps}
        with pytest.raises(ValueError, match="different embed;"):
            backtest(small_config(synth_edges, out, methods=["mle"]))
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == stamps

    @pytest.mark.parametrize(
        "bad",
        [
            {"user_count_mode": "accumulat"},
            {"m_values": [0]},
            {"dim": 0},
            {"m_values": [5, 5]},
            {"methods": ["popularity", "popularity"]},
            {"methods": ["popularity", "bogus"]},
            {"num_interests": 0},
            {"kmeans_iters": 0},
            {"regroup_factor": 0},
            {"alpha": 0.0},
            {"beta": float("nan")},
            {"lr": 0.0},
            {"lr": float("nan")},
            {"batch_size": 0},
            {"test_chunks": -1},
            {"test_chunks": 0},
            {"workers": 0},
            {"workers": -1},
            {"m_values": [2.5]},
            {"test_chunks": 2.5},
            {"num_interests": 3.0},
            {"dim": 4.5},
            {"seed": -1},
            {"embed": None},
            {"exclude_seen": "no"},
            {"methods": []},
        ],
        ids=[
            "user_count_mode", "m_values", "embed_dim", "repeated_m", "repeated_method",
            "unknown_method", "num_interests", "kmeans_iters", "regroup_factor", "alpha", "beta",
            "embed_lr_zero", "embed_lr_nan", "embed_batch_size", "test_chunks_negative", "test_chunks_zero",
            "workers_zero", "workers_negative", "m_values_float", "test_chunks_float", "num_interests_float",
            "embed_dim_float", "seed_negative", "embed_null", "exclude_seen_string", "methods_empty",
        ],
    )
    def test_bad_config_fails_before_writing(self, synth_edges, tmp_path, bad):
        # a bad value raises when the config is made, so no run starts with
        # it; and a made config, checked, cannot take it afterwards
        out = tmp_path / "bad"
        with pytest.raises(ValueError):
            small_config(synth_edges, out, **{"methods": ["micro", "popularity"], **bad})
        cfg = small_config(synth_edges, out, methods=["micro", "popularity"])
        for key, value in bad.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg.embed if key in EMBED_FIELDS else cfg, key, value)
        assert not out.exists()

    def test_failed_run_leaves_the_last_record(self, synth_edges, tmp_path):
        # a backtest that fails after open_run, here when clustering finds
        # K=500 above the item count, leaves config.json, metrics/ and
        # report/ of the last run that returned byte for byte: config.json
        # names the config of the results beside it
        out = tmp_path / "r"
        backtest(small_config(synth_edges, out, methods=["popularity"], m_values=[5]))

        def record():
            files = [out / "config.json", *(out / "metrics").iterdir(), *(out / "report").iterdir()]
            return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(files)}

        before = record()
        with pytest.raises(ValueError, match="K=500 exceeds item count"):
            backtest(small_config(synth_edges, out, methods=["micro"], num_interests=500, m_values=[7]))
        assert (out / "embeddings.npz").exists()  # the failed run got past open_run
        assert record() == before
        assert json.loads(before["config.json"])["methods"] == ["popularity"]

    def test_side_file_rewritten_after_failed_stage(self, synth_edges, tmp_path, monkeypatch):
        # a stage that fails after its work but before its side file is
        # written must not leave a reusable .npz behind
        out = tmp_path / "side"

        def fail(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(mixrec.backtest, "export_cluster_map", fail)
        with pytest.raises(RuntimeError, match="disk full"):
            backtest(small_config(synth_edges, out, methods=["mle"]))
        assert not (out / "cluster_map.tsv").exists()
        monkeypatch.undo()
        backtest(small_config(synth_edges, out, methods=["mle"]))
        with np.load(out / "clusters.npz") as z:
            want = "".join(f"{i}\t{k}\n" for i, k in enumerate(z["item_to_interest"].tolist()))
        assert (out / "cluster_map.tsv").read_text() == want
        assert (out / "graph_stats.txt").exists()
        assert not list(out.glob("*.tmp*"))

    def test_compile_failure_pipeline_identical(self, synth_edges, tmp_path, monkeypatch, caplog):
        # the whole backtest on the Python sweep and numpy paths writes the
        # compiled run's bytes to every file but config.json: metrics,
        # candidates, sweep traces and artifacts
        if sweep_kernel.load_kernel() is None:
            pytest.skip("no C compiler: only the Python and numpy paths run here")
        kw = dict(exclude_seen=True, dump_candidates=True, m_values=[3, 10], user_count_mode="accumulate")
        backtest(small_config(synth_edges, tmp_path / "compiled", **kw))
        monkeypatch.setattr(sweep_kernel, "CC", "/nonexistent/cc")
        sweep_kernel.load_kernel.cache_clear()
        try:
            with caplog.at_level(logging.WARNING, logger="mixrec.sweep_kernel"):
                backtest(small_config(synth_edges, tmp_path / "fallback", **kw))
            assert sweep_kernel.load_kernel() is None
        finally:
            monkeypatch.undo()
            sweep_kernel.load_kernel.cache_clear()
        assert any("/nonexistent/cc" in r.getMessage() for r in caplog.records)

        a, b = run_bytes(tmp_path / "compiled"), run_bytes(tmp_path / "fallback")
        assert a.keys() == b.keys()
        assert {"metrics/candidates_M3.tsv", "metrics/candidates_M10.tsv", "chunks/chunk_00003_sweeps.tsv",
                "embeddings.npz", "chunks/chunk_00003.npz"} <= a.keys()
        for name in a:
            assert a[name] == b[name], name

    def test_unknown_method_rejected(self, synth_edges, tmp_path):
        with pytest.raises(ValueError):
            small_config(synth_edges, tmp_path / "x", methods=["micro", "bogus"])


class TestRunConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = RunConfig(data_path="a.tsv", out_dir="o", m_values=[7], seed=3, embed={"dim": 12})
        p = tmp_path / "cfg.json"
        cfg.to_json(p)
        cfg2 = RunConfig.from_json(p)
        assert cfg2.embed.dim == 12
        assert cfg2.m_values == [7]
        assert cfg2.seed == 3

    @pytest.mark.parametrize("name", ["cold_user_policy", "embed.score_mode", "truncation"])
    def test_unknown_field_named(self, tmp_path, name):
        # a config file written by a version with a field this one lacks,
        # such as an older run's config.json, which names its truncation
        data = dataclasses.asdict(RunConfig())
        if name.startswith("embed."):
            data["embed"]["score_mode"] = "dot"
        else:
            data[name] = {"cold_user_policy": "popularity-fallback", "truncation": None}[name]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(f"unknown config field(s): {name}")):
            RunConfig.from_json(p)

    def test_empty_m_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(m_values=[])

    def test_repeated_m_or_method_rejected(self):
        with pytest.raises(ValueError, match="m_values repeats"):
            RunConfig(m_values=[20, 5, 20])
        with pytest.raises(ValueError, match="methods repeats"):
            RunConfig(methods=["micro", "ann", "micro"])

    def test_reference_scale_config_accepted(self):
        # coarse regrouping, 7 held-out chunks, K=5000, M in {50, 100}
        cfg = RunConfig(
            data_path="edges.tsv",
            regroup_factor=7,
            test_chunks=7,
            num_interests=5000,
            m_values=[50, 100],
        )
        assert cfg.num_interests == 5000

    def test_every_artifact_field_feeds_a_named_artifact(self):
        # a chunk model records every field that feeds an artifact, and the
        # data file's record stands for data_path and delimiter; every other
        # field only shapes retrieval, scoring or output, so a new field
        # fails here until it is classified
        recorded = set(mixrec.backtest._record(RunConfig(), "chunks/chunk_00001.npz", "size=0"))
        retrieval_only = {"out_dir", "m_values", "exclude_seen", "workers", "methods", "dump_candidates"}
        names = {f.name for f in dataclasses.fields(RunConfig)}
        assert names - recorded - retrieval_only == {"data_path", "delimiter"}
        assert recorded - names == {"data"}


class TestReportIO:
    def test_write_read_roundtrip(self, tmp_path):
        rep = MetricsReport(method="micro", m=10)
        rep.per_chunk[4] = MetricBlock(n_queries=3, recall=0.5, mrr=0.25, ndcg=1 / 3)
        rep.per_chunk[5] = MetricBlock(n_queries=1, recall=1.0, mrr=1.0, ndcg=1.0)
        rep.overall = MetricBlock(n_queries=4, recall=0.625, mrr=0.4375, ndcg=0.5)
        write_results(RunConfig(out_dir=str(tmp_path)), {("micro", 10): rep}, {})
        got = read_reports(tmp_path / "metrics")[("micro", 10)]
        assert got.per_chunk == rep.per_chunk
        assert got.overall == rep.overall
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()) == [
            "config.json", "metrics/overall.tsv", "metrics/series.tsv", "report/mrr_M10.tsv", "report/ndcg_M10.tsv",
            "report/recall_M10.tsv", "report/table_M10.txt",
        ]
        assert (tmp_path / "report" / "ndcg_M10.tsv").read_text() == f"chunk\tmicro\n4\t{1 / 3!r}\n5\t1.0\n"

    @pytest.mark.parametrize("test_chunks", [3, 1])
    def test_read_gives_back_what_a_run_wrote(self, synth_edges, tmp_path, test_chunks):
        # every report, a run's without queries too (one test chunk is only
        # fitted), comes back from the files equal to the one written
        cfg = small_config(synth_edges, tmp_path, test_chunks=test_chunks, m_values=[5, 20],
                           methods=["popularity", "ann"])
        reports = backtest(cfg)
        queries = {r.overall.n_queries for r in reports.values()}
        assert queries == {0} if test_chunks == 1 else 0 not in queries
        assert read_reports(tmp_path / "metrics") == reports


class TestCli:
    def test_synth_ingest_backtest_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main([
            "synth", "--users", "40", "--items", "80", "--interests", "3",
            "--chunks", "4", "--per-user", "6", "--seed", "2",
            "--out-prefix", "data/s",
        ]) == 0
        assert cli_main([
            "ingest", "--data", "data/s.tsv", "--out", "run",
        ]) == 0
        out = capsys.readouterr().out
        assert "num_edges=960" in out
        assert cli_main([
            "backtest", "--data", "data/s.tsv", "--out", "run",
            "--test-chunks", "2", "--interests", "3", "--dim", "8",
            "--epochs", "3", "--m", "5", "--methods", "micro", "popularity",
            "--include-seen", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "method=micro" in out and "method=popularity" in out
        table = Path("run/report/table_M5.txt").read_text().splitlines()
        assert table[0] == "M=5"
        assert [line.split()[0] for line in table[2:]] == ["micro", "popularity"]

    def test_replaced_data_file_refused(self, tmp_path, monkeypatch):
        # artifacts built from one data file must not be reused for another
        # written to the same path; a missing data file fails too
        monkeypatch.chdir(tmp_path)
        for seed, prefix in (("1", "d/s"), ("2", "d/other")):
            cli_main(["synth", "--users", "60", "--items", "150", "--chunks", "5",
                      "--seed", seed, "--out-prefix", prefix])
        run = ["backtest", "--data", "d/s.tsv", "--out", "r", "--interests", "5",
               "--m", "10", "--dim", "16", "--epochs", "3"]
        assert cli_main(run) == 0
        stamps = {p: p.stat().st_mtime_ns for p in Path("r").rglob("*")}
        Path("d/s.tsv").write_bytes(Path("d/other.tsv").read_bytes())
        with pytest.raises(ValueError, match=r"r/graph\.npz records .* but d/s\.tsv now has"):
            cli_main(run)
        Path("d/s.tsv").unlink()
        with pytest.raises(FileNotFoundError):
            cli_main(run)
        assert {p: p.stat().st_mtime_ns for p in Path("r").rglob("*")} == stamps

    def test_ingest_directory_refuses_changed_data(self, synth_edges, tmp_path, monkeypatch):
        # ingest starts through open_run, as every other stage does, and
        # graph.npz's record refuses a changed file
        monkeypatch.chdir(tmp_path)
        Path("e.tsv").write_bytes(synth_edges.read_bytes())
        ingest = ["ingest", "--data", "e.tsv", "--out", "r"]
        assert cli_main(ingest) == 0
        assert cli_main(ingest) == 0
        stamp = Path("r/graph.npz").stat().st_mtime_ns
        with open("e.tsv", "a") as fh:
            fh.write("0\t0\t0\n")
        with pytest.raises(ValueError, match="graph.npz records size="):
            cli_main(ingest)
        with pytest.raises(ValueError, match="graph.npz records size="):
            cli_main(["backtest", "--data", "e.tsv", "--out", "r", "--interests", "4",
                      "--dim", "6", "--epochs", "2"])
        assert Path("r/graph.npz").stat().st_mtime_ns == stamp
        # a graph.npz without a record is refused as well
        save_graph(load_graph("r/graph.npz"), "r/graph.npz")
        with pytest.raises(ValueError, match="graph.npz records nothing"):
            cli_main(ingest)

    @pytest.mark.parametrize("flag", ["--test-chunks", "--regroup-factor"])
    def test_ingest_refuses_bad_config_before_writing(self, synth_edges, tmp_path, flag):
        # the value backtest refuses, ingest refuses too, before it writes
        # graph.npz, graph_stats.txt or config.json
        out = tmp_path / "r"
        with pytest.raises(ValueError, match=f"{flag[2:].replace('-', '_')} must be >= 1"):
            cli_main(["ingest", "--data", str(synth_edges), "--out", str(out), flag, "0"])
        assert not out.exists()

    def test_cluster_map_uses_tabs_for_comma_input(self, synth_edges, tmp_path):
        # a comma-delimited edge list gives the tab-separated cluster_map.tsv
        # of the same edges delimited by tabs
        data = tmp_path / "edges.csv"
        data.write_text(synth_edges.read_text().replace("\t", ","))
        common = ["--interests", "4", "--dim", "6", "--epochs", "2"]
        assert cli_main(["cluster", "--data", str(synth_edges), "--out", str(tmp_path / "t"), *common]) == 0
        assert cli_main(["cluster", "--data", str(data), "--delimiter", ",", "--out", str(tmp_path / "c"), *common]) == 0
        got = (tmp_path / "c" / "cluster_map.tsv").read_text()
        assert got == (tmp_path / "t" / "cluster_map.tsv").read_text()
        assert all(line.count("\t") == 1 and "," not in line for line in got.splitlines())

    def test_stage_commands_build_what_is_missing(self, synth_edges, tmp_path):
        # cluster and init in an empty directory build every stage before
        # theirs, the same arrays as the stages run one by one
        common = ["--data", str(synth_edges), "--interests", "4", "--dim", "6", "--epochs", "2"]
        assert cli_main(["cluster", *common, "--out", str(tmp_path / "c")]) == 0
        assert cli_main(["init", *common, "--out", str(tmp_path / "i")]) == 0
        for stage in ("embed", "cluster", "init"):
            assert cli_main([stage, *common, "--out", str(tmp_path / "s")]) == 0

        def arrays(path):
            with np.load(path) as z:
                return {k: z[k].tolist() for k in z.files}

        built = ["graph.npz", "embeddings.npz", "clusters.npz"]
        assert sorted(p.name for p in (tmp_path / "c").glob("*.npz")) == sorted(built)
        for d, names in (("c", built), ("i", built + ["init.npz"])):
            for name in names:
                assert arrays(tmp_path / d / name) == arrays(tmp_path / "s" / name)
            assert (tmp_path / d / "cluster_map.tsv").read_bytes() == (tmp_path / "s" / "cluster_map.tsv").read_bytes()

    def test_rerun_after_rejected_config(self, tmp_path, monkeypatch):
        # a stage that rejects the config leaves no config.json in a fresh
        # directory; a corrected rerun is accepted, since no built artifact
        # depends on the field, and reuses what was built
        monkeypatch.chdir(tmp_path)
        cli_main(["synth", "--users", "60", "--items", "150", "--chunks", "5", "--seed", "1",
                  "--out-prefix", "d/s"])
        run = ["backtest", "--data", "d/s.tsv", "--m", "10", "--dim", "8", "--epochs", "2"]

        def stamp(path):
            st = Path(path).stat()
            return st.st_ino, st.st_mtime_ns

        with pytest.raises(ValueError, match="leaves no train chunks"):
            cli_main([*run, "--out", "t", "--interests", "5", "--test-chunks", "5"])
        assert not Path("t/config.json").exists()
        graph = stamp("t/graph.npz")
        assert cli_main([*run, "--out", "t", "--interests", "5", "--test-chunks", "3"]) == 0
        assert stamp("t/graph.npz") == graph
        with pytest.raises(ValueError, match="K=500 exceeds item count"):
            cli_main([*run, "--out", "k", "--interests", "500"])
        assert not Path("k/clusters.npz").exists()
        assert not Path("k/config.json").exists()
        emb = stamp("k/embeddings.npz")
        assert cli_main([*run, "--out", "k", "--interests", "5"]) == 0
        assert stamp("k/embeddings.npz") == emb
        # a changed field is refused once an artifact it feeds exists
        with pytest.raises(ValueError, match="different test_chunks;"):
            cli_main([*run, "--out", "k", "--interests", "5", "--test-chunks", "2"])

    def test_max_sweeps_refused_once_chunks_are_fitted(self, synth_edges, tmp_path):
        common = ["--data", str(synth_edges), "--out", str(tmp_path / "r"), "--interests", "4",
                  "--dim", "6", "--epochs", "2", "--methods", "micro"]
        assert cli_main(["init", *common, "--max-sweeps", "5"]) == 0
        assert cli_main(["backtest", *common, "--max-sweeps", "3"]) == 0
        assert json.loads((tmp_path / "r" / "config.json").read_text())["max_sweeps"] == 3
        assert list((tmp_path / "r" / "chunks").glob("chunk_*.npz"))
        with pytest.raises(ValueError, match="different max_sweeps;"):
            cli_main(["backtest", *common, "--max-sweeps", "4"])

    def test_copied_artifact_refused(self, synth_edges, tmp_path):
        # an init.npz copied from a run at another alpha is refused by its
        # own record, though config.json agrees; with no chunk model left
        # to disagree, it would otherwise be reused
        common = ["--data", str(synth_edges), "--interests", "4", "--dim", "6", "--epochs", "2",
                  "--methods", "micro", "--m", "5"]
        assert cli_main(["backtest", *common, "--out", str(tmp_path / "a"), "--alpha", "0.1"]) == 0
        assert cli_main(["init", *common, "--out", str(tmp_path / "b"), "--alpha", "5"]) == 0
        (tmp_path / "a" / "init.npz").write_bytes((tmp_path / "b" / "init.npz").read_bytes())
        shutil.rmtree(tmp_path / "a" / "chunks")
        stamps = {p: p.stat().st_mtime_ns for p in (tmp_path / "a").rglob("*")}
        with pytest.raises(ValueError, match=r"a holds init\.npz built with a different alpha;"):
            cli_main(["backtest", *common, "--out", str(tmp_path / "a"), "--alpha", "0.1"])
        assert {p: p.stat().st_mtime_ns for p in (tmp_path / "a").rglob("*")} == stamps

    def test_changed_config_refused_without_config_json(self, synth_edges, tmp_path):
        # the artifacts, not config.json, record what they were built from;
        # init writes no config.json
        out = tmp_path / "r"
        common = ["--data", str(synth_edges), "--out", str(out), "--dim", "6", "--epochs", "2"]
        assert cli_main(["init", *common, "--interests", "5"]) == 0
        stamps = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        with pytest.raises(ValueError, match="holds clusters.npz, init.npz built with a different num_interests;"):
            cli_main(["backtest", *common, "--interests", "3"])
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == stamps
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("name", ["graph.npz", "init.npz"])
    def test_earlier_layout_refused(self, synth_edges, tmp_path, name):
        # a graph.npz or init.npz in the layout an earlier version wrote,
        # its sizes, priors and raw ids in arrays of their own and a version
        # number, records a matching config but is refused naming the file,
        # by backtest and by the stage itself, before anything is written
        out = tmp_path / "r"
        cfg = small_config(synth_edges, out, methods=["mle"])
        backtest(cfg)
        path = out / name
        with np.load(path) as z:
            m = {k: z[k] for k in z.files}
        if name == "graph.npz":
            old = dict(users=m["users"], items=m["items"], chunks=m["chunks"],
                       dims=np.asarray([m["num_users"], m["num_items"], m["num_chunks"]]),
                       raw_users=m["user_ids.raw"], raw_items=m["item_ids.raw"])
        else:
            old = dict(version=np.asarray([2]), dims=np.asarray([m["num_users"], m["num_items"], m["num_interests"]]),
                       priors=np.asarray([m["alpha"], m["beta"]]),
                       **{k: m[k] for k in ("support_ptr", "support_k", "support_n0", "item_interest", "item_n0")})
            train = mixrec.backtest.split_graph(cfg)[1]
        write_npz(path, json.loads(str(m["source"])), **old)
        stamps = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        match = re.escape(str(path)) + " holds no .*; rebuild it in a new output directory"
        with pytest.raises(ValueError, match=match):
            backtest(cfg)
        with pytest.raises(ValueError, match=match):
            if name == "graph.npz":
                mixrec.backtest.ensure_graph(cfg)
            else:
                mixrec.backtest.ensure_init(cfg, train, load_clusters(out / "clusters.npz"))
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == stamps

    @pytest.mark.parametrize("damage", ["earlier_layout", "other_chunk", "trace_2d"])
    def test_chunk_file_refused(self, synth_edges, tmp_path, damage):
        # a chunk file holds its ChunkFit's fields and the record; one in the
        # layout an earlier version wrote (the sweep count, stop flag and
        # underflow events packed in one array), another chunk's copied
        # over it, or a later chunk's whose log-joint trace is 2-d, records
        # a matching config but is refused naming the file, before anything
        # is written
        out = tmp_path / "r"
        cfg = small_config(synth_edges, out, methods=["micro"])
        backtest(cfg)
        path = out / "chunks" / ("chunk_00003.npz" if damage == "trace_2d" else "chunk_00002.npz")
        with np.load(path) as z:
            m = {k: z[k] for k in z.files}
        assert list(m) == [f.name for f in dataclasses.fields(ChunkFit)] + ["source"]
        if damage == "earlier_layout":
            sweeps = np.asarray([len(m["changed"]), int(m["converged"]), m["underflow_events"]])
            write_npz(path, json.loads(str(m["source"])), chunk=np.asarray([m["chunk"]]), z=m["z"],
                      sweeps=sweeps, log_joint=m["log_joint"][-1:])
            why = r" holds no ChunkFit in this version's layout \(missing \['changed', 'converged', 'underflow_events'\]"
        elif damage == "other_chunk":
            shutil.copyfile(out / "chunks" / "chunk_00003.npz", path)
            why = ": persisted model is for chunk 3, slice is chunk 2"
        else:
            source = json.loads(str(m.pop("source")))
            write_npz(path, source, **{**m, "log_joint": np.c_[m["log_joint"], m["log_joint"]]})
            why = ": log_joint must be 1-d, got a 2-d value"
        stamps = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        with pytest.raises(ValueError, match=re.escape(str(path)) + f"{why}.*; rebuild it in a new output directory"):
            backtest(cfg)
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == stamps

    @pytest.mark.parametrize("damage", ["truncated", "foreign", "no_record"])
    def test_damaged_artifact_refused(self, synth_edges, tmp_path, damage):
        # under a matching config, a clusters.npz that is cut short, is
        # another stage's artifact or records nothing is refused naming it,
        # by open_run and by the stage itself, before anything is written
        out = tmp_path / "r"
        cfg = small_config(synth_edges, out, methods=["mle"])
        backtest(cfg)
        path = out / "clusters.npz"
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:100])
            match = r"clusters\.npz records nothing this version reads \(File is not a zip file\)"
        elif damage == "foreign":
            path.write_bytes((out / "embeddings.npz").read_bytes())
            match = r"holds clusters\.npz built with a different num_interests, kmeans_iters;"
        else:
            save_clusters(load_clusters(path), path)
            match = r"clusters\.npz records nothing"
        stamps = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        with pytest.raises(ValueError, match=match):
            backtest(cfg)
        with pytest.raises(ValueError, match=match):
            mixrec.backtest.ensure_clusters(cfg, None)
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == stamps

    def test_leftover_temp_file_is_no_artifact(self, synth_edges, tmp_path):
        # an interrupted chunk write leaves chunk_XXXXX.npz.tmp behind; it
        # feeds nothing, so it cannot make a changed max_sweeps stale, and
        # the chunk's next write replaces it
        out = tmp_path / "r"
        common = ["--data", str(synth_edges), "--out", str(out), "--interests", "4",
                  "--dim", "6", "--epochs", "2", "--methods", "micro"]
        assert cli_main(["init", *common, "--max-sweeps", "5"]) == 0
        (out / "chunks").mkdir()
        (out / "chunks" / "chunk_00003.npz.tmp").write_bytes(b"")
        assert cli_main(["backtest", *common, "--max-sweeps", "3"]) == 0
        assert sorted(p.name for p in (out / "chunks").glob("*.npz*")) == [f"chunk_0000{c}.npz" for c in (2, 3, 4)]

    def test_stage_commands_check_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli_main([
            "synth", "--users", "30", "--items", "50", "--interests", "3",
            "--chunks", "3", "--per-user", "5", "--seed", "4", "--out-prefix", "d/s",
        ])
        common = ["--data", "d/s.tsv", "--out", "r", "--test-chunks", "1", "--dim", "6", "--epochs", "2"]
        for stage in ("embed", "cluster", "init"):
            assert cli_main([stage, *common, "--interests", "5"]) == 0
        stamp = Path("r/init.npz").stat().st_mtime_ns
        with pytest.raises(ValueError, match="num_interests, alpha"):
            cli_main(["init", *common, "--interests", "3", "--alpha", "5"])
        assert Path("r/init.npz").stat().st_mtime_ns == stamp
        # a backtest there is refused by the stages' artifacts too
        with pytest.raises(ValueError, match="num_interests, alpha"):
            cli_main(["backtest", *common, "--interests", "3", "--alpha", "5"])
        assert Path("r/init.npz").stat().st_mtime_ns == stamp

    def test_config_file_with_flag_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli_main([
            "synth", "--users", "40", "--items", "80", "--interests", "3",
            "--chunks", "4", "--per-user", "6", "--seed", "2", "--out-prefix", "d/s",
        ])
        capsys.readouterr()
        cfg = RunConfig(
            data_path="d/s.tsv", out_dir="cfg-run", test_chunks=2,
            num_interests=3, m_values=[5], methods=["popularity"],
            exclude_seen=False, dump_candidates=True, seed=9, embed={"dim": 6, "epochs": 2},
        )
        cfg.to_json(tmp_path / "run.json")
        # the flag overrides the file's m_values; dump_candidates survives
        assert cli_main(["backtest", "--config", "run.json", "--m", "4"]) == 0
        out = capsys.readouterr().out
        assert "M=4" in out and "M=5" not in out
        assert (Path("cfg-run") / "metrics" / "candidates_M4.tsv").exists()

    def test_stage_subcommands(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli_main([
            "synth", "--users", "30", "--items", "50", "--interests", "3",
            "--chunks", "3", "--per-user", "5", "--seed", "4", "--out-prefix", "d/s",
        ])
        common = ["--data", "d/s.tsv", "--out", "r", "--test-chunks", "1",
                  "--interests", "3", "--dim", "6", "--epochs", "2"]
        assert cli_main(["embed", *common]) == 0
        assert (Path("r") / "embeddings.npz").exists()
        assert cli_main(["cluster", *common]) == 0
        assert (Path("r") / "clusters.npz").exists()
        assert (Path("r") / "cluster_map.tsv").exists()
        assert cli_main(["init", *common]) == 0
        assert (Path("r") / "init.npz").exists()
        # the stage commands write no config.json; only backtest does, with its results
        assert not (Path("r") / "config.json").exists()
