import dataclasses
import json
import logging
from pathlib import Path

import numpy as np
import pytest

import mixrec.backtest
import mixrec.sweep_kernel as sweep_kernel
from mixrec.backtest import RunConfig, _SeenTracker, backtest, read_reports, report, write_reports
from mixrec.cli import main as cli_main
from mixrec.graph import ChunkSlice, SplitSpec, split
from mixrec.metrics import MetricBlock, MetricsReport, build_queries
from mixrec.synth import SynthSpec, generate

from oracles import aggregate_loop, score_reference, seen_union_loop


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
    with open(path, "w") as fh:
        for u, i, t in zip(g.users.tolist(), g.items.tolist(), g.chunks.tolist()):
            fh.write(f"{u}\t{i}\t{t}\n")
    return path


def small_config(data_path, out_dir, **kw) -> RunConfig:
    base = dict(
        data_path=str(data_path),
        out_dir=str(out_dir),
        test_chunks=3,
        num_interests=4,
        kmeans_iters=10,
        m_values=[10],
        seed=5,
        exclude_seen=False,
    )
    base.update(kw)
    cfg = RunConfig(**base)
    cfg.embed.dim = 8
    cfg.embed.epochs = 4
    cfg.embed.negatives = 3
    return cfg


def report_bytes(out_dir) -> dict[str, bytes]:
    out = {}
    for p in sorted(Path(out_dir).glob("metrics/*.tsv")) + sorted(
        Path(out_dir).glob("report/*")
    ):
        out[p.name] = p.read_bytes()
    return out


class TestSeenTracker:
    def test_matches_union_loop(self):
        # train users and users first seen in a test chunk, duplicate pairs
        # within and across chunks, an empty chunk and ids at the range ends:
        # after every merge each user's view equals the union1d loop's array
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
        tracker = _SeenTracker(train)
        slices = [ChunkSlice.from_edges(0, train.users, train.items)]
        assert max(seen_union_loop(slices)) < 30
        for slc in [None, *test, *extra]:
            if slc is not None:
                tracker.add_chunk(slc)
                slices.append(slc)
            want = seen_union_loop(slices)
            for u in range(-1, U + 2):
                got = tracker.view(u)
                assert got.dtype == np.int64 and got.ndim == 1, u
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
        report(cfg)
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
        # write_reports sorts by (method, M)
        key = lambda line: (line.split("\t")[0], int(line.split("\t")[1]))
        metrics = tmp_path / "score" / "metrics"
        assert (metrics / "series.tsv").read_text() == "\n".join(series[:1] + sorted(series[1:], key=key)) + "\n"
        assert (metrics / "overall.tsv").read_text() == "\n".join(overall[:1] + sorted(overall[1:], key=key)) + "\n"

    def test_determinism_byte_identical(self, synth_edges, tmp_path):
        cfg1 = small_config(synth_edges, tmp_path / "d1")
        cfg2 = small_config(synth_edges, tmp_path / "d2")
        backtest(cfg1)
        report(cfg1)
        backtest(cfg2)
        report(cfg2)
        b1, b2 = report_bytes(tmp_path / "d1"), report_bytes(tmp_path / "d2")
        assert b1.keys() == b2.keys()
        for name in b1:
            assert b1[name] == b2[name], f"{name} differs between identical runs"

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
        # a run directory whose config.json holds an embedding field this
        # version no longer has, such as a scoring mode, was built by other
        # code: it is refused, not reused
        out = tmp_path / "old"
        backtest(small_config(synth_edges, out, methods=["mle"]))
        old = json.loads((out / "config.json").read_text())
        old["embed"]["score_mode"] = "translation"
        (out / "config.json").write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
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
            {"m_values": [10], "truncation": 5},
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
        ],
        ids=[
            "user_count_mode", "m_values", "truncation", "embed_dim", "repeated_m", "repeated_method",
            "unknown_method", "num_interests", "kmeans_iters", "regroup_factor", "alpha", "beta",
            "embed_lr_zero", "embed_lr_nan", "embed_batch_size",
        ],
    )
    def test_bad_config_fails_before_writing(self, synth_edges, tmp_path, bad):
        out = tmp_path / "bad"
        cfg = small_config(synth_edges, out, methods=["micro", "popularity"])
        for key, value in bad.items():
            setattr(cfg.embed if key in ("dim", "lr", "batch_size") else cfg, key, value)
        with pytest.raises(ValueError):
            backtest(cfg)
        assert not out.exists()
        # the corrected run is not refused as stale
        backtest(small_config(synth_edges, out, methods=["micro", "popularity"]))
        assert (out / "metrics" / "overall.tsv").exists()

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
        # compiled run's metrics, candidates, sweep traces and arrays
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

        def outputs(out):
            return sorted(p.relative_to(out) for p in out.rglob("*") if p.suffix in (".tsv", ".npz"))

        a, b = tmp_path / "compiled", tmp_path / "fallback"
        names = outputs(a)
        assert names == outputs(b)
        assert {"metrics/candidates_M3.tsv", "metrics/candidates_M10.tsv", "chunks/chunk_00003_sweeps.tsv"} <= set(
            map(str, names)
        )
        for name in names:
            if name.suffix == ".tsv":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name
                continue
            with np.load(a / name) as za, np.load(b / name) as zb:
                assert za.files == zb.files, name
                for key in za.files:
                    x, y = za[key], zb[key]
                    assert (x.dtype, x.shape) == (y.dtype, y.shape), f"{name}:{key}"
                    assert x.tobytes() == y.tobytes(), f"{name}:{key}"

    def test_unknown_method_rejected(self, synth_edges, tmp_path):
        with pytest.raises(ValueError):
            small_config(synth_edges, tmp_path / "x", methods=["micro", "bogus"])


class TestRunConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = RunConfig(data_path="a.tsv", out_dir="o", m_values=[7], seed=3)
        cfg.embed.dim = 12
        p = tmp_path / "cfg.json"
        cfg.to_json(p)
        cfg2 = RunConfig.from_json(p)
        assert cfg2.embed.dim == 12
        assert cfg2.m_values == [7]
        assert cfg2.seed == 3

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
        assert cfg.retrieval_config(50).truncation == 250


class TestReportIO:
    def test_write_read_roundtrip(self, tmp_path):
        rep = MetricsReport(method="micro", m=10)
        rep.per_chunk[4] = MetricBlock(n_queries=3, recall=0.5, mrr=0.25, ndcg=1 / 3)
        rep.per_chunk[5] = MetricBlock(n_queries=1, recall=1.0, mrr=1.0, ndcg=1.0)
        rep.overall = MetricBlock(n_queries=4, recall=0.625, mrr=0.4375, ndcg=0.5)
        write_reports({("micro", 10): rep}, tmp_path)
        got = read_reports(tmp_path)[("micro", 10)]
        assert got.per_chunk[4].recall == 0.5
        assert got.per_chunk[5].n_queries == 1
        assert got.overall.recall == 0.625


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
        assert cli_main(["report", "--out", "run"]) == 0
        out = capsys.readouterr().out
        assert "M=5" in out

    def test_cluster_requires_embeddings(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            cli_main(["cluster", "--out", "nothing-here"])

    def test_stage_commands_check_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli_main([
            "synth", "--users", "30", "--items", "50", "--interests", "3",
            "--chunks", "3", "--per-user", "5", "--seed", "4", "--out-prefix", "d/s",
        ])
        common = ["--data", "d/s.tsv", "--out", "r", "--test-chunks", "1", "--dim", "6", "--epochs", "2"]
        for stage in ("embed", "cluster", "init"):
            assert cli_main([stage, *common, "--interests", "5"]) == 0
        assert json.loads(Path("r/config.json").read_text())["num_interests"] == 5
        stamp = Path("r/init.npz").stat().st_mtime_ns
        with pytest.raises(ValueError, match="num_interests, alpha"):
            cli_main(["init", *common, "--interests", "3", "--alpha", "5"])
        assert Path("r/init.npz").stat().st_mtime_ns == stamp
        # a backtest there sees the stages' config.json too
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
            exclude_seen=False, dump_candidates=True, seed=9,
        )
        cfg.embed.dim = 6
        cfg.embed.epochs = 2
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
