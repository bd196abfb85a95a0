"""Every artifact type checks itself when it is made: a bad value raises
``ValueError`` naming it, whether the artifact is built in memory or read
from a file by the type's loader, and a made artifact is frozen, its arrays
read-only. A stage artifact's file holds one member per field of its type,
and a file in another layout is refused."""

import dataclasses
import re

import numpy as np
import pytest

from mixrec.clustering import cluster_items, load_clusters, save_clusters
from mixrec.embeddings import EmbeddingTable, load_embeddings, save_embeddings
from mixrec.graph import SplitSpec, from_raw_edges, load_graph, regroup_chunks, save_graph, split
from mixrec.graph import ChunkSlice
from mixrec.initialization import build_init, load_init, save_init
from mixrec.npz import write_fields, write_npz
from mixrec.retrieval import ann_encode_items, build_index, chunk_tables, mle_mixture, popularity_ranking
from mixrec.sampler import SamplerConfig, fit_chunk, load_chunk_model


def graph():
    return from_raw_edges([0, 0, 1, 2, 2], [0, 1, 1, 2, 0], [0, 0, 1, 1, 2])


def table():
    rng = np.random.default_rng(0)
    return EmbeddingTable(user_vectors=rng.normal(size=(3, 4)), item_vectors=rng.normal(size=(5, 4)), epoch_losses=[0.5])


def clusters():
    return cluster_items(np.random.default_rng(1).normal(size=(6, 3)), K=2, iters=5, seed=0)


def init():
    return build_init(graph(), item_interest=[0, 1, 1], num_interests=2)


def chunk():
    return ChunkSlice.from_edges(3, [0, 1, 2, 2], [0, 1, 2, 1])


def chunk_fit():
    return fit_chunk(chunk(), init(), SamplerConfig(seed=0, max_sweeps=3, convergence_tol=0.0)).fit


def load_chunk_fit(path):
    """The fit of the model ``load_chunk_model`` rebuilds from ``path``."""
    return load_chunk_model(path, chunk(), init(), SamplerConfig(seed=0)).fit


def bumped(a, at=-1, by=1):
    a = np.array(a)
    a[at] += by
    return a


def nan_at(a):
    a = np.array(a, dtype=np.float64)
    a.flat[-1] = np.nan
    return a


# (artifact, its save and load, member, bad value from the good artifact,
# message); a member ``<field>.<name>`` is a field of a nested dataclass
CASES = {
    "graph-user": (graph, save_graph, load_graph, "users", lambda g: bumped(g.users, by=g.num_users), "user id out of range"),
    "graph-item": (graph, save_graph, load_graph, "items", lambda g: bumped(g.items, at=0, by=-1), "item id out of range"),
    "graph-chunk": (graph, save_graph, load_graph, "chunks", lambda g: bumped(g.chunks, by=1), "chunk ordinal out of range"),
    "graph-length": (graph, save_graph, load_graph, "items", lambda g: g.items[:-1], "disagree on length"),
    "graph-ids": (graph, save_graph, load_graph, "user_ids.raw", lambda g: g.user_ids.raw[:-1],
                  "num_users is 3, but user_ids holds 2 raw ids"),
    "embedding-nan": (table, save_embeddings, load_embeddings, "item_vectors", lambda t: nan_at(t.item_vectors), "non-finite"),
    "embedding-inf": (table, save_embeddings, load_embeddings, "user_vectors", lambda t: np.full_like(t.user_vectors, np.inf), "non-finite"),
    "embedding-dim": (table, save_embeddings, load_embeddings, "user_vectors", lambda t: np.empty((3, 0)), "dimension must be >= 1"),
    "clusters-norm": (clusters, save_clusters, load_clusters, "centroids", lambda c: 2 * c.centroids, "unit norm"),
    "clusters-interest": (clusters, save_clusters, load_clusters, "item_to_interest", lambda c: bumped(c.item_to_interest, by=2), r"outside \[0, K\)"),
    "init-count": (init, save_init, load_init, "support_n0", lambda a: bumped(a.support_n0, by=-a.support_n0[-1]), "support counts must be positive"),
    "init-interest": (init, save_init, load_init, "support_k", lambda a: bumped(a.support_k, by=2), r"support_k must lie in \[0, 2\)"),
    "init-ptr": (init, save_init, load_init, "support_ptr", lambda a: a.support_ptr[[0, 2, 1, 3]], "support_ptr must not decrease"),
    "fit-traces": (chunk_fit, write_fields, load_chunk_fit, "changed", lambda f: f.changed[:-1], "3 log-joints and 2 change counts"),
    "fit-z-2d": (chunk_fit, write_fields, load_chunk_fit, "z", lambda f: f.z[None], "z must be a 1-d int64 array"),
    "fit-z-float": (chunk_fit, write_fields, load_chunk_fit, "z", lambda f: f.z.astype(np.float64), "z must be a 1-d int64 array"),
    "fit-trace-2d": (chunk_fit, write_fields, load_chunk_fit, "log_joint", lambda f: np.c_[f.log_joint, f.log_joint],
                     "log_joint must be 1-d, got a 2-d value"),
    "clusters-history-2d": (clusters, save_clusters, load_clusters, "objective_history",
                            lambda c: np.c_[c.objective_history, c.objective_history], "objective_history must be 1-d"),
    "embedding-losses-2d": (table, save_embeddings, load_embeddings, "epoch_losses",
                            lambda t: np.c_[t.epoch_losses, t.epoch_losses], "epoch_losses must be 1-d"),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_value_raises_when_made_and_when_loaded(case, tmp_path):
    make, save, load, member, bad, message = CASES[case]
    good = make()
    value = bad(good)
    name, _, nested = member.partition(".")
    field_value = dataclasses.replace(getattr(good, name), **{nested: value}) if nested else value
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(good, **{name: field_value})
    # the loader builds the artifact from the file's members, so it refuses
    # a file holding the bad member the same way, naming the file
    path = tmp_path / "artifact.npz"
    save(good, path)
    with np.load(path) as z:
        members = {**z, member: value}
    write_npz(path, None, **members)
    with pytest.raises(ValueError, match=re.escape(str(path)) + f": .*{message}.*; rebuild it in a new output directory"):
        load(path)
    # the good artifact is frozen, so it stays checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(good, name, field_value)


def test_split_and_regroup_check_the_graphs_they_make():
    # a graph whose user count was lowered after its check (object.__setattr__
    # passes the frozen guard): split's train graph and a regrouped graph are
    # checked when made, so both raise instead of passing the bad ids on
    g = graph()
    object.__setattr__(g, "num_users", 2)
    with pytest.raises(ValueError, match="user id out of range"):
        split(g, SplitSpec(t_split=2))
    with pytest.raises(ValueError, match="user id out of range"):
        regroup_chunks(g, 2)
    train, test = split(graph(), SplitSpec(t_split=2))
    assert (train.num_edges, [len(s) for s in test]) == (4, [1])


def test_raw_edges_of_unequal_length_refused():
    with pytest.raises(ValueError, match="disagree on length"):
        from_raw_edges([0, 1], [0], [0, 0])


def indexes():
    """A fitted chunk's ``ChunkTables`` and ``InterestIndex``, the static
    mixture's, and the chunk's ``AnnIndex`` and popularity ``Ranking``."""
    slc = chunk()
    rank = popularity_ranking(slc)
    tables, static = chunk_tables(fit_chunk(slc, init(), SamplerConfig(seed=0))), mle_mixture(init())
    return {
        "tables": tables,
        "static": static,
        "index": build_index(tables, 5, slc.item_pool, rank),
        "static-index": build_index(static, 5, slc.item_pool, rank),
        "ann": ann_encode_items(slc, table(), rank, np.ones(3, bool)),
        "ranking": rank,
    }


# each artifact made in memory, and where it has a file, its save and load
READ_ONLY = {
    "graph": (graph, save_graph, load_graph),
    "embedding": (table, save_embeddings, load_embeddings),
    "clusters": (clusters, save_clusters, load_clusters),
    "init": (init, save_init, load_init),
    **{name: (lambda name=name: indexes()[name], None, None) for name in indexes()},
}


@pytest.mark.parametrize("case", READ_ONLY)
def test_arrays_are_read_only(case, tmp_path):
    # an in-place write to any array of a made or loaded artifact raises,
    # each array of a tuple field and of a nested id map or ranking among
    # them, so a check passed when it was made still holds
    make, save, load = READ_ONLY[case]
    made = [make()]
    if save is not None:
        save(made[0], tmp_path / "artifact.npz")
        made.append(load(tmp_path / "artifact.npz"))
    for obj in made:
        arrays = list(arrays_of(obj))
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        assert len(arrays) >= 2, case


def arrays_of(obj):
    """Each array of the dataclass ``obj``: a field's, a tuple field's and
    a nested dataclass's."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                yield a
            elif dataclasses.is_dataclass(a):
                yield from arrays_of(a)


def test_histories_are_tuples(tmp_path):
    save_embeddings(table(), tmp_path / "embeddings.npz")
    save_clusters(clusters(), tmp_path / "clusters.npz")
    for emb in (table(), load_embeddings(tmp_path / "embeddings.npz")):
        assert emb.epoch_losses == (0.5,)
    for c in (clusters(), load_clusters(tmp_path / "clusters.npz")):
        assert type(c.objective_history) is tuple and len(c.objective_history) >= 1


# each stage artifact, its save and load, and its file's members in order
LAYOUT = {
    "graph": (graph, save_graph, load_graph,
              ["users", "items", "chunks", "num_users", "num_items", "num_chunks", "user_ids.raw", "item_ids.raw"]),
    "embedding": (table, save_embeddings, load_embeddings, ["user_vectors", "item_vectors", "epoch_losses"]),
    "clusters": (clusters, save_clusters, load_clusters, ["item_to_interest", "centroids", "objective_history"]),
    "init": (init, save_init, load_init,
             ["num_users", "num_items", "num_interests", "alpha", "beta", "support_ptr", "support_k",
              "support_n0", "item_interest", "item_n0"]),
    "chunk-fit": (chunk_fit, write_fields, load_chunk_fit,
                  ["chunk", "z", "log_joint", "changed", "converged", "underflow_events"]),
}


@pytest.mark.parametrize("case", LAYOUT)
def test_file_holds_the_fields_and_loads_them_back(case, tmp_path):
    # one member per field, a nested id map's as user_ids.raw, then the
    # record; the loaded artifact has each field's type and bits
    make, save, load, members = LAYOUT[case]
    made, path = make(), tmp_path / "artifact.npz"
    save(made, path, {"data": "d"})
    with np.load(path) as z:
        assert z.files == members + ["source"]
    loaded = load(path)
    assert type(loaded) is type(made)
    for member in members:
        a, b = made, loaded
        for name in member.split("."):
            a, b = getattr(a, name), getattr(b, name)
        assert type(a) is type(b), member
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), member


@pytest.mark.parametrize("case", LAYOUT)
def test_file_with_other_members_refused(case, tmp_path):
    # a member too many or too few is refused, naming the file and the
    # remedy, though every field's value is good
    make, save, load, members = LAYOUT[case]
    path = tmp_path / "artifact.npz"
    save(make(), path)
    with np.load(path) as z:
        good = dict(z)
    for damaged in ({**good, "extra": np.zeros(1)}, {k: v for k, v in good.items() if k != members[-1]}):
        write_npz(path, {"data": "d"}, **damaged)
        with pytest.raises(ValueError, match=r"artifact\.npz holds no .*rebuild it in a new output directory"):
            load(path)
