"""Temporal bipartite engagement graphs: loading, re-chunking, splitting.

An engagement graph is an immutable bag of (user, item, chunk) triples with
dense 0-based ids and contiguous 0-based time chunks. Duplicate triples are
kept as distinct engagements. All other modules consume read-only views of
this structure.

``save_graph`` and ``load_graph`` write and read a graph field by field
(``mixrec.npz.write_fields``): its edge arrays, its three sizes and its
two id maps' ``user_ids.raw`` and ``item_ids.raw``. The graph checks what
it reads; a ``graph.npz`` in an earlier layout is refused.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .npz import read_fields, write_fields, write_text

__all__ = [
    "GraphFormatError",
    "EmptyInputError",
    "IdMap",
    "EngagementGraph",
    "ChunkSlice",
    "SplitSpec",
    "load_edge_list",
    "write_edge_list",
    "regroup_chunks",
    "split",
    "graph_stats",
    "format_stats",
    "save_graph",
    "load_graph",
]


class GraphFormatError(ValueError):
    """Malformed edge-list record (carries the offending 1-based line number)."""


class EmptyInputError(ValueError):
    """Edge-list file contained no records."""


@dataclass(frozen=True)
class IdMap:
    """Bijection between raw external ids and dense indices [0, n).

    ``raw`` is sorted ascending, so dense index i maps to raw id raw[i] and
    the inverse is a binary search. It is read-only once the map is made.
    """

    raw: np.ndarray

    def __post_init__(self):
        _freeze_fields(self, "raw")

    def __len__(self) -> int:
        return len(self.raw)

    def to_dense(self, raw_ids) -> np.ndarray:
        raw_ids = np.asarray(raw_ids, dtype=np.int64)
        dense = np.searchsorted(self.raw, raw_ids)
        if np.any(dense >= len(self.raw)) or np.any(self.raw[np.minimum(dense, len(self.raw) - 1)] != raw_ids):
            raise KeyError("raw id not present in map")
        return dense

    def to_raw(self, dense_ids) -> np.ndarray:
        return self.raw[np.asarray(dense_ids, dtype=np.int64)]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _freeze_fields(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` read-only: an
    array as ``np.asarray`` of it, a tuple of arrays as a tuple of them. A
    field that already holds an array keeps it, so its maker can no longer
    write it either."""
    for name in names:
        v = getattr(obj, name)
        object.__setattr__(obj, name, tuple(map(_freeze, v)) if isinstance(v, tuple) else _freeze(np.asarray(v)))


def _tuple_field(obj, name: str, kind) -> None:
    """Store field ``name`` of the frozen dataclass ``obj`` as a tuple of
    ``kind``; one not 1-d, or with an entry that ``kind`` would change (1.5
    as an ``int``), raises ``ValueError``."""
    raw = getattr(obj, name)
    if np.ndim(raw) != 1:
        raise ValueError(f"{name} must be 1-d, got a {np.ndim(raw)}-d value")
    values = tuple(map(kind, raw))
    for v, r in zip(values, raw):
        if v != r and v == v:  # a NaN, equal to nothing, stays NaN
            raise ValueError(f"{name} must hold {kind.__name__} values, got {r}")
    object.__setattr__(obj, name, values)


@dataclass(frozen=True)
class ChunkSlice:
    """All engagements of one time chunk, grouped by user.

    ``users``/``items`` are parallel arrays in canonical order: stable-sorted
    by user, original file order within a user. ``user_ptr`` indexes that
    grouping: the engagements of ``unique_users[j]`` occupy rows
    ``user_ptr[j]:user_ptr[j+1]``. Duplicate (user, item) pairs stay distinct.
    """

    chunk: int
    users: np.ndarray
    items: np.ndarray
    unique_users: np.ndarray
    user_ptr: np.ndarray

    @staticmethod
    def from_edges(chunk: int, users: np.ndarray, items: np.ndarray) -> "ChunkSlice":
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        order = np.argsort(users, kind="stable")
        users = users[order]
        items = items[order]
        unique_users, counts = np.unique(users, return_counts=True)
        user_ptr = np.concatenate([[0], np.cumsum(counts)])
        return ChunkSlice(
            chunk=chunk,
            users=_freeze(users),
            items=_freeze(items),
            unique_users=_freeze(unique_users),
            user_ptr=_freeze(user_ptr.astype(np.int64)),
        )

    def __len__(self) -> int:
        return len(self.users)

    @cached_property
    def _pool(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The chunk's items sorted once, all read-only: ``item_pool``, the
        distinct items ascending; ``item_rows``, each engagement's position
        in it; ``item_counts``, each pool item's engagement count."""
        return tuple(map(_freeze, np.unique(self.items, return_inverse=True, return_counts=True)))

    item_pool = property(lambda self: self._pool[0])
    item_rows = property(lambda self: self._pool[1])
    item_counts = property(lambda self: self._pool[2])

    def user_items(self, user: int) -> np.ndarray:
        """Items engaged by ``user`` in this chunk (duplicates preserved)."""
        j = np.searchsorted(self.unique_users, user)
        if j >= len(self.unique_users) or self.unique_users[j] != user:
            return np.empty(0, dtype=np.int64)
        return self.items[self.user_ptr[j]:self.user_ptr[j + 1]]

    def iter_users(self):
        """Yield (user, items array) for every user active in this chunk."""
        for j, u in enumerate(self.unique_users):
            yield int(u), self.items[self.user_ptr[j]:self.user_ptr[j + 1]]


@dataclass(frozen=True)
class EngagementGraph:
    """Time-chunked bipartite engagement multiset with dense ids, checked
    when it is made: parallel edge arrays, every id and chunk ordinal in
    range, one raw id per user and per item. The arrays are then read-only."""

    users: np.ndarray
    items: np.ndarray
    chunks: np.ndarray
    num_users: int
    num_items: int
    num_chunks: int
    user_ids: IdMap
    item_ids: IdMap

    def __post_init__(self):
        if not (len(self.users) == len(self.items) == len(self.chunks)):
            raise ValueError("parallel edge arrays disagree on length")
        for what, a, n in (("user id", self.users, self.num_users), ("item id", self.items, self.num_items),
                           ("chunk ordinal", self.chunks, self.num_chunks)):
            if len(a) and (a.min() < 0 or a.max() >= n):
                raise ValueError(f"{what} out of range")
            a.setflags(write=False)
        for what, n, ids in (("user", self.num_users, self.user_ids), ("item", self.num_items, self.item_ids)):
            if n != len(ids):
                raise ValueError(f"num_{what}s is {n}, but {what}_ids holds {len(ids)} raw ids")

    @property
    def num_edges(self) -> int:
        return len(self.users)

    def slice(self, chunk: int) -> ChunkSlice:
        mask = self.chunks == chunk
        return ChunkSlice.from_edges(chunk, self.users[mask], self.items[mask])


@dataclass(frozen=True)
class SplitSpec:
    """Train/test boundary: chunks [0, t_split) train, [t_split, T) test."""

    t_split: int


def _parse_lines(path: Path, delimiter: str | None):
    """Slow path: parse line by line so errors carry a line number."""
    rows = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(delimiter)
            if lineno == 1 and not _numeric_row(parts):
                continue  # header row
            if len(parts) != 3 or not _numeric_row(parts):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 3 integer columns, got {line!r}"
                )
            rows.append((int(parts[0]), int(parts[1]), int(parts[2])))
    return rows


def _numeric_row(parts) -> bool:
    try:
        [int(p) for p in parts]
        return True
    except ValueError:
        return False


def load_edge_list(path, delimiter: str = "\t") -> EngagementGraph:
    """Load a ``user<delim>item<delim>chunk`` text file into a graph.

    Raw ids are re-indexed densely; chunk ordinals are compacted to
    contiguous 0-based values preserving order. A non-numeric first row is
    treated as a header and skipped. Empty files and malformed records raise.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    delim = None if delimiter in ("", " ", None) else delimiter
    skip = 0
    with open(path, "r") as fh:
        first = fh.readline().strip()
    if first and not _numeric_row(first.split(delim)):
        skip = 1
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty-input warning; raised below
            arr = np.loadtxt(path, dtype=np.int64, delimiter=delim, skiprows=skip, ndmin=2)
    except ValueError:
        # Re-parse slowly so the error names the offending line.
        arr = np.asarray(_parse_lines(path, delim), dtype=np.int64).reshape(-1, 3)
    if arr.size == 0:
        raise EmptyInputError(f"{path}: no engagement records")
    if arr.shape[1] != 3:
        raise GraphFormatError(f"{path}: expected 3 integer columns, got {arr.shape[1]}")
    return from_raw_edges(arr[:, 0], arr[:, 1], arr[:, 2])


def write_edge_list(g: EngagementGraph, path) -> None:
    """Write ``g`` as ``load_edge_list`` reads it: ``user<TAB>item<TAB>chunk`` lines of its dense ids."""
    rows = zip(g.users.tolist(), g.items.tolist(), g.chunks.tolist())
    write_text(path, "".join(f"{u}\t{i}\t{t}\n" for u, i, t in rows))


def from_raw_edges(raw_users, raw_items, raw_chunks) -> EngagementGraph:
    """Build a graph from raw-id edge arrays (shared by loader and synth)."""
    raw_users = np.asarray(raw_users, dtype=np.int64)
    raw_items = np.asarray(raw_items, dtype=np.int64)
    raw_chunks = np.asarray(raw_chunks, dtype=np.int64)
    if len(raw_users) == 0:
        raise EmptyInputError("no engagement records")
    uniq_u, users = np.unique(raw_users, return_inverse=True)
    uniq_i, items = np.unique(raw_items, return_inverse=True)
    uniq_t, chunks = np.unique(raw_chunks, return_inverse=True)
    return EngagementGraph(
        users=users.astype(np.int64),
        items=items.astype(np.int64),
        chunks=chunks.astype(np.int64),
        num_users=len(uniq_u),
        num_items=len(uniq_i),
        num_chunks=len(uniq_t),
        user_ids=IdMap(uniq_u),
        item_ids=IdMap(uniq_i),
    )


def regroup_chunks(g: EngagementGraph, factor: int) -> EngagementGraph:
    """Coarsen time chunks by integer division: chunk -> chunk // factor."""
    if factor < 1:
        raise ValueError(f"regroup factor must be >= 1, got {factor}")
    if factor == 1:
        return g
    chunks = g.chunks // factor
    return EngagementGraph(
        users=g.users,
        items=g.items,
        chunks=chunks,
        num_users=g.num_users,
        num_items=g.num_items,
        num_chunks=int(chunks.max()) + 1 if len(chunks) else 0,
        user_ids=g.user_ids,
        item_ids=g.item_ids,
    )


def split(g: EngagementGraph, spec: SplitSpec) -> tuple[EngagementGraph, list[ChunkSlice]]:
    """Split into a train graph (chunks < t_split, relabeled to the t=0
    corpus) and one test ChunkSlice per held-out chunk, in original order.

    Train and test share the parent graph's dense id space, so downstream
    count tables line up across the boundary. No engagement is lost or
    duplicated.
    """
    if not (1 <= spec.t_split <= g.num_chunks):
        raise ValueError(
            f"t_split must lie in [1, {g.num_chunks}], got {spec.t_split}"
        )
    train_mask = g.chunks < spec.t_split
    train = EngagementGraph(
        users=g.users[train_mask],
        items=g.items[train_mask],
        chunks=np.zeros(int(train_mask.sum()), dtype=np.int64),
        num_users=g.num_users,
        num_items=g.num_items,
        num_chunks=1,
        user_ids=g.user_ids,
        item_ids=g.item_ids,
    )
    test = [g.slice(t) for t in range(spec.t_split, g.num_chunks)]
    return train, test


def graph_stats(g: EngagementGraph) -> dict:
    """Key/value summary: sizes, edge count, degree extremes."""
    user_deg = np.bincount(g.users, minlength=g.num_users)
    item_deg = np.bincount(g.items, minlength=g.num_items)
    return {
        "num_users": g.num_users,
        "num_items": g.num_items,
        "num_chunks": g.num_chunks,
        "num_edges": g.num_edges,
        "user_degree_min": int(user_deg.min()) if g.num_users else 0,
        "user_degree_max": int(user_deg.max()) if g.num_users else 0,
        "item_degree_min": int(item_deg.min()) if g.num_items else 0,
        "item_degree_max": int(item_deg.max()) if g.num_items else 0,
    }


def format_stats(stats: dict) -> str:
    return "\n".join(f"{k}={v}" for k, v in stats.items())


save_graph = write_fields
load_graph = partial(read_fields, EngagementGraph)
