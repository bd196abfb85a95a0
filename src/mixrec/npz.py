"""The one writer of a run's files, and the reader of an artifact's record.

``write_text`` and ``write_npz`` write a file whole, in one pass, to
``<name>.tmp`` beside its path and rename it into place. Every artifact
(graph, embeddings, clusters, t=0 counts, chunk fits) is a ``write_npz``
file: integer members are deflated at zlib level 1, which shrinks index
arrays several fold in a fraction of the time of ``np.savez_compressed``'s
level 6, and every other member is stored, since deflate shrinks float
vectors by a few percent at a tenfold cost; ``np.load`` reads any mix of
the two. Members are dated 1980-01-01, the earliest date a zip holds, and
the record is the JSON member ``source``: an artifact's bytes depend only
on its arrays and record.

Each artifact is its checked dataclass, written by ``write_fields`` and
read by ``read_fields``: one member per field, in field order, a nested
dataclass's fields as ``<field>.<name>`` (``user_ids.raw``). Reading makes
the type from the members, so its own ``__post_init__`` checks and freezes
every load; a file whose members are not its fields, or fail its checks,
is refused naming the file.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from functools import reduce
from pathlib import Path
from typing import get_type_hints

import numpy as np

__all__ = ["write_text", "write_npz", "read_source", "write_fields", "read_fields"]


@contextmanager
def _replacing(path):
    """A binary file at ``<name>.tmp`` beside ``path``, renamed to it after the block."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        yield fh
    os.replace(tmp, path)


def write_text(path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text.encode())


def write_npz(path, source: dict | None, **arrays) -> None:
    """Write ``arrays`` as ``np.savez`` does, each as member ``<name>.npy``,
    and the record ``source``, unless None, as the JSON string ``source``."""
    if source is not None:
        arrays["source"] = np.asarray(json.dumps(source))
    with _replacing(path) as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as zf:
        for name, a in arrays.items():
            a = np.asanyarray(a)
            member = io.BytesIO()
            np.lib.format.write_array(member, a, allow_pickle=False)
            kind = zipfile.ZIP_DEFLATED if a.dtype.kind in "iu" else zipfile.ZIP_STORED
            zf.writestr(zipfile.ZipInfo(f"{name}.npy", (1980, 1, 1, 0, 0, 0)), member.getbuffer(), compress_type=kind, compresslevel=1)


def read_source(path) -> dict:
    """The record of the ``.npz`` at ``path``; ``ValueError`` naming it if none can be read."""
    try:
        # opened here, since np.load leaks the file when it is no zip
        with open(path, "rb") as fh, np.load(fh) as z:
            return json.loads(str(z["source"]))
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} records nothing this version reads ({exc})") from None


def _fields(cls) -> list:
    """Each field of the dataclass ``cls``: its name and, for a field whose
    type is a dataclass, that type, else None."""
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name] if is_dataclass(hints[f.name]) else None) for f in fields(cls)]


def _members(cls, prefix: str = "") -> list[str]:
    """The member names of a ``cls`` artifact, in field order."""
    return [m for name, sub in _fields(cls) for m in (_members(sub, f"{prefix}{name}.") if sub else [prefix + name])]


def write_fields(obj, path, source: dict | None = None) -> None:
    """Write the dataclass ``obj`` with ``write_npz``, one member per field
    in field order; a nested dataclass's fields as ``<field>.<name>``."""
    write_npz(path, source, **{m: reduce(getattr, m.split("."), obj) for m in _members(type(obj))})


def read_fields(cls, path):
    """The ``cls`` that ``write_fields`` wrote to ``path``, made from its
    members, so ``cls`` checks and freezes it; a 0-d member is read as its
    Python scalar. A file whose members but ``source`` are not exactly the
    artifact's, or that ``cls`` refuses, raises ``ValueError`` naming it."""
    with open(path, "rb") as fh, np.load(fh) as z:
        members = {k: z[k] for k in z.files if k != "source"}
    want = _members(cls)
    if sorted(members) != sorted(want):
        missing, extra = [m for m in want if m not in members], sorted(set(members) - set(want))
        raise ValueError(f"{path} holds no {cls.__name__} in this version's layout (missing {missing}, "
                         f"extra {extra}); rebuild it in a new output directory")
    try:
        return _make(cls, {k: a.item() if a.ndim == 0 else a for k, a in members.items()})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}; rebuild it in a new output directory") from None


def _make(cls, members: dict, prefix: str = ""):
    return cls(**{name: _make(sub, members, f"{prefix}{name}.") if sub else members[prefix + name]
                  for name, sub in _fields(cls)})
