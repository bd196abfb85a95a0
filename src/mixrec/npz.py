"""The one writer of a run's files, and the reader of an artifact's record.

``write_text`` and ``write_npz`` write a file whole, in one pass, to
``<name>.tmp`` beside its path and rename it into place. Every artifact
(graph, embeddings, clusters, t=0 counts, chunk models) is a ``write_npz``
file: integer members are deflated at zlib level 1, which shrinks index
arrays several fold in a fraction of the time of ``np.savez_compressed``'s
level 6, and every other member is stored, since deflate shrinks float
vectors by a few percent at a tenfold cost; ``np.load`` reads any mix of
the two. Members are dated 1980-01-01, the earliest date a zip holds, and
the record is the JSON member ``source``: an artifact's bytes depend only
on its arrays and record.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["write_text", "write_npz", "read_source"]


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
