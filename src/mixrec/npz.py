"""The one ``.npz`` writer of the stored artifacts.

Every artifact (graph, embeddings, clusters, t=0 counts, chunk models) is
written by ``write_npz``: integer members are deflated at zlib level 1 and
every other member is stored. Index arrays shrink several fold even at
level 1, which takes a fraction of the time of ``np.savez_compressed``'s
level 6; float vectors shrink by a few percent at a tenfold cost to write
and read, so they are stored. ``np.load`` reads any mix of the two, so
files written at another level, or all stored, still load.
"""

from __future__ import annotations

import io
import zipfile

import numpy as np

__all__ = ["write_npz"]


def write_npz(path, **arrays) -> None:
    """Write ``arrays`` to ``path`` as ``np.savez`` does, each as member
    ``<name>.npy``, with integer members deflated at level 1."""
    with zipfile.ZipFile(path, "w", allowZip64=True) as zf:
        for name, a in arrays.items():
            a = np.asanyarray(a)
            member = io.BytesIO()
            np.lib.format.write_array(member, a, allow_pickle=False)
            kind = zipfile.ZIP_DEFLATED if a.dtype.kind in "iu" else zipfile.ZIP_STORED
            zf.writestr(f"{name}.npy", member.getbuffer(), compress_type=kind, compresslevel=1)
