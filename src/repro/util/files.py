"""Durable file writes shared by the engine checkpoint and the EDB store.

Both :func:`repro.runtime.checkpoint.write_checkpoint` and
:meth:`repro.edb.store.EdbStore.checkpoint` replace one file with a
new version that must never be seen torn, and the WAL fsyncs its
directory after creating or dropping segments.
"""

from __future__ import annotations

import os
import threading


def fsync_directory(path):
    """Best-effort fsync of a directory, so renames and creates in it
    survive a crash; a no-op where directories cannot be opened
    (e.g. Windows)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path, text):
    """Replace ``path`` with ``text`` atomically and durably.

    The text is staged to ``<path>.tmp.<pid>.<tid>``, fsynced, and moved
    into place with :func:`os.replace`; the containing directory is
    then fsynced so the rename itself survives a crash.  A crash at any
    point leaves either the previous file or the new one at ``path``,
    never a torn one; a failed write removes its staging file.  The
    staging name includes both pid and thread id so concurrent writers
    of the same path can never unlink or rename each other's staging
    file.
    """
    tmp_path = "%s.tmp.%d.%d" % (path, os.getpid(), threading.get_ident())
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        fsync_directory(os.path.dirname(os.path.abspath(path)))
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
