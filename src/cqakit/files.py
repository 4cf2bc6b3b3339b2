"""Atomic file replacement for the dataset and checkpoint writers."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def replacing(path, mode: str, **options):
    """Open ``<path>.tmp-<pid>`` for writing, to replace ``path`` atomically.

    ``mode`` is ``"x"`` or ``"xb"``, so the file gets the permissions ``open``
    gives any new file. It is moved onto ``path`` by ``os.replace`` when the
    block ends; on any exception it is removed and ``path`` is left as it was.
    """
    temporary = f"{os.fspath(path)}.tmp-{os.getpid()}"
    fh = open(temporary, mode, **options)
    try:
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise
