"""Atomic file replacement for every file the package writes: datasets, checkpoints,
training logs and metric reports."""

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


def write_lines(path, lines) -> None:
    """Write each of ``lines`` and a LF in UTF-8, replacing ``path`` atomically."""
    with replacing(path, "x", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
