"""What every file the package reads and writes shares: datasets, checkpoints,
training logs and metric reports are replaced atomically, their JSON is written in
one form, and their JSON fields are read by one rule; the text files users write,
formula and config files, are read by one line rule."""

from __future__ import annotations

import contextlib
import json
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


def text_lines(path) -> list[tuple[int, str]]:
    """The lines of the UTF-8 text file ``path`` that hold more than a comment, as
    ``(line number, text)`` pairs: ``#`` starts a comment that runs to the end of its
    line, and each text is stripped. A file that is not UTF-8 raises ``ValueError``
    naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    return [(lineno, text) for lineno, line in enumerate(lines, start=1) if (text := line.split("#", 1)[0].strip())]


def canonical_json(value) -> str:
    """``value`` as JSON text with sorted keys and no whitespace, the one form of
    every JSON text the package writes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


_KIND_NAMES = {int: "a non-negative integer", str: "a string", dict: "an object", list: "a list"}


def read_fields(mapping: dict, kinds: dict, where: str, error: type[Exception]) -> list:
    """The values of ``mapping`` at the keys of ``kinds``, in that order.

    ``kinds`` maps each key to its type (``int``, ``str``, ``dict`` or ``list``),
    or to ``(type, default)`` when the key may be absent. An ``int`` is never a
    bool and never below 0. Any other value, or an absent key without a default,
    raises ``error`` naming the key after ``where``.
    """
    values = []
    for key, kind in kinds.items():
        kind, *default = kind if isinstance(kind, tuple) else (kind,)
        value = mapping.get(key, *default)
        if not isinstance(value, kind) or isinstance(value, bool) or (kind is int and value < 0):
            raise error(f"{where} {key!r} is not {_KIND_NAMES[kind]}")
        values.append(value)
    return values
