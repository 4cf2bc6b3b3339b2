"""The checkpoint file container.

Layout: a magic line, a JSON manifest line (the caller's metadata, its tensor
directory and a payload checksum), then the payload bytes. This module hides
that framing and nothing else: it checks the magic, that the manifest is an
object with a ``meta`` object and a ``tensors`` list, and the checksum. What
the directory must say, and how the payload is viewed, is the caller's rule
(:meth:`cqakit.training.Checkpoint.load`).

Files are replaced atomically. The writer hashes and writes each payload vector
as it is, with no copy; the reader reads the payload into one buffer, also from
a pipe.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from ..files import replacing

MAGIC = b"CQAKIT-CKPT v1\n"


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def save_checkpoint(path, meta: dict, directory: list, vectors) -> None:
    """Write ``meta`` and ``directory``, then the bytes of each of ``vectors`` in
    order as the payload, replacing ``path`` atomically."""
    digest = hashlib.sha256()
    for vector in vectors:
        digest.update(vector)
    manifest = {"meta": meta, "tensors": directory, "payload_sha256": digest.hexdigest()}
    with replacing(path, "xb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for vector in vectors:
            fh.write(vector)


def load_checkpoint(path) -> tuple[dict, list, np.ndarray]:
    """Read ``(meta, directory, payload)``, the payload as one ``uint8`` buffer.

    A bad magic line, a manifest that is not such an object, and a payload
    whose checksum does not match raise :class:`CheckpointError`.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        manifest_line = fh.readline()
        size = os.fstat(fh.fileno()).st_size - len(MAGIC) - len(manifest_line)  # 0 or less for a pipe
        payload = np.empty(max(size, 0), dtype=np.uint8)
        payload = payload[: fh.readinto(payload)]
        rest = fh.read()  # a pipe, or a file that grew
        if rest:
            payload = np.concatenate([payload, np.frombuffer(rest, dtype=np.uint8)])
    try:
        manifest = json.loads(manifest_line)
    except (ValueError, RecursionError) as exc:  # bad JSON, bytes that are not UTF-8, deep nesting
        raise CheckpointError(f"{path}: bad manifest: {exc}") from None
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("meta"), dict)
        and isinstance(manifest.get("tensors"), list)
    ):
        raise CheckpointError(f"{path}: manifest is not an object with 'meta' and 'tensors' fields")
    if hashlib.sha256(payload).hexdigest() != manifest.get("payload_sha256"):
        raise CheckpointError(f"{path}: payload checksum mismatch")
    return manifest["meta"], manifest["tensors"], payload
