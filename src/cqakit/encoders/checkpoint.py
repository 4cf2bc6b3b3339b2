"""Versioned tensor container for model checkpoints.

Layout: a magic line, a JSON manifest line (metadata plus a tensor
directory with dtypes/shapes/offsets and a payload checksum), then the raw
tensor bytes concatenated in directory order. Tensors are stored as
little-endian IEEE-754 floats regardless of host byte order.

Files are replaced atomically. The writer hashes and writes each tensor's
buffer without copying it, in sorted-name order; the reader reads the payload
into one buffer and returns the tensors as views of it, so the directory must
list the tensors in sorted-name order and tile the payload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from ..files import replacing
from .numerics import FlatTensors

MAGIC = b"CQAKIT-CKPT v1\n"

# stored code -> native dtype the tensor is read into
_DTYPES = {"<f8": np.dtype(np.float64), "<f4": np.dtype(np.float32)}
_ENTRY_FIELDS = {"name": str, "dtype": str, "shape": list, "offset": int, "nbytes": int}


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def save_checkpoint(path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write ``meta`` and ``tensors``, replacing ``path`` atomically.

    Each tensor's buffer is hashed and written as it is, with no copy, unless
    it must be converted to its stored little-endian dtype.
    """
    directory, buffers = [], []
    digest = hashlib.sha256()
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        code = "<f8" if arr.dtype == np.float64 else "<f4"
        arr = arr.astype(code, copy=False)
        directory.append(
            {"name": name, "dtype": code, "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes}
        )
        digest.update(arr)
        buffers.append(arr)
        offset += arr.nbytes
    manifest = {"meta": meta, "tensors": directory, "payload_sha256": digest.hexdigest()}
    with replacing(path, "xb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for arr in buffers:
            fh.write(arr)


def load_checkpoint(path) -> tuple[dict, FlatTensors]:
    """Read ``(meta, tensors)``; any malformed part raises :class:`CheckpointError`.

    The payload is read into one buffer, ``tensors.flat`` (bytes), and each tensor
    is a view of it; where the host byte order is not the stored one, the bytes are
    swapped in place. The directory must list the tensors in sorted-name order and
    tile the payload: each tensor starts where the one listed before it ends, and
    the last ends where the payload does.
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
    tensors = FlatTensors()
    end = 0
    for entry in manifest["tensors"]:
        name, offset, arr = _read_tensor(path, entry, payload)
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name} listed twice")
        last = next(reversed(tensors), "")
        if name < last:
            raise CheckpointError(f"{path}: {name}: listed after {last}, not in sorted-name order")
        if offset != end:
            raise CheckpointError(
                f"{path}: {name}: starts at byte {offset}, not where the tensor before it ends ({end})"
            )
        tensors[name] = arr
        end += arr.nbytes
    if end != payload.size:
        raise CheckpointError(f"{path}: {payload.size - end} payload bytes follow the last tensor")
    tensors.flat = payload
    return manifest["meta"], tensors


def _read_tensor(path, entry, payload: np.ndarray) -> tuple[str, int, np.ndarray]:
    """An entry's name and offset, and its tensor as a view of ``payload``."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"{path}: tensor entry is not an object")
    for key, kind in _ENTRY_FIELDS.items():
        if not isinstance(entry.get(key), kind):
            raise CheckpointError(f"{path}: tensor entry needs {key!r} of type {kind.__name__}")
    name, shape, offset, nbytes = entry["name"], entry["shape"], entry["offset"], entry["nbytes"]
    dtype = _DTYPES.get(entry["dtype"])
    if dtype is None:
        raise CheckpointError(f"{path}: {name}: unsupported dtype {entry['dtype']!r}")
    if not all(isinstance(n, int) and n >= 0 for n in shape):
        raise CheckpointError(f"{path}: {name}: bad shape {shape}")
    count = math.prod(shape)
    if nbytes != count * dtype.itemsize or offset < 0 or offset + nbytes > payload.size:
        raise CheckpointError(f"{path}: {name}: {nbytes} bytes at {offset} do not hold shape {shape}")
    stored = payload[offset : offset + nbytes].view(entry["dtype"])
    if not stored.dtype.isnative:  # swapped in place, so the tensor stays a view of the payload
        stored = stored.byteswap(inplace=True).view(dtype)
    return name, offset, stored.reshape(shape)
