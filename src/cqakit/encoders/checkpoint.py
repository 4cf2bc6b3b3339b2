"""Versioned tensor container for model checkpoints.

Layout: a magic line, a JSON manifest line (metadata plus a tensor
directory with dtypes/shapes/offsets and a payload checksum), then the raw
tensor bytes concatenated in directory order. Tensors are stored as
little-endian IEEE-754 floats regardless of host byte order.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

MAGIC = b"CQAKIT-CKPT v1\n"

# stored code -> native dtype the tensor is read into
_DTYPES = {"<f8": np.dtype(np.float64), "<f4": np.dtype(np.float32)}
_ENTRY_FIELDS = {"name": str, "dtype": str, "shape": list, "offset": int, "nbytes": int}


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def save_checkpoint(path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    directory = []
    chunks = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        code = "<f8" if arr.dtype == np.float64 else "<f4"
        raw = arr.astype(code, copy=False).tobytes()
        directory.append(
            {"name": name, "dtype": code, "shape": list(arr.shape), "offset": offset, "nbytes": len(raw)}
        )
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    manifest = {
        "meta": meta,
        "tensors": directory,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        fh.write(payload)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read ``(meta, tensors)``; any malformed part raises :class:`CheckpointError`."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        manifest_line = fh.readline()
        payload = fh.read()
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
    tensors = {}
    for entry in manifest["tensors"]:
        name, arr = _read_tensor(path, entry, payload)
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name} listed twice")
        tensors[name] = arr
    return manifest["meta"], tensors


def _read_tensor(path, entry, payload: bytes) -> tuple[str, np.ndarray]:
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
    if nbytes != count * dtype.itemsize or offset < 0 or offset + nbytes > len(payload):
        raise CheckpointError(f"{path}: {name}: {nbytes} bytes at {offset} do not hold shape {shape}")
    stored = np.frombuffer(payload, dtype=entry["dtype"], count=count, offset=offset)
    return name, stored.astype(dtype).reshape(shape)
