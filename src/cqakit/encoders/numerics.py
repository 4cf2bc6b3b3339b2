"""Shared primitives for the hand-rolled encoders, the packed token layout and the
flat parameter layout included."""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np


class FlatTensors(dict):
    """Named tensors laid end to end in one 1-D array ``flat``, in sorted-name order.

    Every value is a view of ``flat``; writing a view writes ``flat`` and the other way round.
    A loaded checkpoint's tensors (:func:`~cqakit.encoders.load_checkpoint`) have the
    payload's raw bytes as ``flat``.
    """

    flat: np.ndarray

    @classmethod
    def over(cls, flat: np.ndarray, shapes: dict[str, tuple]) -> "FlatTensors":
        """Views of the 1-D ``flat`` in ``shapes``, one per name in sorted order; they must tile it."""
        out = cls()
        start = 0
        for name in sorted(shapes):
            end = start + math.prod(shapes[name])
            out[name] = flat[start:end].reshape(shapes[name])
            start = end
        if start != flat.size:
            raise ValueError(f"shapes hold {start} values, the flat array {flat.size}")
        out.flat = flat
        return out

    @classmethod
    def zeros(cls, shapes: dict[str, tuple], dtype) -> "FlatTensors":
        return cls.over(np.zeros(sum(math.prod(s) for s in shapes.values()), dtype), shapes)


def sigmoid(z):
    # numerically stable: 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below 0,
    # with one exp that never overflows; min(z, -z) rather than -|z| keeps
    # a NaN's sign bit, so the bits match the two-branch form exactly
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def softmax(z, axis=-1):
    z = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(p, dp, axis=-1):
    # dz given p = softmax(z) and upstream dp
    return p * (dp - np.sum(dp * p, axis=axis, keepdims=True))


def layernorm_forward(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gamma + beta, (xhat, inv)


def layernorm_backward(dy, cache, gamma):
    xhat, inv = cache
    dgamma = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    dbeta = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gamma
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def uniform_init(rng: np.random.Generator, shape, d: int):
    """Seeded float64 uniform init scaled by 1/sqrt(d)."""
    bound = 1.0 / np.sqrt(d)
    return rng.uniform(-bound, bound, size=shape)


class Packing(NamedTuple):
    """A batch's tokens, packed: its rows stable-sorted by length, each sequence contiguous."""

    tokens: np.ndarray  # (N,) token ids, the batch's sequences back to back in batch order
    order: np.ndarray  # (B,) batch rows, stable-sorted by length
    lengths: np.ndarray  # (B,) length of each sorted sequence, ascending
    starts: np.ndarray  # (B,) packed row of each sorted sequence's first token
    pos: np.ndarray  # (N,) each packed row's position in its sequence
    flat: np.ndarray  # (N,) each packed row's index into ``tokens``


def pack_tokens(queries: list[list[int]]) -> Packing:
    """Concatenate a batch's token lists and sort its rows by length; empty lists are refused."""
    lengths = np.fromiter(map(len, queries), np.int64, len(queries))
    if not lengths.all():
        raise ValueError("cannot encode an empty token sequence")
    tokens = np.fromiter(chain.from_iterable(queries), np.int64, int(lengths.sum()))
    order = np.argsort(lengths, kind="stable")
    offsets = np.cumsum(lengths) - lengths  # each batch row's first token in ``tokens``
    lengths = lengths[order]
    starts = np.cumsum(lengths) - lengths
    pos = np.arange(len(tokens)) - np.repeat(starts, lengths)
    flat = np.repeat(offsets[order], lengths) + pos
    return Packing(tokens, order, lengths, starts, pos, flat)
