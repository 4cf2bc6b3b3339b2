"""The machine's speed, measured inside a run by a fixed reference task.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed loop of Python can take half as long again for seconds to minutes at
a time, and every stage of a run slows with it. The reference task below is
run before and after every set-up and every timed stage. It uses nothing
from cqakit, so a change to the program leaves it alone, and it mixes the
kinds of work the loop does: recursive Python calls over a tree of objects
(the tree encoders' per-node loops), hashing, set algebra and dict building
over a few megabytes of keys (graph build and answering), and small
matrix-vector products and sorts (the encoders and ranking).

A stage's *scaled* time is its measured time times ``REFERENCE_S`` over the
reference task's time measured around it, i.e. the time it would have taken
on a machine that runs the reference task in ``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import time

import numpy as np

# The reference task's median time on the machine the reference figures in
# README.md come from. Only ratios between runs matter; this fixes the scale.
REFERENCE_S = 0.045


class Reference:
    """A fixed task over fixed inputs; :meth:`measure` times one pass."""

    def __init__(self):
        rng = np.random.default_rng(20230227)
        self.keys = rng.integers(0, 1 << 40, 40_000).tolist()
        self.matrix = rng.standard_normal((64, 64)) / 8
        self.scores = rng.standard_normal(14_505)
        self.tree = _tree(rng, 11)

    def measure(self) -> float:
        start = time.perf_counter()
        self._interpreter()
        self._sets()
        self._numpy()
        return time.perf_counter() - start

    def _interpreter(self) -> float:
        total = 0.0
        for _ in range(30):
            total += _walk(self.tree)
        return total

    def _sets(self) -> int:
        keys = self.keys
        left = set(keys[:25_000])
        right = frozenset(keys[12_000:])
        index: dict[int, list[int]] = {}
        for i, k in enumerate(keys[:10_000]):
            index.setdefault(k & 1023, []).append(i)
        return len(left & right) + len(left | right) + len(index)

    def _numpy(self) -> float:
        h = np.ones(64)
        for _ in range(700):
            h = np.tanh(self.matrix @ h)
        order = np.argsort(-self.scores, kind="stable")
        for _ in range(4):
            order = np.argsort(-self.scores[order], kind="stable")
        return float(h.sum()) + float(order[0])


class _Node:
    __slots__ = ("value", "children")

    def __init__(self, value: float, children: list):
        self.value = value
        self.children = children


def _tree(rng, depth: int) -> _Node:
    if depth == 0:
        return _Node(float(rng.random()), [])
    return _Node(float(rng.random()), [_tree(rng, depth - 1), _tree(rng, depth - 1)])


def _walk(node: _Node) -> float:
    acc = node.value * 0.5
    for child in node.children:
        acc += _walk(child) * 0.25
    return acc
