"""Child-sum tree encoders over query computational graphs.

The tree mirrors the query: every node feeds its operator token embedding
into the cell, anchors feed their entity token, and a grounded projection's
relation token enters as an extra leaf child. Child-sum composition handles
the variable arity of intersections and unions; the readout is the root's
hidden state.

One recursion (:class:`TreeLSTMEncoder`) runs a batch's nodes one height at
a time, leaves first, as ``(n, d)`` rows: ``h~ = sum_k h_k`` is one scatter-add
from the ``(m, d)`` child rows into their owners' rows, and backward runs the
levels top down. Only the cell equations differ:

* ``TreeLSTM`` (:class:`TreeLSTMCell`) — state ``(h, c)``, per-child forget gates,
      i = s(Wi x + Ui h~ + bi),  o = s(Wo x + Uo h~ + bo)
      u = tanh(Wu x + Uu h~ + bu),  f_k = s(Wf x + Uf h_k + bf)
      c = i * u + sum_k f_k * c_k,  h = o * tanh(c)
* ``TreeLSTM-NoMemoryCell`` (:class:`NoMemoryCell`) — state ``(h,)``,
      h = tanh(W x + U h~ + b)
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from ..linearize import KIND_TO_OP, Vocabulary
from ..queries import OperatorKind, QueryNode
from .numerics import sigmoid, uniform_init


def tree_token_nodes(graph: QueryNode, vocab: Vocabulary):
    """Flatten a query into post-order ``(token_id, child_slots, height)`` nodes.

    ``child_slots`` index into the list; leaves have height 0, parents 1 + their highest child.
    """
    nodes: list[tuple[int, list[int], int]] = []

    def visit(node: QueryNode) -> int:
        if node.kind is OperatorKind.ANCHOR:
            nodes.append((vocab.entity_token(node.entity), [], 0))
            return len(nodes) - 1
        child_slots = []
        if node.kind is OperatorKind.PROJECTION:
            nodes.append((vocab.relation_token(node.relation), [], 0))
            child_slots.append(len(nodes) - 1)
        child_slots.extend(visit(c) for c in node.children)
        height = 1 + max(nodes[k][2] for k in child_slots)
        nodes.append((KIND_TO_OP[node.kind], child_slots, height))
        return len(nodes) - 1

    visit(graph)
    return nodes


class TreeLSTMCell:
    """Full child-sum cell; state ``(h, c)``."""

    arch = "TreeLSTM"
    num_states = 2

    @staticmethod
    def init(d: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        p = {}
        for gate in ("i", "f", "o", "u"):
            p[f"W{gate}"] = uniform_init(rng, (d, d), d)
            p[f"U{gate}"] = uniform_init(rng, (d, d), d)
            p[f"b{gate}"] = np.zeros(d)
        return p

    @staticmethod
    def forward(p, x, h_sum, own, children):
        """A level's states and backward cache; child row ``k`` is owned by row ``own[k]``."""
        h_k, c_k = children
        i = sigmoid(x @ p["Wi"] + h_sum @ p["Ui"] + p["bi"])
        o = sigmoid(x @ p["Wo"] + h_sum @ p["Uo"] + p["bo"])
        u = np.tanh(x @ p["Wu"] + h_sum @ p["Uu"] + p["bu"])
        f = sigmoid((x @ p["Wf"])[own] + h_k @ p["Uf"] + p["bf"])
        c = i * u
        np.add.at(c, own, f * c_k)
        return (o * np.tanh(c), c), (h_sum, h_k, c_k, i, o, u, f, c)

    @staticmethod
    def backward(p, grads, x, own, cache, d_state):
        """Adds into ``grads``; returns dx and the child rows' state gradients."""
        (h_sum, h_k, c_k, i, o, u, f, c), (dh, dc) = cache, d_state
        tc = np.tanh(c)
        dc = dc + dh * o * (1 - tc * tc)
        dzf = dc[own] * c_k * f * (1 - f)
        dz = {"i": dc * u * i * (1 - i), "f": np.zeros_like(x), "o": dh * tc * o * (1 - o)}
        dz["u"] = dc * i * (1 - u * u)
        np.add.at(dz["f"], own, dzf)  # each owner's forget-gate sum over its children
        for gate, dz_gate in dz.items():
            grads[f"W{gate}"] += x.T @ dz_gate
            grads[f"b{gate}"] += dz_gate.sum(axis=0)
        for gate in "iou":
            grads[f"U{gate}"] += h_sum.T @ dz[gate]
        grads["Uf"] += h_k.T @ dzf
        dx = sum(dz_gate @ p[f"W{gate}"].T for gate, dz_gate in dz.items())
        dh_sum = sum(dz[gate] @ p[f"U{gate}"].T for gate in "iou")
        return dx, (dh_sum[own] + dzf @ p["Uf"].T, dc[own] * f)


class NoMemoryCell:
    """Ablated cell without the memory state; state ``(h,)``."""

    arch = "TreeLSTM-NoMemoryCell"
    num_states = 1

    @staticmethod
    def init(d: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        W, U = (uniform_init(rng, (d, d), d) for _ in "WU")
        return {"W": W, "U": U, "b": np.zeros(d)}

    @staticmethod
    def forward(p, x, h_sum, own, children):
        h = np.tanh(x @ p["W"] + h_sum @ p["U"] + p["b"])
        return (h,), (h_sum, h)

    @staticmethod
    def backward(p, grads, x, own, cache, d_state):
        h_sum, h = cache
        dz = d_state[0] * (1 - h * h)
        grads["W"] += x.T @ dz
        grads["U"] += h_sum.T @ dz
        grads["b"] += dz.sum(axis=0)
        return dz @ p["W"].T, ((dz @ p["U"].T)[own],)


TREE_CELLS = {cell.arch: cell for cell in (TreeLSTMCell, NoMemoryCell)}


def _levels(trees):
    """Lay a batch's nodes out as rows by height, leaves first; returns the row tokens (N,),
    the root rows (B,) and per height its row slice, child rows and the level row owning each."""
    order = sorted((n[2], t, i, n) for t, tree in enumerate(trees) for i, n in enumerate(tree))
    row, tokens, levels = {}, [], []
    for _, block in groupby(order, key=lambda entry: entry[0]):
        a, kids, own = len(tokens), [], []
        for j, (_, t, i, (token, child_slots, _)) in enumerate(block):
            row[t, i] = a + j
            tokens.append(token)
            kids += [row[t, k] for k in child_slots]
            own += [j] * len(child_slots)
        levels.append((slice(a, len(tokens)), np.array(kids, np.int64), np.array(own, np.int64)))
    roots = [row[t, len(tree) - 1] for t, tree in enumerate(trees)]
    return np.array(tokens, np.int64), roots, levels


class TreeLSTMEncoder:
    """The level-wise child-sum recursion around one cell (see the module docstring)."""

    def __init__(self, cell, d: int, rng: np.random.Generator):
        self.cell = cell
        self.arch = cell.arch
        self.params = cell.init(d, rng)

    def forward(self, trees: list[list[tuple[int, list[int], int]]], rows: np.ndarray):
        """Encode each tree of ``tree_token_nodes``; returns (B,d) readouts and a cache."""
        tokens, roots, levels = _levels(trees)
        x = rows[tokens]
        states = [np.empty_like(x) for _ in range(self.cell.num_states)]
        steps = []
        for level, kids, own in levels:
            children = tuple(s[kids] for s in states)
            h_sum = np.zeros_like(x[level])
            np.add.at(h_sum, own, children[0])
            new, cell_cache = self.cell.forward(self.params, x[level], h_sum, own, children)
            for s, s_new in zip(states, new):
                s[level] = s_new
            steps.append(cell_cache)
        return states[0][roots], (tokens, roots, levels, x, steps)

    def backward(self, cache, d_out: np.ndarray):
        """Returns (param grads, token ids (N,), token grads (N,d))."""
        tokens, roots, levels, x, steps = cache
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        d_states = [np.zeros_like(x) for _ in range(self.cell.num_states)]
        d_states[0][roots] = d_out
        dx = np.empty_like(x)
        for (level, kids, own), cell_cache in zip(levels[::-1], steps[::-1]):
            d_level = [g[level] for g in d_states]
            dx[level], d_children = self.cell.backward(p, grads, x[level], own, cell_cache, d_level)
            for g, d_child in zip(d_states, d_children):
                g[kids] = d_child  # a node's parent is its only gradient source
        return grads, tokens, dx
