"""Child-sum tree encoders over query computational graphs.

The encoders read the same linearized token lists as the sequence encoders;
the brackets spell out the tree. Each group ``( op [rel] child... )`` is a
node that feeds its operator token embedding into the cell, with the leaves
and groups inside it as children: anchors feed their entity token, and a
grounded projection's relation token enters as an extra leaf child.
Child-sum composition handles the variable arity of intersections and
unions; the readout is the root's hidden state.

One recursion (:class:`TreeLSTMEncoder`) parses a batch's brackets once, in
one pass that gives each node its height, and runs the nodes one height at
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

from itertools import accumulate

import numpy as np

from ..linearize import LPAREN, RPAREN
from .numerics import sigmoid, uniform_init


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


def _levels(queries):
    """Parse a batch's token lists into rows by height, leaves first; returns the row tokens
    (N,), the root rows (B,) and per height its row slice, child rows and the level row owning
    each. ``( op [rel] child... )`` is a node with token ``op`` over the leaves and groups inside
    it, any other token a leaf; a height's rows keep the batch's post order."""
    if not all(queries):
        raise ValueError("cannot encode an empty token sequence")
    by_height = []  # per height: its tokens, its children's (height, slot) and the slot owning each
    roots = []  # each query's root as (height, slot)
    for query in queries:
        groups = []  # per open bracket: its operator token, then its children's (height, slot)
        for token in query:
            if token == LPAREN:
                groups.append([])
            elif token != RPAREN and groups and not groups[-1]:
                groups[-1].append(token)
            else:
                children, h = (), 0
                if token == RPAREN:
                    token, *children = groups.pop()
                    h = 1 + max(c[0] for c in children)
                if h == len(by_height):
                    by_height.append(([], [], []))
                tokens, kids, own = by_height[h]
                own += [len(tokens)] * len(children)
                kids += children
                (groups[-1] if groups else roots).append((h, len(tokens)))
                tokens.append(token)
    starts = list(accumulate((len(level[0]) for level in by_height), initial=0))
    levels = [(slice(a, b), np.array([starts[h] + j for h, j in kids], np.int64), np.array(own, np.int64))
              for a, b, (_, kids, own) in zip(starts, starts[1:], by_height)]
    tokens = np.array([t for level in by_height for t in level[0]], np.int64)
    return tokens, [starts[h] + j for h, j in roots], levels


class TreeLSTMEncoder:
    """The level-wise child-sum recursion around one cell (see the module docstring)."""

    def __init__(self, cell, d: int, rng: np.random.Generator):
        self.cell = cell
        self.arch = cell.arch
        self.d = d
        self.params = cell.init(d, rng)

    def forward(self, queries: list[list[int]], rows: np.ndarray):
        """Encode linearized queries; returns (B,d) readouts and a cache."""
        tokens, roots, levels = _levels(queries)
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

    def backward(self, cache, d_out: np.ndarray, grads):
        """Adds the parameter gradients into ``grads`` and returns (token ids (N,), token grads (N,d))."""
        tokens, roots, levels, x, steps = cache
        p = self.params
        d_states = [np.zeros_like(x) for _ in range(self.cell.num_states)]
        d_states[0][roots] = d_out
        dx = np.empty_like(x)
        for (level, kids, own), cell_cache in zip(levels[::-1], steps[::-1]):
            d_level = [g[level] for g in d_states]
            dx[level], d_children = self.cell.backward(p, grads, x[level], own, cell_cache, d_level)
            for g, d_child in zip(d_states, d_children):
                g[kids] = d_child  # a node's parent is its only gradient source
        return tokens, dx
