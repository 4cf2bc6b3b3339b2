"""Child-sum tree encoders over query computational graphs.

The tree mirrors the query: every node feeds its operator token embedding
into the cell, anchors feed their entity token, and a grounded projection's
relation token enters as an extra leaf child. Child-sum composition handles
the variable arity of intersections and unions; the readout is the root's
hidden state.

One recursion (:class:`TreeLSTMEncoder`) walks the nodes in post order,
forms ``h~ = sum_k h_k`` over each node's children and hands it to a cell;
its backward walk runs in reverse post order and adds each node's state
gradients into its children. Only the cell equations differ:

* ``TreeLSTM`` (:class:`TreeLSTMCell`) — state ``(h, c)``, per-child forget gates,
      i = s(Wi x + Ui h~ + bi),  o = s(Wo x + Uo h~ + bo)
      u = tanh(Wu x + Uu h~ + bu),  f_k = s(Wf x + Uf h_k + bf)
      c = i * u + sum_k f_k * c_k,  h = o * tanh(c)
* ``TreeLSTM-NoMemoryCell`` (:class:`NoMemoryCell`) — state ``(h,)``,
      h = tanh(W x + U h~ + b)
"""

from __future__ import annotations

import numpy as np

from ..linearize import KIND_TO_OP, Vocabulary
from ..queries import OperatorKind, QueryNode
from .numerics import sigmoid, uniform_init


def tree_token_nodes(graph: QueryNode, vocab: Vocabulary):
    """Flatten a query into post-order ``(token_id, child_slots)`` nodes.

    Children appear before their parent, so a single forward scan composes
    leaves upward; ``child_slots`` index into the returned list.
    """
    nodes: list[tuple[int, list[int]]] = []

    def visit(node: QueryNode) -> int:
        if node.kind is OperatorKind.ANCHOR:
            nodes.append((vocab.entity_token(node.entity), []))
            return len(nodes) - 1
        child_slots = []
        if node.kind is OperatorKind.PROJECTION:
            nodes.append((vocab.relation_token(node.relation), []))
            child_slots.append(len(nodes) - 1)
        child_slots.extend(visit(c) for c in node.children)
        nodes.append((KIND_TO_OP[node.kind], child_slots))
        return len(nodes) - 1

    visit(graph)
    return nodes


class TreeLSTMCell:
    """Full child-sum cell; state ``(h, c)``."""

    arch = "TreeLSTM"

    @staticmethod
    def init(d: int, rng: np.random.Generator, dtype) -> dict[str, np.ndarray]:
        p = {}
        for gate in ("i", "f", "o", "u"):
            p[f"W{gate}"] = uniform_init(rng, (d, d), d, dtype)
            p[f"U{gate}"] = uniform_init(rng, (d, d), d, dtype)
            p[f"b{gate}"] = np.zeros(d, dtype=dtype)
        return p

    @staticmethod
    def forward(p, x, h_sum, children):
        """One node's state and cache from its input, ``h~`` and child states."""
        i = sigmoid(x @ p["Wi"] + h_sum @ p["Ui"] + p["bi"])
        o = sigmoid(x @ p["Wo"] + h_sum @ p["Uo"] + p["bo"])
        u = np.tanh(x @ p["Wu"] + h_sum @ p["Uu"] + p["bu"])
        fks = [sigmoid(x @ p["Wf"] + h_k @ p["Uf"] + p["bf"]) for h_k, _ in children]
        c = i * u + sum((f * c_k for f, (_, c_k) in zip(fks, children)), np.zeros(x.shape, x.dtype))
        h = o * np.tanh(c)
        return (h, c), (i, o, u, fks)

    @staticmethod
    def backward(p, grads, x, h_sum, children, state, cache, d_state, d_children):
        """Adds into ``grads`` and each child's ``d_children`` state gradients; returns dx."""
        i, o, u, fks = cache
        dh_j, dc_j = d_state
        tc = np.tanh(state[1])
        do = dh_j * tc
        dc_j = dc_j + dh_j * o * (1 - tc * tc)
        di = dc_j * u
        du = dc_j * i
        dzi = di * i * (1 - i)
        dzo = do * o * (1 - o)
        dzu = du * (1 - u * u)
        grads["Wi"] += np.outer(x, dzi)
        grads["Wo"] += np.outer(x, dzo)
        grads["Wu"] += np.outer(x, dzu)
        grads["Ui"] += np.outer(h_sum, dzi)
        grads["Uo"] += np.outer(h_sum, dzo)
        grads["Uu"] += np.outer(h_sum, dzu)
        grads["bi"] += dzi
        grads["bo"] += dzo
        grads["bu"] += dzu
        dx = dzi @ p["Wi"].T + dzo @ p["Wo"].T + dzu @ p["Wu"].T
        dh_sum = dzi @ p["Ui"].T + dzo @ p["Uo"].T + dzu @ p["Uu"].T
        for f, (h_k, c_k), (dh_k, dc_k) in zip(fks, children, d_children):
            dzf = dc_j * c_k * f * (1 - f)
            grads["Wf"] += np.outer(x, dzf)
            grads["Uf"] += np.outer(h_k, dzf)
            grads["bf"] += dzf
            dx += dzf @ p["Wf"].T
            dh_k += dh_sum + dzf @ p["Uf"].T
            dc_k += dc_j * f
        return dx


class NoMemoryCell:
    """Ablated cell without the memory state; state ``(h,)``."""

    arch = "TreeLSTM-NoMemoryCell"

    @staticmethod
    def init(d: int, rng: np.random.Generator, dtype) -> dict[str, np.ndarray]:
        return {
            "W": uniform_init(rng, (d, d), d, dtype),
            "U": uniform_init(rng, (d, d), d, dtype),
            "b": np.zeros(d, dtype=dtype),
        }

    @staticmethod
    def forward(p, x, h_sum, children):
        return (np.tanh(x @ p["W"] + h_sum @ p["U"] + p["b"]),), None

    @staticmethod
    def backward(p, grads, x, h_sum, children, state, cache, d_state, d_children):
        h = state[0]
        dz = d_state[0] * (1 - h * h)
        grads["W"] += np.outer(x, dz)
        grads["U"] += np.outer(h_sum, dz)
        grads["b"] += dz
        dh_sum = dz @ p["U"].T
        for (dh_k,) in d_children:
            dh_k += dh_sum
        return dz @ p["W"].T


TREE_CELLS = {cell.arch: cell for cell in (TreeLSTMCell, NoMemoryCell)}


class TreeLSTMEncoder:
    """The child-sum recursion around one cell (see the module docstring)."""

    def __init__(self, cell, d: int, rng: np.random.Generator, dtype=np.float64):
        self.cell = cell
        self.arch = cell.arch
        self.d = d
        self.params = cell.init(d, rng, dtype)

    def forward(self, trees: list[list[tuple[int, list[int]]]], rows: np.ndarray):
        """Encode each tree of ``tree_token_nodes``; returns (B,d) readouts and a cache."""
        outs = []
        tree_caches = []
        for nodes in trees:
            states, steps = [], []
            for token, child_slots in nodes:
                x = rows[token]
                children = [states[k] for k in child_slots]
                h_sum = sum((s[0] for s in children), np.zeros(self.d, dtype=x.dtype))
                state, cell_cache = self.cell.forward(self.params, x, h_sum, children)
                states.append(state)
                steps.append((token, child_slots, x, h_sum, cell_cache))
            outs.append(states[-1][0])
            tree_caches.append((steps, states))
        return np.stack(outs), tree_caches

    def backward(self, cache, d_out: np.ndarray):
        """Returns (param grads, token ids (N,), token grads (N,d))."""
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        tok_ids: list[int] = []
        tok_grads: list[np.ndarray] = []
        for (steps, states), droot in zip(cache, d_out):
            d_states = [[np.zeros(self.d, dtype=droot.dtype) for _ in s] for s in states]
            d_states[-1][0] = droot.copy()
            for idx in range(len(steps) - 1, -1, -1):
                token, child_slots, x, h_sum, cell_cache = steps[idx]
                children = [states[k] for k in child_slots]
                d_children = [d_states[k] for k in child_slots]
                dx = self.cell.backward(
                    p, grads, x, h_sum, children, states[idx], cell_cache, d_states[idx], d_children
                )
                tok_ids.append(token)
                tok_grads.append(dx)
        return grads, np.array(tok_ids, dtype=np.int64), np.stack(tok_grads)
