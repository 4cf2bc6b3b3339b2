"""Learnable query encoders over the unified token embedding table.

Architectures (all gradients hand-derived, verified by finite differences):

* ``LSTM`` — stacked bidirectional LSTM over the linearized token sequence,
  readout at position 0;
* ``TreeLSTM`` / ``TreeLSTM-NoMemoryCell`` — one child-sum recursion over
  the computational graph itself with either the full cell or the cell
  without its memory state, readout at the root;
* ``Transformer-APE`` / ``Transformer-RPE`` — pre-norm encoder stack with
  learned absolute positions, or relative-distance embeddings inside the
  attention logits.

:class:`QueryModel` bundles vocabulary + embedding table + encoder behind a
single encode/backward surface used by the trainer and evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linearize import PAD, Vocabulary, linearize
from ..queries import ComputationGraph
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .embedding import EmbeddingTable, score_all
from .gradcheck import NonFiniteLossError, grad_check
from .lstm import BiLSTMEncoder
from .numerics import softmax
from .transformer import TransformerEncoder
from .treelstm import TREE_CELLS, TreeLSTMEncoder, tree_token_nodes

ARCHITECTURES = (
    "LSTM",
    "TreeLSTM",
    "TreeLSTM-NoMemoryCell",
    "Transformer-APE",
    "Transformer-RPE",
)

TREE_ARCHS = tuple(TREE_CELLS)

def normalize_arch(name: str) -> str:
    for arch in ARCHITECTURES:
        if name.lower() == arch.lower():
            return arch
    raise ValueError(f"unknown architecture {name!r}; expected one of {ARCHITECTURES}")


def make_encoder(
    arch: str,
    d: int,
    rng: np.random.Generator,
    layers: int = 2,
    heads: int = 4,
    max_len: int = 64,
    rpe_clip: int = 16,
    dtype=np.float64,
):
    arch = normalize_arch(arch)
    if arch == "LSTM":
        return BiLSTMEncoder(d, layers, rng, dtype)
    if arch in TREE_CELLS:
        return TreeLSTMEncoder(TREE_CELLS[arch], d, rng, dtype)
    relative = arch == "Transformer-RPE"
    return TransformerEncoder(d, layers, heads, rng, relative, max_len, rpe_clip, dtype)


def pad_batch(sequences: list[list[int]], dtype=np.float64):
    """Right-pad token sequences with PAD; returns (ids (B,T), mask (B,T))."""
    B = len(sequences)
    T = max((len(s) for s in sequences), default=1)
    ids = np.full((B, max(T, 1)), PAD, dtype=np.int64)
    mask = np.zeros((B, max(T, 1)), dtype=dtype)
    for row, seq in enumerate(sequences):
        ids[row, : len(seq)] = seq
        mask[row, : len(seq)] = 1.0
    return ids, mask


@dataclass
class QueryModel:
    """Embedding table + encoder with one encode/backward surface.

    Sequence architectures consume linearized token sequences; tree
    architectures consume each graph flattened once by ``tree_token_nodes``.
    ``parameters`` exposes every learnable tensor under a flat name space
    ('table' plus 'enc.*') for the optimizer and the gradient checker.
    """

    vocab: Vocabulary
    table: EmbeddingTable
    encoder: object

    @property
    def arch(self) -> str:
        return self.encoder.arch

    @property
    def is_tree(self) -> bool:
        return self.arch in TREE_ARCHS

    @property
    def d(self) -> int:
        return self.table.d

    def parameters(self) -> dict[str, np.ndarray]:
        out = {"table": self.table.rows}
        out.update({f"enc.{k}": v for k, v in self.encoder.params.items()})
        return out

    def prepare(self, graphs: list[ComputationGraph]):
        """Token lists, or each tree's post-order ``(token, child_slots)`` nodes."""
        if self.is_tree:
            return [tree_token_nodes(g, self.vocab) for g in graphs]
        return [linearize(g, self.vocab) for g in graphs]

    def encode(self, queries) -> tuple[np.ndarray, object]:
        """Encode prepared queries; returns ((B,d) embeddings, cache)."""
        if self.is_tree:
            out, cache = self.encoder.forward(queries, self.table)
            return out, ("tree", cache)
        ids, mask = pad_batch(queries, dtype=self.table.rows.dtype)
        x = self.table.rows[ids]
        out, enc_cache = self.encoder.forward(x, mask)
        return out, ("seq", enc_cache, ids, mask)

    def backward(self, cache, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients for every parameter given d(loss)/d(embeddings)."""
        d_table = np.zeros_like(self.table.rows)
        if cache[0] == "tree":
            enc_grads, tok_ids, tok_dxs = self.encoder.backward(cache[1], d_out)
            if len(tok_ids):
                np.add.at(d_table, tok_ids, tok_dxs)
        else:
            _, enc_cache, ids, mask = cache
            enc_grads, dx = self.encoder.backward(enc_cache, d_out)
            np.add.at(d_table, ids.reshape(-1), (dx * mask[:, :, None]).reshape(-1, self.d))
        grads = {"table": d_table}
        grads.update({f"enc.{k}": v for k, v in enc_grads.items()})
        return grads

    def encode_graphs(self, graphs: list[ComputationGraph]) -> np.ndarray:
        """Convenience: embeddings only, no cache (evaluation path)."""
        out, _ = self.encode(self.prepare(graphs))
        return out

    def entity_scores(self, e_q: np.ndarray) -> np.ndarray:
        return score_all(e_q, self.table)


def new_model(
    vocab: Vocabulary,
    arch: str,
    d: int,
    seed: int,
    layers: int = 2,
    heads: int = 4,
    max_len: int = 64,
    rpe_clip: int = 16,
    dtype=np.float64,
) -> QueryModel:
    """Freshly initialized model (seeded uniform init scaled by 1/sqrt(d))."""
    from ..rng import make_rng

    rng = make_rng(seed, 0)
    table = EmbeddingTable.create(vocab, d, rng, dtype)
    encoder = make_encoder(arch, d, rng, layers, heads, max_len, rpe_clip, dtype)
    return QueryModel(vocab, table, encoder)


__all__ = [
    "ARCHITECTURES",
    "TREE_ARCHS",
    "BiLSTMEncoder",
    "TreeLSTMEncoder",
    "TransformerEncoder",
    "EmbeddingTable",
    "QueryModel",
    "grad_check",
    "NonFiniteLossError",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "score_all",
    "softmax",
    "make_encoder",
    "new_model",
    "normalize_arch",
    "pad_batch",
]
