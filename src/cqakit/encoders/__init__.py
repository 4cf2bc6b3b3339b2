"""Learnable query encoders over one embedding row per token id.

Architectures (all gradients hand-derived, verified by finite differences):

* ``LSTM`` — stacked bidirectional LSTM over the linearized token sequence,
  readout at position 0;
* ``TreeLSTM`` / ``TreeLSTM-NoMemoryCell`` — one child-sum recursion over the
  computational graph that the brackets of the token sequence spell out, run
  one tree height at a time across the batch, with the full cell or the cell
  without its memory state, readout at the root;
* ``Transformer-APE`` / ``Transformer-RPE`` — pre-norm encoder stack with
  learned absolute positions, or relative-distance embeddings inside the
  attention logits.

:class:`QueryModel` bundles the vocabulary, the token embedding rows and an
encoder behind a single encode/backward surface used by the trainer and
evaluator. Every encoder reads the same input, the token lists of
:func:`~cqakit.linearize.linearize`, and has ``forward(queries, rows) -> ((B,d), cache)``
and ``backward(cache, d_out) -> (param grads, token ids (N,), token grads (N,d))``,
one gradient row per token it read from ``rows``. Nothing is padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linearize import Vocabulary, linearize
from ..queries import ComputationGraph
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .gradcheck import NonFiniteLossError, grad_check
from .lstm import BiLSTMEncoder
from .numerics import softmax, uniform_init
from .transformer import TransformerEncoder
from .treelstm import TREE_CELLS, TreeLSTMEncoder

ARCHITECTURES = (
    "LSTM",
    "TreeLSTM",
    "TreeLSTM-NoMemoryCell",
    "Transformer-APE",
    "Transformer-RPE",
)

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
):
    """A float64 encoder; :func:`new_model` casts it to the model's dtype."""
    arch = normalize_arch(arch)
    if arch == "LSTM":
        return BiLSTMEncoder(d, layers, rng)
    if arch in TREE_CELLS:
        return TreeLSTMEncoder(TREE_CELLS[arch], d, rng)
    relative = arch == "Transformer-RPE"
    return TransformerEncoder(d, layers, heads, rng, relative, max_len, rpe_clip)


@dataclass
class QueryModel:
    """Token embedding rows + encoder with one encode/backward surface.

    ``rows`` holds one embedding per token id: specials, relations, entities.
    The entity block doubles as the answer-entity embeddings, so retrieval
    scores are inner products against the same rows the encoder reads (tied).
    Every architecture consumes linearized token sequences, which must not be
    empty; the tree encoders read each query's tree from its brackets.
    ``parameters`` exposes every learnable tensor under a flat name space
    ('table' plus 'enc.*') for the optimizer and the gradient checker.
    """

    vocab: Vocabulary
    rows: np.ndarray
    encoder: object

    def __post_init__(self):
        if self.rows.shape[0] != self.vocab.size:
            raise ValueError(f"table has {self.rows.shape[0]} rows, vocabulary needs {self.vocab.size}")

    @property
    def arch(self) -> str:
        return self.encoder.arch

    @property
    def is_tree(self) -> bool:
        return self.arch in TREE_CELLS

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    @property
    def entity_rows(self) -> np.ndarray:
        """View of the answer-entity embeddings e_v, in entity-id order."""
        return self.rows[self.vocab.entity_offset :]

    def parameters(self) -> dict[str, np.ndarray]:
        out = {"table": self.rows}
        out.update({f"enc.{k}": v for k, v in self.encoder.params.items()})
        return out

    def prepare(self, graphs: list[ComputationGraph]):
        """Each graph's linearized token list, the one input form of every encoder."""
        return [linearize(g, self.vocab) for g in graphs]

    def encode(self, queries) -> tuple[np.ndarray, object]:
        """Encode token lists; returns ((B,d) embeddings, cache)."""
        return self.encoder.forward(queries, self.rows)

    def backward(self, cache, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients for every parameter given d(loss)/d(embeddings)."""
        enc_grads, token_ids, token_grads = self.encoder.backward(cache, d_out)
        d_table = np.zeros_like(self.rows)
        np.add.at(d_table, token_ids, token_grads)
        grads = {"table": d_table}
        grads.update({f"enc.{k}": v for k, v in enc_grads.items()})
        return grads

    def encode_graphs(self, graphs: list[ComputationGraph]) -> np.ndarray:
        """Embeddings of query trees, no cache. The evaluator encodes the
        token lists of :func:`~cqakit.sampler.query_tokens` instead."""
        out, _ = self.encode(self.prepare(graphs))
        return out

    def entity_scores(self, e_q: np.ndarray) -> np.ndarray:
        """Inner product of query embeddings ``(d,)`` or ``(B, d)`` with every entity row."""
        return e_q @ self.entity_rows.T


def new_model(vocab: Vocabulary, arch: str, d: int, seed: int, dtype=np.float64, **options) -> QueryModel:
    """Freshly initialized model (seeded uniform init scaled by 1/sqrt(d)).

    ``options`` are the encoder sizes :func:`make_encoder` takes. The table and every
    encoder parameter are cast to ``dtype`` here, the one place a parameter dtype is chosen.
    """
    from ..rng import make_rng

    rng = make_rng(seed, 0)
    rows = uniform_init(rng, (vocab.size, d), d).astype(dtype, copy=False)
    encoder = make_encoder(arch, d, rng, **options)
    encoder.params = {k: v.astype(dtype, copy=False) for k, v in encoder.params.items()}
    return QueryModel(vocab, rows, encoder)


__all__ = [
    "ARCHITECTURES",
    "BiLSTMEncoder",
    "TreeLSTMEncoder",
    "TransformerEncoder",
    "QueryModel",
    "grad_check",
    "NonFiniteLossError",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "softmax",
    "make_encoder",
    "new_model",
    "normalize_arch",
]
