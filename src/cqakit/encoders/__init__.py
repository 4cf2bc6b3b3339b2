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
and ``backward(cache, d_out, grads=None) -> (param grads, token ids (N,), token grads (N,d))``,
one gradient row per token it read from ``rows``; it adds its parameter gradients into
``grads`` (fresh zeros when omitted). Nothing is padded.

A model's parameters are views of one flat vector, laid out in sorted-name order
(``enc.*``, then ``table``): :func:`new_model` allocates it, and
:meth:`QueryModel.zero_grads` gives a gradient vector in the same layout, which
:meth:`QueryModel.backward` adds into, so Adam steps flat arrays only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linearize import Vocabulary, linearize
from ..queries import ComputationGraph
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .gradcheck import NonFiniteLossError, grad_check
from .lstm import BiLSTMEncoder
from .numerics import FlatTensors, softmax, uniform_init
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

    def parameters(self) -> FlatTensors:
        """Every parameter by name; ``flat`` is the vector they are views of, if they are."""
        out = {"table": self.rows}
        out.update({f"enc.{k}": v for k, v in self.encoder.params.items()})
        return FlatTensors.of(out)

    def prepare(self, graphs: list[ComputationGraph]):
        """Each graph's linearized token list, the one input form of every encoder."""
        return [linearize(g, self.vocab) for g in graphs]

    def encode(self, queries) -> tuple[np.ndarray, object]:
        """Encode token lists; returns ((B,d) embeddings, cache)."""
        return self.encoder.forward(queries, self.rows)

    def zero_grads(self) -> FlatTensors:
        """A fresh zeroed vector in the parameters' sorted-name layout, viewed by name."""
        shapes = {f"enc.{k}": v.shape for k, v in self.encoder.params.items()}
        shapes["table"] = self.rows.shape
        return FlatTensors.zeros(shapes, self.rows.dtype)

    def backward(self, cache, d_out: np.ndarray, grads: FlatTensors | None = None) -> FlatTensors:
        """Gradients for every parameter given d(loss)/d(embeddings), added into ``grads``
        (fresh :meth:`zero_grads` if None) and returned.

        The encoder adds into its views. The token gradients are summed per table row
        first and then added to the row once, so a row the caller has already written
        (the trainer's score-side entity gradient) ends as that value plus the row's sum:
        the same bits as adding the caller's term after the sum.
        """
        if grads is None:
            grads = self.zero_grads()
        enc_grads = {k: grads[f"enc.{k}"] for k in self.encoder.params}
        _, token_ids, token_grads = self.encoder.backward(cache, d_out, enc_grads)
        rows, inverse = np.unique(token_ids, return_inverse=True)
        summed = np.zeros((len(rows), self.d), grads["table"].dtype)
        np.add.at(summed, inverse, token_grads)
        grads["table"][rows] += summed
        return grads

    def encode_graphs(self, graphs: list[ComputationGraph]) -> np.ndarray:
        """Embeddings of query trees, no cache. The evaluator encodes the
        token lists of :func:`~cqakit.sampler.query_tokens` instead."""
        out, _ = self.encode(self.prepare(graphs))
        return out

    def entity_scores(self, e_q: np.ndarray) -> np.ndarray:
        """Inner product of query embeddings ``(d,)`` or ``(B, d)`` with every entity row."""
        return e_q @ self.entity_rows.T


_INIT_ROWS = 1024  # table rows drawn per call, straight into the parameter vector


def new_model(vocab: Vocabulary, arch: str, d: int, seed: int, dtype=np.float64, **options) -> QueryModel:
    """Freshly initialized model (seeded uniform init scaled by 1/sqrt(d)).

    ``options`` are the encoder sizes :func:`make_encoder` takes. The table and every
    encoder parameter are drawn in float64 and written into one flat vector of ``dtype``,
    in sorted-name order: the one place the parameter dtype and layout are chosen. The
    table's draws come first in the stream, so its rows are drawn block by block into the
    vector (the same values as one draw), after a throwaway encoder has given the shapes.
    """
    from ..rng import make_rng

    throwaway = make_encoder(arch, d, np.random.default_rng(0), **options)
    shapes = {f"enc.{k}": v.shape for k, v in throwaway.params.items()}
    shapes["table"] = (vocab.size, d)
    params = FlatTensors.zeros(shapes, dtype)
    rng = make_rng(seed, 0)
    for start in range(0, vocab.size, _INIT_ROWS):
        rows = params["table"][start : start + _INIT_ROWS]
        rows[...] = uniform_init(rng, rows.shape, d)
    encoder = make_encoder(arch, d, rng, **options)
    for k, v in encoder.params.items():
        params[f"enc.{k}"][...] = v
    encoder.params = {k: params[f"enc.{k}"] for k in encoder.params}
    return QueryModel(vocab, params["table"], encoder)


__all__ = [
    "ARCHITECTURES",
    "BiLSTMEncoder",
    "FlatTensors",
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
