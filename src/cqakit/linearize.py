"""Linearization of query computational graphs into token sequences.

The token stream mirrors the recursive structure of the query:

* projection   -> ``[(][P][rel] <child> [)]``
* intersection -> ``[(][I] <children...> [)]``
* union        -> ``[(][U] <children...> [)]``
* negation     -> ``[(][N] <child> [)]``
* anchor       -> single entity token

All brackets, operators, relations and entities live in one unified token-id
space so a single embedding table covers them. The inverse
(:func:`delinearize`) exists for round-trip testing and debugging.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .queries import (
    ComputationGraph,
    OperatorKind,
    QueryNode,
    QueryStructureError,
    anchor,
)

PAD = 0
LPAREN = 1
RPAREN = 2
OP_P = 3
OP_I = 4
OP_U = 5
OP_N = 6
NUM_SPECIALS = 7

KIND_TO_OP = {
    OperatorKind.PROJECTION: OP_P,
    OperatorKind.INTERSECTION: OP_I,
    OperatorKind.UNION: OP_U,
    OperatorKind.NEGATION: OP_N,
}
_OP_TO_KIND = {v: k for k, v in KIND_TO_OP.items()}

TokenSequence = list[int]


class TokenizationError(ValueError):
    """Raised when a token sequence cannot be interpreted as a query."""


@dataclass(frozen=True)
class Vocabulary:
    """Fixed token-id layout: specials, then relations, then entities.

    Ids 0..6 are ``PAD ( ) P I U N``; relation r maps to ``7 + r`` and
    entity v to ``7 + num_relations + v``. The layout is versioned into
    checkpoints via :meth:`layout_hash` so embeddings stay aligned.
    """

    num_relations: int
    num_entities: int

    @property
    def size(self) -> int:
        return NUM_SPECIALS + self.num_relations + self.num_entities

    @property
    def entity_offset(self) -> int:
        return NUM_SPECIALS + self.num_relations

    def relation_token(self, r: int) -> int:
        if not 0 <= r < self.num_relations:
            raise QueryStructureError(f"relation id {r} out of vocabulary")
        return NUM_SPECIALS + r

    def entity_token(self, v: int) -> int:
        if not 0 <= v < self.num_entities:
            raise QueryStructureError(f"entity id {v} out of vocabulary")
        return self.entity_offset + v

    def is_relation_token(self, t: int) -> bool:
        return NUM_SPECIALS <= t < self.entity_offset

    def is_entity_token(self, t: int) -> bool:
        return self.entity_offset <= t < self.size

    def relation_of(self, t: int) -> int:
        if not self.is_relation_token(t):
            raise TokenizationError(f"token {t} is not a relation token")
        return t - NUM_SPECIALS

    def entity_of(self, t: int) -> int:
        if not self.is_entity_token(t):
            raise TokenizationError(f"token {t} is not an entity token")
        return t - self.entity_offset

    def layout_hash(self) -> str:
        payload = f"cqakit-vocab-v1:{self.num_relations}:{self.num_entities}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_vocabulary(kg) -> Vocabulary:
    """Unified vocabulary over a graph's relations and entities."""
    return Vocabulary(num_relations=kg.num_relations, num_entities=kg.num_entities)


def linearize(graph: ComputationGraph, vocab: Vocabulary) -> TokenSequence:
    """Convert a grounded query tree to its token sequence.

    Emits tokens left-to-right exactly as the recursion visits them; no
    BOS/EOS and never PAD. The "first token" readout used by sequence
    encoders refers to position 0 of this sequence.
    """
    out: TokenSequence = []

    def emit(node: QueryNode) -> None:
        if node.kind is OperatorKind.ANCHOR:
            out.append(vocab.entity_token(node.entity))
            return
        out.append(LPAREN)
        out.append(KIND_TO_OP[node.kind])
        if node.kind is OperatorKind.PROJECTION:
            out.append(vocab.relation_token(node.relation))
        for child in node.children:
            emit(child)
        out.append(RPAREN)

    emit(graph)
    return out


def delinearize(tokens: TokenSequence, vocab: Vocabulary) -> ComputationGraph:
    """Inverse of :func:`linearize`; rejects malformed sequences."""
    pos = 0

    def fail(msg: str):
        raise TokenizationError(f"{msg} at token {pos}")

    def parse() -> QueryNode:
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of sequence")
        t = tokens[pos]
        if vocab.is_entity_token(t):
            pos += 1
            return anchor(vocab.entity_of(t))
        if t != LPAREN:
            fail(f"expected '[(]' or entity token, got {t}")
        pos += 1
        if pos >= len(tokens) or tokens[pos] not in _OP_TO_KIND:
            fail("expected operator token after '[(]'")
        kind = _OP_TO_KIND[tokens[pos]]
        pos += 1
        relation = None
        if kind is OperatorKind.PROJECTION:
            if pos >= len(tokens) or not vocab.is_relation_token(tokens[pos]):
                fail("expected relation token after '[P]'")
            relation = vocab.relation_of(tokens[pos])
            pos += 1
        children = []
        while pos < len(tokens) and tokens[pos] != RPAREN:
            children.append(parse())
        if pos >= len(tokens):
            fail("unbalanced parentheses: missing '[)]'")
        pos += 1  # consume RPAREN
        try:
            return QueryNode(kind, relation=relation, children=tuple(children))
        except QueryStructureError as exc:
            raise TokenizationError(str(exc)) from None

    root = parse()
    if pos != len(tokens):
        fail("trailing tokens after complete query")
    return root


def render_tokens(
    tokens: TokenSequence,
    vocab: Vocabulary,
    entity_labels: dict[int, str] | None = None,
    relation_labels: dict[int, str] | None = None,
) -> str:
    """Debug text form: ``[(][P][r7][e12][)]...`` joined without separators.

    Label maps substitute names for ``r<id>``/``e<id>`` when provided.
    """
    specials = {PAD: "PAD", LPAREN: "(", RPAREN: ")", OP_P: "P", OP_I: "I", OP_U: "U", OP_N: "N"}
    parts = []
    for t in tokens:
        if t in specials:
            parts.append(specials[t])
        elif vocab.is_relation_token(t):
            r = vocab.relation_of(t)
            parts.append(relation_labels.get(r, f"r{r}") if relation_labels else f"r{r}")
        elif vocab.is_entity_token(t):
            v = vocab.entity_of(t)
            parts.append(entity_labels.get(v, f"e{v}") if entity_labels else f"e{v}")
        else:
            raise TokenizationError(f"token id {t} outside vocabulary of size {vocab.size}")
    return "".join(f"[{p}]" for p in parts)
