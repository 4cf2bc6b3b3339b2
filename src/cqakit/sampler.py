"""Reverse sampling of grounded queries and dataset serialization.

Grounding works backwards from a uniformly sampled answer node: projections
sample an incoming edge and recurse on its head, intersections ground every
child at the same node, union children after the first re-sample the node,
and anchors emit the node reached. Negated subtrees are grounded at an
independently sampled node and the whole query is then verified against the
symbolic engine (reject/retry), so every emitted query is guaranteed to have
the seed node among its answers.

Queries with large answer sets are never filtered out. A record holds its
answers on each layer as an :class:`AnswerSet`: sorted ``int64`` entity ids
behind a read-only set, on the same base as the graph's edge sets
(:class:`~cqakit.graph.SortedIdSet`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .graph import GraphLayers, KnowledgeGraph, SortedIdSet
from .queries import (
    ComputationGraph,
    OperatorKind,
    QueryNode,
    QueryStructureError,
    QuerySyntaxError,
    QueryType,
    anchor,
    negation,
    parse_grounded,
    projection,
    serialize_formula,
    serialize_grounded,
)
from .rng import make_rng
from .symbolic import answer, answer_bits

logger = logging.getLogger(__name__)

DATASET_FORMAT = "cqakit-dataset"
DATASET_VERSION = 1

_LAYER_BITS = np.array([[1], [2], [4]], dtype=np.uint8)  # the train, valid and test bits

class GroundingError(RuntimeError):
    """A query type could not be grounded within the retry budget."""


class DatasetFormatError(ValueError):
    """Malformed or non-canonical dataset file."""


class _DeadEnd(Exception):
    """Internal: the current grounding attempt hit a node with no usable edge."""


@dataclass(frozen=True)
class SamplerConfig:
    per_type_count: int
    seed: int
    max_retries: int = 64
    source_layer: str = "train"

    def __post_init__(self):
        if self.per_type_count < 0:
            raise ValueError(f"per_type_count must be >= 0, got {self.per_type_count}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.source_layer not in ("train", "test"):
            raise ValueError("source_layer must be 'train' or 'test'")

    def config_hash(self) -> str:
        payload = json.dumps(
            {
                "per_type_count": self.per_type_count,
                "seed": self.seed,
                "max_retries": self.max_retries,
                "source_layer": self.source_layer,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class AnswerSet(SortedIdSet):
    """Read-only set of entity ids over one sorted, duplicate-free ``int64`` array ``ids``.

    A :class:`~cqakit.graph.SortedIdSet` whose ids are its members:
    iteration yields ints in ascending order, a number equal to an id, such
    as ``1.0``, is a member as in a frozenset, and ``==`` and ``-`` against
    another answer set work on the arrays. ``AnswerSet(ids)`` wraps the
    array with no copy or check and makes it read-only.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"AnswerSet({self.ids.tolist()})"


@dataclass(frozen=True)
class GroundedQueryRecord:
    """One grounded query with its answers on the train, valid and test layers."""

    type_formula: str
    query: ComputationGraph
    train_answers: AnswerSet
    valid_answers: AnswerSet
    test_answers: AnswerSet

    def answers(self, layer_name: str) -> AnswerSet:
        return {
            "train": self.train_answers,
            "valid": self.valid_answers,
            "test": self.test_answers,
        }[layer_name]


@dataclass(frozen=True)
class Provenance:
    kg_name: str
    seed: int
    config_hash: str


@dataclass
class Dataset:
    records: dict[str, list[GroundedQueryRecord]] = field(default_factory=dict)
    provenance: Provenance = Provenance("unknown", 0, "")
    num_entities: int = 0
    num_relations: int = 0

    def iter_records(self) -> Iterator[GroundedQueryRecord]:
        for group in self.records.values():
            yield from group

    def __len__(self) -> int:
        return sum(len(g) for g in self.records.values())


def ground_type(
    layer: KnowledgeGraph,
    qtype: QueryType,
    rng: np.random.Generator,
    max_retries: int = 64,
) -> tuple[ComputationGraph, int]:
    """Ground one query of the given type; returns ``(query, seed_node)``.

    The seed node is guaranteed to be an answer of the query on ``layer``.
    Raises :class:`GroundingError` when the retry budget is exhausted.
    """
    if not layer.edges:
        raise GroundingError("cannot ground queries on an empty graph")

    def ground(node: QueryNode, v: int) -> QueryNode:
        k = node.kind
        if k is OperatorKind.ANCHOR:
            return anchor(v)
        if k is OperatorKind.PROJECTION:
            incoming = layer.in_edges(v)
            if not incoming:
                raise _DeadEnd
            u, r = incoming[rng.integers(len(incoming))]
            return projection(r, ground(node.children[0], u))
        if k is OperatorKind.INTERSECTION:
            return QueryNode(k, children=tuple(ground(c, v) for c in node.children))
        if k is OperatorKind.UNION:
            grounded = [ground(node.children[0], v)]
            for child in node.children[1:]:
                for attempt in range(16):
                    w = int(rng.integers(layer.num_entities))
                    try:
                        grounded.append(ground(child, w))
                        break
                    except _DeadEnd:
                        continue
                else:
                    raise _DeadEnd
            return QueryNode(k, children=tuple(grounded))
        # negation: ground the negated subtree at an independent node; the
        # acceptance check below restores the answer guarantee.
        w = int(rng.integers(layer.num_entities))
        return negation(ground(node.children[0], w))

    for _ in range(max_retries):
        v = int(rng.integers(layer.num_entities))
        try:
            candidate = ground(qtype.pattern, v)
        except _DeadEnd:
            continue
        if qtype.has_negation and v not in answer(layer, candidate):
            continue
        return candidate, v
    raise GroundingError(
        f"failed to ground type {qtype.formula_text} after {max_retries} attempts"
    )


def sample_dataset(
    layers: GraphLayers,
    types: list[QueryType] | tuple[QueryType, ...],
    cfg: SamplerConfig,
    kg_name: str = "kg",
) -> Dataset:
    """Sample ``cfg.per_type_count`` grounded queries per type with answers.

    Queries are grounded on ``cfg.source_layer``; each record stores its
    answer sets on all three layers, each read from its own bit of one
    :func:`answer_bits` pass. Grounded queries are deduplicated within a
    type. Record ``i`` of type ``t`` draws from an independent random
    stream keyed by ``(seed, t, i)``, so output is reproducible and
    independent of scheduling. A type listed twice raises ``ValueError``.
    """
    formulas = [qtype.formula_text for qtype in types]
    for i, formula in enumerate(formulas):
        if formula in formulas[:i]:
            raise ValueError(f"query type {formula} is listed more than once")
    source = layers.layer(cfg.source_layer)
    source_bit = 1 << source.layer
    dataset = Dataset(
        provenance=Provenance(kg_name, cfg.seed, cfg.config_hash()),
        num_entities=source.num_entities,
        num_relations=source.num_relations,
    )
    for type_index, qtype in enumerate(types):
        group: list[GroundedQueryRecord] = []
        seen: set[str] = set()
        shortfall = 0
        for record_index in range(cfg.per_type_count):
            rng = make_rng(cfg.seed, type_index, record_index)
            record = None
            for _ in range(cfg.max_retries):
                try:
                    query, v = ground_type(source, qtype, rng, cfg.max_retries)
                except GroundingError:
                    break
                key = serialize_grounded(query)
                if key in seen:
                    continue
                seen.add(key)
                bits = answer_bits(source, query)  # bit k: the answers on layer k
                if not bits.item(v) & source_bit:
                    # grounding and the symbolic engine disagree
                    raise RuntimeError(
                        f"type {qtype.formula_text}: seed node {v} is not an answer of {key} "
                        f"on the {cfg.source_layer} layer"
                    )
                # one boolean row per layer: nonzero is several times faster on bools
                answers = [AnswerSet(row.nonzero()[0]) for row in (bits & _LAYER_BITS) != 0]
                record = GroundedQueryRecord(qtype.formula_text, query, *answers)
                break
            if record is None:
                shortfall += 1
                continue
            group.append(record)
        if shortfall:
            logger.warning(
                "type %s: %d of %d records could not be grounded (skipped)",
                qtype.formula_text,
                shortfall,
                cfg.per_type_count,
            )
        dataset.records[qtype.formula_text] = group
    return dataset


# ---------------------------------------------------------------------------
# dataset file format: one JSON header line, then one canonical JSON record
# per line with sorted answer lists.


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _record_line(record: GroundedQueryRecord) -> str:
    return _canonical(
        {
            "type": record.type_formula,
            "query": serialize_grounded(record.query),
            "train_answers": record.train_answers.ids.tolist(),
            "valid_answers": record.valid_answers.ids.tolist(),
            "test_answers": record.test_answers.ids.tolist(),
        }
    )


def write_dataset(dataset: Dataset, path) -> None:
    lines = [_record_line(r) for r in dataset.iter_records()]
    body = "".join(line + "\n" for line in lines)
    header = _canonical(
        {
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "kg": dataset.provenance.kg_name,
            "seed": dataset.provenance.seed,
            "config_hash": dataset.provenance.config_hash,
            "num_entities": dataset.num_entities,
            "num_relations": dataset.num_relations,
            "checksum": hashlib.sha256(body.encode()).hexdigest(),
            "num_records": len(lines),
        }
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write(body)


def read_dataset(path) -> Dataset:
    """Read a dataset file; any malformed part raises :class:`DatasetFormatError`.

    Answer lists must be strictly ascending entity ids and query ids must
    lie inside the universe the header declares.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header_line = fh.readline()
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from None
    if not header_line:
        raise DatasetFormatError(f"{path}: empty file")
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError) as exc:
        raise DatasetFormatError(f"{path}:1: bad header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise DatasetFormatError(f"{path}:1: not a {DATASET_FORMAT} file")
    if header.get("version") != DATASET_VERSION:
        raise DatasetFormatError(
            f"{path}:1: version mismatch (file {header.get('version')}, reader {DATASET_VERSION})"
        )
    for key in ("num_entities", "num_relations"):
        value = header.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise DatasetFormatError(f"{path}:1: header lacks a non-negative integer {key!r}")
    checksum = hashlib.sha256(body.encode()).hexdigest()
    if checksum != header.get("checksum"):
        raise DatasetFormatError(f"{path}: checksum failure (file edited or truncated?)")

    dataset = Dataset(
        provenance=Provenance(
            header.get("kg", "unknown"), header.get("seed", 0), header.get("config_hash", "")
        ),
        num_entities=header["num_entities"],
        num_relations=header["num_relations"],
    )
    for lineno, line in enumerate(body.splitlines(), start=2):
        record = _read_record(line, dataset, f"{path}:{lineno}")
        dataset.records.setdefault(record.type_formula, []).append(record)
    if len(dataset) != header.get("num_records"):
        raise DatasetFormatError(
            f"{path}: record count {len(dataset)} != header {header.get('num_records')}"
        )
    return dataset


def _read_record(line: str, dataset: Dataset, where: str) -> GroundedQueryRecord:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise DatasetFormatError(f"{where}: malformed record: {exc}") from None
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{where}: record is not a JSON object")
    for key in ("type", "query"):
        if not isinstance(obj.get(key), str):
            raise DatasetFormatError(f"{where}: missing string field {key!r}")
    answers, n = [], dataset.num_entities
    for key in ("train_answers", "valid_answers", "test_answers"):
        ids = obj.get(key)
        if not isinstance(ids, list) or not set(map(type, ids)) <= {int}:
            raise DatasetFormatError(f"{where}: {key} is not a list of integer entity ids")
        # -1 < ids[0] < ... < ids[-1] < num_entities, on the int64 array once
        # the type check has refused bools
        try:
            array = np.array(ids, dtype=np.int64)
            ascending = not array.size or (
                array.item(0) >= 0 and array.item(-1) < n and not np.count_nonzero(array[1:] <= array[:-1])
            )
        except OverflowError:
            ascending = False
        if not ascending:
            # the list check names the failure: order and range before int64
            if not all(map(operator.lt, [-1] + ids, ids + [n])):
                raise DatasetFormatError(f"{where}: {key} not sorted strictly ascending inside [0, {n})")
            raise DatasetFormatError(f"{where}: {key} holds an entity id beyond int64")
        answers.append(AnswerSet(array))
    try:
        query = parse_grounded(obj["query"], dataset)  # ids checked against the header universe
    except (QuerySyntaxError, QueryStructureError) as exc:
        raise DatasetFormatError(f"{where}: bad query: {exc}") from None
    formula = serialize_formula(query)
    if formula != obj["type"]:
        raise DatasetFormatError(f"{where}: type {obj['type']!r} is not the query's type {formula}")
    return GroundedQueryRecord(obj["type"], query, *answers)
