"""Reverse sampling of grounded queries and dataset serialization.

Grounding works backwards from a uniformly sampled answer node: projections
sample an incoming edge and recurse on its head, intersections ground every
child at the same node, union children after the first re-sample the node,
and anchors emit the node reached. Negated subtrees are grounded at an
independently sampled node and the whole query is then verified against the
symbolic engine (reject/retry), so every emitted query is guaranteed to have
the seed node among its answers.

Queries with large answer sets are never filtered out. A record holds its
answers on each layer as a :class:`cqakit.symbolic.AnswerSet`, the type
:func:`~cqakit.symbolic.answer` returns: sorted ``int64`` entity ids behind a
read-only set, on the same base as the graph's edge sets
(:class:`~cqakit.graph.SortedIdSet`). This module re-exports it.

Dataset files are written atomically, each line formatted directly. The
reader takes lines in the writer's canonical form in bulk: a query is
matched against its type's template, and all answer lists of a file are
parsed by one text parse. Every other line goes through the per-record
JSON reader, which words every error.
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .files import replacing
from .graph import GraphLayers, KnowledgeGraph
from .queries import (
    ComputationGraph,
    OperatorKind,
    QueryNode,
    QueryStructureError,
    QuerySyntaxError,
    QueryType,
    anchor,
    negation,
    parse_formula,
    parse_grounded,
    projection,
    serialize_formula,
    serialize_grounded,
)
from .rng import make_rng
from .symbolic import AnswerSet, answer, answer_bits

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


def write_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` in canonical form, replacing ``path`` atomically.

    Each line is formatted directly, in the bytes ``json.dumps`` gives with
    sorted keys and no whitespace; answer ids are rendered through one table
    of their decimal strings.
    """
    records = list(dataset.iter_records())
    answers = [a.ids for r in records for a in (r.train_answers, r.valid_answers, r.test_answers)]
    digits = _digit_table(answers)
    if digits is None:
        texts = (_canonical(ids.tolist())[1:-1] for ids in answers)
    else:
        texts = (",".join(digits[ids].tolist()) for ids in answers)
    # zip takes a record's train, valid and test texts from ``texts`` in turn
    body = "".join(
        f'{{"query":{_json_string(serialize_grounded(record.query))},"test_answers":[{test}],'
        f'"train_answers":[{train}],"type":{_json_string(record.type_formula)},"valid_answers":[{valid}]}}\n'
        for record, train, valid, test in zip(records, texts, texts, texts)
    )
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
            "num_records": len(records),
        }
    )
    with replacing(path, "x", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write(body)


def _digit_table(arrays: list[np.ndarray]) -> np.ndarray | None:
    """The decimal strings of ``0..m`` as an object array, where ``m`` is the
    largest id of ``arrays``; None unless every id is an ``int64`` in that
    range and the table is no longer than the ids it renders."""
    every = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    if every.dtype != np.int64 or not every.size or every.min() < 0 or every.max() >= every.size:
        return None
    return np.array(list(map(str, range(every.max() + 1))), dtype=object)


# header keys that name where a dataset came from, with their types
_PROVENANCE = (("kg", str, "unknown"), ("seed", int, 0), ("config_hash", str, ""))


def read_dataset(path) -> Dataset:
    """Read a dataset file; any malformed part raises :class:`DatasetFormatError`.

    Answer lists must be strictly ascending entity ids and query ids must
    lie inside the universe the header declares. Lines in the writer's
    canonical form are read in bulk (:func:`_read_canonical`); every other
    line, and every error, goes through :func:`_read_record`.
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
    for key, kind, _ in _PROVENANCE:
        value = header.get(key, kind())
        if not isinstance(value, kind) or isinstance(value, bool):
            what = "a string" if kind is str else "an integer"
            raise DatasetFormatError(f"{path}:1: header {key!r} is not {what}")
    checksum = hashlib.sha256(body.encode()).hexdigest()
    if checksum != header.get("checksum"):
        raise DatasetFormatError(f"{path}: checksum failure (file edited or truncated?)")

    dataset = Dataset(
        provenance=Provenance(*(header.get(key, default) for key, _, default in _PROVENANCE)),
        num_entities=header["num_entities"],
        num_relations=header["num_relations"],
    )
    lines = body.splitlines()
    del body  # not held twice while the records are read
    for lineno, (line, record) in enumerate(zip(lines, _read_canonical(lines, dataset)), start=2):
        if record is None:
            record = _read_record(line, dataset, f"{path}:{lineno}")
        dataset.records.setdefault(record.type_formula, []).append(record)
    if len(dataset) != header.get("num_records"):
        raise DatasetFormatError(
            f"{path}: record count {len(dataset)} != header {header.get('num_records')}"
        )
    return dataset


# a record line as the writer prints it: sorted keys, no whitespace, no escapes
_RECORD_LINE = re.compile(
    r'\{"query":"([^"\\]*)","test_answers":\[([0-9,]*)\],"train_answers":\[([0-9,]*)\],'
    r'"type":"([^"\\]*)","valid_answers":\[([0-9,]*)\]\}'
)
_ID = r"(0|[1-9][0-9]{0,17})"  # a canonical id below int64
# answer text parsed at a time: bounds the reader's per-id temporaries
_PARSE_CHARS = 1 << 20


class _Template(NamedTuple):
    """A type's grounded query text as a regex with one group per id, in
    print order; whether each id is a relation's; and the builder of the
    query from an iterator over those ids."""

    text: re.Pattern
    relations: tuple[bool, ...]
    build: Callable[[Iterator[int]], QueryNode]


def _pattern_template(node: QueryNode) -> tuple[str, tuple[bool, ...], Callable]:
    """The parts of a :class:`_Template` for the subtree at ``node``, with the regex as text."""
    k = node.kind
    if k is OperatorKind.ANCHOR:
        return rf"\(e,\({_ID}\)\)", (False,), lambda ids: anchor(next(ids))
    texts, relations, builds = zip(*map(_pattern_template, node.children))
    inner, relations = ",".join(texts), sum(relations, ())
    if k is OperatorKind.PROJECTION:
        (child,) = builds
        return rf"\(p,\({_ID}\),{inner}\)", (True, *relations), lambda ids: projection(next(ids), child(ids))
    return rf"\({k.value},{inner}\)", relations, lambda ids: QueryNode(k, children=tuple(b(ids) for b in builds))


@lru_cache(maxsize=1024)
def _type_template(formula: str) -> _Template | None:
    """The template of a canonical type formula; None for any other text."""
    try:
        qtype = parse_formula(formula)
        if qtype.formula_text != formula:
            return None
        text, relations, build = _pattern_template(qtype.pattern)
        return _Template(re.compile(text), relations, build)
    except (ValueError, RecursionError, re.error):
        return None


def _read_canonical(lines: list[str], dataset: Dataset) -> list[GroundedQueryRecord | None]:
    """Each line's record where the line is in the writer's canonical form
    and valid; None where :func:`_read_record` must read it.

    A query must match the template of the record's ``type``, which is also
    the type check, with its ids inside the header's universe. All answer
    lists are parsed together (:func:`_id_lists`).
    """
    universe = (dataset.num_entities, dataset.num_relations)
    queries: list[tuple[str, QueryNode] | None] = []
    answers: list[np.ndarray | None] = []  # per line: the train, valid and test ids
    texts: list[str] = []  # their texts, for lines not yet parsed
    pending = 0
    for line in lines:
        found = _RECORD_LINE.fullmatch(line)
        template = found and _type_template(found[4])
        match = template and template.text.fullmatch(found[1])
        ids = list(map(int, match.groups())) if match else ()
        if not ids or any(i >= universe[r] for i, r in zip(ids, template.relations)):
            queries.append(None)
            texts += ("", "", "")
            continue
        queries.append((found[4], template.build(iter(ids))))
        texts += (found[3], found[5], found[2])
        pending += len(line)
        if pending > _PARSE_CHARS:
            answers += _id_lists(texts, dataset.num_entities)
            texts, pending = [], 0
    answers += _id_lists(texts, dataset.num_entities)
    records: list[GroundedQueryRecord | None] = []
    for i, query in enumerate(queries):
        arrays = answers[3 * i : 3 * i + 3]
        if query is None or any(a is None for a in arrays):
            records.append(None)
        else:
            records.append(GroundedQueryRecord(*query, *map(AnswerSet, arrays)))
    return records


def _id_lists(texts: list[str], num_entities: int) -> list[np.ndarray | None]:
    """Each text's comma-separated ids as an ``int64`` array, or None where
    they are not canonical ids of at most 18 digits, strictly ascending and
    below ``num_entities``. One text parse reads all the lists, and the
    arrays are views of its result."""
    counts = np.fromiter((t.count(",") + 1 if t else 0 for t in texts), dtype=np.int64, count=len(texts))
    starts = np.cumsum(counts) - counts  # the index of each list's first id
    joined = ",".join(filter(None, texts)).encode()
    b = np.frombuffer(joined + b"," if joined else b"", dtype=np.uint8)
    ends = np.flatnonzero(b == ord(","))  # the comma after each id
    widths = np.diff(ends, prepend=-1) - 1
    bad = (widths < 1) | (widths > 18) | ((b[ends - widths] == ord("0")) & (widths > 1))
    if bad.any():
        refused = set((starts.searchsorted(bad.nonzero()[0], "right") - 1).tolist())
        arrays = _id_lists(["" if i in refused else t for i, t in enumerate(texts)], num_entities)
        return [None if i in refused else a for i, a in enumerate(arrays)]
    ids = np.fromstring(joined, dtype=np.int64, sep=",")
    bad = np.zeros(ids.size, dtype=bool)
    np.less_equal(ids[1:], ids[:-1], out=bad[1:])
    bad[starts[counts > 0]] = False  # a list's first id follows no id of its own list
    if num_entities < 2**63:
        bad |= ids >= num_entities
    refused = set((starts.searchsorted(bad.nonzero()[0], "right") - 1).tolist())
    bounds = zip(starts.tolist(), (starts + counts).tolist())
    return [None if i in refused else ids[a:z] for i, (a, z) in enumerate(bounds)]


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
        formula = serialize_formula(query)
    except (QuerySyntaxError, QueryStructureError) as exc:
        raise DatasetFormatError(f"{where}: bad query: {exc}") from None
    except RecursionError:  # the printer recurses deeper than the reader
        raise DatasetFormatError(f"{where}: bad query: query nested too deeply") from None
    if formula != obj["type"]:
        raise DatasetFormatError(f"{where}: type {obj['type']!r} is not the query's type {formula}")
    return GroundedQueryRecord(obj["type"], query, *answers)
