"""Reverse sampling of grounded queries and dataset serialization.

Grounding works backwards from a uniformly sampled answer node: projections
sample an incoming edge and recurse on its head, intersections ground every
child at the same node, union children after the first re-sample the node,
and anchors emit the node reached. Negated subtrees are grounded at an
independently sampled node and the whole query is then verified against the
symbolic engine (reject/retry), so every emitted query is guaranteed to have
the seed node among its answers.

A grounded query is its type's pattern plus one ``int64`` id vector, the
layout of BetaE's query files: each projection's relation, then its child's
ids, and each anchor's entity, in print order. Grounding appends to that
vector as it walks the pattern, the symbolic engine reads it, and a record
keeps it; no query tree is built on the way from sampling to tokens.
``GroundedQueryRecord.query`` builds the tree on demand for the code that
walks trees.

A dataset is sampled a type at a time: every record is grounded from its
own random stream, all streams seeded in one pass (:func:`~cqakit.rng.streams`),
and the type's accepted queries are then answered by one engine pass whose
bits give every record's three answer sets.

One template per type string (:func:`_type_template`) holds what a type
fixes of its queries: the text the reader matches, the format the writer
prints, which ids are relations, and the token list with a slot per id
that :func:`query_tokens` fills for training and evaluation.

Queries with large answer sets are never filtered out. A record holds its
answers on each layer as a :class:`cqakit.symbolic.AnswerSet`, the type
:func:`~cqakit.symbolic.answer` returns: sorted ``int64`` entity ids behind a
read-only set, on the same base as the graph's edge sets
(:class:`~cqakit.graph.SortedIdSet`). This module re-exports it.

Dataset files are written atomically, each line formatted directly. The
reader takes lines in the writer's canonical form in bulk: a query is
matched against its type's template, which yields its ids, and all answer
lists of a file are parsed by one text parse. Every other line goes through
the per-record JSON reader, which words every error.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .files import replacing
from .graph import GraphLayers, KnowledgeGraph, noncanonical_ids
from .linearize import NUM_SPECIALS, PAD, Vocabulary, linearize
from .queries import (
    ComputationGraph,
    OperatorKind,
    QueryNode,
    QueryStructureError,
    QuerySyntaxError,
    QueryType,
    fill_pattern,
    parse_formula,
    parse_grounded,
    query_ids,
    serialize_formula,
)
from .rng import streams
from .symbolic import PASS_BYTES, AnswerSet, answer, answer_bits

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


@dataclass(frozen=True, eq=False)
class GroundedQueryRecord:
    """One grounded query with its answers on the train, valid and test layers.

    The query is its type, ``type_formula``, filled with ``ids``: its
    relation and entity ids in print order
    (:func:`~cqakit.queries.query_ids`), kept as a read-only ``int64`` array.
    Records are equal when those four fields are. ``query`` builds the tree
    on first access, for the code that walks trees: the DNF oracle, the CLI
    and checks made apart from the program.
    """

    type_formula: str
    ids: np.ndarray
    train_answers: AnswerSet
    valid_answers: AnswerSet
    test_answers: AnswerSet

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        ids.flags.writeable = False
        object.__setattr__(self, "ids", ids)

    def _fields(self) -> tuple:
        return (self.type_formula, self.ids.tobytes(), self.train_answers, self.valid_answers, self.test_answers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroundedQueryRecord):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    @cached_property
    def query(self) -> ComputationGraph:
        return fill_pattern(parse_formula(self.type_formula).pattern, self.ids)

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
) -> tuple[list[int], int]:
    """Ground one query of the given type; returns ``(ids, seed_node)``.

    ``ids`` are the query's relation and entity ids in print order, the
    type's pattern filled as :func:`~cqakit.queries.fill_pattern` reads it.
    The seed node is guaranteed to be an answer of the query on ``layer``.
    A projection into ``v`` draws one of the edges into ``v`` uniformly from
    ``layer.in_index``, in ``(head, relation)`` order. Raises
    :class:`GroundingError` when the retry budget is exhausted.
    """
    if not layer.edges:
        raise GroundingError("cannot ground queries on an empty graph")
    ids: list[int] = []
    offsets, pairs = layer.in_index

    def ground(node: QueryNode, v: int) -> None:
        k = node.kind
        if k is OperatorKind.ANCHOR:
            ids.append(v)
        elif k is OperatorKind.PROJECTION:
            lo, hi = offsets[v], offsets[v + 1]
            if lo == hi:
                raise _DeadEnd
            u, r = divmod(pairs.item(rng.integers(lo, hi)), layer.num_relations)
            ids.append(r)
            ground(node.children[0], u)
        elif k is OperatorKind.INTERSECTION:
            for child in node.children:
                ground(child, v)
        elif k is OperatorKind.UNION:
            ground(node.children[0], v)
            for child in node.children[1:]:
                start = len(ids)
                for attempt in range(16):
                    w = int(rng.integers(layer.num_entities))
                    try:
                        ground(child, w)
                        break
                    except _DeadEnd:
                        del ids[start:]  # drop what the failed child appended
                else:
                    raise _DeadEnd
        else:
            # negation: ground the negated subtree at an independent node; the
            # acceptance check below restores the answer guarantee.
            w = int(rng.integers(layer.num_entities))
            ground(node.children[0], w)

    for _ in range(max_retries):
        v = int(rng.integers(layer.num_entities))
        ids.clear()
        try:
            ground(qtype.pattern, v)
        except _DeadEnd:
            continue
        if qtype.has_negation and v not in answer(layer, qtype.pattern, ids):
            continue
        return ids, v
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
    answer sets on all three layers, read from the bits of one
    :func:`answer_bits` pass over the type's records. Grounded queries are
    deduplicated within a type, on their id vectors. Record ``i`` of type
    ``t`` draws from an independent random stream keyed by ``(seed, t, i)``,
    so output is reproducible and independent of scheduling; the states of
    all streams are computed in one pass (:func:`~cqakit.rng.streams`). A
    type listed twice raises ``ValueError``.
    """
    formulas = [qtype.formula_text for qtype in types]
    for i, formula in enumerate(formulas):
        if formula in formulas[:i]:
            raise ValueError(f"query type {formula} is listed more than once")
    source = layers.layer(cfg.source_layer)
    dataset = Dataset(
        provenance=Provenance(kg_name, cfg.seed, cfg.config_hash()),
        num_entities=source.num_entities,
        num_relations=source.num_relations,
    )
    count = cfg.per_type_count
    # the stream of record i of type t is keyed (t, i); they are taken in order
    rngs = streams(cfg.seed, np.indices((len(types), count)).reshape(2, -1).T)
    for qtype in types:
        grounded: list[list[int]] = []
        seeds: list[int] = []
        seen: set[tuple[int, ...]] = set()
        for rng in itertools.islice(rngs, count):
            for _ in range(cfg.max_retries):
                try:
                    ids, v = ground_type(source, qtype, rng, cfg.max_retries)
                except GroundingError:
                    break
                key = tuple(ids)  # within a type, the ids are the query text
                if key in seen:
                    continue
                seen.add(key)
                grounded.append(ids)
                seeds.append(v)
                break
        if len(grounded) < count:
            logger.warning(
                "type %s: %d of %d records could not be grounded (skipped)",
                qtype.formula_text,
                count - len(grounded),
                count,
            )
        dataset.records[qtype.formula_text] = _records(source, qtype, grounded, seeds, cfg.source_layer)
    return dataset


def _records(
    source: KnowledgeGraph, qtype: QueryType, grounded: list[list[int]], seeds: list[int], layer_name: str
) -> list[GroundedQueryRecord]:
    """The records of a type's grounded queries, each grounded at its seed
    node: :func:`answer_bits` passes of at most ``PASS_BYTES`` of bits, one
    test that every seed node answers its query on the source layer, and
    one ``nonzero`` per pass that all answer sets are cut from."""
    if not grounded:
        return []
    ids, V = np.array(grounded, dtype=np.int64), source.num_entities
    ids.flags.writeable = False
    step = max(1, PASS_BYTES // V)
    records = []
    for start in range(0, len(ids), step):
        rows = ids[start : start + step]
        bits = answer_bits(source, qtype.pattern, rows)  # bit k: the answers on layer k
        at_seed = bits[np.arange(len(rows)), seeds[start : start + step]]
        missing = (at_seed & (1 << source.layer) == 0).nonzero()[0]
        if missing.size:
            # grounding and the symbolic engine disagree
            n = start + missing.item(0)
            text = _type_template(qtype.formula_text).text.format(*grounded[n])
            raise RuntimeError(
                f"type {qtype.formula_text}: seed node {seeds[n]} is not an answer of {text} "
                f"on the {layer_name} layer"
            )
        # the train, valid and test rows of every record, flattened: one
        # 1-D nonzero gives each answer's row and, from its offset, entity
        found = ((bits[:, None, :] & _LAYER_BITS) != 0).reshape(-1).nonzero()[0]
        entities = found % V
        ends = np.searchsorted(found, np.arange(1, 3 * len(rows) + 1) * V).tolist()
        answers = [AnswerSet(entities[a:z]) for a, z in zip([0] + ends[:-1], ends)]
        records += (
            GroundedQueryRecord(qtype.formula_text, row, *answers[3 * n : 3 * n + 3])
            for n, row in enumerate(rows)
        )
    return records


# ---------------------------------------------------------------------------
# dataset file format: one JSON header line, then one canonical JSON record
# per line with sorted answer lists.


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` in canonical form, replacing ``path`` atomically.

    Each line is formatted directly, in the bytes ``json.dumps`` gives with
    sorted keys and no whitespace: a query is printed from its type's format
    and its ids, and answer ids are rendered through one table of their
    decimal strings. A record whose type is not a canonical formula that its
    ids fill raises ``ValueError``.
    """
    records = list(dataset.iter_records())
    answers = [a.ids for r in records for a in (r.train_answers, r.valid_answers, r.test_answers)]
    digits = _digit_table(answers)
    if digits is None:
        texts = (_canonical(ids.tolist())[1:-1] for ids in answers)
    else:
        texts = (",".join(digits[ids].tolist()) for ids in answers)
    queries = (_template(record).text.format(*record.ids.tolist()) for record in records)
    # zip takes a record's train, valid and test texts from ``texts`` in
    # turn; the query and its type are in the query grammar, which JSON
    # strings hold unescaped
    body = "".join(
        f'{{"query":"{query}","test_answers":[{test}],'
        f'"train_answers":[{train}],"type":"{record.type_formula}","valid_answers":[{valid}]}}\n'
        for record, query, train, valid, test in zip(records, queries, texts, texts, texts)
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
    for key in ("version", "num_records"):
        if not isinstance(header.get(key), int) or isinstance(header.get(key), bool):
            raise DatasetFormatError(f"{path}:1: header {key!r} is not an integer")
    if header["version"] != DATASET_VERSION:
        raise DatasetFormatError(
            f"{path}:1: version mismatch (file {header['version']}, reader {DATASET_VERSION})"
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
    if len(dataset) != header["num_records"]:
        raise DatasetFormatError(f"{path}: record count {len(dataset)} != header {header['num_records']}")
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
    """What a type fixes of its grounded queries, read once per type string.

    ``regex`` matches the query's canonical text with one group per id, and
    ``text`` is that text as a format with one ``{}`` per id, both in print
    order; ``relations`` says whether each id is a relation's. ``tokens`` is
    the query's token list (:func:`~cqakit.linearize.linearize`) with each
    id's token at ``slots``, in the same order, left as PAD.
    """

    regex: re.Pattern
    text: str
    relations: tuple[bool, ...]
    tokens: np.ndarray
    slots: np.ndarray


@lru_cache(maxsize=1024)
def _type_template(formula: str) -> _Template | None:
    """The template of a canonical type formula; None for any other text.

    The token list is the linearization of the type's pattern filled with ids
    ``0..k-1`` in a vocabulary of ``k`` relations and ``k`` entities, so every id's
    token is its own and at least ``NUM_SPECIALS``, a relation's below
    ``NUM_SPECIALS + k``. Nesting deep enough to overflow the parser or the
    linearizer gives None, never ``RecursionError``.
    """
    text = formula.replace("(e)", "(e,({}))").replace("(p,", "(p,({}),")
    pieces = text.split("{}")
    k = len(pieces) - 1
    try:
        qtype = parse_formula(formula)
        if qtype.formula_text != formula:
            return None
        tokens = np.array(linearize(fill_pattern(qtype.pattern, range(k)), Vocabulary(k, k)), dtype=np.int64)
    except (QuerySyntaxError, QueryStructureError, RecursionError):
        return None
    slots = np.flatnonzero(tokens >= NUM_SPECIALS)
    relations = tokens[slots] < NUM_SPECIALS + k
    tokens[slots] = PAD
    regex = re.compile(_ID.join(map(re.escape, pieces)))
    return _Template(regex, text, tuple(relations.tolist()), tokens, slots)


def _template(record: GroundedQueryRecord) -> _Template:
    """The template of a record's type; ``ValueError`` unless the type is a
    canonical formula and the record holds one id per slot of it."""
    template = _type_template(record.type_formula)
    if template is None or len(record.ids) != len(template.relations):
        raise ValueError(
            f"a record of type {record.type_formula!r} with {len(record.ids)} ids "
            "is not a grounded query of a canonical type"
        )
    return template


def query_tokens(records: list[GroundedQueryRecord], vocab: Vocabulary) -> list[list[int]]:
    """Each record's token list, equal to ``linearize(record.query, vocab)``.

    The lists are filled one type at a time: the type's token template
    takes the records' id vectors at its slots, so no tree is built. An id
    outside ``vocab`` raises the :class:`~cqakit.queries.QueryStructureError`
    that :func:`~cqakit.linearize.linearize` raises for the first such record.
    """
    out: list[list[int]] = [[] for _ in records]
    by_type: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        by_type.setdefault(record.type_formula, []).append(i)
    for indices in by_type.values():
        template = _template(records[indices[0]])
        ids = np.stack([records[i].ids for i in indices])
        relations = np.array(template.relations, dtype=bool)
        if ((ids < 0) | (ids >= np.where(relations, vocab.num_relations, vocab.num_entities))).any():
            for record in records:  # the reference words the error
                linearize(record.query, vocab)
        tokens = np.tile(template.tokens, (len(indices), 1))
        tokens[:, template.slots] = ids + np.where(relations, NUM_SPECIALS, vocab.entity_offset)
        for i, row in zip(indices, tokens.tolist()):
            out[i] = row
    return out


def _read_canonical(lines: list[str], dataset: Dataset) -> list[GroundedQueryRecord | None]:
    """Each line's record where the line is in the writer's canonical form
    and valid; None where :func:`_read_record` must read it.

    A query must match the template of the record's ``type``, which is also
    the type check, with its ids inside the header's universe. The ids of
    all queries are kept in one read-only array, and all answer lists are
    parsed together (:func:`_id_lists`).
    """
    universe = (dataset.num_entities, dataset.num_relations)
    queries: list[tuple[str, int, int] | None] = []  # per line: its type and the span of its ids
    every: list[int] = []  # the ids of all queries, in line order
    answers: list[np.ndarray | None] = []  # per line: the train, valid and test ids
    texts: list[str] = []  # their texts, for lines not yet parsed
    pending = 0
    for line in lines:
        found = _RECORD_LINE.fullmatch(line)
        template = found and _type_template(found[4])
        match = template and template.regex.fullmatch(found[1])
        ids = list(map(int, match.groups())) if match else ()
        if not ids or any(i >= universe[r] for i, r in zip(ids, template.relations)):
            queries.append(None)
            texts += ("", "", "")
            continue
        queries.append((found[4], len(every), len(every) + len(ids)))
        every += ids
        texts += (found[3], found[5], found[2])
        pending += len(line)
        if pending > _PARSE_CHARS:
            answers += _id_lists(texts, dataset.num_entities)
            texts, pending = [], 0
    answers += _id_lists(texts, dataset.num_entities)
    all_ids = np.array(every, dtype=np.int64)
    all_ids.flags.writeable = False
    records: list[GroundedQueryRecord | None] = []
    for i, query in enumerate(queries):
        arrays = answers[3 * i : 3 * i + 3]
        if query is None or any(a is None for a in arrays):
            records.append(None)
        else:
            formula, a, z = query
            records.append(GroundedQueryRecord(formula, all_ids[a:z], *map(AnswerSet, arrays)))
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
    bad = noncanonical_ids(b, np.flatnonzero(b == ord(",")))
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
        ids = query_ids(query)
    except (QuerySyntaxError, QueryStructureError) as exc:
        raise DatasetFormatError(f"{where}: bad query: {exc}") from None
    except RecursionError:  # the printer recurses deeper than the reader
        raise DatasetFormatError(f"{where}: bad query: query nested too deeply") from None
    if formula != obj["type"]:
        raise DatasetFormatError(f"{where}: type {obj['type']!r} is not the query's type {formula}")
    return GroundedQueryRecord(obj["type"], ids, *answers)
