"""Knowledge-graph store: triple loading, edge indexes, graph layering.

Graphs are immutable after construction and safe to share across readers.
Entities and relations are dense integer ids; human-readable labels live in
optional dictionary sidecar files (``id<TAB>label`` per line). A triple file
in canonical form is parsed in bulk (:func:`_canonical_rows`); every other
file goes through the general per-token reader, which words every error.

Every build goes through one builder, :func:`_build_table`. It packs each
edge ``(h, r, t)`` into the int64 key ``(h·R + r)·V + t``, so sorted keys are
the edges in ``(head, relation, tail)`` order, and deduplicates the edges of
all cumulative layers with one ``np.unique``, tagging each edge with the
first layer that holds it. The build is one :class:`RelationTable`, where
each edge carries one bit per layer that holds it; a
:class:`KnowledgeGraph` is the view of one layer of it. A layer's incoming
index (:class:`InIndex`) is built from its sorted keys on first use: one
stable sort by tail, no Python object per edge. Readers that race on that
first use build equal indexes, and one of them is kept.

A layer's edge set is an :class:`EdgeView` over its sorted packed keys.
It is a :class:`SortedIdSet`, the read-only set over one sorted ``int64``
id array that also holds a query's answers
(:class:`cqakit.symbolic.AnswerSet`).
"""

from __future__ import annotations

import logging
import operator
import re
from collections.abc import Set
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .rng import make_rng

logger = logging.getLogger(__name__)

class GraphFormatError(ValueError):
    """Raised for malformed triple or dictionary files."""


class EdgeTriple(NamedTuple):
    head: int
    relation: int
    tail: int


def _integral(value) -> int | None:
    """The int equal to ``value``, as a frozenset lookup matches ``1.0`` or
    ``np.True_`` with ``1``; None for anything else."""
    try:
        return operator.index(value)
    except TypeError:
        try:
            integral = int(value)
        except (TypeError, ValueError, OverflowError):
            return None
        return integral if integral == value else None


class SortedIdSet(Set):
    """Read-only set over one sorted, duplicate-free ``int64`` array ``ids``.

    By default the ids are the members: iteration yields them as ints in
    ascending order, and a number equal to an id is a member, as in a
    frozenset. A subclass whose ids encode other members overrides
    ``_members`` (all of them, in ascending id order) and ``_key`` (a probe's
    id, or None). ``_universe`` holds the constructor's arguments after the
    ids. ``==`` and ``-`` against a set of the same class and universe work
    on the arrays; other set algebra falls back to the generic
    implementation, whose results are frozensets. The hash is that of the
    frozenset of the same members.
    """

    __slots__ = ("ids", "_universe")

    def __init__(self, ids: np.ndarray, *universe):
        """Wrap ``ids``, already sorted and duplicate-free ``int64``, with no
        copy or check; the array is made read-only."""
        ids.setflags(write=False)
        self.ids = ids
        self._universe = universe

    def _members(self):
        return self.ids.tolist()

    def _key(self, value) -> int | None:
        return _integral(value)

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self):
        return iter(self._members())

    def __contains__(self, value) -> bool:
        key = self._key(value)
        ids = self.ids
        # the bounds keep the search inside int64
        if key is None or not ids.size or not ids.item(0) <= key <= ids.item(-1):
            return False
        return ids.item(ids.searchsorted(key)) == key

    def _like(self, other) -> bool:
        return type(other) is type(self) and other._universe == self._universe

    def __eq__(self, other):
        if self._like(other):
            return self.ids.size == other.ids.size and bool((self.ids == other.ids).all())
        return super().__eq__(other)

    def __sub__(self, other):
        if self._like(other):
            a, b = self.ids, other.ids
            if not b.size:
                return self
            # an id of a is in b exactly when b holds it where a would insert it
            return type(self)(a[b.take(b.searchsorted(a), mode="clip") != a], *self._universe)
        return super().__sub__(other)

    def __hash__(self):
        return hash(frozenset(self))

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)


class EdgeView(SortedIdSet):
    """Read-only set of :class:`EdgeTriple` over one layer's sorted packed keys ``ids``.

    Built as ``EdgeView(keys, num_entities, num_relations)``; iteration
    yields triples in ascending ``(head, relation, tail)`` order.
    """

    def _members(self):
        return map(EdgeTriple, *(column.tolist() for column in self.rows().T))

    def _key(self, edge) -> int | None:
        if not isinstance(edge, tuple) or len(edge) != 3:
            return None
        head, relation, tail = map(_integral, edge)
        V, R = self._universe
        if None in (head, relation, tail) or not (0 <= head < V and 0 <= relation < R and 0 <= tail < V):
            return None
        return (head * R + relation) * V + tail

    def rows(self) -> np.ndarray:
        """The edges as sorted ``(n, 3)`` int64 ``head, relation, tail`` rows."""
        return _unpack(self.ids, *self._universe)

    def __repr__(self) -> str:
        return f"EdgeView({len(self)} edges)"


@dataclass(frozen=True, eq=False)
class RelationTable:
    """The universe and the edges of every layer of one build.

    ``keys`` are the sorted packed edge keys and ``key_bits`` their layer
    bits. ``heads``, ``tails`` and ``bits`` hold the same edges sorted by
    ``(relation, head, tail)``: relation ``r``'s edges are
    ``heads[offsets[r]:offsets[r + 1]]`` and the same slice of ``tails``.
    An edge's bits are ``0xFF << first_layer`` as ``uint8``, so bit ``k`` is
    set exactly when cumulative layer ``k`` holds it. The arrays are
    read-only; the R + 1 offsets are ints.
    """

    num_entities: int
    num_relations: int
    keys: np.ndarray
    key_bits: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    bits: np.ndarray
    offsets: tuple[int, ...]

    def __post_init__(self):
        for array in (self.keys, self.key_bits, self.heads, self.tails, self.bits):
            array.flags.writeable = False

    @cached_property
    def run_keys(self) -> np.ndarray:
        """``relation * num_entities + head`` of each edge in table order,
        built on first use: sorted, so the edges of one head under one
        relation are one run of equal keys. Read-only."""
        relations = np.repeat(np.arange(self.num_relations, dtype=np.int64), np.diff(self.offsets))
        keys = relations * self.num_entities + self.heads
        keys.flags.writeable = False
        return keys


@dataclass(frozen=True)
class KnowledgeGraph:
    """Cumulative layer ``layer`` of a relation table: the table's universe
    and the edges with bit ``layer`` set.

    Graphs are equal when their universes and edge sets are.
    ``in_index`` holds the edges into each tail (used by the reverse
    sampler), built on first use.
    """

    table: RelationTable = field(repr=False, compare=False)
    layer: int = field(compare=False)
    num_entities: int = field(init=False)
    num_relations: int = field(init=False)
    edges: EdgeView = field(init=False)

    def __post_init__(self):
        t, V, R = self.table, self.table.num_entities, self.table.num_relations
        object.__setattr__(self, "num_entities", V)
        object.__setattr__(self, "num_relations", R)
        object.__setattr__(self, "edges", EdgeView(t.keys[t.key_bits & (1 << self.layer) != 0], V, R))

    @staticmethod
    def from_edges(
        edges, num_entities: int | None = None, num_relations: int | None = None
    ) -> "KnowledgeGraph":
        """One graph over ``edges``, any iterable of triples; duplicates are dropped."""
        return KnowledgeGraph(_build_table([_as_rows(edges)], num_entities, num_relations)[0], 0)

    @cached_property
    def in_index(self) -> InIndex:
        return _in_index(self.edges.ids, self.num_entities)


def _unpack(keys: np.ndarray, num_entities: int, num_relations: int) -> np.ndarray:
    heads, rest = np.divmod(keys, max(num_relations * num_entities, 1))
    relations, tails = np.divmod(rest, max(num_entities, 1))
    return np.stack([heads, relations, tails], axis=1)


def _as_rows(edges) -> np.ndarray:
    """``(n, 3)`` int64 rows from an iterable of ``(head, relation, tail)`` triples."""
    try:
        return np.fromiter(edges, dtype=np.dtype((np.int64, 3)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphFormatError(f"edges must be (head, relation, tail) integer triples: {exc}") from None


class InIndex(NamedTuple):
    """A layer's edges by tail: the edges into ``tail`` are
    ``pairs[offsets[tail]:offsets[tail + 1]]``, each ``head·R + relation``,
    in ascending ``(head, relation)`` order. ``offsets`` are V + 1 ints;
    ``pairs`` is read-only ``int64``."""

    offsets: list[int]
    pairs: np.ndarray


def _in_index(keys: np.ndarray, num_entities: int) -> InIndex:
    """The :class:`InIndex` of sorted packed edge keys ``(h·R + r)·V + t``."""
    pairs, tails = np.divmod(keys, max(num_entities, 1))
    # keys sort by (head, relation, tail), so a stable sort by tail gives
    # (tail, head, relation) order
    pairs = pairs[np.argsort(tails, kind="stable")]
    pairs.flags.writeable = False
    offsets = np.r_[0, np.cumsum(np.bincount(tails, minlength=num_entities))].tolist()
    return InIndex(offsets, pairs)


def _build_table(
    parts: list[np.ndarray], num_entities: int | None, num_relations: int | None
) -> tuple[RelationTable, list[int]]:
    """The relation table of cumulative layers over edge rows: layer ``k``
    holds ``parts[0..k]``.

    At most eight parts, one per bit of the table. Universe sizes default to
    the largest ids seen plus one. Also returns, per part, how many of its
    rows an earlier part already holds.
    """
    rows = np.concatenate(parts)
    tags = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    if rows.size and rows.min() < 0:
        bad = rows[np.flatnonzero((rows < 0).any(axis=1))[0]].tolist()
        raise GraphFormatError(f"negative id in edge {tuple(bad)}")
    max_ent = int(rows[:, [0, 2]].max(initial=-1))
    max_rel = int(rows[:, 1].max(initial=-1))
    V = max_ent + 1 if num_entities is None else num_entities
    R = max_rel + 1 if num_relations is None else num_relations
    if max_ent >= V or max_rel >= R:
        raise GraphFormatError(
            f"edge ids exceed declared universe ({max_ent} >= {V} or {max_rel} >= {R})"
        )
    if V * R * V >= 2**63:  # packed keys are int64
        raise GraphFormatError(f"{V} entities and {R} relations overflow int64 edge keys")
    keys, first, inverse = np.unique(
        (rows[:, 0] * R + rows[:, 1]) * V + rows[:, 2], return_index=True, return_inverse=True
    )
    layer = tags[first]
    repeated = np.bincount(tags[layer[inverse] < tags], minlength=len(parts)).tolist()
    bits = np.left_shift(np.uint8(0xFF), layer.astype(np.uint8))

    heads, relations, tails = _unpack(keys, V, R).T
    # keys sort by (head, relation, tail), so a stable sort by relation
    # gives the (relation, head, tail) order of the table
    by_relation = np.argsort(relations, kind="stable")
    offsets = tuple(np.r_[0, np.cumsum(np.bincount(relations, minlength=R))].tolist())
    table = RelationTable(V, R, keys, bits, heads[by_relation], tails[by_relation], bits[by_relation], offsets)
    return table, repeated


@dataclass(frozen=True)
class GraphLayers:
    """Cumulative train/valid/test graphs: views of layers 0, 1 and 2 of one table."""

    table: RelationTable = field(repr=False, compare=False)
    train: KnowledgeGraph = field(init=False)
    valid: KnowledgeGraph = field(init=False)
    test: KnowledgeGraph = field(init=False)

    def __post_init__(self):
        for k, name in enumerate(("train", "valid", "test")):
            object.__setattr__(self, name, KnowledgeGraph(self.table, k))

    def layer(self, name: str) -> KnowledgeGraph:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown layer {name!r} (expected train/valid/test)") from None


_ID = re.compile(r"0|[1-9][0-9]*")  # the query reader's ids: ASCII decimal, no sign, no leading zero


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _columns(path, data: bytes, width: int) -> tuple[list[str], list[list[str]]]:
    """Every line of the UTF-8 text ``data`` read from ``path`` (CRLF and CR
    read as LF, as in text mode), and the ``width`` TAB-separated columns of
    its non-blank lines.

    One split reads all fields, with a ``"\\n"`` field between lines: each
    line has ``width`` fields exactly when every ``width + 1``-th field is one.
    """
    try:
        lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text: {exc}") from None
    kept = [line for line in lines if line]
    n = len(kept)
    fields = "\t\n\t".join(kept).split("\t") if kept else []
    if n and (len(fields) != (width + 1) * n - 1 or fields[width :: width + 1].count("\n") < n - 1):
        row = next(i for i, line in enumerate(kept) if line.count("\t") != width - 1)
        got = kept[row].count("\t") + 1
        raise GraphFormatError(f"{_where(path, lines, row)}: expected {width} tab-separated fields, got {got}")
    return lines, [fields[i :: width + 1] for i in range(width)]


def _where(path, lines: list[str], row: int) -> str:
    """``path:line`` of the ``row``-th non-blank line; error path only."""
    return f"{path}:{[i for i, line in enumerate(lines, start=1) if line][row]}"


def _ids(tokens: list[str], labels: dict[str, int] | None, size: int) -> np.ndarray:
    """Each token's id: its label's, else the canonical id below ``size``; -1 if neither."""
    table = dict.fromkeys(tokens, -1)
    for token in table:
        if labels is not None and token in labels:
            table[token] = labels[token]
        elif _ID.fullmatch(token) and len(token) < 20 and int(token) < size:  # 20 digits exceed int64
            table[token] = int(token)
    return np.fromiter(map(table.__getitem__, tokens), dtype=np.int64, count=len(tokens))


def _bad_id(token: str, what: str, size: int, labels: bool) -> str:
    """Why ``token`` names no id below ``size``; error path only."""
    if not token:
        return f"empty {what} field"
    if token[0] == "-" and _ID.fullmatch(token, 1):
        return f"negative {what} id {token}"
    if _ID.fullmatch(token):
        return f"{what} id {token} out of {'dictionary ' if labels else ''}range [0, {size})"
    return f"{what} {token!r} is not a canonical id{' or a dictionary label' if labels else ''}"


def load_dictionary(path) -> dict[str, int]:
    """Read an ``id<TAB>label`` file into a label → id map.

    Ids are canonical and exactly ``0..n-1`` in any order; labels are
    non-empty and distinct.
    """
    lines, (tokens, labels) = _columns(path, _read(path), 2)
    ids = _ids(tokens, None, len(tokens))
    seen = set()  # ids and labels: an int never equals a str
    for row, (token, label, idx) in enumerate(zip(tokens, labels, ids.tolist())):
        reason = (
            _bad_id(token, "dictionary", len(tokens), False) if idx < 0
            else "empty label field" if not label
            else f"id {idx} repeats" if idx in seen
            else f"label {label!r} repeats" if label in seen
            else None
        )
        if reason:
            raise GraphFormatError(f"{_where(path, lines, row)}: {reason}")
        seen |= {idx, label}
    return dict(zip(labels, ids.tolist()))


def noncanonical_ids(b: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Whether each field of the bytes ``b`` is not a canonical id of at most 18
    digits (so below ``int64``): it is empty, longer, or has a leading zero.

    ``ends`` holds the separator after each field; a field starts after the one
    before it, or at the start of ``b``. The caller checks that fields hold only
    digits."""
    widths = np.diff(ends, prepend=-1) - 1
    return (widths < 1) | (widths > 18) | ((b[ends - widths] == ord("0")) & (widths > 1))


def _canonical_rows(data: bytes) -> np.ndarray | None:
    """The rows of a triple file in canonical form, or None.

    That form is non-blank lines of three TAB-separated canonical ids of at
    most 18 digits (so below int64), each line ending in LF. One text parse
    reads every id; any other file is the general reader's.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    if not b.size or b[-1] != 10 or b.max() > ord("9"):
        return None
    # every byte below "0" ends a field, and must be the TAB, TAB, LF of a line
    ends = np.flatnonzero(b < ord("0"))
    if ends.size % 3 or (b[ends].reshape(-1, 3) != (9, 9, 10)).any():
        return None
    if noncanonical_ids(b, ends).any():
        return None
    return np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, 3)


def read_triples(
    path,
    entity_dict: dict[str, int] | None = None,
    relation_dict: dict[str, int] | None = None,
) -> np.ndarray:
    """Parse a ``head<TAB>relation<TAB>tail`` file into ``(n, 3)`` int64 rows.

    Each field is a dictionary label or else a canonical id (ASCII decimal,
    no sign, no leading zero) below the dictionary size; blank lines are
    skipped. Each distinct token is resolved once. Without dictionaries, a
    file in the canonical form of :func:`_canonical_rows` is parsed in bulk;
    every other file, and every error, goes through the general reader.
    """
    data = _read(path)
    if entity_dict is None and relation_dict is None:
        rows = _canonical_rows(data)
        if rows is not None:
            return rows
    lines, columns = _columns(path, data, 3)
    n = len(columns[0])
    labels = (entity_dict, relation_dict, entity_dict)
    sizes = [len(d) if d is not None else 2**63 for d in labels]  # int64 bounds ids without a dictionary
    entities = _ids(columns[0] + columns[2], entity_dict, sizes[0])
    rows = np.stack([entities[:n], _ids(columns[1], relation_dict, sizes[1]), entities[n:]], axis=1)
    if rows.min(initial=0) < 0:
        row, col = divmod(int(np.argmax(rows.ravel() < 0)), 3)
        what = "relation" if col == 1 else "entity"
        reason = _bad_id(columns[col][row], what, sizes[col], labels[col] is not None)
        raise GraphFormatError(f"{_where(path, lines, row)}: {reason}")
    return rows


def layer_graphs(
    train_file,
    valid_file,
    test_file,
    entity_dict: dict[str, int] | None = None,
    relation_dict: dict[str, int] | None = None,
) -> GraphLayers:
    """Build cumulative layers from a standard three-file split.

    The train layer holds training edges, the valid layer training+validation
    edges, and the test layer all edges. Edges in valid/test files that
    duplicate an earlier layer are dropped with a warning.
    """
    parts = [read_triples(path, entity_dict, relation_dict) for path in (train_file, valid_file, test_file)]
    num_entities = len(entity_dict) if entity_dict is not None else None
    num_relations = len(relation_dict) if relation_dict is not None else None
    table, repeated = _build_table(parts, num_entities, num_relations)
    if repeated[1] or repeated[2]:
        logger.warning(
            "deduplicated %d valid and %d test edges already present in earlier layers",
            repeated[1],
            repeated[2],
        )
    return GraphLayers(table)


def split_edges(
    kg: KnowledgeGraph, ratios: tuple[int, int, int] = (8, 1, 1), seed: int = 0
) -> GraphLayers:
    """Randomly partition a graph's edges into cumulative train/valid/test layers.

    The shuffle uses the package PRNG (PCG64 seeded via SeedSequence), so the
    split is reproducible across platforms. Intended for synthetic graphs;
    datasets with published splits should use :func:`layer_graphs`.
    """
    if any(r <= 0 for r in ratios):
        raise ValueError("split ratios must be positive")
    rows = kg.edges.rows()
    total = len(rows)
    if total < len(ratios):
        raise ValueError(f"cannot split {total} edges into {len(ratios)} parts")
    shuffled = rows[make_rng(seed).permutation(total)]
    s = sum(ratios)
    n1 = total * ratios[0] // s
    n2 = total * (ratios[0] + ratios[1]) // s
    parts = [shuffled[:n1], shuffled[n1:n2], shuffled[n2:]]
    return GraphLayers(_build_table(parts, kg.num_entities, kg.num_relations)[0])


def synthetic_graph(
    num_entities: int, num_relations: int, num_edges: int, seed: int = 0
) -> KnowledgeGraph:
    """Sample a random multi-relational graph (used for desk-scale runs and tests)."""
    rng = make_rng(seed)
    edges: set[EdgeTriple] = set()
    budget = num_edges * 50
    while len(edges) < num_edges and budget > 0:
        h = int(rng.integers(num_entities))
        t = int(rng.integers(num_entities))
        r = int(rng.integers(num_relations))
        if h != t:
            edges.add(EdgeTriple(h, r, t))
        budget -= 1
    return KnowledgeGraph.from_edges(edges, num_entities, num_relations)
