"""Query structures: abstract query types and grounded computational graphs.

A query is a rooted tree of anchor/projection/intersection/union/negation
nodes. Two textual forms exist:

* abstract type formulas, e.g. ``(p,(i,(p,(e)),(p,(e))))`` — structure only;
* grounded queries, which carry relation/entity ids:
  anchor ``(e,(<ENT>))``, projection ``(p,(<REL>),<SUB>)``,
  intersection ``(i,<SUB>,<SUB>,...)``, union ``(u,...)``, negation ``(n,<SUB>)``.

A grounded query is also its type's pattern plus its id vector: each
projection's relation, then its child's ids, and each anchor's entity, in
print order (:func:`query_ids`; :func:`fill_pattern` builds the tree back).

Both forms are read by one reader, which accepts exactly what the printers
write plus optional ASCII whitespace (``string.whitespace``) between tokens:
ids are ASCII decimal integers without leading zeros. Child order is
preserved verbatim so serialization and linearization are deterministic.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple


class QuerySyntaxError(ValueError):
    """Malformed query text (unbalanced parentheses, bad token, garbage)."""


class QueryStructureError(ValueError):
    """Structurally invalid query (arity violation, id out of range)."""


class OperatorKind(enum.Enum):
    ANCHOR = "e"
    PROJECTION = "p"
    INTERSECTION = "i"
    UNION = "u"
    NEGATION = "n"


_LETTER_TO_KIND = {k.value: k for k in OperatorKind}
_GROUNDED = (OperatorKind.ANCHOR, OperatorKind.PROJECTION)  # the kinds that carry an id


@dataclass(frozen=True)
class QueryNode:
    """One node of a query tree.

    ``relation`` is set on grounded projections, ``entity`` on grounded
    anchors; both stay ``None`` in abstract type patterns. Arity invariants
    are enforced at construction, so no violating node can exist.
    """

    kind: OperatorKind
    relation: int | None = None
    entity: int | None = None
    children: tuple["QueryNode", ...] = ()

    def __post_init__(self):
        k, n = self.kind, len(self.children)
        if k is OperatorKind.ANCHOR:
            rule, ok = "no children", n == 0
        elif k is OperatorKind.PROJECTION or k is OperatorKind.NEGATION:
            rule, ok = "exactly 1 child", n == 1
        else:  # intersection / union
            rule, ok = "at least 2 children", n >= 2
        if not ok:
            raise QueryStructureError(f"{k.name.lower()} takes {rule}, got {n}")
        if (self.relation is not None and k is not OperatorKind.PROJECTION) or (
            self.entity is not None and k is not OperatorKind.ANCHOR
        ):
            raise QueryStructureError(
                f"{k.name.lower()} node cannot carry relation={self.relation}, entity={self.entity}"
            )

    def walk(self) -> Iterator["QueryNode"]:
        """Yield this node and all descendants, depth-first, children in order."""
        yield self
        for c in self.children:
            yield from c.walk()


ComputationGraph = QueryNode  # a grounded query is its root node


def anchor(entity: int | None = None) -> QueryNode:
    return QueryNode(OperatorKind.ANCHOR, entity=entity)


def projection(relation: int | None, child: QueryNode) -> QueryNode:
    return QueryNode(OperatorKind.PROJECTION, relation=relation, children=(child,))


def intersection(*children: QueryNode) -> QueryNode:
    return QueryNode(OperatorKind.INTERSECTION, children=tuple(children))


def union(*children: QueryNode) -> QueryNode:
    return QueryNode(OperatorKind.UNION, children=tuple(children))


def negation(child: QueryNode) -> QueryNode:
    return QueryNode(OperatorKind.NEGATION, children=(child,))


def query_depth(node: QueryNode) -> int:
    """Maximum number of projection nodes on any root-to-leaf path."""
    if node.kind is OperatorKind.ANCHOR:
        return 0
    sub = max(query_depth(c) for c in node.children)
    return sub + 1 if node.kind is OperatorKind.PROJECTION else sub


@dataclass(frozen=True)
class QueryType:
    """Abstract query structure with its canonical formula text."""

    formula_text: str
    pattern: QueryNode = field(compare=False)

    @property
    def depth(self) -> int:
        return query_depth(self.pattern)

    @cached_property
    def has_negation(self) -> bool:
        return any(n.kind is OperatorKind.NEGATION for n in self.pattern.walk())


# ---------------------------------------------------------------------------
# reader: query text is JSON once brackets and operator letters are rewritten

_OUTSIDE_GRAMMAR = re.compile(r"[^(),0-9epiun \t\n\r\v\f]")
_TO_JSON = str.maketrans(
    {"(": "[", ")": "]", "\v": " ", "\f": " ", **{k.value: f'"{k.value}"' for k in OperatorKind}}
)
_FROM_JSON = str.maketrans({"[": "(", "]": ")", '"': None})


def _decode(text: str) -> object:
    """Nested lists of the text: ``(p,(3),(e,(5)))`` → ``["p", [3], ["e", [5]]]``."""
    bad = _OUTSIDE_GRAMMAR.search(text)
    if bad:
        what = "unknown operator" if bad.group().isalpha() else "unexpected character"
        raise QuerySyntaxError(f"{what} {bad.group()!r} at position {bad.start()}")
    source = text.translate(_TO_JSON)
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        if exc.pos >= len(source):
            raise QuerySyntaxError("unexpected end of input") from None
        where = exc.pos - source.count('"', 0, exc.pos)  # each operator letter gained two quotes
        what = "trailing garbage" if exc.msg == "Extra data" else exc.msg.lower()
        raise QuerySyntaxError(f"{what} at position {where}") from None
    except ValueError as exc:  # an id past the interpreter's integer-digit limit
        raise QuerySyntaxError(str(exc)) from None


def _build(item: object, universe: tuple[float, float] | None) -> QueryNode:
    """One node from ``[letter, (id group,) child, ...]``; arity is QueryNode's to check.
    A grounded query's ids must lie inside ``universe`` (entities, relations)."""
    if type(item) is not list or not item or type(item[0]) is not str:
        found = json.dumps(item, separators=(",", ":")).translate(_FROM_JSON)
        raise QuerySyntaxError(f"expected '(<operator>,...)', found {found!r}")
    kind = _LETTER_TO_KIND[item[0]]
    rest = item[1:]
    ident = None
    if universe is not None and kind in _GROUNDED:
        group = rest[0] if rest else None
        if type(group) is not list or len(group) != 1 or type(group[0]) is not int:
            raise QuerySyntaxError(f"{kind.name.lower()} needs an id group '(<int>)' after its operator")
        ident, rest = group[0], rest[1:]
        size = universe[kind is OperatorKind.PROJECTION]
        if ident >= size:
            what = "relation" if kind is OperatorKind.PROJECTION else "entity"
            raise QueryStructureError(f"{what} id {ident} out of range [0, {size})")
    children = tuple(_build(child, universe) for child in rest)
    if kind is OperatorKind.ANCHOR:
        return QueryNode(kind, entity=ident, children=children)
    return QueryNode(kind, relation=ident, children=children)


def _read(text: str, universe: tuple[float, float] | None) -> QueryNode:
    try:
        return _build(_decode(text), universe)
    except RecursionError:
        raise QuerySyntaxError("query nested too deeply") from None


@lru_cache(maxsize=1024)
def parse_formula(text: str) -> QueryType:
    """Parse an abstract type formula such as ``(p,(i,(p,(e)),(p,(e))))``.

    A type is immutable, so each text is parsed once and the type shared.
    """
    root = _read(text, None)
    try:
        return QueryType(formula_text=serialize_formula(root), pattern=root)
    except RecursionError:  # the printer recurses deeper than the reader
        raise QuerySyntaxError("query nested too deeply") from None


def parse_grounded(text: str, kg=None) -> ComputationGraph:
    """Parse a grounded query; with ``kg`` (anything with ``num_entities`` and
    ``num_relations``), its ids must lie inside that universe."""
    return _read(text, (math.inf, math.inf) if kg is None else (kg.num_entities, kg.num_relations))


def serialize_grounded(node: QueryNode) -> str:
    """Canonical grounded text: no whitespace, children in stored order."""
    k = node.kind
    if k is OperatorKind.ANCHOR:
        return f"(e,({node.entity}))"
    if k is OperatorKind.PROJECTION:
        return f"(p,({node.relation}),{serialize_grounded(node.children[0])})"
    inner = ",".join(serialize_grounded(c) for c in node.children)
    return f"({k.value},{inner})"


def query_ids(node: QueryNode) -> list[int]:
    """A grounded query's ids in print order: each projection's relation, then
    its child's ids, and each anchor's entity. With its type's pattern they
    are the whole query (:func:`fill_pattern` is the inverse)."""
    return [n.entity if n.kind is OperatorKind.ANCHOR else n.relation for n in node.walk() if n.kind in _GROUNDED]


def fill_pattern(pattern: QueryNode, ids) -> ComputationGraph:
    """The grounded query of a type ``pattern`` with ``ids`` in print order."""
    it = map(int, ids)

    def fill(node: QueryNode) -> QueryNode:
        if node.kind is OperatorKind.ANCHOR:
            return anchor(next(it))
        if node.kind is OperatorKind.PROJECTION:
            return projection(next(it), fill(node.children[0]))
        return QueryNode(node.kind, children=tuple(map(fill, node.children)))

    return fill(pattern)


def serialize_formula(node: QueryNode) -> str:
    """Type formula of a (grounded or abstract) query, ids erased."""
    k = node.kind
    if k is OperatorKind.ANCHOR:
        return "(e)"
    inner = ",".join(serialize_formula(c) for c in node.children)
    return f"({k.value},{inner})"


# ---------------------------------------------------------------------------
# built-in benchmark query types

_FOL_IN_DISTRIBUTION = (
    "(p,(e))",
    "(p,(p,(e)))",
    "(p,(p,(p,(e))))",
    "(p,(i,(p,(e)),(p,(e))))",
    "(p,(i,(p,(e)),(p,(p,(e)))))",
    "(p,(i,(n,(p,(e))),(p,(e))))",
    "(p,(i,(p,(p,(e))),(p,(p,(e)))))",
    "(p,(i,(n,(p,(e))),(p,(p,(e)))))",
    "(p,(u,(p,(e)),(p,(e))))",
    "(p,(u,(p,(e)),(p,(p,(e)))))",
    "(p,(u,(p,(p,(e))),(p,(p,(e)))))",
    "(i,(p,(e)),(p,(e)))",
    "(i,(p,(e)),(p,(p,(e))))",
    "(i,(p,(e)),(p,(p,(p,(e)))))",
    "(i,(n,(p,(e))),(p,(e)))",
    "(i,(n,(p,(p,(e)))),(p,(e)))",
    "(i,(p,(p,(e))),(p,(p,(e))))",
    "(i,(p,(p,(e))),(p,(p,(p,(e)))))",
    "(i,(n,(p,(e))),(p,(p,(e))))",
    "(i,(n,(p,(p,(e)))),(p,(p,(e))))",
    "(i,(p,(p,(p,(e)))),(p,(p,(p,(e)))))",
    "(i,(n,(p,(e))),(p,(p,(p,(e)))))",
    "(i,(n,(p,(p,(e)))),(p,(p,(p,(e)))))",
    "(u,(p,(e)),(p,(e)))",
    "(u,(p,(e)),(p,(p,(e))))",
    "(u,(p,(e)),(p,(p,(p,(e)))))",
    "(u,(p,(p,(e))),(p,(p,(e))))",
    "(u,(p,(p,(e))),(p,(p,(p,(e)))))",
    "(u,(p,(p,(p,(e)))),(p,(p,(p,(e)))))",
)

_FOL_OUT_OF_DISTRIBUTION = (
    "(i,(i,(p,(e)),(p,(p,(p,(e))))),(p,(p,(e))))",
    "(u,(p,(e)),(p,(i,(n,(p,(e))),(p,(e)))))",
    "(p,(u,(i,(n,(p,(e))),(p,(e))),(p,(e))))",
    "(i,(n,(p,(e))),(p,(u,(p,(e)),(p,(p,(e))))))",
    "(p,(i,(p,(e)),(u,(p,(p,(e))),(p,(p,(e))))))",
    "(i,(p,(p,(p,(e)))),(p,(u,(p,(e)),(p,(p,(e))))))",
    "(u,(i,(n,(p,(e))),(p,(p,(p,(e))))),(p,(p,(p,(e)))))",
    "(i,(i,(p,(e)),(p,(p,(e)))),(p,(p,(p,(e)))))",
    "(i,(n,(u,(p,(e)),(p,(e)))),(p,(p,(e))))",
    "(u,(i,(p,(e)),(p,(p,(e)))),(p,(p,(e))))",
    "(i,(p,(e)),(u,(p,(p,(p,(e)))),(p,(p,(p,(e))))))",
    "(p,(i,(i,(n,(p,(e))),(p,(p,(e)))),(n,(p,(e)))))",
    "(u,(i,(p,(p,(e))),(p,(p,(p,(e))))),(p,(p,(p,(e)))))",
    "(p,(u,(i,(p,(e)),(p,(p,(e)))),(p,(p,(e)))))",
    "(i,(i,(p,(p,(e))),(p,(p,(p,(e))))),(p,(p,(e))))",
    "(i,(n,(p,(p,(e)))),(p,(i,(p,(e)),(p,(e)))))",
    "(i,(p,(p,(e))),(u,(p,(e)),(p,(e))))",
    "(i,(p,(e)),(u,(p,(p,(e))),(p,(p,(p,(e))))))",
    "(u,(i,(n,(p,(e))),(p,(p,(p,(e))))),(p,(p,(e))))",
    "(i,(i,(p,(e)),(p,(p,(p,(e))))),(n,(p,(p,(e)))))",
    "(u,(i,(p,(p,(e))),(p,(p,(e)))),(p,(p,(p,(e)))))",
    "(i,(i,(p,(p,(e))),(p,(p,(p,(e))))),(n,(p,(p,(e)))))",
    "(u,(i,(p,(e)),(p,(e))),(p,(p,(e))))",
    "(u,(p,(i,(n,(p,(e))),(p,(p,(e))))),(p,(p,(e))))",
    "(i,(p,(e)),(p,(i,(n,(p,(e))),(p,(p,(e))))))",
    "(u,(p,(p,(e))),(p,(u,(p,(p,(e))),(p,(p,(e))))))",
    "(i,(n,(p,(e))),(u,(p,(p,(e))),(p,(p,(e)))))",
    "(p,(i,(n,(p,(e))),(u,(p,(e)),(p,(p,(e))))))",
    "(i,(n,(i,(n,(p,(e))),(p,(e)))),(p,(p,(p,(e)))))",
)


class BuiltinQueryTypes(NamedTuple):
    in_distribution: tuple[QueryType, ...]
    out_of_distribution: tuple[QueryType, ...]
    conjunctive_in: tuple[QueryType, ...]
    conjunctive_out: tuple[QueryType, ...]

    @property
    def all_fol(self) -> tuple[QueryType, ...]:
        return self.in_distribution + self.out_of_distribution


@lru_cache(maxsize=1)
def builtin_query_types() -> BuiltinQueryTypes:
    """The benchmark's query-type catalog.

    29 in-distribution and 29 out-of-distribution first-order types (58
    total), plus the 12+3 conjunctive subsets used for encoders that support
    neither union nor negation: the union- and negation-free types of each
    catalog, in catalog order.
    """
    in_distribution = tuple(parse_formula(f) for f in _FOL_IN_DISTRIBUTION)
    out_of_distribution = tuple(parse_formula(f) for f in _FOL_OUT_OF_DISTRIBUTION)

    def conjunctive(types):
        excluded = {OperatorKind.UNION, OperatorKind.NEGATION}
        return tuple(t for t in types if excluded.isdisjoint(n.kind for n in t.pattern.walk()))

    return BuiltinQueryTypes(
        in_distribution=in_distribution,
        out_of_distribution=out_of_distribution,
        conjunctive_in=conjunctive(in_distribution),
        conjunctive_out=conjunctive(out_of_distribution),
    )


def distribution_of(formula_text: str) -> str:
    """``in``/``out`` for built-in types, ``other`` for anything else."""
    builtin = builtin_query_types()
    if any(t.formula_text == formula_text for t in builtin.in_distribution):
        return "in"
    if any(t.formula_text == formula_text for t in builtin.out_of_distribution):
        return "out"
    return "other"
