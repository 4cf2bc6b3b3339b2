"""Query structures: abstract query types and grounded computational graphs.

A query is a rooted tree of anchor/projection/intersection/union/negation
nodes. Two textual forms exist:

* abstract type formulas, e.g. ``(p,(i,(p,(e)),(p,(e))))`` — structure only;
* grounded queries, which carry relation/entity ids:
  anchor ``(e,(<ENT>))``, projection ``(p,(<REL>),<SUB>)``,
  intersection ``(i,<SUB>,<SUB>,...)``, union ``(u,...)``, negation ``(n,<SUB>)``.

Child order is preserved verbatim so serialization and linearization are
deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
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
            ok = n == 0 and self.relation is None
        elif k is OperatorKind.PROJECTION:
            ok = n == 1 and self.entity is None
        elif k is OperatorKind.NEGATION:
            ok = n == 1 and self.relation is None and self.entity is None
        else:  # intersection / union
            ok = n >= 2 and self.relation is None and self.entity is None
        if not ok:
            raise QueryStructureError(
                f"{k.name.lower()} node with {n} children"
                + ("" if k is not OperatorKind.ANCHOR else f", relation={self.relation}")
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


def num_anchors(node: QueryNode) -> int:
    return sum(1 for n in node.walk() if n.kind is OperatorKind.ANCHOR)


def validate_ids(node: QueryNode, num_entities: int, num_relations: int) -> None:
    """Check every anchor/relation id against a graph universe."""
    for n in node.walk():
        if n.kind is OperatorKind.ANCHOR and not (0 <= (n.entity or 0) < num_entities):
            raise QueryStructureError(f"entity id {n.entity} out of range [0, {num_entities})")
        if n.kind is OperatorKind.PROJECTION and not (0 <= (n.relation or 0) < num_relations):
            raise QueryStructureError(f"relation id {n.relation} out of range [0, {num_relations})")


@dataclass(frozen=True)
class QueryType:
    """Abstract query structure with its canonical formula text."""

    formula_text: str
    pattern: QueryNode = field(compare=False)

    @property
    def depth(self) -> int:
        return query_depth(self.pattern)

    @property
    def num_anchors(self) -> int:
        return num_anchors(self.pattern)


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parsers


class _Token(NamedTuple):
    kind: str  # "(", ")", ",", "op", "int"
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            tokens.append(_Token("op", ch, i))
            i += 1
        else:
            raise QuerySyntaxError(f"unexpected character {ch!r} at position {i}")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError(f"unexpected end of input, expected {kind!r}")
        if tok.kind != kind:
            raise QuerySyntaxError(f"expected {kind!r} at position {tok.pos}, got {tok.value!r}")
        self.i += 1
        return tok

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise QuerySyntaxError(f"trailing garbage at position {tok.pos}: {tok.value!r}")

    def operator(self) -> OperatorKind:
        tok = self.take("op")
        kind = _LETTER_TO_KIND.get(tok.value)
        if kind is None:
            raise QuerySyntaxError(f"unknown operator {tok.value!r} at position {tok.pos}")
        return kind

    def int_group(self) -> int:
        # "(<int>)"
        self.take("(")
        value = int(self.take("int").value)
        self.take(")")
        return value

    def node(self, grounded: bool) -> QueryNode:
        self.take("(")
        kind = self.operator()
        if kind is OperatorKind.ANCHOR:
            entity = None
            if grounded:
                self.take(",")
                entity = self.int_group()
            self.take(")")
            return anchor(entity)
        if kind is OperatorKind.PROJECTION:
            relation = None
            if grounded:
                self.take(",")
                relation = self.int_group()
            self.take(",")
            child = self.node(grounded)
            self.take(")")
            return projection(relation, child)
        children = []
        while self.peek() is not None and self.peek().kind == ",":
            self.take(",")
            children.append(self.node(grounded))
        self.take(")")
        if kind is OperatorKind.NEGATION:
            if len(children) != 1:
                raise QueryStructureError(f"negation takes exactly 1 child, got {len(children)}")
            return negation(children[0])
        if len(children) < 2:
            raise QueryStructureError(
                f"{kind.name.lower()} takes at least 2 children, got {len(children)}"
            )
        return QueryNode(kind, children=tuple(children))


def parse_formula(text: str) -> QueryType:
    """Parse an abstract type formula such as ``(p,(i,(p,(e)),(p,(e))))``."""
    parser = _Parser(text)
    root = parser.node(grounded=False)
    parser.done()
    return QueryType(formula_text=serialize_formula(root), pattern=root)


def parse_grounded(text: str, kg=None) -> ComputationGraph:
    """Parse a grounded query; validates ids against ``kg`` when supplied."""
    parser = _Parser(text)
    root = parser.node(grounded=True)
    parser.done()
    if kg is not None:
        validate_ids(root, kg.num_entities, kg.num_relations)
    return root


def serialize_grounded(node: QueryNode) -> str:
    """Canonical grounded text: no whitespace, children in stored order."""
    k = node.kind
    if k is OperatorKind.ANCHOR:
        return f"(e,({node.entity}))"
    if k is OperatorKind.PROJECTION:
        return f"(p,({node.relation}),{serialize_grounded(node.children[0])})"
    inner = ",".join(serialize_grounded(c) for c in node.children)
    return f"({k.value},{inner})"


def serialize_formula(node: QueryNode) -> str:
    """Type formula of a (grounded or abstract) query, ids erased."""
    k = node.kind
    if k is OperatorKind.ANCHOR:
        return "(e)"
    inner = ",".join(serialize_formula(c) for c in node.children)
    return f"({k.value},{inner})"


def query_type_of(node: QueryNode) -> QueryType:
    """The unique abstract type obtained by erasing ids from a grounded query."""
    return parse_formula(serialize_formula(node))


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

_CONJUNCTIVE_IN_DISTRIBUTION = (
    "(p,(e))",
    "(p,(p,(e)))",
    "(p,(p,(p,(e))))",
    "(p,(i,(p,(e)),(p,(e))))",
    "(p,(i,(p,(e)),(p,(p,(e)))))",
    "(p,(i,(p,(p,(e))),(p,(p,(e)))))",
    "(i,(p,(e)),(p,(e)))",
    "(i,(p,(e)),(p,(p,(e))))",
    "(i,(p,(e)),(p,(p,(p,(e)))))",
    "(i,(p,(p,(e))),(p,(p,(e))))",
    "(i,(p,(p,(e))),(p,(p,(p,(e)))))",
    "(i,(p,(p,(p,(e)))),(p,(p,(p,(e)))))",
)

_CONJUNCTIVE_OUT_OF_DISTRIBUTION = (
    "(i,(i,(p,(e)),(p,(p,(p,(e))))),(p,(p,(e))))",
    "(i,(i,(p,(e)),(p,(p,(e)))),(p,(p,(p,(e)))))",
    "(i,(i,(p,(p,(e))),(p,(p,(p,(e))))),(p,(p,(e))))",
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
    neither union nor negation.
    """
    return BuiltinQueryTypes(
        in_distribution=tuple(parse_formula(f) for f in _FOL_IN_DISTRIBUTION),
        out_of_distribution=tuple(parse_formula(f) for f in _FOL_OUT_OF_DISTRIBUTION),
        conjunctive_in=tuple(parse_formula(f) for f in _CONJUNCTIVE_IN_DISTRIBUTION),
        conjunctive_out=tuple(parse_formula(f) for f in _CONJUNCTIVE_OUT_OF_DISTRIBUTION),
    )


def distribution_of(formula_text: str) -> str:
    """``in``/``out`` for built-in types, ``other`` for anything else."""
    builtin = builtin_query_types()
    if any(t.formula_text == formula_text for t in builtin.in_distribution):
        return "in"
    if any(t.formula_text == formula_text for t in builtin.out_of_distribution):
        return "out"
    return "other"
