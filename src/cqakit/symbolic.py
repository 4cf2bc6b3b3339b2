"""Exact set-semantics evaluation of grounded queries.

Two independent routes to an answer set:

* :func:`answer_bits` — evaluates a query on every layer of a graph's
  relation table at once, as a ``uint8`` array over the entities whose bit
  ``k`` marks an answer on cumulative layer ``k``. An anchor is ``0xFF`` at
  its entity; a projection gathers its source's bits at the relation's
  edge heads, keeps those of layers holding the edge (``& bits``) and ORs
  them into the tails; intersection, union and negation are ``&``, ``|``
  and ``~``, so a complement is never materialised as a set.
  :func:`answer` reads one layer's bit as an :class:`AnswerSet`, the sorted
  entity ids a dataset record holds its answers in.
* :func:`to_dnf` + :func:`answer_dnf` — convert to disjunctive normal form
  and brute-force variable assignments, testing each edge against a
  frozenset of the layer's triples.

The second route exists to cross-validate the first; it shares no code with
it beyond the graph container.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .graph import KnowledgeGraph, SortedIdSet
from .queries import (
    ComputationGraph,
    OperatorKind,
    QueryNode,
    intersection,
    negation,
    union,
)

EntitySet = set[int]


class BudgetExceededError(RuntimeError):
    """The brute-force enumerator exceeded its assignment budget."""


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


def answer(layer: KnowledgeGraph, query: ComputationGraph) -> AnswerSet:
    """Evaluate a grounded query on one graph layer, exactly.

    Empty sets are legal results.
    """
    # nonzero is several times faster on a boolean row
    return AnswerSet(((answer_bits(layer, query) & (1 << layer.layer)) != 0).nonzero()[0])


def answer_bits(graph: KnowledgeGraph, query: ComputationGraph) -> np.ndarray:
    """Answers of a grounded query on every layer of ``graph``'s relation table.

    Returns a ``uint8`` array of length ``num_entities``: bit ``k`` of entry
    ``v`` is set exactly when ``v`` answers the query on cumulative layer
    ``k`` (bits past the last layer repeat it).
    """
    V, offsets = graph.num_entities, graph.table.offsets
    all_heads, all_tails, all_bits = graph.table.heads, graph.table.tails, graph.table.bits

    def bits(node: QueryNode) -> np.ndarray:
        k = node.kind
        if k is OperatorKind.PROJECTION:
            lo, hi = offsets[node.relation], offsets[node.relation + 1]
            out = np.zeros(V, dtype=np.uint8)
            child = node.children[0]
            if child.kind is OperatorKind.ANCHOR:
                # the anchor's edges are one run of distinct tails: assign them
                a, b = all_heads[lo:hi].searchsorted((child.entity, child.entity + 1)).tolist()
                out[all_tails[lo + a : lo + b]] = all_bits[lo + a : lo + b]
                return out
            vals = bits(child)[all_heads[lo:hi]] & all_bits[lo:hi]
            nz = vals.nonzero()[0]
            np.bitwise_or.at(out, all_tails[lo:hi][nz], vals[nz])
            return out
        if k is OperatorKind.ANCHOR:
            out = np.zeros(V, dtype=np.uint8)
            out[node.entity] = 0xFF
            return out
        if k is OperatorKind.NEGATION:
            return ~bits(node.children[0])
        result = bits(node.children[0])
        for child in node.children[1:]:
            if k is OperatorKind.INTERSECTION:
                result &= bits(child)
            else:
                result |= bits(child)
        return result

    return bits(query)


# ---------------------------------------------------------------------------
# DNF representation


@dataclass(frozen=True)
class Var:
    index: int  # 0 is the target variable


@dataclass(frozen=True)
class Ent:
    entity: int


Term = Var | Ent


@dataclass(frozen=True)
class Literal:
    """An atomic constraint inside a conjunctive clause.

    With a relation id: ``relation(source, target)`` must hold (edge
    membership), negated if flagged. With ``relation=None`` it is a pin:
    ``source == target``, used where an anchor constant meets a variable.
    """

    negated: bool
    relation: int | None
    source: Term
    target: Term


@dataclass(frozen=True)
class Complement:
    """``value(term)`` must lie outside the answer set of ``subquery``.

    Carries negations whose scope is a whole sub-query (e.g. the complement
    of a multi-hop projection), which no single literal can express.
    """

    term: Term
    subquery: "DNF"


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]
    complements: tuple[Complement, ...] = ()


@dataclass(frozen=True)
class DNF:
    """Disjunction of conjunctive clauses over variables ``Var(0)..Var(num_vars-1)``."""

    clauses: tuple[Clause, ...]
    num_vars: int


_Alt = tuple[list[Literal], list[Complement], Term]  # one clause-in-progress


def _subst(term: Term, old: Term, new: Term) -> Term:
    return new if term == old else term


def _subst_alt(lits, comps, old, new):
    lits = [
        Literal(l.negated, l.relation, _subst(l.source, old, new), _subst(l.target, old, new))
        for l in lits
    ]
    comps = [Complement(_subst(c.term, old, new), c.subquery) for c in comps]
    return lits, comps


def to_dnf(query: ComputationGraph) -> DNF:
    """Convert a grounded query to DNF with the same answer semantics.

    Negation is pushed inward by De Morgan; a negated single-hop projection
    from an anchor becomes a negated literal, while the complement of any
    deeper subquery is kept as a nested :class:`Complement` (the existential
    closure of flat literals cannot express it). An anchor meeting the root
    becomes a pin of the target variable.
    """
    counter = [1]  # Var(0) is reserved for the target

    def fresh() -> Var:
        v = Var(counter[0])
        counter[0] += 1
        return v

    def unify(alt: _Alt, out: Var) -> tuple[list[Literal], list[Complement]]:
        lits, comps, t = alt
        if isinstance(t, Var):
            lits, comps = _subst_alt(lits, comps, t, out)
        else:
            lits = lits + [Literal(False, None, out, t)]
        return lits, comps

    def translate(node: QueryNode) -> list[_Alt]:
        k = node.kind
        if k is OperatorKind.ANCHOR:
            return [([], [], Ent(node.entity))]
        if k is OperatorKind.PROJECTION:
            w = fresh()
            return [
                (lits + [Literal(False, node.relation, t, w)], comps, w)
                for lits, comps, t in translate(node.children[0])
            ]
        if k is OperatorKind.INTERSECTION:
            w = fresh()
            merged: list[_Alt] = []
            for combo in product(*(translate(c) for c in node.children)):
                lits: list[Literal] = []
                comps: list[Complement] = []
                for alt in combo:
                    l, c = unify(alt, w)
                    lits += l
                    comps += c
                merged.append((lits, comps, w))
            return merged
        if k is OperatorKind.UNION:
            w = fresh()
            alts: list[_Alt] = []
            for child in node.children:
                for alt in translate(child):
                    l, c = unify(alt, w)
                    alts.append((l, c, w))
            return alts
        # negation
        child = node.children[0]
        ck = child.kind
        if ck is OperatorKind.NEGATION:
            return translate(child.children[0])
        if ck is OperatorKind.UNION:
            return translate(intersection(*(negation(c) for c in child.children)))
        if ck is OperatorKind.INTERSECTION:
            return translate(union(*(negation(c) for c in child.children)))
        w = fresh()
        if ck is OperatorKind.ANCHOR:
            return [([Literal(True, None, w, Ent(child.entity))], [], w)]
        # ck is a projection
        grandchild = child.children[0]
        if grandchild.kind is OperatorKind.ANCHOR:
            return [([Literal(True, child.relation, Ent(grandchild.entity), w)], [], w)]
        return [([], [Complement(w, to_dnf(child))], w)]

    clauses = []
    for alt in translate(query):
        lits, comps = unify(alt, Var(0))
        clauses.append(Clause(tuple(lits), tuple(comps)))
    return DNF(tuple(clauses), counter[0])


# ---------------------------------------------------------------------------
# brute-force enumeration


def _term_value(term: Term, assign: dict[int, int]) -> int | None:
    if isinstance(term, Ent):
        return term.entity
    return assign.get(term.index)


def _literal_holds(edges: frozenset, lit: Literal, assign) -> bool:
    s = _term_value(lit.source, assign)
    t = _term_value(lit.target, assign)
    if lit.relation is None:
        holds = s == t
    else:
        holds = (s, lit.relation, t) in edges
    return holds != lit.negated


def answer_dnf(layer: KnowledgeGraph, dnf: DNF, budget: int = 10_000_000) -> EntitySet:
    """Answer set of a DNF by enumerating variable assignments.

    ``v`` is an answer iff some clause has a satisfying assignment with the
    target variable equal to ``v``. Assignments are enumerated depth-first
    with pruning as soon as a fully-bound constraint fails; ``budget`` caps
    the total number of variable bindings tried (including those of nested
    complement subqueries) and :class:`BudgetExceededError` is raised beyond
    it.
    """
    steps = [0]
    # a frozenset of the triples is the oracle's only use of the layer's edges
    return _answer_dnf(frozenset(layer.edges), layer.num_entities, dnf, budget, steps)


def _answer_dnf(edges: frozenset, n: int, dnf: DNF, budget: int, steps: list[int]) -> EntitySet:
    result: EntitySet = set()
    for clause in dnf.clauses:
        result |= _clause_targets(edges, n, clause, budget, steps)
    return result


def _clause_targets(edges, n, clause: Clause, budget, steps) -> EntitySet:
    # complement answer sets do not depend on the assignment: compute once
    comp_sets = [_answer_dnf(edges, n, c.subquery, budget, steps) for c in clause.complements]

    var_ids = {0}
    for lit in clause.literals:
        for term in (lit.source, lit.target):
            if isinstance(term, Var):
                var_ids.add(term.index)
    for comp in clause.complements:
        if isinstance(comp.term, Var):
            var_ids.add(comp.term.index)
    order = sorted(var_ids)  # target first, then existentials

    def bound_at(position: int):
        known = set(order[: position + 1])
        lits = [
            lit
            for lit in clause.literals
            if {t.index for t in (lit.source, lit.target) if isinstance(t, Var)}
            <= known
            and any(isinstance(t, Var) and t.index == order[position] for t in (lit.source, lit.target))
        ]
        comps = [
            (comp, cset)
            for comp, cset in zip(clause.complements, comp_sets)
            if isinstance(comp.term, Var) and comp.term.index == order[position]
        ]
        return lits, comps

    checks = [bound_at(i) for i in range(len(order))]
    # constraints with no variables at all are constant: reject the clause early
    constant_lits = [
        lit
        for lit in clause.literals
        if not any(isinstance(t, Var) for t in (lit.source, lit.target))
    ]
    if not all(_literal_holds(edges, lit, {}) for lit in constant_lits):
        return set()
    for comp, cset in zip(clause.complements, comp_sets):
        if isinstance(comp.term, Ent) and comp.term.entity in cset:
            return set()

    assign: dict[int, int] = {}

    def ok_at(position: int) -> bool:
        lits, comps = checks[position]
        return all(_literal_holds(edges, lit, assign) for lit in lits) and all(
            assign[comp.term.index] not in cset for comp, cset in comps
        )

    def search(position: int) -> bool:
        if position == len(order):
            return True
        var = order[position]
        for value in range(n):
            steps[0] += 1
            if steps[0] > budget:
                raise BudgetExceededError(f"assignment budget {budget} exceeded")
            assign[var] = value
            if ok_at(position) and search(position + 1):
                del assign[var]
                return True
        del assign[var]
        return False

    targets: EntitySet = set()
    for v in range(n):
        steps[0] += 1
        if steps[0] > budget:
            raise BudgetExceededError(f"assignment budget {budget} exceeded")
        assign[0] = v
        if ok_at(0) and search(1):
            targets.add(v)
    return targets
