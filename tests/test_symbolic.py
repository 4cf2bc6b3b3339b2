import numpy as np
import pytest

from cqakit import sampler
from cqakit.graph import KnowledgeGraph, synthetic_graph
from cqakit.queries import builtin_query_types, negation, parse_grounded, union
from cqakit.rng import make_rng
from cqakit.sampler import SamplerConfig, ground_type, sample_dataset
from cqakit.symbolic import (
    DNF,
    AnswerSet,
    BudgetExceededError,
    Clause,
    Ent,
    Literal,
    Var,
    answer,
    answer_dnf,
    to_dnf,
)

ASSOC, INTERACT = 0, 1
# figure-style toy: diseases 0-1, proteins 2-4, substances 5-7, bystander 8
FIGURE_EDGES = [
    (0, ASSOC, 2),  # MadCow assoc P2
    (0, ASSOC, 3),
    (1, ASSOC, 3),  # Alzheimer assoc P3
    (1, ASSOC, 4),
    (2, INTERACT, 5),
    (3, INTERACT, 6),
    (4, INTERACT, 7),
    (8, INTERACT, 5),  # unrelated interaction
]


@pytest.fixture(scope="module")
def figure_kg():
    return KnowledgeGraph.from_edges(FIGURE_EDGES, 9, 2)


def test_anchor_answer(figure_kg):
    assert answer(figure_kg, parse_grounded("(e,(4))")) == {4}


def test_complement_answer(figure_kg):
    result = answer(figure_kg, parse_grounded("(n,(e,(4)))"))
    assert result == set(range(9)) - {4}
    assert len(result) == 8


def test_figure_query_hand_enumerated(figure_kg):
    # substances interacting with proteins associated with either disease:
    # assoc(0) = {2,3}; assoc(1) = {3,4}; union = {2,3,4}; interact -> {5,6,7}
    q = parse_grounded("(p,(1),(u,(p,(0),(e,(0))),(p,(0),(e,(1)))))")
    assert answer(figure_kg, q) == {5, 6, 7}


def test_projection_of_empty_is_empty(figure_kg):
    assert answer(figure_kg, parse_grounded("(p,(0),(e,(5)))")) == set()


def test_to_dnf_single_atomic():
    dnf = to_dnf(parse_grounded("(p,(3),(e,(7)))"))
    assert len(dnf.clauses) == 1
    clause = dnf.clauses[0]
    assert clause.complements == ()
    assert clause.literals == (Literal(False, 3, Ent(7), Var(0)),)


def test_to_dnf_intersection_with_negation():
    dnf = to_dnf(parse_grounded("(i,(p,(1),(e,(4))),(n,(p,(2),(e,(6)))))"))
    assert len(dnf.clauses) == 1
    lits = set(dnf.clauses[0].literals)
    assert lits == {
        Literal(False, 1, Ent(4), Var(0)),
        Literal(True, 2, Ent(6), Var(0)),
    }


def test_to_dnf_union_two_clauses():
    dnf = to_dnf(parse_grounded("(u,(p,(1),(e,(4))),(p,(2),(e,(6))))"))
    assert len(dnf.clauses) == 2


def test_to_dnf_deep_negation_uses_complement():
    dnf = to_dnf(parse_grounded("(i,(n,(p,(1),(p,(0),(e,(2))))),(p,(0),(e,(3))))"))
    (clause,) = dnf.clauses
    assert len(clause.complements) == 1
    assert clause.complements[0].term == Var(0)


def test_answer_dnf_empty_clause_list(figure_kg):
    assert answer_dnf(figure_kg, DNF((), 1)) == set()


def test_answer_dnf_anchor_pin(figure_kg):
    dnf = to_dnf(parse_grounded("(e,(5))"))
    (clause,) = dnf.clauses
    assert clause.literals == (Literal(False, None, Var(0), Ent(5)),)
    assert answer_dnf(figure_kg, dnf) == {5}


def test_answer_dnf_matches_answer_on_figure(figure_kg):
    q = parse_grounded("(p,(1),(u,(p,(0),(e,(0))),(p,(0),(e,(1)))))")
    assert answer_dnf(figure_kg, to_dnf(q)) == answer(figure_kg, q)


def test_permutation_invariance(toy_kg):
    rng = make_rng(5)
    bt = builtin_query_types()
    for qtype in (bt.in_distribution[3], bt.in_distribution[11], bt.in_distribution[23]):
        g, _ = ground_type(toy_kg, qtype, rng)

        def flip(node):
            from cqakit.queries import QueryNode, OperatorKind

            children = tuple(flip(c) for c in node.children)
            if node.kind in (OperatorKind.INTERSECTION, OperatorKind.UNION):
                children = children[::-1]
            return QueryNode(node.kind, node.relation, node.entity, children)

        assert answer(toy_kg, g) == answer(toy_kg, flip(g))


def test_de_morgan_spot_check(toy_kg):
    from cqakit.queries import intersection

    rng = make_rng(9)
    for _ in range(10):
        a = parse_grounded(f"(p,({int(rng.integers(5))}),(e,({int(rng.integers(60))})))")
        b = parse_grounded(f"(p,({int(rng.integers(5))}),(e,({int(rng.integers(60))})))")
        lhs = answer(toy_kg, negation(union(a, b)))
        rhs = answer(toy_kg, intersection(negation(a), negation(b)))
        assert lhs == rhs


def test_monotonicity_across_layers(desk_layers):
    rng = make_rng(21)
    bt = builtin_query_types()
    negation_free = [t for t in bt.in_distribution if "(n," not in t.formula_text]
    for qtype in negation_free[:8]:
        g, _ = ground_type(desk_layers.train, qtype, rng)
        a_train = answer(desk_layers.train, g)
        a_valid = answer(desk_layers.valid, g)
        a_test = answer(desk_layers.test, g)
        assert a_train <= a_valid <= a_test


def test_answer_is_the_records_answer_set(desk_layers):
    types = builtin_query_types().all_fol
    dataset = sample_dataset(desk_layers, types, SamplerConfig(per_type_count=2, seed=4))
    assert len(dataset.records) == len(types) and all(dataset.records.values())
    assert sampler.AnswerSet is AnswerSet
    for record in dataset.iter_records():
        for name in ("train", "valid", "test"):
            result = answer(desk_layers.layer(name), record.query)
            assert type(result) is AnswerSet
            ids = result.ids
            assert ids.dtype == np.int64 and not ids.flags.writeable
            assert (ids[1:] > ids[:-1]).all()
            assert result == record.answers(name)


def test_oracle_equivalence_random_sample(toy_kg):
    rng = make_rng(33)
    bt = builtin_query_types()
    for qtype in bt.all_fol:
        g, v = ground_type(toy_kg, qtype, rng)
        expected = answer(toy_kg, g)
        assert v in expected
        assert answer_dnf(toy_kg, to_dnf(g)) == expected


def test_budget_exceeded():
    kg = synthetic_graph(40, 3, 300, seed=2)
    q = parse_grounded("(p,(0),(p,(1),(p,(2),(e,(3)))))")
    with pytest.raises(BudgetExceededError):
        answer_dnf(kg, to_dnf(q), budget=10)


def test_clause_structures_are_frozen():
    lit = Literal(False, 1, Ent(0), Var(0))
    clause = Clause((lit,))
    with pytest.raises(AttributeError):
        clause.literals = ()
