import pytest

from cqakit.graph import KnowledgeGraph
from cqakit.linearize import (
    LPAREN,
    OP_I,
    OP_N,
    OP_P,
    OP_U,
    PAD,
    RPAREN,
    TokenizationError,
    Vocabulary,
    build_vocabulary,
    delinearize,
    linearize,
    render_tokens,
)
from cqakit.queries import anchor, builtin_query_types, fill_pattern, parse_grounded
from cqakit.rng import make_rng
from cqakit.sampler import ground_type

FIGURE_QUERY = "(p,(7),(u,(p,(3),(e,(12))),(p,(3),(e,(45)))))"
FIGURE_GOLDEN = (
    "[(][P][Interact][(][U][(][P][Assoc][MadCow][)][(][P][Assoc][Alzheimer][)][)][)]"
)


def figure_vocab():
    return Vocabulary(num_relations=8, num_entities=50)


def test_vocabulary_layout():
    kg = KnowledgeGraph.from_edges([(0, 0, 1)], 10, 3)
    vocab = build_vocabulary(kg)
    assert vocab.size == 7 + 3 + 10
    assert vocab.entity_token(0) == 7 + 3
    assert vocab.entity_of(vocab.entity_token(0)) == 0
    assert vocab.relation_token(0) == 7
    assert vocab.relation_of(vocab.relation_token(2)) == 2


def test_vocabulary_full_scale_size():
    # FB15k-sized universe: 7 specials + 1,345 relations + 14,951 entities
    assert Vocabulary(num_relations=1345, num_entities=14951).size == 16303


def test_vocabulary_empty_graph():
    kg = KnowledgeGraph.from_edges([], 0, 0)
    assert build_vocabulary(kg).size == 7


def test_figure_sequence_with_labels():
    vocab = figure_vocab()
    tokens = linearize(parse_grounded(FIGURE_QUERY), vocab)
    rendered = render_tokens(
        tokens,
        vocab,
        entity_labels={12: "MadCow", 45: "Alzheimer"},
        relation_labels={7: "Interact", 3: "Assoc"},
    )
    assert rendered == FIGURE_GOLDEN


def test_figure_sequence_token_ids():
    vocab = figure_vocab()
    tokens = linearize(parse_grounded(FIGURE_QUERY), vocab)
    r = vocab.relation_token
    e = vocab.entity_token
    assert tokens == [
        LPAREN, OP_P, r(7),
        LPAREN, OP_U, LPAREN, OP_P, r(3), e(12), RPAREN,
        LPAREN, OP_P, r(3), e(45), RPAREN, RPAREN, RPAREN,
    ]


def test_anchor_is_single_token():
    vocab = figure_vocab()
    assert linearize(anchor(9), vocab) == [vocab.entity_token(9)]
    assert delinearize([vocab.entity_token(9)], vocab) == anchor(9)


def test_hand_traced_intersection():
    # (i,(p,(r1),(e,(a))),(p,(r2),(e,(b)))) with r1=1, r2=2, a=4, b=6
    vocab = figure_vocab()
    tokens = linearize(parse_grounded("(i,(p,(1),(e,(4))),(p,(2),(e,(6))))"), vocab)
    assert render_tokens(tokens, vocab) == "[(][I][(][P][r1][e4][)][(][P][r2][e6][)][)]"
    assert tokens[1] == OP_I


def test_delinearize_figure_round_trip():
    vocab = figure_vocab()
    g = parse_grounded(FIGURE_QUERY)
    assert delinearize(linearize(g, vocab), vocab) == g


def test_delinearize_rejects_malformed():
    vocab = figure_vocab()
    tokens = linearize(parse_grounded(FIGURE_QUERY), vocab)
    with pytest.raises(TokenizationError, match="unbalanced|end of sequence"):
        delinearize(tokens[:-1], vocab)
    with pytest.raises(TokenizationError, match="operator"):
        delinearize([LPAREN, vocab.entity_token(1), RPAREN], vocab)
    with pytest.raises(TokenizationError, match="trailing"):
        delinearize(tokens + [vocab.entity_token(0)], vocab)
    with pytest.raises(TokenizationError, match="relation"):
        delinearize([LPAREN, OP_P, vocab.entity_token(0), RPAREN], vocab)
    # arity is QueryNode's rule, reported as a tokenization error
    with pytest.raises(TokenizationError, match="negation takes exactly 1 child, got 2"):
        delinearize([LPAREN, OP_N, vocab.entity_token(0), vocab.entity_token(1), RPAREN], vocab)
    with pytest.raises(TokenizationError, match="intersection takes at least 2 children, got 1"):
        delinearize([LPAREN, OP_I, vocab.entity_token(0), RPAREN], vocab)


def test_out_of_vocabulary_rejected():
    small = Vocabulary(num_relations=2, num_entities=3)
    g = parse_grounded("(p,(5),(e,(1)))")
    with pytest.raises(Exception, match="out of vocabulary"):
        linearize(g, small)


def test_round_trip_and_brackets_over_builtin_types(toy_kg):
    vocab = build_vocabulary(toy_kg)
    rng = make_rng(17)
    bt = builtin_query_types()
    for qtype in bt.all_fol:
        for _ in range(3):
            ids, _v = ground_type(toy_kg, qtype, rng)
            g = fill_pattern(qtype.pattern, ids)
            tokens = linearize(g, vocab)
            assert delinearize(tokens, vocab) == g
            # balanced parentheses, never PAD
            assert PAD not in tokens
            depth = 0
            for t in tokens:
                depth += (t == LPAREN) - (t == RPAREN)
                assert depth >= 0
            assert depth == 0


def test_render_tokens_rejects_foreign_ids():
    vocab = Vocabulary(num_relations=1, num_entities=1)
    with pytest.raises(TokenizationError):
        render_tokens([vocab.size + 3], vocab)
