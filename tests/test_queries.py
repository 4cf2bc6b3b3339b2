from types import SimpleNamespace

import pytest

from cqakit.queries import (
    OperatorKind,
    QueryNode,
    QuerySyntaxError,
    QueryStructureError,
    anchor,
    builtin_query_types,
    distribution_of,
    intersection,
    negation,
    parse_formula,
    parse_grounded,
    projection,
    query_depth,
    serialize_formula,
    serialize_grounded,
    union,
)

# depth column for every built-in type, in catalog order
FOL_IN_DEPTHS = [1, 2, 3, 2, 3, 2, 3, 3, 2, 3, 3, 1, 2, 3, 1, 2, 2, 3, 2, 2, 3, 3, 3, 1, 2, 3, 2, 3, 3]
FOL_OUT_DEPTHS = [3, 2, 2, 3, 3, 3, 3, 3, 2, 2, 3, 3, 3, 3, 3, 2, 2, 3, 3, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3]
CONJ_IN_DEPTHS = [1, 2, 3, 2, 3, 3, 1, 2, 3, 2, 3, 3]
CONJ_OUT_DEPTHS = [3, 3, 3]


def test_parse_formula_examples():
    t = parse_formula("(p,(e))")
    assert t.depth == 1
    t = parse_formula("(i,(n,(p,(e))),(p,(e)))")
    assert t.depth == 1


def test_parse_formula_rejects_malformed():
    with pytest.raises(QuerySyntaxError, match="end of input"):
        parse_formula("(p,(e)")
    with pytest.raises(QueryStructureError, match="negation"):
        parse_formula("(n,(e),(e))")
    with pytest.raises(QuerySyntaxError, match="unknown operator"):
        parse_formula("(x,(e))")
    with pytest.raises(QuerySyntaxError, match="trailing garbage"):
        parse_formula("(p,(e)))")


def test_reader_accepts_ascii_whitespace_between_tokens():
    assert serialize_grounded(parse_grounded(" (p, (3) ,\t(e,(5))\r\n)\v\f")) == "(p,(3),(e,(5)))"
    assert parse_formula("( i , (p,(e)) , (p,(e)) )").formula_text == "(i,(p,(e)),(p,(e)))"


@pytest.mark.parametrize("text", [
    "(e,(05))",  # leading zero
    "(e,(\u0665))",  # ARABIC-INDIC DIGIT FIVE
    "(p,\u00a0(0),(e,(5)))",  # NO-BREAK SPACE
    "(p,(0),\x1c(e,(5)))",  # FILE SEPARATOR, which str.isspace counts as whitespace
    "(e,(-5))",
    "(e,(5),)",
    "(e,(5))(e,(5))",
    "(e,5)",
    "(p,(e,(5)))",
], ids=["leading-zero", "non-ascii-digit", "non-ascii-space", "file-separator", "negative-id",
        "trailing-comma", "two-queries", "bare-id", "missing-relation"])
def test_reader_rejects_text_the_printer_never_writes(text):
    with pytest.raises(QuerySyntaxError):
        parse_grounded(text)


def test_arity_messages_name_kind_and_rule():
    with pytest.raises(QueryStructureError, match="union takes at least 2 children, got 1"):
        parse_formula("(u,(p,(e)))")
    with pytest.raises(QueryStructureError, match="projection takes exactly 1 child, got 2"):
        parse_grounded("(p,(0),(e,(1)),(e,(2)))")
    with pytest.raises(QueryStructureError, match="anchor takes no children, got 1"):
        parse_grounded("(e,(0),(e,(1)))")


def test_formula_round_trips():
    for text in ("(p,(e))", "(u,(p,(e)),(p,(p,(e))))", "(i,(n,(p,(e))),(p,(e)))"):
        assert parse_formula(text).formula_text == text


def test_parse_grounded_figure_shape():
    g = parse_grounded("(p,(7),(u,(p,(3),(e,(12))),(p,(3),(e,(45)))))")
    assert g.kind is OperatorKind.PROJECTION and g.relation == 7
    inner = g.children[0]
    assert inner.kind is OperatorKind.UNION and len(inner.children) == 2
    assert inner.children[0].children[0].entity == 12
    assert inner.children[1].children[0].entity == 45


def test_parse_grounded_base_and_arity():
    g = parse_grounded("(e,(0))")
    assert g.kind is OperatorKind.ANCHOR and g.entity == 0
    with pytest.raises(QueryStructureError, match="at least 2"):
        parse_grounded("(i,(p,(1),(e,(2))))")


def test_parse_grounded_validates_ids(toy_kg):
    with pytest.raises(QueryStructureError, match="out of range"):
        parse_grounded("(e,(999))", toy_kg)
    with pytest.raises(QueryStructureError, match="out of range"):
        parse_grounded("(p,(99),(e,(0)))", toy_kg)


def test_serialize_round_trip():
    text = "(p,(7),(u,(p,(3),(e,(12))),(p,(3),(e,(45)))))"
    g = parse_grounded(text)
    assert serialize_grounded(g) == text
    assert parse_grounded(serialize_grounded(g)) == g
    assert serialize_grounded(anchor(5)) == "(e,(5))"


def test_node_invariants_unconstructible():
    with pytest.raises(QueryStructureError):
        QueryNode(OperatorKind.INTERSECTION, children=(anchor(1),))
    with pytest.raises(QueryStructureError):
        QueryNode(OperatorKind.PROJECTION, relation=0, children=())
    with pytest.raises(QueryStructureError):
        QueryNode(OperatorKind.ANCHOR, relation=3)


def test_builtin_sizes():
    bt = builtin_query_types()
    assert len(bt.in_distribution) == 29
    assert len(bt.out_of_distribution) == 29
    assert len(bt.conjunctive_in) == 12
    assert len(bt.conjunctive_out) == 3
    assert len(bt.all_fol) == 58


def test_builtin_contains_known_ood_type():
    bt = builtin_query_types()
    formulas = [t.formula_text for t in bt.out_of_distribution]
    assert "(i,(i,(p,(e)),(p,(p,(p,(e))))),(p,(p,(e))))" in formulas


def test_conjunctive_types_are_negation_and_union_free():
    bt = builtin_query_types()
    for t in bt.conjunctive_in + bt.conjunctive_out:
        kinds = {n.kind for n in t.pattern.walk()}
        assert OperatorKind.NEGATION not in kinds
        assert OperatorKind.UNION not in kinds


def test_depth_columns():
    bt = builtin_query_types()
    assert [t.depth for t in bt.in_distribution] == FOL_IN_DEPTHS
    assert [t.depth for t in bt.out_of_distribution] == FOL_OUT_DEPTHS
    assert [t.depth for t in bt.conjunctive_in] == CONJ_IN_DEPTHS
    assert [t.depth for t in bt.conjunctive_out] == CONJ_OUT_DEPTHS


def test_grounded_query_matches_exactly_one_type():
    g = parse_grounded("(i,(n,(p,(2),(e,(4)))),(p,(0),(e,(9))))")
    formula = serialize_formula(g)
    assert formula == "(i,(n,(p,(e))),(p,(e)))"
    bt = builtin_query_types()
    matches = [x for x in bt.all_fol if x.formula_text == formula]
    assert len(matches) == 1


def test_distribution_of():
    assert distribution_of("(p,(e))") == "in"
    assert distribution_of("(i,(i,(p,(e)),(p,(p,(p,(e))))),(p,(p,(e))))") == "out"
    assert distribution_of("(p,(p,(p,(p,(e)))))") == "other"


def test_helpers_on_constructed_tree():
    g = projection(1, union(projection(2, anchor(3)), negation(projection(0, anchor(4)))))
    assert query_depth(g) == 2
    text = serialize_grounded(g)
    assert parse_grounded(text, SimpleNamespace(num_entities=5, num_relations=3)) == g
    with pytest.raises(QueryStructureError, match=r"entity id 4 out of range \[0, 4\)"):
        parse_grounded(text, SimpleNamespace(num_entities=4, num_relations=3))
    with pytest.raises(QueryStructureError, match=r"relation id 2 out of range \[0, 2\)"):
        parse_grounded(text, SimpleNamespace(num_entities=5, num_relations=2))


def test_intersection_constructor():
    node = intersection(anchor(0), anchor(1), anchor(2))
    assert len(node.children) == 3
    assert node.kind is OperatorKind.INTERSECTION
