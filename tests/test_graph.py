import hashlib
import os

import pytest

from cqakit.graph import (
    EdgeTriple,
    GraphFormatError,
    GraphLayers,
    KnowledgeGraph,
    layer_graphs,
    load_dictionary,
    load_triples,
    split_edges,
    synthetic_graph,
)

TOY_SIX_LINES = "0\t0\t1\n0\t0\t2\n1\t1\t2\n2\t0\t3\n1\t1\t2\n3\t1\t0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_toy_file_dedup_and_indexes(tmp_path):
    # hand-enumerated adjacency of the 6-line file (one duplicate)
    kg = load_triples(write(tmp_path, "toy.txt", TOY_SIX_LINES))
    assert len(kg.edges) == 5
    assert kg.num_entities == 4 and kg.num_relations == 2
    assert kg.fwd_index == {
        (0, 0): (1, 2),
        (1, 1): (2,),
        (2, 0): (3,),
        (3, 1): (0,),
    }


def test_empty_file_with_dictionaries(tmp_path):
    ent = {f"e{i}": i for i in range(5)}
    rel = {f"r{i}": i for i in range(2)}
    kg = load_triples(write(tmp_path, "empty.txt", ""), ent, rel)
    assert kg.num_entities == 5 and kg.num_relations == 2
    assert not kg.edges
    assert kg.successors(0, 0) == ()


def test_dictionary_files_and_labels(tmp_path):
    edict = write(tmp_path, "entities.dict", "0\talice\n1\tbob\n")
    rdict = write(tmp_path, "relations.dict", "0\tknows\n")
    triples = write(tmp_path, "t.txt", "alice\tknows\tbob\n")
    kg = load_triples(triples, load_dictionary(edict), load_dictionary(rdict))
    assert kg.edges == {EdgeTriple(0, 0, 1)}


def test_malformed_lines_report_line_numbers(tmp_path):
    with pytest.raises(GraphFormatError, match=":2:"):
        load_triples(write(tmp_path, "bad.txt", "0\t0\t1\n0\t0\n"))
    with pytest.raises(GraphFormatError, match="empty relation"):
        load_triples(write(tmp_path, "bad2.txt", "0\t\t1\n"))
    with pytest.raises(GraphFormatError, match="out of dictionary range"):
        load_triples(write(tmp_path, "bad3.txt", "0\t0\t7\n"), {"a": 0}, {"r": 0})


def test_negative_ids_rejected(tmp_path):
    with pytest.raises(GraphFormatError, match=":1: negative entity id -3"):
        load_triples(write(tmp_path, "neg.txt", "1\t0\t-3\n"))
    with pytest.raises(GraphFormatError, match="negative relation id"):
        load_triples(write(tmp_path, "neg_rel.txt", "1\t-1\t0\n"))
    with pytest.raises(GraphFormatError, match="negative id"):
        KnowledgeGraph.from_edges([(1, 0, -3)])


def test_non_utf8_files_rejected(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0\t0\t1\n\xff\xfe\t0\t1\n")
    with pytest.raises(GraphFormatError, match=f"{bad}: not UTF-8"):
        load_triples(bad)
    with pytest.raises(GraphFormatError, match=f"{bad}: not UTF-8"):
        load_dictionary(bad)


def test_ids_too_large_for_edge_keys_rejected():
    with pytest.raises(GraphFormatError, match="overflow int64 edge keys"):
        KnowledgeGraph.from_edges([(0, 0, 2**40)])
    with pytest.raises(GraphFormatError, match="integer triples"):
        KnowledgeGraph.from_edges([(0, 0, 2**70)])


def test_has_edge_rejects_out_of_range_ids():
    # (0, 0, 2) and (0, 1, 0) pack to the same key when ids are not range-checked
    kg = KnowledgeGraph.from_edges([(0, 1, 0)], 2, 2)
    assert kg.has_edge(0, 1, 0) and (0, 1, 0) in kg.edges
    assert not kg.has_edge(0, 0, 2) and (0, 0, 2) not in kg.edges
    assert not kg.has_edge(0, 2, 0) and not kg.has_edge(-1, 1, 0)


def test_load_is_idempotent(tmp_path):
    path = write(tmp_path, "toy.txt", TOY_SIX_LINES)
    assert load_triples(path) == load_triples(path)


def test_index_edge_bijection(toy_kg):
    for h, r, t in toy_kg.edges:
        assert t in toy_kg.fwd_index[(h, r)]
    fwd_edges = {
        (h, r, t) for (h, r), tails in toy_kg.fwd_index.items() for t in tails
    }
    assert fwd_edges == set(map(tuple, toy_kg.edges))


def test_layer_graphs_cumulative(tmp_path):
    train = write(tmp_path, "train.txt", "0\t0\t1\n1\t0\t2\n2\t0\t3\n3\t0\t4\n4\t0\t5\n5\t0\t6\n6\t0\t7\n7\t0\t8\n")
    valid = write(tmp_path, "valid.txt", "8\t0\t9\n")
    test = write(tmp_path, "test.txt", "9\t0\t0\n")
    layers = layer_graphs(train, valid, test)
    assert (len(layers.train.edges), len(layers.valid.edges), len(layers.test.edges)) == (8, 9, 10)
    assert layers.train.edges <= layers.valid.edges <= layers.test.edges


def test_layer_graphs_empty_valid_test(tmp_path):
    train = write(tmp_path, "train.txt", "0\t0\t1\n")
    empty = write(tmp_path, "e.txt", "")
    layers = layer_graphs(train, empty, empty)
    assert layers.train == layers.valid == layers.test


def test_layer_graphs_dedups_cross_layer_with_warning(tmp_path, caplog):
    train = write(tmp_path, "train.txt", "0\t0\t1\n")
    valid = write(tmp_path, "valid.txt", "0\t0\t1\n1\t0\t2\n")
    test = write(tmp_path, "test.txt", "")
    with caplog.at_level("WARNING"):
        layers = layer_graphs(train, valid, test)
    assert len(layers.valid.edges) == 2
    assert any("deduplicated" in r.message for r in caplog.records)


def test_split_edges_ratios_and_determinism():
    kg = synthetic_graph(30, 3, 100, seed=1)
    assert len(kg.edges) == 100
    a = split_edges(kg, (8, 1, 1), seed=7)
    b = split_edges(kg, (8, 1, 1), seed=7)
    assert len(a.train.edges) == 80
    assert len(a.valid.edges) == 90
    assert len(a.test.edges) == 100
    assert a.train.edges == b.train.edges and a.valid.edges == b.valid.edges


def test_split_edges_pinned_layers():
    # sha256 of each layer's sorted edge list, recorded from the frozenset-based
    # store that the edge table replaced: the same seed must give the same split
    layers = split_edges(synthetic_graph(30, 3, 100, seed=1), (8, 1, 1), seed=7)
    expected = {
        "train": "1f6a8e166ef5d35d03655037e025aabb5aaf1645b458585bbf6ba812fe1d941e",
        "valid": "93783088d00a8744295f4bf31fea48e5799300fb47e67da8b0ec865dc1f3d41e",
        "test": "3c9842e7a649bbd7317aae30f807bf0bb5d17caa48e3bdce67cdbc32c039d7ea",
    }
    for name, digest in expected.items():
        edges = repr([tuple(e) for e in sorted(layers.layer(name).edges)])
        assert hashlib.sha256(edges.encode()).hexdigest() == digest


def test_split_edges_cumulative_small():
    kg = synthetic_graph(10, 2, 10, seed=2)
    layers = split_edges(kg, (8, 1, 1), seed=0)
    assert layers.train.edges <= layers.valid.edges <= layers.test.edges
    assert layers.test.edges == kg.edges


def test_split_edges_too_few():
    kg = KnowledgeGraph.from_edges([(0, 0, 1), (1, 0, 2)], 3, 1)
    with pytest.raises(ValueError, match="cannot split"):
        split_edges(kg, (8, 1, 1), seed=0)


def test_layer_monotonicity_invariant_violation_rejected():
    small = KnowledgeGraph.from_edges([(0, 0, 1)], 3, 1)
    big = KnowledgeGraph.from_edges([(0, 0, 1), (1, 0, 2)], 3, 1)
    with pytest.raises(ValueError, match="cumulative"):
        GraphLayers(train=big, valid=small, test=big)


FB15K_DIR = os.environ.get("CQAKIT_FB15K_DIR")


@pytest.mark.skipif(not FB15K_DIR, reason="set CQAKIT_FB15K_DIR to run against FB15k files")
def test_fb15k_reference_counts():
    layers = layer_graphs(
        os.path.join(FB15K_DIR, "train.txt"),
        os.path.join(FB15K_DIR, "valid.txt"),
        os.path.join(FB15K_DIR, "test.txt"),
    )
    assert layers.test.num_entities == 14_951
    assert layers.test.num_relations == 1_345
    assert len(layers.train.edges) == 483_142
    assert len(layers.valid.edges) == 533_142
    assert len(layers.test.edges) == 592_213
