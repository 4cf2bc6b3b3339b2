import hashlib
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cqakit import graph
from cqakit.graph import (
    EdgeTriple,
    GraphFormatError,
    KnowledgeGraph,
    layer_graphs,
    load_dictionary,
    read_triples,
    split_edges,
    synthetic_graph,
)
from cqakit.queries import QuerySyntaxError, parse_grounded
from conftest import incoming_map

TOY_SIX_LINES = "0\t0\t1\n0\t0\t2\n1\t1\t2\n2\t0\t3\n1\t1\t2\n3\t1\t0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def table_rows(kg):
    """The graph's relation table as ``(relation, head, tail, bits)`` rows, in table order."""
    table = kg.table
    relations = np.repeat(np.arange(kg.num_relations), np.diff(table.offsets))
    return list(zip(relations.tolist(), table.heads.tolist(), table.tails.tolist(), table.bits.tolist()))


def load(tmp_path, text, entity_dict=None, relation_dict=None):
    """The graph of one triple file: the train layer under empty valid and test files."""
    empty = write(tmp_path, "empty.txt", "")
    return layer_graphs(write(tmp_path, "train.txt", text), empty, empty, entity_dict, relation_dict).train


def test_toy_file_dedup_and_indexes(tmp_path):
    # hand-enumerated adjacency of the 6-line file (one duplicate)
    kg = load(tmp_path, TOY_SIX_LINES)
    assert len(kg.edges) == 5
    assert kg.num_entities == 4 and kg.num_relations == 2
    assert kg.layer == 0 and kg.table.offsets == (0, 3, 5)
    assert table_rows(kg) == [
        (0, 0, 1, 0xFF),
        (0, 0, 2, 0xFF),
        (0, 2, 3, 0xFF),
        (1, 1, 2, 0xFF),
        (1, 3, 0, 0xFF),
    ]
    assert incoming_map(kg.in_index, kg.num_relations) == {
        0: ((3, 1),), 1: ((0, 0),), 2: ((0, 0), (1, 1)), 3: ((2, 0),)
    }


def test_empty_file_with_dictionaries(tmp_path):
    ent = {f"e{i}": i for i in range(5)}
    rel = {f"r{i}": i for i in range(2)}
    kg = load(tmp_path, "", ent, rel)
    assert kg.num_entities == 5 and kg.num_relations == 2
    assert not kg.edges
    assert kg.table.offsets == (0, 0, 0) and table_rows(kg) == []
    assert kg.in_index.offsets == [0] * 6 and not kg.in_index.pairs.size


def test_dictionary_files_and_labels(tmp_path):
    edict = write(tmp_path, "entities.dict", "0\talice\n1\tbob\n")
    rdict = write(tmp_path, "relations.dict", "0\tknows\n")
    kg = load(tmp_path, "alice\tknows\tbob\n", load_dictionary(edict), load_dictionary(rdict))
    assert kg.edges == {EdgeTriple(0, 0, 1)}


@pytest.mark.parametrize("text,reason", [
    ("0\talice\n1\talice\n", ":2: label 'alice' repeats"),
    ("0\talice\n2\tbob\n", ":2: dictionary id 2 out of range"),
    ("00\talice\n", ":1: dictionary '00' is not a canonical id"),
    ("0\talice\n\n+1\tbob\n", ":3: dictionary '\\+1' is not a canonical id"),
    ("0\talice\n\tbob\n", ":2: empty dictionary field"),
    ("0\t\n", ":1: empty label field"),
    ("0\talice\tx\n", ":1: expected 2 tab-separated fields, got 3"),
], ids=["repeated-label", "id-gap", "leading-zero", "sign", "empty-id", "empty-label",
        "three-fields"])
def test_malformed_dictionaries_rejected(tmp_path, text, reason):
    with pytest.raises(GraphFormatError, match=reason):
        load_dictionary(write(tmp_path, "entities.dict", text))


def test_repeated_dictionary_id_is_not_a_self_loop(tmp_path):
    # alice and bob sharing id 0 would load alice→bob as the self-loop (0, 0, 0)
    edict = write(tmp_path, "entities.dict", "0\talice\n0\tbob\n")
    with pytest.raises(GraphFormatError, match="entities.dict:2: id 0 repeats"):
        load(tmp_path, "alice\tknows\tbob\n", load_dictionary(edict), {"knows": 0})


def test_dictionary_ids_in_any_order_and_crlf(tmp_path):
    path = tmp_path / "entities.dict"
    path.write_bytes(b"1\tbob\r\n\r\n0\talice\r\n")
    assert load_dictionary(path) == {"bob": 1, "alice": 0}


def test_malformed_lines_report_line_numbers(tmp_path):
    with pytest.raises(GraphFormatError, match=":2:"):
        read_triples(write(tmp_path, "bad.txt", "0\t0\t1\n0\t0\n"))
    with pytest.raises(GraphFormatError, match=":1: expected 3 tab-separated fields, got 2"):
        read_triples(write(tmp_path, "short_long.txt", "0\t1\n0\t0\t1\t2\n"))
    with pytest.raises(GraphFormatError, match="empty relation"):
        read_triples(write(tmp_path, "bad2.txt", "0\t\t1\n"))
    with pytest.raises(GraphFormatError, match="out of dictionary range"):
        read_triples(write(tmp_path, "bad3.txt", "0\t0\t7\n"), {"a": 0}, {"r": 0})


def test_negative_ids_rejected(tmp_path):
    with pytest.raises(GraphFormatError, match=":1: negative entity id -3"):
        read_triples(write(tmp_path, "neg.txt", "1\t0\t-3\n"))
    with pytest.raises(GraphFormatError, match="negative relation id"):
        read_triples(write(tmp_path, "neg_rel.txt", "1\t-1\t0\n"))
    with pytest.raises(GraphFormatError, match="negative id"):
        KnowledgeGraph.from_edges([(1, 0, -3)])


def test_non_utf8_files_rejected(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0\t0\t1\n\xff\xfe\t0\t1\n")
    with pytest.raises(GraphFormatError, match=f"{bad}: not UTF-8"):
        read_triples(bad)
    with pytest.raises(GraphFormatError, match=f"{bad}: not UTF-8"):
        load_dictionary(bad)


def test_ids_too_large_for_edge_keys_rejected():
    with pytest.raises(GraphFormatError, match="overflow int64 edge keys"):
        KnowledgeGraph.from_edges([(0, 0, 2**40)])
    with pytest.raises(GraphFormatError, match="integer triples"):
        KnowledgeGraph.from_edges([(0, 0, 2**70)])


def test_edge_membership_rejects_out_of_range_ids():
    # (0, 0, 2) and (0, 1, 0) pack to the same key when ids are not range-checked
    kg = KnowledgeGraph.from_edges([(0, 1, 0)], 2, 2)
    assert (0, 1, 0) in kg.edges
    assert (0, 0, 2) not in kg.edges


def test_load_is_idempotent(tmp_path):
    assert load(tmp_path, TOY_SIX_LINES) == load(tmp_path, TOY_SIX_LINES)


@pytest.mark.parametrize("token", ["\u0663", "+2", "1_0", " 4", "007", "-3", "", "4 ", "x"])
def test_ids_outside_the_query_grammar_rejected(tmp_path, token):
    # the triple reader takes ids in the query reader's grammar: ASCII decimal, no sign, no leading zero
    with pytest.raises(GraphFormatError, match=":3:"):
        read_triples(write(tmp_path, "t.txt", f"0\t0\t1\n\n1\t0\t{token}\n"))
    if token and token == token.strip():  # the query grammar allows whitespace between tokens
        with pytest.raises(QuerySyntaxError):
            parse_grounded(f"(e,({token}))")


def test_crlf_and_blank_lines_load(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"0\t0\t1\r\n\r\n\n10\t1\t0\r\n")
    assert read_triples(path).tolist() == [[0, 0, 1], [10, 1, 0]]
    path.write_bytes(b"\n\r\n\n")
    assert read_triples(path).shape == (0, 3)
    assert read_triples(write(tmp_path, "empty.txt", "")).shape == (0, 3)


def general_read(monkeypatch, path, entity_dict=None, relation_dict=None):
    """The rows, or the error text, of ``read_triples`` with the bulk path turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(graph, "_canonical_rows", lambda data: None)
        return outcome(read_triples, path, entity_dict, relation_dict)


def outcome(read, *args):
    try:
        rows = read(*args)
    except GraphFormatError as exc:
        return str(exc)
    assert rows.dtype == np.int64 and rows.shape[1:] == (3,) and rows.flags.c_contiguous
    return rows.tolist()


@pytest.mark.parametrize("blob,bulk", [
    (b"0\t0\t1\n10\t1\t0\n", True),
    (b"0\t0\t1\r\n10\t1\t0\r\n", False),
    (b"0\t0\t1\r10\t1\t0\r", False),
    (b"0\t0\t1\n\n10\t1\t0\n", False),
    (b"\n0\t0\t1\n", False),
    (b"0\t0\t1\n10\t1\t0", False),
    (b"0\t0\t1\n5", False),
    (b"0\t0\t01\n", False),
    (b"00\t0\t1\n", False),
    (b"999999999999999999\t0\t1\n", True),
    (b"1000000000000000000\t0\t1\n", False),
    (b"9223372036854775807\t0\t1\n", False),
    (b"9223372036854775808\t0\t1\n", False),
    (b"0\t1\n", False),
    (b"0\t1\t2\t3\n", False),
    (b"0\t1\n2\t3\t4\t5\n", False),
    (b"0\t\t2\n", False),
    (b"\t1\t2\n", False),
    (b"0\t1\t2\t\n", False),
    (b"", False),
    (b"\n", False),
    (b"0\t1\t2 \n", False),
    (b"0\t1\t-2\n", False),
], ids=["canonical", "crlf", "lone-cr", "blank-line", "leading-blank-line", "no-final-newline", "trailing-digits",
        "leading-zero", "double-zero", "18-digits", "19-digits", "int64-max", "int64-max-plus-one",
        "two-fields", "four-fields", "two-then-four-fields", "empty-field", "empty-first-field",
        "trailing-tab", "empty-file", "newline-only", "trailing-space", "negative"])
def test_bulk_triple_reader_matches_the_general_reader(blob, bulk, tmp_path, monkeypatch):
    path = tmp_path / "t.txt"
    path.write_bytes(blob)
    assert (graph._canonical_rows(blob) is not None) == bulk
    assert outcome(read_triples, path) == general_read(monkeypatch, path)


def test_digit_labels_take_the_general_reader(tmp_path, monkeypatch):
    # with dictionaries every token is looked up as a label first
    path = write(tmp_path, "t.txt", "1\t0\t0\n0\t0\t2\n")
    edict, rdict = {"0": 2, "1": 0, "2": 1}, {"0": 0}
    rows = outcome(read_triples, path, edict, rdict)
    assert rows == [[0, 0, 2], [2, 0, 1]]
    assert rows == general_read(monkeypatch, path, edict, rdict)


def test_bench_shaped_triple_files_never_reach_the_general_reader(tmp_path, monkeypatch):
    rows = synthetic_graph(50, 4, 300, seed=9).edges.rows()
    paths = [tmp_path / f"{name}.txt" for name in ("train", "valid", "test")]
    for path, part in zip(paths, np.split(rows[np.random.default_rng(0).permutation(len(rows))], [240, 270])):
        path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in part.tolist()))
    calls, columns = [], graph._columns
    monkeypatch.setattr(graph, "_columns", lambda *args: calls.append(args) or columns(*args))
    layers = layer_graphs(*paths)
    assert calls == []
    assert layers.test.edges == KnowledgeGraph.from_edges(rows.tolist(), 50, 4).edges


def test_labels_take_precedence_over_ids(tmp_path):
    rows = read_triples(write(tmp_path, "t.txt", "1\tr\t0\n"), {"1": 0, "0": 1}, {"r": 0})
    assert rows.tolist() == [[0, 0, 1]]


def test_index_edge_bijection(toy_kg):
    # one table row per edge, in (relation, head, tail) order, every one on layer 0
    rows = table_rows(toy_kg)
    assert rows == sorted(rows) and len(rows) == len(toy_kg.edges)
    assert {(h, r, t) for r, h, t, _ in rows} == set(map(tuple, toy_kg.edges))
    assert {bits for *_, bits in rows} == {0xFF}


def test_layer_graphs_cumulative(tmp_path):
    train = write(tmp_path, "train.txt", "0\t0\t1\n1\t0\t2\n2\t0\t3\n3\t0\t4\n4\t0\t5\n5\t0\t6\n6\t0\t7\n7\t0\t8\n")
    valid = write(tmp_path, "valid.txt", "8\t0\t9\n")
    test = write(tmp_path, "test.txt", "9\t0\t0\n")
    layers = layer_graphs(train, valid, test)
    assert (len(layers.train.edges), len(layers.valid.edges), len(layers.test.edges)) == (8, 9, 10)
    assert layers.train.edges <= layers.valid.edges <= layers.test.edges
    # one table for the three layers; bit k of an edge marks layer k
    assert layers.train.table is layers.valid.table is layers.test.table
    assert [g.layer for g in (layers.train, layers.valid, layers.test)] == [0, 1, 2]
    assert table_rows(layers.test)[-2:] == [(0, 8, 9, 0xFE), (0, 9, 0, 0xFC)]


def test_incoming_index_first_use_from_many_threads():
    # readers racing on the lazily built index all see the reference mapping
    reference = incoming_map(synthetic_graph(60, 5, 500, seed=3).in_index, 5)
    kg = synthetic_graph(60, 5, 500, seed=3)
    start, seen = threading.Barrier(8), []

    def read():
        start.wait(timeout=10)
        seen.append(kg.in_index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 and all(incoming_map(index, 5) == reference for index in seen)
    assert incoming_map(kg.in_index, 5) == reference


def test_incoming_index_holds_no_object_per_edge():
    # about 12 bytes per edge here: the int64 pairs and one offset per entity;
    # a tuple of Python ints per edge takes about 100
    rows = np.random.default_rng(0).integers(0, [2000, 10, 2000], size=(20000, 3))
    kg = KnowledgeGraph.from_edges(rows, 2000, 10)
    tracemalloc.start()
    try:
        kg.in_index
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kg.edges) > 19000 and retained < 32 * len(kg.edges)


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
