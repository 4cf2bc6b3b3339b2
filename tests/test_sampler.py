import hashlib
import json

import numpy as np
import pytest

from cqakit import graph, sampler
from cqakit.graph import GraphLayers, KnowledgeGraph, layer_graphs, split_edges, synthetic_graph
from cqakit.queries import (
    OperatorKind,
    QueryNode,
    builtin_query_types,
    fill_pattern,
    parse_formula,
    parse_grounded,
    query_ids,
)
from cqakit.rng import make_rng
from cqakit.sampler import (
    AnswerSet,
    Dataset,
    DatasetFormatError,
    GroundedQueryRecord,
    GroundingError,
    Provenance,
    SamplerConfig,
    ground_type,
    read_dataset,
    sample_dataset,
    write_dataset,
)
from cqakit.symbolic import answer, answer_bits
from conftest import answer_set


def test_ground_forced_single_edge():
    # only entity 9 has an in-edge, so grounding (p,(e)) must pick it
    kg = KnowledgeGraph.from_edges([(3, 2, 9)], 10, 3)
    qtype = parse_formula("(p,(e))")
    ids, v = ground_type(kg, qtype, make_rng(0))
    assert v == 9
    g = fill_pattern(qtype.pattern, ids)
    assert g.relation == 2 and g.children[0].entity == 3
    assert answer(kg, qtype.pattern, ids) == {9}


def test_ground_intersection_shares_answer(toy_kg):
    qtype = parse_formula("(i,(p,(e)),(p,(e)))")
    ids, v = ground_type(toy_kg, qtype, make_rng(4))
    assert v in answer(toy_kg, qtype.pattern, ids)
    assert fill_pattern(qtype.pattern, ids).kind is OperatorKind.INTERSECTION


def test_ground_negation_types_verified(toy_kg):
    rng = make_rng(12)
    for formula in ("(i,(n,(p,(e))),(p,(e)))", "(i,(n,(p,(p,(e)))),(p,(p,(e))))"):
        qtype = parse_formula(formula)
        for _ in range(10):
            ids, v = ground_type(toy_kg, qtype, rng)
            assert v in answer(toy_kg, qtype.pattern, ids)


def test_ground_all_29_types_sound(toy_kg):
    rng = make_rng(8)
    for qtype in builtin_query_types().in_distribution:
        for _ in range(5):
            ids, v = ground_type(toy_kg, qtype, rng)
            assert v in answer(toy_kg, qtype.pattern, ids)


def test_ground_unsatisfiable_raises():
    kg = KnowledgeGraph.from_edges([(0, 0, 1)], 3, 1)
    # depth-2 chains need an in-edge for entity 0, which has none
    with pytest.raises(GroundingError):
        ground_type(kg, parse_formula("(p,(p,(e)))"), make_rng(0), max_retries=8)


def test_ground_empty_graph_raises():
    kg = KnowledgeGraph.from_edges([], 5, 1)
    with pytest.raises(GroundingError):
        ground_type(kg, parse_formula("(p,(e))"), make_rng(0))


def test_sample_dataset_layer_answers(desk_layers):
    types = [parse_formula("(p,(e))"), parse_formula("(i,(p,(e)),(p,(e)))")]
    cfg = SamplerConfig(per_type_count=10, seed=2)
    ds = sample_dataset(desk_layers, types, cfg, kg_name="desk")
    assert len(ds) == 20
    assert ds.num_entities == 100 and ds.num_relations == 10
    for record in ds.iter_records():
        # stored answers equal fresh recomputation on each layer
        assert record.train_answers == frozenset(answer(desk_layers.train, record.query, record.ids))
        assert record.valid_answers == frozenset(answer(desk_layers.valid, record.query, record.ids))
        assert record.test_answers == frozenset(answer(desk_layers.test, record.query, record.ids))
        # negation-free types are monotone across layers
        assert record.train_answers <= record.valid_answers <= record.test_answers


def test_sample_dataset_deterministic_bytes(desk_layers, tmp_path):
    types = [parse_formula("(p,(p,(e)))")]
    cfg = SamplerConfig(per_type_count=8, seed=13)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(sample_dataset(desk_layers, types, cfg, kg_name="x"), p1)
    write_dataset(sample_dataset(desk_layers, types, cfg, kg_name="x"), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sample_dataset_dedup_within_type():
    kg = synthetic_graph(30, 3, 150, seed=6)
    layers = split_edges(kg, seed=6)
    cfg = SamplerConfig(per_type_count=30, seed=3)
    ds = sample_dataset(layers, [parse_formula("(p,(e))")], cfg)
    from cqakit.queries import serialize_grounded

    keys = [serialize_grounded(r.query) for r in ds.iter_records()]
    assert len(keys) == len(set(keys))


def test_sample_dataset_rejects_a_repeated_type(desk_layers):
    cfg = SamplerConfig(per_type_count=5, seed=0)
    t = parse_formula("(p,(e))")
    with pytest.raises(ValueError, match=r"^query type \(p,\(e\)\) is listed more than once$"):
        sample_dataset(desk_layers, [t, t], cfg)
    # spellings that differ only in whitespace name the same type
    spaced = [parse_formula("(i,(p,(e)),(p,(e)))"), parse_formula("(i, (p,(e)), (p, (e)))")]
    with pytest.raises(ValueError, match=r"^query type \(i,\(p,\(e\)\),\(p,\(e\)\)\) is listed"):
        sample_dataset(desk_layers, [t] + spaced, cfg)


def test_sample_dataset_desk_scale_all_29_types(desk_layers):
    bt = builtin_query_types()
    ds = sample_dataset(desk_layers, bt.in_distribution, SamplerConfig(20, seed=7), kg_name="desk")
    assert len(ds) == 580
    for record in ds.iter_records():
        # stored sets always equal a fresh recomputation, negation included
        assert record.train_answers == frozenset(answer(desk_layers.train, record.query, record.ids))
        assert record.train_answers  # sampled on train, so the seed node is in here


def test_sample_dataset_empty_config(desk_layers):
    ds = sample_dataset(desk_layers, [parse_formula("(p,(e))")], SamplerConfig(0, seed=1), kg_name="kg0")
    assert len(ds) == 0
    assert ds.provenance == Provenance("kg0", 1, SamplerConfig(0, seed=1).config_hash())


def test_sampler_keeps_large_answer_sets():
    # hub node with 40 out-edges: grounded 1p queries over the hub keep all answers
    edges = [(0, 0, t) for t in range(1, 41)] + [(41, 1, 42)]
    kg = KnowledgeGraph.from_edges(edges, 43, 2)
    layers = GraphLayers(kg.table)  # one part: the three layers are kg
    ds = sample_dataset(layers, [parse_formula("(p,(e))")], SamplerConfig(20, seed=0))
    assert max(len(r.train_answers) for r in ds.iter_records()) == 40


def test_test_split_sampling_grounds_on_test_layer(desk_layers):
    # a query grounded on the test layer may have no train answers at all
    cfg = SamplerConfig(per_type_count=15, seed=9, source_layer="test")
    ds = sample_dataset(desk_layers, [parse_formula("(p,(e))")], cfg)
    assert len(ds) == 15
    for record in ds.iter_records():
        assert record.test_answers  # grounding guarantees at least the seed node


def test_dataset_round_trip(desk_layers, tmp_path):
    types = [parse_formula(f) for f in ("(p,(e))", "(u,(p,(e)),(p,(e)))")]
    ds = sample_dataset(desk_layers, types, SamplerConfig(6, seed=4), kg_name="rt")
    path = tmp_path / "ds.jsonl"
    write_dataset(ds, path)
    assert read_dataset(path) == ds


@pytest.mark.parametrize("ids,answers,match", [
    ([7, 2], [3, 4], r"bad query: relation id 7 out of range \[0, 3\)"),
    ([1, 20], [3, 4], r"bad query: entity id 20 out of range \[0, 10\)"),
    ([1, 2], [3, 40], r"train_answers not sorted strictly ascending inside \[0, 10\)"),
    ([1, 2], [-1, 3], r"train_answers not sorted strictly ascending inside \[0, 10\)"),
    ([1, 2], [4, 3], r"train_answers not sorted strictly ascending inside \[0, 10\)"),
], ids=["relation", "entity", "answer-beyond", "negative-answer", "descending"])
def test_write_refuses_ids_the_reader_refuses(ids, answers, match, tmp_path):
    good = GroundedQueryRecord("(p,(e))", [0, 5], *[answer_set({2, 9})] * 3)
    bad = GroundedQueryRecord("(p,(e))", ids, *[AnswerSet(np.array(answers))] * 3)
    path = tmp_path / "ds.jsonl"
    path.write_text("an earlier file\n")
    with pytest.raises(ValueError, match=r"^record 1 of type '\(p,\(e\)\)': " + match):
        write_dataset(Dataset({"(p,(e))": [good, bad]}, num_entities=10, num_relations=3), path)
    assert path.read_text() == "an earlier file\n"


def test_read_rejects_unsorted_answers(handmade_dataset):
    with pytest.raises(DatasetFormatError, match=":2: train_answers not sorted"):
        read_dataset(handmade_dataset({"train_answers": [3, 1]}))


def test_read_handwritten_record(handmade_dataset):
    ds = read_dataset(handmade_dataset())
    assert (ds.provenance.kg_name, ds.num_entities, ds.num_relations) == ("hand", 10, 1)
    (record_obj,) = list(ds.iter_records())
    assert record_obj == GroundedQueryRecord(
        type_formula="(p,(e))",
        ids=query_ids(parse_grounded("(p,(0),(e,(2)))")),
        train_answers=answer_set({4}),
        valid_answers=answer_set({4, 7}),
        test_answers=answer_set({4, 7, 9}),
    )


@pytest.mark.parametrize("formula", ["not a formula at all", "(p,(p,(e)))", ""])
def test_read_rejects_a_record_whose_type_is_not_its_query_type(formula, handmade_dataset):
    # the fixture fixes the header checksum, so only the type check can refuse the record
    with pytest.raises(DatasetFormatError, match=r":2: type .* is not the query's type \(p,\(e\)\)"):
        read_dataset(handmade_dataset({"type": formula}))


def test_read_rejects_checksum_and_version(tmp_path, desk_layers):
    ds = sample_dataset(desk_layers, [parse_formula("(p,(e))")], SamplerConfig(2, seed=0))
    path = tmp_path / "c.jsonl"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()
    # tamper with a record -> checksum failure
    (tmp_path / "t1.jsonl").write_text("\n".join([lines[0], lines[1].replace("answers", "answerz"), *lines[2:]]) + "\n")
    with pytest.raises(DatasetFormatError, match="checksum"):
        read_dataset(tmp_path / "t1.jsonl")
    # bump the version -> version mismatch
    header = json.loads(lines[0])
    header["version"] = 99
    (tmp_path / "t2.jsonl").write_text(
        "\n".join([json.dumps(header, sort_keys=True, separators=(",", ":"))] + lines[1:]) + "\n"
    )
    with pytest.raises(DatasetFormatError, match="version mismatch"):
        read_dataset(tmp_path / "t2.jsonl")


MALFORMED_FIELDS = pytest.mark.parametrize("record,header,match", [
    ({"test_answers": [4, 7, 100000]}, None, r":2: test_answers not sorted strictly ascending inside \[0, 10\)"),
    ({"valid_answers": [-1, 4]}, None, ":2: valid_answers not sorted strictly ascending"),
    ({"test_answers": 5}, None, ":2: test_answers is not a list of integer entity ids"),
    ({"train_answers": [True]}, None, ":2: train_answers is not a list of integer entity ids"),
    ({"train_answers": [1, True]}, None, ":2: train_answers is not a list of integer entity ids"),
    ({"valid_answers": [1.0, 2]}, None, ":2: valid_answers is not a list of integer entity ids"),
    ({"test_answers": [2**63]}, None, r":2: test_answers not sorted strictly ascending inside \[0, 10\)"),
    ({"test_answers": [2**63]}, {"num_entities": 2**64}, ":2: test_answers holds an entity id beyond int64"),
    ({"test_answers": [5, 3, 2**63]}, {"num_entities": 2**64}, ":2: test_answers not sorted strictly ascending"),
    (["a", "b"], None, ":2: record is not a JSON object"),
    ({"query": 7}, None, ":2: record 'query' is not a string"),
    ({"query": "(p,(0),(e,(10)))"}, None, r":2: bad query: entity id 10 out of range \[0, 10\)"),
    ({"query": "(p,(1),(e,(2)))"}, None, r":2: bad query: relation id 1 out of range \[0, 1\)"),
    ({"query": "(p,(0)"}, None, ":2: bad query"),
    ({"query": "(p,(0)," * 3000 + "(e,(1))" + ")" * 3000}, None, ":2: bad query"),
    (None, [1, 2], ":1: not a cqakit-dataset file"),
    (None, {"num_entities": "10"}, ":1: header 'num_entities' is not a non-negative integer"),
    (None, {"version": True}, ":1: header 'version' is not a non-negative integer"),
    (None, {"version": 1.0}, ":1: header 'version' is not a non-negative integer"),
    (None, {"num_records": True}, ":1: header 'num_records' is not a non-negative integer"),
    (None, {"num_records": 1.0}, ":1: header 'num_records' is not a non-negative integer"),
], ids=["answer-id-too-large", "answer-id-negative", "answers-not-a-list", "answer-bool", "answer-int-then-bool",
        "answer-float", "answer-id-past-int64", "answer-id-past-int64-inside-universe",
        "answer-unsorted-past-int64-inside-universe", "record-not-object",
        "query-not-a-string", "query-entity-outside", "query-relation-outside", "query-syntax", "query-too-deep",
        "header-not-object", "header-universe-string", "header-version-bool", "header-version-float",
        "header-num-records-bool", "header-num-records-float"])


@MALFORMED_FIELDS
def test_read_rejects_malformed_fields(record, header, match, handmade_dataset):
    with pytest.raises(DatasetFormatError, match=match):
        read_dataset(handmade_dataset(record, header))


@MALFORMED_FIELDS
def test_read_rejects_malformed_fields_in_compact_form(record, header, match, handmade_dataset):
    # the writer's own separators: the record line is offered to the bulk reader first
    with pytest.raises(DatasetFormatError, match=match):
        read_dataset(handmade_dataset(record, header, compact=True))


@pytest.mark.parametrize("depth", [300, 450, 480, 495])
@pytest.mark.parametrize("compact", [False, True])
def test_deep_queries_load_or_raise_a_dataset_error(depth, compact, handmade_dataset):
    # near the recursion limit the query reader succeeds where the type printer used to overflow
    record = {"type": "(p," * depth + "(e)" + ")" * depth, "query": "(p,(0)," * depth + "(e,(2))" + ")" * depth}
    try:
        (read,) = read_dataset(handmade_dataset(record, compact=compact)).iter_records()
    except DatasetFormatError as exc:
        assert str(exc).endswith(":2: bad query: query nested too deeply")
    else:
        assert read.type_formula == record["type"]


def test_compact_handwritten_record_takes_the_bulk_reader(handmade_dataset, monkeypatch):
    monkeypatch.setattr(sampler, "_read_record", lambda *args: pytest.fail("record reader called"))
    (record,) = read_dataset(handmade_dataset(compact=True)).iter_records()
    assert record.test_answers == answer_set({4, 7, 9})


@pytest.mark.parametrize("header,match", [
    ({"kg": ["x"]}, ":1: header 'kg' is not a string"),
    ({"kg": None}, ":1: header 'kg' is not a string"),
    ({"seed": {"a": 1}}, ":1: header 'seed' is not a non-negative integer"),
    ({"seed": True}, ":1: header 'seed' is not a non-negative integer"),
    ({"seed": 1.0}, ":1: header 'seed' is not a non-negative integer"),
    ({"config_hash": 7}, ":1: header 'config_hash' is not a string"),
], ids=["kg-list", "kg-null", "seed-object", "seed-bool", "seed-float", "config-hash-number"])
def test_read_rejects_mistyped_provenance(header, match, handmade_dataset):
    with pytest.raises(DatasetFormatError, match=match):
        read_dataset(handmade_dataset(None, header))


def test_absent_provenance_keys_keep_their_defaults(handmade_dataset):
    path = handmade_dataset()
    header, body = path.read_text().split("\n", 1)
    header = {k: v for k, v in json.loads(header).items() if k not in ("kg", "seed", "config_hash")}
    path.write_text(json.dumps(header) + "\n" + body)
    provenance = read_dataset(path).provenance
    assert provenance == Provenance("unknown", 0, "")
    hash(provenance)  # a frozen dataclass of hashable fields


def test_sampler_config_validation():
    with pytest.raises(ValueError, match="per_type_count must be >= 0, got -1"):
        SamplerConfig(per_type_count=-1, seed=0)
    with pytest.raises(ValueError, match="max_retries must be >= 1, got 0"):
        SamplerConfig(per_type_count=1, seed=0, max_retries=0)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):  # no SeedSequence stream
        SamplerConfig(per_type_count=1, seed=-1)
    with pytest.raises(ValueError):
        SamplerConfig(per_type_count=1, seed=0, source_layer="valid")
    assert SamplerConfig(per_type_count=0, seed=0, max_retries=1).per_type_count == 0


def test_sampler_raises_when_engine_drops_the_seed(desk_layers, monkeypatch):
    # the stored answers must hold the node the query was grounded at; an
    # engine that loses it is caught even under python -O
    seeds = []

    def ground(*args, **kwargs):
        ids, v = ground_type(*args, **kwargs)
        seeds.append(v)
        return ids, v

    def dropping_seed(graph, pattern, ids):
        # the type's one batched pass: one row, the last query grounded
        bits = answer_bits(graph, pattern, ids)
        bits[:, seeds[-1]] = 0
        return bits

    monkeypatch.setattr(sampler, "ground_type", ground)
    monkeypatch.setattr(sampler, "answer_bits", dropping_seed)
    with pytest.raises(
        RuntimeError, match=r"type \(p,\(e\)\): seed node \d+ is not an answer of \(p,\(\d+\),\(e,\(\d+\)\)\) on the train layer"
    ):
        sample_dataset(desk_layers, [parse_formula("(p,(e))")], SamplerConfig(1, seed=0))


def test_one_engine_pass_per_type(monkeypatch):
    # the records' three answer sets come from one pass per type on the
    # source layer, whose rows are that type's records; a negation type's
    # grounding check goes through answer, not this binding
    layers = split_edges(synthetic_graph(100, 3, 1500, seed=11), (8, 1, 1), seed=11)
    passes = []

    def counted(layer, pattern, ids):
        passes.append((layer, pattern, ids.copy()))
        return answer_bits(layer, pattern, ids)

    monkeypatch.setattr(sampler, "answer_bits", counted)
    formulas = ("(p,(e))", "(i,(n,(p,(e))),(p,(e)))", "(i,(n,(p,(p,(e)))),(p,(e)))")
    types = [parse_formula(f) for f in formulas]
    cfg = SamplerConfig(per_type_count=4, seed=0, source_layer="test")
    ds = sample_dataset(layers, types, cfg)
    assert len(ds) == 12 and len(passes) == 3
    assert sum(len(ids) for _, _, ids in passes) == 12
    assert all(layer is layers.test for layer, _, _ in passes)
    for qtype, (_, pattern, ids) in zip(types, passes):
        assert pattern is qtype.pattern
        assert ids.tolist() == [record.ids.tolist() for record in ds.records[qtype.formula_text]]
    # a negated branch that gains test edges loses answers there, so a train
    # answer need not be a test answer: no layer is a mask of another's ids
    assert any(record.train_answers - record.test_answers for record in ds.iter_records())
    for record in ds.iter_records():
        for name in ("train", "valid", "test"):
            assert record.answers(name) == frozenset(answer(layers.layer(name), record.query, record.ids))


def test_a_type_split_into_several_passes_gives_the_same_records(desk_layers, monkeypatch):
    # the bits of a pass are capped at PASS_BYTES: three rows a pass here
    types = [parse_formula(f) for f in ("(p,(e))", "(i,(n,(p,(e))),(p,(p,(e))))")]
    cfg = SamplerConfig(per_type_count=8, seed=3)
    whole = sample_dataset(desk_layers, types, cfg)
    passes = []

    def counted(layer, pattern, ids):
        passes.append(len(ids))
        return answer_bits(layer, pattern, ids)

    monkeypatch.setattr(sampler, "PASS_BYTES", 3 * desk_layers.train.num_entities)
    monkeypatch.setattr(sampler, "answer_bits", counted)
    assert sample_dataset(desk_layers, types, cfg).records == whole.records
    assert passes == [3, 3, 2, 3, 3, 2]


def test_incoming_index_built_once_on_the_source_layer_only(tmp_path, monkeypatch):
    rows = synthetic_graph(40, 3, 200, seed=5).edges.rows().tolist()
    paths = [tmp_path / f"{name}.txt" for name in ("train", "valid", "test")]
    for path, part in zip(paths, (rows[:160], rows[160:180], rows[180:])):
        path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in part))
    builds, in_index = [], graph._in_index

    def counted(keys, num_entities):
        builds.append(len(keys))
        return in_index(keys, num_entities)

    monkeypatch.setattr(graph, "_in_index", counted)
    layers = layer_graphs(*paths)
    assert builds == []
    for seed in (0, 1):
        sample_dataset(layers, [parse_formula("(p,(p,(e)))")], SamplerConfig(5, seed=seed))
    assert builds == [160]
    assert "in_index" in vars(layers.train)
    assert "in_index" not in vars(layers.valid) and "in_index" not in vars(layers.test)


def test_dataset_bytes_pinned(desk_layers, tmp_path):
    # sha256 of the file written for this graph, types and seed, recorded from
    # the frozenset-based graph store that the edge table replaced
    ds = sample_dataset(
        desk_layers, builtin_query_types().all_fol, SamplerConfig(per_type_count=3, seed=29), kg_name="desk"
    )
    path = tmp_path / "desk.jsonl"
    write_dataset(ds, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "1a2cae30f0ef849ad466ce74e0a185e546848a8155270778c9057ec79c7554fc"


def test_test_layer_dataset_bytes_pinned(desk_layers, tmp_path):
    # sha256 recorded from the per-layer set walks that the one-pass layer
    # bitmask engine replaced. Grounded on the test layer, with negation
    # types, so the negation check reads the test bit and 101 of the 174
    # records differ between layers.
    cfg = SamplerConfig(per_type_count=3, seed=31, source_layer="test")
    ds = sample_dataset(desk_layers, builtin_query_types().all_fol, cfg, kg_name="desk")
    assert len(ds) == 174
    assert sum(not (r.train_answers == r.valid_answers == r.test_answers) for r in ds.iter_records()) == 101
    path = tmp_path / "desk-test.jsonl"
    write_dataset(ds, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "0c7f19d3ce9d6f34046e65ab8477cb789f8aca8f62933a936e77216ab56e8e3f"


@pytest.mark.parametrize("source_layer", ["train", "test"])
def test_written_datasets_never_reach_the_record_reader(source_layer, desk_layers, tmp_path, monkeypatch):
    cfg = SamplerConfig(per_type_count=3, seed=37, source_layer=source_layer)
    ds = sample_dataset(desk_layers, builtin_query_types().all_fol, cfg, kg_name="desk")
    path = tmp_path / "desk.jsonl"
    write_dataset(ds, path)
    calls, read_record = [], sampler._read_record
    monkeypatch.setattr(sampler, "_read_record", lambda *args: calls.append(args) or read_record(*args))
    read = read_dataset(path)
    assert calls == []
    assert read == ds
    for record in read.iter_records():
        for layer in ("train", "valid", "test"):
            ids = record.answers(layer).ids
            assert ids.dtype == np.int64 and not ids.flags.writeable


def test_the_loop_builds_no_query_trees(desk_layers, desk_vocab, tmp_path, monkeypatch):
    # sampling, both file directions, training and evaluation work on the
    # type patterns and the id vectors; a first pass builds each type's
    # pattern and template, which are kept per type string
    from cqakit.evaluation import evaluate
    from cqakit.training import TrainConfig, train

    types = builtin_query_types().all_fol

    def loop(count):
        pool = sample_dataset(desk_layers, types, SamplerConfig(per_type_count=count, seed=9), kg_name="desk")
        write_dataset(pool, tmp_path / "pool.jsonl")
        read = read_dataset(tmp_path / "pool.jsonl")
        for arch in ("LSTM", "TreeLSTM"):
            cfg = TrainConfig(arch=arch, d=8, layers=1, heads=2, epochs=1, batch_size=64, seed=0)
            evaluate(train(cfg, read, desk_vocab).model, read, mode="both")
        return pool, read

    loop(1)
    built = []
    real = QueryNode.__post_init__

    def counted(node):
        built.append(node.kind)
        real(node)

    monkeypatch.setattr(QueryNode, "__post_init__", counted)
    pool, read = loop(4)
    assert len(pool) == len(read) > len(types) and read == pool
    assert built == []
    assert all("query" not in vars(record) for record in [*pool.iter_records(), *read.iter_records()])
