"""Property tests over randomly generated query trees, graphs and damaged files."""

import functools
import hashlib
import json
import os
import pathlib
import re
import string
import tempfile
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from cqakit.encoders import CheckpointError
from cqakit.encoders.checkpoint import MAGIC
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
from cqakit.linearize import LPAREN, RPAREN, Vocabulary, delinearize, linearize
from cqakit.queries import (
    OperatorKind,
    QueryNode,
    QueryStructureError,
    QuerySyntaxError,
    anchor,
    fill_pattern,
    intersection,
    negation,
    parse_formula,
    parse_grounded,
    projection,
    query_ids,
    serialize_formula,
    serialize_grounded,
    union,
)
from cqakit import sampler
from cqakit.queries import builtin_query_types
from cqakit.rng import make_rng
from cqakit.sampler import (
    Dataset,
    DatasetFormatError,
    GroundedQueryRecord,
    GroundingError,
    SamplerConfig,
    _DeadEnd,
    ground_type,
    read_dataset,
    sample_dataset,
    write_dataset,
)
from cqakit.symbolic import answer, answer_bits, answer_dnf, to_dnf
from cqakit.training import Checkpoint, TrainConfig, config_from_mapping, parse_config_file, train
from conftest import answer_set, answer_tree, incoming_map, rewrite_checkpoint
from test_graph import table_rows

NUM_ENTITIES = 24
NUM_RELATIONS = 4
VOCAB = Vocabulary(num_relations=NUM_RELATIONS, num_entities=NUM_ENTITIES)

entities = st.integers(0, NUM_ENTITIES - 1)
relations = st.integers(0, NUM_RELATIONS - 1)

query_trees = st.recursive(
    st.builds(anchor, entities),
    lambda sub: st.one_of(
        st.builds(projection, relations, sub),
        st.builds(negation, sub),
        st.builds(intersection, sub, sub),
        st.builds(intersection, sub, sub, sub),
        st.builds(union, sub, sub),
        st.builds(union, sub, sub, sub),
    ),
    max_leaves=8,
)


@given(query_trees)
def test_serialize_parse_round_trip(tree):
    assert parse_grounded(serialize_grounded(tree)) == tree


@given(query_trees)
def test_linearize_delinearize_round_trip(tree):
    tokens = linearize(tree, VOCAB)
    assert delinearize(tokens, VOCAB) == tree


@given(query_trees)
def test_parentheses_balanced(tree):
    depth = 0
    for t in linearize(tree, VOCAB):
        depth += (t == LPAREN) - (t == RPAREN)
        assert depth >= 0
    assert depth == 0


@given(query_trees)
def test_type_erasure_is_stable(tree):
    t = parse_formula(serialize_formula(tree))
    assert serialize_formula(t.pattern) == t.formula_text


GRAMMAR_CHARS = "(),epiun0123456789" + string.whitespace
# outside the grammar: letters, JSON number parts, a separator str.isspace counts as space, Unicode space and digit
OTHER_CHARS = "xE.-\x1c\u00a0\u0661"
WHITESPACE_REMOVED = str.maketrans("", "", string.whitespace)


def single_edits(text: str):
    """The text and its one-character deletions, insertions and replacements."""
    chars = st.sampled_from(GRAMMAR_CHARS + OTHER_CHARS)
    cut = st.integers(0, len(text) - 1)
    return st.one_of(
        st.just(text),
        cut.map(lambda i: text[:i] + text[i + 1 :]),
        st.tuples(st.integers(0, len(text)), chars).map(lambda ic: text[: ic[0]] + ic[1] + text[ic[0] :]),
        st.tuples(cut, chars).map(lambda ic: text[: ic[0]] + ic[1] + text[ic[0] + 1 :]),
    )


query_texts = st.one_of(
    st.text(GRAMMAR_CHARS + OTHER_CHARS, max_size=40),
    query_trees.flatmap(lambda t: st.sampled_from((serialize_grounded(t), serialize_formula(t)))).flatmap(
        single_edits
    ),
)


@settings(max_examples=1000)
@given(query_texts)
def test_reader_accepts_exactly_what_the_printer_writes(text):
    # the canonical printer is the oracle: a text the reader accepts is the
    # printed form of its tree, up to ASCII whitespace between tokens
    for read, write in (
        (parse_grounded, serialize_grounded),
        (lambda t: parse_formula(t).pattern, serialize_formula),
    ):
        try:
            node = read(text)
        except (QuerySyntaxError, QueryStructureError):
            continue
        assert write(node) == text.translate(WHITESPACE_REMOVED)


edge_lists = st.lists(
    st.tuples(entities, relations, entities), min_size=1, max_size=60, unique=True
)


@given(edge_lists)
def test_index_edge_bijection_random_graphs(edges):
    kg = KnowledgeGraph.from_edges(edges, NUM_ENTITIES, NUM_RELATIONS)
    rows = table_rows(kg)
    assert rows == sorted(rows) and len(rows) == len(kg.edges)
    assert {(h, r, t) for r, h, t, _ in rows} == set(map(tuple, kg.edges))
    assert {bits for *_, bits in rows} == {0xFF}


def naive_layer(triples):
    """The edge set and the incoming index, built straight from the triples."""
    edges = frozenset(triples)
    inc = {}
    for h, r, t in edges:
        inc.setdefault(t, []).append((h, r))
    return edges, {k: tuple(sorted(v)) for k, v in inc.items()}


def naive_table(files):
    """Relation table rows straight from the files: every distinct edge once,
    with ``0xFF << k`` for the first file ``k`` that holds it, sorted."""
    first = {}
    for k, rows in enumerate(files):
        for edge in rows:
            first.setdefault(edge, k)
    return sorted((r, h, t, (0xFF << k) & 0xFF) for (h, r, t), k in first.items())


triples = st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 6))


@settings(deadline=None)
@given(st.data())
def test_layer_builder_matches_naive_reference(data):
    # small id ranges, and later files drawing from earlier ones, give
    # duplicates within a file and across files; valid/test may be empty
    train = data.draw(st.lists(triples, min_size=1, max_size=12), "train")
    valid = data.draw(st.lists(triples | st.sampled_from(train), max_size=6), "valid")
    test = data.draw(st.lists(triples | st.sampled_from(train + valid), max_size=6), "test")
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for name, rows in (("train", train), ("valid", valid), ("test", test)):
            paths.append(os.path.join(root, f"{name}.txt"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))
        layers = layer_graphs(*paths)
    everything = train + valid + test
    rows = naive_table((train, valid, test))
    held_layers = ((layers.train, train), (layers.valid, train + valid), (layers.test, everything))
    for k, (layer, held) in enumerate(held_layers):
        assert layer.num_entities == 1 + max(max(h, t) for h, _, t in everything)
        assert layer.num_relations == 1 + max(r for _, r, _ in everything)
        edges, inc = naive_layer(held)
        assert layer.edges == edges and len(layer.edges) == len(edges)
        assert sorted(layer.edges) == list(layer.edges)
        assert incoming_map(layer.in_index, layer.num_relations) == inc
        # the shared table: its rows, and this layer's edges as the rows with bit k
        assert layer.table is layers.train.table and layer.layer == k
        assert table_rows(layer) == rows
        assert {(h, r, t) for r, h, t, bits in rows if bits >> k & 1} == edges
    assert layers.test.edges - layers.train.edges == frozenset(everything) - frozenset(train)


def naive_read_triples(path, entity_dict=None, relation_dict=None) -> list[list[int]]:
    """The triple file grammar, one line at a time: each field is a dictionary
    label, else a canonical id (ASCII digits, no sign or leading zero) below the
    dictionary size, or below 2**63 without one."""

    def resolve(token, labels):
        if labels is not None and token in labels:
            return labels[token]
        limit = 2**63 if labels is None else len(labels)
        if token.isascii() and token.isdigit() and str(int(token)) == token and int(token) < limit:
            return int(token)
        raise GraphFormatError(f"bad field {token!r}")

    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if fields == [""]:
                continue
            if len(fields) != 3:
                raise GraphFormatError(f"{len(fields)} fields")
            head, relation, tail = fields
            rows.append([resolve(head, entity_dict), resolve(relation, relation_dict), resolve(tail, entity_dict)])
    return rows


GOOD_FIELDS = ["0", "1", "2", "3", "10", "alice", "bob", "knows", "9223372036854775807"]
BAD_FIELDS = ["007", "00", "+2", "-3", "\u0663", " 4", "4 ", "1_0", "", "9223372036854775808"]


def triple_files(fields, field_counts):
    line = st.one_of(
        st.just(""),  # a blank line
        field_counts.flatmap(lambda n: st.lists(fields, min_size=n, max_size=n)).map("\t".join),
    )
    ends = st.sampled_from(["\n", "\r\n"])
    return st.lists(st.tuples(line, ends), max_size=8).map(lambda pairs: "".join(a + b for a, b in pairs))


def dictionaries(labels):
    """None, or some of ``labels`` mapped onto ``0..n-1`` in random order."""
    return st.none() | st.lists(st.sampled_from(labels), unique=True).flatmap(
        lambda chosen: st.permutations(range(len(chosen))).map(lambda ids: dict(zip(chosen, ids)))
    )


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        triple_files(st.sampled_from(GOOD_FIELDS), st.just(3)),
        # a short line and a long one hold as many fields as two good lines
        triple_files(st.sampled_from(["0", "1", "2"]), st.sampled_from([3, 2, 4])),
        triple_files(st.sampled_from(GOOD_FIELDS + BAD_FIELDS), st.sampled_from([3, 3, 3, 1, 2, 4])),
    ),
    dictionaries(["alice", "bob", "1", "007", "carol"]),
    dictionaries(["knows", "0", "likes"]),
)
def test_triple_reader_matches_per_line_reference(text, entity_dict, relation_dict):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "triples.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        try:
            expected = naive_read_triples(path, entity_dict, relation_dict)
        except GraphFormatError:
            expected = None
        if expected is None:
            with pytest.raises(GraphFormatError):
                read_triples(path, entity_dict, relation_dict)
        else:
            rows = read_triples(path, entity_dict, relation_dict)
            assert rows.dtype == np.int64 and rows.shape == (len(expected), 3)
            assert rows.tolist() == expected


@settings(deadline=2000, max_examples=40)
@given(edge_lists, query_trees)
def test_oracle_agreement_on_random_instances(edges, tree):
    kg = KnowledgeGraph.from_edges(edges, NUM_ENTITIES, NUM_RELATIONS)
    assert answer_dnf(kg, to_dnf(tree)) == answer_tree(kg, tree)


# a universe fixed by dictionaries, so some entities have no edges at all
SMALL_ENTITIES, SMALL_RELATIONS = 7, 3
small_entities = st.integers(0, SMALL_ENTITIES - 1)
small_triples = st.tuples(small_entities, st.integers(0, SMALL_RELATIONS - 1), small_entities)
small_trees = st.recursive(
    st.builds(anchor, small_entities),
    lambda sub: st.one_of(
        st.builds(projection, st.integers(0, SMALL_RELATIONS - 1), sub),
        st.builds(negation, sub),
        st.builds(intersection, sub, sub),
        st.builds(union, sub, sub),
        st.builds(union, sub, sub, sub),
    ),
    max_leaves=5,
)


@st.composite
def three_files(draw):
    """Train, valid and test rows; the later files may be empty, repeat
    earlier rows or add new ones."""
    train = draw(st.lists(small_triples, max_size=14))
    valid = draw(st.lists(small_triples | st.sampled_from(train), max_size=6) if train else st.just([]))
    earlier = train + valid
    test = draw(st.lists(small_triples | st.sampled_from(earlier), max_size=6) if earlier else st.just([]))
    return train, valid, test


def small_layers(files):
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for name, rows in zip(("train", "valid", "test"), files):
            paths.append(os.path.join(root, f"{name}.txt"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))
        ids = [{str(i): i for i in range(n)} for n in (SMALL_ENTITIES, SMALL_RELATIONS)]
        return layer_graphs(*paths, *ids)


CHAIN = ([(0, 0, 1)], [(1, 1, 2)], [(0, 0, 1), (2, 2, 3)])
# tail 2 is reached from 1 on every layer and from 3 from the valid layer on
MERGE = ([(0, 0, 1), (0, 0, 3), (1, 1, 2)], [(3, 1, 2)], [])


@settings(deadline=None, max_examples=200)
@given(three_files(), small_trees)
@example(CHAIN, projection(0, anchor(5)))  # an anchor with no out-edges
@example(CHAIN, negation(projection(1, anchor(6))))  # negation of the empty set: every entity
@example(CHAIN, negation(anchor(3)))
@example(CHAIN, projection(2, projection(1, projection(0, anchor(0)))))  # test layer only
@example(CHAIN, intersection(projection(0, anchor(0)), negation(projection(0, anchor(0)))))  # empty
@example(([], [], []), negation(projection(0, anchor(0))))  # no edges on any layer
@example(MERGE, projection(1, projection(0, anchor(0))))  # one tail, edge bits that differ
def test_bitmask_engine_matches_dnf_oracle_on_every_layer(files, tree):
    layers = small_layers(files)
    bits = answer_bits(layers.train, tree, query_ids(tree))
    assert bits.dtype == np.uint8 and bits.shape == (SMALL_ENTITIES,)
    # bits past the last layer repeat it
    assert np.array_equal(bits >> 3, np.where(bits & 4, 0x1F, 0))
    for k, layer in enumerate((layers.train, layers.valid, layers.test)):
        expected = answer_dnf(layer, to_dnf(tree))
        assert set(np.flatnonzero(bits & (1 << k)).tolist()) == expected
        assert answer_tree(layer, tree) == expected


# -- file readers under damaged input ------------------------------------------


def written_bytes(write) -> bytes:
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "file")
        write(path)
        with open(path, "rb") as fh:
            return fh.read()


@functools.cache
def checkpoint_bytes() -> bytes:
    cfg = TrainConfig(arch="Transformer-RPE", d=4, layers=1, heads=2, max_len=8, rpe_clip=2, epochs=0)
    return written_bytes(train(cfg, Dataset(), VOCAB).save)


@functools.cache
def dataset_bytes() -> bytes:
    dataset = Dataset(num_entities=NUM_ENTITIES, num_relations=NUM_RELATIONS)
    for text, answers in (("(p,(1),(e,(3)))", {2, 23}), ("(i,(p,(0),(e,(5))),(p,(3),(e,(7))))", {9})):
        query = parse_grounded(text)
        record = GroundedQueryRecord(serialize_formula(query), query_ids(query), answer_set(answers),
                                     answer_set(answers), answer_set(answers | {11}))
        dataset.records.setdefault(record.type_formula, []).append(record)
    return written_bytes(lambda path: write_dataset(dataset, path))


def damaged(blob: bytes, head: int):
    """Truncations, byte flips (half of them inside the first ``head`` bytes,
    where the manifest or header sits) and garbage, with or without the
    original head in front."""
    position = st.integers(0, head - 1) | st.integers(0, len(blob) - 1)

    def flip(edits):
        out = bytearray(blob)
        for i, mask in edits:
            out[i] ^= mask
        return bytes(out)

    return st.one_of(
        st.integers(0, len(blob) - 1).map(lambda n: blob[:n]),
        st.lists(st.tuples(position, st.integers(1, 255)), min_size=1, max_size=3).map(flip),
        st.binary(max_size=80),
        st.binary(max_size=80).map(lambda tail: blob[:head] + tail),
    )


def read_damaged(blob: bytes, read):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "file")
        with open(path, "wb") as fh:
            fh.write(blob)
        read(path)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_checkpoint_reader_raises_only_checkpoint_error(data):
    blob = checkpoint_bytes()
    damaged_blob = data.draw(damaged(blob, blob.index(b"\n", len(MAGIC)) + 1))
    try:
        read_damaged(damaged_blob, Checkpoint.load)
    except CheckpointError:
        pass


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_checkpoint_directory_edits_are_refused(data):
    # the checksum is rewritten, so every edit reaches the directory rule
    directory = json.loads(checkpoint_bytes().split(b"\n", 2)[1])["tensors"]
    i, j = data.draw(st.lists(st.integers(0, len(directory) - 1), min_size=2, max_size=2, unique=True))
    kind = data.draw(st.sampled_from(["name", "dtype", "offset", "nbytes", "shape", "drop", "duplicate", "swap",
                                      "trailing bytes"]))
    dim = data.draw(st.integers(0, len(directory[i]["shape"]) - 1))
    old = directory[i]["shape"][dim] if kind == "shape" else directory[i].get(kind)
    # a JSON bool, a list or a float, which Python may take as equal, standing in for an int or a
    # name; or another int or name
    value = data.draw(st.one_of(
        st.booleans(), st.just([old]), st.just(float(old)) if isinstance(old, int) else st.nothing(),
        st.integers(-1, 2**20), st.text(max_size=6),
    ))
    tail = data.draw(st.binary(min_size=1, max_size=16))

    def edit(meta, entries, payload):
        if kind == "shape":
            entries[i]["shape"][dim] = value
        elif kind in ("name", "dtype", "offset", "nbytes"):
            entries[i][kind] = value
        elif kind == "drop":
            del entries[i]
        elif kind == "duplicate":
            entries.insert(i, dict(entries[i]))
        elif kind == "swap":
            entries[i], entries[j] = entries[j], entries[i]
        else:
            payload.extend(tail)

    with tempfile.TemporaryDirectory() as root:
        path = pathlib.Path(root, "m.ckpt")
        path.write_bytes(checkpoint_bytes())
        Checkpoint.load(path)  # the unedited file loads
        rewrite_checkpoint(path, edit)
        edited = json.loads(path.read_bytes().split(b"\n", 2)[1])["tensors"]
        assume(json.dumps(edited) != json.dumps(directory) or kind == "trailing bytes")
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_dataset_reader_raises_only_dataset_format_error(data):
    blob = dataset_bytes()
    damaged_blob = data.draw(damaged(blob, blob.index(b"\n") + 1))
    try:
        read_damaged(damaged_blob, read_dataset)
    except DatasetFormatError:
        pass


# -- the bulk dataset reader against the record reader --------------------------

RECORD_KEYS = ("query", "test_answers", "train_answers", "type", "valid_answers")
ANSWER_KEYS = ("test_answers", "train_answers", "valid_answers")


@pytest.fixture(scope="module")
def desk_records(desk_layers, tmp_path_factory):
    """The header of a file of every built-in type on the desk graph, and its
    records as fields: query and type texts, answer lists as id tokens."""
    cfg = SamplerConfig(per_type_count=2, seed=41, source_layer="test")
    path = tmp_path_factory.mktemp("desk") / "desk.jsonl"
    write_dataset(sample_dataset(desk_layers, builtin_query_types().all_fol, cfg, kg_name="desk"), path)
    header, *lines = path.read_text().splitlines()
    records = []
    for line in lines:
        fields = json.loads(line)
        records.append({k: v if isinstance(v, str) else list(map(str, v)) for k, v in fields.items()})
    return json.loads(header), records


def render(fields, keys=RECORD_KEYS, space=""):
    """A record line; the writer's own when ``keys`` are sorted and ``space`` is empty."""
    text = {k: json.dumps(v) if isinstance(v, str) else "[" + ",".join(v) + "]" for k, v in fields.items()}
    return "{" + ("," + space).join(f'"{k}":{space}{text[k]}' for k in keys) + "}"


def mutated_line(data, fields) -> str:
    """One record's line: as written, or with one edit that the bulk reader must
    refuse or read exactly as the record reader does."""
    fields = {k: list(v) if isinstance(v, list) else v for k, v in fields.items()}
    edit = data.draw(st.sampled_from(
        ["none", "leading-zero", "empty-element", "unsorted", "id-past-universe", "long-id", "space",
         "reordered-keys", "wrong-type", "query-id"]
    ))
    ids = fields[data.draw(st.sampled_from(ANSWER_KEYS))]
    at = data.draw(st.integers(0, len(ids)))
    if edit == "leading-zero" and ids:
        ids[at % len(ids)] = "0" + ids[at % len(ids)]
    elif edit == "empty-element":
        ids.insert(at, "")
    elif edit == "unsorted" and ids:
        ids.insert(at, ids[data.draw(st.integers(0, len(ids) - 1))])
    elif edit == "id-past-universe":
        ids.insert(at, str(100 + data.draw(st.integers(0, 3))))
    elif edit == "long-id":
        big = data.draw(st.sampled_from([10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63, 10**19]))
        ids.insert(at, str(big))
    elif edit == "space":
        line = render(fields)
        at = data.draw(st.integers(0, len(line)))
        return line[:at] + data.draw(st.sampled_from([" ", "\t", "  "])) + line[at:]
    elif edit == "reordered-keys":
        keys = data.draw(st.permutations(RECORD_KEYS))
        return render(fields, keys, data.draw(st.sampled_from(["", " "])))
    elif edit == "wrong-type":
        formulas = [t.formula_text for t in builtin_query_types().all_fol]
        fields["type"] = data.draw(st.sampled_from(formulas + ["(p, (e))", "(e)", "(p,(e)) ", ""]))
    elif edit == "query-id":
        spans = [m.span() for m in re.finditer("[0-9]+", fields["query"])]
        start, end = data.draw(st.sampled_from(spans))
        new = data.draw(st.sampled_from(["0" + fields["query"][start:end], "10", "100", str(10**18), str(2**63)]))
        fields["query"] = fields["query"][:start] + new + fields["query"][end:]
    return render(fields)


def read_outcome(path):
    try:
        return read_dataset(path)
    except DatasetFormatError as exc:
        return str(exc)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_bulk_dataset_reader_matches_the_record_reader(desk_records, data):
    header, records = desk_records
    chosen = data.draw(st.lists(st.sampled_from(records), min_size=1, max_size=3))
    body = "".join(mutated_line(data, fields) + "\n" for fields in chosen)
    header = {**header, "checksum": hashlib.sha256(body.encode()).hexdigest(), "num_records": len(chosen)}
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "d.jsonl")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(header) + "\n" + body)
        bulk = read_outcome(path)
        with mock.patch.object(sampler, "_read_canonical", lambda lines, dataset: [None] * len(lines)):
            oracle = read_outcome(path)
    assert bulk == oracle
    if isinstance(bulk, Dataset):
        for record in bulk.iter_records():
            for ids in (record.train_answers.ids, record.valid_answers.ids, record.test_answers.ids):
                assert ids.dtype == np.int64 and not ids.flags.writeable


@pytest.mark.parametrize("blob,read,error", [
    (b"0\t0\t1\n1\t1\t2\n2\t0\t3\n3\t1\t0\n", read_triples, GraphFormatError),
    (b"0\talice\n1\tbob\n2\tcarol\n", load_dictionary, GraphFormatError),
    (b"arch = LSTM\nd = 16  # width\nepochs = 2\nlearning_rate = 0.01\n",
     lambda path: config_from_mapping(parse_config_file(path)), ValueError),
], ids=["triples", "dictionary", "config"])
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_text_readers_raise_only_documented_errors(blob, read, error, data):
    damaged_blob = data.draw(damaged(blob, blob.index(b"\n") + 1))
    try:
        read_damaged(damaged_blob, read)
    except error:
        pass


def edge_views(num_entities, num_relations):
    return lambda edges: KnowledgeGraph.from_edges(edges, num_entities, num_relations).edges


# per set type: its members, its builders from a frozenset of them (EdgeView
# over two universes), a probe strategy, and the probes to ask for a probe
ID_SET_KINDS = {
    "AnswerSet": (
        st.integers(0, 40),
        [answer_set],
        st.integers(-3, 45),
        # a negative id, ids past any answer or past int64, and non-ints are
        # never members; a number equal to an id is one
        lambda p: (p, -1, 41, 2**63, 2**70, "3", None, 0.5, (1,), float(p), 1.0,
                   np.True_, np.float64(p), np.int32(p), float("nan"), float("inf")),
    ),
    "EdgeView": (
        st.builds(EdgeTriple, st.integers(0, 3), st.integers(0, 1), st.integers(0, 3)),
        [edge_views(4, 2), edge_views(5, 3)],
        st.tuples(st.integers(-1, 4), st.integers(-1, 2), st.integers(-1, 4)),
        # ids outside the universe or negative, other arities, non-tuples,
        # non-int parts; parts equal to ints match as in a frozenset
        lambda p: (p, (4, 0, 0), (0, 2, 0), (0, 0, 4), (-1, 0, 0), (2**70, 0, 0), p[:2], p + (0,), (), 0,
                   None, "abc", tuple(map(float, p)), tuple(map(np.int32, p)), (p[0] + 0.5, *p[1:]),
                   (np.True_, 1, 1), (float("nan"), 0, 0), ("0", 0, 1), ((0,), 0, 1)),
    ),
}


@pytest.mark.parametrize("kind", sorted(ID_SET_KINDS))
@given(data=st.data())
def test_id_set_behaves_as_its_frozenset(kind, data):
    members, builders, probe, probes = ID_SET_KINDS[kind]
    a, b = (data.draw(st.frozensets(members, max_size=20)) for _ in range(2))
    A = builders[0](a)
    assert A.ids.dtype == np.int64 and not A.ids.flags.writeable
    assert len(A) == len(a)
    assert list(A) == sorted(a) and list(map(type, A)) == list(map(type, sorted(a)))
    for value in probes(data.draw(probe)):
        assert (value in A) == (value in a)
    assert hash(A) == hash(a)
    # b, a subset of a and a itself, as sets of each universe and as
    # frozensets, on either side
    for c in (b, a & b, a):
        for C in (build(c) for build in builders):
            for x, y in ((A, C), (A, c), (a, C)):
                assert (x == y) == (a == c) and (y == x) == (a == c)
                assert (x <= y) == (a <= c) and (y <= x) == (c <= a)
                assert x - y == a - c and y - x == c - a
        difference = A - builders[0](c)
        assert type(difference) is type(A) and list(difference) == sorted(a - c)


# -- id vectors against the tree references --------------------------------------


def ground_type_nodes(layer, qtype, rng, max_retries=64):
    """The sampler's grounding as it was when it built the query tree: the
    reference that :func:`~cqakit.sampler.ground_type` must follow id for id
    and draw for draw. Only the engine call of the negation check and the
    incoming pairs, read from :func:`naive_layer`'s map, changed."""
    if not layer.edges:
        raise GroundingError("cannot ground queries on an empty graph")
    incoming_pairs = naive_layer(layer.edges)[1]

    def ground(node: QueryNode, v: int) -> QueryNode:
        k = node.kind
        if k is OperatorKind.ANCHOR:
            return anchor(v)
        if k is OperatorKind.PROJECTION:
            incoming = incoming_pairs.get(v, ())
            if not incoming:
                raise _DeadEnd
            u, r = incoming[rng.integers(len(incoming))]
            return projection(r, ground(node.children[0], u))
        if k is OperatorKind.INTERSECTION:
            return QueryNode(k, children=tuple(ground(c, v) for c in node.children))
        if k is OperatorKind.UNION:
            grounded = [ground(node.children[0], v)]
            for child in node.children[1:]:
                for attempt in range(16):
                    w = int(rng.integers(layer.num_entities))
                    try:
                        grounded.append(ground(child, w))
                        break
                    except _DeadEnd:
                        continue
                else:
                    raise _DeadEnd
            return QueryNode(k, children=tuple(grounded))
        # negation: ground the negated subtree at an independent node; the
        # acceptance check below restores the answer guarantee.
        w = int(rng.integers(layer.num_entities))
        return negation(ground(node.children[0], w))

    for _ in range(max_retries):
        v = int(rng.integers(layer.num_entities))
        try:
            candidate = ground(qtype.pattern, v)
        except _DeadEnd:
            continue
        if qtype.has_negation and v not in answer_tree(layer, candidate):
            continue
        return candidate, v
    raise GroundingError(
        f"failed to ground type {qtype.formula_text} after {max_retries} attempts"
    )


BUILTIN_TYPES = builtin_query_types().all_fol
# (type, seed of its stream, retry budget): small budgets make GroundingError
# and dead ends in union children common
groundings = st.tuples(st.sampled_from(BUILTIN_TYPES), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 64]))


def grounded(layer, qtype, seed, retries):
    """``ground_type``'s outcome, ``(ids, seed node)`` or the error text, and the stream after it."""
    rng = make_rng(seed)
    try:
        outcome = ground_type(layer, qtype, rng, retries)
    except GroundingError as exc:
        outcome = str(exc)
    return outcome, rng.bit_generator.state


@settings(deadline=None, max_examples=300)
@given(groundings, st.sampled_from(["train", "test"]))
def test_id_grounding_matches_the_node_grounding_reference(desk_layers, grounding, layer_name):
    layer = desk_layers.layer(layer_name)
    qtype, seed, retries = grounding
    outcome, state = grounded(layer, qtype, seed, retries)
    rng = make_rng(seed)
    try:
        node, v = ground_type_nodes(layer, qtype, rng, retries)
        expected = (query_ids(node), v)
    except GroundingError as exc:
        expected = str(exc)
    assert outcome == expected
    assert state == rng.bit_generator.state  # the same draws, in the same order


@settings(deadline=None, max_examples=60)
@given(groundings)
def test_id_engine_matches_dnf_oracle_on_every_layer(desk_layers, grounding):
    qtype, seed, retries = grounding
    (outcome, _) = grounded(desk_layers.train, qtype, seed, retries)
    if isinstance(outcome, str):
        return
    ids, v = outcome
    tree = fill_pattern(qtype.pattern, ids)
    assert query_ids(tree) == ids and serialize_formula(tree) == qtype.formula_text
    bits = answer_bits(desk_layers.train, qtype.pattern, ids)
    assert bits.item(v) & 1  # the seed answers on the layer it was grounded on
    for k, name in enumerate(("train", "valid", "test")):
        expected = answer_dnf(desk_layers.layer(name), to_dnf(tree))
        assert set(np.flatnonzero(bits & (1 << k)).tolist()) == expected


@functools.cache
def batch_layers():
    """A three-layer graph small enough for the DNF oracle on every built-in type."""
    return split_edges(synthetic_graph(30, 4, 160, seed=7), (8, 1, 1), seed=7)


@st.composite
def id_batches(draw):
    """A built-in type and a batch of its id vectors: queries grounded on the
    train layer, vectors of random ids, which often have no answers, and
    repeats of earlier rows."""
    layers = batch_layers()
    qtype = draw(st.sampled_from(BUILTIN_TYPES))
    relations = sampler._type_template(qtype.formula_text).relations
    rows = []
    for kind in draw(st.lists(st.sampled_from(["grounded", "random", "repeat"]), min_size=1, max_size=7)):
        if kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
            continue
        if kind == "grounded":
            try:
                rows.append(ground_type(layers.train, qtype, make_rng(draw(st.integers(0, 2**32 - 1))))[0])
                continue
            except GroundingError:
                pass
        universe = [layers.train.num_relations if r else layers.train.num_entities for r in relations]
        rows.append([draw(st.integers(0, n - 1)) for n in universe])
    return qtype, rows


@settings(deadline=None, max_examples=120)
@given(id_batches())
@example((parse_formula("(p,(e))"), [[0, 0]]))  # one row; entity 0 has no relation-0 edge on any layer
@example((parse_formula("(p,(e))"), [[0, 0], [1, 4], [0, 0], [1, 4]]))  # duplicate rows
@example((parse_formula("(i,(n,(p,(e))),(p,(p,(e))))"), [[0, 0, 3, 2, 9], [3, 7, 1, 0, 4], [0, 0, 3, 2, 9]]))
def test_batched_engine_rows_match_the_oracle_and_the_one_row_call(batch):
    qtype, rows = batch
    layers = batch_layers()
    bits = answer_bits(layers.train, qtype.pattern, np.array(rows, dtype=np.int64))
    assert bits.dtype == np.uint8 and bits.shape == (len(rows), layers.train.num_entities)
    for row_bits, ids in zip(bits, rows):
        assert np.array_equal(row_bits, answer_bits(layers.train, qtype.pattern, ids))
        tree = fill_pattern(qtype.pattern, ids)
        for k, name in enumerate(("train", "valid", "test")):
            expected = answer_dnf(layers.layer(name), to_dnf(tree))
            assert set(np.flatnonzero(row_bits & (1 << k)).tolist()) == expected
            assert answer(layers.layer(name), qtype.pattern, ids) == expected


@settings(deadline=None, max_examples=100)
@given(st.lists(groundings, min_size=1, max_size=12), st.integers(0, 3), st.integers(0, 3))
def test_template_tokens_and_text_match_the_tree_references(desk_layers, desk_vocab, picks, cut_r, cut_e):
    # records of mixed types in any order; vocabularies cut below the graph
    # make some ids out of vocabulary, and the first failing record words the error
    records = []
    for qtype, seed, retries in picks:
        outcome, _ = grounded(desk_layers.train, qtype, seed, retries)
        if not isinstance(outcome, str):
            records.append(GroundedQueryRecord(qtype.formula_text, outcome[0], *[answer_set(())] * 3))
    vocab = Vocabulary(desk_vocab.num_relations - cut_r, desk_vocab.num_entities - 30 * cut_e)
    try:
        expected = [linearize(r.query, vocab) for r in records]
    except QueryStructureError as exc:
        expected = str(exc)
    try:
        got = sampler.query_tokens(records, vocab)
    except QueryStructureError as exc:
        got = str(exc)
    assert got == expected
    for record in records:
        template = sampler._type_template(record.type_formula)
        assert template.text.format(*record.ids.tolist()) == serialize_grounded(record.query)
