import hashlib
import json

import numpy as np
import pytest
from hypothesis import settings

from cqakit.encoders import FlatTensors
from cqakit.graph import split_edges, synthetic_graph
from cqakit.linearize import build_vocabulary
from cqakit.queries import parse_formula, query_ids
from cqakit.sampler import AnswerSet, SamplerConfig, sample_dataset
from cqakit.symbolic import answer

# CI runs the same examples on every run (--hypothesis-profile=ci) and prints
# the blob that reproduces a failure
settings.register_profile("ci", derandomize=True, print_blob=True)


def answer_set(ids) -> AnswerSet:
    """The answer set of any collection of int entity ids."""
    return AnswerSet(np.unique(np.fromiter(ids, dtype=np.int64)))


def answer_tree(layer, query) -> AnswerSet:
    """The engine's answer to a query tree: the tree is its own pattern."""
    return answer(layer, query, query_ids(query))


def stored_in_reverse(checkpoint: bytes) -> bytes:
    """The checkpoint file with its tensors listed and stored in reverse name order: the
    directory still tiles the payload and the checksum holds, but the order is not sorted."""
    magic, manifest, payload = checkpoint.split(b"\n", 2)
    manifest = json.loads(manifest)
    parts, offset = [], 0
    for entry in reversed(manifest["tensors"]):
        parts.append(payload[entry["offset"] : entry["offset"] + entry["nbytes"]])
        entry["offset"], offset = offset, offset + entry["nbytes"]
    manifest["tensors"].reverse()
    payload = b"".join(parts)
    manifest["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    return b"\n".join([magic, json.dumps(manifest).encode(), payload])


def assert_loaded_layout(loaded, saved):
    """A loaded checkpoint's moments ``m``, ``v`` and parameters are ``FlatTensors`` over three
    consecutive thirds of one payload buffer, with the bytes of the saved checkpoint's vectors."""
    thirds = (loaded.moments.m, loaded.moments.v, loaded.model.parameters())
    payload = thirds[0].flat.base
    start = payload.ctypes.data
    for third, vector in zip(thirds, (saved.moments.m, saved.moments.v, saved.model.parameters())):
        assert isinstance(third, FlatTensors) and third.flat.base is payload
        assert np.shares_memory(third.flat, payload)
        assert all(np.shares_memory(arr, third.flat) for arr in third.values())
        assert third.flat.ctypes.data == start
        assert third.keys() == vector.keys() and third.flat.tobytes() == vector.flat.tobytes()
        start += third.flat.nbytes
    assert start == payload.ctypes.data + payload.nbytes


@pytest.fixture(scope="session")
def toy_kg():
    """Dense-enough 60-entity graph for grounding every built-in type."""
    return synthetic_graph(60, 5, 500, seed=3)


@pytest.fixture(scope="session")
def desk_layers():
    """The desk-scale benchmark graph: 100 entities, 10 relations, ~500 edges."""
    kg = synthetic_graph(100, 10, 500, seed=11)
    return split_edges(kg, (8, 1, 1), seed=11)


@pytest.fixture(scope="session")
def desk_dataset(desk_layers):
    """1p/2p/2i training queries for the desk overfit runs."""
    types = [parse_formula(f) for f in ("(p,(e))", "(p,(p,(e)))", "(i,(p,(e)),(p,(e)))")]
    return sample_dataset(
        desk_layers, types, SamplerConfig(per_type_count=25, seed=5), kg_name="desk"
    )


@pytest.fixture(scope="session")
def desk_vocab(desk_layers):
    return build_vocabulary(desk_layers.test)



def _merged(default: dict, edit):
    if isinstance(edit, dict):
        return {**default, **edit}
    return default if edit is None else edit


@pytest.fixture
def handmade_dataset(tmp_path):
    """Write a one-record dataset file whose header checksum and count match.

    ``record`` and ``header`` replace fields of a valid record and header,
    or the whole line when they are not dicts. The record is written with
    spaces after separators, or with ``compact`` in the writer's own form.
    """

    def write(record=None, header=None, compact=False):
        record = _merged(
            {
                "type": "(p,(e))",
                "query": "(p,(0),(e,(2)))",
                "train_answers": [4],
                "valid_answers": [4, 7],
                "test_answers": [4, 7, 9],
            },
            record,
        )
        body = json.dumps(record, sort_keys=True, separators=(",", ":") if compact else None) + "\n"
        header = _merged(
            {
                "format": "cqakit-dataset",
                "version": 1,
                "kg": "hand",
                "seed": 0,
                "config_hash": "deadbeef",
                "num_entities": 10,
                "num_relations": 1,
                "checksum": hashlib.sha256(body.encode()).hexdigest(),
                "num_records": 1,
            },
            header,
        )
        path = tmp_path / "hand.jsonl"
        path.write_text(json.dumps(header, sort_keys=True) + "\n" + body)
        return path

    return write
