import hashlib
import json

import numpy as np
import pytest

from cqakit.graph import split_edges, synthetic_graph
from cqakit.linearize import build_vocabulary
from cqakit.queries import parse_formula
from cqakit.sampler import AnswerSet, SamplerConfig, sample_dataset


def answer_set(ids) -> AnswerSet:
    """The answer set of any collection of int entity ids."""
    return AnswerSet(np.unique(np.fromiter(ids, dtype=np.int64)))


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
