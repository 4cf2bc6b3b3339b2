import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from cqakit.encoders import new_model
from cqakit import evaluation
from cqakit.evaluation import MODES, _ranks, evaluate, evaluate_scores
from cqakit.linearize import Vocabulary
from cqakit.queries import parse_grounded, query_ids
from cqakit.rng import make_rng
from cqakit.sampler import Dataset, GroundedQueryRecord, Provenance
from conftest import answer_set


def rank(scores: np.ndarray, target: int, filtered: frozenset[int] | set[int]) -> float:
    """Filtered rank of ``target`` with tie averaging, one target at a time.

    rank = 1 + #{unfiltered v' != target with s(v') > s(target)}
             + 0.5 * #{unfiltered v' != target with s(v') = s(target)}

    A NaN score is read as -inf: it ties with -inf and every other NaN,
    and a NaN target never ranks above a finite competitor. This is the
    oracle for the evaluator's one-sort ``_ranks`` and ``evaluation.rank``.
    """
    if not 0 <= target < scores.shape[0]:
        raise IndexError(f"target entity {target} out of range")
    scores = np.where(np.isnan(scores), -np.inf, scores)
    s_t = scores[target]
    keep = np.ones(scores.shape[0], dtype=bool)
    if filtered:
        keep[np.fromiter(filtered, dtype=np.int64)] = False
    keep[target] = False
    better = int(np.count_nonzero(scores[keep] > s_t))
    ties = int(np.count_nonzero(scores[keep] == s_t))
    return 1.0 + better + 0.5 * ties


def record(formula, query, train, valid, test):
    return GroundedQueryRecord(
        formula, query_ids(parse_grounded(query)), answer_set(train), answer_set(valid), answer_set(test)
    )


def fixture_records():
    """10 entities, 3 queries, two types; all numbers below derived by hand."""
    return [
        record("(p,(e))", "(p,(0),(e,(0)))", {0, 1}, {0, 1, 2}, {0, 1, 2, 5}),
        record("(p,(e))", "(p,(0),(e,(1)))", {9}, {9}, {0, 9}),
        record("(i,(p,(e)),(p,(e)))", "(i,(p,(0),(e,(0))),(p,(1),(e,(1))))", {0}, {0, 1}, {0, 1, 4}),
    ]


def fixture_scores():
    return np.array(
        [
            [9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            [5, 5, 5, 5, 0, 0, 0, 0, 0, 0],
        ],
        dtype=float,
    )


def test_rank_unique_top():
    scores = np.array([1.0, 5.0, 2.0])
    assert rank(scores, 1, frozenset()) == 1.0


def test_rank_tie_averaged():
    scores = np.array([5.0, 5.0, 0.0])
    assert rank(scores, 0, frozenset()) == 1.5


def test_rank_filtering_removes_competitors():
    scores = np.array([9.0, 8.0, 7.0])
    assert rank(scores, 2, frozenset()) == 3.0
    assert rank(scores, 2, frozenset({0, 1})) == 1.0


def test_rank_matches_brute_force():
    rng = make_rng(77)
    for _ in range(50):
        scores = np.round(rng.normal(size=10), 1)  # rounding provokes ties
        target = int(rng.integers(10))
        filtered = set(int(x) for x in rng.choice(10, size=2, replace=False)) - {target}
        expected = 1.0
        for v in range(10):
            if v == target or v in filtered:
                continue
            if scores[v] > scores[target]:
                expected += 1.0
            elif scores[v] == scores[target]:
                expected += 0.5
        assert rank(scores, target, filtered) == expected


@given(st.data())
def test_one_sort_ranks_match_rank_oracle(data):
    # few distinct (rounded) values, so most scores tie with others
    values = data.draw(
        st.lists(
            st.floats(-2, 2).map(lambda x: round(x, 1)) | st.sampled_from([np.inf, -np.inf, np.nan]),
            min_size=1,
            max_size=4,
        )
    )
    n = data.draw(st.integers(1, 30))
    scores = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    extremes = {int(np.nanargmax(scores)), int(np.nanargmin(scores))} if not np.isnan(scores).all() else set()
    targets = data.draw(st.sets(st.integers(0, n - 1), min_size=1)) | extremes
    base = targets | data.draw(st.sets(st.integers(0, n - 1)))
    order = sorted(targets)
    want = [rank(scores, v, base - {v}) for v in order]
    assert _ranks(scores, order, sorted(base)).tolist() == want
    assert [evaluation.rank(scores, v, base - {v}) for v in order] == want


def test_nan_scores_rank_as_minus_infinity():
    # a NaN target sits below a finite score and ties with NaN and -inf
    row = np.array([np.nan, 0.0, np.nan, -np.inf])
    assert rank(row, 0, frozenset()) == 3.0
    assert _ranks(row, [0], [0]).tolist() == [3.0]
    # in an all-NaN row every unfiltered competitor ties with the target
    row = np.full(10, np.nan)
    for rec in fixture_records():
        base = rec.train_answers
        want = 1.0 + 0.5 * (10 - len(base))
        assert [rank(row, v, base - {v}) for v in sorted(base)] == [want] * len(base)
        assert _ranks(row, base.ids, base.ids).tolist() == [want] * len(base)
    report = evaluate_scores(fixture_records(), np.full((3, 10), np.nan), modes=("entailment",))
    # q1 ranks 1 + 0.5 * 8 = 5, q2 and q3 rank 1 + 0.5 * 9 = 5.5
    assert report.value("entailment", "Hit@1") == 0.0
    assert report.value("entailment", "Hit@3") == 0.0
    assert report.value("entailment", "MRR", group="mean_over_queries") == pytest.approx((0.2 + 2 / 11 * 2) / 3)


def test_row_count_must_match_record_count():
    records, scores = fixture_records(), fixture_scores()
    with pytest.raises(ValueError):
        evaluate_scores(records, scores[:2])
    with pytest.raises(ValueError):
        evaluate_scores(records[:2], scores)
    with pytest.raises(ValueError):
        evaluate_scores(records, iter(scores[:2]))  # a short lazy row stream


def test_rank_rejects_bad_target():
    with pytest.raises(IndexError):
        rank(np.zeros(3), 5, frozenset())
    with pytest.raises(IndexError):
        evaluation.rank(np.zeros(3), 5, frozenset())


def test_fixture_entailment_values():
    report = evaluate_scores(fixture_records(), fixture_scores(), modes=("entailment",))
    # per-query: q1 -> 1.0 (both targets rank 1), q2 -> 1.0, q3 -> rank 2.5 -> 0.4
    assert report.value("entailment", "MRR") == pytest.approx(0.7)  # (1.0 + 0.4) / 2 types
    assert report.value("entailment", "Hit@1") == pytest.approx(0.5)
    assert report.value("entailment", "Hit@3") == 1.0
    assert report.value("entailment", "Hit@10") == 1.0
    assert report.value("entailment", "MRR", group="mean_over_queries") == pytest.approx(0.8)
    assert report.value("entailment", "Hit@1", group="mean_over_queries") == pytest.approx(2 / 3)
    assert report.excluded["entailment"] == 0 and report.evaluated["entailment"] == 3


def test_fixture_inference_values():
    report = evaluate_scores(fixture_records(), fixture_scores(), modes=("inference",))
    # q1: target 5 filtered by {0,1,2} -> rank 3 -> 1/3
    # q2: target 0 filtered by {9}    -> rank 9 -> 1/9
    # q3: target 4 filtered by {0,1}  -> rank 1+2+2.5 = 5.5 -> 2/11
    assert report.value("inference", "MRR") == pytest.approx((2 / 9 + 2 / 11) / 2)  # = 20/99
    assert report.value("inference", "MRR") == pytest.approx(20 / 99)
    assert report.value("inference", "Hit@1") == 0.0
    assert report.value("inference", "Hit@3") == pytest.approx(0.25)
    assert report.value("inference", "Hit@10") == 1.0
    assert report.value("inference", "MRR", group="mean_over_queries") == pytest.approx(62 / 297)


def test_fixture_validation_swap():
    report = evaluate_scores(fixture_records(), fixture_scores(), modes=("validation-swap",))
    # q1: target 2, filter {0,1} -> rank 1; q2 excluded (valid == train);
    # q3: target 1, ties with {2,3} -> rank 2 -> 0.5
    assert report.excluded["validation-swap"] == 1
    assert report.evaluated["validation-swap"] == 2
    assert report.value("validation-swap", "MRR") == pytest.approx(0.75)


def test_fixture_groupings():
    report = evaluate_scores(fixture_records(), fixture_scores(), modes=("entailment",))
    # both types have depth 1 and are in-distribution
    assert report.value("entailment", "MRR", "depth", "1") == pytest.approx(0.7)
    assert report.value("entailment", "MRR", "distribution", "in") == pytest.approx(0.7)
    assert report.value("entailment", "MRR", "type", "(p,(e))") == 1.0
    assert report.value("entailment", "MRR", "type", "(i,(p,(e)),(p,(e)))") == pytest.approx(0.4)


def test_scale_invariance():
    records, scores = fixture_records(), fixture_scores()
    r1 = evaluate_scores(records, scores)
    r2 = evaluate_scores(records, scores * 17.0)
    for a, b in zip(r1.rows, r2.rows):
        assert a == b


def test_hit_monotonicity_and_mrr_bounds():
    records, scores = fixture_records(), fixture_scores()
    report = evaluate_scores(records, scores)
    for mode in ("entailment", "inference"):
        h1 = report.value(mode, "Hit@1")
        h3 = report.value(mode, "Hit@3")
        h10 = report.value(mode, "Hit@10")
        mrr = report.value(mode, "MRR")
        assert h1 <= h3 <= h10
        assert h1 <= mrr <= 1.0


def test_filtering_never_worsens_rank():
    rng = make_rng(90)
    for _ in range(30):
        scores = rng.normal(size=12)
        target = int(rng.integers(12))
        filtered = set(int(x) for x in rng.choice(12, size=4, replace=False)) - {target}
        assert rank(scores, target, filtered) <= rank(scores, target, frozenset())


def test_perfect_oracle_scores_one():
    records = fixture_records()
    for mode, base in (("entailment", "train_answers"), ("inference", "test_answers")):
        scores = np.zeros((len(records), 10))
        for i, rec in enumerate(records):
            scores[i, sorted(getattr(rec, base))] = 1e9
        report = evaluate_scores(records, scores, modes=(mode,))
        for metric in ("MRR", "Hit@1", "Hit@10"):
            assert report.value(mode, metric) == 1.0


def test_inference_empty_difference_excluded():
    rec = record("(p,(e))", "(p,(0),(e,(0)))", {1}, {1, 2}, {1, 2})  # test == valid
    report = evaluate_scores([rec], np.zeros((1, 10)), modes=("inference",))
    assert report.excluded["inference"] == 1
    assert report.evaluated["inference"] == 0
    assert report.rows == []


def test_evaluate_with_model_perfect_memorizer():
    # a model whose e_q exactly selects the unique answer -> entailment MRR 1.0
    from cqakit.encoders import QueryModel
    from cqakit.linearize import Vocabulary

    vocab = Vocabulary(num_relations=2, num_entities=10)
    records = [
        record("(p,(e))", "(p,(0),(e,(3)))", {3}, {3}, {3}),
        record("(p,(e))", "(p,(0),(e,(7)))", {7}, {7}, {7}),
    ]
    dataset = Dataset(
        {"(p,(e))": records}, Provenance("fx", 0, "h"), num_entities=10, num_relations=2
    )

    class AnchorReadout:
        # e_q = embedding of the anchor token (position 3 of (p,(r),(e,(v))))
        arch = "LSTM"
        params: dict = {}

        def forward(self, queries, rows):
            return rows[[q[3] for q in queries]], None

    rows = np.zeros((vocab.size, 10))
    for v in range(10):
        rows[vocab.entity_token(v), v] = 1.0  # orthonormal entity embeddings
    model = QueryModel(vocab, rows, AnchorReadout())
    report = evaluate(model, dataset, mode="entailment")
    assert report.value("entailment", "MRR") == 1.0
    assert report.value("entailment", "Hit@1") == 1.0


def test_report_table_and_lines():
    report = evaluate_scores(fixture_records(), fixture_scores())
    text = report.table()
    assert "mean_over_types" in text and "MRR" in text
    lines = report.lines()
    assert all(line.startswith("{") for line in lines)
    import json

    parsed = [json.loads(line) for line in lines]
    assert any(row["group_kind"] == "depth" for row in parsed)


def test_empty_dataset_evaluates_empty():
    from cqakit.encoders import new_model
    from cqakit.linearize import Vocabulary

    model = new_model(Vocabulary(1, 5), "LSTM", d=4, seed=0)
    report = evaluate(model, Dataset(), mode="both")
    assert report.rows == []


def test_evaluate_supports_tree_architectures():
    from cqakit.encoders import new_model
    from cqakit.linearize import Vocabulary

    vocab = Vocabulary(num_relations=2, num_entities=10)
    records = {
        "(p,(e))": [record("(p,(e))", "(p,(0),(e,(1)))", {2}, {2}, {2, 3})],
        "(i,(p,(e)),(p,(e)))": [
            record("(i,(p,(e)),(p,(e)))", "(i,(p,(0),(e,(1))),(p,(1),(e,(4))))", {5}, {5, 6}, {5, 6})
        ],
    }
    dataset = Dataset(records, Provenance("t", 0, "h"), 10, 2)
    model = new_model(vocab, "TreeLSTM", d=8, seed=1)
    report = evaluate(model, dataset, mode="both")
    assert report.evaluated["entailment"] == 2
    for row in report.rows:
        assert 0.0 <= row["value"] <= 1.0


TEMPLATES = {
    "(p,(e))": "(p,({}),(e,({})))",
    "(p,(p,(e)))": "(p,({}),(p,({}),(e,({}))))",
    "(i,(p,(e)),(p,(e)))": "(i,(p,({}),(e,({}))),(p,({}),(e,({}))))",
    "(i,(p,(e)),(n,(p,(e))))": "(i,(p,({}),(e,({}))),(n,(p,({}),(e,({})))))",
}


def random_dataset(counts: dict[str, int], num_entities: int, num_relations: int, seed: int) -> Dataset:
    """Random groundings of the template types with nested random answer sets."""
    rng = make_rng(seed)
    records = {}
    for formula, count in counts.items():
        template = TEMPLATES[formula]
        group = []
        for _ in range(count):
            ids = []
            for part in template.split("{}")[:-1]:
                ids.append(int(rng.integers(num_relations if part.endswith("(p,(") else num_entities)))
            train = set(rng.choice(num_entities, size=rng.integers(0, 4), replace=False).tolist())
            valid = train | set(rng.choice(num_entities, size=rng.integers(0, 3), replace=False).tolist())
            test = valid | set(rng.choice(num_entities, size=rng.integers(0, 3), replace=False).tolist())
            group.append(record(formula, template.format(*ids), train, valid, test))
        records[formula] = group
    return Dataset(records, Provenance("random", seed, "h"), num_entities, num_relations)


@pytest.mark.parametrize("arch", ("LSTM", "TreeLSTM", "Transformer-RPE"))
def test_chunked_evaluate_matches_materialised_scores(arch):
    # 600 records in type groups that do not line up with the 256-record chunks
    counts = dict(zip(TEMPLATES, (150, 200, 130, 120)))
    dataset = random_dataset(counts, num_entities=30, num_relations=4, seed=8)
    records = list(dataset.iter_records())
    model = new_model(Vocabulary(4, 30), arch, d=8, seed=3, layers=1, heads=2)
    scores = model.entity_scores(model.encode_graphs([r.query for r in records]))
    for mode in ("both",) + MODES:
        modes = ("entailment", "inference") if mode == "both" else (mode,)
        chunked = evaluate(model, dataset, mode)
        whole = evaluate_scores(records, scores, modes)
        assert chunked.evaluated == whole.evaluated and chunked.excluded == whole.excluded
        assert chunked.evaluated[modes[0]] > 0
        assert len(chunked.rows) == len(whole.rows)
        for a, b in zip(chunked.rows, whole.rows):
            assert {**a, "value": None} == {**b, "value": None}
            assert a["value"] == pytest.approx(b["value"], rel=1e-12, abs=1e-15)


def test_evaluate_memory_stays_flat():
    # an (N, V) score matrix alone would be 2048 * V * 8 bytes, well above the
    # bound; so would two (256, V) chunks alive at once
    V = 4000
    dataset = random_dataset({"(p,(e))": 2048}, num_entities=V, num_relations=3, seed=9)
    model = new_model(Vocabulary(3, V), "LSTM", d=4, seed=1, layers=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = evaluate(model, dataset, "both")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.evaluated["entailment"] + report.excluded["entailment"] == 2048
    assert peak < 1.5 * 256 * V * 8
