"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from cqakit.cli import main as cli_main
from cqakit.encoders import grad_check, new_model
from cqakit.evaluation import evaluate, evaluate_scores
from cqakit.graph import synthetic_graph
from cqakit.linearize import Vocabulary, build_vocabulary, delinearize, linearize, render_tokens
from cqakit.queries import builtin_query_types, fill_pattern, parse_grounded, query_ids, serialize_grounded
from cqakit.rng import make_rng
from cqakit.sampler import GroundedQueryRecord, ground_type
from cqakit.symbolic import answer, answer_dnf, to_dnf
from cqakit.training import Pair, TrainConfig, loss_and_grads, train
from conftest import answer_set


def report(num: int, name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


FIGURE_QUERY = "(p,(7),(u,(p,(3),(e,(12))),(p,(3),(e,(45)))))"
FIGURE_GOLDEN = (
    "[(][P][Interact][(][U][(][P][Assoc][MadCow][)][(][P][Assoc][Alzheimer][)][)][)]"
)


def test_01_figure_golden_sequence():
    vocab = Vocabulary(num_relations=8, num_entities=50)
    graph = parse_grounded(FIGURE_QUERY)
    start = time.perf_counter()
    reps = 100
    for _ in range(reps):
        tokens = linearize(graph, vocab)
    per_call = (time.perf_counter() - start) / reps
    rendered = render_tokens(
        tokens,
        vocab,
        entity_labels={12: "MadCow", 45: "Alzheimer"},
        relation_labels={7: "Interact", 3: "Assoc"},
    )
    ok = rendered == FIGURE_GOLDEN and per_call < 1e-3
    report(1, "figure golden sequence", ok,
           f"exact match={rendered == FIGURE_GOLDEN}, {per_call * 1e6:.1f} us/call")


def test_02_round_trip_all_types():
    kg = synthetic_graph(100, 8, 1000, seed=23)
    vocab = build_vocabulary(kg)
    types = builtin_query_types().all_fol
    rng = make_rng(29)
    start = time.perf_counter()
    total = failures = 0
    for qtype in types:
        for _ in range(100):
            ids, _v = ground_type(kg, qtype, rng)
            g = fill_pattern(qtype.pattern, ids)
            total += 1
            if parse_grounded(serialize_grounded(g)) != g:
                failures += 1
                continue
            if delinearize(linearize(g, vocab), vocab) != g:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and total == 5800 and elapsed < 10.0
    report(2, "round-trip 58 types x 100", ok,
           f"{total - failures}/{total} round-trips, {elapsed:.1f}s (< 10s)")


def test_03_sampler_soundness():
    kg = synthetic_graph(100, 8, 1000, seed=31)
    rng = make_rng(37)
    start = time.perf_counter()
    checked = sound = 0
    for qtype in builtin_query_types().in_distribution:
        for _ in range(50):
            ids, v = ground_type(kg, qtype, rng)
            checked += 1
            if v in answer(kg, qtype.pattern, ids):
                sound += 1
    elapsed = time.perf_counter() - start
    ok = checked == 29 * 50 and sound == checked and elapsed < 30.0
    report(3, "sampler soundness 29x50", ok,
           f"{sound}/{checked} containment checks passed, {elapsed:.1f}s (< 30s)")


def test_04_oracle_equivalence_1000():
    kg = synthetic_graph(60, 5, 500, seed=41)
    types = builtin_query_types().all_fol
    rng = make_rng(43)
    start = time.perf_counter()
    total = agree = 0
    while total < 1000:
        qtype = types[total % len(types)]
        ids, _v = ground_type(kg, qtype, rng)
        total += 1
        if answer(kg, qtype.pattern, ids) == answer_dnf(kg, to_dnf(fill_pattern(qtype.pattern, ids))):
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == total == 1000 and elapsed < 60.0
    report(4, "oracle equivalence 1000 queries", ok,
           f"{agree}/{total} exact set matches, {elapsed:.1f}s (< 60s)")


def test_05_gradient_verification():
    vocab = Vocabulary(num_relations=4, num_entities=15)
    graphs = [
        parse_grounded("(p,(1),(u,(p,(2),(e,(3))),(p,(0),(e,(5)))))"),
        parse_grounded("(i,(p,(0),(e,(2))),(n,(p,(3),(e,(7)))))"),
    ]
    targets = [4, 9]
    start = time.perf_counter()
    errors = {}
    for arch in ("LSTM", "TreeLSTM", "TreeLSTM-NoMemoryCell", "Transformer-APE", "Transformer-RPE"):
        model = new_model(vocab, arch, d=8, seed=47, layers=2, heads=2)
        prepared = model.prepare(graphs)
        pairs = [Pair(q, t, "x") for q, t in zip(prepared, targets)]

        def fn():
            loss, grads, _ = loss_and_grads(model, pairs)
            return loss, grads

        errors[arch] = grad_check(fn, model.parameters(), eps=1e-5, subsample_threshold=120)
    elapsed = time.perf_counter() - start
    ok = all(e < 1e-4 for e in errors.values()) and elapsed < 120.0
    detail = ", ".join(f"{a}={e:.2e}" for a, e in errors.items())
    report(5, "gradient verification", ok, f"{detail}; {elapsed:.1f}s (< 2min)")


def test_06_loss_sanity():
    vocab = Vocabulary(num_relations=5, num_entities=100)
    graphs = [parse_grounded("(p,(0),(e,(1)))"), parse_grounded("(p,(1),(p,(2),(e,(3))))")]
    zero_model = new_model(vocab, "LSTM", d=16, seed=53)
    for arr in zero_model.parameters().values():
        arr[:] = 0.0
    pairs = [Pair(q, t, "x") for q, t in zip(zero_model.prepare(graphs), (7, 42))]
    loss, _, diag = loss_and_grads(zero_model, pairs)
    ln100_ok = abs(loss - math.log(100)) < 1e-6

    prob_ok = True
    for seed in (1, 2, 3):
        model = new_model(vocab, "LSTM", d=16, seed=seed)
        _, _, d = loss_and_grads(model, [Pair(q, t, "x") for q, t in zip(model.prepare(graphs), (7, 42))])
        prob_ok &= bool(np.all(np.abs(d["prob_sums"] - 1.0) < 1e-6))
    ok = ln100_ok and prob_ok
    report(6, "loss sanity", ok,
           f"zero-model loss={loss:.8f} vs ln(100)={math.log(100):.8f}; softmax rows sum to 1: {prob_ok}")


def test_07_desk_scale_overfit(desk_layers, desk_dataset, desk_vocab):
    cfg = TrainConfig(
        arch="LSTM", d=64, layers=2, batch_size=16, learning_rate=5e-3, epochs=200, seed=1
    )
    start = time.perf_counter()
    ckpt = train(cfg, desk_dataset, desk_vocab)
    mrr = evaluate(ckpt.model, desk_dataset, mode="entailment").value("entailment", "MRR")
    elapsed = time.perf_counter() - start
    ok = mrr >= 0.90 and elapsed < 600.0
    report(7, "desk-scale overfit", ok,
           f"LSTM d=64 entailment MRR={mrr:.4f} (>= 0.90) after {cfg.epochs} epochs, "
           f"{elapsed:.0f}s (< 10min)")


def test_08_ablation_trend(desk_dataset, desk_vocab):
    seeds = (0, 1, 2)
    wins = 0
    results = []
    for seed in seeds:
        final = {}
        for arch in ("TreeLSTM", "TreeLSTM-NoMemoryCell"):
            cfg = TrainConfig(
                arch=arch, d=64, batch_size=16, learning_rate=2e-2, epochs=60, seed=seed
            )
            ckpt = train(cfg, desk_dataset, desk_vocab)
            final[arch] = evaluate(ckpt.model, desk_dataset, mode="entailment").value(
                "entailment", "MRR"
            )
        wins += final["TreeLSTM"] > final["TreeLSTM-NoMemoryCell"]
        results.append(f"seed{seed}: full={final['TreeLSTM']:.3f} ablated={final['TreeLSTM-NoMemoryCell']:.3f}")
    ok = wins > len(seeds) / 2
    report(8, "memory-cell ablation trend", ok,
           f"full TreeLSTM beats ablation on {wins}/{len(seeds)} seeds; " + "; ".join(results))


def test_09_metrics_oracle():
    def record(formula, query, train, valid, test):
        return GroundedQueryRecord(
            formula, query_ids(parse_grounded(query)), answer_set(train), answer_set(valid), answer_set(test)
        )

    records = [
        record("(p,(e))", "(p,(0),(e,(0)))", {0, 1}, {0, 1, 2}, {0, 1, 2, 5}),
        record("(p,(e))", "(p,(0),(e,(1)))", {9}, {9}, {0, 9}),
        record("(i,(p,(e)),(p,(e)))", "(i,(p,(0),(e,(0))),(p,(1),(e,(1))))", {0}, {0, 1}, {0, 1, 4}),
    ]
    scores = np.array(
        [
            [9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            [5, 5, 5, 5, 0, 0, 0, 0, 0, 0],
        ],
        dtype=float,
    )
    r = evaluate_scores(records, scores)
    # manual: entailment per query 1.0, 1.0, 1/2.5; inference 1/3, 1/9, 1/5.5
    expected = {
        ("entailment", "MRR"): 0.7,
        ("entailment", "Hit@1"): 0.5,
        ("entailment", "Hit@3"): 1.0,
        ("entailment", "Hit@10"): 1.0,
        ("inference", "MRR"): 20 / 99,
        ("inference", "Hit@1"): 0.0,
        ("inference", "Hit@3"): 0.25,
        ("inference", "Hit@10"): 1.0,
    }
    mismatches = [
        f"{mode}/{metric}: got {r.value(mode, metric):.6f} want {want:.6f}"
        for (mode, metric), want in expected.items()
        if abs(r.value(mode, metric) - want) > 1e-12
    ]
    qmeans = {
        ("entailment", "MRR"): 0.8,
        ("inference", "MRR"): 62 / 297,
    }
    mismatches += [
        f"{mode}/{metric} (per-query): got {r.value(mode, metric, group='mean_over_queries'):.6f}"
        for (mode, metric), want in qmeans.items()
        if abs(r.value(mode, metric, group="mean_over_queries") - want) > 1e-12
    ]
    ok = not mismatches
    report(9, "metrics oracle fixture", ok,
           "all 10 values match the manual computation" if ok else "; ".join(mismatches))


def test_10_cli_determinism(tmp_path):
    kg_root = tmp_path / "kg"
    kg_root.mkdir()
    kg = synthetic_graph(60, 5, 400, seed=59)
    from cqakit.graph import split_edges

    layers = split_edges(kg, (8, 1, 1), seed=59)
    prev = set()
    for name, layer in (("train", layers.train), ("valid", layers.valid), ("test", layers.test)):
        new = sorted(layer.edges - prev)
        (kg_root / f"{name}.txt").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in new))
        prev = set(layer.edges)

    outputs = {}
    for tag in ("a", "b"):
        data = tmp_path / f"data_{tag}.jsonl"
        ckpt = tmp_path / f"model_{tag}.ckpt"
        rep = tmp_path / f"report_{tag}.jsonl"
        assert cli_main(["generate", "--kg", str(kg_root), "--types", "fol", "--count", "2",
                         "--seed", "7", "--out", str(data)]) == 0
        assert cli_main(["train", "--data", str(data), "--out", str(ckpt),
                         "--set", "epochs=2", "--set", "d=16", "--set", "batch_size=64"]) == 0
        assert cli_main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--mode", "both",
                         "--out", str(rep)]) == 0
        outputs[tag] = (data.read_bytes(), ckpt.read_bytes(), rep.read_bytes())
    same = [outputs["a"][i] == outputs["b"][i] for i in range(3)]
    ok = all(same)
    report(10, "CLI determinism", ok,
           f"byte-identical reruns: generate={same[0]}, train={same[1]}, eval={same[2]}")
