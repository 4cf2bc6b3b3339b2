"""One workload's generate → train → eval loop, timed by stage.

Imported only after the BLAS pool size is pinned. The same span recorder
times the loop's own stages in every run; a traced run also wraps the
public functions of each cqakit module (see :func:`instrument`), and the
per-layer metrics are read from those spans. The reference task of
``speed.py`` runs between stages, and the end-to-end times are scaled by it.
"""

from __future__ import annotations

import bisect
import ctypes
import os
import statistics
import time

import numpy as np

import checks
import inputs
from spans import Recorder
from speed import REFERENCE_S, Reference

from cqakit import encoders, evaluation, graph, linearize, sampler, training
from cqakit.queries import builtin_query_types, parse_formula

ARCHS = encoders.ARCHITECTURES
MODES = ("entailment", "inference")
BATCH_SIZE = 128


def types_of(spec):
    if spec == "fol":
        return list(builtin_query_types().all_fol)
    return [parse_formula(f) for f in spec]


def make_graph_files(wl, seed: int, directory) -> None:
    edges = sum(wl["split"])
    if wl["graph"] == "uniform":
        rows = inputs.uniform_edges(seed, wl["entities"], wl["relations"], edges)
    else:
        rows = inputs.zipf_edges(seed, wl["entities"], wl["relations"], edges)
    inputs.write_split(rows, wl["split"], directory)


def subset(dataset, records):
    out = sampler.Dataset(
        provenance=dataset.provenance,
        num_entities=dataset.num_entities,
        num_relations=dataset.num_relations,
    )
    for record in records:
        out.records.setdefault(record.type_formula, []).append(record)
    return out


def select(wl, train_pool, eval_pool):
    """The training set (exact pair count per type) and the evaluation set."""
    train_records = []
    for group in train_pool.records.values():
        train_records += inputs.exact_pairs(group, wl["train_pairs"])
    if wl["eval_per_type"]:
        groups = list(eval_pool.records.values())
    else:
        groups = [list(eval_pool.iter_records())]
    eval_records = []
    for group in groups:
        eval_records += inputs.closest_size(group, wl["eval_count"], wl["eval_size"])
    return subset(train_pool, train_records), subset(eval_pool, eval_records)


class Loop:
    """State of one run: the recorder, operation counts and check results."""

    def __init__(self, wl, seed: int, work: str, rec: Recorder):
        self.wl, self.seed, self.work, self.rec = wl, seed, work, rec
        self.kg_dir = os.path.join(work, "kg")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0
        self.reference = Reference()

    def probe(self) -> None:
        """Time the reference task (see ``speed.py``); left out of every timing."""
        with self.rec.span("speed"):
            self.reference.measure()

    def setup(self, evaluator):
        """Set the graph up (timed), then check the layers against the files."""
        with self.rec.span("setup"):
            self.probe()
            layers = graph.layer_graphs(*(os.path.join(self.kg_dir, f"{n}.txt") for n in ("train", "valid", "test")))
            self.probe()
        with self.rec.span("checks"):
            self.outcome(checks.check_layers(evaluator, layers))
        return layers

    def outcome(self, problems: list[str], made: int = 1) -> None:
        self.attempted += made
        self.failed += min(len(problems), made)
        self.problems += problems

    def round(self, layers, evaluator) -> None:
        """Everything after set-up; checks run in ``checks`` spans, outside the timing.

        Each round samples fresh queries: the sampler seed comes from the
        workload seed and the round number. The cost of a query is
        heavy-tailed, so a run then times several draws, not one draw again.
        """
        wl, rec = self.wl, self.rec
        sampler_seed = (self.seed * 1000 + self.rounds) * 2
        self.rounds += 1
        vocab = linearize.build_vocabulary(layers.test)
        with rec.span("round"):
            self.probe()
            pools = [(tag, types_of(wl[f"{tag}_types"])) for tag in ("train", "eval")]
            with rec.span("generate"):
                for i, (tag, types) in enumerate(pools):
                    cfg = sampler.SamplerConfig(per_type_count=wl[f"{tag}_pool"], seed=sampler_seed + i)
                    pools[i] = (tag, types, sampler.sample_dataset(layers, types, cfg, kg_name=tag))
            self.probe()
            rec.count("records", sum(len(p) for _, _, p in pools))

            read_back = []
            for tag, types, pool in pools:
                path = os.path.join(self.work, f"{tag}.jsonl")
                with rec.span("dataset.write"):
                    sampler.write_dataset(pool, path)
                with rec.span("dataset.read"):
                    read_back.append(sampler.read_dataset(path))
                with rec.span("checks"):
                    requested = len(types) * wl[f"{tag}_pool"]
                    self.attempted += requested
                    self.failed += requested - len(pool)  # grounding shortfall
                    self.outcome([] if read_back[-1] == pool else [f"{tag} dataset round trip differs"])
                    made, problems = checks.check_records(
                        evaluator, pool, vocab, linearize.linearize, linearize.delinearize
                    )
                    self.outcome(problems, made)
            train_set, eval_set = select(wl, *read_back)
            pairs = sum(len(r.train_answers) for r in train_set.iter_records())
            rec.count("pairs", pairs * wl["epochs"])
            rec.count("evaluations", len(eval_set) * len(ARCHS))
            del pools, read_back

            for arch in ARCHS:
                self.probe()
                self.arch_round(arch, vocab, train_set, eval_set)
            self.probe()

    def arch_round(self, arch, vocab, train_set, eval_set) -> None:
        wl, rec = self.wl, self.rec
        cfg = training.TrainConfig(
            arch=arch, d=64, layers=2, heads=4, batch_size=BATCH_SIZE, epochs=wl["epochs"], seed=self.seed
        )
        self.attempted += 1
        try:
            with rec.span(f"train.{arch}"):
                trained = training.train(cfg, train_set, vocab)
        except training.TrainingDivergedError as exc:
            self.failed += 1
            self.problems.append(f"{arch}: {exc}")
            return
        finally:
            self.probe()
        path = os.path.join(self.work, f"{arch}.ckpt")
        with rec.span(f"save.{arch}"):
            trained.save(path)
        with rec.span(f"load.{arch}"):
            loaded = training.Checkpoint.load(path)
        self.probe()
        with rec.span(f"evaluate.{arch}"):
            report = evaluation.evaluate(loaded.model, eval_set, mode="both")

        with rec.span("checks"):
            self.outcome(checks.check_checkpoint(trained, loaded))
            want = checks.expected_steps(train_set, BATCH_SIZE, wl["epochs"], loaded.model.is_tree)
            steps_ok = trained.step == loaded.step == want
            self.outcome([] if steps_ok else [f"{arch}: {trained.step} steps, expected {want}"])
            pairs, _ = training.make_pairs(train_set, trained.model)
            loss, _, diag = training.loss_and_grads(trained.model, pairs[:8])
            self.outcome(checks.check_numerics(trained.history, loss, diag["prob_sums"]))
            records = list(eval_set.iter_records())
            rows = score_rows(loaded.model, records)
            problems = checks.check_report(report, records, rows, MODES)
            self.outcome(problems, len(MODES))
        os.remove(path)


def score_rows(model, records) -> np.ndarray:
    """The model's score row for every record, encoded per type in record order."""
    rows = np.zeros((len(records), model.vocab.num_entities))
    by_type: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        by_type.setdefault(record.type_formula, []).append(i)
    for indices in by_type.values():
        for start in range(0, len(indices), 256):
            chunk = indices[start : start + 256]
            rows[chunk] = model.entity_scores(model.encode_graphs([records[i].query for i in chunk]))
    return rows


def run(wl, seed: int, seconds: float, traced: bool, work: str) -> dict:
    rec = Recorder()
    state = Loop(wl, seed, work, rec)
    make_graph_files(wl, seed, state.kg_dir)
    evaluator = checks.SetEvaluator(state.kg_dir, wl["entities"], wl["relations"])
    if traced:
        instrument(rec)
    for _ in range(wl["setups"]):
        layers = None  # release the previous graph before building the next
        layers = state.setup(evaluator)
    start = time.perf_counter()
    while state.rounds == 0 or time.perf_counter() - start < seconds:
        if state.rounds and wl["setup_every_round"]:
            layers = None
            layers = state.setup(evaluator)
        state.round(layers, evaluator)
    out = {"attempted": state.attempted, "failed": state.failed, "problems": state.problems}
    if traced:
        out["trace"] = per_layer(rec)
    else:
        out["metrics"] = end_to_end(rec)
    return out


# -- reading the spans --------------------------------------------------------


def subtree(rec: Recorder, root: int, selfs: list[float], kids: list[list[int]], scale) -> dict:
    """Duration, self time, call count and counters per span name under ``root``.

    Durations and self times are scaled: multiplied by ``scale(span)``, the
    speed factor around the span. Spans under a ``checks`` or ``speed`` span
    are left out; ``wall`` is the root's duration minus the time those took,
    unscaled, and ``speed`` lists the reference-task times measured inside
    the root. ``work`` holds the root's own counters.
    """
    t = {"dur": {}, "self": {}, "n": {}, "counts": {}, "speed": []}
    t["wall"], t["work"] = rec.spans[root].duration, rec.spans[root].counts
    todo = list(kids[root])
    while todo:
        j = todo.pop()
        span = rec.spans[j]
        if span.name in ("checks", "speed"):
            t["wall"] -= span.duration
            if span.name == "speed":
                t["speed"].append(span.duration)
            continue
        factor = scale(span)
        t["dur"][span.name] = t["dur"].get(span.name, 0.0) + span.duration * factor
        t["self"][span.name] = t["self"].get(span.name, 0.0) + selfs[j] * factor
        t["n"][span.name] = t["n"].get(span.name, 0) + 1
        for key, amount in span.counts.items():
            t["counts"][key] = t["counts"].get(key, 0) + amount
        todo.extend(kids[j])
    return t


def subtrees(rec: Recorder, name: str) -> list[dict]:
    """:func:`subtree` of every span called ``name``, in order."""
    selfs, kids, scale = rec.self_times(), rec.children(), speed_factors(rec)
    return [subtree(rec, i, selfs, kids, scale) for i, s in enumerate(rec.spans) if s.name == name]


def speed_factors(rec: Recorder):
    """``REFERENCE_S`` over the mean reference time on either side of a span.

    A stage is scaled by the reference task measured just before and just
    after it, so a stage that ran while the machine was slow is scaled down
    by as much as the reference task was slowed around it (see ``speed.py``).
    """
    probes = [s for s in rec.spans if s.name == "speed"]
    ends = [p.end for p in probes]
    starts = [p.start for p in probes]

    def factor(span) -> float:
        before = bisect.bisect_right(ends, span.start)
        after = bisect.bisect_left(starts, span.end)
        near = probes[max(before - 1, 0) : before] + probes[after : after + 1]
        return REFERENCE_S / statistics.mean(p.duration for p in near)

    return factor


def held(t: dict) -> float:
    """Speed factor of a set-up or a round: from the reference times inside it."""
    return REFERENCE_S / statistics.median(t["speed"])


def end_to_end(rec: Recorder) -> dict:
    """Medians over the run's set-ups and rounds, of times scaled to the reference speed."""
    rounds = subtrees(rec, "round")

    def rate(work, stages):
        return statistics.median(r["work"][work] / sum(r["dur"][s] for s in stages) for r in rounds)

    m = {
        "setup_s": (setup_time(rec), "s"),
        "generate_qps": (rate("records", ["generate"]), "queries/s"),
    }
    for arch in ARCHS:
        m[f"train_pairs_per_s.{arch}"] = (rate("pairs", [f"train.{arch}"]), "pairs/s")
    m["eval_qps"] = (rate("evaluations", [f"evaluate.{a}" for a in ARCHS]), "queries/s")
    m["loop_s"] = (loop_time(rec), "s")
    return m


def setup_time(rec: Recorder) -> float:
    """The median set-up, scaled."""
    return statistics.median(t["wall"] * held(t) for t in subtrees(rec, "setup"))


def loop_time(rec: Recorder) -> float:
    """One whole loop: the median set-up plus the median round, scaled, checks left out."""
    return setup_time(rec) + statistics.median(r["wall"] * held(r) for r in subtrees(rec, "round"))


def per_layer(rec: Recorder) -> dict:
    """Per-layer figures: medians over set-ups, rounds or training calls, times scaled."""

    def med(rows, fn):
        return statistics.median(fn(r) for r in rows)

    def dur(key):
        return lambda r: r["dur"].get(key, 0.0)

    def selft(key):
        return lambda r: r["self"].get(key, 0.0)

    def calls(key):
        return lambda r: r["n"].get(key, 0)

    def count(key):
        return lambda r: r["counts"].get(key, 0)

    setups, rounds = subtrees(rec, "setup"), subtrees(rec, "round")
    m = {
        "graph.read_s": (med(setups, dur("graph.read")), "s"),
        "graph.build_s": (med(setups, lambda r: dur("graph.layer_graphs")(r) - dur("graph.read")(r)), "s"),
        "graph.edges": (med(setups, count("graph.edges")), "count"),
        "sampler.ground_s": (med(rounds, selft("sampler.ground")), "s"),
        "sampler.ground_calls": (med(rounds, calls("sampler.ground")), "count"),
        "sampler.yield": (
            med(rounds, lambda r: count("sampler.records")(r) / max(calls("sampler.ground")(r), 1)),
            "ratio",
        ),
        "symbolic.answer_s": (med(rounds, dur("symbolic.answer")), "s"),
        "symbolic.answer_calls": (med(rounds, calls("symbolic.answer")), "count"),
        "symbolic.answer_entities": (med(rounds, count("symbolic.answer_entities")), "count"),
        "sampler.write_s": (med(rounds, dur("sampler.write")), "s"),
        "sampler.read_s": (med(rounds, dur("sampler.read")), "s"),
        "sampler.dataset_mb": (med(rounds, count("sampler.dataset_mb")), "MB"),
        "linearize.s": (med(rounds, dur("linearize")), "s"),
        "linearize.tokens": (med(rounds, count("linearize.tokens")), "count"),
    }
    for arch in ARCHS:
        runs = subtrees(rec, f"train.{arch}")
        m[f"encoders.{arch}.forward_s"] = (med(runs, dur(f"encoders.{arch}.forward")), "s")
        m[f"encoders.{arch}.backward_s"] = (med(runs, dur(f"encoders.{arch}.backward")), "s")
        m[f"training.{arch}.softmax_s"] = (med(runs, selft(f"training.{arch}.loss")), "s")
        m[f"training.{arch}.adam_s"] = (med(runs, dur("training.adam")), "s")
        m[f"training.{arch}.steps"] = (med(runs, calls("training.adam")), "count")
        m[f"training.{arch}.pairs"] = (med(runs, count("training.pairs")), "count")
    m["checkpoint.save_s"] = (med(rounds, dur("checkpoint.save")), "s")
    m["checkpoint.load_s"] = (med(rounds, dur("checkpoint.load")), "s")
    m["checkpoint.mb"] = (med(rounds, count("checkpoint.mb")), "MB")
    for arch in ARCHS:
        m[f"evaluation.encode_s.{arch}"] = (med(rounds, dur(f"evaluation.encode.{arch}")), "s")
    m["evaluation.rank_s"] = (med(rounds, dur("evaluation.rank")), "s")
    m["evaluation.targets"] = (med(rounds, count("evaluation.targets")), "count")
    m["trace.loop_s"] = (loop_time(rec), "s")
    m["speed.reference_ms"] = (statistics.median(s.duration for s in rec.spans if s.name == "speed") * 1e3, "ms")
    return m


# -- tracing ------------------------------------------------------------------


def instrument(rec: Recorder) -> None:
    """Wrap the public functions of each layer, from outside the package.

    Module attributes are replaced where the caller looks them up: the
    sampler's own ``answer`` binding (top-level calls only, not the
    recursion) and the encoders' ``linearize`` binding.
    """
    w = rec.wrap
    w(graph, "layer_graphs", "graph.layer_graphs")
    w(graph, "read_triples", "graph.read")
    w(graph.KnowledgeGraph, "from_edges", "graph.build",
      counts=lambda args, kg: {"graph.edges": len(kg.edges)})
    w(sampler, "sample_dataset", "sampler.sample_dataset",
      counts=lambda args, ds: {"sampler.records": len(ds)})
    w(sampler, "ground_type", "sampler.ground")
    w(sampler, "answer", "symbolic.answer",
      counts=lambda args, result: {"symbolic.answer_entities": len(result)})
    w(sampler, "write_dataset", "sampler.write",
      counts=lambda args, _: {"sampler.dataset_mb": os.path.getsize(args[1]) / 1e6})
    w(sampler, "read_dataset", "sampler.read")
    w(encoders, "linearize", "linearize",
      counts=lambda args, tokens: {"linearize.tokens": len(tokens)})
    w(encoders.QueryModel, "encode", lambda model, *a, **k: f"encoders.{model.arch}.forward")
    w(encoders.QueryModel, "backward", lambda model, *a, **k: f"encoders.{model.arch}.backward")
    w(training, "loss_and_grads", lambda model, *a, **k: f"training.{model.arch}.loss",
      counts=lambda args, _: {"training.pairs": len(args[1])})
    w(training.Adam, "step", "training.adam")
    w(training.Checkpoint, "save", "checkpoint.save",
      counts=lambda args, _: {"checkpoint.mb": os.path.getsize(args[1]) / 1e6})
    w(training.Checkpoint, "load", "checkpoint.load")
    w(encoders.QueryModel, "encode_graphs", lambda model, *a, **k: f"evaluation.encode.{model.arch}")
    w(encoders.QueryModel, "entity_scores", lambda model, *a, **k: f"evaluation.encode.{model.arch}")
    w(evaluation, "evaluate_scores", "evaluation.rank")
    w(evaluation, "rank", None, counts=lambda args, _: {"evaluation.targets": 1})


def blas_runtime_threads():
    """The pool size the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None
