"""Correctness checks computed apart from the program.

Nothing here uses ``cqakit.graph``, ``cqakit.symbolic`` or the ranking code
of ``cqakit.evaluation``: answer sets come from an adjacency built from the
triple files by this module, and ranks from a sort-based filtered,
tie-averaged ranker written here. Each check returns a list of problems;
an empty list means it passed.
"""

from __future__ import annotations

import math
import os

import numpy as np

HIT_KS = (1, 3, 10)


def read_edge_files(kg_dir) -> list[np.ndarray]:
    """The ``(head, relation, tail)`` rows of train, valid and test files."""
    out = []
    for name in ("train", "valid", "test"):
        with open(os.path.join(kg_dir, f"{name}.txt"), encoding="utf-8") as fh:
            out.append(np.array(fh.read().split(), dtype=np.int64).reshape(-1, 3))
    return out


class SetEvaluator:
    """Set-semantics answers over cumulative layers, as boolean entity masks."""

    def __init__(self, kg_dir, num_entities: int, num_relations: int):
        self.V = num_entities
        self.R = num_relations
        files = read_edge_files(kg_dir)
        self.layer_keys = []  # sorted distinct (h, r, t) keys per cumulative layer
        self.index = []  # per layer: (sorted relation*V + head keys, tails in that order)
        rows = np.empty((0, 3), dtype=np.int64)
        for part in files:
            rows = np.concatenate([rows, part])
            keys = np.unique((rows[:, 0] * self.R + rows[:, 1]) * self.V + rows[:, 2])
            self.layer_keys.append(keys)
            heads, rest = np.divmod(keys, self.R * self.V)
            rels, tails = np.divmod(rest, self.V)
            by = rels * self.V + heads
            order = np.argsort(by, kind="stable")
            self.index.append((by[order], tails[order]))

    def answer(self, layer: int, node) -> np.ndarray:
        kind = node.kind.value
        if kind == "e":
            mask = np.zeros(self.V, dtype=bool)
            mask[node.entity] = True
            return mask
        if kind == "p":
            heads = np.flatnonzero(self.answer(layer, node.children[0]))
            by, tails = self.index[layer]
            keys = node.relation * self.V + heads
            lo = np.searchsorted(by, keys, "left")
            hi = np.searchsorted(by, keys, "right")
            lengths = hi - lo
            starts = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
            mask = np.zeros(self.V, dtype=bool)
            mask[tails[starts + np.arange(lengths.sum())]] = True
            return mask
        masks = [self.answer(layer, c) for c in node.children]
        if kind == "i":
            return np.logical_and.reduce(masks)
        if kind == "u":
            return np.logical_or.reduce(masks)
        if kind == "n":
            return ~masks[0]
        raise ValueError(f"unknown operator {kind!r}")


def check_layers(evaluator: SetEvaluator, layers) -> list[str]:
    """Edge counts per layer, train ⊆ valid ⊆ test, and equal edge sets."""
    problems = []
    keys = evaluator.layer_keys
    for k in (0, 1):
        if not np.isin(keys[k], keys[k + 1]).all():
            problems.append(f"layer {k} of the files is not contained in layer {k + 1}")
    V, R = evaluator.V, evaluator.R
    for k, (name, graph) in enumerate(zip(("train", "valid", "test"), (layers.train, layers.valid, layers.test))):
        if len(graph.edges) != len(keys[k]):
            problems.append(f"{name}: program has {len(graph.edges)} edges, files give {len(keys[k])}")
            continue
        rows = np.array(list(graph.edges), dtype=np.int64)
        got = np.sort((rows[:, 0] * R + rows[:, 1]) * V + rows[:, 2])
        if not np.array_equal(got, keys[k]):
            problems.append(f"{name}: edge set differs from the files")
    return problems


def check_records(evaluator: SetEvaluator, dataset, vocab, linearize, delinearize) -> tuple[int, list[str]]:
    """Recomputed answers on all three layers and the linearization round trip.

    Returns the number of checks made (two per record) and the problems.
    """
    problems, made = [], 0
    for record in dataset.iter_records():
        made += 2
        for layer, (name, got) in enumerate(
            (("train", record.train_answers), ("valid", record.valid_answers), ("test", record.test_answers))
        ):
            want = np.flatnonzero(evaluator.answer(layer, record.query)).tolist()
            if sorted(got) != want:
                problems.append(f"{record.type_formula}: {name} answers differ ({len(got)} vs {len(want)})")
                break
        if delinearize(linearize(record.query, vocab), vocab) != record.query:
            problems.append(f"{record.type_formula}: linearization round trip changed the query")
    return made, problems


# -- metrics ------------------------------------------------------------------


def mode_sets(record, mode: str):
    """(targets, filter base) as the evaluation modes define them."""
    if mode == "entailment":
        return record.train_answers, record.train_answers
    return record.test_answers - record.valid_answers, record.test_answers


def filtered_ranks(row: np.ndarray, targets, base) -> np.ndarray:
    """Ranks of all targets at once against the entities outside ``base``.

    Every target lies in its base, so all targets share the same
    competitors: one sort, then two binary searches per target.
    """
    keep = np.ones(row.shape[0], dtype=bool)
    keep[np.fromiter(base, dtype=np.int64)] = False
    rivals = np.sort(row[keep])
    s = row[np.fromiter(sorted(targets), dtype=np.int64)]
    above = rivals.size - np.searchsorted(rivals, s, "right")
    ties = np.searchsorted(rivals, s, "right") - np.searchsorted(rivals, s, "left")
    return 1.0 + above + 0.5 * ties


def metrics(records, rows: np.ndarray, mode: str) -> tuple[dict, int]:
    """Per-type-averaged and per-query-averaged MRR/Hit@K, and the query count."""
    per_type: dict[str, list[dict]] = {}
    for record, row in zip(records, rows):
        targets, base = mode_sets(record, mode)
        if not targets:
            continue
        r = filtered_ranks(row, targets, base)
        values = {"MRR": float(np.mean(1.0 / r))}
        values.update({f"Hit@{k}": float(np.mean(r <= k)) for k in HIT_KS})
        per_type.setdefault(record.type_formula, []).append(values)
    queries = [v for group in per_type.values() for v in group]
    out = {}
    for m in ("MRR",) + tuple(f"Hit@{k}" for k in HIT_KS):
        if queries:
            out[("mean_over_types", m)] = float(np.mean([np.mean([v[m] for v in g]) for g in per_type.values()]))
            out[("mean_over_queries", m)] = float(np.mean([v[m] for v in queries]))
    return out, len(queries)


def check_report(report, records, rows: np.ndarray, modes) -> list[str]:
    problems = []
    for mode in modes:
        want, count = metrics(records, rows, mode)
        if report.evaluated.get(mode, 0) != count:
            problems.append(f"{mode}: {report.evaluated.get(mode, 0)} queries evaluated, expected {count}")
        for (group, metric), value in want.items():
            got = report.value(mode, metric, "overall", group)
            if not abs(got - value) <= 1e-9:
                problems.append(f"{mode} {metric} {group}: report {got!r}, recomputed {value!r}")
    return problems


# -- training -----------------------------------------------------------------


def expected_steps(dataset, batch_size: int, epochs: int, tree: bool) -> int:
    """Optimizer steps implied by the pair counts and the batching rule.

    Every train answer of a record gives one pair. Sequence encoders take
    consecutive batches over all pairs; tree encoders batch each query type
    apart.
    """
    per_type: dict[str, int] = {}
    for record in dataset.iter_records():
        per_type[record.type_formula] = per_type.get(record.type_formula, 0) + len(record.train_answers)
    if tree:
        batches = sum(math.ceil(p / batch_size) for p in per_type.values())
    else:
        batches = math.ceil(sum(per_type.values()) / batch_size)
    return epochs * batches


def check_checkpoint(trained, loaded) -> list[str]:
    """A saved and reloaded checkpoint equals the one training returned."""
    problems = []
    a, b = trained.model.parameters(), loaded.model.parameters()
    if sorted(a) != sorted(b):
        problems.append(f"parameter names differ: {sorted(set(a) ^ set(b))}")
    for name in sorted(set(a) & set(b)):
        if not np.array_equal(a[name], b[name]):
            problems.append(f"parameter {name} changed in the round trip")
    for moment in ("m", "v"):
        x, y = getattr(trained.moments, moment), getattr(loaded.moments, moment)
        if sorted(x) != sorted(y) or any(not np.array_equal(x[k], y[k]) for k in x):
            problems.append(f"Adam moment {moment} changed in the round trip")
    if (trained.step, trained.config) != (loaded.step, loaded.config):
        problems.append("step count or training config changed in the round trip")
    return problems


def check_numerics(history, loss: float, prob_sums: np.ndarray) -> list[str]:
    problems = []
    if not history or not all(math.isfinite(h["loss"]) for h in history):
        problems.append(f"non-finite or missing epoch losses: {history}")
    if not math.isfinite(loss):
        problems.append(f"non-finite batch loss {loss}")
    worst = float(np.max(np.abs(prob_sums - 1.0)))
    if not worst <= 1e-9:
        problems.append(f"softmax rows sum to 1 only within {worst:.3g}")
    return problems
