"""Ranking metrics: entailment / inference MRR and Hit@K, filtered.

Per query the model is encoded once and scored once against all entities.
Each target entity is ranked with the other known answers filtered out
(they cannot push the target down), ties broken by averaging. A query's
metric is the mean over its mode's target set:

* ``entailment``      targets = train answers,        filter base = train answers
* ``inference``       targets = test \\ valid answers, filter base = test answers
* ``validation-swap`` targets = valid \\ train answers, filter base = valid answers

A record's answer sets are sorted id arrays (:class:`~cqakit.symbolic.AnswerSet`),
and so are the targets and filter bases taken from them.
Queries whose target set is empty are excluded from that mode's averages
and counted. Per-type values average over queries; the headline averages
per-type values with equal weight (a mean over queries is also emitted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .queries import distribution_of, parse_formula
from .sampler import AnswerSet, Dataset, GroundedQueryRecord, query_tokens

HIT_KS = (1, 3, 10)
MODES = ("entailment", "inference", "validation-swap")


def _ranks(scores: np.ndarray, targets, base) -> np.ndarray:
    """Filtered ranks of ``targets``, all drawn from the filter ``base``.

    Both hold entity ids. A target's rivals are the entities outside
    ``base``, and its rank is ``1 + #{rivals above} + 0.5 * #{rivals tied}``,
    a NaN score read as -inf. Every target has the same rivals, so one sort
    of their scores ranks all targets at once.
    """
    t = np.asarray(targets, dtype=np.int64)
    if ((t < 0) | (t >= scores.shape[0])).any():
        raise IndexError(f"target entity out of range [0, {scores.shape[0]})")
    scores = np.where(np.isnan(scores), -np.inf, scores)
    keep = np.ones(scores.shape[0], dtype=bool)
    keep[base] = False
    others = np.sort(scores[keep])
    s_t = scores[t]
    above = np.searchsorted(others, s_t, side="right")
    ties = above - np.searchsorted(others, s_t, side="left")
    return 1.0 + (others.size - above) + 0.5 * ties


# no package code calls rank; it stays because bench/loop.py wraps it by name
def rank(scores: np.ndarray, target: int, filtered) -> float:
    """Filtered rank of one ``target``: :func:`_ranks` with base ``filtered`` plus the target."""
    return float(_ranks(scores, [target], sorted({target, *filtered}))[0])


def _mode_sets(record: GroundedQueryRecord, mode: str) -> tuple[AnswerSet, AnswerSet]:
    """(targets, filter base) for one record under an evaluation mode."""
    if mode == "entailment":
        return record.train_answers, record.train_answers
    if mode == "inference":
        return record.test_answers - record.valid_answers, record.test_answers
    if mode == "validation-swap":
        return record.valid_answers - record.train_answers, record.valid_answers
    raise ValueError(f"unknown mode {mode!r} (expected one of {MODES})")


METRICS = ("MRR",) + tuple(f"Hit@{k}" for k in HIT_KS)


@dataclass
class MetricReport:
    """Flat metric rows plus exclusion counts.

    Rows are keyed by (mode, metric, group_kind, group); group kinds are
    ``type``, ``depth``, ``distribution``, and ``overall`` (with groups
    ``mean_over_types`` / ``mean_over_queries``).
    """

    rows: list[dict] = field(default_factory=list)
    excluded: dict[str, int] = field(default_factory=dict)
    evaluated: dict[str, int] = field(default_factory=dict)

    def value(self, mode: str, metric: str, group_kind: str = "overall", group="mean_over_types"):
        for row in self.rows:
            if (
                row["mode"] == mode
                and row["metric"] == metric
                and row["group_kind"] == group_kind
                and row["group"] == group
            ):
                return row["value"]
        raise KeyError((mode, metric, group_kind, group))

    def lines(self) -> list[str]:
        import json

        return [json.dumps(row, sort_keys=True, separators=(",", ":")) for row in self.rows]

    def table(self) -> str:
        width = max((len(str(r["group"])) for r in self.rows), default=10) + 2
        out = []
        for mode in sorted({r["mode"] for r in self.rows}):
            out.append(f"== mode: {mode} (queries evaluated: {self.evaluated.get(mode, 0)}, "
                       f"excluded empty-target: {self.excluded.get(mode, 0)})")
            header = f"{'group':<{width}}" + "".join(f"{m:>10}" for m in METRICS)
            out.append(header)
            for kind in ("overall", "distribution", "depth", "type"):
                rows = [r for r in self.rows if r["mode"] == mode and r["group_kind"] == kind]
                groups = sorted({str(r["group"]) for r in rows})
                for g in groups:
                    cells = []
                    for m in METRICS:
                        v = [r["value"] for r in rows if str(r["group"]) == g and r["metric"] == m]
                        cells.append(f"{v[0]:>10.4f}" if v else f"{'-':>10}")
                    out.append(f"{g:<{width}}" + "".join(cells))
        return "\n".join(out)


def evaluate_scores(
    records: list[GroundedQueryRecord],
    scores,
    modes=("entailment", "inference"),
) -> MetricReport:
    """Metrics from score rows, one per record, read once in record order.

    ``scores`` is an (N, V) array or any iterable of N rows; a row count
    that differs from the record count raises ``ValueError``. A query's
    values are ``MRR = mean(1/r)`` and ``Hit@k = mean(r <= k)`` over its
    targets' ranks ``r``.
    """
    per_query: dict[str, list[tuple[str, list[float]]]] = {mode: [] for mode in modes}
    excluded = dict.fromkeys(modes, 0)
    for record, row in zip(records, scores, strict=True):
        for mode in modes:
            targets, base = _mode_sets(record, mode)
            if not targets:
                excluded[mode] += 1
                continue
            r = _ranks(row, targets.ids, base.ids)
            # mean(1/r) and mean(r <= k), without np.mean's per-call cost
            values = [(1.0 / r).sum() / r.size] + [np.count_nonzero(r <= k) / r.size for k in HIT_KS]
            per_query[mode].append((record.type_formula, values))
    report = MetricReport()
    for mode in modes:
        queries = per_query[mode]
        report.excluded[mode] = excluded[mode]
        report.evaluated[mode] = len(queries)
        if not queries:
            continue

        def add_row(kind, group, metric, value, count):
            report.rows.append(
                {
                    "mode": mode,
                    "metric": metric,
                    "group_kind": kind,
                    "group": group,
                    "value": float(value),
                    "num_queries": count,
                }
            )

        by_type: dict[str, list[list[float]]] = {}
        for formula, values in queries:
            by_type.setdefault(formula, []).append(values)
        type_means = {formula: np.mean(rows, axis=0) for formula, rows in sorted(by_type.items())}
        for formula, means in type_means.items():
            for m, value in zip(METRICS, means):
                add_row("type", formula, m, value, len(by_type[formula]))

        # grouped breakdowns share the per-type means so each type weighs equally
        def grouped(key_fn, kind):
            buckets: dict[str, list[str]] = {}
            for formula in type_means:
                buckets.setdefault(key_fn(formula), []).append(formula)
            for group, formulas in sorted(buckets.items()):
                count = sum(len(by_type[f]) for f in formulas)
                for m, value in zip(METRICS, np.mean([type_means[f] for f in formulas], axis=0)):
                    add_row(kind, group, m, value, count)

        grouped(lambda f: str(parse_formula(f).depth), "depth")
        grouped(distribution_of, "distribution")

        over_types = np.mean(list(type_means.values()), axis=0)
        over_queries = np.mean([values for _, values in queries], axis=0)
        for m, by_types, by_queries in zip(METRICS, over_types, over_queries):
            add_row("overall", "mean_over_types", m, by_types, len(queries))
            add_row("overall", "mean_over_queries", m, by_queries, len(queries))
    return report


def evaluate(model, dataset: Dataset, mode: str = "both") -> MetricReport:
    """Encode, score and rank the records in order, 256 per chunk.

    ``mode`` is one of the evaluation modes, or ``both`` for
    entailment+inference. Records already carry their three answer sets.
    Score rows reach :func:`evaluate_scores` one chunk at a time, so memory
    stays at O(chunk * num_entities) whatever the record count.
    """
    modes = ("entailment", "inference") if mode == "both" else (mode,)
    for m in modes:
        if m not in MODES:
            raise ValueError(f"unknown mode {m!r}")
    records = list(dataset.iter_records())
    if not records:
        return MetricReport()
    return evaluate_scores(records, _score_rows(model, records), modes)


def _score_rows(model, records: list[GroundedQueryRecord]):
    """Score rows of ``records`` in order, encoded and scored 256 at a time.

    Each row is a copy, and the chunk is dropped before the next one is
    scored: a row the consumer still holds (``zip`` reuses its result
    tuple) then cannot keep the previous chunk alive.
    """
    # a chunk may mix types: tree encoders batch any shapes level by level,
    # and sequence encoders pack each chunk's tokens back to back
    tokens = query_tokens(records, model.vocab)
    for start in range(0, len(records), 256):
        encoded, _ = model.encode(tokens[start : start + 256])
        chunk = model.entity_scores(encoded)
        for i in range(chunk.shape[0]):
            yield chunk[i].copy()
        del chunk
