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

from .files import canonical_json
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


# a breakdown's groups: each type alone, then the types of one depth, then those of one distribution
_BREAKDOWNS = (
    ("type", lambda formula: formula),
    ("depth", lambda formula: str(parse_formula(formula).depth)),
    ("distribution", distribution_of),
)


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

    def _index(self) -> dict:
        """Each row's value at its (mode, group_kind, group, metric); the evaluator writes
        one row per key, and every group it writes has all of ``METRICS``."""
        return {(r["mode"], r["group_kind"], r["group"], r["metric"]): r["value"] for r in self.rows}

    def value(self, mode: str, metric: str, group_kind: str = "overall", group="mean_over_types"):
        return self._index()[mode, group_kind, group, metric]

    def lines(self) -> list[str]:
        return list(map(canonical_json, self.rows))

    def table(self) -> str:
        index = self._index()
        width = max((len(str(group)) for _, _, group, _ in index), default=10) + 2
        out = []
        for mode in sorted({mode for mode, *_ in index}):
            out.append(f"== mode: {mode} (queries evaluated: {self.evaluated.get(mode, 0)}, "
                       f"excluded empty-target: {self.excluded.get(mode, 0)})")
            out.append(f"{'group':<{width}}" + "".join(f"{m:>10}" for m in METRICS))
            for kind in ("overall", "distribution", "depth", "type"):
                for group in sorted({g for m, k, g, _ in index if (m, k) == (mode, kind)}):
                    out.append(f"{group:<{width}}" + "".join(f"{index[mode, kind, group, m]:>10.4f}" for m in METRICS))
        return "\n".join(out)


def _mean(rows) -> np.ndarray:
    """``np.mean(rows, axis=0)`` bit for bit, its sum and division without its per-call cost."""
    return np.add.reduce(rows, axis=0) / len(rows)


def evaluate_scores(
    records: list[GroundedQueryRecord],
    scores,
    modes=("entailment", "inference"),
) -> MetricReport:
    """Metrics from score rows, one per record, read once in record order.

    ``scores`` is an (N, V) array or any iterable of N rows; a row count
    that differs from the record count raises ``ValueError``. A query's
    values are ``MRR = mean(1/r)`` and ``Hit@k = mean(r <= k)`` over its
    targets' ranks ``r``. A type's values are the means over its queries,
    and every group of types (a type alone, a depth, a distribution) has the
    mean of its types' values, so each type weighs equally, with the
    group's summed query count.
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
    report = MetricReport(excluded=excluded, evaluated={mode: len(per_query[mode]) for mode in modes})
    for mode, queries in per_query.items():
        by_type: dict[str, list[list[float]]] = {}
        for formula, values in queries:
            by_type.setdefault(formula, []).append(values)
        type_means = {formula: _mean(rows) for formula, rows in sorted(by_type.items())}
        cells = []  # (group_kind, group, metric, value, num_queries)
        for kind, key in _BREAKDOWNS:
            groups: dict[str, list[str]] = {}
            for formula in type_means:
                groups.setdefault(key(formula), []).append(formula)
            for group, formulas in sorted(groups.items()):
                means = _mean([type_means[f] for f in formulas])
                count = sum(len(by_type[f]) for f in formulas)
                cells += [(kind, group, m, value, count) for m, value in zip(METRICS, means)]
        if queries:  # the overall rows, interleaved per metric
            over_types = _mean(list(type_means.values()))
            over_queries = _mean([values for _, values in queries])
            for m, by_types, by_queries in zip(METRICS, over_types, over_queries):
                cells += [("overall", "mean_over_types", m, by_types, len(queries)),
                          ("overall", "mean_over_queries", m, by_queries, len(queries))]
        report.rows += (
            {"mode": mode, "metric": m, "group_kind": kind, "group": group, "value": float(value), "num_queries": n}
            for kind, group, m, value, n in cells
        )
    return report


def evaluate(model, dataset: Dataset, mode: str = "both") -> MetricReport:
    """Encode, score and rank the records in order, 256 per chunk.

    ``mode`` is one of the evaluation modes, or ``both`` for
    entailment+inference. Records already carry their three answer sets.
    Score rows reach :func:`evaluate_scores` one chunk at a time, so memory
    stays at O(chunk * num_entities) whatever the record count.
    """
    if mode not in MODES + ("both",):
        raise ValueError(f"unknown mode {mode!r}")
    modes = ("entailment", "inference") if mode == "both" else (mode,)
    records = list(dataset.iter_records())
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
