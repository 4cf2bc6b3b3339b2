"""Training: positive query-answer pairs, full-softmax cross-entropy, Adam.

For every training record, each train-layer answer entity yields one
(query, answer) pair. A batch scores each query embedding against *all*
entities (no negative sampling); the loss is the mean negative log of the
softmax probability of the paired answer. Gradients flow into the encoder,
the input-token rows, and the answer-entity rows of the shared table.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .encoders import (
    CheckpointError,
    QueryModel,
    load_checkpoint,
    make_encoder,
    new_model,
    save_checkpoint,
)
from .linearize import Vocabulary
from .rng import make_rng
from .sampler import Dataset

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """A divergence guard tripped; the message names it, ``history`` carries the losses."""

    def __init__(self, history, guard: str):
        super().__init__(f"training diverged: {guard}")
        self.history = history


@dataclass(frozen=True)
class TrainConfig:
    arch: str = "LSTM"
    d: int = 64
    layers: int = 2
    heads: int = 4
    batch_size: int = 128
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 50
    seed: int = 0
    precision: str = "double"
    max_len: int = 64
    rpe_clip: int = 16
    eval_every: int = 0  # epochs between validation-swap evaluations; 0 = off

    def __post_init__(self):
        for key, low in (
            ("d", 1), ("batch_size", 1), ("epochs", 0), ("eval_every", 0),
            ("layers", 1), ("heads", 1), ("max_len", 1), ("rpe_clip", 0),
        ):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        for key in ("learning_rate", "adam_eps"):
            if not 0 < getattr(self, key) < math.inf:  # also refuses NaN
                raise ValueError(f"{key} must be finite and above 0, got {getattr(self, key)}")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("adam betas must lie in (0, 1)")
        if self.precision not in ("single", "double"):
            raise ValueError("precision must be 'single' or 'double'")

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32

    def encoder_options(self) -> dict:
        """The sizes and dtype ``new_model``/``make_encoder`` take besides arch and d."""
        return dict(
            layers=self.layers,
            heads=self.heads,
            max_len=self.max_len,
            rpe_clip=self.rpe_clip,
            dtype=self.dtype,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def config_from_mapping(mapping: dict) -> TrainConfig:
    """Build a TrainConfig from string- or JSON-valued keys, coercing field types."""
    kwargs = {}
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    for key, value in mapping.items():
        if key not in fields:
            raise ValueError(f"unknown config key {key!r}")
        target = fields[key].type
        if isinstance(value, str):
            if target == "int":
                value = int(value)
            elif target == "float":
                value = float(value)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[target]):
            raise ValueError(f"config key {key!r} expects {target}, found {value!r}")
        kwargs[key] = value
    return TrainConfig(**kwargs)


def parse_config_file(path) -> dict:
    """Line-oriented ``key = value`` config; '#' starts a comment."""
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


@dataclass
class Pair:
    query: object  # prepared representation (token list or tree nodes)
    target: int
    type_formula: str


def make_pairs(dataset: Dataset, model: QueryModel) -> tuple[list[Pair], int]:
    """One pair per (query, train-answer) combination, in record order.

    Records with an empty train answer set are skipped; the count of skipped
    records is returned alongside the pairs.
    """
    pairs: list[Pair] = []
    skipped = 0
    for record in dataset.iter_records():
        if not record.train_answers:
            skipped += 1
            continue
        prepared = model.prepare([record.query])[0]
        for v in sorted(record.train_answers):
            pairs.append(Pair(prepared, v, record.type_formula))
    if skipped:
        logger.info("make_pairs: skipped %d records with empty train answer sets", skipped)
    return pairs, skipped


def loss_and_grads(model: QueryModel, batch: list[Pair]):
    """Full-softmax cross-entropy over a batch of pairs.

    Returns ``(loss, grads, diagnostics)``; diagnostics carry the per-row
    softmax mass (should be 1 within float tolerance) for invariant checks.
    """
    queries = [p.query for p in batch]
    targets = np.array([p.target for p in batch], dtype=np.int64)
    Q, cache = model.encode(queries)  # (B, d)
    E = model.entity_rows  # (V, d)
    scores = Q @ E.T  # (B, V)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    Z = exp.sum(axis=1, keepdims=True)
    probs = exp / Z
    B = len(batch)
    log_p = shifted[np.arange(B), targets] - np.log(Z[:, 0])
    loss = float(-np.mean(log_p))
    if not np.isfinite(loss):
        raise TrainingDivergedError([{"loss": loss}], f"non-finite batch loss {loss}")

    d_scores = probs.copy()
    d_scores[np.arange(B), targets] -= 1.0
    d_scores /= B
    dQ = d_scores @ E
    grads = model.backward(cache, dQ)
    # score-side gradient for the (tied) entity rows
    grads["table"][model.vocab.entity_offset :] += d_scores.T @ Q
    diagnostics = {"prob_sums": probs.sum(axis=1)}
    return loss, grads, diagnostics


class Adam:
    """Adam with bias correction; parameters updated in place in name order.

    A step computes the bias-corrected moments and the update in two scratch
    buffers per dtype, sized to its largest tensor and shared by all of them.
    """

    def __init__(self, params: dict[str, np.ndarray], lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.step_count += 1
        t = self.step_count
        sizes: dict[np.dtype, int] = {}
        for m in self.m.values():
            sizes[m.dtype] = max(sizes.get(m.dtype, 0), m.size)
        scratch = {dtype: np.empty((2, size), dtype) for dtype, size in sizes.items()}
        for name in sorted(params):
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            update, denom = (buf[: m.size].reshape(m.shape) for buf in scratch[m.dtype])
            m *= self.beta1
            m += np.multiply(1 - self.beta1, g, out=update)
            v *= self.beta2
            np.multiply(1 - self.beta2, g, out=update)
            v += np.multiply(update, g, out=update)
            np.divide(m, 1 - self.beta1**t, out=update)  # m_hat
            np.divide(v, 1 - self.beta2**t, out=denom)  # v_hat
            np.sqrt(denom, out=denom)
            denom += self.eps
            update *= self.lr
            update /= denom
            params[name] -= update


# the checkpoint meta holds exactly what loading reads
_META_TYPES = dict(num_entities=int, num_relations=int, vocab_hash=str, train_config=dict, step=int)
_MOMENT_PREFIXES = ("adam.m.", "adam.v.")


@dataclass
class Checkpoint:
    """A trained model with its config, Adam moments and step count.

    ``save``/``load`` are the only writer and reader of checkpoint files,
    which hold each parameter and its Adam moments ('adam.m.'/'adam.v.' + name).
    """

    model: QueryModel
    config: TrainConfig
    moments: Adam
    step: int
    history: list = field(default_factory=list)

    def save(self, path):
        tensors = dict(self.model.parameters())
        for prefix, moments in zip(_MOMENT_PREFIXES, (self.moments.m, self.moments.v)):
            tensors.update({prefix + name: arr for name, arr in moments.items()})
        vocab = self.model.vocab
        meta = {
            "num_entities": vocab.num_entities,
            "num_relations": vocab.num_relations,
            "vocab_hash": vocab.layout_hash(),
            "train_config": self.config.to_dict(),
            "step": self.step,
        }
        save_checkpoint(path, meta, tensors)

    @staticmethod
    def load(path) -> "Checkpoint":
        """Rebuild a checkpoint, raising :class:`CheckpointError` for any file it refuses.

        The encoder is rebuilt from ``train_config``; the file must hold exactly its
        parameters and their Adam moments, in the shapes it defines and the config's dtype.
        """
        meta, tensors = load_checkpoint(path)
        for key, kind in _META_TYPES.items():
            if not isinstance(meta.get(key), kind) or isinstance(meta.get(key), bool):
                raise CheckpointError(f"{path}: meta needs {key!r} of type {kind.__name__}")
        vocab = Vocabulary(meta["num_relations"], meta["num_entities"])
        if vocab.layout_hash() != meta["vocab_hash"]:
            raise CheckpointError(f"{path}: vocabulary layout hash mismatch (another universe)")
        try:
            config = config_from_mapping(meta["train_config"])
            # the random init only fixes the shapes: every parameter is replaced below
            rng = np.random.default_rng(0)
            encoder = make_encoder(config.arch, config.d, rng, **config.encoder_options())
        except ValueError as exc:
            raise CheckpointError(f"{path}: train_config does not describe a model: {exc}") from None

        shapes = {"table": (vocab.size, config.d)}
        shapes.update({f"enc.{k}": v.shape for k, v in encoder.params.items()})
        expected = {p + name: shape for p in ("",) + _MOMENT_PREFIXES for name, shape in shapes.items()}
        if tensors.keys() != expected.keys():
            missing = sorted(expected.keys() - tensors.keys())
            unexpected = sorted(tensors.keys() - expected.keys())
            raise CheckpointError(f"{path}: missing tensors {missing}, unexpected tensors {unexpected}")
        dtype = np.dtype(config.dtype)
        for name, arr in tensors.items():
            if arr.shape != expected[name] or arr.dtype != dtype:
                raise CheckpointError(
                    f"{path}: {name}: expected {expected[name]} {dtype}, found {arr.shape} {arr.dtype}"
                )
        encoder.params = {k: tensors[f"enc.{k}"] for k in encoder.params}
        model = QueryModel(vocab, tensors["table"], encoder)
        adam = Adam({}, config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps)
        adam.m, adam.v = ({n: tensors[prefix + n] for n in shapes} for prefix in _MOMENT_PREFIXES)
        adam.step_count = meta["step"]
        return Checkpoint(model, config, adam, meta["step"])


def _batches(pairs: list[Pair], order: np.ndarray, batch_size: int, group_types: bool):
    """Slice a shuffled pair list into batches.

    Sequence encoders take consecutive slices. Tree encoders batch any shapes but keep one
    query type per batch, which fixes the step count per epoch that the bench checks recompute.
    """
    shuffled = [pairs[i] for i in order]
    if not group_types:
        for i in range(0, len(shuffled), batch_size):
            yield shuffled[i : i + batch_size]
        return
    groups: dict[str, list[Pair]] = {}
    for p in shuffled:
        groups.setdefault(p.type_formula, []).append(p)
    for formula in sorted(groups):
        group = groups[formula]
        for i in range(0, len(group), batch_size):
            yield group[i : i + batch_size]


def _diverged(history: list[dict]) -> bool:
    if len(history) < 3:
        return False
    initial = history[0]["loss"]
    return all(h["loss"] > 10.0 * initial for h in history[-3:])


def train(
    cfg: TrainConfig,
    dataset: Dataset,
    vocab: Vocabulary,
    eval_fn: Callable[[QueryModel], float] | None = None,
) -> Checkpoint:
    """Optimize a fresh model on the dataset's train-layer pairs.

    Deterministic given the seed: initialization, per-epoch shuffles, and
    the fixed parameter-update order all derive from it. ``eval_fn``, when
    given together with ``cfg.eval_every``, is called periodically (the
    validation-swap metric hook) and its value lands in the history log.
    """
    model = new_model(vocab, cfg.arch, cfg.d, cfg.seed, **cfg.encoder_options())
    params = model.parameters()
    adam = Adam(params, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    pairs, _ = make_pairs(dataset, model)
    history: list[dict] = []
    ckpt = Checkpoint(model, cfg, adam, 0, history)
    if not pairs or cfg.epochs == 0:
        return ckpt

    for epoch in range(cfg.epochs):
        order = make_rng(cfg.seed, 1, epoch).permutation(len(pairs))
        losses = []
        for batch in _batches(pairs, order, cfg.batch_size, model.is_tree):
            loss, grads, _ = loss_and_grads(model, batch)
            adam.step(params, grads)
            losses.append(loss)
        entry = {"epoch": epoch, "loss": float(np.mean(losses))}
        if eval_fn is not None and cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            entry["val_swap_mrr"] = float(eval_fn(model))
        history.append(entry)
        if _diverged(history):
            last = [round(h["loss"], 4) for h in history[-3:]]
            why = f"loss exceeded 10x the initial value for 3 consecutive epochs (last losses: {last})"
            raise TrainingDivergedError(history, why)
    ckpt.step = adam.step_count
    return ckpt
