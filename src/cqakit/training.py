"""Training: positive query-answer pairs, full-softmax cross-entropy, Adam.

For every training record, each train-layer answer entity yields one
(query, answer) pair. A batch encodes each distinct query once and scores it
against *all* entities (no negative sampling), one score row per distinct
query; the loss is the mean over pairs of the negative log of the softmax
probability of the paired answer. Gradients flow into the encoder,
the input-token rows, and the answer-entity rows of the shared table.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import logging
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .encoders import (
    CheckpointError,
    FlatTensors,
    QueryModel,
    load_checkpoint,
    make_encoder,
    model_shapes,
    new_model,
    normalize_arch,
    save_checkpoint,
)
from .evaluation import evaluate
from .linearize import Vocabulary
from .rng import make_rng
from .sampler import Dataset, query_tokens

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
        normalize_arch(self.arch)  # refuses an unknown name; the spelling given is kept
        for key, low in (
            ("d", 1), ("batch_size", 1), ("epochs", 0), ("eval_every", 0),
            ("layers", 1), ("heads", 1), ("max_len", 1), ("rpe_clip", 0), ("seed", 0),
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
        """The sizes ``new_model``/``make_encoder`` take besides arch and d."""
        return dict(layers=self.layers, heads=self.heads, max_len=self.max_len, rpe_clip=self.rpe_clip)

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
    query: list[int]  # the linearized query, shared by the pairs of one record
    target: int
    type_formula: str


def make_pairs(dataset: Dataset, model: QueryModel) -> tuple[list[Pair], int]:
    """One pair per (query, train-answer) combination, in record order.

    Records with an empty train answer set are skipped; the count of skipped
    records is returned alongside the pairs. A record's token list is filled
    from its type's template (:func:`~cqakit.sampler.query_tokens`).
    """
    pairs: list[Pair] = []
    records = [record for record in dataset.iter_records() if record.train_answers]
    skipped = len(dataset) - len(records)
    for record, prepared in zip(records, query_tokens(records, model.vocab)):
        for v in record.train_answers.ids.tolist():
            pairs.append(Pair(prepared, v, record.type_formula))
    if skipped:
        logger.info("make_pairs: skipped %d records with empty train answer sets", skipped)
    return pairs, skipped


def loss_and_grads(model: QueryModel, batch: list[Pair]):
    """Full-softmax cross-entropy over a batch of pairs.

    The pairs of one record share their prepared query (see :func:`make_pairs`),
    so the batch's U distinct queries are encoded once each and scored as U rows;
    a row's gradient is its probabilities times its pair count, minus one at each
    of its pairs' targets. Returns ``(loss, grads, diagnostics)``; diagnostics
    carry the softmax mass of each distinct query's row (should be 1 within
    float tolerance) for invariant checks.
    """
    slot: dict[int, int] = {}  # id of a prepared query -> its row, in first-appearance order
    inverse = np.array([slot.setdefault(id(p.query), len(slot)) for p in batch], dtype=np.int64)
    queries = list({id(p.query): p.query for p in batch}.values())
    targets = np.array([p.target for p in batch], dtype=np.int64)
    Q, cache = model.encode(queries)  # (U, d)
    E = model.entity_rows  # (V, d)
    scores = Q @ E.T  # (U, V)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    Z = exp.sum(axis=1, keepdims=True)
    probs = exp / Z
    B = len(batch)
    log_p = shifted[inverse, targets] - np.log(Z[inverse, 0])
    loss = float(-np.mean(log_p))
    if not np.isfinite(loss):
        raise TrainingDivergedError([{"loss": loss}], f"non-finite batch loss {loss}")

    counts = np.bincount(inverse).astype(probs.dtype)  # pairs per distinct query
    d_scores = probs * counts[:, None]
    np.subtract.at(d_scores, (inverse, targets), 1.0)  # a repeated (query, target) pair counts twice
    d_scores /= B
    dQ = d_scores @ E
    grads = model.zero_grads()
    # score-side gradient for the (tied) entity rows, written straight into the gradient vector
    np.matmul(d_scores.T, Q, out=grads["table"][model.vocab.entity_offset :])
    model.backward(cache, dQ, grads)
    diagnostics = {"prob_sums": probs.sum(axis=1)}
    return loss, grads, diagnostics


# values of each flat array that one pass of Adam.step carries through all its operations
_ADAM_BLOCK = 16384


class Adam:
    """Adam with bias correction, over one flat vector.

    The moments ``m`` and ``v`` are :class:`~cqakit.encoders.FlatTensors` in the
    parameters' layout, given when Adam is built: zeroed (``QueryModel.zero_grads``)
    to train a fresh model, a checkpoint's to resume it. A step runs the textbook
    operation sequence over ``_ADAM_BLOCK`` values of the four flat arrays (parameters,
    gradients, ``m``, ``v``) at a time, in two scratch blocks of the moments' dtype, so
    each value is read from memory once per step and not once per operation; every
    operation is elementwise, so the result does not depend on the block size.
    """

    def __init__(self, m: FlatTensors, v: FlatTensors, lr, beta1=0.9, beta2=0.999, eps=1e-8, step_count=0):
        self.m, self.v = m, v
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = step_count

    def step(self, params: FlatTensors, grads: FlatTensors):
        self.step_count += 1
        t = self.step_count
        m, v, p, g = self.m.flat, self.v.flat, params.flat, grads.flat
        scratch = np.empty((2, min(_ADAM_BLOCK, m.size)), m.dtype)
        for start in range(0, m.size, _ADAM_BLOCK):
            block = slice(start, start + _ADAM_BLOCK)
            mb, vb, gb = m[block], v[block], g[block]
            update, denom = (buf[: mb.size] for buf in scratch)
            mb *= self.beta1
            mb += np.multiply(1 - self.beta1, gb, out=update)
            vb *= self.beta2
            np.multiply(1 - self.beta2, gb, out=update)
            vb += np.multiply(update, gb, out=update)
            np.divide(mb, 1 - self.beta1**t, out=update)  # m_hat
            np.divide(vb, 1 - self.beta2**t, out=denom)  # v_hat
            np.sqrt(denom, out=denom)
            denom += self.eps
            update *= self.lr
            update /= denom
            p[block] -= update


# the checkpoint meta holds exactly what loading reads
_META_TYPES = dict(num_entities=int, num_relations=int, vocab_hash=str, train_config=dict, step=int)
_MOMENT_PREFIXES = ("adam.m.", "adam.v.")


def _directory(shapes: dict[str, tuple], dtype) -> list[dict]:
    """The tensor directory of a checkpoint over parameters of these shapes and dtype.

    It lists each parameter and its Adam moments ('adam.m.'/'adam.v.' + name) in
    sorted-name order, stored little-endian, each starting where the one before it
    ends: the payload is Adam's ``m``, then ``v``, then the parameters, each a flat
    vector in the parameters' layout.
    """
    dtype = np.dtype(dtype).newbyteorder("<")
    directory, offset = [], 0
    for prefix in _MOMENT_PREFIXES + ("",):
        for name in sorted(shapes):
            nbytes = math.prod(shapes[name]) * dtype.itemsize
            directory.append({"name": prefix + name, "dtype": dtype.str, "shape": list(shapes[name]),
                              "offset": offset, "nbytes": nbytes})
            offset += nbytes
    return directory


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _directory_mismatch(found: list, expected: list[dict]) -> str:
    """Name the tensors missing from ``found`` and the unexpected ones, or else its
    first entry that differs from ``expected``; ``found`` may hold any JSON values."""
    names = {entry["name"] for entry in expected}
    listed = {entry["name"] for entry in found if isinstance(entry, dict) and isinstance(entry.get("name"), str)}
    missing, unexpected = sorted(names - listed), sorted(listed - names)
    if missing or unexpected:
        return f"missing tensors {missing}, unexpected tensors {unexpected}"
    found_texts = [_canonical(entry) for entry in found] + ["no entry"]
    expected_texts = [_canonical(entry) for entry in expected] + ["no entry"]
    i = next(i for i, (a, b) in enumerate(zip(found_texts, expected_texts)) if a != b)
    return f"tensor entry {i}: expected {expected_texts[i]}, found {found_texts[i]}"


@dataclass
class Checkpoint:
    """A trained model with its config and Adam moments.

    ``save``/``load`` are the only writer and reader of checkpoint files. A file's
    tensor directory is the one :func:`_directory` states for the config's model:
    each parameter and its two Adam moments, tiling the payload as ``m``, ``v``,
    parameters.
    """

    model: QueryModel
    config: TrainConfig
    moments: Adam
    history: list = field(default_factory=list)

    @property
    def step(self) -> int:
        """Adam steps taken so far."""
        return self.moments.step_count

    def save(self, path):
        params = self.model.parameters()
        directory = _directory({name: arr.shape for name, arr in params.items()}, params.flat.dtype)
        stored = directory[0]["dtype"]
        vectors = [t.flat.astype(stored, copy=False) for t in (self.moments.m, self.moments.v, params)]
        vocab = self.model.vocab
        meta = {
            "num_entities": vocab.num_entities,
            "num_relations": vocab.num_relations,
            "vocab_hash": vocab.layout_hash(),
            "train_config": self.config.to_dict(),
            "step": self.step,
        }
        save_checkpoint(path, meta, directory, vectors)

    @staticmethod
    def load(path) -> "Checkpoint":
        """Rebuild a checkpoint, raising :class:`CheckpointError` for any file it refuses.

        The encoder is rebuilt from ``train_config``. The file's tensor directory must
        be the one :func:`_directory` states for it, compared as canonical JSON text
        (so a JSON ``true`` is not ``1``), and the payload must end where the directory
        does. The payload's three vectors, Adam's ``m``, then ``v``, then the parameters,
        are each viewed as :class:`~cqakit.encoders.FlatTensors`, uncopied, so a loaded
        checkpoint has a trained one's layout and can be stepped on.
        """
        meta, directory, payload = load_checkpoint(path)
        for key, kind in _META_TYPES.items():
            if not isinstance(meta.get(key), kind) or isinstance(meta.get(key), bool):
                raise CheckpointError(f"{path}: meta needs {key!r} of type {kind.__name__}")
        if meta["step"] < 0:
            raise CheckpointError(f"{path}: meta 'step' must be >= 0, found {meta['step']}")
        vocab = Vocabulary(meta["num_relations"], meta["num_entities"])
        if vocab.layout_hash() != meta["vocab_hash"]:
            raise CheckpointError(f"{path}: vocabulary layout hash mismatch (another universe)")
        try:
            config = config_from_mapping(meta["train_config"])
            # the random init only fixes the shapes: the model binds the encoder to the file's views
            rng = np.random.default_rng(0)
            encoder = make_encoder(config.arch, config.d, rng, **config.encoder_options())
        except ValueError as exc:
            raise CheckpointError(f"{path}: train_config does not describe a model: {exc}") from None

        shapes = model_shapes(vocab, encoder)
        expected = _directory(shapes, config.dtype)
        if _canonical(directory) != _canonical(expected):
            raise CheckpointError(f"{path}: {_directory_mismatch(directory, expected)}")
        end = expected[-1]["offset"] + expected[-1]["nbytes"]
        if payload.size != end:
            raise CheckpointError(f"{path}: the payload holds {payload.size} bytes, the directory {end}")
        values = payload.view(expected[0]["dtype"])
        if not values.dtype.isnative:  # swapped in place, so the vectors stay views of the payload
            values = values.byteswap(inplace=True).view(values.dtype.newbyteorder("="))
        m, v, params = (FlatTensors.over(third, shapes) for third in np.split(values, 3))
        adam = Adam(m, v, config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps,
                    step_count=meta["step"])
        return Checkpoint(QueryModel(vocab, params, encoder), config, adam)


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


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_MMAP_THRESHOLD = 32 << 20  # the largest value glibc accepts on 64-bit
_heap_pinned = False


def _retain_freed_memory() -> None:
    """Let glibc's malloc keep freed memory for the next training step.

    A step allocates and frees the same multi-megabyte arrays each time. By
    default glibc serves such an array from the heap or from a fresh mmap
    depending on a threshold that moves with the sizes freed before, and
    gives the heap top back to the kernel once enough of it is free, so
    whether a step's arrays land on zero-filled pages that fault in again
    depends on what the process did earlier. Fixing the mmap threshold and
    never trimming makes every step after the first reuse the heap. The
    setting is process-wide and made once.
    """
    global _heap_pinned
    if _heap_pinned or not sys.platform.startswith("linux"):
        return
    _heap_pinned = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD) != 1 or mallopt(_M_TRIM_THRESHOLD, 2**31 - 1) != 1:
        logger.info("mallopt refused a heap setting")


def _diverged(history: list[dict]) -> bool:
    if len(history) < 3:
        return False
    initial = history[0]["loss"]
    return all(h["loss"] > 10.0 * initial for h in history[-3:])


def _validation_swap_mrr(model: QueryModel, dataset: Dataset) -> float:
    report = evaluate(model, dataset, mode="validation-swap")
    try:
        return float(report.value("validation-swap", "MRR"))
    except KeyError:  # no record has a validation-swap target
        return float("nan")


def train(cfg: TrainConfig, dataset: Dataset, vocab: Vocabulary) -> Checkpoint:
    """Optimize a fresh model on the dataset's train-layer pairs.

    Deterministic given the seed: initialization, per-epoch shuffles, and
    the fixed parameter-update order all derive from it. Every
    ``cfg.eval_every`` epochs (when set) the validation-swap MRR on
    ``dataset`` lands in that epoch's history entry.
    """
    _retain_freed_memory()
    model = new_model(vocab, cfg.arch, cfg.d, cfg.seed, cfg.dtype, **cfg.encoder_options())
    params = model.parameters()
    m, v = model.zero_grads(), model.zero_grads()
    adam = Adam(m, v, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    pairs, _ = make_pairs(dataset, model)
    history: list[dict] = []
    ckpt = Checkpoint(model, cfg, adam, history)
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
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            entry["val_swap_mrr"] = _validation_swap_mrr(model, dataset)
        history.append(entry)
        if _diverged(history):
            last = [round(h["loss"], 4) for h in history[-3:]]
            why = f"loss exceeded 10x the initial value for 3 consecutive epochs (last losses: {last})"
            raise TrainingDivergedError(history, why)
    return ckpt
