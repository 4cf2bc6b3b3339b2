import math
import sys
import tracemalloc
import types

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cqakit import training
from cqakit.encoders import ARCHITECTURES, FlatTensors, grad_check, load_checkpoint, new_model
from cqakit.encoders.checkpoint import MAGIC
from cqakit.linearize import PAD, Vocabulary
from cqakit.queries import parse_grounded, query_ids
from cqakit.sampler import Dataset, GroundedQueryRecord, Provenance
from cqakit.training import (
    Adam,
    Checkpoint,
    Pair,
    TrainConfig,
    TrainingDivergedError,
    _diverged,
    config_from_mapping,
    loss_and_grads,
    make_pairs,
    parse_config_file,
    train,
)
from conftest import answer_set, assert_loaded_layout, rewrite_checkpoint, with_tensors

VOCAB100 = Vocabulary(num_relations=5, num_entities=100)


def tiny_dataset(num_entities=100):
    records = {
        "(p,(e))": [
            GroundedQueryRecord(
                "(p,(e))",
                query_ids(parse_grounded("(p,(0),(e,(1)))")),
                answer_set({2, 3, 4}),
                answer_set({2, 3, 4}),
                answer_set({2, 3, 4, 5}),
            ),
            GroundedQueryRecord(
                "(p,(e))",
                query_ids(parse_grounded("(p,(1),(e,(6)))")),
                answer_set(()),
                answer_set({7}),
                answer_set({7}),
            ),
        ]
    }
    return Dataset(records, Provenance("tiny", 0, "x"), num_entities, 5)


def test_make_pairs_one_per_answer():
    model = new_model(VOCAB100, "LSTM", d=8, seed=0)
    pairs, skipped = make_pairs(tiny_dataset(), model)
    assert len(pairs) == 3  # one record with 3 train answers
    assert skipped == 1  # the empty-train-answers record
    assert sorted(p.target for p in pairs) == [2, 3, 4]


def test_make_pairs_empty_dataset():
    model = new_model(VOCAB100, "LSTM", d=8, seed=0)
    pairs, skipped = make_pairs(Dataset(), model)
    assert pairs == [] and skipped == 0


def test_make_pairs_count_matches_answer_recount(desk_dataset, desk_layers, desk_vocab):
    from cqakit.symbolic import answer

    model = new_model(desk_vocab, "LSTM", d=8, seed=0)
    pairs, skipped = make_pairs(desk_dataset, model)
    recount = sum(
        len(answer(desk_layers.train, r.query, r.ids))
        for r in desk_dataset.iter_records()
        if r.train_answers
    )
    assert len(pairs) == recount
    assert skipped == sum(1 for r in desk_dataset.iter_records() if not r.train_answers)


def test_zero_model_loss_is_log_v():
    model = new_model(VOCAB100, "LSTM", d=8, seed=1)
    for arr in model.parameters().values():
        arr[:] = 0.0
    pairs, _ = make_pairs(tiny_dataset(), model)
    loss, _, diag = loss_and_grads(model, pairs)
    assert loss == pytest.approx(math.log(100), abs=1e-6)
    np.testing.assert_allclose(diag["prob_sums"], 1.0, atol=1e-6)


def test_single_entity_universe_zero_loss():
    vocab = Vocabulary(num_relations=1, num_entities=1)
    model = new_model(vocab, "LSTM", d=4, seed=2)
    pair = Pair(model.prepare([parse_grounded("(p,(0),(e,(0)))")])[0], 0, "(p,(e))")
    loss, _, _ = loss_and_grads(model, [pair])
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_loss_matches_step_by_step_recomputation():
    # independent reference: explicit per-pair softmax/log computation
    vocab = Vocabulary(num_relations=2, num_entities=10)
    model = new_model(vocab, "LSTM", d=6, seed=3)
    graphs = [parse_grounded("(p,(0),(e,(1)))"), parse_grounded("(p,(1),(e,(2)))")]
    prepared = model.prepare(graphs)
    pairs = [Pair(prepared[0], 4, "(p,(e))"), Pair(prepared[1], 9, "(p,(e))")]
    loss, _, _ = loss_and_grads(model, pairs)

    total = 0.0
    for pair in pairs:
        e_q, _ = model.encode([pair.query])
        sims = [float(np.dot(e_q[0], model.entity_rows[v])) for v in range(10)]
        denom = sum(math.exp(s) for s in sims)
        p = math.exp(sims[pair.target]) / denom
        total += -math.log(p)
    assert loss == pytest.approx(total / 2, rel=1e-12)


def test_prob_rows_sum_to_one_random_model():
    model = new_model(VOCAB100, "Transformer-APE", d=8, seed=4, layers=1, heads=2)
    pairs, _ = make_pairs(tiny_dataset(), model)
    _, _, diag = loss_and_grads(model, pairs)
    np.testing.assert_allclose(diag["prob_sums"], 1.0, atol=1e-6)


def test_pad_row_does_not_affect_loss():
    model = new_model(VOCAB100, "LSTM", d=8, seed=5)
    # different-length queries force PAD inside the batch
    graphs = [parse_grounded("(p,(0),(e,(1)))"), parse_grounded("(p,(1),(p,(0),(e,(2))))")]
    prepared = model.prepare(graphs)
    pairs = [Pair(prepared[0], 3, "a"), Pair(prepared[1], 4, "b")]
    loss1, grads1, _ = loss_and_grads(model, pairs)
    model.rows[PAD] += 7.5
    loss2, grads2, _ = loss_and_grads(model, pairs)
    assert loss1 == loss2
    np.testing.assert_array_equal(grads1["table"][PAD], 0.0)
    np.testing.assert_array_equal(grads2["table"][PAD], 0.0)


def test_full_loss_gradients_match_finite_differences():
    vocab = Vocabulary(num_relations=3, num_entities=12)
    model = new_model(vocab, "LSTM", d=6, seed=6, layers=2)
    graphs = [parse_grounded("(i,(p,(0),(e,(1))),(p,(2),(e,(3))))")]
    pairs = [Pair(model.prepare(graphs)[0], 5, "t")]

    def fn():
        loss, grads, _ = loss_and_grads(model, pairs)
        return loss, grads

    assert grad_check(fn, model.parameters(), subsample_threshold=40) < 1e-4


def test_adam_zero_lr_is_identity():
    model = new_model(VOCAB100, "LSTM", d=8, seed=7)
    params = model.parameters()
    before = {k: v.copy() for k, v in params.items()}
    pairs, _ = make_pairs(tiny_dataset(), model)
    _, grads, _ = loss_and_grads(model, pairs)
    Adam(model.zero_grads(), model.zero_grads(), lr=0.0).step(params, grads)
    for name in params:
        np.testing.assert_array_equal(params[name], before[name])


def reference_adam_step(params, grads, m, v, t, lr, beta1, beta2, eps):
    """Adam as the textbook formula, with a fresh temporary for every term."""
    for name in sorted(params):
        g = grads[name]
        m[name] *= beta1
        m[name] += (1 - beta1) * g
        v[name] *= beta2
        v[name] += (1 - beta2) * g * g
        m_hat = m[name] / (1 - beta1**t)
        v_hat = v[name] / (1 - beta2**t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def flat_tensors(shapes, dtype, draw):
    """``FlatTensors`` in ``shapes``, each tensor set to ``draw(shape)`` cast to ``dtype``;
    the draws run in the order of ``shapes``, not the layout's sorted order."""
    out = FlatTensors.zeros(shapes, dtype)
    for name, shape in shapes.items():
        out[name][...] = draw(shape)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_step_is_bit_identical_to_the_formula(dtype):
    rng = np.random.default_rng(31)
    shapes = {"table": (37, 6), "enc.b": (6,), "enc.W": (6, 24), "enc.g": (1,)}
    params = flat_tensors(shapes, dtype, lambda shape: rng.normal(size=shape).astype(dtype))
    ref = {k: a.copy() for k, a in params.items()}
    ref_m = {k: np.zeros_like(a) for k, a in params.items()}
    ref_v = {k: np.zeros_like(a) for k, a in params.items()}
    m, v = FlatTensors.zeros(shapes, dtype), FlatTensors.zeros(shapes, dtype)
    adam = Adam(m, v, lr=3e-2, beta1=0.8, beta2=0.99, eps=1e-7)
    for t in range(1, 8):
        grads = flat_tensors(
            shapes, dtype, lambda shape: (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
        )
        adam.step(params, grads)
        reference_adam_step(ref, grads, ref_m, ref_v, t, 3e-2, 0.8, 0.99, 1e-7)
        for name in params:
            assert params[name].dtype == np.dtype(dtype)
            assert np.array_equal(params[name], ref[name]), (t, name)
            assert np.array_equal(adam.m[name], ref_m[name]) and np.array_equal(adam.v[name], ref_v[name])


BLOCK = training._ADAM_BLOCK


@st.composite
def block_spanning_shapes(draw):
    """Tensor shapes whose total spans several Adam blocks; ``t1`` straddles the first block edge."""
    head = draw(st.integers(1, BLOCK - 1))
    sizes = [head, draw(st.integers(BLOCK - head + 1, 2 * BLOCK))]
    sizes += draw(st.lists(st.integers(1, BLOCK), max_size=3))
    return {f"t{i}": (n // 2, 2) if n % 2 == 0 else (n,) for i, n in enumerate(sizes)}


@settings(deadline=None, max_examples=12)
@given(shapes=block_spanning_shapes(), seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_blocked_adam_is_bit_identical_to_the_formula(dtype, shapes, seed):
    sizes = [math.prod(shapes[name]) for name in sorted(shapes)]
    assert sizes[0] < BLOCK < sizes[0] + sizes[1] and sum(sizes) > BLOCK
    rng = np.random.default_rng(seed)

    def tensors():  # views of one flat vector, as a model's
        return flat_tensors(shapes, dtype, lambda shape: rng.normal(size=shape))

    params = tensors()
    ref = {k: a.copy() for k, a in params.items()}
    ref_m = {k: np.zeros_like(a) for k, a in params.items()}
    ref_v = {k: np.zeros_like(a) for k, a in params.items()}
    m, v = FlatTensors.zeros(shapes, dtype), FlatTensors.zeros(shapes, dtype)
    adam = Adam(m, v, lr=3e-2, beta1=0.8, beta2=0.99, eps=1e-7)
    for t in range(1, 8):
        grads = tensors()
        for g in grads.values():
            g *= dtype(10.0 ** rng.integers(-6, 3))
        adam.step(params, grads)
        reference_adam_step(ref, grads, ref_m, ref_v, t, 3e-2, 0.8, 0.99, 1e-7)
        for name in params:
            assert np.array_equal(params[name], ref[name]), (t, name)
            assert np.array_equal(adam.m[name], ref_m[name]) and np.array_equal(adam.v[name], ref_v[name])


def test_adam_scratch_is_two_blocks():
    # the table alone is 2.5 MB; a step may allocate its two scratch blocks, not table-sized buffers
    vocab = Vocabulary(num_relations=5, num_entities=20_000 - 12)
    model = new_model(vocab, "TreeLSTM", d=16, seed=3)
    assert model.rows.shape == (20_000, 16)
    params = model.parameters()
    _, grads, _ = loss_and_grads(model, [Pair(model.prepare([parse_grounded("(p,(1),(e,(2)))")])[0], 7, "t")])
    adam = Adam(model.zero_grads(), model.zero_grads(), lr=1e-3)
    adam.step(params, grads)
    tracemalloc.start()
    try:
        adam.step(params, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_model_moments_and_checkpoint_share_one_layout(arch, desk_dataset, desk_vocab, tmp_path):
    model = new_model(desk_vocab, arch, d=8, seed=4, layers=1, heads=2)
    params = model.parameters()
    names = sorted(params)
    assert names[-1] == "table" and all(name.startswith("enc.") for name in names[:-1])
    flat = params.flat
    assert flat is not None and flat.ndim == 1 and flat.flags.c_contiguous
    start = 0
    for name in names:
        arr = params[name]
        assert arr.base is flat and arr.flags.c_contiguous
        assert arr.ctypes.data == flat.ctypes.data + start * flat.itemsize, name
        start += arr.size
    assert start == flat.size

    cfg = TrainConfig(arch=arch, d=8, layers=1, heads=2, epochs=1, batch_size=64, seed=4)
    ckpt = train(cfg, desk_dataset, desk_vocab)
    path = tmp_path / "m.ckpt"
    ckpt.save(path)
    payload = path.read_bytes()[len(MAGIC) :].split(b"\n", 1)[1]
    trained = ckpt.model.parameters()
    assert ckpt.step > 0 and trained.flat is not None
    for moments in (ckpt.moments.m, ckpt.moments.v):
        assert moments.keys() == trained.keys() and moments.flat.size == trained.flat.size
    assert payload == ckpt.moments.m.flat.tobytes() + ckpt.moments.v.flat.tobytes() + trained.flat.tobytes()

    # loaded, the payload's thirds are the same three vectors, and they step as the trained ones do
    loaded = Checkpoint.load(path)
    assert_loaded_layout(loaded, ckpt)
    pairs, _ = make_pairs(desk_dataset, ckpt.model)
    _, grads, _ = loss_and_grads(ckpt.model, pairs[:8])
    for resumed in (ckpt, loaded):
        resumed.moments.step(resumed.model.parameters(), grads)
    assert_loaded_layout(loaded, ckpt)


def test_checkpoint_load_allocates_only_the_payload(tmp_path):
    # 2.6 MB per vector: a fresh moment or a copied vector on load would exceed the 1 MB margin
    vocab = Vocabulary(num_relations=5, num_entities=40_000)
    ckpt = train(TrainConfig(arch="TreeLSTM", d=8, epochs=0, seed=3), Dataset(), vocab)
    vector_bytes = ckpt.model.parameters().flat.nbytes
    assert vector_bytes >= 2 << 20
    path = tmp_path / "m.ckpt"
    ckpt.save(path)
    tracemalloc.start()
    try:
        loaded = Checkpoint.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * vector_bytes + (1 << 20), peak
    assert_loaded_layout(loaded, ckpt)


def test_train_epochs_zero_equals_init(desk_dataset, desk_vocab):
    cfg = TrainConfig(arch="LSTM", d=16, epochs=0, seed=8)
    ckpt = train(cfg, desk_dataset, desk_vocab)
    fresh = new_model(desk_vocab, "LSTM", cfg.d, cfg.seed, layers=cfg.layers)
    for name, arr in fresh.parameters().items():
        np.testing.assert_array_equal(arr, ckpt.model.parameters()[name])
    assert ckpt.step == 0 and ckpt.history == []


def test_train_same_seed_bit_identical(desk_dataset, desk_vocab, tmp_path):
    cfg = TrainConfig(arch="LSTM", d=16, epochs=2, batch_size=32, seed=9)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    train(cfg, desk_dataset, desk_vocab).save(p1)
    train(cfg, desk_dataset, desk_vocab).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_loss_decreases(desk_dataset, desk_vocab):
    cfg = TrainConfig(arch="LSTM", d=32, epochs=20, batch_size=32, learning_rate=1e-3, seed=10)
    history = train(cfg, desk_dataset, desk_vocab).history
    losses = [h["loss"] for h in history]
    smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
    assert smoothed[-1] < smoothed[0]
    assert all(np.diff(smoothed) < 0.05)  # decreasing trend, minor jitter allowed


def test_train_checkpoint_round_trip(desk_dataset, desk_vocab, tmp_path):
    from cqakit.training import Checkpoint

    cfg = TrainConfig(arch="TreeLSTM", d=16, epochs=1, batch_size=32, seed=11)
    ckpt = train(cfg, desk_dataset, desk_vocab)
    path = tmp_path / "t.ckpt"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.config == cfg
    assert loaded.step == ckpt.step
    for name, arr in ckpt.model.parameters().items():
        np.testing.assert_array_equal(arr, loaded.model.parameters()[name])
    np.testing.assert_array_equal(ckpt.moments.m["table"], loaded.moments.m["table"])


@pytest.mark.parametrize("prefix", ["adam.m.", "adam.v.", "adam.v.enc.U"])
def test_checkpoint_missing_adam_moments_rejected(prefix, desk_dataset, desk_vocab, tmp_path):
    from cqakit.encoders import CheckpointError
    from cqakit.training import Checkpoint

    cfg = TrainConfig(arch="TreeLSTM-NoMemoryCell", d=8, epochs=1, seed=13)
    path = tmp_path / "t.ckpt"
    train(cfg, desk_dataset, desk_vocab).save(path)
    rewrite_checkpoint(path, with_tensors(lambda tensors: {
        name: arr for name, arr in tensors.items() if not name.startswith(prefix)
    }))
    with pytest.raises(CheckpointError, match=prefix):
        Checkpoint.load(path)


def test_tree_batches_group_by_type(desk_dataset, desk_vocab, monkeypatch):
    epochs, batch_size = 2, 8
    per_type: dict[str, int] = {}
    for record in desk_dataset.iter_records():
        per_type[record.type_formula] = per_type.get(record.type_formula, 0) + len(record.train_answers)
    batches = []
    real = training.loss_and_grads

    def recording(model, batch):
        batches.append([p.type_formula for p in batch])
        return real(model, batch)

    monkeypatch.setattr(training, "loss_and_grads", recording)
    for arch in ("TreeLSTM-NoMemoryCell", "LSTM"):
        batches.clear()
        cfg = TrainConfig(arch=arch, d=16, epochs=epochs, batch_size=batch_size, seed=12)
        ckpt = train(cfg, desk_dataset, desk_vocab)
        assert ckpt.step == len(batches)
        if arch == "LSTM":
            assert len(batches) == epochs * math.ceil(sum(per_type.values()) / batch_size)
            assert any(len(set(types)) > 1 for types in batches)
        else:
            assert all(len(set(types)) == 1 for types in batches)
            assert len(batches) == epochs * sum(math.ceil(n / batch_size) for n in per_type.values())


def test_divergence_detector():
    assert not _diverged([{"loss": 1.0}, {"loss": 15.0}])
    assert not _diverged([{"loss": 1.0}, {"loss": 15.0}, {"loss": 0.5}, {"loss": 20.0}])
    assert _diverged([{"loss": 1.0}, {"loss": 11.0}, {"loss": 12.0}, {"loss": 13.0}])


def test_loss_explosion_names_its_guard(monkeypatch):
    losses = iter([1.0, 20.0, 30.0, 40.0, 50.0])

    def exploding(model, batch):
        return next(losses), model.zero_grads(), {}

    monkeypatch.setattr(training, "loss_and_grads", exploding)
    cfg = TrainConfig(arch="LSTM", d=8, epochs=5, seed=0)
    guard = r"loss exceeded 10x the initial value for 3 consecutive epochs \(last losses: \[20.0, 30.0, 40.0\]\)"
    with pytest.raises(TrainingDivergedError, match=f"^training diverged: {guard}$") as info:
        train(cfg, tiny_dataset(), VOCAB100)
    assert [h["loss"] for h in info.value.history] == [1.0, 20.0, 30.0, 40.0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_aborts():
    model = new_model(VOCAB100, "LSTM", d=8, seed=13)
    model.rows[:] = np.inf
    pairs = [Pair(model.prepare([parse_grounded("(p,(0),(e,(1)))")])[0], 2, "t")]
    with pytest.raises(TrainingDivergedError, match=r"^training diverged: non-finite batch loss nan$"):
        loss_and_grads(model, pairs)


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("arch = TreeLSTM\nd = 32\nepochs = 7  # comment\nlearning_rate = 0.01\n")
    mapping = parse_config_file(path)
    cfg = config_from_mapping(mapping)
    assert cfg.arch == "TreeLSTM" and cfg.d == 32 and cfg.epochs == 7
    assert cfg.learning_rate == pytest.approx(0.01)
    mapping["epochs"] = "3"
    assert config_from_mapping(mapping).epochs == 3
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_mapping({"nope": "1"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_file(bad)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(adam_beta1=1.5)
    with pytest.raises(ValueError):
        TrainConfig(precision="half")
    with pytest.raises(ValueError, match="unknown architecture 'nope'"):
        TrainConfig(arch="nope")
    assert TrainConfig(arch="treelstm").arch == "treelstm"  # kept as given: configs and checkpoints keep their bytes
    for key, low in (
        ("d", 1), ("batch_size", 1), ("epochs", 0), ("eval_every", 0),
        ("layers", 1), ("heads", 1), ("max_len", 1), ("rpe_clip", 0),
        ("seed", 0),  # a negative seed has no SeedSequence stream
    ):
        with pytest.raises(ValueError, match=f"^{key} must be >= {low}, got {low - 1}$"):
            TrainConfig(**{key: low - 1})
    TrainConfig(d=1, batch_size=1, epochs=0, eval_every=0, layers=1, heads=1, max_len=1, rpe_clip=0, seed=0)
    # a zero or NaN step size or epsilon trains without error into NaN parameters
    for key in ("learning_rate", "adam_eps"):
        for value in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{key} must be finite and above 0"):
                TrainConfig(**{key: value})


def test_single_precision_trains(desk_dataset, desk_vocab):
    cfg = TrainConfig(arch="LSTM", d=16, epochs=1, batch_size=32, seed=14, precision="single")
    ckpt = train(cfg, desk_dataset, desk_vocab)
    assert np.isfinite(ckpt.history[-1]["loss"])


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_single_precision_is_float32_throughout(arch, desk_dataset, desk_vocab, tmp_path):
    cfg = TrainConfig(arch=arch, d=8, layers=1, heads=2, epochs=1, batch_size=64, seed=15, precision="single")
    ckpt = train(cfg, desk_dataset, desk_vocab)
    model = ckpt.model
    pairs, _ = make_pairs(desk_dataset, model)
    out, cache = model.encode([p.query for p in pairs[::40]])
    assert out.dtype == np.float32
    assert model.entity_scores(out).dtype == np.float32
    grads = model.backward(cache, np.ones(out.shape, np.float32))
    assert grads.keys() == model.parameters().keys()
    assert {name: g.dtype for name, g in grads.items()} == dict.fromkeys(grads, np.float32)
    for moments in (ckpt.moments.m, ckpt.moments.v):
        assert {name: m.dtype for name, m in moments.items()} == dict.fromkeys(grads, np.float32)
    path = tmp_path / "single.ckpt"
    ckpt.save(path)
    _, directory, _ = load_checkpoint(path)
    assert {entry["dtype"] for entry in directory} == {"<f4"}
    loaded = training.Checkpoint.load(path)
    assert loaded.model.encode([p.query for p in pairs[:3]])[0].dtype == np.float32


def test_eval_hook_records_validation_swap(desk_dataset, desk_vocab):
    cfg = TrainConfig(arch="LSTM", d=16, epochs=2, batch_size=32, seed=15, eval_every=1)
    history = train(cfg, desk_dataset, desk_vocab).history
    assert all("val_swap_mrr" in h for h in history)
    assert all(0.0 <= h["val_swap_mrr"] <= 1.0 for h in history)


# -- one encoding per distinct query against the per-pair reference -------------


def per_pair_loss_and_grads(model, batch):
    """Reference: the per-pair loss, one encoding and one score row per pair."""
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


VOCAB12 = Vocabulary(num_relations=4, num_entities=12)
ORACLE_GRAPHS = [
    parse_grounded("(p,(1),(u,(p,(2),(e,(3))),(p,(0),(e,(5)))))"),
    parse_grounded("(i,(p,(0),(e,(2))),(n,(p,(1),(e,(7)))))"),
    parse_grounded("(p,(3),(e,(4)))"),
    parse_grounded("(p,(2),(p,(1),(e,(9))))"),
]
# (graph, target) per pair; the distinct graphs in first-appearance order
ORACLE_BATCHES = {
    "repeated-queries": ([(0, 1), (1, 2), (0, 3), (2, 4), (0, 5), (1, 6), (3, 0), (0, 11)], [0, 1, 2, 3]),
    "repeated-pair": ([(1, 2), (3, 7), (1, 2), (1, 5), (3, 7), (3, 7)], [1, 3]),
    "one-query": ([(2, 0), (2, 1), (2, 2)], [2]),
}
# float32 tolerance, relative to each array's largest magnitude: summing a query's
# pairs before the encoder rounds in another order (worst seen 6.8e-6, Transformer-APE)
F32_TOL = 3e-5


def oracle_model(arch, dtype):
    model = new_model(VOCAB12, arch, d=8, seed=31, layers=2, heads=2, max_len=32, dtype=dtype)
    rng = np.random.default_rng(32)
    for arr in model.parameters().values():  # off the init: nonzero biases, sharper softmax
        arr += (0.5 * rng.normal(size=arr.shape)).astype(dtype)
    return model


def oracle_pairs(model, spec):
    prepared = model.prepare(ORACLE_GRAPHS)  # one object per graph, as make_pairs shares it
    return [Pair(prepared[g], t, "t") for g, t in spec]


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, F32_TOL)], ids=["f64", "f32"])
@pytest.mark.parametrize("batch", ORACLE_BATCHES)
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_distinct_query_loss_matches_per_pair_reference(arch, batch, dtype, tol, monkeypatch):
    spec, distinct = ORACLE_BATCHES[batch]
    model = oracle_model(arch, dtype)
    pairs = oracle_pairs(model, spec)
    ref_loss, ref_grads, _ = per_pair_loss_and_grads(model, pairs)

    encoded = []
    real_encode = type(model).encode

    def spy(self, queries):
        encoded.append(list(queries))
        return real_encode(self, queries)

    monkeypatch.setattr(type(model), "encode", spy)
    loss, grads, diag = loss_and_grads(model, pairs)
    prepared = model.prepare(ORACLE_GRAPHS)
    assert encoded == [[prepared[g] for g in distinct]]  # one encode call, U queries in first-appearance order
    assert diag["prob_sums"].shape == (len(distinct),)
    np.testing.assert_allclose(diag["prob_sums"], 1.0, atol=10 * tol)

    assert abs(loss - ref_loss) <= tol * abs(ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        ref = ref_grads[name]
        assert grad.dtype == ref.dtype == dtype
        # a Transformer key bias cancels in the softmax, so its gradient is rounding noise on
        # both sides and is held to the scale of the same layer's Wk gradient instead
        scale = np.max(np.abs(ref_grads[name[:-2] + "Wk"] if name.endswith(".bk") else ref))
        assert np.max(np.abs(grad - ref)) <= tol * scale, name


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_distinct_queries_only_are_bit_identical_to_per_pair_reference(arch, dtype):
    model = oracle_model(arch, dtype)
    pairs = oracle_pairs(model, [(3, 1), (0, 4), (2, 4), (1, 10)])
    loss, grads, diag = loss_and_grads(model, pairs)
    ref_loss, ref_grads, ref_diag = per_pair_loss_and_grads(model, pairs)
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_grads[name]), name
    assert np.array_equal(diag["prob_sums"], ref_diag["prob_sums"])


@pytest.mark.parametrize("arch", ("LSTM", "TreeLSTM"))
def test_make_pairs_shares_one_prepared_query_per_record(arch, desk_dataset, desk_vocab):
    model = new_model(desk_vocab, arch, d=8, seed=0)
    pairs, _ = make_pairs(desk_dataset, model)
    records = [r for r in desk_dataset.iter_records() if r.train_answers]
    start = 0
    for record in records:
        group = pairs[start : start + len(record.train_answers)]
        start += len(group)
        assert [p.target for p in group] == sorted(record.train_answers)
        assert all(p.query is group[0].query for p in group)
        assert group[0].query == model.prepare([record.query])[0]
    assert start == len(pairs)
    assert len({id(p.query) for p in pairs}) == len(records)


class _FakeMallopt:
    def __init__(self, calls, accept=1):
        self.calls, self.accept = calls, accept

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.accept


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="mallopt is only called on Linux")
def test_train_sets_the_heap_thresholds_once(desk_dataset, desk_vocab, monkeypatch):
    calls = []
    monkeypatch.setattr(training, "_heap_pinned", False)
    monkeypatch.setattr(training.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=_FakeMallopt(calls)))
    cfg = TrainConfig(arch="LSTM", d=8, epochs=1, seed=3)
    train(cfg, desk_dataset, desk_vocab)
    train(cfg, desk_dataset, desk_vocab)
    assert calls == [(-3, 32 << 20), (-1, 2**31 - 1)]  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="mallopt is only called on Linux")
@pytest.mark.parametrize("libc", (types.SimpleNamespace(), types.SimpleNamespace(mallopt=_FakeMallopt([], accept=0))))
def test_train_runs_when_mallopt_is_missing_or_refuses(libc, desk_dataset, desk_vocab, monkeypatch):
    monkeypatch.setattr(training, "_heap_pinned", False)
    monkeypatch.setattr(training.ctypes, "CDLL", lambda name: libc)
    cfg = TrainConfig(arch="LSTM", d=8, epochs=1, seed=3)
    assert len(train(cfg, desk_dataset, desk_vocab).history) == 1
