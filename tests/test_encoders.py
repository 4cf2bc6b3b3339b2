import dataclasses
import hashlib
import json
import math
import os
import threading
import types

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from cqakit.encoders import (
    BiLSTMEncoder,
    CheckpointError,
    FlatTensors,
    QueryModel,
    TransformerEncoder,
    grad_check,
    load_checkpoint,
    new_model,
    normalize_arch,
)
from cqakit.encoders.checkpoint import MAGIC
from cqakit.encoders.gradcheck import NonFiniteLossError
from cqakit.encoders.numerics import (
    layernorm_backward,
    layernorm_forward,
    sigmoid,
    softmax,
    softmax_backward,
)
from cqakit.linearize import KIND_TO_OP, PAD, Vocabulary, linearize
from cqakit.queries import OperatorKind, anchor, builtin_query_types, parse_grounded
from cqakit.rng import make_rng
from cqakit.sampler import Dataset
from cqakit.training import Checkpoint, TrainConfig, train

from conftest import assert_loaded_layout, rewrite_checkpoint, with_tensors

VOCAB = Vocabulary(num_relations=5, num_entities=20)
GRAPHS = [
    parse_grounded("(p,(1),(u,(p,(2),(e,(3))),(p,(0),(e,(5)))))"),
    parse_grounded("(i,(p,(0),(e,(2))),(n,(p,(1),(e,(7)))))"),
    parse_grounded("(e,(4))"),
]
ALL_ARCHS = ("LSTM", "TreeLSTM", "TreeLSTM-NoMemoryCell", "Transformer-APE", "Transformer-RPE")


def cast_params(encoder, dtype):
    """Cast a directly built encoder's float64 parameters to ``dtype``, as ``new_model`` does."""
    encoder.params = {k: v.astype(dtype) for k, v in encoder.params.items()}
    return encoder


def packed_run(enc, x, lengths, d_readout):
    """Run an encoder on the first ``lengths`` tokens of each row of a padded ``x`` (B,T,d).

    Each token is its own embedding row. Returns the readout, the parameter gradients and
    the token gradients laid out like ``x``, zero at padding, as the padded references give them.
    """
    B, T, d = x.shape
    rows = x.reshape(B * T, d)
    out, cache = enc.forward([list(range(b * T, b * T + n)) for b, n in enumerate(lengths)], rows)
    grads = {k: np.zeros_like(v) for k, v in enc.params.items()}
    token_ids, token_grads = enc.backward(cache, d_readout, grads)
    dx = np.zeros_like(rows)
    np.add.at(dx, token_ids, token_grads)
    return out, grads, dx.reshape(B, T, d)


@pytest.mark.parametrize("arch", ALL_ARCHS)
def test_shape_law(arch):
    model = new_model(VOCAB, arch, d=8, seed=1, layers=2, heads=2)
    out, _ = model.encode(model.prepare(GRAPHS))
    assert out.shape == (3, 8)
    assert np.all(np.isfinite(out))


def test_zero_lstm_is_zero_fixed_point():
    model = new_model(VOCAB, "LSTM", d=8, seed=1, layers=3)
    for name in model.encoder.params:
        model.encoder.params[name][:] = 0.0
    out, _ = model.encode(model.prepare(GRAPHS))
    assert np.all(out == 0.0)


def test_treelstm_anchor_locality():
    model = new_model(VOCAB, "TreeLSTM", d=8, seed=2)
    out1, _ = model.encode(model.prepare([anchor(4)]))
    # permuting every other table row must not change the encoding of (e,(4))
    row = VOCAB.entity_token(4)
    other = [i for i in range(VOCAB.size) if i != row]
    model.rows[other] = model.rows[other][::-1]
    out2, _ = model.encode(model.prepare([anchor(4)]))
    np.testing.assert_array_equal(out1, out2)


def table_only_model(vocab, rows):
    """A model over the table ``rows`` whose encoder has no parameters."""
    table = FlatTensors.over(rows.reshape(-1), {"table": rows.shape})
    return QueryModel(vocab, table, types.SimpleNamespace(params={}))


def test_query_model_needs_one_row_per_token():
    with pytest.raises(ValueError, match=f"table has {VOCAB.size - 1} rows, vocabulary needs {VOCAB.size}"):
        table_only_model(VOCAB, np.zeros((VOCAB.size - 1, 4)))


def test_score_all_zero_query():
    model = new_model(VOCAB, "LSTM", d=8, seed=3)
    scores = model.entity_scores(np.zeros(8))
    assert scores.shape == (20,)
    assert np.all(scores == 0.0)
    probs = np.exp(scores) / np.exp(scores).sum()
    np.testing.assert_allclose(probs, np.full(20, 1 / 20))


def test_score_all_orthogonal_argmax():
    model = table_only_model(VOCAB, np.zeros((VOCAB.size, 4)))
    model.rows[VOCAB.entity_token(7)] = np.array([1.0, 0, 0, 0])
    model.rows[VOCAB.entity_token(3)] = np.array([0, 1.0, 0, 0])
    scores = model.entity_scores(np.array([1.0, 0, 0, 0]))
    assert int(np.argmax(scores)) == 7


def test_score_all_hand_computed():
    rng = make_rng(44)
    vocab = Vocabulary(num_relations=2, num_entities=10)
    rows = rng.normal(size=(vocab.size, 3))
    model = table_only_model(vocab, rows)
    e_q = rng.normal(size=3)
    scores = model.entity_scores(e_q)
    for v in range(10):
        expected = sum(e_q[j] * rows[vocab.entity_token(v), j] for j in range(3))
        assert scores[v] == pytest.approx(expected, rel=1e-12)


def test_seed_determinism():
    a = new_model(VOCAB, "Transformer-APE", d=8, seed=5, layers=1, heads=2)
    b = new_model(VOCAB, "Transformer-APE", d=8, seed=5, layers=1, heads=2)
    for name in a.parameters():
        np.testing.assert_array_equal(a.parameters()[name], b.parameters()[name])
    out_a, _ = a.encode(a.prepare(GRAPHS))
    out_b, _ = b.encode(b.prepare(GRAPHS))
    np.testing.assert_array_equal(out_a, out_b)


def test_ablation_variants_differ():
    full = new_model(VOCAB, "TreeLSTM", d=8, seed=6)
    ablated = new_model(VOCAB, "TreeLSTM-NoMemoryCell", d=8, seed=6)
    out_full, _ = full.encode(full.prepare(GRAPHS[:1]))
    out_ablated, _ = ablated.encode(ablated.prepare(GRAPHS[:1]))
    assert not np.allclose(out_full, out_ablated)


@pytest.mark.parametrize("arch", ("LSTM", "Transformer-APE", "Transformer-RPE"))
def test_pad_row_inert(arch):
    model = new_model(VOCAB, arch, d=8, seed=7, layers=1, heads=2)
    queries = model.prepare(GRAPHS)  # varying lengths force padding
    out1, _ = model.encode(queries)
    model.rows[PAD] += 123.456
    out2, _ = model.encode(queries)
    np.testing.assert_array_equal(out1, out2)


# float32: the batch and each lone sequence sum their products over other
# shapes; the largest gap seen is 4.5e-7 of an array's largest value
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 2e-6)], ids=["f64", "f32"])
@pytest.mark.parametrize("arch", ("LSTM", "Transformer-APE", "Transformer-RPE"))
def test_padded_batch_matches_sequences_alone(arch, dtype, tol):
    model = new_model(VOCAB, arch, d=8, seed=9, layers=2, heads=2, dtype=dtype)
    rng = make_rng(10)
    for arr in model.parameters().values():  # off the init: nonzero biases, LN gains != 1
        arr += (0.5 * rng.normal(size=arr.shape)).astype(dtype)
    queries = model.prepare(GRAPHS)
    assert len({len(q) for q in queries}) == len(queries)  # every row but the longest is padded
    d_out = rng.normal(size=(len(queries), model.d)).astype(dtype)

    def assert_close(got, want, name, scale):
        assert got.dtype == want.dtype == dtype, name
        assert np.abs(got - want).max() <= tol * np.abs(scale).max(), name

    out, cache = model.encode(queries)
    grads = model.backward(cache, d_out)
    summed = {}
    for i, query in enumerate(queries):
        alone, alone_cache = model.encode([query])
        assert_close(out[i], alone[0], f"readout {i}", alone[0])
        for name, grad in model.backward(alone_cache, d_out[i : i + 1]).items():
            summed[name] = summed[name] + grad if name in summed else grad
    assert grads.keys() == summed.keys()
    for name, grad in grads.items():
        # q_i . bk is the same for every key j, so the key bias's exact gradient is 0 and
        # both sides hold rounding noise: bound it by its layer's key-weight gradient
        scale = summed[name.replace(".bk", ".Wk")] if name.endswith(".bk") else summed[name]
        assert_close(grad, summed[name], name, scale)


def test_transformer_length_limit():
    model = new_model(VOCAB, "Transformer-APE", d=8, seed=0, layers=1, heads=2, max_len=4)
    with pytest.raises(ValueError, match="exceeds position table"):
        model.encode([[1, 2, 3, 4, 5]])


def test_architecture_names():
    assert normalize_arch("lstm") == "LSTM"
    assert normalize_arch("transformer-rpe") == "Transformer-RPE"
    with pytest.raises(ValueError):
        normalize_arch("cnn")


# -- gradient verification ---------------------------------------------------


def quadratic_probe(model, graphs, seed=0):
    """Deterministic scalar head over the query embeddings for FD checks."""
    w = make_rng(seed).normal(size=(len(graphs), model.d))
    queries = model.prepare(graphs)

    def loss_and_grads():
        out, cache = model.encode(queries)
        loss = float(np.sum(np.tanh(out) * w))
        d_out = (1 - np.tanh(out) ** 2) * w
        return loss, model.backward(cache, d_out)

    return loss_and_grads


def test_grad_check_lstm_toy_batch():
    model = new_model(VOCAB, "LSTM", d=8, seed=9, layers=2)
    err = grad_check(quadratic_probe(model, GRAPHS), model.parameters(), subsample_threshold=40)
    assert err < 1e-4


def test_grad_check_treelstm_2i_query():
    model = new_model(VOCAB, "TreeLSTM", d=8, seed=10)
    g = parse_grounded("(i,(p,(1),(e,(2))),(p,(0),(e,(9))))")
    err = grad_check(quadratic_probe(model, [g]), model.parameters(), subsample_threshold=40)
    assert err < 1e-4


def test_grad_check_constant_loss_zeros():
    model = new_model(VOCAB, "LSTM", d=8, seed=11, layers=1)
    queries = model.prepare(GRAPHS[:1])

    def constant():
        out, cache = model.encode(queries)
        grads = model.backward(cache, np.zeros_like(out))
        return 0.0, grads

    assert grad_check(constant, model.parameters(), subsample_threshold=20) == 0.0


def test_grad_check_nonfinite_loss():
    def bad():
        return float("nan"), {}

    with pytest.raises(NonFiniteLossError):
        grad_check(bad, {"w": np.zeros(1)})


# -- checkpoints ---------------------------------------------------------------


def saved_checkpoint(path, arch, seed, **config):
    """Write the untrained (epochs=0) checkpoint of a d=8 model over VOCAB."""
    ckpt = train(TrainConfig(arch=arch, d=8, epochs=0, seed=seed, **config), Dataset(), VOCAB)
    ckpt.save(path)
    return ckpt


def assert_same_model(a, b):
    assert a.arch == b.arch and a.d == b.d
    for name, arr in a.parameters().items():
        np.testing.assert_array_equal(arr, b.parameters()[name])
    out_a, _ = a.encode(a.prepare(GRAPHS))
    out_b, _ = b.encode(b.prepare(GRAPHS))
    np.testing.assert_array_equal(out_a, out_b)


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "m.ckpt"
    saved = saved_checkpoint(path, "LSTM", seed=12)
    loaded = Checkpoint.load(path)
    assert loaded.config == saved.config and loaded.step == 0
    assert loaded.model.arch == "LSTM" and loaded.model.d == 8
    assert_same_model(saved.model, loaded.model)


@pytest.mark.parametrize("arch,precision,digest", [
    ("LSTM", "double", "620618874000f02927b98569a7ee3a69cf2086f92e3c5faab51bd108cdc00fa9"),
    ("LSTM", "single", "5b411ade7ef6eb75a3b1d2de36cd271140f420079ab5f401cf06b093138e7e81"),
    ("TreeLSTM", "double", "343374e464d6cf89aa2927a8037fae972c172df022af234d0b49a318589bc84b"),
    ("TreeLSTM", "single", "535f0b15b5480a685cbf6c0bc56d8591d8122b34e9352c2122a7f8c63d18f2f1"),
    ("Transformer-RPE", "double", "9d9dda390a25f37eb4489ba8f3b2c181b78e2d750fe57ff62d2d0dd0f57d0fe2"),
    ("Transformer-RPE", "single", "48e1973f39d30bc8996e39350d35772e7069fe489f41cea0f8a159751cdb0dff"),
])
def test_checkpoint_bytes_pinned(arch, precision, digest, tmp_path):
    # sha256 recorded from the writer that joined every tensor's bytes into one
    # payload before hashing and writing it
    path = tmp_path / "m.ckpt"
    heads = {"heads": 2} if arch.startswith("Transformer") else {}
    saved_checkpoint(path, arch, seed=23, precision=precision, **heads)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


TREE_PARAM_NAMES = {
    "TreeLSTM": {f"{w}{g}" for w in "WUb" for g in "ifou"},
    "TreeLSTM-NoMemoryCell": {"W", "U", "b"},
}


@pytest.mark.parametrize("arch", sorted(TREE_PARAM_NAMES))
def test_tree_checkpoint_round_trip(arch, tmp_path):
    path = tmp_path / "m.ckpt"
    saved = saved_checkpoint(path, arch, seed=15)
    assert set(saved.model.encoder.params) == TREE_PARAM_NAMES[arch]
    _, directory, _ = load_checkpoint(path)
    names = {"table"} | {f"enc.{k}" for k in TREE_PARAM_NAMES[arch]}
    stored = {entry["name"] for entry in directory}
    assert stored == {prefix + n for prefix in ("", "adam.m.", "adam.v.") for n in names}
    assert_same_model(saved.model, Checkpoint.load(path).model)


@pytest.mark.parametrize("arch,dropped", [("TreeLSTM", "enc.Wf"), ("LSTM", "table"),
                                          ("TreeLSTM-NoMemoryCell", "table")])
def test_checkpoint_missing_tensor_rejected(arch, dropped, tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, arch, seed=16)
    rewrite_checkpoint(path, with_tensors(lambda tensors: {k: a for k, a in tensors.items() if k != dropped}))
    with pytest.raises(CheckpointError, match=dropped):
        Checkpoint.load(path)


def test_checkpoint_table_shape_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "TreeLSTM", seed=17)
    rewrite_checkpoint(path, with_tensors(lambda tensors: {**tensors, "table": tensors["table"][:, :4]}))
    with pytest.raises(CheckpointError, match="table"):
        Checkpoint.load(path)


def test_checkpoint_vocab_hash_mismatch(tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "LSTM", seed=13)
    # the table no longer matches the recorded layout
    rewrite_checkpoint(path, lambda meta, directory, payload: meta.update(num_entities=21))
    with pytest.raises(CheckpointError, match="vocabulary layout"):
        Checkpoint.load(path)


def test_checkpoint_negative_step_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "LSTM", seed=19)
    rewrite_checkpoint(path, lambda meta, directory, payload: meta.update(step=-7))
    with pytest.raises(CheckpointError, match="'step' must be >= 0, found -7"):
        Checkpoint.load(path)


def test_checkpoint_detects_corruption(tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "LSTM", seed=14)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        Checkpoint.load(path)


def test_checkpoint_one_dtype(tmp_path):
    path = tmp_path / "m.ckpt"
    saved = saved_checkpoint(path, "Transformer-RPE", seed=18, heads=2, precision="single")
    loaded = Checkpoint.load(path)
    assert {arr.dtype for arr in loaded.model.parameters().values()} == {np.dtype(np.float32)}
    assert_same_model(saved.model, loaded.model)
    saved_checkpoint(path, "LSTM", seed=18)
    rewrite_checkpoint(path, with_tensors(lambda tensors: {**tensors, "table": tensors["table"].astype(np.float32)}))
    found = r'expected \{"dtype":"<f8","name":"table".*found \{"dtype":"<f4","name":"table"'
    with pytest.raises(CheckpointError, match=found):
        Checkpoint.load(path)


def on_meta(edit):
    return lambda meta, directory, payload: edit(meta)


@pytest.mark.parametrize("edit,match", [
    (with_tensors(lambda tensors: dict(sorted({**tensors, "enc.extra": np.zeros(3)}.items()))),
     r"unexpected tensors \['enc.extra'\]"),
    (on_meta(lambda meta: meta.pop("train_config")), "meta needs 'train_config' of type dict"),
    (on_meta(lambda meta: meta.update(step="7")), "meta needs 'step' of type int"),
    (on_meta(lambda meta: meta["train_config"].update(arch=5)), "config key 'arch' expects str"),
    (on_meta(lambda meta: meta["train_config"].update(arch="CNN")), "unknown architecture"),
    (on_meta(lambda meta: meta["train_config"].update(heads=0)), "heads must be >= 1, got 0"),
], ids=["extra-tensor", "no-train-config", "string-step", "numeric-arch", "unknown-arch", "zero-heads"])
def test_checkpoint_bad_meta_or_tensors_rejected(edit, match, tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "TreeLSTM", seed=19)
    rewrite_checkpoint(path, edit)
    with pytest.raises(CheckpointError, match=match):
        Checkpoint.load(path)


@pytest.mark.parametrize("manifest,match", [
    (b"5", "manifest is not an object"),
    (b"[" * 100_000 + b"]" * 100_000, "bad manifest"),
], ids=["number", "deep-nesting"])
def test_checkpoint_bad_manifest_rejected(manifest, match, tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "LSTM", seed=21)
    _, _, payload = path.read_bytes().split(b"\n", 2)
    path.write_bytes(MAGIC + manifest + b"\n" + payload)
    with pytest.raises(CheckpointError, match=match):
        Checkpoint.load(path)


def on_entry(index, edit):
    return lambda meta, directory, payload: edit(directory[index])


# each mismatch names the first entry that differs, as the expected and the found canonical JSON
@pytest.mark.parametrize("edit,match", [
    (on_entry(0, lambda entry: entry.update(dtype=None)),
     r'tensor entry 0: expected \{"dtype":"<f8".*found \{"dtype":null'),
    (on_entry(0, lambda entry: entry.update(dtype="<f2")), r'found \{"dtype":"<f2"'),
    (on_entry(0, lambda entry: entry.update(shape=[-4, 2])), r'found \{.*"shape":\[-4,2\]'),
    # the element count is unchanged
    (on_entry(0, lambda entry: entry["shape"].append(True)), r'found \{.*"shape":\[.*,true\]'),
    (on_entry(0, lambda entry: entry.update(offset=False)), r'found \{.*"offset":false'),
    (on_entry(0, lambda entry: entry.update(nbytes=8)), r'found \{.*"nbytes":8,'),
    (on_entry(-1, lambda entry: entry.update(offset=10**6)),
     r'tensor entry \d+: .*found \{.*"offset":1000000,'),
    (lambda meta, directory, payload: directory.extend(directory),
     r"tensor entry \d+: expected no entry, found \{"),
], ids=["entry-without-dtype", "unknown-dtype", "negative-dim", "bool-dim", "bool-offset", "size-not-shape",
        "past-payload", "listed-twice"])
def test_checkpoint_bad_directory_rejected(edit, match, tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "LSTM", seed=21)
    rewrite_checkpoint(path, edit)
    with pytest.raises(CheckpointError, match=match):
        Checkpoint.load(path)


def swap_offsets(meta, directory, payload):
    first, second = directory[:2]
    first["offset"], second["offset"] = second["offset"], first["offset"]


@pytest.mark.parametrize("edit,match", [
    (swap_offsets, r'tensor entry 0: expected \{.*"offset":0,.*found \{.*"offset":[1-9]'),
    (on_entry(1, lambda entry: entry.update(offset=0)),
     r'tensor entry 1: expected \{.*"offset":[1-9]\d*,.*found \{.*"offset":0,'),
    (lambda meta, directory, payload: directory.reverse(),
     r'tensor entry 0: expected \{.*found \{.*"name":"table"'),
    (lambda meta, directory, payload: payload.extend(b"\0" * 8),
     r"the payload holds \d+ bytes, the directory \d+"),
], ids=["swapped-offsets", "overlapping", "listed-out-of-order", "trailing-bytes"])
def test_checkpoint_directory_must_tile_the_payload(edit, match, tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "LSTM", seed=24)
    rewrite_checkpoint(path, edit)
    with pytest.raises(CheckpointError, match=match):
        Checkpoint.load(path)


def test_checkpoint_directory_must_list_sorted_names(tmp_path):
    # stored in reverse name order, the directory still tiles the payload
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "TreeLSTM", seed=24)
    rewrite_checkpoint(path, with_tensors(lambda tensors: dict(reversed(tensors.items()))))
    found = r'tensor entry 0: expected \{.*"name":"adam\.m\.enc\..*found \{.*"name":"table"'
    with pytest.raises(CheckpointError, match=found):
        Checkpoint.load(path)


def test_loaded_tensors_are_views_of_one_buffer(tmp_path):
    path = tmp_path / "m.ckpt"
    saved = saved_checkpoint(path, "TreeLSTM", seed=25)
    loaded = Checkpoint.load(path)
    tensors = [arr for third in (loaded.moments.m, loaded.moments.v, loaded.model.parameters())
               for arr in third.values()]
    assert len({id(arr.base) for arr in tensors}) == 1
    assert all(arr.flags.writeable and arr.flags.aligned for arr in tensors)
    assert_same_model(saved.model, loaded.model)
    assert_loaded_layout(loaded, saved)


def test_checkpoint_loads_from_a_pipe(tmp_path):
    # a pipe has no size to preallocate from, so the payload comes from the read after it
    path, pipe = tmp_path / "m.ckpt", tmp_path / "pipe"
    saved = saved_checkpoint(path, "LSTM", seed=26)
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),))
    writer.start()
    try:
        loaded = Checkpoint.load(pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert_same_model(saved.model, loaded.model)
    assert_loaded_layout(loaded, saved)


def test_checkpoint_with_older_meta_keys_loads(tmp_path):
    # earlier writers also recorded the architecture and sizes beside train_config
    path = tmp_path / "m.ckpt"
    saved = saved_checkpoint(path, "Transformer-APE", seed=20, heads=2)
    older = {"arch": "Transformer-APE", "d": 8, "layers": 2, "heads": 2, "max_len": 64,
             "rpe_clip": 16, "readout": "position0"}
    rewrite_checkpoint(path, lambda meta, directory, payload: meta.update(older))
    assert_same_model(saved.model, Checkpoint.load(path).model)


def test_positional_schemes_differ():
    # same seed, same queries: absolute vs relative positions must not collapse
    ape = new_model(VOCAB, "Transformer-APE", d=8, seed=21, layers=1, heads=2)
    rpe = new_model(VOCAB, "Transformer-RPE", d=8, seed=21, layers=1, heads=2)
    out_a, _ = ape.encode(ape.prepare(GRAPHS[:1]))
    out_r, _ = rpe.encode(rpe.prepare(GRAPHS[:1]))
    assert not np.allclose(out_a, out_r)


def test_rpe_shifts_attention_by_distance():
    # two two-token sequences with the tokens swapped: with RPE the readout
    # depends on relative order, so the outputs must differ
    model = new_model(VOCAB, "Transformer-RPE", d=8, seed=22, layers=1, heads=2)
    a, _ = model.encode([[1, 2]])
    b, _ = model.encode([[2, 1]])
    assert not np.allclose(a, b)



def piecewise_sigmoid(z):
    """Reference: the boolean-mask form, each branch on its own elements."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_bit_identical_to_piecewise_reference(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    edges = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1000 * tiny, -1000 * tiny]
    rng = make_rng(55)
    z = np.concatenate([edges, rng.normal(size=4000), rng.normal(scale=40, size=4000)]).astype(dtype)
    out = sigmoid(z)
    assert out.dtype == dtype
    assert np.array_equal(out, piecewise_sigmoid(z), equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(piecewise_sigmoid(z)))

# -- attention against the einsum reference --------------------------------------


class EinsumAttention(TransformerEncoder):
    """Slow reference: every contraction of the attention core as a 4-D ``np.einsum``."""

    def _attend(self, q, k, v):
        p = self.params
        scale = 1.0 / math.sqrt(self.head_dim)  # a Python float keeps float32 logits float32
        logits = np.einsum("bhid,bhjd->bhij", q, k) * scale  # (n,H,Lq,L)
        ridx = None
        if self.relative:
            ridx = self._rel_index(k.shape[2])[: q.shape[2]]
            rel_k = p["rel"][ridx]  # (Lq,L,hd)
            logits = logits + np.einsum("bhid,ijd->bhij", q, rel_k) * scale
        attn = softmax(logits, axis=-1)  # (n,H,Lq,L)
        ctx = np.einsum("bhij,bhjd->bhid", attn, v)
        return ctx, (q, k, v, attn, ridx)

    def _attend_backward(self, cache, d_ctx, grads):
        p = self.params
        q, k, v, attn, ridx = cache
        scale = 1.0 / math.sqrt(self.head_dim)  # a Python float keeps float32 logits float32

        d_attn = np.einsum("bhid,bhjd->bhij", d_ctx, v)
        dv = np.einsum("bhij,bhid->bhjd", attn, d_ctx)
        d_logits = softmax_backward(attn, d_attn)

        dq = np.einsum("bhij,bhjd->bhid", d_logits, k) * scale
        dk = np.einsum("bhij,bhid->bhjd", d_logits, q) * scale
        if self.relative:
            rel_k = p["rel"][ridx]
            dq += np.einsum("bhij,ijd->bhid", d_logits, rel_k) * scale
            d_rel_pairs = np.einsum("bhij,bhid->ijd", d_logits, q) * scale
            np.add.at(grads["rel"], ridx, d_rel_pairs)
        return dq, dk, dv


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("relative", [False, True], ids=["APE", "RPE"])
@pytest.mark.parametrize("T, heads", [(1, 2), (5, 1), (9, 8), (11, 2)])
def test_matmul_attention_matches_einsum_reference(T, heads, relative, dtype, tol):
    # rpe_clip=2: from T=6 on, the two edge buckets hold several offsets
    d, B, seed = 8, 6, 100 * T + heads
    enc = TransformerEncoder(d, 2, heads, make_rng(seed), relative, max_len=16, rpe_clip=2)
    ref = EinsumAttention(d, 2, heads, make_rng(seed), relative, max_len=16, rpe_clip=2)
    rng = make_rng(seed, 1)
    for name, arr in enc.params.items():  # off the init: nonzero biases, LN gains != 1
        arr[...] = rng.normal(size=arr.shape)
        ref.params[name][...] = arr
    cast_params(enc, dtype)
    cast_params(ref, dtype)
    x = rng.normal(size=(B, T, d)).astype(dtype)
    lengths = rng.integers(1, T + 1, size=B)
    lengths[0] = T
    d_readout = rng.normal(size=(B, d)).astype(dtype)

    out, grads, dx = packed_run(enc, x, lengths, d_readout)
    ref_out, ref_grads, ref_dx = packed_run(ref, x, lengths, d_readout)
    assert out.dtype == ref_out.dtype == dx.dtype == ref_dx.dtype == dtype
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=tol)
    np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=tol)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert grad.dtype == ref_grads[name].dtype
        np.testing.assert_allclose(grad, ref_grads[name], rtol=tol, atol=tol, err_msg=name)


def test_grad_check_rpe_clipped_buckets():
    # rpe_clip=2 leaves 5 buckets; the 17-token query puts offsets 3..16 into
    # the edge buckets, and the one-token query pads the batch
    model = new_model(VOCAB, "Transformer-RPE", d=8, seed=23, layers=1, heads=2, rpe_clip=2)
    graphs = [GRAPHS[0], GRAPHS[2]]
    assert max(len(q) for q in model.prepare(graphs)) >= 6
    err = grad_check(quadratic_probe(model, graphs), model.parameters(), subsample_threshold=40)
    assert err < 1e-4


# -- position-0 sequence encoders against the full-sequence references -----------


class FullSequenceTransformer(TransformerEncoder):
    """Slow reference: every block, the last included, at all T positions, padded keys masked."""

    def _split(self, x):
        B, T, _ = x.shape
        return x.reshape(B, T, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x):
        B, H, T, hd = x.shape
        return x.transpose(0, 2, 1, 3).reshape(B, T, H * hd)

    def _attention(self, a, mask, l):
        p = self.params
        B, T, d = a.shape
        H, hd = self.heads, self.head_dim
        q = self._split(a @ p[f"l{l}.Wq"] + p[f"l{l}.bq"])  # (B,H,T,hd)
        k = self._split(a @ p[f"l{l}.Wk"] + p[f"l{l}.bk"])
        v = self._split(a @ p[f"l{l}.Wv"] + p[f"l{l}.bv"])
        scale = 1.0 / math.sqrt(hd)  # a Python float keeps float32 logits float32
        logits = q @ k.swapaxes(-1, -2)  # (B,H,T,T)
        rel = None
        if self.relative:
            # one (B·H, hd) @ (hd, T) matmul per query position i:
            # q_i . rel[clip(j-i)] for every key j
            ridx = self._rel_index(T)
            rel_k = p["rel"][ridx]  # (T,T,hd)
            q_rows = q.transpose(2, 0, 1, 3).reshape(T, B * H, hd)
            rel_logits = q_rows @ rel_k.swapaxes(-1, -2)  # (T,B·H,T)
            logits += rel_logits.reshape(T, B, H, T).transpose(1, 2, 0, 3)
            rel = (ridx, rel_k, q_rows)
        key_mask = mask[:, None, None, :]  # (B,1,1,T)
        # finite mask value: exp(-1e9) underflows to exactly 0.0
        logits = np.where(key_mask > 0, logits * scale, -1e9)
        attn = softmax(logits, axis=-1)  # (B,H,T,T)
        merged = self._merge(attn @ v)
        out = merged @ p[f"l{l}.Wo"] + p[f"l{l}.bo"]
        return out, (a, q, k, v, attn, merged, rel, l)

    def _attention_backward(self, cache, d_out, grads):
        p = self.params
        a, q, k, v, attn, merged, rel, l = cache
        B, H, T, hd = q.shape

        grads[f"l{l}.Wo"] += merged.reshape(-1, self.d).T @ d_out.reshape(-1, self.d)
        grads[f"l{l}.bo"] += d_out.sum(axis=(0, 1))
        d_merged = d_out @ p[f"l{l}.Wo"].T
        d_ctx = self._split(d_merged)

        d_attn = d_ctx @ v.swapaxes(-1, -2)
        dv = attn.swapaxes(-1, -2) @ d_ctx
        d_logits = softmax_backward(attn, d_attn)  # masked keys: attn=0 -> 0
        d_logits *= 1.0 / math.sqrt(hd)

        dq = d_logits @ k
        dk = d_logits.swapaxes(-1, -2) @ q
        if self.relative:
            ridx, rel_k, q_rows = rel
            d_rows = d_logits.transpose(2, 0, 1, 3).reshape(T, B * H, T)
            dq += (d_rows @ rel_k).reshape(T, B, H, hd).transpose(1, 2, 0, 3)
            d_rel_pairs = d_rows.swapaxes(-1, -2) @ q_rows  # (T,T,hd)
            # each bucket sums the pairs (i, j) whose clipped offset it holds
            buckets = np.arange(p["rel"].shape[0])[:, None] == ridx.reshape(1, -1)
            grads["rel"] += buckets.astype(d_rel_pairs.dtype) @ d_rel_pairs.reshape(T * T, hd)

        da = np.zeros_like(a)
        for name, grad_heads in (("Wq", dq), ("Wk", dk), ("Wv", dv)):
            flat = self._merge(grad_heads)  # (B,T,d)
            grads[f"l{l}.{name}"] += a.reshape(-1, self.d).T @ flat.reshape(-1, self.d)
            grads[f"l{l}.b{name[1]}"] += flat.sum(axis=(0, 1))
            da += flat @ p[f"l{l}.{name}"].T
        return da

    def forward(self, x: np.ndarray, mask: np.ndarray):
        """x: (B,T,d) embedded tokens; mask: (B,T). Returns ((B,d), cache)."""
        p = self.params
        B, T, _ = x.shape
        mask = mask.astype(x.dtype)
        if not self.relative:
            if T > self.max_len:
                raise ValueError(f"sequence length {T} exceeds position table {self.max_len}")
            h = x + p["pos"][:T]
        else:
            h = x
        blocks = []
        for l in range(self.layers):
            a, ln1_cache = layernorm_forward(h, p[f"l{l}.ln1.g"], p[f"l{l}.ln1.b"])
            attn_out, attn_cache = self._attention(a, mask, l)
            h1 = h + attn_out
            f, ln2_cache = layernorm_forward(h1, p[f"l{l}.ln2.g"], p[f"l{l}.ln2.b"])
            z1 = f @ p[f"l{l}.W1"] + p[f"l{l}.b1"]
            relu = np.maximum(z1, 0.0)
            ffn_out = relu @ p[f"l{l}.W2"] + p[f"l{l}.b2"]
            h = h1 + ffn_out
            blocks.append((ln1_cache, attn_cache, ln2_cache, f, z1, relu))
        y, lnf_cache = layernorm_forward(h, p["lnf.g"], p["lnf.b"])
        readout = y[:, 0]
        return readout, (x.shape, blocks, lnf_cache)

    def backward(self, cache, d_readout: np.ndarray):
        p = self.params
        (B, T, d), blocks, lnf_cache = cache
        grads = {k: np.zeros_like(v) for k, v in p.items()}

        dy = np.zeros((B, T, d), dtype=d_readout.dtype)
        dy[:, 0] = d_readout
        dh, dg, db = layernorm_backward(dy, lnf_cache, p["lnf.g"])
        grads["lnf.g"] += dg
        grads["lnf.b"] += db

        for l in range(self.layers - 1, -1, -1):
            ln1_cache, attn_cache, ln2_cache, f, z1, relu = blocks[l]
            # FFN sublayer: h = h1 + W2·relu(W1·LN2(h1))
            d_ffn = dh
            grads[f"l{l}.W2"] += relu.reshape(-1, 4 * d).T @ d_ffn.reshape(-1, d)
            grads[f"l{l}.b2"] += d_ffn.sum(axis=(0, 1))
            d_relu = d_ffn @ p[f"l{l}.W2"].T
            dz1 = d_relu * (z1 > 0)
            grads[f"l{l}.W1"] += f.reshape(-1, d).T @ dz1.reshape(-1, 4 * d)
            grads[f"l{l}.b1"] += dz1.sum(axis=(0, 1))
            df = dz1 @ p[f"l{l}.W1"].T
            dh1, dg2, db2 = layernorm_backward(df, ln2_cache, p[f"l{l}.ln2.g"])
            grads[f"l{l}.ln2.g"] += dg2
            grads[f"l{l}.ln2.b"] += db2
            dh1 = dh1 + dh  # residual
            # attention sublayer: h1 = h + MHA(LN1(h))
            da = self._attention_backward(attn_cache, dh1, grads)
            dh, dg1, db1 = layernorm_backward(da, ln1_cache, p[f"l{l}.ln1.g"])
            grads[f"l{l}.ln1.g"] += dg1
            grads[f"l{l}.ln1.b"] += db1
            dh = dh + dh1  # residual
        if not self.relative:
            grads["pos"][:T] += dh.sum(axis=0)
        return grads, dh


class PerStepBiLSTM(BiLSTMEncoder):
    """Slow reference: both directions of every layer run all T steps, one step at a time.

    The top forward direction has no ``Wh``: its state at position 0, the one the readout
    reads, comes from h = 0. Its later steps, which reach nothing, run with a zero ``Wh``.
    """

    def _run_direction(self, x, mask, l, dir_):
        """One direction of one layer. x: (B,T,d) layer input, mask: (B,T)."""
        B, T, _ = x.shape
        h_dim = self.hidden
        Wx = self.params[f"l{l}.{dir_}.Wx"]
        Wh = self.params.get(f"l{l}.{dir_}.Wh", np.zeros((h_dim, 4 * h_dim), dtype=x.dtype))
        b = self.params[f"l{l}.{dir_}.b"]
        order = range(T) if dir_ == "fwd" else range(T - 1, -1, -1)

        gates = np.zeros((T, B, 4 * h_dim), dtype=x.dtype)  # post-activation
        tanh_c = np.zeros((T, B, h_dim), dtype=x.dtype)  # tanh(c_new)
        h_prevs = np.zeros((T, B, h_dim), dtype=x.dtype)
        c_prevs = np.zeros((T, B, h_dim), dtype=x.dtype)
        h_out = np.zeros((B, T, h_dim), dtype=x.dtype)  # masked states per position

        h = np.zeros((B, h_dim), dtype=x.dtype)
        c = np.zeros((B, h_dim), dtype=x.dtype)
        for t in order:
            m = mask[:, t : t + 1]
            z = x[:, t] @ Wx + h @ Wh + b
            i = sigmoid(z[:, :h_dim])
            f = sigmoid(z[:, h_dim : 2 * h_dim])
            o = sigmoid(z[:, 2 * h_dim : 3 * h_dim])
            g = np.tanh(z[:, 3 * h_dim :])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h_new = o * tc

            gates[t] = np.concatenate([i, f, o, g], axis=1)
            tanh_c[t] = tc
            h_prevs[t] = h
            c_prevs[t] = c

            h = m * h_new + (1.0 - m) * h
            c = m * c_new + (1.0 - m) * c
            h_out[:, t] = h
        cache = (x, mask, gates, tanh_c, h_prevs, c_prevs, order, l, dir_)
        return h_out, cache

    def _run_direction_backward(self, cache, dh_out, grads):
        """BPTT for one direction. dh_out: (B,T,H) grads on the stored states."""
        x, mask, gates, tanh_c, h_prevs, c_prevs, order, l, dir_ = cache
        B, T, _ = x.shape
        h_dim = self.hidden
        Wx = self.params[f"l{l}.{dir_}.Wx"]
        Wh = self.params.get(f"l{l}.{dir_}.Wh", np.zeros((h_dim, 4 * h_dim), dtype=x.dtype))
        dWx = grads[f"l{l}.{dir_}.Wx"]
        dWh = grads.get(f"l{l}.{dir_}.Wh", np.zeros_like(Wh))
        db = grads[f"l{l}.{dir_}.b"]
        dx = np.zeros_like(x)

        dh_carry = np.zeros((B, h_dim), dtype=x.dtype)
        dc_carry = np.zeros((B, h_dim), dtype=x.dtype)
        for t in reversed(list(order)):
            m = mask[:, t : t + 1]
            i = gates[t][:, :h_dim]
            f = gates[t][:, h_dim : 2 * h_dim]
            o = gates[t][:, 2 * h_dim : 3 * h_dim]
            g = gates[t][:, 3 * h_dim :]
            tc = tanh_c[t]

            dh_total = dh_out[:, t] + dh_carry
            dc_total = dc_carry
            # gradient through h_t = m*h_new + (1-m)*h_prev (and same for c)
            dh_new = m * dh_total
            dh_prev = (1.0 - m) * dh_total
            dc_new = m * dc_total
            dc_prev = (1.0 - m) * dc_total

            do = dh_new * tc
            dc_new = dc_new + dh_new * o * (1.0 - tc * tc)
            df = dc_new * c_prevs[t]
            dc_prev = dc_prev + dc_new * f
            di = dc_new * g
            dg = dc_new * i

            dz = np.concatenate(
                [di * i * (1 - i), df * f * (1 - f), do * o * (1 - o), dg * (1 - g * g)],
                axis=1,
            )
            dx[:, t] = dz @ Wx.T
            dWx += x[:, t].T @ dz
            dWh += h_prevs[t].T @ dz
            db += dz.sum(axis=0)
            dh_carry = dz @ Wh.T + dh_prev
            dc_carry = dc_prev
        return dx

    def forward(self, x: np.ndarray, mask: np.ndarray):
        """x: (B,T,d) embedded tokens; mask: (B,T) 1.0 at real positions.

        Returns the (B,d) readout (forward/backward states at position 0)
        and a cache for :meth:`backward`.
        """
        mask = mask.astype(x.dtype)
        caches = []
        layer_in = x
        for l in range(self.layers):
            hf, cf = self._run_direction(layer_in, mask, l, "fwd")
            hb, cb = self._run_direction(layer_in, mask, l, "bwd")
            caches.append((cf, cb))
            layer_in = np.concatenate([hf, hb], axis=2)
        readout = layer_in[:, 0]  # (B, d): [h_fwd[0] | h_bwd[0]] of the top layer
        return readout, (caches, x.shape)

    def backward(self, cache, d_readout: np.ndarray):
        """Returns (param grads, d_input (B,T,d))."""
        caches, in_shape = cache
        B, T, d = in_shape
        h_dim = self.hidden
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}

        d_layer_out = np.zeros((B, T, d), dtype=d_readout.dtype)
        d_layer_out[:, 0] = d_readout
        for l in range(self.layers - 1, -1, -1):
            cf, cb = caches[l]
            dxf = self._run_direction_backward(cf, d_layer_out[:, :, :h_dim], grads)
            dxb = self._run_direction_backward(cb, d_layer_out[:, :, h_dim:], grads)
            d_layer_out = dxf + dxb
        return grads, d_layer_out


# each sequence architecture: (the encoder, its full-sequence reference)
FULL_SEQUENCE = {
    "LSTM": (BiLSTMEncoder, PerStepBiLSTM),
    "Transformer-APE": (TransformerEncoder, FullSequenceTransformer),
    "Transformer-RPE": (TransformerEncoder, FullSequenceTransformer),
}


def sequence_encoder(cls, arch, layers, heads, dtype):
    d = 8
    if arch == "LSTM":
        return cast_params(cls(d, layers, make_rng(51)), dtype)
    relative = arch == "Transformer-RPE"
    return cast_params(cls(d, layers, heads, make_rng(51), relative, max_len=12, rpe_clip=2), dtype)


# every case pads a batch of six; d=8, max_len=12 and rpe_clip=2 (so five buckets)
SEQUENCE_BATCHES = {
    "one-token": (1, 1, [1, 1, 1, 1, 1, 1]),
    "padded-to-one": (7, 8, [7, 1, 3, 1, 6, 2]),
    "max-len": (12, 1, [12, 12, 1, 12, 5, 12]),
    "long-rpe": (12, 8, [12, 9, 6, 1, 11, 4]),
}


# float32: N(0,1) weights through three layers amplify rounding; the largest
# elementwise gap over these cases is 1.2e-5, against 1.2e-7 machine epsilon
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 5e-5)])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("arch", sorted(FULL_SEQUENCE))
@pytest.mark.parametrize("batch", sorted(SEQUENCE_BATCHES))
def test_position0_encoders_match_full_sequence_reference(batch, arch, layers, dtype, tol):
    T, heads, lengths = SEQUENCE_BATCHES[batch]
    enc, ref = (sequence_encoder(cls, arch, layers, heads, dtype) for cls in FULL_SEQUENCE[arch])
    rng = make_rng(52)
    for name, arr in enc.params.items():  # off the init: nonzero biases, LN gains != 1
        arr[...] = rng.normal(size=arr.shape)
        ref.params[name][...] = arr
    x = rng.normal(size=(len(lengths), T, 8)).astype(dtype)
    mask = (np.arange(T)[None, :] < np.array(lengths)[:, None]).astype(dtype)
    d_readout = rng.normal(size=(len(lengths), 8)).astype(dtype)

    out, grads, dx = packed_run(enc, x, lengths, d_readout)
    ref_out, ref_cache = ref.forward(x, mask)
    ref_grads, ref_dx = ref.backward(ref_cache, d_readout)
    assert out.dtype == ref_out.dtype and dx.dtype == ref_dx.dtype
    np.testing.assert_allclose(out, ref_out, rtol=tol, atol=tol)
    np.testing.assert_allclose(dx, ref_dx, rtol=tol, atol=tol)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert grad.dtype == dtype
        np.testing.assert_allclose(grad, ref_grads[name], rtol=tol, atol=tol, err_msg=name)



def test_top_layer_computes_position_zero_only():
    # a silent revert to padded work or to full-sequence top layers keeps the outputs,
    # so count the work. Attention cells: each length-L row holds H·L² in a lower block,
    # H·L in the top one. LSTM rows: step t runs the n_t rows still longer than t, so a
    # direction over every step runs Σ lengths rows, and the top forward direction runs B
    lengths, heads, d = [9, 4, 1, 4, 9, 6, 4], 2, 8
    B, T, N = len(lengths), max(lengths), sum(lengths)
    rows = make_rng(53).normal(size=(N, d))
    queries = [list(range(a, a + L)) for a, L in zip(np.cumsum([0] + lengths[:-1]).tolist(), lengths)]
    transformer = TransformerEncoder(d, 3, heads, make_rng(54), relative=True)
    _, (_, _, blocks, _) = transformer.forward(queries, rows)
    cells = [sum(core[3].size for core in attn_cache[3]) for _, attn_cache, *_ in blocks]
    assert cells == [heads * sum(L * L for L in lengths)] * 2 + [heads * sum(lengths)]
    lstm = BiLSTMEncoder(d, 3, make_rng(54))
    _, (caches, _, _) = lstm.forward(queries, rows)
    per_step = [sum(L > t for L in lengths) for t in range(T)]  # n_t, in time order
    steps = [[[k for _, k in direction[5]] for direction in layer] for layer in caches]
    assert steps == [[per_step, per_step[::-1]]] * 2 + [[[B], per_step[::-1]]]
    gate_rows = [[direction[1].shape[0] for direction in layer] for layer in caches]
    assert gate_rows == [[N, N]] * 2 + [[B, N]]


# the last case puts a well-formed query beside the empty row, so a tree encoder
# fails on the empty row and not on the brackets
@pytest.mark.parametrize("arch", ALL_ARCHS)
@pytest.mark.parametrize("queries", [[[]], [[1, 2, 3], []], [linearize(GRAPHS[0], VOCAB), []]],
                         ids=["empty", "empty-row", "query-then-empty"])
def test_sequence_encoders_refuse_empty_sequences(arch, queries):
    model = new_model(VOCAB, arch, d=8, seed=59, layers=1, heads=2)
    with pytest.raises(ValueError, match="empty token sequence"):
        model.encode(queries)


@pytest.mark.parametrize("arch", ALL_ARCHS)
def test_empty_batch_encodes_to_no_rows(arch):
    model = new_model(VOCAB, arch, d=8, seed=60, layers=2, heads=2)
    out, cache = model.encode([])
    assert out.shape == (0, 8)
    grads = model.backward(cache, out)
    assert grads.keys() == model.parameters().keys()
    assert not any(grad.any() for grad in grads.values())


# a few distinct lengths drawn with repeats, so length groups hold several rows, or any lengths
length_mixes = st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=9)
) | st.lists(st.integers(1, 12), min_size=1, max_size=9)


@settings(deadline=None, max_examples=60)
@given(
    lengths=length_mixes, extra=st.integers(0, 3), layers=st.integers(1, 3), heads=st.sampled_from([1, 2, 8])
)
@example(lengths=[5] * 6, extra=0, layers=2, heads=2)  # one group, no padding
@example(lengths=[12, 1, 7, 1, 12, 7, 7], extra=0, layers=3, heads=8)  # length-1 rows
@pytest.mark.parametrize("arch", sorted(FULL_SEQUENCE))
def test_packed_encoders_match_padded_reference(arch, lengths, extra, layers, heads):
    # the position-0 test's encoders and float64 tolerance, over random length mixes; its
    # float32 bound holds for its fixed batches only: on random mixes, rounding alone
    # through these N(0,1) weights reaches up to 3x that bound
    dtype, tol = np.float64, 1e-12
    T = min(max(lengths) + extra, 12)
    enc, ref = (sequence_encoder(cls, arch, layers, heads, dtype) for cls in FULL_SEQUENCE[arch])
    rng = make_rng(58, len(lengths), T)
    for name, arr in enc.params.items():  # off the init: nonzero biases, LN gains != 1
        arr[...] = rng.normal(size=arr.shape)
        ref.params[name][...] = arr
    x = rng.normal(size=(len(lengths), T, 8)).astype(dtype)
    mask = np.arange(T)[None, :] < np.array(lengths)[:, None]
    d_readout = rng.normal(size=(len(lengths), 8)).astype(dtype)

    out, grads, dx = packed_run(enc, x, lengths, d_readout)
    ref_out, ref_cache = ref.forward(x, mask)
    ref_grads, ref_dx = ref.backward(ref_cache, d_readout)
    assert out.dtype == dx.dtype == dtype
    np.testing.assert_allclose(out, ref_out, rtol=tol, atol=tol)
    np.testing.assert_allclose(dx, ref_dx, rtol=tol, atol=tol)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert grad.dtype == dtype
        np.testing.assert_allclose(grad, ref_grads[name], rtol=tol, atol=tol, err_msg=name)


# -- level-wise tree recursion against the per-node reference --------------------


class PerNodeTreeLSTMCell:
    """Slow reference: the full child-sum cell on one node, with per-child loops."""

    @staticmethod
    def forward(p, x, h_sum, children):
        i = sigmoid(x @ p["Wi"] + h_sum @ p["Ui"] + p["bi"])
        o = sigmoid(x @ p["Wo"] + h_sum @ p["Uo"] + p["bo"])
        u = np.tanh(x @ p["Wu"] + h_sum @ p["Uu"] + p["bu"])
        fks = [sigmoid(x @ p["Wf"] + h_k @ p["Uf"] + p["bf"]) for h_k, _ in children]
        c = i * u + sum((f * c_k for f, (_, c_k) in zip(fks, children)), np.zeros(x.shape, x.dtype))
        h = o * np.tanh(c)
        return (h, c), (i, o, u, fks)

    @staticmethod
    def backward(p, grads, x, h_sum, children, state, cache, d_state, d_children):
        i, o, u, fks = cache
        dh_j, dc_j = d_state
        tc = np.tanh(state[1])
        do = dh_j * tc
        dc_j = dc_j + dh_j * o * (1 - tc * tc)
        di = dc_j * u
        du = dc_j * i
        dzi = di * i * (1 - i)
        dzo = do * o * (1 - o)
        dzu = du * (1 - u * u)
        grads["Wi"] += np.outer(x, dzi)
        grads["Wo"] += np.outer(x, dzo)
        grads["Wu"] += np.outer(x, dzu)
        grads["Ui"] += np.outer(h_sum, dzi)
        grads["Uo"] += np.outer(h_sum, dzo)
        grads["Uu"] += np.outer(h_sum, dzu)
        grads["bi"] += dzi
        grads["bo"] += dzo
        grads["bu"] += dzu
        dx = dzi @ p["Wi"].T + dzo @ p["Wo"].T + dzu @ p["Wu"].T
        dh_sum = dzi @ p["Ui"].T + dzo @ p["Uo"].T + dzu @ p["Uu"].T
        for f, (h_k, c_k), (dh_k, dc_k) in zip(fks, children, d_children):
            dzf = dc_j * c_k * f * (1 - f)
            grads["Wf"] += np.outer(x, dzf)
            grads["Uf"] += np.outer(h_k, dzf)
            grads["bf"] += dzf
            dx += dzf @ p["Wf"].T
            dh_k += dh_sum + dzf @ p["Uf"].T
            dc_k += dc_j * f
        return dx


class PerNodeNoMemoryCell:
    """Slow reference: the ablated cell on one node."""

    @staticmethod
    def forward(p, x, h_sum, children):
        return (np.tanh(x @ p["W"] + h_sum @ p["U"] + p["b"]),), None

    @staticmethod
    def backward(p, grads, x, h_sum, children, state, cache, d_state, d_children):
        h = state[0]
        dz = d_state[0] * (1 - h * h)
        grads["W"] += np.outer(x, dz)
        grads["U"] += np.outer(h_sum, dz)
        grads["b"] += dz
        dh_sum = dz @ p["U"].T
        for (dh_k,) in d_children:
            dh_k += dh_sum
        return dz @ p["W"].T


PER_NODE_CELLS = {"TreeLSTM": PerNodeTreeLSTMCell, "TreeLSTM-NoMemoryCell": PerNodeNoMemoryCell}


def post_order_nodes(graph, vocab):
    """Flatten a query into post-order ``(token_id, child_slots)`` nodes by walking its
    ``QueryNode`` graph; a projection's relation token is a leaf before its child."""
    nodes = []

    def visit(node):
        if node.kind is OperatorKind.ANCHOR:
            nodes.append((vocab.entity_token(node.entity), []))
            return len(nodes) - 1
        child_slots = []
        if node.kind is OperatorKind.PROJECTION:
            nodes.append((vocab.relation_token(node.relation), []))
            child_slots.append(len(nodes) - 1)
        child_slots.extend(visit(c) for c in node.children)
        nodes.append((KIND_TO_OP[node.kind], child_slots))
        return len(nodes) - 1

    visit(graph)
    return nodes


def per_node_forward(cell, p, trees, rows):
    """Walk each tree in post order; returns (B,d) readouts and per-tree steps."""
    outs, tree_caches = [], []
    for nodes in trees:
        states, steps = [], []
        for token, child_slots in nodes:
            x = rows[token]
            children = [states[k] for k in child_slots]
            h_sum = sum((s[0] for s in children), np.zeros(x.shape, x.dtype))
            state, cell_cache = cell.forward(p, x, h_sum, children)
            states.append(state)
            steps.append((token, child_slots, x, h_sum, cell_cache))
        outs.append(states[-1][0])
        tree_caches.append((steps, states))
    return np.stack(outs), tree_caches


def per_node_backward(cell, p, tree_caches, d_out, num_rows):
    """Walk each tree in reverse post order; returns (param grads, (num_rows,d) row grads)."""
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    d_rows = np.zeros((num_rows, d_out.shape[1]), d_out.dtype)
    for (steps, states), droot in zip(tree_caches, d_out):
        d_states = [[np.zeros_like(droot) for _ in s] for s in states]
        d_states[-1][0] = droot.copy()
        for idx in range(len(steps) - 1, -1, -1):
            token, child_slots, x, h_sum, cell_cache = steps[idx]
            children = [states[k] for k in child_slots]
            d_children = [d_states[k] for k in child_slots]
            d_rows[token] += cell.backward(
                p, grads, x, h_sum, children, states[idx], cell_cache, d_states[idx], d_children
            )
    return grads, d_rows


def random_grounding(node, rng):
    """Ground a type pattern with uniformly drawn VOCAB relations and entities."""
    children = tuple(random_grounding(c, rng) for c in node.children)
    if node.kind is OperatorKind.ANCHOR:
        return dataclasses.replace(node, entity=int(rng.integers(VOCAB.num_entities)))
    if node.kind is OperatorKind.PROJECTION:
        return dataclasses.replace(node, relation=int(rng.integers(VOCAB.num_relations)), children=children)
    return dataclasses.replace(node, children=children)


_BUILTIN = builtin_query_types()
BUILTIN_PATTERNS = [t.pattern for t in _BUILTIN.in_distribution + _BUILTIN.out_of_distribution]


def tree_batches():
    """Mixed batches of every built-in type, plus the shapes a level layout can trip on."""
    assert len(BUILTIN_PATTERNS) == 58
    rng = make_rng(31)
    mixed = [random_grounding(BUILTIN_PATTERNS[i], rng) for i in rng.permutation(58)]
    return {
        "all-58-types": mixed,
        "shuffled-with-repeats": [mixed[i] for i in rng.integers(58, size=40)] + [anchor(3)],
        "anchor-alone": [anchor(7)],
        "one-deep-tree": [parse_grounded("(i,(p,(1),(p,(2),(p,(3),(e,(4))))),(n,(p,(0),(e,(9)))))")],
        "unequal-unions": [
            anchor(2),
            parse_grounded("(u,(p,(0),(e,(1))),(p,(1),(p,(2),(p,(3),(e,(4))))))"),
            parse_grounded("(u,(e,(5)),(p,(4),(e,(6))),(n,(p,(2),(p,(1),(e,(8))))))"),
            GRAPHS[0],
        ],
    }


def assert_level_wise_matches_per_node(arch, graphs, dtype, tol):
    """The encoder on the linearized batch against the per-node walk of each ``QueryNode``."""
    model = new_model(VOCAB, arch, d=8, seed=41, dtype=dtype)
    rng = make_rng(42)
    for arr in model.parameters().values():  # off the init: nonzero biases
        arr[...] = rng.normal(scale=0.5, size=arr.shape)
    d_out = rng.normal(size=(len(graphs), model.d)).astype(dtype)

    out, cache = model.encode(model.prepare(graphs))
    grads = model.backward(cache, d_out)
    cell, p = PER_NODE_CELLS[arch], model.encoder.params
    trees = [post_order_nodes(g, VOCAB) for g in graphs]
    ref_out, ref_cache = per_node_forward(cell, p, trees, model.rows)
    ref_grads, ref_rows = per_node_backward(cell, p, ref_cache, d_out, VOCAB.size)

    assert out.dtype == dtype and grads["table"].dtype == dtype
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=tol)
    np.testing.assert_allclose(grads["table"], ref_rows, rtol=tol, atol=tol, err_msg="table")
    assert grads.keys() == {"table"} | {f"enc.{k}" for k in ref_grads}
    for name, grad in ref_grads.items():
        assert grads[f"enc.{name}"].dtype == dtype
        np.testing.assert_allclose(grads[f"enc.{name}"], grad, rtol=tol, atol=tol, err_msg=name)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("arch", sorted(PER_NODE_CELLS))
@pytest.mark.parametrize("batch", sorted(tree_batches()))
def test_level_wise_tree_matches_per_node_reference(batch, arch, dtype, tol):
    assert_level_wise_matches_per_node(arch, tree_batches()[batch], dtype, tol)


@settings(deadline=None, max_examples=40)
@given(kinds=st.lists(st.integers(0, 58), min_size=1, max_size=12), seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("arch", sorted(PER_NODE_CELLS))
def test_bracket_parse_matches_graph_walk(arch, kinds, seed):
    # kind 58 is a bare anchor, the others ground that built-in type with random ids
    rng = make_rng(seed)
    graphs = [random_grounding((BUILTIN_PATTERNS + [anchor(0)])[k], rng) for k in kinds]
    assert_level_wise_matches_per_node(arch, graphs, np.float64, 1e-12)
