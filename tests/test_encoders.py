import json

import numpy as np
import pytest

from cqakit.encoders import (
    CheckpointError,
    QueryModel,
    TransformerEncoder,
    grad_check,
    load_checkpoint,
    new_model,
    normalize_arch,
    pad_batch,
    save_checkpoint,
)
from cqakit.encoders.checkpoint import MAGIC
from cqakit.encoders.gradcheck import NonFiniteLossError
from cqakit.encoders.numerics import softmax, softmax_backward
from cqakit.linearize import PAD, Vocabulary
from cqakit.queries import anchor, parse_grounded
from cqakit.rng import make_rng
from cqakit.sampler import Dataset
from cqakit.training import Checkpoint, TrainConfig, train

VOCAB = Vocabulary(num_relations=5, num_entities=20)
GRAPHS = [
    parse_grounded("(p,(1),(u,(p,(2),(e,(3))),(p,(0),(e,(5)))))"),
    parse_grounded("(i,(p,(0),(e,(2))),(n,(p,(1),(e,(7)))))"),
    parse_grounded("(e,(4))"),
]
ALL_ARCHS = ("LSTM", "TreeLSTM", "TreeLSTM-NoMemoryCell", "Transformer-APE", "Transformer-RPE")


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


def test_query_model_needs_one_row_per_token():
    with pytest.raises(ValueError, match=f"table has {VOCAB.size - 1} rows, vocabulary needs {VOCAB.size}"):
        QueryModel(VOCAB, np.zeros((VOCAB.size - 1, 4)), None)


def test_score_all_zero_query():
    model = new_model(VOCAB, "LSTM", d=8, seed=3)
    scores = model.entity_scores(np.zeros(8))
    assert scores.shape == (20,)
    assert np.all(scores == 0.0)
    probs = np.exp(scores) / np.exp(scores).sum()
    np.testing.assert_allclose(probs, np.full(20, 1 / 20))


def test_score_all_orthogonal_argmax():
    model = QueryModel(VOCAB, np.zeros((VOCAB.size, 4)), None)
    model.rows[VOCAB.entity_token(7)] = np.array([1.0, 0, 0, 0])
    model.rows[VOCAB.entity_token(3)] = np.array([0, 1.0, 0, 0])
    scores = model.entity_scores(np.array([1.0, 0, 0, 0]))
    assert int(np.argmax(scores)) == 7


def test_score_all_hand_computed():
    rng = make_rng(44)
    vocab = Vocabulary(num_relations=2, num_entities=10)
    rows = rng.normal(size=(vocab.size, 3))
    model = QueryModel(vocab, rows, None)
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


def test_pad_batch_shapes():
    ids, mask = pad_batch([[1, 2, 3], [4]])
    assert ids.shape == (2, 3) and mask.shape == (2, 3)
    assert ids[1, 1] == PAD and mask[1, 1] == 0.0


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


def tamper(path, edit):
    """Rewrite a checkpoint after ``edit(meta, tensors)``, with a valid checksum."""
    meta, tensors = load_checkpoint(path)
    edit(meta, tensors)
    save_checkpoint(path, meta, tensors)


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


TREE_PARAM_NAMES = {
    "TreeLSTM": {f"{w}{g}" for w in "WUb" for g in "ifou"},
    "TreeLSTM-NoMemoryCell": {"W", "U", "b"},
}


@pytest.mark.parametrize("arch", sorted(TREE_PARAM_NAMES))
def test_tree_checkpoint_round_trip(arch, tmp_path):
    path = tmp_path / "m.ckpt"
    saved = saved_checkpoint(path, arch, seed=15)
    assert set(saved.model.encoder.params) == TREE_PARAM_NAMES[arch]
    _, tensors = load_checkpoint(path)
    names = {"table"} | {f"enc.{k}" for k in TREE_PARAM_NAMES[arch]}
    assert set(tensors) == {prefix + n for prefix in ("", "adam.m.", "adam.v.") for n in names}
    assert_same_model(saved.model, Checkpoint.load(path).model)


@pytest.mark.parametrize("arch,dropped", [("TreeLSTM", "enc.Wf"), ("LSTM", "table"),
                                          ("TreeLSTM-NoMemoryCell", "table")])
def test_checkpoint_missing_tensor_rejected(arch, dropped, tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, arch, seed=16)
    tamper(path, lambda meta, tensors: tensors.pop(dropped))
    with pytest.raises(CheckpointError, match=dropped):
        Checkpoint.load(path)


def test_checkpoint_table_shape_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "TreeLSTM", seed=17)
    tamper(path, lambda meta, tensors: tensors.update(table=tensors["table"][:, :4]))
    with pytest.raises(CheckpointError, match="table"):
        Checkpoint.load(path)


def test_checkpoint_vocab_hash_mismatch(tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "LSTM", seed=13)
    # the table no longer matches the recorded layout
    tamper(path, lambda meta, tensors: meta.update(num_entities=21))
    with pytest.raises(CheckpointError, match="vocabulary layout"):
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
    tamper(path, lambda meta, tensors: tensors.update(table=tensors["table"].astype(np.float32)))
    with pytest.raises(CheckpointError, match="table: expected .* float64, found .* float32"):
        Checkpoint.load(path)


@pytest.mark.parametrize("edit,match", [
    (lambda meta, tensors: tensors.update({"enc.extra": np.zeros(3)}), r"unexpected tensors \['enc.extra'\]"),
    (lambda meta, tensors: meta.pop("train_config"), "meta needs 'train_config' of type dict"),
    (lambda meta, tensors: meta.update(step="7"), "meta needs 'step' of type int"),
    (lambda meta, tensors: meta["train_config"].update(arch=5), "config key 'arch' expects str"),
    (lambda meta, tensors: meta["train_config"].update(arch="CNN"), "unknown architecture"),
    (lambda meta, tensors: meta["train_config"].update(heads=0), "heads must be >= 1, got 0"),
], ids=["extra-tensor", "no-train-config", "string-step", "numeric-arch", "unknown-arch", "zero-heads"])
def test_checkpoint_bad_meta_or_tensors_rejected(edit, match, tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "TreeLSTM", seed=19)
    tamper(path, edit)
    with pytest.raises(CheckpointError, match=match):
        Checkpoint.load(path)


def edit_entry(index, **fields):
    def edit(manifest):
        manifest["tensors"][index].update(fields)
        return json.dumps(manifest)

    return edit


@pytest.mark.parametrize("edit,match", [
    (lambda manifest: "5", "manifest is not an object"),
    (lambda manifest: "[" * 100_000 + "]" * 100_000, "bad manifest"),
    (edit_entry(0, dtype=None), "tensor entry needs 'dtype' of type str"),
    (edit_entry(0, dtype="<f2"), "unsupported dtype '<f2'"),
    (edit_entry(0, shape=[-4, 2]), r"bad shape \[-4, 2\]"),
    (edit_entry(0, nbytes=8), "do not hold shape"),
    (edit_entry(-1, offset=10**6), "do not hold shape"),
    (lambda manifest: json.dumps({**manifest, "tensors": manifest["tensors"] * 2}), "listed twice"),
], ids=["number", "deep-nesting", "entry-without-dtype", "unknown-dtype", "negative-dim", "size-not-shape", "past-payload",
        "listed-twice"])
def test_checkpoint_bad_manifest_rejected(edit, match, tmp_path):
    path = tmp_path / "m.ckpt"
    saved_checkpoint(path, "LSTM", seed=21)
    _, manifest, payload = path.read_bytes().split(b"\n", 2)
    path.write_bytes(MAGIC + edit(json.loads(manifest)).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_with_older_meta_keys_loads(tmp_path):
    # earlier writers also recorded the architecture and sizes beside train_config
    path = tmp_path / "m.ckpt"
    saved = saved_checkpoint(path, "Transformer-APE", seed=20, heads=2)
    older = {"arch": "Transformer-APE", "d": 8, "layers": 2, "heads": 2, "max_len": 64,
             "rpe_clip": 16, "readout": "position0"}
    tamper(path, lambda meta, tensors: meta.update(older))
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


# -- attention against the einsum reference --------------------------------------


class EinsumAttention(TransformerEncoder):
    """Slow reference: every attention contraction as a 4-D ``np.einsum``."""

    def _attention(self, a, mask, l):
        p = self.params
        B, T, d = a.shape
        q = self._split(a @ p[f"l{l}.Wq"] + p[f"l{l}.bq"])  # (B,H,T,hd)
        k = self._split(a @ p[f"l{l}.Wk"] + p[f"l{l}.bk"])
        v = self._split(a @ p[f"l{l}.Wv"] + p[f"l{l}.bv"])
        scale = 1.0 / np.sqrt(self.head_dim)
        logits = np.einsum("bhid,bhjd->bhij", q, k) * scale
        ridx = None
        if self.relative:
            ridx = self._rel_index(T)
            rel_k = p["rel"][ridx]  # (T,T,hd)
            logits = logits + np.einsum("bhid,ijd->bhij", q, rel_k) * scale
        key_mask = mask[:, None, None, :]  # (B,1,1,T)
        logits = np.where(key_mask > 0, logits, -1e9)
        attn = softmax(logits, axis=-1)  # (B,H,T,T)
        ctx = np.einsum("bhij,bhjd->bhid", attn, v)
        merged = self._merge(ctx)
        out = merged @ p[f"l{l}.Wo"] + p[f"l{l}.bo"]
        return out, (a, q, k, v, attn, merged, ridx, mask, l)

    def _attention_backward(self, cache, d_out, grads):
        p = self.params
        a, q, k, v, attn, merged, ridx, mask, l = cache
        scale = 1.0 / np.sqrt(self.head_dim)

        grads[f"l{l}.Wo"] += merged.reshape(-1, self.d).T @ d_out.reshape(-1, self.d)
        grads[f"l{l}.bo"] += d_out.sum(axis=(0, 1))
        d_merged = d_out @ p[f"l{l}.Wo"].T
        d_ctx = self._split(d_merged)

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

        da = np.zeros_like(a)
        for name, grad_heads in (("Wq", dq), ("Wk", dk), ("Wv", dv)):
            flat = self._merge(grad_heads)  # (B,T,d)
            grads[f"l{l}.{name}"] += a.reshape(-1, self.d).T @ flat.reshape(-1, self.d)
            grads[f"l{l}.b{name[1]}"] += flat.sum(axis=(0, 1))
            da += flat @ p[f"l{l}.{name}"].T
        return da


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("relative", [False, True], ids=["APE", "RPE"])
@pytest.mark.parametrize("T, heads", [(1, 2), (5, 1), (9, 8), (11, 2)])
def test_matmul_attention_matches_einsum_reference(T, heads, relative, dtype, tol):
    # rpe_clip=2: from T=6 on, the two edge buckets hold several offsets
    d, B, seed = 8, 6, 100 * T + heads
    enc = TransformerEncoder(d, 2, heads, make_rng(seed), relative, max_len=16, rpe_clip=2, dtype=dtype)
    ref = EinsumAttention(d, 2, heads, make_rng(seed), relative, max_len=16, rpe_clip=2, dtype=dtype)
    rng = make_rng(seed, 1)
    for name, arr in enc.params.items():  # off the init: nonzero biases, LN gains != 1
        arr[...] = rng.normal(size=arr.shape)
        ref.params[name][...] = arr
    x = rng.normal(size=(B, T, d)).astype(dtype)
    lengths = rng.integers(1, T + 1, size=B)
    lengths[0] = T
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(dtype)
    d_readout = rng.normal(size=(B, d)).astype(dtype)

    out, cache = enc.forward(x, mask)
    ref_out, ref_cache = ref.forward(x, mask)
    grads, dx = enc.backward(cache, d_readout)
    ref_grads, ref_dx = ref.backward(ref_cache, d_readout)
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
