"""Transformer sequence encoder (pre-norm), absolute or relative positions.

Blocks are pre-norm residual: x += MHA(LN(x)); x += FFN(LN(x)); a final
LayerNorm closes the stack and the readout is position 0. The feed-forward
width is 4d with ReLU.

Positional information comes in one of two flavours:

* ``Transformer-APE`` — a learned absolute position table added to the
  token embeddings (capped at ``max_len``);
* ``Transformer-RPE`` — learnable relative-distance embeddings, shared
  across heads, added to the attention logits only (values untouched):
  logit(i,j) = (q_i . k_j + q_i . rel[clip(j-i)]) / sqrt(d_head).

All gradients are hand-derived; padded key positions are masked out of the
attention softmax, so PAD tokens cannot influence the readout. Every
attention contraction, forward and backward, is a batched ``matmul``, so it
runs on BLAS.

Only position 0 of the last block reaches the readout, so that block takes
its queries from position 0 alone: its keys and values still cover all T
positions, but its logits are ``(B, H, 1, T)`` and its residual stream,
feed-forward network and the final LayerNorm run on one row per sequence.
Lower blocks compute every position.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import layernorm_backward, layernorm_forward, softmax, softmax_backward, uniform_init

_NEG = -1e9  # finite mask value: exp(-1e9) underflows to exactly 0.0


class TransformerEncoder:
    def __init__(
        self,
        d: int,
        layers: int,
        heads: int,
        rng: np.random.Generator,
        relative: bool = False,
        max_len: int = 64,
        rpe_clip: int = 16,
    ):
        if d % heads != 0:
            raise ValueError(f"width {d} not divisible by {heads} heads")
        self.d = d
        self.layers = layers
        self.heads = heads
        self.head_dim = d // heads
        self.relative = relative
        self.max_len = max_len
        self.rpe_clip = rpe_clip
        self.arch = "Transformer-RPE" if relative else "Transformer-APE"

        p: dict[str, np.ndarray] = {}
        if relative:
            p["rel"] = uniform_init(rng, (2 * rpe_clip + 1, self.head_dim), d)
        else:
            p["pos"] = uniform_init(rng, (max_len, d), d)
        for l in range(layers):
            for w in ("Wq", "Wk", "Wv", "Wo"):
                p[f"l{l}.{w}"] = uniform_init(rng, (d, d), d)
            for b in ("bq", "bk", "bv", "bo"):
                p[f"l{l}.{b}"] = np.zeros(d)
            p[f"l{l}.ln1.g"] = np.ones(d)
            p[f"l{l}.ln1.b"] = np.zeros(d)
            p[f"l{l}.ln2.g"] = np.ones(d)
            p[f"l{l}.ln2.b"] = np.zeros(d)
            p[f"l{l}.W1"] = uniform_init(rng, (d, 4 * d), d)
            p[f"l{l}.b1"] = np.zeros(4 * d)
            p[f"l{l}.W2"] = uniform_init(rng, (4 * d, d), d)
            p[f"l{l}.b2"] = np.zeros(d)
        p["lnf.g"] = np.ones(d)
        p["lnf.b"] = np.zeros(d)
        self.params = p

    def _rel_index(self, T: int) -> np.ndarray:
        # bucket of the (query i, key j) offset j - i, clipped
        idx = np.arange(T)[None, :] - np.arange(T)[:, None]
        return np.clip(idx, -self.rpe_clip, self.rpe_clip) + self.rpe_clip

    def _split(self, x):
        B, T, _ = x.shape
        return x.reshape(B, T, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x):
        B, H, T, hd = x.shape
        return x.transpose(0, 2, 1, 3).reshape(B, T, H * hd)

    def _attention(self, a, mask, l, n_q):
        """Attention of the first ``n_q`` positions of ``a`` over all T keys."""
        p = self.params
        B, T, d = a.shape
        H, hd = self.heads, self.head_dim
        q = self._split(a[:, :n_q] @ p[f"l{l}.Wq"] + p[f"l{l}.bq"])  # (B,H,n_q,hd)
        k = self._split(a @ p[f"l{l}.Wk"] + p[f"l{l}.bk"])  # (B,H,T,hd)
        v = self._split(a @ p[f"l{l}.Wv"] + p[f"l{l}.bv"])
        scale = 1.0 / math.sqrt(hd)  # a Python float keeps float32 logits float32
        logits = q @ k.swapaxes(-1, -2)  # (B,H,n_q,T)
        rel = None
        if self.relative:
            # one (B·H, hd) @ (hd, T) matmul per query position i:
            # q_i . rel[clip(j-i)] for every key j
            ridx = self._rel_index(T)[:n_q]
            rel_k = p["rel"][ridx]  # (n_q,T,hd)
            q_rows = q.transpose(2, 0, 1, 3).reshape(n_q, B * H, hd)
            rel_logits = q_rows @ rel_k.swapaxes(-1, -2)  # (n_q,B·H,T)
            logits += rel_logits.reshape(n_q, B, H, T).transpose(1, 2, 0, 3)
            rel = (ridx, rel_k, q_rows)
        key_mask = mask[:, None, None, :]  # (B,1,1,T)
        logits = np.where(key_mask, logits * scale, _NEG)
        attn = softmax(logits, axis=-1)  # (B,H,n_q,T)
        merged = self._merge(attn @ v)
        out = merged @ p[f"l{l}.Wo"] + p[f"l{l}.bo"]
        return out, (a, q, k, v, attn, merged, rel, l)

    def _attention_backward(self, cache, d_out, grads):
        """d_out: (B,n_q,d). Returns the (B,T,d) gradient on ``a``."""
        p = self.params
        a, q, k, v, attn, merged, rel, l = cache
        B, H, n_q, hd = q.shape
        T = k.shape[2]

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
            d_rows = d_logits.transpose(2, 0, 1, 3).reshape(n_q, B * H, T)
            dq += (d_rows @ rel_k).reshape(n_q, B, H, hd).transpose(1, 2, 0, 3)
            d_rel_pairs = d_rows.swapaxes(-1, -2) @ q_rows  # (n_q,T,hd)
            # each bucket sums the pairs (i, j) whose clipped offset it holds
            buckets = np.arange(p["rel"].shape[0])[:, None] == ridx.reshape(1, -1)
            grads["rel"] += buckets.astype(d_rel_pairs.dtype) @ d_rel_pairs.reshape(n_q * T, hd)

        da = np.zeros_like(a)
        for name, grad_heads in (("Wq", dq), ("Wk", dk), ("Wv", dv)):
            flat = self._merge(grad_heads)  # (B,n_q,d) for Wq, (B,T,d) for Wk and Wv
            rows = flat.shape[1]
            grads[f"l{l}.{name}"] += a[:, :rows].reshape(-1, self.d).T @ flat.reshape(-1, self.d)
            grads[f"l{l}.b{name[1]}"] += flat.sum(axis=(0, 1))
            da[:, :rows] += flat @ p[f"l{l}.{name}"].T
        return da

    def forward(self, x: np.ndarray, mask: np.ndarray):
        """x: (B,T,d) embedded tokens; mask: (B,T) True at real positions. Returns ((B,d), cache)."""
        p = self.params
        B, T, _ = x.shape
        if not self.relative:
            if T > self.max_len:
                raise ValueError(f"sequence length {T} exceeds position table {self.max_len}")
            h = x + p["pos"][:T]
        else:
            h = x
        blocks = []
        for l in range(self.layers):
            # the readout reads position 0 only, so the last block queries from it alone
            n_q = 1 if l == self.layers - 1 else T
            a, ln1_cache = layernorm_forward(h, p[f"l{l}.ln1.g"], p[f"l{l}.ln1.b"])
            attn_out, attn_cache = self._attention(a, mask, l, n_q)
            h1 = h[:, :n_q] + attn_out
            f, ln2_cache = layernorm_forward(h1, p[f"l{l}.ln2.g"], p[f"l{l}.ln2.b"])
            z1 = f @ p[f"l{l}.W1"] + p[f"l{l}.b1"]
            relu = np.maximum(z1, 0.0)
            ffn_out = relu @ p[f"l{l}.W2"] + p[f"l{l}.b2"]
            h = h1 + ffn_out
            blocks.append((ln1_cache, attn_cache, ln2_cache, f, z1, relu))
        y, lnf_cache = layernorm_forward(h, p["lnf.g"], p["lnf.b"])  # (B,1,d)
        readout = y[:, 0]
        return readout, (x.shape, blocks, lnf_cache)

    def backward(self, cache, d_readout: np.ndarray):
        p = self.params
        (B, T, d), blocks, lnf_cache = cache
        grads = {k: np.zeros_like(v) for k, v in p.items()}

        dy = d_readout[:, None]
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
            dh[:, : dh1.shape[1]] += dh1  # residual, on the rows the block queried from
        if not self.relative:
            grads["pos"][:T] += dh.sum(axis=0)
        return grads, dh
