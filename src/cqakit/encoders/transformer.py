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

All gradients are hand-derived. A batch runs packed: its rows are
stable-sorted by length and their N tokens laid out as one ``(N, d)`` block,
each sequence contiguous and sequences of equal length side by side, with no
padding. The position add, both LayerNorms, the Q/K/V/O projections and the
feed-forward network run on those N rows. Attention runs once per group of
equal length L, over ``(n, H, L, hd)`` views with no key mask. Every
attention contraction, forward and backward, is a batched ``matmul``, so it
runs on BLAS. The readout comes back in the caller's row order, and the
token gradients in batch order, one row per token.

Only position 0 of the last block reaches the readout, so that block takes
its queries from each sequence's first token alone: its keys and values
still cover every token, but its logits are ``(n, H, 1, L)`` and its
residual stream, feed-forward network and the final LayerNorm run on one
``(B, 1, d)`` row per sequence. Lower blocks compute every token.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import (
    layernorm_backward, layernorm_forward, pack_tokens, softmax, softmax_backward, uniform_init
)


def _groups(lengths) -> list:
    """``(L, slice of sorted sequences, slice of packed rows)`` per length L of ascending ``lengths``."""
    ends = np.cumsum(lengths)
    firsts = np.flatnonzero(np.diff(lengths, prepend=0)).tolist()  # first row of each length
    return [
        (int(lengths[s]), slice(s, e), slice(int(ends[s] - lengths[s]), int(ends[e - 1])))
        for s, e in zip(firsts, firsts[1:] + [len(lengths)])
    ]


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

    def _heads(self, rows, n):
        """The rows of ``n`` sequences, ``(n·L, d)`` or ``(n, L, d)``, as ``(n, H, L, hd)``."""
        return rows.reshape(n, -1, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _attend(self, q, k, v):
        """Attention of q (n,H,Lq,hd) over keys k and values v (n,H,L,hd), all of them real.

        ``Lq`` is L in a lower block and 1 (each sequence's first token) in the top one.
        """
        n, H, Lq, hd = q.shape
        L = k.shape[2]
        logits = q @ k.swapaxes(-1, -2)  # (n,H,Lq,L)
        rel = None
        if self.relative:
            # one (n·H, hd) @ (hd, L) matmul per query position i:
            # q_i . rel[clip(j-i)] for every key j
            ridx = self._rel_index(L)[:Lq]
            rel_k = self.params["rel"][ridx]  # (Lq,L,hd)
            q_rows = q.transpose(2, 0, 1, 3).reshape(Lq, n * H, hd)
            rel_logits = q_rows @ rel_k.swapaxes(-1, -2)  # (Lq,n·H,L)
            logits += rel_logits.reshape(Lq, n, H, L).transpose(1, 2, 0, 3)
            rel = (ridx, rel_k, q_rows)
        logits *= 1.0 / math.sqrt(hd)  # a Python float keeps float32 logits float32
        attn = softmax(logits, axis=-1)
        return attn @ v, (q, k, v, attn, rel)

    def _attend_backward(self, cache, d_ctx, grads):
        """d_ctx: (n,H,Lq,hd). Returns (dq, dk, dv) and adds the RPE table's gradient to ``grads``."""
        q, k, v, attn, rel = cache
        n, H, Lq, hd = q.shape
        L = k.shape[2]
        d_attn = d_ctx @ v.swapaxes(-1, -2)
        dv = attn.swapaxes(-1, -2) @ d_ctx
        d_logits = softmax_backward(attn, d_attn)
        d_logits *= 1.0 / math.sqrt(hd)
        dq = d_logits @ k
        dk = d_logits.swapaxes(-1, -2) @ q
        if self.relative:
            ridx, rel_k, q_rows = rel
            d_rows = d_logits.transpose(2, 0, 1, 3).reshape(Lq, n * H, L)
            dq += (d_rows @ rel_k).reshape(Lq, n, H, hd).transpose(1, 2, 0, 3)
            d_rel_pairs = d_rows.swapaxes(-1, -2) @ q_rows  # (Lq,L,hd)
            # each bucket sums the pairs (i, j) whose clipped offset it holds
            buckets = np.arange(self.params["rel"].shape[0])[:, None] == ridx.reshape(1, -1)
            grads["rel"] += buckets.astype(d_rel_pairs.dtype) @ d_rel_pairs.reshape(Lq * L, hd)
        return dq, dk, dv

    def _attention(self, a, l, starts, groups):
        """Each packed token of ``a`` (N,d) attends over its own sequence.

        The top block queries from each sequence's first token alone, as (B,1,d) rows.
        """
        p = self.params
        top = l == self.layers - 1
        a_q = a[starts][:, None] if top else a
        q = a_q @ p[f"l{l}.Wq"] + p[f"l{l}.bq"]
        k = a @ p[f"l{l}.Wk"] + p[f"l{l}.bk"]
        v = a @ p[f"l{l}.Wv"] + p[f"l{l}.bv"]
        merged = np.empty_like(q)
        cores = []
        for _, seqs, toks in groups:
            n = seqs.stop - seqs.start
            rows = seqs if top else toks
            heads = [self._heads(z, n) for z in (q[rows], k[toks], v[toks])]
            ctx, core = self._attend(*heads)
            merged[rows] = ctx.transpose(0, 2, 1, 3).reshape(merged[rows].shape)
            cores.append(core)
        out = merged @ p[f"l{l}.Wo"] + p[f"l{l}.bo"]
        return out, (a, a_q, merged, cores, l)

    def _attention_backward(self, cache, d_out, starts, groups, grads):
        """d_out: one row per query of the block. Returns the (N,d) gradient on ``a``."""
        p = self.params
        a, a_q, merged, cores, l = cache
        d = self.d
        top = l == self.layers - 1

        grads[f"l{l}.Wo"] += merged.reshape(-1, d).T @ d_out.reshape(-1, d)
        grads[f"l{l}.bo"] += d_out.reshape(-1, d).sum(axis=0)
        d_merged = d_out @ p[f"l{l}.Wo"].T
        dq, dk, dv = np.empty_like(d_merged), np.empty_like(a), np.empty_like(a)
        for (_, seqs, toks), core in zip(groups, cores):
            n = seqs.stop - seqs.start
            rows = seqs if top else toks
            grads_g = self._attend_backward(core, self._heads(d_merged[rows], n), grads)
            for full, at, grad in zip((dq, dk, dv), (rows, toks, toks), grads_g):
                full[at] = grad.transpose(0, 2, 1, 3).reshape(full[at].shape)

        da = np.zeros_like(a)
        for name, flat, inputs in (("Wq", dq, a_q), ("Wk", dk, a), ("Wv", dv, a)):
            grads[f"l{l}.{name}"] += inputs.reshape(-1, d).T @ flat.reshape(-1, d)
            grads[f"l{l}.b{name[1]}"] += flat.reshape(-1, d).sum(axis=0)
            back = flat @ p[f"l{l}.{name}"].T
            if top and name == "Wq":  # one query row per sequence, at its first token
                da[starts] += back[:, 0]
            else:
                da += back
        return da

    def forward(self, queries: list[list[int]], rows: np.ndarray):
        """Encode token lists over the embedding ``rows``; returns ((B,d), cache)."""
        p = self.params
        pack = pack_tokens(queries)
        groups = _groups(pack.lengths)
        h = rows[pack.tokens[pack.flat]]  # (N,d): the tokens, sorted by length
        if not self.relative:
            longest = pack.lengths[-1] if len(queries) else 0
            if longest > self.max_len:
                raise ValueError(f"sequence length {longest} exceeds position table {self.max_len}")
            h += p["pos"][pack.pos]
        blocks = []
        for l in range(self.layers):
            # the readout reads position 0 only, so the last block keeps one row per sequence
            top = l == self.layers - 1
            a, ln1_cache = layernorm_forward(h, p[f"l{l}.ln1.g"], p[f"l{l}.ln1.b"])
            attn_out, attn_cache = self._attention(a, l, pack.starts, groups)
            h1 = (h[pack.starts][:, None] if top else h) + attn_out
            f, ln2_cache = layernorm_forward(h1, p[f"l{l}.ln2.g"], p[f"l{l}.ln2.b"])
            z1 = f @ p[f"l{l}.W1"] + p[f"l{l}.b1"]
            relu = np.maximum(z1, 0.0)
            ffn_out = relu @ p[f"l{l}.W2"] + p[f"l{l}.b2"]
            h = h1 + ffn_out
            blocks.append((ln1_cache, attn_cache, ln2_cache, f, z1, relu))
        y, lnf_cache = layernorm_forward(h, p["lnf.g"], p["lnf.b"])  # (B,1,d), sorted by length
        readout = np.empty_like(y[:, 0])
        readout[pack.order] = y[:, 0]
        return readout, (pack, groups, blocks, lnf_cache)

    def backward(self, cache, d_readout: np.ndarray, grads=None):
        """Adds the parameter gradients into ``grads`` (fresh zeros if None) and returns
        (param grads, token ids (N,), token grads (N,d)), the tokens in batch order."""
        p = self.params
        pack, groups, blocks, lnf_cache = cache
        d = self.d
        if grads is None:
            grads = {k: np.zeros_like(v) for k, v in p.items()}

        dy = d_readout[pack.order][:, None]
        dh, dg, db = layernorm_backward(dy, lnf_cache, p["lnf.g"])
        grads["lnf.g"] += dg
        grads["lnf.b"] += db

        for l in range(self.layers - 1, -1, -1):
            ln1_cache, attn_cache, ln2_cache, f, z1, relu = blocks[l]
            # FFN sublayer: h = h1 + W2·relu(W1·LN2(h1))
            d_ffn = dh
            grads[f"l{l}.W2"] += relu.reshape(-1, 4 * d).T @ d_ffn.reshape(-1, d)
            grads[f"l{l}.b2"] += d_ffn.reshape(-1, d).sum(axis=0)
            d_relu = d_ffn @ p[f"l{l}.W2"].T
            dz1 = d_relu * (z1 > 0)
            grads[f"l{l}.W1"] += f.reshape(-1, d).T @ dz1.reshape(-1, 4 * d)
            grads[f"l{l}.b1"] += dz1.reshape(-1, 4 * d).sum(axis=0)
            df = dz1 @ p[f"l{l}.W1"].T
            dh1, dg2, db2 = layernorm_backward(df, ln2_cache, p[f"l{l}.ln2.g"])
            grads[f"l{l}.ln2.g"] += dg2
            grads[f"l{l}.ln2.b"] += db2
            dh1 += dh  # residual
            # attention sublayer: h1 = h + MHA(LN1(h))
            da = self._attention_backward(attn_cache, dh1, pack.starts, groups, grads)
            dh, dg1, db1 = layernorm_backward(da, ln1_cache, p[f"l{l}.ln1.g"])
            grads[f"l{l}.ln1.g"] += dg1
            grads[f"l{l}.ln1.b"] += db1
            if l == self.layers - 1:
                dh[pack.starts] += dh1[:, 0]  # residual, on the rows the block queried from
            else:
                dh += dh1
        if not self.relative:
            for L, _, toks in groups:
                grads["pos"][:L] += dh[toks].reshape(-1, L, d).sum(axis=0)
        dx = np.empty_like(dh)
        dx[pack.flat] = dh
        return grads, pack.tokens, dx

