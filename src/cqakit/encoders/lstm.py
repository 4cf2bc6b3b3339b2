"""Stacked bidirectional LSTM sequence encoder.

Forward and backward passes are written out by hand over numpy arrays
(no autodiff). Each direction owns half the hidden width, so the
concatenated state read off at sequence position 0 is exactly ``d`` wide.

A batch runs packed: its N tokens are laid out time-major, one row per
token, sequences sorted longest first, so step t runs only its first n_t
rows, the sequences longer than t. A finished sequence leaves the forward
direction's steps; a sequence joins the backward direction at its last
token, in the zero start state. A direction's first step starts from
``h = 0`` and skips ``h @ Wh``.

The readout ``[h_fwd[0] | h_bwd[0]]`` of the top layer is the first B
packed rows, put back into batch order, so the top forward direction runs
its first step only and has no ``Wh``. Each direction computes
``x @ Wx + b`` for all its rows in one matmul before its recurrence, and
its backward pass stacks the per-step gate gradients so that ``dWx``,
``dWh``, ``db`` and the input gradient are one matmul or sum each.
"""

from __future__ import annotations

import numpy as np

from .numerics import pack_tokens, sigmoid, uniform_init


class BiLSTMEncoder:
    """Bidirectional LSTM, ``layers`` deep, readout at position 0.

    Gate layout in the packed weight matrices is ``[i | f | o | g]``:

        z = x @ Wx + h_prev @ Wh + b          # (n_t, 4H)
        c = f * c_prev + i * g
        h = o * tanh(c)

    with per-direction hidden width ``H = d // 2``. Layer inputs are the
    concatenated forward/backward states of the layer below (the embedding
    sequence for layer 0), always ``d`` wide.
    """

    arch = "LSTM"

    def __init__(self, d: int, layers: int, rng: np.random.Generator):
        if d % 2 != 0:
            raise ValueError("LSTM width d must be even (d/2 per direction)")
        self.d = d
        self.layers = layers
        self.hidden = d // 2
        self.params: dict[str, np.ndarray] = {}
        h = self.hidden
        for l in range(layers):
            for dir_ in ("fwd", "bwd"):
                self.params[f"l{l}.{dir_}.Wx"] = uniform_init(rng, (d, 4 * h), d)
                # drawn for every direction, so the seeded draws after it do not move, but the
                # top forward direction runs its first step only, from h = 0, and has no Wh
                Wh = uniform_init(rng, (h, 4 * h), d)
                if (l, dir_) != (layers - 1, "fwd"):
                    self.params[f"l{l}.{dir_}.Wh"] = Wh
                self.params[f"l{l}.{dir_}.b"] = np.zeros(4 * h)

    def _run_direction(self, xs, steps, l, dir_):
        """One direction of one layer over ``steps``, its ``(first packed row, rows)`` in run order.

        xs: (N,d) time-major packed layer input. Returns the (R,H) states of the
        first R packed rows, the rows the steps cover, and a cache.
        """
        h_dim = self.hidden
        Wx = self.params[f"l{l}.{dir_}.Wx"]
        Wh = self.params.get(f"l{l}.{dir_}.Wh")  # absent where the direction runs one step
        b = self.params[f"l{l}.{dir_}.b"]
        R = sum(k for _, k in steps)

        # x @ Wx + b for every row at once; each step adds h @ Wh into its row
        # block and activates it in place: [sigmoid(i, f, o) | tanh(g)]
        gates = xs[:R] @ Wx + b
        tanh_c = np.empty((R, h_dim), dtype=xs.dtype)  # tanh(c_new)
        h_prevs = np.empty((R, h_dim), dtype=xs.dtype)
        c_prevs = np.empty((R, h_dim), dtype=xs.dtype)
        h_out = np.empty((R, h_dim), dtype=xs.dtype)  # states per packed row

        # a step's k rows are the first k of the batch; a row not yet started holds zero state
        h = np.zeros((max((k for _, k in steps), default=0), h_dim), dtype=xs.dtype)
        c = np.zeros_like(h)
        for s, (a, k) in enumerate(steps):
            rows = slice(a, a + k)
            z = gates[rows]
            if s:  # the first step starts from h = 0
                z += h[:k] @ Wh
            z[:, : 3 * h_dim] = sigmoid(z[:, : 3 * h_dim])
            z[:, 3 * h_dim :] = np.tanh(z[:, 3 * h_dim :])
            i = z[:, :h_dim]
            f = z[:, h_dim : 2 * h_dim]
            o = z[:, 2 * h_dim : 3 * h_dim]
            g = z[:, 3 * h_dim :]
            c_new = f * c[:k] + i * g
            tc = np.tanh(c_new)

            tanh_c[rows] = tc
            h_prevs[rows] = h[:k]
            c_prevs[rows] = c[:k]

            h_out[rows] = o * tc
            h[:k] = h_out[rows]
            c[:k] = c_new
        cache = (xs, gates, tanh_c, h_prevs, c_prevs, steps, l, dir_)
        return h_out, cache

    def _run_direction_backward(self, cache, dh_out, grads):
        """BPTT for one direction. dh_out: (R,H) grads on the stored states.

        Returns the (R,d) gradient on the first R rows of the layer input.
        """
        xs, gates, tanh_c, h_prevs, c_prevs, steps, l, dir_ = cache
        h_dim = self.hidden
        R = gates.shape[0]
        Wx = self.params[f"l{l}.{dir_}.Wx"]
        Wh = self.params.get(f"l{l}.{dir_}.Wh")
        dZ = np.empty_like(gates)  # pre-activation gate gradients per packed row

        dh_carry = np.zeros((max((k for _, k in steps), default=0), h_dim), dtype=dZ.dtype)
        dc_carry = np.zeros_like(dh_carry)
        for s, (a, k) in reversed(list(enumerate(steps))):
            rows = slice(a, a + k)
            i = gates[rows, :h_dim]
            f = gates[rows, h_dim : 2 * h_dim]
            o = gates[rows, 2 * h_dim : 3 * h_dim]
            g = gates[rows, 3 * h_dim :]
            tc = tanh_c[rows]

            dh_new = dh_out[rows] + dh_carry[:k]
            do = dh_new * tc
            dc_new = dc_carry[:k] + dh_new * o * (1.0 - tc * tc)
            df = dc_new * c_prevs[rows]
            di = dc_new * g
            dg = dc_new * i

            dz = dZ[rows]
            dz[:, :h_dim] = di * i * (1 - i)
            dz[:, h_dim : 2 * h_dim] = df * f * (1 - f)
            dz[:, 2 * h_dim : 3 * h_dim] = do * o * (1 - o)
            dz[:, 3 * h_dim :] = dg * (1 - g * g)
            if s:
                dh_carry[:k] = dz @ Wh.T
            dc_carry[:k] = dc_new * f

        grads[f"l{l}.{dir_}.Wx"] += xs[:R].T @ dZ
        if Wh is not None:
            grads[f"l{l}.{dir_}.Wh"] += h_prevs.T @ dZ
        grads[f"l{l}.{dir_}.b"] += dZ.sum(axis=0)
        return dZ @ Wx.T

    def forward(self, queries: list[list[int]], rows: np.ndarray):
        """Encode token lists over the embedding ``rows``.

        Returns the (B,d) readout (forward/backward states at position 0)
        and a cache for :meth:`backward`.
        """
        pack = pack_tokens(queries)
        B = len(queries)
        # time-major rows, longest sequence first: step t holds the first n_t sequences
        packed_row = np.lexsort((-np.repeat(np.arange(B), pack.lengths), pack.pos))
        tokens = pack.tokens[pack.flat[packed_row]]
        counts = np.bincount(pack.pos).tolist()  # n_t, non-increasing
        firsts = np.cumsum([0] + counts[:-1]).tolist()
        forward_steps = list(zip(firsts, counts))
        caches = []
        layer_in = rows[tokens]  # (N,d)
        for l in range(self.layers):
            # the readout takes h_fwd[0] from the top layer, its forward direction's first step
            fwd_steps = forward_steps[:1] if l == self.layers - 1 else forward_steps
            hf, cf = self._run_direction(layer_in, fwd_steps, l, "fwd")
            hb, cb = self._run_direction(layer_in, forward_steps[::-1], l, "bwd")
            caches.append((cf, cb))
            layer_in = np.concatenate([hf, hb[: len(hf)]], axis=1)
        readout = np.empty_like(layer_in)  # (B,d): [h_fwd[0] | h_bwd[0]] of the top layer
        readout[pack.order[::-1]] = layer_in
        return readout, (caches, pack.order, tokens)

    def backward(self, cache, d_readout: np.ndarray, grads=None):
        """Adds the parameter gradients into ``grads`` (fresh zeros if None) and returns
        (param grads, token ids (N,), token grads (N,d)), in time-major packed order."""
        caches, order, tokens = cache
        h_dim = self.hidden
        if grads is None:
            grads = {k: np.zeros_like(v) for k, v in self.params.items()}

        d_layer_out = np.zeros((len(tokens), self.d), dtype=d_readout.dtype)
        d_layer_out[: len(order)] = d_readout[order[::-1]]
        for l in range(self.layers - 1, -1, -1):
            cf, cb = caches[l]
            dxf = self._run_direction_backward(cf, d_layer_out[:, :h_dim], grads)
            d_layer_out = self._run_direction_backward(cb, d_layer_out[:, h_dim:], grads)
            d_layer_out[: len(dxf)] += dxf
        return grads, tokens, d_layer_out
