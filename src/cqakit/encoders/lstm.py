"""Stacked bidirectional LSTM sequence encoder.

Forward and backward passes are written out by hand over numpy arrays
(no autodiff). Each direction owns half the hidden width, so the
concatenated state read off at sequence position 0 is exactly ``d`` wide.
Batches are right-padded, so each row's real positions are a prefix, and a
padded step holds zero state (``h = m * h_new``, ``c = m * c_new``): the
forward direction reaches padding only after a row's last token, and the
backward direction crosses it before the first one and leaves it in its
zero start state. PAD tokens thus contribute nothing to the readout or to
gradients.

The readout is ``[h_fwd[0] | h_bwd[0]]`` of the top layer, so the top
layer's forward direction runs one step; lower layers and every backward
direction run all T steps. States are laid out step-major, ``(T, B, ·)``.
Each direction computes ``x @ Wx + b`` for all its positions in one matmul
before its recurrence, and its backward pass stacks the per-step gate
gradients so that ``dWx``, ``dWh``, ``db`` and the input gradient are one
matmul or sum each.
"""

from __future__ import annotations

import numpy as np

from .numerics import sigmoid, uniform_init


class BiLSTMEncoder:
    """Bidirectional LSTM, ``layers`` deep, readout at position 0.

    Gate layout in the packed weight matrices is ``[i | f | o | g]``:

        z = x @ Wx + h_prev @ Wh + b          # (B, 4H)
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
        for l in range(layers):
            for dir_ in ("fwd", "bwd"):
                h = self.hidden
                self.params[f"l{l}.{dir_}.Wx"] = uniform_init(rng, (d, 4 * h), d)
                self.params[f"l{l}.{dir_}.Wh"] = uniform_init(rng, (h, 4 * h), d)
                self.params[f"l{l}.{dir_}.b"] = np.zeros(4 * h)

    def _run_direction(self, xs, mask, l, dir_, n):
        """One direction of one layer over positions ``0..n-1``.

        xs: (T,B,d) layer input, mask: (T,B,1) right-padded. Returns the
        (n,B,H) states, zero at padded steps, and a cache. The backward
        direction needs n = T.
        """
        B, d = xs.shape[1:]
        h_dim = self.hidden
        Wx = self.params[f"l{l}.{dir_}.Wx"]
        Wh = self.params[f"l{l}.{dir_}.Wh"]
        b = self.params[f"l{l}.{dir_}.b"]
        order = range(n) if dir_ == "fwd" else range(n - 1, -1, -1)

        # x @ Wx + b for every position at once; each step adds h @ Wh into its
        # row block and activates it in place: [sigmoid(i, f, o) | tanh(g)]
        gates = (xs[:n].reshape(n * B, d) @ Wx + b).reshape(n, B, 4 * h_dim)
        tanh_c = np.empty((n, B, h_dim), dtype=xs.dtype)  # tanh(c_new)
        h_prevs = np.empty((n, B, h_dim), dtype=xs.dtype)
        c_prevs = np.empty((n, B, h_dim), dtype=xs.dtype)
        h_out = np.empty((n, B, h_dim), dtype=xs.dtype)  # states per position

        h = np.zeros((B, h_dim), dtype=xs.dtype)
        c = np.zeros((B, h_dim), dtype=xs.dtype)
        for t in order:
            m = mask[t]
            z = gates[t]
            z += h @ Wh
            z[:, : 3 * h_dim] = sigmoid(z[:, : 3 * h_dim])
            z[:, 3 * h_dim :] = np.tanh(z[:, 3 * h_dim :])
            i = z[:, :h_dim]
            f = z[:, h_dim : 2 * h_dim]
            o = z[:, 2 * h_dim : 3 * h_dim]
            g = z[:, 3 * h_dim :]
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h_new = o * tc

            tanh_c[t] = tc
            h_prevs[t] = h
            c_prevs[t] = c

            h = m * h_new
            c = m * c_new
            h_out[t] = h
        cache = (xs, mask, gates, tanh_c, h_prevs, c_prevs, order, l, dir_)
        return h_out, cache

    def _run_direction_backward(self, cache, dh_out, grads):
        """BPTT for one direction. dh_out: (T,B,H) grads on the stored states.

        Returns the (T,B,d) gradient on the layer input.
        """
        xs, mask, gates, tanh_c, h_prevs, c_prevs, order, l, dir_ = cache
        B, d = xs.shape[1:]
        n = gates.shape[0]
        h_dim = self.hidden
        Wx = self.params[f"l{l}.{dir_}.Wx"]
        Wh = self.params[f"l{l}.{dir_}.Wh"]
        dZ = np.empty_like(gates)  # pre-activation gate gradients per position

        dh_carry = np.zeros((B, h_dim), dtype=xs.dtype)
        dc_carry = np.zeros((B, h_dim), dtype=xs.dtype)
        for t in reversed(order):
            m = mask[t]
            i = gates[t][:, :h_dim]
            f = gates[t][:, h_dim : 2 * h_dim]
            o = gates[t][:, 2 * h_dim : 3 * h_dim]
            g = gates[t][:, 3 * h_dim :]
            tc = tanh_c[t]

            # gradient through h_t = m*h_new and c_t = m*c_new
            dh_new = m * (dh_out[t] + dh_carry)
            dc_new = m * dc_carry

            do = dh_new * tc
            dc_new = dc_new + dh_new * o * (1.0 - tc * tc)
            df = dc_new * c_prevs[t]
            di = dc_new * g
            dg = dc_new * i

            dz = dZ[t]
            dz[:, :h_dim] = di * i * (1 - i)
            dz[:, h_dim : 2 * h_dim] = df * f * (1 - f)
            dz[:, 2 * h_dim : 3 * h_dim] = do * o * (1 - o)
            dz[:, 3 * h_dim :] = dg * (1 - g * g)
            dh_carry = dz @ Wh.T
            dc_carry = dc_new * f

        dz_rows = dZ.reshape(n * B, 4 * h_dim)
        grads[f"l{l}.{dir_}.Wx"] += xs[:n].reshape(n * B, d).T @ dz_rows
        grads[f"l{l}.{dir_}.Wh"] += h_prevs.reshape(n * B, h_dim).T @ dz_rows
        grads[f"l{l}.{dir_}.b"] += dz_rows.sum(axis=0)
        dx = np.zeros_like(xs)
        dx[:n] = (dz_rows @ Wx.T).reshape(n, B, d)
        return dx

    def forward(self, x: np.ndarray, mask: np.ndarray):
        """x: (B,T,d) embedded tokens; mask: (B,T) True at real positions.

        Returns the (B,d) readout (forward/backward states at position 0)
        and a cache for :meth:`backward`.
        """
        T = x.shape[1]
        mask = mask.astype(x.dtype).T[:, :, None]  # (T,B,1)
        caches = []
        layer_in = np.ascontiguousarray(x.swapaxes(0, 1))  # (T,B,d): one row block per step
        for l in range(self.layers):
            # the readout takes h_fwd[0] from the top layer, its forward direction's first step
            steps = 1 if l == self.layers - 1 else T
            hf, cf = self._run_direction(layer_in, mask, l, "fwd", steps)
            hb, cb = self._run_direction(layer_in, mask, l, "bwd", T)
            caches.append((cf, cb))
            layer_in = np.concatenate([hf, hb[:steps]], axis=2)
        readout = layer_in[0]  # (B, d): [h_fwd[0] | h_bwd[0]] of the top layer
        return readout, (caches, x.shape)

    def backward(self, cache, d_readout: np.ndarray):
        """Returns (param grads, d_input (B,T,d))."""
        caches, in_shape = cache
        B, T, d = in_shape
        h_dim = self.hidden
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}

        d_layer_out = np.zeros((T, B, d), dtype=d_readout.dtype)
        d_layer_out[0] = d_readout
        for l in range(self.layers - 1, -1, -1):
            cf, cb = caches[l]
            dxf = self._run_direction_backward(cf, d_layer_out[:, :, :h_dim], grads)
            dxb = self._run_direction_backward(cb, d_layer_out[:, :, h_dim:], grads)
            d_layer_out = dxf + dxb
        return grads, d_layer_out.swapaxes(0, 1)
