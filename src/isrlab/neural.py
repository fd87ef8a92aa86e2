"""Minimal differentiable layers on plain numpy arrays.

Everything the guesser and enquirer need and nothing more: dense ReLU
networks with inverted dropout (and the guesser's paired form, which
scores rows [item, context] without building them), a bidirectional LSTM,
stabilized softmax cross-entropy, and Adam with global-norm gradient
clipping.  The LSTM's one-direction passes are public, so the enquirer
can run its two directions over different positions.  Parameters live in
a ParamStore keyed by name; backward passes accumulate gradients into the
store and an explicit ``adam_step`` consumes them.

All math is float64.  Every backward pass here is checked against central
finite differences in the test suite, so keep forward and backward in
lockstep when editing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

CHECKPOINT_FORMAT_VERSION = 1

# Item rows per block of an eval-mode ``pair_forward``: a power of two, so
# every block starts on a boundary of the BLAS kernels' row tiles.  Of 128,
# 256 and 512, 512 ran 204,800 rows slowest; 128 and 256 ran alike.
PREDICT_BLOCK_ROWS = 256


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # A single-row matmul dispatches to a gemv kernel that rounds
    # differently from gemm, so one row is padded to two and goes to gemm
    # like any other batch.  That does not make a row's output independent
    # of its batch: BLAS may use another gemm kernel for small batches, and
    # with several threads it splits the rows by batch size.
    if a.shape[0] == 1:
        return (np.concatenate([a, a], axis=0) @ b)[:1]
    return a @ b


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, without a
    # branch: exp only ever sees -|x|, so never overflows, and as e lies in
    # [0, 1] the numerator max(e, x >= 0) is 1 for x >= 0 and e below
    # (NaN stays NaN).  ``x`` is never written; a 0-d input or a scalar
    # gives a scalar.
    x = np.asarray(x)
    e = np.copysign(x, -1.0, out=np.empty(x.shape, np.result_type(x, 1.0)))
    np.exp(e, out=e)
    y = np.maximum(e, x >= 0, out=np.empty_like(e))
    e += 1.0
    y /= e
    return y[()]


def uniform_fan_in(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Weight init: uniform in +-sqrt(1/fan_in), the stable default here."""
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted dropout mask: entries are 0 or 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


class ParamStore:
    """Named parameter tensors with paired gradient and Adam moment buffers."""

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if name in self.values:
            raise ValueError(f"parameter {name!r} already registered")
        v = np.array(value, dtype=np.float64)
        self.values[name] = v
        self.grads[name] = np.zeros_like(v)
        self._m[name] = np.zeros_like(v)
        self._v[name] = np.zeros_like(v)
        return v

    def n_parameters(self) -> int:
        return sum(v.size for v in self.values.values())

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0


def clip_grads_global_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in store.grads.values())))
    if norm > max_norm:
        scale = max_norm / norm
        for g in store.grads.values():
            g *= scale
    return norm


def adam_step(store: ParamStore, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8,
              clip_norm: float | None = None) -> None:
    """One Adam update with bias correction; zeroes gradients afterwards.

    Raises ValueError naming the parameter if any gradient is non-finite.
    When ``clip_norm`` is given, global-norm clipping runs before the step.
    """
    for name, g in store.grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient in parameter {name!r}")
    if clip_norm is not None:
        clip_grads_global_norm(store, clip_norm)
    t = store.step_count + 1
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in store.values.items():
        g = store.grads[name]
        m = store._m[name]
        v = store._v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    store.step_count = t
    store.zero_grads()


# ---------------------------------------------------------------------------
# Dense ReLU network


@dataclass(frozen=True)
class MlpSpec:
    """Affine -> ReLU -> dropout -> ... -> affine chain."""

    in_width: int
    hidden: tuple[int, ...]
    out_width: int
    dropout: float = 0.0

    def __post_init__(self):
        widths = (self.in_width, *self.hidden, self.out_width)
        if any(w < 1 for w in widths):
            raise ValueError(f"all widths must be >= 1, got {widths}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


def init_mlp(store: ParamStore, prefix: str, spec: MlpSpec,
             rng: np.random.Generator) -> None:
    widths = (spec.in_width, *spec.hidden, spec.out_width)
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        store.add(f"{prefix}/W{i}", uniform_fan_in(rng, a, (a, b)))
        store.add(f"{prefix}/b{i}", np.zeros(b))


@dataclass(eq=False, slots=True)
class MlpCache:
    """Intermediates for one forward pass; consumable exactly once."""

    affine_inputs: list
    relu_outputs: list
    dropout_masks: list
    consumed: bool = False


def mlp_forward(store: ParamStore, prefix: str, spec: MlpSpec, x: np.ndarray,
                train: bool = False,
                rng: np.random.Generator | None = None) -> tuple[np.ndarray, MlpCache]:
    """Run the network on a (batch, in_width) matrix.

    Dropout is applied after each ReLU only when ``train`` is true; eval
    mode is the identity thanks to inverted-dropout scaling at train time.
    Bias and ReLU are applied in place to each matmul's fresh result, so
    ``x`` is never written; without dropout, each cached ReLU output is the
    array the next layer read.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.in_width:
        raise ValueError(f"expected input of shape (n, {spec.in_width}), got {x.shape}")
    use_dropout = train and spec.dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode dropout requires an rng")
    n_affine = len(spec.hidden) + 1
    h = x
    affine_inputs, relu_outputs, dropout_masks = [], [], []
    for i in range(n_affine):
        affine_inputs.append(h)
        h = _mm(h, store.values[f"{prefix}/W{i}"])
        h += store.values[f"{prefix}/b{i}"]
        if i < n_affine - 1:
            np.maximum(h, 0.0, out=h)
            relu_outputs.append(h)
            mask = dropout_mask(rng, h.shape, spec.dropout) if use_dropout else None
            dropout_masks.append(mask)
            if mask is not None:
                h = h * mask
    return h, MlpCache(affine_inputs, relu_outputs, dropout_masks)


def mlp_backward(store: ParamStore, prefix: str, spec: MlpSpec,
                 cache: MlpCache, dout: np.ndarray) -> np.ndarray:
    """Accumulate parameter gradients; return the gradient w.r.t. the input.

    The masks multiply each matmul's fresh result in place, so neither
    ``dout`` nor the cache is written.
    """
    if cache.consumed:
        raise ValueError("mlp backward cache already consumed")
    cache.consumed = True
    d = np.asarray(dout, dtype=np.float64)
    n_affine = len(spec.hidden) + 1
    for i in reversed(range(n_affine)):
        store.grads[f"{prefix}/W{i}"] += cache.affine_inputs[i].T @ d
        store.grads[f"{prefix}/b{i}"] += d.sum(axis=0)
        d = d @ store.values[f"{prefix}/W{i}"].T
        if i > 0:
            mask = cache.dropout_masks[i - 1]
            if mask is not None:
                d *= mask
            d *= cache.relu_outputs[i - 1] > 0.0
    return d


def check_indices(name: str, indices: np.ndarray, high: int) -> None:
    """Raise a ValueError naming the first of ``indices`` outside [0, high)."""
    if indices.size and (indices.min() < 0 or indices.max() >= high):
        bad = indices[(indices < 0) | (indices >= high)][0]
        raise ValueError(f"{name} {bad} is outside [0, {high})")


def check_counts(config, *names: str) -> None:
    """Raise a ValueError naming the first of the ``config`` fields
    ``names`` that is below one."""
    for name in names:
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(config, name)}")


def _blocks(count: int, whole: bool):
    # (start, stop) by ``PREDICT_BLOCK_ROWS``, the last block taking the
    # remainder; one block when ``whole`` or under two blocks' worth
    if whole or count < 2 * PREDICT_BLOCK_ROWS:
        return [(0, count)]
    starts = range(0, count - PREDICT_BLOCK_ROWS + 1, PREDICT_BLOCK_ROWS)
    return zip(starts, [*starts[1:], count])


def _add_context(hidden: np.ndarray, context: np.ndarray, start: int, n: int) -> None:
    # adds to each item row (rows ``start`` on, ``n`` per game) its game's context row
    head = min(-start % n, len(hidden))    # the rest of a game begun before ``start``
    game, whole = -(-start // n), (len(hidden) - head) // n
    hidden[:head] += context[game - 1:game]
    body = hidden[head:head + whole * n].reshape(whole, n, hidden.shape[1])
    body += context[game:game + whole, None]
    hidden[head + whole * n:] += context[game + whole:game + whole + 1]


def pair_forward(store: ParamStore, prefix: str, items: np.ndarray, context: np.ndarray,
                 keep_cache: bool = False, dropout: float = 0.0,
                 rng: np.random.Generator | None = None,
                 rows: np.ndarray | None = None) -> tuple[np.ndarray, MlpCache | None]:
    """(B, N) outputs of a one-hidden-layer, one-output net on the rows
    ``[item, context]`` of (B, N, D) ``items`` and (B, D) ``context``, never
    built: ``context @ W0[D:] + b0`` is taken once per game.

    With ``keep_cache`` the pass runs whole, applies inverted dropout at
    rate ``dropout`` ((B*N, H) masks from ``rng``) and returns the cache for
    ``pair_backward``.  Without, games and then their item rows go
    ``PREDICT_BLOCK_ROWS`` at a time, the last block taking the remainder,
    so at one BLAS thread each row keeps its offset in the kernels' row
    tiles and its bytes.

    With (B, N) integer ``rows`` (an eval pass only), ``items`` is an
    (R, D) table and game b's items are ``items[rows[b]]``: each distinct
    row the games use is multiplied by ``W0[:D]`` once and the blocks
    gather their products from that projection.  At one BLAS thread a row's
    product does not depend on its batch, so the outputs are those of the
    pass on ``items[rows]``.
    """
    if dropout > 0.0 and (not keep_cache or rng is None):
        raise ValueError("dropout needs a cached pass and an rng")
    w0, w1 = store.values[f"{prefix}/W0"], store.values[f"{prefix}/W1"]
    if rows is None:
        b, n, d = items.shape
        flat = items.reshape(b * n, d)
    else:
        if keep_cache:
            raise ValueError("item rows are for an eval pass, which keeps no cache")
        b, n = rows.shape
        d = items.shape[1]
        check_indices("item row", rows, len(items))
        # slot[r] becomes row r's place among the distinct rows used, and
        # flat each item's row of ``projected``
        slot = np.zeros(len(items), dtype=np.intp)
        slot[rows] = 1
        distinct = np.flatnonzero(slot)
        projected = _mm(items[distinct], w0[:d])
        slot[distinct] = np.arange(len(distinct))
        flat = slot[rows.reshape(-1)]
    out = np.empty((b * n, 1))
    # blocks of games first: their item rows start on a block boundary
    for g0, g1 in _blocks(b, keep_cache):
        ctx = _mm(context[g0:g1], w0[d:])
        ctx += store.values[f"{prefix}/b0"]
        for start, stop in _blocks((g1 - g0) * n, keep_cache):
            block = slice(g0 * n + start, g0 * n + stop)
            relu = (_mm(flat[block], w0[:d]) if rows is None
                    else projected[flat[block]])
            _add_context(relu, ctx, start, n)
            np.maximum(relu, 0.0, out=relu)
            mask = dropout_mask(rng, relu.shape, dropout) if dropout > 0.0 else None
            hidden = relu if mask is None else relu * mask
            out[block] = _mm(hidden, w1)
    out += store.values[f"{prefix}/b1"]
    # the first affine layer's input is the pair (items, context)
    cache = MlpCache([(flat, context), hidden], [relu], [mask]) if keep_cache else None
    return out.reshape(b, n), cache


def pair_backward(store: ParamStore, prefix: str, cache: MlpCache, dout: np.ndarray,
                  context_grad: bool = False) -> np.ndarray | None:
    """Accumulate a cached ``pair_forward``'s parameter gradients for the
    (B, N) output gradient; with ``context_grad``, return the context's."""
    if cache.consumed:
        raise ValueError("pair backward cache already consumed")
    cache.consumed = True
    (items, context), hidden = cache.affine_inputs
    (relu,), (mask,) = cache.relu_outputs, cache.dropout_masks
    b, n = dout.shape
    d = context.shape[1]
    dout = dout.reshape(b * n, 1)
    store.grads[f"{prefix}/W1"] += hidden.T @ dout
    store.grads[f"{prefix}/b1"] += dout.sum(axis=0)
    dh = dout * store.values[f"{prefix}/W1"][:, 0]     # one output: no k=1 product
    if mask is not None:
        dh *= mask
    dh *= relu > 0.0
    store.grads[f"{prefix}/W0"][:d] += items.T @ dh
    dctx = dh.reshape(b, n, -1).sum(axis=1)            # W0[D:] and b0 see game sums
    store.grads[f"{prefix}/W0"][d:] += context.T @ dctx
    store.grads[f"{prefix}/b0"] += dctx.sum(axis=0)
    return dctx @ store.values[f"{prefix}/W0"][d:].T if context_grad else None


# ---------------------------------------------------------------------------
# Bidirectional LSTM


@dataclass(frozen=True)
class BiLstmSpec:
    """Per-direction hidden width; outputs are the 2*hidden concatenation."""

    in_width: int
    hidden: int

    @property
    def out_width(self) -> int:
        return 2 * self.hidden


def init_bilstm(store: ParamStore, prefix: str, spec: BiLstmSpec,
                rng: np.random.Generator) -> None:
    # Gate layout along the last axis: input, forget, cell, output.
    # Forget bias starts at +1 so early training does not wash out state.
    fan = spec.in_width + spec.hidden
    for tag in ("f", "b"):
        store.add(f"{prefix}/W{tag}", uniform_fan_in(rng, fan, (fan, 4 * spec.hidden)))
        bias = np.zeros(4 * spec.hidden)
        bias[spec.hidden:2 * spec.hidden] = 1.0
        store.add(f"{prefix}/b{tag}", bias)


@dataclass(eq=False, slots=True)
class BiLstmCache:
    steps_f: list
    steps_b: list
    consumed: bool = False


def lstm_cell(W: np.ndarray, bias: np.ndarray, x: np.ndarray, h: np.ndarray | None,
              c: np.ndarray | None, hidden: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One LSTM step on a batch: the new ``(h, c)`` and the step's
    intermediates ``(xh, i, f, g, o, c_prev, tanh_c)`` for the backward pass.

    ``h = c = None`` is the zero state.  Such a step multiplies only the
    input rows of ``W`` (the hidden rows would multiply zeros) and caches
    ``x`` alone as its ``xh``.  Its ``c_prev`` is an explicit zero array:
    ``f * c + i * g`` turns a -0.0 ``i * g`` into a +0.0 cell state.
    """
    if h is None:
        xh = x
        c = np.zeros((x.shape[0], hidden))
        gates = _mm(x, W[:x.shape[1]])
    else:
        xh = np.concatenate([x, h], axis=1)
        gates = _mm(xh, W)
    gates += bias
    # the sigmoid runs on the input/forget and output quarters only; the
    # cell-candidate quarter takes the tanh
    i, f = np.split(sigmoid(gates[:, :2 * hidden]), 2, axis=1)
    o = sigmoid(gates[:, 3 * hidden:])
    g = np.tanh(gates[:, 2 * hidden:3 * hidden])
    c_next = f * c + i * g
    tanh_c = np.tanh(c_next)
    return o * tanh_c, c_next, (xh, i, f, g, o, c, tanh_c)


def lstm_forward(W, bias, inputs, order, hidden):
    """One direction over ``inputs`` (batch, L, in_width) in position
    ``order`` from the zero state: (batch, L, hidden) states, zero where
    unvisited, and the steps for ``lstm_backward``.  The first step, taken
    from the zero state, multiplies only the input rows of ``W``."""
    h = c = None
    states = np.zeros((inputs.shape[0], inputs.shape[1], hidden))
    steps = []
    for pos in order:
        h, c, step = lstm_cell(W, bias, inputs[:, pos, :], h, c, hidden)
        states[:, pos, :] = h
        steps.append((pos, *step))
    return states, steps


def bilstm_inputs(spec: BiLstmSpec, sequence, start_token) -> np.ndarray:
    """Validate and prepend the start token: (batch, T+1, in_width)."""
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 3 or sequence.shape[2] != spec.in_width:
        raise ValueError(f"expected sequence of shape (n, t, {spec.in_width}), got {sequence.shape}")
    start_token = np.asarray(start_token, dtype=np.float64)
    if start_token.shape != (spec.in_width,):
        raise ValueError(f"start token must have shape ({spec.in_width},), got {start_token.shape}")
    batch = sequence.shape[0]
    return np.concatenate(
        [np.broadcast_to(start_token, (batch, 1, spec.in_width)), sequence], axis=1)


def bilstm_forward(store: ParamStore, prefix: str, spec: BiLstmSpec,
                   sequence: np.ndarray,
                   start_token: np.ndarray) -> tuple[np.ndarray, BiLstmCache]:
    """Encode ``[start_token, x_1..x_T]``; returns (batch, T+1, 2*hidden).

    ``sequence`` is (batch, T, in_width) with T >= 0; the learned start
    token is prepended as the position-0 input so an empty sequence still
    produces one output.  Position t carries the concatenation of the
    forward state and the backward state at t.
    """
    inputs = bilstm_inputs(spec, sequence, start_token)
    length = inputs.shape[1]
    states_f, steps_f = lstm_forward(
        store.values[f"{prefix}/Wf"], store.values[f"{prefix}/bf"],
        inputs, range(length), spec.hidden)
    states_b, steps_b = lstm_forward(
        store.values[f"{prefix}/Wb"], store.values[f"{prefix}/bb"],
        inputs, range(length - 1, -1, -1), spec.hidden)
    hidden = np.concatenate([states_f, states_b], axis=2)
    return hidden, BiLstmCache(steps_f, steps_b)


def lstm_backward(store, w_name, b_name, steps, d_states, hidden):
    """Backpropagate (batch, L, hidden) state gradients through the steps of
    ``lstm_forward``; accumulates into the direction's weight and bias
    gradients and returns the (batch, L, in_width) input gradients.

    The four gate gradients of a step are written into one (batch, 4H)
    buffer.  A step taken from the zero state cached only its input as
    ``xh``, so its weight gradient goes to the input rows of ``W`` alone.
    """
    W = store.values[w_name]
    dW = store.grads[w_name]
    db = store.grads[b_name]
    batch = d_states.shape[0]
    in_width = W.shape[0] - hidden
    d_inputs = np.zeros((batch, d_states.shape[1], in_width))
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    dgates = np.empty((batch, 4 * hidden))
    di, df, dg, do = np.split(dgates, 4, axis=1)
    tmp = np.empty((batch, hidden))
    for pos, xh, i, f, g, o, c_prev, tanh_c in reversed(steps):
        dh = d_states[:, pos, :] + dh_next
        np.multiply(dh, tanh_c, out=do)
        # dc = dc_next + dh * o * (1 - tanh_c^2), built in dh
        dh *= o
        dh *= np.subtract(1.0, np.multiply(tanh_c, tanh_c, out=tmp), out=tmp)
        dc = np.add(dc_next, dh, out=dh)
        # each gate's gradient into its quarter of dgates, its products
        # taken left to right as in dc * g * i * (1 - i), which fixes the
        # rounding
        np.multiply(dc, g, out=di)
        di *= i
        di *= np.subtract(1.0, i, out=tmp)
        np.multiply(dc, c_prev, out=df)
        df *= f
        df *= np.subtract(1.0, f, out=tmp)
        np.multiply(dc, i, out=dg)
        dg *= np.subtract(1.0, np.multiply(g, g, out=tmp), out=tmp)
        do *= o
        do *= np.subtract(1.0, o, out=tmp)
        np.multiply(dc, f, out=dc_next)
        dW[:xh.shape[1]] += xh.T @ dgates
        db += dgates.sum(axis=0)
        dxh = dgates @ W.T
        d_inputs[:, pos, :] = dxh[:, :in_width]
        dh_next = dxh[:, in_width:]
    return d_inputs


def bilstm_backward(store: ParamStore, prefix: str, spec: BiLstmSpec,
                    cache: BiLstmCache, d_hidden: np.ndarray) -> np.ndarray:
    """Accumulate LSTM gradients; return gradients w.r.t. the T+1 inputs.

    Row 0 of the result is the start-token gradient for each batch element.
    """
    if cache.consumed:
        raise ValueError("bilstm backward cache already consumed")
    cache.consumed = True
    d_hidden = np.asarray(d_hidden, dtype=np.float64)
    h = spec.hidden
    d_in = lstm_backward(
        store, f"{prefix}/Wf", f"{prefix}/bf", cache.steps_f, d_hidden[:, :, :h], h)
    d_in += lstm_backward(
        store, f"{prefix}/Wb", f"{prefix}/bb", cache.steps_b, d_hidden[:, :, h:], h)
    return d_in


# ---------------------------------------------------------------------------
# Softmax machinery


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax; -inf logits map to exactly zero probability."""
    z = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - np.max(logits, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


def softmax_cross_entropy(logits: np.ndarray, target) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of softmax(logits) at ``target`` with its logit gradient.

    1-D logits with an int target give a scalar loss; 2-D logits with a
    vector of targets give per-row losses.  The gradient is always
    softmax(logits) - one_hot(target).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 1:
        loss, grad = softmax_cross_entropy(logits[None, :], np.array([target]))
        return float(loss[0]), grad[0]
    targets = np.asarray(target)
    n, width = logits.shape
    if targets.shape != (n,):
        raise ValueError(f"expected {n} targets, got shape {targets.shape}")
    if np.any(targets < 0) or np.any(targets >= width):
        raise ValueError(f"target index out of range for width {width}")
    logp = log_softmax(logits, axis=1)
    rows = np.arange(n)
    loss = -logp[rows, targets]
    grad = np.exp(logp)
    grad[rows, targets] -= 1.0
    return loss, grad


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Log-probabilities with masked entries forced to -inf (probability 0).

    ``mask`` is boolean, True marking entries to exclude.  Raises if any
    row has every entry masked.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.shape:
        raise ValueError(f"mask shape {mask.shape} != logits shape {logits.shape}")
    if np.any(mask.all(axis=-1)):
        raise ValueError("all actions masked in at least one row")
    # exp(-inf) is exactly 0, so masked entries never contribute to the sum
    return log_softmax(np.where(mask, -np.inf, logits))


def categorical_entropy(probs: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """Entropy per row, treating p=0 entries as contributing nothing."""
    safe = np.where(probs > 0.0, log_probs, 0.0)   # avoids 0 * -inf
    return -(probs * safe).sum(axis=-1)


# ---------------------------------------------------------------------------
# Numerical gradient checking


def numerical_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f(x)
        x[idx] = orig - step
        lo = f(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise |a-b| / max(|a|, |b|), with discrepancies at or
    below the absolute ``floor`` counted as zero (finite-difference noise
    on near-zero gradients sits well under it)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    diff = np.abs(a - b)
    denom = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(diff <= floor, 0.0, diff / denom)
    return float(np.max(rel))


# ---------------------------------------------------------------------------
# Checkpoints


def arch_hash(arch: dict) -> str:
    return hashlib.sha256(json.dumps(arch, sort_keys=True).encode()).hexdigest()


def save_params(path, store: ParamStore, kind: str, arch: dict) -> None:
    """Write parameters as JSON: name -> shape + flat value list.

    The file carries a format version and a hash of the architecture
    dictionary so mismatched models are rejected at load time.
    """
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "arch": arch,
        "arch_hash": arch_hash(arch),
        "step_count": store.step_count,
        "params": {
            name: {"shape": list(value.shape), "values": value.ravel().tolist()}
            for name, value in store.values.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_params(path) -> tuple[ParamStore, str, dict]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version!r}")
    arch = payload["arch"]
    if arch_hash(arch) != payload["arch_hash"]:
        raise ValueError("checkpoint architecture hash mismatch")
    store = ParamStore()
    for name, rec in payload["params"].items():
        store.add(name, np.asarray(rec["values"], dtype=np.float64).reshape(rec["shape"]))
    store.step_count = int(payload.get("step_count", 0))
    return store, payload["kind"], arch


def check_params(store: ParamStore, expected: ParamStore) -> None:
    """Raise ValueError naming a parameter missing, unexpected or misshapen."""
    for name in sorted(store.values.keys() | expected.values.keys()):
        if name not in store.values:
            raise ValueError(f"checkpoint is missing parameter {name!r}")
        if name not in expected.values:
            raise ValueError(f"checkpoint has unexpected parameter {name!r}")
        got, want = store.values[name].shape, expected.values[name].shape
        if got != want:
            raise ValueError(f"checkpoint parameter {name!r} has shape {got}, expected {want}")
