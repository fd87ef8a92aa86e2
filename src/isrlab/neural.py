"""Minimal differentiable layers on plain numpy arrays.

Everything the guesser and enquirer need and nothing more: dense nets of
one ReLU hidden layer, the guesser's paired form (rows [item, context]
scored without building them, with inverted dropout in training), a
bidirectional LSTM, stabilized softmax cross-entropy, and Adam, its
moment and epsilon constants fixed, with global-norm gradient clipping.
The LSTM's cell step and its gate gradients are public, so the enquirer
can step its two directions over different positions and rows.
Parameters live in a ParamStore keyed by name; backward passes accumulate
gradients into the store and an explicit ``adam_step`` consumes them.

All math is float64.  Every backward pass here is checked against central
finite differences in the test suite, so keep forward and backward in
lockstep when editing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

CHECKPOINT_FORMAT_VERSION = 1

# Item rows per block of a cached ``pair_forward`` (whole games, a multiple
# of 4 of them) and rows or games per block of ``_blocks``: a power of two.
# Of 128, 256 and 512 item rows, 512 ran 204,800 eval rows slowest.
PREDICT_BLOCK_ROWS = 256

# Games per sub-block of a ``pair_forward`` on a table, whose (128, H)
# buffer takes one item slot of them at a time: 64 ran about as fast, and
# 256 ran 9-15% slower, its buffer (1 MB at H=512) no longer in cache.
PREDICT_SUB_BLOCK_GAMES = 128

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # Kingma and Ba's defaults
# finite-difference step, and the discrepancy ``max_relative_error`` counts as zero
FD_STEP, FD_NOISE_FLOOR = 1e-5, 1e-8


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # A single-row matmul dispatches to a gemv kernel that rounds
    # differently from gemm, so one row is padded to two and goes to gemm
    # like any other batch.  That does not make a row's output independent
    # of its batch: BLAS may use another gemm kernel for small batches, and
    # with several threads it splits the rows by batch size.  ``out`` gets
    # the product (for one row, as a copy by np.positive).
    if a.shape[0] == 1:
        return np.positive((np.concatenate([a, a], axis=0) @ b)[:1], out=out)
    return np.matmul(a, b, out=out)


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


def check_dropout(rate: float) -> None:
    """Raise a ValueError unless the dropout ``rate`` is in [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {rate}")


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted dropout mask: entries are 0 or 1/(1-rate)."""
    check_dropout(rate)
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
    """Scale all gradients so their joint L2 norm is at most ``max_norm``,
    which must be finite and positive."""
    check_positive("max_norm", max_norm)
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in store.grads.values())))
    if norm > max_norm:
        scale = max_norm / norm
        for g in store.grads.values():
            g *= scale
    return norm


def adam_step(store: ParamStore, lr: float, clip_norm: float | None = None) -> None:
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
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in store.values.items():
        g = store.grads[name]
        m = store._m[name]
        v = store._v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    store.step_count = t
    store.zero_grads()


# ---------------------------------------------------------------------------
# Dense ReLU network


@dataclass(frozen=True)
class MlpSpec:
    """Affine -> ReLU -> affine, one hidden layer, with no dropout."""

    in_width: int
    hidden: int
    out_width: int

    def __post_init__(self):
        widths = (self.in_width, self.hidden, self.out_width)
        if any(w < 1 for w in widths):
            raise ValueError(f"all widths must be >= 1, got {widths}")


def init_mlp(store: ParamStore, prefix: str, spec: MlpSpec,
             rng: np.random.Generator) -> None:
    for i, (a, b) in enumerate(((spec.in_width, spec.hidden), (spec.hidden, spec.out_width))):
        store.add(f"{prefix}/W{i}", uniform_fan_in(rng, a, (a, b)))
        store.add(f"{prefix}/b{i}", np.zeros(b))


@dataclass(eq=False, slots=True)
class MlpCache:
    """A forward pass's input and hidden activation; consumable exactly once."""

    x: np.ndarray
    hidden: np.ndarray
    consumed: bool = False


def mlp_forward(store: ParamStore, prefix: str, spec: MlpSpec,
                x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Run the network on a (batch, in_width) matrix.  Bias and ReLU go in
    place into each matmul's fresh result, so ``x`` is never written and the
    cache keeps the ReLU output the output layer read."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.in_width:
        raise ValueError(f"expected input of shape (n, {spec.in_width}), got {x.shape}")
    h = _mm(x, store.values[f"{prefix}/W0"])
    h += store.values[f"{prefix}/b0"]
    np.maximum(h, 0.0, out=h)
    y = _mm(h, store.values[f"{prefix}/W1"])
    y += store.values[f"{prefix}/b1"]
    return y, MlpCache(x, h)


def mlp_backward(store: ParamStore, prefix: str, cache: MlpCache,
                 dout: np.ndarray) -> np.ndarray:
    """Accumulate parameter gradients; return the gradient w.r.t. the input.
    The ReLU's gate, where its cached output is positive, multiplies the
    fresh ``dout @ W1.T`` in place: neither ``dout`` nor the cache is written."""
    if cache.consumed:
        raise ValueError("mlp backward cache already consumed")
    cache.consumed = True
    d = np.asarray(dout, dtype=np.float64)
    store.grads[f"{prefix}/W1"] += cache.hidden.T @ d
    store.grads[f"{prefix}/b1"] += d.sum(axis=0)
    d = d @ store.values[f"{prefix}/W1"].T
    d *= cache.hidden > 0.0
    store.grads[f"{prefix}/W0"] += cache.x.T @ d
    store.grads[f"{prefix}/b0"] += d.sum(axis=0)
    return d @ store.values[f"{prefix}/W0"].T


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


def check_positive(name: str, value: float, zero: bool = False) -> None:
    """Raise a ValueError naming ``name`` and ``value`` unless ``value`` is
    finite and positive, or with ``zero`` finite and at least 0."""
    if not (math.isfinite(value) and (value > 0.0 or zero and value == 0.0)):
        raise ValueError(f"{name} must be finite and {'at least 0' if zero else 'positive'}, "
                         f"got {value}")


def check_game_shapes(guests: np.ndarray, dim: int, **arrays: tuple) -> None:
    """Raise a ValueError naming the argument and both shapes unless
    ``guests`` is (B, K, ``dim``), or (K, ``dim``) for one game unbatched,
    and each ``name=(array, shape)`` is (B, *shape), or ``shape`` with
    unbatched guests; a str entry of ``shape`` names a free size.  K must
    be at least one."""
    if guests.ndim not in (2, 3) or guests.shape[-1] != dim:
        raise ValueError(f"guests shape {guests.shape} is neither (B, K, {dim}) nor "
                         f"(K, {dim}), for the model dimension {dim}")
    if guests.shape[-2] < 1:
        raise ValueError(f"guests shape {guests.shape} holds no guest: need at least one "
                         "guest per game")
    for name, (array, shape) in arrays.items():
        want = (*guests.shape[:guests.ndim - 2], *shape)
        if array.ndim != len(want) or any(
                isinstance(w, int) and w != size for w, size in zip(want, array.shape)):
            want = ", ".join(map(str, want)) + ("," if len(want) == 1 else "")
            raise ValueError(f"{name} shape {array.shape} does not fit guests shape "
                             f"{guests.shape}: expected ({want})")


def _blocks(count: int):
    # (start, stop) by ``PREDICT_BLOCK_ROWS``, the last block taking the
    # remainder; one block under two blocks' worth
    starts = range(0, max(count - PREDICT_BLOCK_ROWS, 0) + 1, PREDICT_BLOCK_ROWS)
    return zip(starts, [*starts[1:], count])


def _cached_block_games(n: int) -> int:
    # games per block of a cached pass and of its backward sums: a multiple
    # of 4 of them and at most ``PREDICT_BLOCK_ROWS`` item rows, or 4 games
    return max(4, PREDICT_BLOCK_ROWS // n // 4 * 4)


def _score_rows(h: np.ndarray, w1: np.ndarray, out: np.ndarray) -> None:
    # ``h @ w1`` into ``out``, ``h`` zero-padded to a multiple of 4 rows.  At
    # one BLAS thread a row of this (M, H) @ (H, 1) product depends on its
    # batch only when it is one of the last M % 4, which BLAS's 4-row
    # register tile leaves over, so padded, no output depends on its block.
    m = len(h)
    if m % 4:
        h = np.concatenate([h, np.zeros((-m % 4, h.shape[1]))])
    out[...] = (h @ w1)[:m]


@dataclass(eq=False, slots=True)
class PairCache:
    """A cached ``pair_forward``'s inputs, its (B*N, H) activation after
    dropout and the dropout scale.  ``pair_backward`` takes the activation
    and works in it: it holds the hidden gradient and then, in each game's
    first row, the game's sum of it, so the backward pass holds no other
    (B*N, H) or (B, H) array."""

    items: np.ndarray
    context: np.ndarray
    hidden: np.ndarray | None
    scale: float


def pair_forward(store: ParamStore, prefix: str, items: np.ndarray, context: np.ndarray,
                 dropout: float = 0.0, rng: np.random.Generator | None = None,
                 rows: np.ndarray | None = None) -> tuple[np.ndarray, PairCache | None]:
    """(B, N) outputs of a one-hidden-layer, one-output net on the rows
    ``[item, context]`` of (B, N, D) ``items`` and (B, D) ``context``, never
    built: ``context @ W0[D:] + b0`` is taken once per game.  The form of
    ``items`` picks the pass.

    On (B, N, D) ``items`` the pass keeps a cache for ``pair_backward``.  It
    takes blocks of whole games, a multiple of 4 and at most
    ``PREDICT_BLOCK_ROWS`` item rows (4 games when 4 have more), writes
    their item product into the cache's one (B*N, H) activation and applies
    there the context, the ReLU and a ``dropout_mask`` at rate ``dropout``
    from ``rng``: block after block, the uniforms of one whole-batch draw.

    On an (R, D) table ``items`` with (B, N) integer ``rows``, game b's
    items being ``items[rows[b]]``, the pass is an eval pass without a
    cache or dropout.  Each distinct row the games use is multiplied by
    ``W0[:D]`` once; the games go ``PREDICT_SUB_BLOCK_GAMES`` at a time and,
    within those, one item slot at a time: the slot's gathered products,
    context rows and ReLU go through one buffer, whose product with ``W1``
    is the slot's column of the outputs.

    Every product with ``W1`` is taken with its rows zero-padded to a
    multiple of 4.  At one BLAS thread no output then depends on its block,
    nor a row's item product on its batch, so both passes give the
    whole-batch cached pass's outputs on ``items[rows]`` bit for bit.
    A ``dropout`` outside [0, 1), NaN included, is rejected naming it.
    """
    check_dropout(dropout)
    if dropout > 0.0 and (rows is not None or rng is None):
        raise ValueError("dropout needs a cached pass and an rng")
    w0, w1 = store.values[f"{prefix}/W0"], store.values[f"{prefix}/W1"]
    if rows is None:
        b, n, d = items.shape
        flat = items.reshape(b * n, d)
        hidden = np.empty((b * n, w0.shape[1]))
        step = _cached_block_games(n)
    else:
        b, n = rows.shape
        d = items.shape[1]
        check_indices("item row", rows, len(items))
        # slot[r] becomes row r's place among the distinct rows used, and
        # rows each item's row of the projection, which ``items`` becomes
        slot = np.zeros(len(items), dtype=np.intp)
        slot[rows] = 1
        distinct = np.flatnonzero(slot)
        items = _mm(items[distinct], w0[:d])
        slot[distinct] = np.arange(len(distinct))
        rows = slot[rows]
        buf = np.empty((min(b, PREDICT_SUB_BLOCK_GAMES), w0.shape[1]))
        step = PREDICT_SUB_BLOCK_GAMES
    out = np.empty((b, n))
    for g0 in range(0, b, step):
        g1 = min(g0 + step, b)
        ctx = _mm(context[g0:g1], w0[d:])
        ctx += store.values[f"{prefix}/b0"]
        if rows is None:
            h = _mm(flat[g0 * n:g1 * n], w0[:d], hidden[g0 * n:g1 * n])
            h.reshape(g1 - g0, n, -1)[...] += ctx[:, None]
            np.maximum(h, 0.0, out=h)
            if dropout > 0.0:
                h *= dropout_mask(rng, h.shape, dropout)
            _score_rows(h, w1, out[g0:g1].reshape(-1, 1))
            continue
        h = buf[:g1 - g0]
        for j in range(n):
            np.take(items, rows[g0:g1, j], axis=0, mode="clip", out=h)
            h += ctx
            np.maximum(h, 0.0, out=h)
            _score_rows(h, w1, out[g0:g1, j:j + 1])
    out += store.values[f"{prefix}/b1"]
    cache = PairCache(flat, context, hidden, 1.0 / (1.0 - dropout)) if rows is None else None
    return out, cache


def pair_backward(store: ParamStore, prefix: str, cache: PairCache, dout: np.ndarray,
                  context_grad: bool = False) -> np.ndarray | None:
    """Accumulate a cached ``pair_forward``'s parameter gradients for the
    (B, N) output gradient; with ``context_grad``, return the context's.
    The hidden gradient ``(dout * W1) * scale * (activation > 0)``, written
    block by block over the activation the cache gives up, is the masked
    ``dh * mask * (relu > 0)`` bit for bit while ``dh * scale`` is finite:
    the activation is positive exactly where the mask kept a positive ReLU
    output, and elsewhere both give a zero with the sign of ``dh``.

    Once ``W0[:D]``'s gradient has read every row of it, each game's sum of
    its N rows, the gradient ``W0[D:]``, ``b0`` and the context see, is
    written into the game's first row, games in the forward's blocks through
    one small buffer; those sums are then read as a strided (B, H) view."""
    if cache.hidden is None:
        raise ValueError("pair backward cache already consumed")
    items, context, hidden, scale = cache.items, cache.context, cache.hidden, cache.scale
    cache.hidden = None                 # consumed: the activation becomes dh
    b, n = dout.shape
    d = context.shape[1]
    dout = dout.reshape(b * n, 1)
    store.grads[f"{prefix}/W1"] += hidden.T @ dout
    store.grads[f"{prefix}/b1"] += dout.sum(axis=0)
    w1 = store.values[f"{prefix}/W1"][:, 0]            # one output: no k=1 product
    for start, stop in _blocks(b * n):
        dh = hidden[start:stop]
        kept = dh > 0.0
        np.multiply(dout[start:stop], w1, out=dh)
        dh *= scale
        dh *= kept
    store.grads[f"{prefix}/W0"][:d] += items.T @ hidden   # ``hidden`` now holds dh
    # W0[D:] and b0 see game sums: each game's goes to its first row
    games = hidden.reshape(b, n, -1)
    step = _cached_block_games(n)
    buf = np.empty((min(b, step), hidden.shape[1]))
    for g0 in range(0, b, step):
        block = games[g0:g0 + step]
        np.add.reduce(block, axis=1, out=buf[:len(block)])
        block[:, 0] = buf[:len(block)]
    dctx = games[:, 0]
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
    i_f = sigmoid(gates[:, :2 * hidden])
    i, f = i_f[:, :hidden], i_f[:, hidden:]
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


def bilstm_forward(store: ParamStore, prefix: str, spec: BiLstmSpec,
                   sequence: np.ndarray,
                   start_token: np.ndarray) -> tuple[np.ndarray, BiLstmCache]:
    """Encode ``[start_token, x_1..x_T]``; returns (batch, T+1, 2*hidden).

    ``sequence`` is (batch, T, in_width) with T >= 0; the learned start
    token is prepended as the position-0 input so an empty sequence still
    produces one output.  Position t carries the concatenation of the
    forward state and the backward state at t.
    """
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 3 or sequence.shape[2] != spec.in_width:
        raise ValueError(f"expected sequence of shape (n, t, {spec.in_width}), got {sequence.shape}")
    start_token = np.asarray(start_token, dtype=np.float64)
    if start_token.shape != (spec.in_width,):
        raise ValueError(f"start token must have shape ({spec.in_width},), got {start_token.shape}")
    inputs = np.concatenate([np.broadcast_to(start_token, (len(sequence), 1, spec.in_width)),
                             sequence], axis=1)
    length = inputs.shape[1]
    states_f, steps_f = lstm_forward(
        store.values[f"{prefix}/Wf"], store.values[f"{prefix}/bf"],
        inputs, range(length), spec.hidden)
    states_b, steps_b = lstm_forward(
        store.values[f"{prefix}/Wb"], store.values[f"{prefix}/bb"],
        inputs, range(length - 1, -1, -1), spec.hidden)
    hidden = np.concatenate([states_f, states_b], axis=2)
    return hidden, BiLstmCache(steps_f, steps_b)


def lstm_gate_grads(step, dh, dc_next) -> np.ndarray:
    """One ``lstm_cell`` step's (batch, 4H) gate gradients, the four
    written into one buffer, from the gradients of its new state.  ``dh``
    is overwritten, and ``dc_next``, the cell gradient carried back from
    the step after, becomes the one this step passes back.  ``step`` is
    the cell's intermediates; one row of them serves a batch of rows that
    share the step."""
    _, i, f, g, o, c_prev, tanh_c = step
    dgates = np.empty((dh.shape[0], 4 * dh.shape[1]))
    di, df, dg, do = np.split(dgates, 4, axis=1)
    tmp = np.empty_like(dh)
    np.multiply(dh, tanh_c, out=do)
    # dc = dc_next + dh * o * (1 - tanh_c^2), built in dh
    dh *= o
    dh *= np.subtract(1.0, np.multiply(tanh_c, tanh_c, out=tmp), out=tmp)
    dc = np.add(dc_next, dh, out=dh)
    # each gate's gradient into its quarter of dgates, its products taken
    # left to right as in dc * g * i * (1 - i), which fixes the rounding
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
    return dgates


def lstm_backward(store, w_name, b_name, steps, d_states, hidden):
    """Backpropagate (batch, L, hidden) state gradients through the steps of
    ``lstm_forward``; accumulates into the direction's weight and bias
    gradients and returns the (batch, L, in_width) input gradients.

    A step taken from the zero state cached only its input as ``xh``, so
    its weight gradient goes to the input rows of ``W`` alone.
    """
    W = store.values[w_name]
    dW = store.grads[w_name]
    db = store.grads[b_name]
    batch = d_states.shape[0]
    in_width = W.shape[0] - hidden
    d_inputs = np.zeros((batch, d_states.shape[1], in_width))
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for pos, *step in reversed(steps):
        dgates = lstm_gate_grads(step, d_states[:, pos, :] + dh_next, dc_next)
        xh = step[0]
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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis; -inf logits give 0."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


def softmax_cross_entropy(logits: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross-entropy of softmax(logits) at the ``targets`` and its
    logit gradient softmax(logits) - one_hot(targets), for (n, width)
    logits and (n,) targets."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError(f"expected (n, width) logits, got shape {logits.shape}")
    n, width = logits.shape
    if targets.shape != (n,):
        raise ValueError(f"expected {n} targets, got shape {targets.shape}")
    if np.any(targets < 0) or np.any(targets >= width):
        raise ValueError(f"target index out of range for width {width}")
    logp = log_softmax(logits)
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


def numerical_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar function at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + FD_STEP
        hi = f(x)
        x[idx] = orig - FD_STEP
        lo = f(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * FD_STEP)
        it.iternext()
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a-b| / max(|a|, |b|), with discrepancies at or
    below the absolute ``FD_NOISE_FLOOR`` counted as zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    diff = np.abs(a - b)
    denom = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(diff <= FD_NOISE_FLOOR, 0.0, diff / denom)
    return float(np.max(rel))


# ---------------------------------------------------------------------------
# Checkpoints


def arch_hash(arch: dict) -> str:
    return hashlib.sha256(json.dumps(arch, sort_keys=True).encode()).hexdigest()


def save_params(path, store: ParamStore, kind: str, arch: dict) -> None:
    """Write parameters as JSON: name -> shape + flat value list.

    The file carries a format version and a hash of the architecture
    dictionary so mismatched models are rejected at load time.  It holds
    the bytes ``json.dumps`` gives for the whole payload, written by the C
    encoder 4,096 values at a time, so no more text than that is held.
    """
    header = json.dumps({
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "arch": arch,
        "arch_hash": arch_hash(arch),
        "step_count": store.step_count,
    })
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header[:-1] + ', "params": {')
        for k, (name, value) in enumerate(store.values.items()):
            fh.write(f'{", " * (k > 0)}{json.dumps(name)}: '
                     f'{{"shape": {json.dumps(list(value.shape))}, "values": [')
            flat = value.ravel()
            for start in range(0, flat.size, 4096):
                fh.write(", " * (start > 0) + json.dumps(flat[start:start + 4096].tolist())[1:-1])
            fh.write("]}")
        fh.write("}}")


_JSON_NUMBERS = frozenset((int, float))


class CheckpointFormatError(ValueError):
    """A checkpoint file that is not a saved model: names the file and what
    is wrong with it."""


def is_number_list(values) -> bool:
    """Whether parsed JSON is an array of numbers: json reads a number as an
    int or a float, and true, false, null and a string as bool, None and str."""
    return isinstance(values, list) and _JSON_NUMBERS.issuperset(map(type, values))


def _is_count(value, least: int = 0) -> bool:
    # an int of at least ``least``; JSON's true and false are not counts
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def load_params(path) -> tuple[ParamStore, str, dict]:
    def fail(what):
        return CheckpointFormatError(f"checkpoint {path}: {what}")

    def to_array(obj):
        # each parameter's values become an array as soon as they are
        # parsed, so one parameter's floats at most are Python objects;
        # values that are not numbers, or an integer beyond the float range,
        # stay as parsed, rejected below
        if "shape" in obj and "values" in obj and is_number_list(obj["values"]):
            try:
                obj["values"] = np.asarray(obj["values"], dtype=np.float64)
            except OverflowError:
                pass
        return obj

    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh, object_hook=to_array)
        except json.JSONDecodeError as err:
            raise fail(f"not valid JSON ({err})") from None
        except UnicodeDecodeError:
            raise fail("not valid UTF-8") from None
    if not isinstance(payload, dict):
        raise fail(f"holds a JSON {type(payload).__name__}, not an object")
    for key in ("format_version", "kind", "arch", "arch_hash", "params"):
        if key not in payload:
            raise fail(f"missing key {key!r}")
    for key in ("arch", "params"):
        if not isinstance(payload[key], dict):
            raise fail(f"{key!r} is a JSON {type(payload[key]).__name__}, not an object")
    version = payload["format_version"]
    if version != CHECKPOINT_FORMAT_VERSION:
        raise fail(f"unsupported format version {version!r}")
    arch = payload["arch"]
    if arch_hash(arch) != payload["arch_hash"]:
        raise fail("architecture hash mismatch")
    store = ParamStore()
    for name, rec in payload["params"].items():
        if not isinstance(rec, dict):
            raise fail(f"parameter {name!r} is not an object")
        for key in ("shape", "values"):
            if key not in rec:
                raise fail(f"parameter {name!r} has no {key!r}")
        shape, values = rec["shape"], rec["values"]
        if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
            raise fail(f"parameter {name!r} has a shape that is not a list of counts: {shape!r}")
        if not isinstance(values, np.ndarray) or values.shape != (math.prod(shape),):
            raise fail(f"parameter {name!r} does not hold the {math.prod(shape)} numbers "
                       f"of its shape {tuple(shape)}")
        store.add(name, values.reshape(shape))
    store.step_count = payload.get("step_count", 0)
    if not _is_count(store.step_count):
        raise fail(f"step_count {store.step_count!r} is not a count")
    return store, payload["kind"], arch


def load_model(path, kind: str, config_type, init) -> tuple[object, ParamStore]:
    """The config and parameters of the ``kind`` checkpoint at ``path``: the
    ``config_type`` of its ``arch`` fields, each an integer of at least 1
    (true and false are not), and parameters matching ``init(config)``'s by
    name and shape.  Other arch keys, such as the dropout rate that older
    guesser checkpoints recorded, are not read."""
    store, found, arch = load_params(path)
    if found != kind:
        raise ValueError(f"checkpoint holds a {found!r} model, not "
                         f"{'an' if kind[0] in 'aeiou' else 'a'} {kind}")
    values = {}
    for name in (field.name for field in fields(config_type)):
        if name not in arch:
            raise CheckpointFormatError(f"checkpoint {path}: arch has no field {name!r}")
        values[name] = arch[name]
        if not _is_count(arch[name], 1):
            raise CheckpointFormatError(f"checkpoint {path}: arch field {name!r} is not an "
                                        f"integer of at least 1: {arch[name]!r}")
    config = config_type(**values)
    check_params(store, init(config))
    return config, store


def check_params(store: ParamStore, expected: ParamStore) -> None:
    """Raise ValueError naming a parameter missing, unexpected, misshapen
    or holding a NaN or an infinity."""
    for name in sorted(store.values.keys() | expected.values.keys()):
        if name not in store.values:
            raise ValueError(f"checkpoint is missing parameter {name!r}")
        if name not in expected.values:
            raise ValueError(f"checkpoint has unexpected parameter {name!r}")
        got, want = store.values[name].shape, expected.values[name].shape
        if got != want:
            raise ValueError(f"checkpoint parameter {name!r} has shape {got}, expected {want}")
        if not np.all(np.isfinite(store.values[name])):
            raise ValueError(f"checkpoint parameter {name!r} holds a non-finite value")
