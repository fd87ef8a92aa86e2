"""Layer-by-layer checks of the hand-rolled differentiable stack."""

import json
import os
import re
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from isrlab import neural
from isrlab.neural import (BiLstmSpec, MlpSpec, ParamStore, adam_step,
                           bilstm_backward, bilstm_forward, dropout_mask,
                           init_bilstm, init_mlp, load_params, max_relative_error,
                           mlp_backward, mlp_forward, numerical_gradient,
                           save_params, sigmoid, softmax, softmax_cross_entropy)

GRAD_TOL = 1e-4


def make_mlp(spec, rng):
    store = ParamStore()
    init_mlp(store, "net", spec, rng)
    return store


class TestMlp:
    def test_zero_parameters_give_zero_output(self):
        spec = MlpSpec(3, 4, 2)
        store = ParamStore()
        store.add("net/W0", np.zeros((3, 4)))
        store.add("net/b0", np.zeros(4))
        store.add("net/W1", np.zeros((4, 2)))
        store.add("net/b1", np.zeros(2))
        y, _ = mlp_forward(store, "net", spec, np.random.default_rng(0).standard_normal((5, 3)))
        assert np.array_equal(y, np.zeros((5, 2)))

    def test_identity_configuration_is_relu(self):
        spec = MlpSpec(3, 3, 3)
        store = ParamStore()
        store.add("net/W0", np.eye(3))
        store.add("net/b0", np.zeros(3))
        store.add("net/W1", np.eye(3))
        store.add("net/b1", np.zeros(3))
        x = np.array([[1.0, -2.0, 0.5], [-1.0, 0.0, 3.0]])
        y, _ = mlp_forward(store, "net", spec, x)
        assert np.array_equal(y, np.maximum(x, 0.0))

    def test_hand_computed_2_2_1_forward(self):
        # hidden pre-activation for x=[1,-1]:
        #   [1*1 + (-1)(-1) + 0.5, 1*2 + (-1)(0.5) - 0.25] = [2.5, 1.25]
        # both positive, so output = 2.5*2 + 1.25*(-1) + 0.75 = 4.5
        spec = MlpSpec(2, 2, 1)
        store = ParamStore()
        store.add("net/W0", np.array([[1.0, 2.0], [-1.0, 0.5]]))
        store.add("net/b0", np.array([0.5, -0.25]))
        store.add("net/W1", np.array([[2.0], [-1.0]]))
        store.add("net/b1", np.array([0.75]))
        y, _ = mlp_forward(store, "net", spec, np.array([[1.0, -1.0]]))
        assert y == pytest.approx(np.array([[4.5]]), abs=1e-12)

    def test_zero_output_grad_gives_zero_grads(self):
        rng = np.random.default_rng(1)
        spec = MlpSpec(3, 4, 2)
        store = make_mlp(spec, rng)
        _, cache = mlp_forward(store, "net", spec, rng.standard_normal((6, 3)))
        dx = mlp_backward(store, "net", cache, np.zeros((6, 2)))
        assert np.array_equal(dx, np.zeros((6, 3)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in store.grads.values())

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        spec = MlpSpec(3, 4, 2)
        store = make_mlp(spec, rng)
        x = rng.standard_normal((5, 3))
        dout = rng.standard_normal((5, 2))

        def loss():
            y, _ = mlp_forward(store, "net", spec, x)
            return float((y * dout).sum())

        _, cache = mlp_forward(store, "net", spec, x)
        dx = mlp_backward(store, "net", cache, dout)
        for name, p in store.values.items():
            num = numerical_gradient(lambda _: loss(), p)
            assert max_relative_error(store.grads[name], num) < GRAD_TOL, name
        num_x = numerical_gradient(lambda _: loss(), x)
        assert max_relative_error(dx, num_x) < GRAD_TOL

    def test_cache_reuse_rejected(self):
        rng = np.random.default_rng(4)
        spec = MlpSpec(2, 3, 1)
        store = make_mlp(spec, rng)
        _, cache = mlp_forward(store, "net", spec, rng.standard_normal((2, 2)))
        mlp_backward(store, "net", cache, np.ones((2, 1)))
        with pytest.raises(ValueError, match="consumed"):
            mlp_backward(store, "net", cache, np.ones((2, 1)))

    def test_input_width_validated(self):
        rng = np.random.default_rng(5)
        spec = MlpSpec(3, 2, 1)
        store = make_mlp(spec, rng)
        with pytest.raises(ValueError, match="shape"):
            mlp_forward(store, "net", spec, np.zeros((2, 4)))


class TestDropout:
    def test_train_mode_zeroes_expected_fraction(self):
        # binomial 4-sigma band on the kept fraction over 1e5 units
        rate = 0.3
        n = 100_000
        mask = dropout_mask(np.random.default_rng(6), (n,), rate)
        kept = np.count_nonzero(mask) / n
        sigma = np.sqrt(rate * (1.0 - rate) / n)
        assert abs(kept - (1.0 - rate)) < 4 * sigma
        assert np.allclose(mask[mask > 0], 1.0 / (1.0 - rate))


def _allocating_mlp(store, x, dout):
    # the allocating forward and backward formulas the in-place passes
    # replaced: returns the output, input gradient, parameter gradients
    # and ReLU output
    w0, b0, w1, b1 = (store.values[f"net/{name}"] for name in ("W0", "b0", "W1", "b1"))
    relu = np.maximum(neural._mm(x, w0) + b0, 0.0)
    y = neural._mm(relu, w1) + b1
    grads = {"net/W1": relu.T @ dout, "net/b1": dout.sum(axis=0)}
    d = (dout @ w1.T) * (relu > 0.0)
    grads["net/W0"], grads["net/b0"] = x.T @ d, d.sum(axis=0)
    return y, d @ w0.T, grads, relu


class TestInPlacePasses:
    """The in-place MLP passes equal the allocating formulas, bit for bit,
    and write into neither their inputs nor the cache."""

    def check(self, store, spec, x, dout):
        x_before, dout_before = x.copy(), dout.copy()
        y, cache = mlp_forward(store, "net", spec, x)
        cached = (cache.x.copy(), cache.hidden.copy())
        dx = mlp_backward(store, "net", cache, dout)

        ref_y, ref_dx, ref_grads, ref_relu = _allocating_mlp(store, x_before, dout_before)
        assert np.array_equal(y, ref_y, equal_nan=True)
        assert np.array_equal(dx, ref_dx, equal_nan=True)
        for name, grad in ref_grads.items():
            assert np.array_equal(store.grads[name], grad, equal_nan=True), name
        # the cache keeps the ReLU output the output layer read
        assert np.array_equal(cache.hidden, ref_relu, equal_nan=True)
        assert np.array_equal(x, x_before, equal_nan=True)
        assert np.array_equal(dout, dout_before, equal_nan=True)
        for got, want in zip((cache.x, cache.hidden), cached, strict=True):
            assert np.array_equal(got, want, equal_nan=True)
        return cache

    def test_eval_mode(self):
        rng = np.random.default_rng(30)
        spec = MlpSpec(6, 16, 3)
        store = make_mlp(spec, rng)
        self.check(store, spec, rng.standard_normal((37, 6)), rng.standard_normal((37, 3)))

    def test_single_row_takes_the_padded_path(self):
        rng = np.random.default_rng(33)
        spec = MlpSpec(6, 16, 1)
        store = make_mlp(spec, rng)
        self.check(store, spec, rng.standard_normal((1, 6)), rng.standard_normal((1, 1)))

    def test_signed_zero_nan_and_huge_pre_activations(self):
        # an identity first layer passes the inputs through, and the bias
        # adds to them: the pre-activations hold zeros, nan, inf, +-1e308
        # and negative subnormals (a zero sum leaves gemm as +0.0, so the
        # signed zeros of the inputs and the bias all arrive as +0.0)
        spec = MlpSpec(6, 6, 2)
        store = ParamStore()
        store.add("net/W0", np.eye(6))
        store.add("net/b0", np.array([-0.0, 0.0, np.nan, 1e308, -0.0, -7.5]))
        store.add("net/W1", np.random.default_rng(35).standard_normal((6, 2)))
        store.add("net/b1", np.zeros(2))
        x = np.array([[0.0, -0.0, 1.0, 1e308, -1e308, 7.5], [-0.0] * 6,
                      [1e308] * 6, [-1e-320] * 6])
        with np.errstate(over="ignore", invalid="ignore"):
            pre = x @ store.values["net/W0"] + store.values["net/b0"]
            self.check(store, spec, x, np.random.default_rng(36).standard_normal((4, 2)))
        assert np.isnan(pre).any() and np.isposinf(pre).any() and (pre == 0.0).any()
        assert (pre == -1e308).any() and ((pre < 0.0) & (pre > -1e-300)).any()


def _concatenated_pair_net(store, items, context, dout, mask=None):
    # the formulation ``pair_forward`` factors: the (B*N, 2D) rows
    # [item, context] built in full, ReLU, dropout and the output layer.
    # Returns the (B, N) outputs, the parameter gradients for the output
    # gradient ``dout`` and the (B, D) context gradient.
    b, n, d = items.shape
    x = np.concatenate([items, np.broadcast_to(context[:, None], (b, n, d))],
                       axis=2).reshape(b * n, 2 * d)
    w0, b0, w1, b1 = (store.values[f"net/{name}"] for name in ("W0", "b0", "W1", "b1"))
    relu = np.maximum(x @ w0 + b0, 0.0)
    hidden = relu if mask is None else relu * mask
    dy = dout.reshape(b * n, 1)
    dh = (dy @ w1.T) * (relu > 0.0)
    if mask is not None:
        dh = dh * mask
    grads = {"net/W0": x.T @ dh, "net/b0": dh.sum(axis=0),
             "net/W1": hidden.T @ dy, "net/b1": dy.sum(axis=0)}
    d_context = (dh @ w0.T)[:, d:].reshape(b, n, d).sum(axis=1)
    return (hidden @ w1 + b1).reshape(b, n), grads, d_context


def _normwise_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestPairNet:
    """``pair_forward`` and ``pair_backward`` equal the net on the
    concatenated rows up to rounding, and draw the masks ``dropout_mask``
    draws."""

    @pytest.mark.parametrize("mode", ["eval", "cached", "dropout"])
    @pytest.mark.parametrize("games, n", [(1, 1), (3, 5), (100, 7), (2, 300)])
    def test_equals_concatenated_rows(self, games, n, mode):
        # a cached pass takes 700 item rows in blocks of 36 games, and 600
        # in one block of two games, each wider than a block
        rng = np.random.default_rng(40)
        d, hidden, rate = 6, 16, 0.5
        store = make_mlp(MlpSpec(2 * d, hidden, 1), rng)
        for value in store.values.values():
            value += 0.1 * rng.standard_normal(value.shape)
        items = rng.standard_normal((games, n, d))
        context = rng.standard_normal((games, d))
        dout = rng.standard_normal((games, n))
        dropout = rate if mode == "dropout" else 0.0
        if mode == "eval":      # the table form: a table of the items, each row used once
            y, cache = neural.pair_forward(store, "net", items.reshape(games * n, d), context,
                                           rows=np.arange(games * n).reshape(games, n))
        else:
            y, cache = neural.pair_forward(store, "net", items, context, dropout=dropout,
                                           rng=np.random.default_rng(41))
        mask = (dropout_mask(np.random.default_rng(41), (games * n, hidden), rate)
                if mode == "dropout" else None)
        want_y, want_grads, want_context = _concatenated_pair_net(store, items, context,
                                                                  dout, mask)
        assert y.shape == (games, n)
        assert _normwise_error(y, want_y) < 1e-12
        if mode == "eval":
            assert cache is None
            return
        if mask is not None:
            # the cached activation is the dropout-free pass's ReLU output
            # times the mask ``dropout_mask`` draws from the same seed
            _, plain = neural.pair_forward(store, "net", items, context)
            assert np.array_equal(cache.hidden, plain.hidden * mask)
        d_context = neural.pair_backward(store, "net", cache, dout, context_grad=True)
        assert _normwise_error(d_context, want_context) < 1e-10
        for name, grad in want_grads.items():
            assert _normwise_error(store.grads[name], grad) < 1e-10, name
        with pytest.raises(ValueError, match="consumed"):
            neural.pair_backward(store, "net", cache, dout)

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_gradients_match_finite_differences(self, dropout):
        # the same rng seed draws the same masks, so the objective is smooth
        # away from ReLU kinks
        rng = np.random.default_rng(43)
        store = make_mlp(MlpSpec(6, 5, 1), rng)
        items = rng.standard_normal((3, 4, 3))
        context = rng.standard_normal((3, 3))
        dout = rng.standard_normal((3, 4))

        def loss():
            y, _ = neural.pair_forward(store, "net", items, context,
                                       dropout=dropout, rng=np.random.default_rng(44))
            return float((y * dout).sum())

        _, cache = neural.pair_forward(store, "net", items, context,
                                       dropout=dropout, rng=np.random.default_rng(44))
        d_context = neural.pair_backward(store, "net", cache, dout, context_grad=True)
        for name, p in store.values.items():
            num = numerical_gradient(lambda _: loss(), p)
            assert max_relative_error(store.grads[name], num) < GRAD_TOL, name
        assert max_relative_error(d_context,
                                  numerical_gradient(lambda _: loss(), context)) < GRAD_TOL

    def test_peak_memory_is_one_activation(self):
        # a cached pass with dropout and its backward hold one (B*N, H)
        # activation, which becomes the hidden gradient, and blocks: not the
        # whole-batch ReLU output, uniforms, mask, masked activation and dh
        rng = np.random.default_rng(45)
        store = make_mlp(MlpSpec(64, 512, 1), rng)
        items = rng.standard_normal((4096, 5, 32))
        context = rng.standard_normal((4096, 32))
        dout = rng.standard_normal((4096, 5))
        activation = 20_480 * 512 * items.itemsize
        tracemalloc.start()
        try:
            _, cache = neural.pair_forward(store, "net", items, context,
                                           dropout=0.5, rng=np.random.default_rng(46))
            neural.pair_backward(store, "net", cache, dout, context_grad=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * activation

    def test_backward_sums_each_game_in_its_activation(self):
        # at the score net's training shapes, each game's context-gradient
        # sum is written into its own first row of the activation: what the
        # backward pass allocates stays under one (B, H) array
        rng = np.random.default_rng(47)
        store = make_mlp(MlpSpec(64, 512, 1), rng)
        items = rng.standard_normal((1024, 5, 32))
        context = rng.standard_normal((1024, 32))
        dout = rng.standard_normal((1024, 5))
        _, cache = neural.pair_forward(store, "net", items, context,
                                       dropout=0.5, rng=np.random.default_rng(48))
        tracemalloc.start()
        try:
            neural.pair_backward(store, "net", cache, dout, context_grad=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 512 * items.itemsize

    @pytest.mark.parametrize("form, rng", [("rows", np.random.default_rng(0)),
                                           ("array", None)])
    def test_dropout_needs_a_cached_pass_and_an_rng(self, form, rng):
        # a pass on table rows keeps no cache; one on arrays needs the rng
        store = make_mlp(MlpSpec(4, 3, 1), np.random.default_rng(42))
        items, rows = ((np.zeros((6, 2)), np.arange(6).reshape(2, 3)) if form == "rows"
                       else (np.zeros((2, 3, 2)), None))
        with pytest.raises(ValueError, match="dropout needs"):
            neural.pair_forward(store, "net", items, np.zeros((2, 2)), dropout=0.5, rng=rng,
                                rows=rows)


def _gemm(a, b):
    # ``a @ b``, a single row padded to two so that it goes to gemm
    return (np.concatenate([a, a], axis=0) @ b)[:1] if len(a) == 1 else a @ b


def _gemm_tiled(a, b):
    # ``a @ b`` with ``a``'s rows zero-padded to a multiple of 4, BLAS's row
    # tile, as ``pair_forward`` takes its output product
    return (np.concatenate([a, np.zeros((-len(a) % 4, a.shape[1]))]) @ b)[:len(a)]


def _whole_batch_pair_pass(store, items, context, dout, dropout, seed):
    # the cached pair pass on the whole batch: one (B*N, H) ReLU array, one
    # whole-batch ``dropout_mask``, ``relu * mask``, the output product with
    # its rows padded to BLAS's row tile and the backward
    # ``dh * mask * (relu > 0)``.  Accumulates into ``store.grads`` and
    # returns the (B, N) outputs and the (B, D) context gradient.
    b, n, d = items.shape
    w0, b0, w1, b1 = (store.values[f"net/{name}"] for name in ("W0", "b0", "W1", "b1"))
    flat = items.reshape(b * n, d)
    ctx = _gemm(context, w0[d:])
    ctx += b0
    relu = _gemm(flat, w0[:d])
    relu.reshape(b, n, -1)[...] += ctx[:, None]
    np.maximum(relu, 0.0, out=relu)
    mask = (dropout_mask(np.random.default_rng(seed), relu.shape, dropout)
            if dropout > 0.0 else None)
    hidden = relu if mask is None else relu * mask
    y = _gemm_tiled(hidden, w1) + b1
    dout = dout.reshape(b * n, 1)
    store.grads["net/W1"] += hidden.T @ dout
    store.grads["net/b1"] += dout.sum(axis=0)
    dh = dout * w1[:, 0]
    if mask is not None:
        dh *= mask
    dh *= relu > 0.0
    store.grads["net/W0"][:d] += flat.T @ dh
    dctx = dh.reshape(b, n, -1).sum(axis=1)
    store.grads["net/W0"][d:] += context.T @ dctx
    store.grads["net/b0"] += dctx.sum(axis=0)
    return y.reshape(b, n), dctx @ w0[d:].T


def check_blocked_pair_pass(games, n, d, hidden, dropout, seed):
    """A cached ``pair_forward`` and its ``pair_backward`` give the outputs,
    every parameter gradient and the context gradient of the whole-batch
    pass bit for bit.  A quarter of the hidden units have exactly zero
    pre-activations, and a few item and context rows are zero."""
    rng = np.random.default_rng(seed)
    store = make_mlp(MlpSpec(2 * d, hidden, 1), rng)
    for value in store.values.values():
        value += 0.1 * rng.standard_normal(value.shape)
    dead = rng.permutation(hidden)[:hidden // 4]
    store.values["net/W0"][:, dead] = 0.0
    store.values["net/b0"][dead] = 0.0
    items = rng.standard_normal((games, n, d))
    context = rng.standard_normal((games, d))
    items[rng.random((games, n)) < 0.05] = 0.0
    context[rng.random(games) < 0.05] = 0.0
    dout = rng.standard_normal((games, n))
    reference = ParamStore()
    for name, value in store.values.items():
        reference.add(name, value)
    want_y, want_context = _whole_batch_pair_pass(reference, items, context, dout,
                                                  dropout, seed + 1)
    y, cache = neural.pair_forward(store, "net", items, context,
                                   dropout=dropout, rng=np.random.default_rng(seed + 1))
    got_context = neural.pair_backward(store, "net", cache, dout, context_grad=True)
    case = (games, n, d, hidden, dropout)
    assert np.array_equal(y, want_y), case
    assert np.array_equal(got_context, want_context), case
    for name, grad in reference.grads.items():
        assert np.array_equal(store.grads[name], grad), (case, name)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/task")
def test_blocked_cached_pair_pass_equals_whole_batch(one_blas_thread):
    # item-row counts 1, 255-257, 511, 513, 1,280 and 5,120: one block,
    # blocks of whole games, games of more rows than a block, counts that
    # are not multiples of 4, and the guesser's nets at batch 1,024 (3,072
    # rows at H=256, 5,120 at H=512)
    one_blas_thread(f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from test_neural import check_blocked_pair_pass
        cases = [(1, 1, 32, 512), (255, 1, 32, 512), (51, 5, 32, 512), (256, 1, 6, 16),
                 (64, 4, 32, 512), (257, 1, 32, 512), (73, 7, 32, 256),
                 (511, 1, 6, 16), (171, 3, 32, 256), (513, 1, 32, 512),
                 (256, 5, 32, 512), (2, 640, 32, 256), (1024, 3, 32, 256),
                 (1024, 5, 32, 512), (10, 512, 6, 16)]
        for seed, (games, n, d, hidden) in enumerate(cases):
            for dropout in (0.0, 0.4, 0.5):
                check_blocked_pair_pass(games, n, d, hidden, dropout, seed)
        """)


def check_eval_pair_pass(games, n, hidden, seed):
    """A ``pair_forward`` on (B, N) rows into a table of items, the eval
    pass, gives the outputs of the cached pass on the gathered items
    without dropout bit for bit.  A quarter of the hidden units have
    exactly zero pre-activations."""
    rng = np.random.default_rng(seed)
    d = 32
    store = make_mlp(MlpSpec(2 * d, hidden, 1), rng)
    for value in store.values.values():
        value += 0.1 * rng.standard_normal(value.shape)
    dead = rng.permutation(hidden)[:hidden // 4]
    store.values["net/W0"][:, dead] = 0.0
    store.values["net/b0"][dead] = 0.0
    table = rng.standard_normal((60, d))
    rows = rng.integers(0, len(table), size=(games, n))
    context = rng.standard_normal((games, d))
    want, _ = neural.pair_forward(store, "net", table[rows], context)
    got, cache = neural.pair_forward(store, "net", table, context, rows=rows)
    assert cache is None and got.flags.c_contiguous, (games, n, hidden)
    assert np.array_equal(got, want), (games, n, hidden)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/task")
def test_eval_pair_pass_equals_cached_pass(one_blas_thread):
    # the eval pass takes games slot by slot in 128-game sub-blocks, each
    # slot's output product padded to a multiple of 4 rows: game counts on
    # either side of the sub-blocks, both nets' widths, and one item per
    # game at counts of 1 mod 4, whose last sub-block may hold one game
    one_blas_thread(f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from hypothesis import assume, example, given, settings, strategies as st
        from test_neural import check_eval_pair_pass

        @given(st.integers(1, 600) | st.sampled_from([255, 256, 257, 511, 512, 513, 767, 1023]),
               st.integers(1, 60), st.sampled_from([256, 512]), st.integers(0, 2 ** 32 - 1))
        @example(5, 1, 256, 0)
        @example(29, 1, 512, 1)
        @example(513, 1, 256, 2)
        @example(1023, 11, 512, 3)
        @settings(max_examples=80, deadline=None, database=None)
        def eval_pass_equals_cached_pass(games, n, hidden, seed):
            assume(games * n <= 12_288)      # the cached pass holds a (B*N, H) activation
            check_eval_pair_pass(games, n, hidden, seed)

        eval_pass_equals_cached_pass()
        """)


def pair_passes(games, n, hidden, seed):
    """A cached ``pair_forward`` with dropout, its ``pair_backward`` and the
    eval pass on table rows: every output and gradient, by name."""
    rng = np.random.default_rng(seed)
    d = 32
    store = make_mlp(MlpSpec(2 * d, hidden, 1), rng)
    table = rng.standard_normal((60, d))
    rows = rng.integers(0, len(table), size=(games, n))
    context = rng.standard_normal((games, d))
    y, cache = neural.pair_forward(store, "net", table[rows], context,
                                   dropout=0.5, rng=np.random.default_rng(seed + 1))
    got = {"cached": y, "context grad": neural.pair_backward(
        store, "net", cache, rng.standard_normal((games, n)), context_grad=True)}
    got.update((f"grad {name}", grad) for name, grad in store.grads.items())
    got["rows"], _ = neural.pair_forward(store, "net", table, context, rows=rows)
    return got


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/task")
def test_no_pair_pass_output_depends_on_its_block(one_blas_thread):
    # the padded output product is what lets the passes block as they like:
    # blocks of 4 and 12 item rows and sub-blocks of 4, 5, 7 and 12 games
    # (so one-game sub-blocks and games wider than a block) give the bytes
    # of the default blocking, at game counts that are not multiples of 4
    one_blas_thread(f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from isrlab import neural
        from test_neural import pair_passes
        defaults = neural.PREDICT_BLOCK_ROWS, neural.PREDICT_SUB_BLOCK_GAMES
        for seed, case in enumerate([(1, 1, 512), (3, 5, 512), (7, 3, 256), (13, 1, 512),
                                     (130, 3, 512), (257, 1, 256), (45, 20, 256)]):
            want = pair_passes(*case, seed)
            for blocking in ((4, 4), (12, 12), (4, 5), (12, 7)):
                neural.PREDICT_BLOCK_ROWS, neural.PREDICT_SUB_BLOCK_GAMES = blocking
                got = pair_passes(*case, seed)
                neural.PREDICT_BLOCK_ROWS, neural.PREDICT_SUB_BLOCK_GAMES = defaults
                for name, value in want.items():
                    assert np.array_equal(got[name], value), (case, blocking, name)
        """)


class TestBiLstm:
    def test_empty_sequence_encodes_start_token_alone(self):
        rng = np.random.default_rng(10)
        spec = BiLstmSpec(3, 4)
        store = ParamStore()
        init_bilstm(store, "lstm", spec, rng)
        hidden, _ = bilstm_forward(store, "lstm", spec, np.zeros((2, 0, 3)),
                                   rng.standard_normal(3))
        assert hidden.shape == (2, 1, 8)
        assert np.all(np.isfinite(hidden))

    def test_zero_parameters_give_zero_states(self):
        # gates sit at sigmoid(0)=0.5 but the tanh cell candidate is 0,
        # so the cell and hidden states stay exactly zero
        spec = BiLstmSpec(2, 3)
        store = ParamStore()
        store.add("lstm/Wf", np.zeros((5, 12)))
        store.add("lstm/bf", np.zeros(12))
        store.add("lstm/Wb", np.zeros((5, 12)))
        store.add("lstm/bb", np.zeros(12))
        hidden, _ = bilstm_forward(store, "lstm", spec,
                                   np.random.default_rng(11).standard_normal((3, 2, 2)),
                                   np.zeros(2))
        assert np.array_equal(hidden, np.zeros((3, 3, 6)))

    def test_length_two_sequence_matches_cell_trace(self):
        # independent per-step recurrence written out with explicit loops
        rng = np.random.default_rng(12)
        spec = BiLstmSpec(2, 2)
        store = ParamStore()
        init_bilstm(store, "lstm", spec, rng)
        seq = rng.standard_normal((1, 2, 2))
        start = rng.standard_normal(2)
        hidden, _ = bilstm_forward(store, "lstm", spec, seq, start)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        inputs = [start, seq[0, 0], seq[0, 1]]

        def run(order, W, b):
            h = np.zeros(2)
            c = np.zeros(2)
            out = {}
            for pos in order:
                gates = np.concatenate([inputs[pos], h]) @ W + b
                i, f = sig(gates[0:2]), sig(gates[2:4])
                g, o = np.tanh(gates[4:6]), sig(gates[6:8])
                c = f * c + i * g
                h = o * np.tanh(c)
                out[pos] = h.copy()
            return out

        fwd = run([0, 1, 2], store.values["lstm/Wf"], store.values["lstm/bf"])
        bwd = run([2, 1, 0], store.values["lstm/Wb"], store.values["lstm/bb"])
        for pos in range(3):
            expect = np.concatenate([fwd[pos], bwd[pos]])
            assert np.allclose(hidden[0, pos], expect, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        spec = BiLstmSpec(3, 4)
        store = ParamStore()
        init_bilstm(store, "lstm", spec, rng)
        seq = rng.standard_normal((2, 3, 3))
        start = rng.standard_normal(3)
        dout = rng.standard_normal((2, 4, 8))

        def loss():
            hidden, _ = bilstm_forward(store, "lstm", spec, seq, start)
            return float((hidden * dout).sum())

        _, cache = bilstm_forward(store, "lstm", spec, seq, start)
        d_inputs = bilstm_backward(store, "lstm", spec, cache, dout)
        for name, p in store.values.items():
            num = numerical_gradient(lambda _: loss(), p)
            assert max_relative_error(store.grads[name], num) < GRAD_TOL, name
        num_start = numerical_gradient(lambda _: loss(), start)
        assert max_relative_error(d_inputs[:, 0, :].sum(axis=0), num_start) < GRAD_TOL
        num_seq = numerical_gradient(lambda _: loss(), seq)
        assert max_relative_error(d_inputs[:, 1:, :], num_seq) < GRAD_TOL

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        spec = BiLstmSpec(3, 2)
        store = ParamStore()
        init_bilstm(store, "lstm", spec, rng)
        with pytest.raises(ValueError, match="shape"):
            bilstm_forward(store, "lstm", spec, np.zeros((1, 2, 4)), np.zeros(3))


class TestLastPosition:
    """The enquirer's trunk at the last position equals the full encoder's
    last row, bit for bit in its outputs, and in its gradients up to the
    order of their sums."""

    def enquirer(self, length, seed=20):
        from isrlab.enquirer import EnquirerConfig, EnquirerModel
        rng = np.random.default_rng(seed)
        model = EnquirerModel.init(EnquirerConfig(dim=3, vocab_size=6, lstm_hidden=4,
                                                  policy_hidden=5, value_hidden=5), rng)
        seq = rng.standard_normal((5, length, 3))
        mean_guest = rng.standard_normal((5, 3))
        mask = rng.random((5, 6)) < 0.3
        mask[:, 0] = False
        return rng, model, seq, mean_guest, mask

    def full_path(self, model, seq, mean_guest, mask):
        # heads on the last row of ``bilstm_forward``
        store = model.store
        hidden, cache = bilstm_forward(store, "lstm", model.lstm_spec, seq,
                                       store.values["start"])
        trunk = np.concatenate([hidden[:, -1], mean_guest], axis=1)
        logits, policy_cache = mlp_forward(store, "policy", model.policy_spec, trunk)
        value, value_cache = mlp_forward(store, "value", model.value_spec, trunk)
        log_probs = neural.masked_log_softmax(logits, mask)
        return log_probs, value[:, 0], (hidden.shape, cache, policy_cache, value_cache)

    @pytest.mark.parametrize("length", [0, 1, 2, 3])
    def test_output_equals_full_encoder_last_row(self, length):
        from isrlab.enquirer import enquirer_forward
        _, model, seq, mean_guest, mask = self.enquirer(length)
        out = enquirer_forward(model, mean_guest[:, None], seq, mask)
        log_probs, value, _ = self.full_path(model, seq, mean_guest, mask)
        assert np.array_equal(out.log_probs, log_probs)
        assert np.array_equal(out.probs, np.exp(log_probs))
        assert np.array_equal(out.value, value)

    @pytest.mark.parametrize("length", [0, 1, 2, 3])
    def test_gradients_equal_full_path(self, length):
        from isrlab.enquirer import _backward_core, enquirer_forward
        rng, model, seq, mean_guest, mask = self.enquirer(length)
        store = model.store
        dlogits = rng.standard_normal((5, 6))
        dvalue = rng.standard_normal(5)

        _, _, (shape, cache, policy_cache, value_cache) = self.full_path(
            model, seq, mean_guest, mask)
        dtrunk = mlp_backward(store, "policy", policy_cache, np.where(mask, 0.0, dlogits))
        dtrunk += mlp_backward(store, "value", value_cache, dvalue[:, None])
        d_hidden = np.zeros(shape)
        d_hidden[:, -1] = dtrunk[:, :shape[2]]
        d_inputs = bilstm_backward(store, "lstm", model.lstm_spec, cache, d_hidden)
        store.grads["start"] += d_inputs[:, 0].sum(axis=0)
        full_grads = {k: g.copy() for k, g in store.grads.items()}
        store.zero_grads()

        _backward_core(model, enquirer_forward(model, mean_guest[:, None], seq, mask),
                       dlogits, dvalue)
        # the start-token steps take their rows' gate gradients' column
        # sums, and the forward steps only the hidden columns of the input
        # gradient, so the sums go in another order: every discrepancy
        # counts, however small
        for name, grad in full_grads.items():
            got = store.grads[name]
            diff = np.abs(got - grad)
            differ = diff > 0.0
            err = diff[differ] / np.maximum(np.abs(got), np.abs(grad))[differ]
            assert np.max(err, initial=0.0) <= 1e-9, name

    def test_backward_direction_runs_one_step(self):
        # each turn's backward direction steps once from the zero state on
        # its newest input, the start token once for every turn 0; the
        # forward direction steps the start token once and each sequence up
        # to its last requested turn
        from isrlab.enquirer import _policy_pass, enquirer_forward
        _, model, seq, mean_guest, mask = self.enquirer(3)
        rows, turns = np.array([0, 0, 1, 2, 3, 3, 4]), np.array([0, 2, 1, 0, 3, 0, 0])
        _, _, _, start_f, steps_f, start_b, step_b = _policy_pass(
            model, mean_guest, seq, mask[rows], rows, turns)._lstm_cache
        for step in (start_f, start_b):
            assert np.array_equal(step[0], model.store.values["start"][None])
        assert [len(step[0]) for step in steps_f] == [3, 2, 1]
        assert np.array_equal(step_b[0], seq[[0, 1, 3], [1, 0, 2]])
        *_, start_f, steps_f, start_b, step_b = enquirer_forward(
            model, mean_guest[:, None], seq, mask)._lstm_cache
        assert [len(step[0]) for step in steps_f] == [5, 5, 5] and start_b is None
        assert np.array_equal(step_b[0], seq[:, -1])


def _masked_sigmoid(x):
    # the boolean-mask formula the branch-free sigmoid replaced
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_equals_masked_formula(self):
        rng = np.random.default_rng(21)
        x = np.concatenate([rng.standard_normal(4000) * 8.0,
                            [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]])
        assert np.array_equal(sigmoid(x), _masked_sigmoid(x), equal_nan=True)

    def test_equals_masked_formula_on_gate_slabs(self):
        x = np.random.default_rng(22).standard_normal((171, 512)) * 4.0
        assert np.array_equal(sigmoid(x), _masked_sigmoid(x))

    def test_extremes_saturate_without_overflow(self):
        with np.errstate(over="raise"):
            y = sigmoid(np.array([-800.0, -0.0, 0.0, 800.0]))
        assert np.array_equal(y, [0.0, 0.5, 0.5, 1.0])

    @pytest.mark.parametrize("value", [2.0, np.float64(-3.0), np.array(0.5)])
    def test_scalar_and_0d_inputs_give_a_scalar(self, value):
        y = sigmoid(value)
        assert isinstance(y, np.float64)
        assert y == _where_sigmoid(value) == _masked_sigmoid(np.atleast_1d(value))[0]

    def test_non_contiguous_gate_quarters(self):
        slab = np.random.default_rng(23).standard_normal((37, 64)) * 4.0
        for part in (slab[:, :32], slab[:, 48:], slab[:, 16:32], slab[::3, 48:]):
            assert not part.flags.c_contiguous
            assert np.array_equal(sigmoid(part), _masked_sigmoid(np.ascontiguousarray(part)))

    def test_subnormal_and_saturating_arguments(self):
        x = np.array([5e-324, -5e-324, 1e-310, -1e-310, 745.2, -745.2])
        y = sigmoid(x)
        assert np.array_equal(y, [0.5, 0.5, 0.5, 0.5, 1.0, 0.0])
        assert np.array_equal(y, _masked_sigmoid(x))
        assert np.array_equal(np.signbit(y), np.signbit(_masked_sigmoid(x)))

    def test_sign_bits_and_bytes_nan_included(self):
        rng = np.random.default_rng(24)
        x = np.concatenate([rng.standard_normal(2000) * 30.0,
                            [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324,
                             -5e-324, 1e-310, -1e-310, 745.2, -745.2, 1e308, -1e308]])
        y = sigmoid(x)
        masked = _masked_sigmoid(x)
        assert np.array_equal(np.isnan(y), np.isnan(x))
        # the masked formula's exp(+nan) keeps nan's plus sign, where -|x|
        # turns it to minus; every other sign bit agrees with it
        positive_nan = np.isnan(x) & ~np.signbit(x)
        assert np.array_equal(np.signbit(y)[~positive_nan], np.signbit(masked)[~positive_nan])
        # every byte, nan's included, is the np.where formula's
        assert np.array_equal(y.view(np.uint64), _where_sigmoid(x).view(np.uint64))

    def test_input_is_not_written(self):
        slab = np.random.default_rng(25).standard_normal((9, 16)) * 4.0
        slab[0, :4] = [np.nan, -0.0, np.inf, -np.inf]
        before = slab.copy()
        slab.flags.writeable = False
        sigmoid(slab)
        sigmoid(slab[:, 4:12])
        assert np.array_equal(slab, before, equal_nan=True)
        assert np.array_equal(np.signbit(slab), np.signbit(before))


def _where_sigmoid(x):
    # the np.where formula the in-place sigmoid replaced
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _reference_cell(W, bias, x, h, c, hidden):
    # the cell that concatenated [x, h] at every step, zero state included,
    # and took one sigmoid over the whole gate slab
    xh = np.concatenate([x, h], axis=1)
    gates = neural._mm(xh, W) + bias
    s = _where_sigmoid(gates)
    i, f, o = s[:, :hidden], s[:, hidden:2 * hidden], s[:, 3 * hidden:]
    g = np.tanh(gates[:, 2 * hidden:3 * hidden])
    c_next = f * c + i * g
    tanh_c = np.tanh(c_next)
    return o * tanh_c, c_next, (xh, i, f, g, o, c, tanh_c)


def _reference_forward(W, bias, inputs, order, hidden):
    h = c = np.zeros((inputs.shape[0], hidden))
    states = np.zeros((*inputs.shape[:2], hidden))
    steps = []
    for pos in order:
        h, c, step = _reference_cell(W, bias, inputs[:, pos, :], h, c, hidden)
        states[:, pos, :] = h
        steps.append((pos, *step))
    return states, steps


def _allocating_lstm_backward(W, steps, d_states, hidden):
    # the backward that built dgates as np.concatenate of four fresh
    # products and multiplied every row of W: returns dW, db, d_inputs
    batch = d_states.shape[0]
    in_width = W.shape[0] - hidden
    dW, db = np.zeros_like(W), np.zeros(W.shape[1])
    d_inputs = np.zeros((batch, d_states.shape[1], in_width))
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for pos, xh, i, f, g, o, c_prev, tanh_c in reversed(steps):
        if xh.shape[1] == in_width:   # a zero-state step cached its input alone
            xh = np.concatenate([xh, np.zeros((batch, hidden))], axis=1)
        dh = d_states[:, pos, :] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f
        dgates = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f),
             dg * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
        dW += xh.T @ dgates
        db += dgates.sum(axis=0)
        dxh = dgates @ W.T
        d_inputs[:, pos, :] = dxh[:, :in_width]
        dh_next = dxh[:, in_width:]
    return dW, db, d_inputs


def _lstm_backward_grads(W, bias, steps, d_states, hidden):
    # ``neural.lstm_backward`` into a fresh store: returns dW, db, d_inputs
    store = ParamStore()
    store.add("W", W)
    store.add("b", bias)
    d_inputs = neural.lstm_backward(store, "W", "b", steps, d_states, hidden)
    return store.grads["W"], store.grads["b"], d_inputs


def _lstm_params(rng, in_width, hidden):
    # weights wide enough that the gates reach both saturations
    W = rng.standard_normal((in_width + hidden, 4 * hidden)) * 0.5
    return W, rng.standard_normal(4 * hidden)


def check_zero_state_step(batch, in_width, hidden, broadcast, length, seed):
    """``lstm_cell`` from ``h = c = None`` and ``lstm_forward``/``lstm_backward``
    over ``length`` positions equal the concatenating reference bit for bit.
    ``broadcast`` passes the first input as one stride-0 row, as
    ``enquirer._play_games`` passes the start token."""
    rng = np.random.default_rng(seed)
    W, bias = _lstm_params(rng, in_width, hidden)
    inputs = rng.standard_normal((batch, length, in_width))
    x = (np.broadcast_to(inputs[0, 0], (batch, in_width)) if broadcast
         else inputs[:, 0])
    zeros = np.zeros((batch, hidden))
    h, c, step = neural.lstm_cell(W, bias, x, None, None, hidden)
    ref_h, ref_c, ref_step = _reference_cell(W, bias, x, zeros, zeros, hidden)
    assert np.array_equal(h, ref_h) and np.array_equal(c, ref_c), (batch, in_width)
    assert step[0] is x
    for got, want in zip(step[1:], ref_step[1:]):
        assert np.array_equal(got, want), (batch, in_width)
    d_states = rng.standard_normal((batch, length, hidden))
    got = _lstm_backward_grads(W, bias, [(0, *step)], d_states[:, :1], hidden)
    want = _allocating_lstm_backward(W, [(0, *ref_step)], d_states[:, :1], hidden)
    for a, b in zip(got, want):
        assert np.array_equal(a, b), (batch, in_width, "one step")
    if broadcast:
        inputs[:, 0] = x
    states, steps = neural.lstm_forward(W, bias, inputs, range(length), hidden)
    ref_states, ref_steps = _reference_forward(W, bias, inputs, range(length), hidden)
    assert np.array_equal(states, ref_states), (batch, in_width, length)
    got = _lstm_backward_grads(W, bias, steps, d_states, hidden)
    want = _allocating_lstm_backward(W, ref_steps, d_states, hidden)
    for a, b in zip(got, want):
        assert np.array_equal(a, b), (batch, in_width, length)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/task")
class TestZeroStateStep:
    """A step from the zero state multiplies only the input rows of W, yet
    equals the concatenating cell on ``[x, zeros]`` with ``c = zeros``, bit
    for bit, forward and backward: at the enquirer's D=32/H=128 and small
    shapes, at batch sizes across the BLAS kernels' row tiles."""

    SCRIPT = """
        import sys
        sys.path.insert(0, {tests!r})
        from hypothesis import given, settings, strategies as st
        from test_neural import check_zero_state_step
        for shape in ((32, 128), (3, 4)):
            for batch in (1, 2, 7, 8, 9, 31, 300, 342, 513):
                for broadcast in (False, True):
                    check_zero_state_step(batch, *shape, broadcast, 2, batch)

        @given(st.integers(1, 600), st.sampled_from([(32, 128), (3, 4), (5, 16)]),
               st.booleans(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
        @settings(max_examples={examples}, deadline=None, database=None)
        def zero_state_step_equals_reference(batch, shape, broadcast, length, seed):
            check_zero_state_step(batch, *shape, broadcast, length, seed)

        zero_state_step_equals_reference()
        """

    def script(self, examples):
        return self.SCRIPT.format(tests=str(Path(__file__).parent), examples=examples)

    def test_one_blas_thread(self, one_blas_thread):
        one_blas_thread(self.script(60))

    @pytest.mark.skipif(sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) < 2,
                        reason="OpenBLAS runs at most one thread per available core")
    def test_two_blas_threads(self, blas_threads):
        blas_threads(self.script(20), 2)


class TestInPlaceLstm:
    """``lstm_backward``, which writes the gate gradients into one buffer,
    equals the allocating ``np.concatenate`` backward bit for bit over
    multi-step ``lstm_forward`` caches, and writes neither ``d_states`` nor
    any cached step array."""

    def check(self, batch, in_width, hidden, length, order, seed, special=False):
        rng = np.random.default_rng(seed)
        W, bias = _lstm_params(rng, in_width, hidden)
        inputs = rng.standard_normal((batch, length, in_width))
        _, steps = neural.lstm_forward(W, bias, inputs, order, hidden)
        assert steps[0][1].shape[1] == in_width    # the zero-state step cached x alone
        cached = [[a.copy() for a in step[1:]] for step in steps]
        d_states = rng.standard_normal((batch, length, hidden))
        if special:
            d_states[0] = 0.0
            d_states[-1, :, ::2] = -0.0
            d_states[:, :, 1] = 1e300
        before = d_states.copy()
        got = _lstm_backward_grads(W, bias, steps, d_states, hidden)
        want = _allocating_lstm_backward(W, steps, before, hidden)
        for a, b, name in zip(got, want, ("dW", "db", "d_inputs")):
            assert np.array_equal(a, b), name
        assert np.array_equal(d_states.view(np.uint64), before.view(np.uint64))
        for step, copies in zip(steps, cached):
            for a, b in zip(step[1:], copies):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("batch,in_width,hidden,length,order", [
        (1, 3, 4, 1, [0]),
        (5, 3, 4, 3, [0, 1, 2]),
        (37, 6, 8, 4, [3, 2, 1, 0]),
        (9, 5, 16, 5, [0, 2, 4]),
        (2, 32, 128, 3, [0, 1, 2]),
        (342, 32, 128, 3, [2, 1, 0]),
    ])
    def test_equals_allocating_backward(self, batch, in_width, hidden, length, order):
        self.check(batch, in_width, hidden, length, order, seed=batch + length)

    def test_zero_negative_zero_and_huge_state_gradients(self):
        with np.errstate(over="ignore", invalid="ignore"):
            self.check(7, 4, 8, 3, [0, 1, 2], seed=26, special=True)


class TestSoftmaxCrossEntropy:
    def test_uniform_two_way_is_ln2(self):
        (loss,), (grad,) = softmax_cross_entropy(np.array([[0.0, 0.0]]), [0])
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        assert np.allclose(grad, [-0.5, 0.5], atol=1e-12)

    def test_huge_logit_does_not_overflow(self):
        (loss,), (grad,) = softmax_cross_entropy(np.array([[1000.0, 0.0]]), [0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_value_matches_arbitrary_precision_oracle(self):
        # loss = ln(e^1 + e^2 + e^3) - 3 evaluated at 50 digits
        expected = float(mpmath.log(mpmath.e ** 1 + mpmath.e ** 2 + mpmath.e ** 3) - 3)
        (loss,), _ = softmax_cross_entropy(np.array([[1.0, 2.0, 3.0]]), [2])
        assert loss == pytest.approx(expected, abs=1e-14)
        assert loss == pytest.approx(0.40760596444438, abs=1e-12)

    def test_gradient_is_softmax_minus_one_hot(self):
        logits = np.array([0.3, -1.2, 2.0])
        (loss,), (grad,) = softmax_cross_entropy(logits[None], [1])
        p = softmax(logits)
        assert np.allclose(grad, p - np.eye(3)[1], atol=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            softmax_cross_entropy(np.array([[0.0, 1.0]]), [2])

    def test_one_dimensional_logits_rejected(self):
        with pytest.raises(ValueError, match=r"^expected \(n, width\) logits, got shape \(2,\)$"):
            softmax_cross_entropy(np.array([0.0, 1.0]), 1)

    @given(st.lists(st.floats(-17, 17), min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_softmax_is_a_distribution(self, logits):
        # logit gaps above ~36 saturate float64 and the top entry rounds to 1
        p = softmax(np.array(logits))
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0.0)
        assert np.all(p < 1.0)


class TestFiniteDifferences:
    def test_central_difference_step(self):
        # a cubic's central difference exceeds its derivative by step**2:
        # 3 + 1e-10 at x = 1 for the step of 1e-5
        grad = numerical_gradient(lambda x: float(x[0] ** 3), np.array([1.0]))
        assert grad[0] == pytest.approx(3.0 + 1e-10, abs=2e-11)

    def test_discrepancies_at_the_noise_floor_count_as_zero(self):
        assert max_relative_error(np.array([1e-8]), np.array([0.0])) == 0.0
        assert max_relative_error(np.array([2e-8]), np.array([0.0])) == 1.0


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        store = ParamStore()
        store.add("w", np.array([1.0, -2.0, 3.0]))
        before = store.values["w"].copy()
        for _ in range(5):
            adam_step(store, lr=0.5)
        assert np.array_equal(store.values["w"], before)

    def test_first_step_moves_by_learning_rate(self):
        store = ParamStore()
        store.add("w", np.array([2.0]))
        store.grads["w"][...] = 1.0
        adam_step(store, lr=0.1)
        assert store.values["w"][0] == pytest.approx(2.0 - 0.1, abs=1e-8)
        assert np.array_equal(store.grads["w"], np.zeros(1))

    def test_two_steps_match_scalar_trace(self):
        # hand-rolled scalar Adam with the same gradients; they differ from
        # step to step, so the moment constants show in the result
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        grads = (0.7, -0.3)
        w = 1.5
        m = v = 0.0
        for t, grad in enumerate(grads, 1):
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

        store = ParamStore()
        store.add("w", np.array([1.5]))
        for grad in grads:
            store.grads["w"][...] = grad
            adam_step(store, lr=lr)
        assert store.values["w"][0] == pytest.approx(w, abs=1e-14)

    def test_non_finite_gradient_names_parameter(self):
        store = ParamStore()
        store.add("alpha", np.array([1.0]))
        store.add("beta", np.array([1.0]))
        store.grads["beta"][0] = np.nan
        with pytest.raises(ValueError, match="beta"):
            adam_step(store, lr=0.1)

    def test_global_norm_clipping(self):
        store = ParamStore()
        store.add("a", np.array([3.0]))
        store.add("b", np.array([4.0]))
        store.grads["a"][...] = 3.0
        store.grads["b"][...] = 4.0      # joint norm 5
        neural.clip_grads_global_norm(store, 1.0)
        norm = np.sqrt(store.grads["a"][0] ** 2 + store.grads["b"][0] ** 2)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_clipping_a_norm_under_twice_the_bound(self):
        # a joint norm of 1.5 against a bound of 1 is clipped, not left alone
        store = ParamStore()
        store.add("a", np.array([0.0]))
        store.add("b", np.array([0.0]))
        store.grads["a"][...] = 0.9
        store.grads["b"][...] = 1.2      # joint norm 1.5
        assert neural.clip_grads_global_norm(store, 1.0) == pytest.approx(1.5, abs=1e-12)
        assert store.grads["a"][0] == pytest.approx(0.6, abs=1e-12)
        assert store.grads["b"][0] == pytest.approx(0.8, abs=1e-12)

    def test_clipping_leaves_small_gradients_alone(self):
        store = ParamStore()
        store.add("a", np.array([0.1]))
        store.grads["a"][...] = 0.1
        neural.clip_grads_global_norm(store, 1.0)
        assert store.grads["a"][0] == 0.1

    @pytest.mark.parametrize("max_norm", [-1.0, 0.0, float("nan"), float("inf")])
    def test_clipping_bound_must_be_finite_and_positive(self, max_norm):
        # a bound of -1 once turned gradients [3, 4] into [-0.6, -0.8]
        store = ParamStore()
        store.add("a", np.array([0.0, 0.0]))
        store.grads["a"][...] = [3.0, 4.0]
        with pytest.raises(ValueError,
                           match=f"^max_norm must be finite and positive, got {max_norm}$"):
            neural.clip_grads_global_norm(store, max_norm)
        assert store.grads["a"].tolist() == [3.0, 4.0]


class TestCheckpoints:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        store = ParamStore()
        store.add("w", rng.standard_normal((3, 2)))
        store.add("b", rng.standard_normal(2))
        store.step_count = 7
        path = tmp_path / "model.json"
        save_params(path, store, "demo", {"widths": [3, 2]})
        loaded, kind, arch = load_params(path)
        assert kind == "demo"
        assert arch == {"widths": [3, 2]}
        assert loaded.step_count == 7
        for name in store.values:
            assert np.array_equal(loaded.values[name], store.values[name])

    def test_tampered_arch_rejected(self, tmp_path):
        store = ParamStore()
        store.add("w", np.ones(2))
        path = tmp_path / "model.json"
        save_params(path, store, "demo", {"widths": [2]})
        payload = json.loads(path.read_text())
        payload["arch"]["widths"] = [3]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="hash"):
            load_params(path)

    @pytest.mark.parametrize("kind", ["guesser", "enquirer"])
    def test_file_is_json_dumps_of_the_payload(self, tmp_path, kind):
        # records go out one at a time with the C encoder; the bytes are
        # those of the whole payload's json.dumps, which ``json.dump`` also
        # wrote, so files saved before load as they did
        from isrlab.enquirer import EnquirerConfig, EnquirerModel
        from isrlab.guesser import GuesserConfig, GuesserModel
        rng = np.random.default_rng(16)
        model = (GuesserModel.init(GuesserConfig(dim=4), rng) if kind == "guesser" else
                 EnquirerModel.init(EnquirerConfig(dim=4, vocab_size=5), rng))
        model.store.step_count = 3
        path = tmp_path / "model.json"
        model.save(path)
        arch = model.config.arch()
        payload = {"format_version": neural.CHECKPOINT_FORMAT_VERSION, "kind": kind,
                   "arch": arch, "arch_hash": neural.arch_hash(arch), "step_count": 3,
                   "params": {name: {"shape": list(v.shape), "values": v.ravel().tolist()}
                              for name, v in model.store.values.items()}}
        assert path.read_text(encoding="utf-8") == json.dumps(payload)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        loaded = type(model).load(path)
        for name, value in model.store.values.items():
            assert np.array_equal(loaded.store.values[name], value), name

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "model.json"
        save_params(path, ParamStore(), "demo", {})
        assert load_params(path)[0].values == {}

    def saved(self, tmp_path):
        store = ParamStore()
        store.add("w", np.ones(2))
        path = tmp_path / "model.json"
        save_params(path, store, "demo", {"widths": [2]})
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("key", ["format_version", "kind", "arch", "arch_hash", "params"])
    def test_missing_top_level_key_is_named(self, tmp_path, key):
        path, payload = self.saved(tmp_path)
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(neural.CheckpointFormatError,
                           match=f"^checkpoint {re.escape(str(path))}: missing key '{key}'$"):
            load_params(path)

    @pytest.mark.parametrize("key", ["shape", "values"])
    def test_parameter_without_shape_or_values_is_named(self, tmp_path, key):
        path, payload = self.saved(tmp_path)
        del payload["params"]["w"][key]
        path.write_text(json.dumps(payload))
        with pytest.raises(neural.CheckpointFormatError,
                           match=f"{re.escape(str(path))}: parameter 'w' has no '{key}'$"):
            load_params(path)

    @pytest.mark.parametrize("values", [["0.5", 1.0], [True, 1.0], [1.0, None], [10 ** 400, 1.0]],
                             ids=["string", "boolean", "null", "huge-integer"])
    def test_values_that_are_not_numbers_are_named(self, tmp_path, values):
        # np.asarray(values, dtype=float) would read "0.5" and true as
        # numbers and null as nan, and raise OverflowError at 10 ** 400
        path, payload = self.saved(tmp_path)
        payload["params"]["w"]["values"] = values
        path.write_text(json.dumps(payload))
        with pytest.raises(neural.CheckpointFormatError,
                           match=f"{re.escape(str(path))}: parameter 'w' does not hold the 2 "
                                 r"numbers of its shape \(2,\)$"):
            load_params(path)

    def test_top_level_value_not_an_object_is_named(self, tmp_path):
        path, payload = self.saved(tmp_path)
        path.write_text(json.dumps([payload]))
        with pytest.raises(neural.CheckpointFormatError,
                           match=f"{re.escape(str(path))}: holds a JSON list, not an object"):
            load_params(path)

    def test_truncated_file_is_named(self, tmp_path):
        path, _ = self.saved(tmp_path)
        path.write_text(path.read_text()[:-5])
        with pytest.raises(neural.CheckpointFormatError,
                           match=f"^checkpoint {re.escape(str(path))}: not valid JSON"):
            load_params(path)

    def test_unknown_format_version_rejected(self, tmp_path):
        store = ParamStore()
        store.add("w", np.ones(2))
        path = tmp_path / "model.json"
        save_params(path, store, "demo", {})
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_params(path)


def _small_models():
    from isrlab.enquirer import EnquirerConfig, EnquirerModel
    from isrlab.guesser import GuesserConfig, GuesserModel
    rng = np.random.default_rng(17)
    return {"guesser": GuesserModel.init(GuesserConfig(dim=2, attn_hidden=2, score_hidden=2),
                                         rng),
            "enquirer": EnquirerModel.init(EnquirerConfig(dim=2, vocab_size=3, lstm_hidden=1,
                                                          policy_hidden=2, value_hidden=2), rng)}


SMALL_MODELS = _small_models()


@given(kind=st.sampled_from(sorted(SMALL_MODELS)),
       op=st.sampled_from(["replace", "delete", "insert"]),
       at=st.integers(0, 2 ** 16), byte=st.integers(0, 255))
@example(kind="guesser", op="replace", at=300, byte=0xFF)     # not UTF-8
@example(kind="enquirer", op="delete", at=2 ** 16, byte=0)     # the closing brace
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_byte_mutation_loads_or_raises_checkpoint_error(tmp_path, kind, op, at, byte):
    # a loaded model has the saved one's parameters, finite and of the same
    # shapes; any rejection is a ValueError whose message leads with the
    # word checkpoint (CheckpointFormatError, check_params, the kind check)
    model = SMALL_MODELS[kind]
    path = tmp_path / "model.json"
    model.save(path)
    data = bytearray(path.read_bytes())
    at %= len(data)
    if op == "replace":
        data[at] = byte
    elif op == "delete":
        del data[at]
    else:
        data.insert(at, byte)
    path.write_bytes(bytes(data))
    try:
        loaded = type(model).load(path)
    except ValueError as err:
        assert str(err).startswith("checkpoint"), err
        return
    assert loaded.store.values.keys() == model.store.values.keys()
    for name, value in loaded.store.values.items():
        assert value.shape == model.store.values[name].shape, name
        assert np.all(np.isfinite(value)), name
