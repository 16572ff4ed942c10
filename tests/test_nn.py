"""Tests for the MLP head: forward, losses, gradients, Adam."""

import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import hyperprop.nn as nn
from hyperprop.errors import DimensionError, DomainError
from hyperprop.nn import (
    AdamState,
    MlpParams,
    TrainConfig,
    _head_threads,
    _matmul,
    _openblas,
    _row_panels,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    sigmoid_bce,
    softmax_cross_entropy,
)

from oracles import (
    copying_sigmoid_bce,
    finite_difference_grads,
    masked_softmax_cross_entropy,
    two_array_softmax_cross_entropy,
)


def adam_textbook_step(p, g, m, v, step, cfg):
    """One Adam update of one parameter, written as plain expressions
    with temporaries; `adam_step` must match it bit for bit."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    update = (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
    p -= cfg.learning_rate * update


def reference_forward(params, x, dropout=0.0, rng=None):
    """The forward pass as plain expressions with temporaries: returns
    the logits, the layer inputs, the hidden pre-activations and the
    dropout scales."""
    inputs, preacts, masks = [], [], []
    a = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(a)
        z = a @ w + b
        if i == last:
            return z, inputs, preacts, masks
        preacts.append(z)
        h = np.maximum(z, 0.0)
        if dropout > 0.0:
            scale = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
            h = h * scale
            masks.append(scale)
        else:
            masks.append(None)
        a = h


def reference_backward(params, inputs, preacts, masks, grad_logits):
    """Backprop as plain expressions, masking by the pre-activations."""
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    delta = grad_logits
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w[i] = inputs[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i == 0:
            break
        delta = delta @ params.weights[i].T
        if masks[i - 1] is not None:
            delta = delta * masks[i - 1]
        delta = delta * (preacts[i - 1] > 0.0)
    return grads_w, grads_b


def tiny_params():
    # [2 -> 2 -> 1] with fixed weights for hand-checkable outputs
    return MlpParams(
        weights=[np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[1.0], [3.0]])],
        biases=[np.array([0.0, -0.5]), np.array([0.25])],
    )


class TestForward:
    def test_hand_computed_logit(self):
        # x=(1,2): pre = (1*1+2*0.5, 1*-1+2*2-0.5) = (2, 2.5); relu keeps both;
        # out = 2*1 + 2.5*3 + 0.25 = 9.75
        out = mlp_forward(tiny_params(), np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out, [[9.75]], rtol=1e-15)

    def test_rectifier_clips_negative_preactivations(self):
        # x=(-1,0): pre = (-1, 0.5); relu -> (0, 0.5); out = 0.5*3 + 0.25
        out = mlp_forward(tiny_params(), np.array([[-1.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.75]], rtol=1e-15)

    def test_no_hidden_layer_is_affine(self):
        params = MlpParams(weights=[np.array([[2.0], [1.0]])], biases=[np.array([-1.0])])
        out = mlp_forward(params, np.array([[3.0, 4.0], [-5.0, 0.0]]))
        np.testing.assert_allclose(out, [[9.0], [-11.0]], rtol=1e-15)

    def test_input_width_checked(self):
        with pytest.raises(DimensionError):
            mlp_forward(tiny_params(), np.zeros((1, 3)))

    def test_dropout_needs_rng_in_train_mode(self):
        with pytest.raises(DomainError):
            mlp_forward(tiny_params(), np.zeros((1, 2)), dropout=0.5)

    def test_dropout_scales_surviving_units(self):
        """Inverted dropout: kept activations are divided by 1-p so the
        expected forward value matches the eval path."""
        rng = np.random.default_rng(1)
        params = init_mlp([3, 200, 1], rng)
        x = np.abs(rng.standard_normal((8, 3)))  # keep plenty of units active
        outs = []
        for seed in range(300):
            out = mlp_forward(params, x, dropout=0.4, rng=np.random.default_rng(seed))
            outs.append(out)
        avg = np.mean(outs, axis=0)
        ref = mlp_forward(params, x)
        np.testing.assert_allclose(avg, ref, rtol=0.15, atol=0.05)

    def test_dropout_reproducible_per_seed(self):
        rng = np.random.default_rng(2)
        params = init_mlp([3, 16, 2], rng)
        x = rng.standard_normal((5, 3))
        a = mlp_forward(params, x, dropout=0.5, rng=np.random.default_rng(7))
        b = mlp_forward(params, x, dropout=0.5, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestInit:
    def test_bounds_and_zero_biases(self):
        rng = np.random.default_rng(3)
        params = init_mlp([10, 20, 4], rng)
        for w in params.weights:
            bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.all(np.abs(w) <= bound)
        for b in params.biases:
            assert np.all(b == 0.0)
        assert [w.shape for w in params.weights] == [(10, 20), (20, 4)]
        assert [b.shape for b in params.biases] == [(20,), (4,)]

    def test_seed_determinism(self):
        a = init_mlp([4, 8, 2], np.random.default_rng(11))
        b = init_mlp([4, 8, 2], np.random.default_rng(11))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_bad_dims(self):
        with pytest.raises(DomainError):
            init_mlp([5], np.random.default_rng(0))
        with pytest.raises(DomainError):
            init_mlp([5, 0, 2], np.random.default_rng(0))

    @pytest.mark.parametrize("width", [64.5, True, "64"], ids=["float", "bool", "string"])
    def test_widths_must_be_integers(self, width):
        """int() would truncate 64.5 to a 64-wide layer and read True as 1."""
        with pytest.raises(DomainError, match="all positive integers"):
            init_mlp([3, width, 2], np.random.default_rng(0))
        with pytest.raises(DomainError, match="hidden widths must be positive integers"):
            TrainConfig(learning_rate=0.1, epochs=1, hidden_dims=(width,))
        params = init_mlp([np.int64(3), np.uint8(4), 2], np.random.default_rng(0))
        assert [w.shape for w in params.weights] == [(3, 4), (4, 2)]


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_klasses(self):
        loss, grad = softmax_cross_entropy(np.zeros((1, 2)), np.array([0]))
        np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)
        np.testing.assert_allclose(grad, [[-0.5, 0.5]], rtol=1e-12)

    def test_masked_rows_have_zero_gradient(self):
        # a masked loss is the loss over the gathered rows: the rows left
        # out get no gradient
        logits = np.random.default_rng(4).standard_normal((5, 3))
        labels = np.array([0, 1, 2, 0, 1])
        mask = np.array([1, 3])
        grad = np.zeros_like(logits)
        grad[mask] = softmax_cross_entropy(logits[mask], labels[mask])[1]
        assert np.all(grad[[0, 2, 4]] == 0.0)
        assert np.any(grad[mask] != 0.0)

    def test_stable_at_huge_logits(self):
        logits = np.array([[1e4, -1e4], [-1e4, 1e4]])
        loss, grad = softmax_cross_entropy(logits, np.array([0, 0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        np.testing.assert_allclose(loss, 1e4, rtol=1e-6)  # second row is maximally wrong

    def test_empty_mask_rejected(self):
        mask = np.array([], dtype=int)
        with pytest.raises(DomainError):
            softmax_cross_entropy(np.zeros((2, 2))[mask], np.array([0, 1])[mask])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_label_rejected(self, bad):
        with pytest.raises(DomainError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, bad]))

    def test_label_count_must_match_rows(self):
        with pytest.raises(DimensionError):
            softmax_cross_entropy(np.zeros((3, 2)), np.array([0, 1]))

    def test_logits_become_the_gradient_and_labels_are_not_written(self):
        logits = np.random.default_rng(3).standard_normal((4, 3))
        labels = np.array([2, 0, 1, 2])
        _, grad = softmax_cross_entropy(logits, labels)
        assert grad is logits
        assert np.array_equal(labels, [2, 0, 1, 2])

    @pytest.mark.parametrize(
        "logits",
        [np.zeros((2, 3), dtype=np.float32), np.zeros((2, 3), dtype=int), [[0.0] * 3] * 2,
         np.broadcast_to(0.0, (2, 3))],
        ids=["float32", "int", "list", "read-only"],
    )
    def test_refuses_logits_it_cannot_write_over(self, logits):
        with pytest.raises(DomainError, match="logits must be a writable float64 array"):
            softmax_cross_entropy(logits, np.array([0, 1]))

    @pytest.mark.parametrize(
        "labels", [[0.9, 1.0], [True, False], [0, "1"]], ids=["float", "bool", "str"]
    )
    def test_labels_must_hold_integers(self, labels):
        """0.9 was scored as class 0, and bools and digit strings were
        converted, before the labels took the package's index rule."""
        with pytest.raises(DomainError, match="labels must hold integers"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array(labels))

    def test_int32_labels_give_the_int64_bits(self):
        logits = np.random.default_rng(6).standard_normal((50, 7))
        labels = np.random.default_rng(7).integers(0, 7, size=50)
        want_loss, want_grad = softmax_cross_entropy(logits.copy(), labels)
        loss, grad = softmax_cross_entropy(logits.copy(), labels.astype(np.int32))
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize(
        "shape", [(20_000, 160), (1656, 6), (12_345, 7), (1, 5), (3, 9000)],
        ids=["wide", "cocite", "odd", "one-row", "row-past-a-block"],
    )
    def test_blocks_match_the_two_array_loss_bit_for_bit(self, shape):
        """The normalizer summed over 64 KB row blocks gives the loss and
        gradient of one ``exp`` over the whole batch, bit for bit; more
        than 8192 classes make each row its own block."""
        rng = np.random.default_rng(shape[0])
        logits = 4.0 * rng.standard_normal(shape)
        labels = rng.integers(0, shape[1], size=shape[0])
        want_loss, want_grad = two_array_softmax_cross_entropy(logits, labels)
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        mask = np.array([0, 2, 3, 5])
        z, y = logits[mask], labels[mask]
        _, grad = softmax_cross_entropy(z.copy(), y)
        fd = finite_difference_grads(lambda: softmax_cross_entropy(z.copy(), y)[0], [z])[0]
        np.testing.assert_allclose(grad, fd, atol=1e-9)

    def test_gathered_rows_match_the_masked_copy_bit_for_bit(self):
        """The loss over ``logits[mask]`` equals the written-out masked
        loss, and its gradient equals that loss's gradient rows [mask],
        bit for bit; fuzzed over shapes, masks and logit scales."""
        rng = np.random.default_rng(13)
        cases = [
            (np.zeros((1, 2)), np.array([1]), np.array([0])),
            (np.array([[1e300, -1e300], [-1e300, 1e300]]), np.array([0, 0]), np.array([0, 1])),
        ]
        for _ in range(60):
            rows, classes = int(rng.integers(1, 40)), int(rng.integers(2, 9))
            scale = 10.0 ** rng.integers(-3, 6)
            logits = scale * rng.standard_normal((rows, classes))
            labels = rng.integers(0, classes, size=rows)
            if rng.random() < 0.3:
                mask = np.arange(rows)
            else:
                mask = rng.choice(rows, size=int(rng.integers(1, rows + 1)), replace=False)
            cases.append((logits, labels, mask))
        for logits, labels, mask in cases:
            want_loss, want_grad = masked_softmax_cross_entropy(logits, labels, mask)
            gathered = logits[mask]  # in place: the gradient is written over the gathered copy
            loss, grad = softmax_cross_entropy(gathered, labels[mask])
            assert loss == want_loss and grad is gathered
            assert grad.dtype == want_grad.dtype and grad.shape == (len(mask), logits.shape[1])
            assert grad.tobytes() == want_grad[mask].tobytes()


class TestSigmoidBce:
    def test_hand_values(self):
        loss, grad = sigmoid_bce(np.array([0.0]), np.array([1.0]))
        np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)
        np.testing.assert_allclose(grad, [-0.5], rtol=1e-12)

    def test_stable_at_huge_logits(self):
        loss, _ = sigmoid_bce(np.array([1e4, -1e4]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(loss, 1e4, rtol=1e-6)
        loss, _ = sigmoid_bce(np.array([1e4, -1e4]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(loss, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(8)
        t = rng.integers(0, 2, size=8).astype(float)
        _, grad = sigmoid_bce(z.copy(), t)
        _, column = sigmoid_bce(z[:, None].copy(), t)  # the gradient keeps the logits' shape
        assert grad.shape == (8,) and column.shape == (8, 1)
        assert column.tobytes() == grad.tobytes()
        fd = finite_difference_grads(lambda: sigmoid_bce(z.copy(), t)[0], [z])[0]
        np.testing.assert_allclose(grad, fd, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sigmoid_bce(np.zeros(3), np.zeros(2))
        with pytest.raises(DimensionError):
            sigmoid_bce(np.array(0.0), np.zeros(1))  # a 0-d logit has no rows

    def test_bits_equal_the_two_exp_expression(self):
        """One exp serves the loss and the sigmoid, with the bits of
        taking it once for each."""
        rng = np.random.default_rng(61)
        edges = [0.0, -0.0, 1e-3, -1e-3, 30.0, -30.0, 800.0, -800.0]
        z = np.concatenate([edges, rng.standard_normal(200) * 10, rng.standard_normal(50) * 1e-6])
        t = rng.integers(0, 2, size=z.size).astype(float)
        want_loss = float(np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))))
        e = np.exp(-np.abs(z))
        want_grad = (np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)) - t) / z.size
        loss, grad = sigmoid_bce(z, t)
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("column", [False, True], ids=["flat", "column"])
    @pytest.mark.parametrize("k", [1, 7, 8192, 8193, 12_000, 100_000])
    def test_blocks_match_the_copying_loss_bit_for_bit(self, k, column):
        """One ``exp`` per 64 KB block, written over the logits, gives
        the loss and gradient of the whole-batch expressions, bit for
        bit, on either side of a block edge and at the extremes."""
        rng = np.random.default_rng(k)
        z = 10.0 * rng.standard_normal(k)
        edges = [0.0, -0.0, 1e-300, 800.0, -800.0]
        z[: len(edges)] = edges[:k]
        z = z[:, None] if column else z
        t = rng.integers(0, 2, size=k).astype(float)
        want_loss, want_grad = copying_sigmoid_bce(z, t)
        loss, grad = sigmoid_bce(z, t)
        assert loss == want_loss and grad.shape == want_grad.shape
        assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("column", [False, True], ids=["flat", "column"])
    @pytest.mark.parametrize(
        "z, t, term",
        [(np.inf, 1.0, 0.0), (-np.inf, 0.0, 0.0), (np.inf, 0.0, np.inf), (-np.inf, 1.0, np.inf)],
        ids=["+inf-right", "-inf-right", "+inf-wrong", "-inf-wrong"],
    )
    def test_an_infinite_logit_gives_the_limit_of_its_term(self, z, t, term, column):
        """At an infinite logit the term is its limit, without a warning,
        in the blocks on either side of a 64 KB block edge; every finite
        term, the gradient and a NaN logit keep their bits."""
        k, edge = 3 * nn._MASK_BLOCK, nn._MASK_BLOCK
        rng = np.random.default_rng(16)
        logits = 10.0 * rng.standard_normal(k)
        targets = rng.integers(0, 2, size=k).astype(float)
        logits[[edge - 1, edge]], targets[[edge - 1, edge]] = z, t
        with np.errstate(invalid="ignore"):  # the whole-batch expressions' inf - inf
            want_terms = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-abs(logits)))
            logits = logits[:, None] if column else logits
            _, want_grad = copying_sigmoid_bce(logits, targets)
        want_terms[[edge - 1, edge]] = term
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = sigmoid_bce(logits.copy(), targets)
            logits[0] = np.nan
            nan_loss, nan_grad = sigmoid_bce(logits.copy(), targets)
        assert loss == float(np.mean(want_terms)) and grad.tobytes() == want_grad.tobytes()
        assert np.isnan(nan_loss) and nan_grad[1:].tobytes() == want_grad[1:].tobytes()

    def test_empty_batch_is_refused(self):
        for logits in (np.zeros(0), np.zeros((0, 1))):
            with pytest.raises(DomainError, match="^loss over an empty batch is undefined$"):
                sigmoid_bce(logits, np.zeros(0))

    def test_logits_become_the_gradient_and_targets_are_not_written(self):
        logits = np.random.default_rng(4).standard_normal((5, 1))
        targets = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        _, grad = sigmoid_bce(logits, targets)
        assert grad is logits
        assert np.array_equal(targets, [1.0, 0.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize(
        "logits",
        [np.zeros(2, dtype=np.float32), np.zeros(2, dtype=int), [0.0, 0.0],
         np.broadcast_to(0.0, (2,))],
        ids=["float32", "int", "list", "read-only"],
    )
    def test_refuses_logits_it_cannot_write_over(self, logits):
        with pytest.raises(DomainError, match="logits must be a writable float64 array"):
            sigmoid_bce(logits, np.array([0.0, 1.0]))

    def test_peak_memory_is_the_loss_terms_and_two_blocks(self):
        """One call at 100 000 logits allocates at most 1.25 vectors of
        that length at its peak: the per-logit loss terms, plus a pair of
        64 KB blocks and a block-sized sign mask."""
        k = 100_000
        rng = np.random.default_rng(15)
        logits, targets = rng.standard_normal((k, 1)), (rng.random(k) < 0.5).astype(float)
        tracemalloc.start()
        try:
            sigmoid_bce(logits, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * k * 8, peak / (k * 8)


class TestBackprop:
    def test_parameter_gradients_match_finite_differences(self):
        """End-to-end check: analytic backprop through the network plus
        either loss agrees with central differences at h=1e-5."""
        rng = np.random.default_rng(7)
        for trial in range(6):
            dims = [int(rng.integers(2, 6)) for _ in range(3)] + [int(rng.integers(2, 4))]
            params = init_mlp(dims, rng)
            for b in params.biases:
                b += 0.1  # zero-init biases put dead rows exactly on the relu kink
            # finite differences are only valid away from the kink: redraw
            # inputs until every preactivation clears the step size by far
            for _ in range(50):
                x = rng.standard_normal((5, dims[0]))
                logits, fwd = mlp_forward(params, x, cache=True)
                preacts = reference_forward(params, x)[2]
                if all(np.abs(z).min() > 1e-3 for z in preacts):
                    break
            else:
                raise AssertionError("no kink-free input found")
            labels = rng.integers(0, dims[-1], size=5)

            def loss_fn():
                return softmax_cross_entropy(mlp_forward(params, x), labels)[0]

            _, grad = softmax_cross_entropy(logits, labels)
            gw, gb = mlp_backward(params, fwd, grad)
            fd = finite_difference_grads(loss_fn, params.weights + params.biases)
            for analytic, numeric in zip(gw + gb, fd):
                err = np.abs(analytic - numeric)
                scale = np.maximum(np.abs(analytic), np.abs(numeric))
                rel = err / np.maximum(scale, 1e-4)
                assert rel.max() <= 1e-4

    def test_gradients_respect_dropout_mask(self):
        # with a fixed mask, a dropped unit's incoming weights get no gradient
        rng = np.random.default_rng(8)
        params = init_mlp([3, 4, 1], rng)
        x = np.abs(rng.standard_normal((2, 3))) + 0.5
        logits, fwd = mlp_forward(params, x, dropout=0.5, rng=np.random.default_rng(0), cache=True)
        _, grad = sigmoid_bce(logits, np.ones(2))
        dropped_cols = np.all(fwd.inputs[1] == 0.0, axis=0)  # read before the backward consumes it
        assert dropped_cols.any()
        gw, _ = mlp_backward(params, fwd, grad)
        assert np.all(gw[0][:, dropped_cols] == 0.0)


class TestInPlaceHead:
    """The head computes the bias, rectifier and masks in place; its
    logits and gradients must equal the expressions with temporaries
    bit for bit."""

    @staticmethod
    def case(hidden, width_out, seed):
        rng = np.random.default_rng(seed)
        dims = [7, *[9] * hidden, width_out]
        params = init_mlp(dims, rng)
        for b in params.biases:  # negative, zero and positive biases
            b[:] = rng.choice([-0.5, 0.0, 0.5], size=b.shape)
        x = rng.standard_normal((40, 7))
        x[:5] = 0.0  # rows whose pre-activations are exactly the biases, zeros included
        grad = rng.standard_normal((40, width_out))
        return params, x, grad

    @staticmethod
    def stale_buffers(params, rows):
        """One buffer per layer, with spare rows, holding stale NaNs."""
        return [np.full((rows + 3, len(b)), np.nan) for b in params.biases]

    def check_against_reference(self, dropout, hidden, width_out, buffered=False):
        params, x, grad = self.case(hidden, width_out, seed=hidden * 10 + width_out)
        buffers = self.stale_buffers(params, len(x)) if buffered else None
        logits, fwd = mlp_forward(
            params, x, dropout=dropout, rng=np.random.default_rng(3), cache=True, buffers=buffers
        )
        want, inputs, preacts, masks = reference_forward(
            params, x, dropout, np.random.default_rng(3)
        )
        assert any((z == 0.0).any() and (z < 0.0).any() for z in preacts) or hidden == 0
        assert np.array_equal(logits, want)
        gw, gb = mlp_backward(params, fwd, grad)
        want_w, want_b = reference_backward(params, inputs, preacts, masks, grad)
        for got, ref in zip(gw + gb, want_w + want_b):
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)
        return params, x, logits, buffers

    @pytest.mark.parametrize("width_out", [1, 6])
    @pytest.mark.parametrize("hidden", [0, 1, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_bit_identical_to_the_expressions_with_temporaries(self, dropout, hidden, width_out):
        self.check_against_reference(dropout, hidden, width_out)

    @pytest.mark.parametrize("width_out", [1, 6])
    @pytest.mark.parametrize("hidden", [0, 1, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_bit_identical_with_buffers(self, dropout, hidden, width_out):
        """Buffers with spare rows and stale NaNs give the same bits; the
        logits are a view of the last buffer, and a shorter pass after the
        backward (as validation is) writes the leading rows."""
        params, x, logits, buffers = self.check_against_reference(
            dropout, hidden, width_out, buffered=True
        )
        assert np.shares_memory(logits, buffers[-1])
        short = mlp_forward(params, x[:25], buffers=buffers)
        assert np.shares_memory(short, buffers[-1])
        assert np.array_equal(short, reference_forward(params, x[:25])[0])

    @pytest.mark.parametrize("rows, widths", [(1000, (300, 70)), (7, (9000,))])
    def test_dropout_masks_drawn_in_blocks_are_one_draw(self, rows, widths):
        """Hidden layers wider and taller than one 64 KB mask block
        (including one wider than a block, one row per draw) give the
        bits of one draw per layer and leave the generator where one
        draw per layer leaves it."""
        rng = np.random.default_rng(9)
        params = init_mlp([5, *widths, 3], rng)
        x = rng.standard_normal((rows, 5))
        grad = rng.standard_normal((rows, 3))
        got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(1)
        logits, fwd = mlp_forward(params, x, dropout=0.6, rng=got_rng, cache=True)
        want, inputs, preacts, masks = reference_forward(params, x, 0.6, want_rng)
        assert np.array_equal(logits, want)
        for got, ref in zip(mlp_backward(params, fwd, grad), reference_backward(
            params, inputs, preacts, masks, grad
        )):
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize(
        "buffers",
        [
            lambda rows: [np.empty((rows, 9)), np.empty((rows, 9))],  # one layer short
            lambda rows: [np.empty((rows, 9)), np.empty((rows, 9)), np.empty((rows, 2))],
            lambda rows: [np.empty((rows - 1, 9)), np.empty((rows, 9)), np.empty((rows, 1))],
            lambda rows: [np.empty((rows, 9), "f4"), np.empty((rows, 9)), np.empty((rows, 1))],
            lambda rows: [np.empty(rows * 9), np.empty((rows, 9)), np.empty((rows, 1))],
        ],
        ids=["count", "width", "rows", "dtype", "flat"],
    )
    def test_buffers_that_do_not_fit_are_refused(self, buffers):
        params, x, _ = self.case(2, 1, seed=5)
        with pytest.raises(DimensionError, match="one float64 array per layer"):
            mlp_forward(params, x, buffers=buffers(len(x)))

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_inputs_and_params_are_not_written(self, dropout):
        for buffered in (False, True):
            params, x, grad = self.case(2, 1, seed=5)
            before = params.copy()
            x_before, grad_before = x.copy(), grad.copy()
            buffers = self.stale_buffers(params, len(x)) if buffered else None
            _, fwd = mlp_forward(
                params, x, dropout=dropout, rng=np.random.default_rng(4), cache=True,
                buffers=buffers,
            )
            mlp_backward(params, fwd, grad)
            assert np.array_equal(x, x_before) and np.array_equal(grad, grad_before)
            for got, ref in zip(params.weights + params.biases, before.weights + before.biases):
                assert np.array_equal(got, ref)

    def test_backward_writes_each_delta_over_its_cached_activation(self):
        """The backward consumes its cache: each hidden layer's cached
        activation holds that layer's masked delta afterwards."""
        params, x, grad = self.case(2, 1, seed=6)
        _, fwd = mlp_forward(params, x, cache=True)
        hidden = fwd.inputs[1:]
        _, _, preacts, _ = reference_forward(params, x)
        want = grad @ params.weights[2].T * (preacts[1] > 0.0)
        mlp_backward(params, fwd, grad)
        assert np.array_equal(hidden[1], want)
        assert np.array_equal(hidden[0], want @ params.weights[1].T * (preacts[0] > 0.0))

    def test_one_step_peak_memory_is_about_one_batch_array(self):
        """One forward, loss and backward step at B = 12 000 and dims
        64 -> 64 -> 1 (the hyperlink benchmark's batch) allocates at most
        1.25 arrays of B x 64 float64 at its peak: the cached hidden
        activations, which the hidden delta overwrites, plus the
        rectifier mask (an eighth) and small change.  With run-long
        buffers it allocates at most a quarter of one."""
        rows, width = 12_000, 64
        rng = np.random.default_rng(12)
        params = init_mlp([width, width, 1], rng)
        x = rng.standard_normal((rows, width))
        targets = (rng.random(rows) < 0.5).astype(float)
        buffers = [np.empty((rows, width)), np.empty((rows, 1))]
        for given, bound in ((None, 1.25), (buffers, 0.25)):
            tracemalloc.start()
            try:
                logits, fwd = mlp_forward(params, x, cache=True, buffers=given)
                _, grad = sigmoid_bce(logits, targets)
                mlp_backward(params, fwd, grad)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * rows * width * 8, peak / (rows * width * 8)

    def test_dropout_step_with_buffers_peaks_under_half_a_batch_array(self):
        """One training step at B = 12 000, dims 64 -> 64 -> 64 -> 1,
        dropout 0.3 and run-long buffers allocates at most half an array
        of B x 64 float64 at its peak: no keep mask is cached, and each
        is drawn in row blocks of 64 KB, so what is left is the
        rectifier mask (an eighth) and vectors of one value per row."""
        rows, width = 12_000, 64
        rng = np.random.default_rng(13)
        params = init_mlp([width, width, width, 1], rng)
        x = rng.standard_normal((rows, width))
        targets = (rng.random(rows) < 0.5).astype(float)
        buffers = [np.empty((rows, width)), np.empty((rows, width)), np.empty((rows, 1))]
        tracemalloc.start()
        try:
            logits, fwd = mlp_forward(
                params, x, dropout=0.3, rng=np.random.default_rng(0), cache=True, buffers=buffers
            )
            _, grad = sigmoid_bce(logits, targets)
            mlp_backward(params, fwd, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * rows * width * 8, peak / (rows * width * 8)

    def test_loss_peak_memory_is_a_tenth_of_a_batch_array(self):
        """One `softmax_cross_entropy` call at B = 20 000 rows and 160
        classes allocates at most a tenth of an array of B x 160 float64
        at its peak: it shifts in the logits, which become the gradient,
        and takes the normalizer's exp in one 64 KB block at a time, so
        what is left is vectors of one value per row."""
        rows, classes = 20_000, 160
        rng = np.random.default_rng(14)
        logits = rng.standard_normal((rows, classes))
        labels = rng.integers(0, classes, size=rows)
        tracemalloc.start()
        try:
            softmax_cross_entropy(logits, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * rows * classes * 8, peak / (rows * classes * 8)


class TestRowPanels:
    """The head's wide products run in row panels on one worker per
    core (`_matmul`); at one BLAS thread each must give the bits of one
    ``np.matmul``, whatever the worker count."""

    @pytest.fixture(autouse=True)
    def needs_openblas(self):
        if _openblas() is None:
            pytest.skip("the BLAS thread count is pinned through numpy's bundled OpenBLAS")

    @staticmethod
    def check(a, b, split=True):
        """``_matmul(a, b)`` inside a head run, new and into an ``out``
        with stale rows, equals one ``np.matmul`` at one BLAS thread."""
        assert (len(_row_panels(len(a), *b.shape)) > 2) == split
        out = np.full((len(a) + 5, b.shape[1]), np.nan)
        with _head_threads():
            want = np.matmul(a, b)
            got = _matmul(a, b)
            into = _matmul(a, b, out[: len(a)])
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(into, out) and into.tobytes() == want.tobytes()
        assert np.isnan(out[len(a) :]).all()

    def test_head_shapes_of_the_benchmark(self):
        """cocite-wide's train and val forwards and first-layer weight
        gradient (its train rows' columns in panels) split; the
        hyperlink head's 12 000 x 64 x 64 is below the floor."""
        rng = np.random.default_rng(30)
        x = rng.standard_normal((1656, 3703))
        self.check(x, rng.standard_normal((3703, 64)))
        self.check(x[:828], rng.standard_normal((3703, 64)))
        self.check(x.T, rng.standard_normal((1656, 64)))
        self.check(rng.standard_normal((12000, 64)), rng.standard_normal((64, 64)), split=False)

    def test_random_shapes_in_both_layouts(self):
        """A seeded sweep of split shapes, at or above the floor, in the
        forward layout and in the transposed layout of the gradient."""
        rng = np.random.default_rng(31)
        for case in range(40):
            m, n = int(rng.integers(nn._PANELS * nn._ROW_TILE, 3000)), int(rng.integers(32, 193))
            k = -(-nn._SPLIT_MNK // (m * n)) + int(rng.integers(0, 700))
            a = rng.standard_normal((k, m)).T if case % 2 else rng.standard_normal((m, k))
            self.check(a, rng.standard_normal((k, n)))

    def test_narrow_and_wide_outputs_and_input_gradients_stay_one_call(self, monkeypatch):
        """Outputs under 32 or over 192 columns were not bit-equal in
        these panels, and neither was ``delta @ W.T``: the backward runs
        that as one call even where a forward of its shape would split."""
        for n in [*range(1, 32), 193, 256, 300]:
            assert _row_panels(10**5, 4096, n) == [0, 10**5]
        monkeypatch.setattr(nn, "_SPLIT_MNK", 1)
        rng = np.random.default_rng(32)
        params = init_mlp([40, 64, 64, 6], rng)
        x = rng.standard_normal((1000, 40))
        calls = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            calls.append((a.shape, b.shape))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        with _head_threads():
            _, fwd = mlp_forward(params, x, cache=True)
            assert ((1000, 64), (64, 64)) not in calls  # the forward's hidden layer split
            mlp_backward(params, fwd, rng.standard_normal((1000, 6)))
        assert ((1000, 64), (64, 64)) in calls  # delta @ W.T, in one call

    def test_worker_count_changes_no_byte(self, monkeypatch):
        """A dropout step on 1 and 4 workers gives the bytes of the same
        step outside a head run, where every product is one call (at one
        BLAS thread)."""
        rng = np.random.default_rng(33)
        params = init_mlp([600, 64, 6], rng)
        x, grad = rng.standard_normal((2000, 600)), rng.standard_normal((2000, 6))
        assert len(_row_panels(2000, 600, 64)) > 2 and len(_row_panels(600, 2000, 64)) > 2

        def step():
            logits, fwd = mlp_forward(
                params, x, dropout=0.3, rng=np.random.default_rng(0), cache=True
            )
            gw, gb = mlp_backward(params, fwd, grad)
            return b"".join(a.tobytes() for a in [logits, *gw, *gb])

        results = []
        for workers in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=workers: set(range(k)))
            with _head_threads():
                results.append(step())
        get, set_ = _openblas()
        before = get()
        set_(1)
        try:
            results.append(step())
        finally:
            set_(before)
        assert results[0] == results[1] == results[2]

    def test_a_head_run_runs_panels_on_workers_and_restores_the_threads(self, monkeypatch):
        """Inside a head run OpenBLAS has one thread and the panels run
        off the calling thread; afterwards the count is restored and
        every worker joined."""
        monkeypatch.setattr(nn, "_SPLIT_MNK", 1)
        callers = set()
        matmul = np.matmul

        def spy(*args, **kwargs):
            callers.add(threading.get_ident())
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        get, set_ = _openblas()
        before, threads = get(), threading.active_count()
        set_(2)
        try:
            with _head_threads():
                assert get() == 1
                _matmul(np.ones((1000, 50)), np.ones((50, 64)))
            assert get() == 2 and threading.active_count() == threads
        finally:
            set_(before)
        assert callers and threading.get_ident() not in callers


class TestWithoutOpenblas:
    """A numpy that links no bundled OpenBLAS (numpy 1.x has no
    ``numpy._core``) leaves the thread count alone, and every product of
    a head run is one call with the bits of the panels."""

    @pytest.fixture
    def real_openblas(self):
        blas = _openblas()
        if blas is None:
            pytest.skip("the head's own run needs numpy's bundled OpenBLAS to compare against")
        return blas

    def test_a_library_that_does_not_load_is_none(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("cannot open shared object file")

        monkeypatch.setattr(nn.ctypes, "CDLL", refuse)
        _openblas.cache_clear()
        try:
            assert _openblas() is None
        finally:
            _openblas.cache_clear()

    def test_a_head_run_pins_nothing_and_binds_no_pool(self, monkeypatch, real_openblas):
        get, set_ = real_openblas
        monkeypatch.setattr(nn, "_openblas", lambda: None)
        before = get()
        set_(2)
        try:
            with _head_threads():
                assert get() == 2 and nn._PANEL_POOL.get() is None
            assert get() == 2
        finally:
            set_(before)

    def test_an_nc_run_keeps_the_best_parameters_of_the_panels(self, monkeypatch, real_openblas):
        from hyperprop.core import LabelVector
        from hyperprop.tasks import make_split, train_node_classifier

        rng = np.random.default_rng(34)
        x = rng.standard_normal((2000, 1100))
        y = LabelVector(labels=rng.integers(0, 6, 2000), num_classes=6)
        split = make_split(2000, 0)
        assert len(_row_panels(len(split.train), 1100, 64)) > 2
        cfg = TrainConfig(learning_rate=0.01, epochs=3, dropout=0.3)

        def best_bytes():
            params, _ = train_node_classifier(x, y, split, cfg)
            return b"".join(p.tobytes() for p in params.weights + params.biases)

        panels = best_bytes()
        get, set_ = real_openblas
        before = get()
        monkeypatch.setattr(nn, "_openblas", lambda: None)
        set_(1)
        try:
            assert best_bytes() == panels
        finally:
            set_(before)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = MlpParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        state = AdamState.like(params)
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        adam_step(params, [np.array([[0.5]])], [np.array([0.0])], state, cfg)
        np.testing.assert_allclose(params.weights[0], [[0.9]], atol=1e-6)
        assert state.step == 1

    def test_two_steps_track_reference_formula(self):
        """Independent recomputation of the moment recursions for two
        steps on a scalar parameter."""
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        params = MlpParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        state = AdamState.like(params)
        cfg = TrainConfig(learning_rate=lr, epochs=1)
        p, m, v = 1.0, 0.0, 0.0
        for step, g in enumerate([0.3, -0.2], start=1):
            adam_step(params, [np.array([[g]])], [np.zeros(1)], state, cfg)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p -= lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + eps)
        np.testing.assert_allclose(params.weights[0], [[p]], rtol=1e-12)

    def test_bit_identical_to_textbook_expressions(self):
        rng = np.random.default_rng(11)
        params = init_mlp([37, 9, 3], rng)
        want = params.copy()
        state = AdamState.like(params)
        want_m = [np.zeros_like(p) for p in want.weights + want.biases]
        want_v = [np.zeros_like(p) for p in want.weights + want.biases]
        cfg = TrainConfig(learning_rate=0.03, epochs=1)
        for step in range(1, 8):
            grads_w = [rng.standard_normal(w.shape) for w in params.weights]
            grads_b = [rng.standard_normal(b.shape) for b in params.biases]
            adam_step(params, grads_w, grads_b, state, cfg)
            for p, g, m, v in zip(want.weights + want.biases, grads_w + grads_b, want_m, want_v):
                adam_textbook_step(p, g, m, v, step, cfg)
        assert state.step == 7
        for got, ref in zip(params.weights + params.biases, want.weights + want.biases):
            assert np.array_equal(got, ref)
        for got, ref in zip(state.m, want_m):
            assert np.array_equal(got, ref)
        for got, ref in zip(state.v, want_v):
            assert np.array_equal(got, ref)

    def test_blocks_match_the_textbook_step_in_any_layout(self):
        """A 3703 x 64 weight (29 row blocks, the last partial), a 64-value
        bias (one block), a 9000-value bias (two), a transposed and a
        strided parameter: five steps equal the textbook expressions bit
        for bit, written into the arrays given."""
        rng = np.random.default_rng(12)
        strided = rng.standard_normal((40, 99))[:, ::3]
        params = MlpParams(
            weights=[rng.standard_normal((3703, 64)), rng.standard_normal((64, 3703)).T, strided],
            biases=[rng.standard_normal(64), rng.standard_normal(9000)],
        )
        given = params.weights + params.biases
        want = [p.copy() for p in given]
        state = AdamState.like(params)
        want_m, want_v = [np.zeros_like(p) for p in want], [np.zeros_like(p) for p in want]
        cfg = TrainConfig(learning_rate=0.02, epochs=1)
        for step in range(1, 6):
            grads = [rng.standard_normal(p.shape) for p in given]
            adam_step(params, grads[:3], grads[3:], state, cfg)
            for p, g, m, v in zip(want, grads, want_m, want_v):
                adam_textbook_step(p, g, m, v, step, cfg)
        assert all(a is b for a, b in zip(params.weights + params.biases, given))
        for got, ref in zip(given + state.m + state.v, want + want_m + want_v):
            assert got.tobytes() == ref.tobytes()

    def test_step_allocates_two_blocks(self):
        """One step on a 3703 x 64 weight and its bias allocates one pair
        of 64 KB block buffers, plus small change, not two weight-sized
        arrays."""
        rng = np.random.default_rng(15)
        params = MlpParams(weights=[rng.standard_normal((3703, 64))], biases=[np.zeros(64)])
        state = AdamState.like(params)
        grads = [rng.standard_normal((3703, 64))], [rng.standard_normal(64)]
        cfg = TrainConfig(learning_rate=0.01, epochs=1)
        tracemalloc.start()
        try:
            adam_step(params, *grads, state, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * nn._MASK_BLOCK * 8, peak / (nn._MASK_BLOCK * 8)

    def test_config_domains(self):
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=0.0, epochs=10)
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=0.1, epochs=0)
        for epochs in (True, 2.5):  # both were accepted
            message = f"epochs must be a positive integer, got {epochs!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                TrainConfig(learning_rate=0.1, epochs=epochs)
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=0.1, epochs=10, dropout=1.0)

    @pytest.mark.parametrize("seed", [True, -1, 1.5], ids=["bool", "negative", "float"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        """True trained as seed 1; -1 and 1.5 failed inside numpy's
        generator, once training began."""
        message = f"seed must be a nonnegative integer, got {seed!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            TrainConfig(learning_rate=0.1, epochs=1, seed=seed)

    def test_infinite_learning_rate_is_refused(self):
        """It was accepted, and the run then died at its first
        validation pass with a NumericalError that blamed the head."""
        with pytest.raises(DomainError, match="learning rate must be finite, got inf"):
            TrainConfig(learning_rate=float("inf"), epochs=1)

    @pytest.mark.parametrize("field", ["learning_rate", "dropout"])
    def test_nan_setting_is_refused(self, field):
        """NaN fails every comparison, so each range check is written to
        fail on it rather than pass a NaN setting to the epoch loop."""
        with pytest.raises(DomainError):
            TrainConfig(**{"learning_rate": 0.1, "epochs": 1, field: float("nan")})


class TestOverfitSanity:
    def test_separable_blob_reaches_tiny_loss(self):
        rng = np.random.default_rng(9)
        x = np.vstack([rng.normal(-2.0, 0.3, (20, 2)), rng.normal(2.0, 0.3, (20, 2))])
        labels = np.array([0] * 20 + [1] * 20)
        params = init_mlp([2, 16, 2], rng)
        state = AdamState.like(params)
        cfg = TrainConfig(learning_rate=0.01, epochs=2000)
        loss = np.inf
        for _ in range(2000):
            logits, fwd = mlp_forward(params, x, cache=True)
            loss, grad = softmax_cross_entropy(logits, labels)
            if loss <= 1e-3:
                break
            gw, gb = mlp_backward(params, fwd, grad)
            adam_step(params, gw, gb, state, cfg)
        assert loss <= 1e-3
