import json
import math
import shutil
import subprocess
import sysconfig
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aecomm import cli, metrics, nn, train
from helpers import KERNEL_FORMS, configured_cc, gradient_check, kernel_form, norm_errors_vectorized, softmax


def random_mlp(sizes, seed):
    return nn.build_mlp(sizes, np.random.default_rng(seed))


class TestGlorotInit:
    def test_deterministic(self):
        W1, b1 = nn.glorot_init(2, 3, np.random.default_rng(7))
        W2, b2 = nn.glorot_init(2, 3, np.random.default_rng(7))
        assert np.array_equal(W1, W2)
        assert np.array_equal(b1, b2)

    def test_bound_and_zero_bias(self):
        W, b = nn.glorot_init(5, 9, np.random.default_rng(0))
        limit = math.sqrt(6.0 / (5 + 9))
        assert np.all(np.abs(W) <= limit)
        assert np.array_equal(b, np.zeros(9))

    def test_sample_mean_near_zero(self):
        W, _ = nn.glorot_init(60, 60, np.random.default_rng(3))
        limit = math.sqrt(6.0 / 120)
        stderr = (limit / math.sqrt(3.0)) / 60.0  # uniform std / sqrt(3600)
        assert abs(W.mean()) < 3 * stderr


class TestMlpForward:
    def test_identity_linear_layer(self):
        mlp = nn.Mlp([np.eye(3)], [np.zeros(3)])
        X = np.random.default_rng(0).normal(size=(4, 3))
        Y, _ = nn.mlp_forward(X, mlp)
        assert np.array_equal(Y, X)

    def test_relu_identity_layer(self):
        # the hidden ReLU zeroes the -1; the last layer is linear, so its bias's -1 stays
        mlp = nn.Mlp([np.eye(2), np.eye(2)], [np.zeros(2), np.array([-1.0, 0.0])])
        Y, _ = nn.mlp_forward(np.array([[-1.0, 2.0]]), mlp)
        assert np.array_equal(Y, [[-1.0, 2.0]])

    def test_third_positional_argument_refused(self):
        # a third positional argument, such as a list of activation tags, is refused
        with pytest.raises(TypeError):
            nn.Mlp([np.eye(2)], [np.zeros(2)], ["linear"])

    def test_matches_naive_matmul(self):
        mlp = random_mlp([4, 5, 3], seed=11)
        X = np.random.default_rng(12).normal(size=(6, 4))
        Y, _ = nn.mlp_forward(X, mlp)

        # naive triple-loop re-implementation
        A = X
        for layer, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
            Z = np.zeros((A.shape[0], W.shape[1]))
            for i in range(A.shape[0]):
                for j in range(W.shape[1]):
                    acc = b[j]
                    for k in range(A.shape[1]):
                        acc += A[i, k] * W[k, j]
                    Z[i, j] = acc
            A = np.maximum(Z, 0) if layer < len(mlp.weights) - 1 else Z  # ReLU on every layer but the last
        assert np.allclose(Y, A, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        mlp = random_mlp([4, 3], seed=0)
        with pytest.raises(ValueError):
            nn.mlp_forward(np.zeros((2, 5)), mlp)

    def test_row_separability(self):
        # forward of one-hot row i equals row i of forward on the identity
        mlp = random_mlp([6, 5, 2], seed=4)
        full, _ = nn.mlp_forward(np.eye(6), mlp)
        for i in range(6):
            row, _ = nn.mlp_forward(np.eye(6)[[i]], mlp)
            # BLAS may round differently for 1-row inputs; equality up to ulps
            assert np.allclose(row[0], full[i], rtol=1e-13, atol=1e-15)


class TestIndexInput:
    # Up to 48 rows the OpenBLAS matmul sums a column's repeated one-hot rows in
    # row order, so the one-hot matmul is a bit-exact reference; past a few
    # hundred rows it blocks the sum and the two may differ in the last bit.
    @settings(max_examples=80, deadline=None)
    @given(
        log2_M=st.integers(1, 8),
        hidden=st.lists(st.integers(2, 40), min_size=1, max_size=2),
        n_rows=st.integers(1, 48),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_hot_matmul_bit_for_bit(self, log2_M, hidden, n_rows, seed):
        M = 2**log2_M
        rng = np.random.default_rng(seed)
        mlp = nn.build_mlp([M, *hidden, 2], rng)
        for b in mlp.biases:
            b[:] = rng.normal(scale=0.1, size=b.shape)
        idx = rng.integers(0, M, size=n_rows)  # duplicates are likely for small M
        dY = rng.normal(size=(n_rows, 2))

        Y_eye, cache_eye = nn.mlp_forward(np.eye(M)[idx], mlp)
        _, grads_eye = nn.mlp_backward(dY, cache_eye, mlp)
        grads_eye = [g.copy() for g in grads_eye]
        for g in mlp.grads:
            g.fill(np.nan)  # the backward must overwrite every entry
        Y_idx, cache_idx = nn.mlp_forward(idx, mlp)
        dX, grads_idx = nn.mlp_backward(dY, cache_idx, mlp)

        assert np.array_equal(Y_idx, Y_eye)
        for (_, Z_idx), (_, Z_eye) in zip(cache_idx, cache_eye):
            assert np.array_equal(Z_idx, Z_eye)
        for g_idx, g_eye in zip(grads_idx, grads_eye):
            assert np.array_equal(g_idx, g_eye)
        assert dX is None

    def test_whole_alphabet_equals_identity_input(self):
        mlp = random_mlp([8, 6, 2], seed=30)
        dY = np.random.default_rng(31).normal(size=(8, 2))
        Y_eye, cache = nn.mlp_forward(np.eye(8), mlp)
        _, grads_eye = nn.mlp_backward(dY, cache, mlp)
        grads_eye = [g.copy() for g in grads_eye]
        for g in mlp.grads:
            g.fill(np.nan)
        Y_idx, cache = nn.mlp_forward(np.arange(8), mlp)
        _, grads_idx = nn.mlp_backward(dY, cache, mlp)
        assert np.array_equal(Y_idx, Y_eye)
        assert all(np.array_equal(a, b) for a, b in zip(grads_idx, grads_eye))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
    def test_narrow_index_dtype_scatters_like_int64(self, dtype):
        # the scatter's flat index is idx * n_cols + col, which wraps in uint8
        mlp = random_mlp([128, 100, 2], seed=34)
        idx = np.random.default_rng(35).integers(0, 128, size=20)
        dY = np.random.default_rng(36).normal(size=(20, 2))
        _, grads = nn.mlp_backward(dY, nn.mlp_forward(idx, mlp)[1], mlp)
        expected = [g.copy() for g in grads]
        _, grads = nn.mlp_backward(dY, nn.mlp_forward(idx.astype(dtype), mlp)[1], mlp)
        assert all(np.array_equal(g, e) for g, e in zip(grads, expected))

    def test_invalid_index_input(self):
        mlp = random_mlp([4, 3, 2], seed=32)
        for bad in (np.array([0, 4]), np.array([-1, 0]), np.array([0.0, 1.0])):
            with pytest.raises(ValueError):
                nn.mlp_forward(bad, mlp)


class TestMlpBackward:
    def test_zero_upstream(self):
        mlp = random_mlp([3, 4, 2], seed=1)
        X = np.random.default_rng(2).normal(size=(5, 3))
        Y, cache = nn.mlp_forward(X, mlp)
        dX, grads = nn.mlp_backward(np.zeros_like(Y), cache, mlp)
        assert np.array_equal(dX, np.zeros_like(X))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)

    def test_sum_loss_gradients(self):
        # L = sum(Y) for a single linear layer: dW = X^T @ ones, db = N per column
        mlp = random_mlp([3, 2], seed=5)
        X = np.random.default_rng(6).normal(size=(7, 3))
        Y, cache = nn.mlp_forward(X, mlp)
        _, grads = nn.mlp_backward(np.ones_like(Y), cache, mlp)
        assert np.allclose(grads[0], X.T @ np.ones((7, 2)))
        assert np.allclose(grads[1], 7.0 * np.ones(2))

    def test_matches_finite_differences(self):
        mlp = random_mlp([3, 6, 4], seed=8)
        X = np.random.default_rng(9).normal(size=(5, 3))
        w = np.random.default_rng(10).normal(size=(5, 4))  # fixed projection

        params, grads = nn.pack_params(mlp)

        def f(vec):
            params[:] = vec
            Y, cache = nn.mlp_forward(X, mlp)
            nn.mlp_backward(w, cache, mlp)
            return float(np.sum(w * Y)), grads.copy()

        assert gradient_check(f, params.copy()) < 1e-6

    def test_input_gradient_matches_finite_differences(self):
        mlp = random_mlp([3, 6, 2], seed=13)
        X0 = np.random.default_rng(14).normal(size=(4, 3))
        w = np.random.default_rng(15).normal(size=(4, 2))

        def f(vec):
            X = vec.reshape(X0.shape)
            Y, cache = nn.mlp_forward(X, mlp)
            dX, _ = nn.mlp_backward(w, cache, mlp)
            return float(np.sum(w * Y)), dX.ravel()

        assert gradient_check(f, X0.ravel()) < 1e-6

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("index_input", [False, True])
    def test_repeat_on_one_cache_and_workspace(self, n_layers, index_input):
        # the backward writes each hidden layer's dZ over its upstream gradient
        # and reads the ReLU mask off the forward's in-place output, so a second
        # call must find dY and the cache intact and give the same results
        rng = np.random.default_rng(50 + n_layers)
        mlp = nn.build_mlp([6, 5, 4, 3][: n_layers + 1], rng)
        # pre-activations exactly 0.0, -0.0 (of either sign for a matrix input)
        # and, on the last hidden layer, nan (its output layer is linear, so dA stays finite)
        for k in range(n_layers - 1):
            mlp.weights[k][:, :2] = [0.0, -0.0]
            mlp.biases[k][:2] = [0.0, -0.0]
        if n_layers > 1:
            mlp.biases[n_layers - 2][2] = np.nan
        idx = rng.permutation(6)[:4]  # distinct, so the first weight gradient shows dZ0 row by row
        X = idx if index_input else rng.normal(size=(4, 6))
        ws = {}
        Y, cache = nn.mlp_forward(X, mlp, ws=ws)
        cache_before = [(A.copy(), Z.copy()) for A, Z in cache]
        dY = rng.normal(size=Y.shape)
        dY_before = dY.copy()
        dX, grads = nn.mlp_backward(dY, cache, mlp, ws=ws)
        first = [None if dX is None else dX.copy(), *(g.copy() for g in grads)]
        for g in grads:
            g.fill(np.inf)
        dX, grads = nn.mlp_backward(dY, cache, mlp, ws=ws)
        assert all(a is b is None or np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(first, [dX, *grads], strict=True))
        assert (dX is None) == index_input
        assert np.array_equal(dY, dY_before)
        assert all(np.array_equal(A, A0, equal_nan=True) and np.array_equal(Z, Z0, equal_nan=True)
                   for (A, Z), (A0, Z0) in zip(cache, cache_before, strict=True))
        for k in range(n_layers - 1):
            # no gradient passes a zero or nan pre-activation
            dZ_cols = [0, 1, 2] if k == n_layers - 2 else [0, 1]
            assert not grads[2 * k + 1][dZ_cols].any()
            if index_input and k == 0:
                assert not grads[0][np.ix_(idx, dZ_cols)].any()


    def test_one_forward_set_serves_every_row_count(self):
        # the forward's one array set grows to its longest call and serves a shorter
        # one from its leading rows; every call equals one without a workspace
        rng = np.random.default_rng(60)
        mlp = nn.build_mlp([6, 5, 4, 3], rng)
        ws = {}
        for n, index_input in ((5, True), (2, False), (7, True), (3, True), (1, False), (7, False)):
            X = rng.integers(0, 6, size=n) if index_input else rng.normal(size=(n, 6))
            dY = rng.normal(size=(n, 3))
            Y, cache = nn.mlp_forward(X, mlp, ws=ws)
            dX, grads = nn.mlp_backward(dY, cache, mlp, ws=ws)
            got = [Y.copy(), None if dX is None else dX.copy(), *(g.copy() for g in grads)]
            Y, cache = nn.mlp_forward(X, mlp)
            dX, grads = nn.mlp_backward(dY, cache, mlp)
            assert all(a is b is None or np.array_equal(a, b) for a, b in zip(got, [Y, dX, *grads], strict=True))
        assert [Z.shape for Z in ws["forward"]] == [(7, 5), (7, 4), (7, 3)]


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((3, 128))
        loss, _ = nn.softmax_cross_entropy(logits, np.array([0, 5, 127]))
        assert loss == pytest.approx(math.log(128), abs=1e-12)
        assert loss == pytest.approx(4.852030263919617, abs=1e-12)

    def test_confident_correct(self):
        logits = np.eye(4) * 1e9
        loss, _ = nn.softmax_cross_entropy(logits, np.arange(4))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        logits0 = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)

        def f(vec):
            loss, d = nn.softmax_cross_entropy(vec.reshape(4, 5), labels)
            return loss, d.ravel()

        assert gradient_check(f, logits0.ravel()) < 1e-6

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = softmax(rng.normal(scale=10.0, size=(8, 6)))
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p >= 0)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            logits = rng.normal(scale=5.0, size=(6, 9))
            labels = rng.integers(0, 9, size=6)
            loss, _ = nn.softmax_cross_entropy(logits, labels)
            assert loss >= 0.0

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            nn.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def reference_adam(params, grad_steps, lr, beta1, beta2, epsilon, t0=0, textbook=False):
    """Adam over a list of arrays, one array at a time (the per-array formula).

    By default in Kingma & Ba's efficient form, with the bias corrections folded
    into the step size and epsilon; textbook=True divides the moments by them
    instead. The moments start at zero and the first step is step t0 + 1.
    """
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=t0 + 1):
        b1t = 1.0 - beta1**t
        b2t = 1.0 - beta2**t
        lr_t = lr * np.sqrt(b2t) / b1t
        eps_t = epsilon * np.sqrt(b2t)
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * g * g
            if textbook:
                p -= lr * (mi / b1t) / (np.sqrt(vi / b2t) + epsilon)
            else:
                p -= lr_t * mi / (np.sqrt(vi) + eps_t)


class TestPackParams:
    def test_views_into_one_buffer(self):
        rng = np.random.default_rng(40)
        a = nn.build_mlp([5, 4, 2], rng)
        b = nn.build_mlp([2, 3, 5], rng)
        before = [p.copy() for p in a.param_list() + b.param_list()]
        params, grads = nn.pack_params(a, b)
        after = a.param_list() + b.param_list()
        assert params.size == sum(p.size for p in before) == grads.size
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        assert all(np.shares_memory(p, params) for p in after)
        assert all(np.shares_memory(g, grads) for g in a.grads + b.grads)
        assert [g.shape for g in a.grads + b.grads] == [p.shape for p in after]
        params[:] = 0.0
        assert all(not p.any() for p in after)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        for form in KERNEL_FORMS:
            p = np.array([1.0, -2.0])
            with kernel_form(form):
                opt = nn.Adam(p, np.zeros(2), lr=0.1)
            opt.step()
            assert np.array_equal(p, [1.0, -2.0]), form

    def test_first_step_magnitude(self):
        # constant gradient 1 at t=1 with zero moments: update = lr / (1 + eps')
        for form in KERNEL_FORMS:
            p = np.array([0.0])
            with kernel_form(form):
                opt = nn.Adam(p, np.array([1.0]), lr=0.008)
            opt.step()
            assert p[0] == pytest.approx(-0.008, rel=1e-6), form

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(33)
            p, g = np.array([0.5, -0.5]), np.empty(2)
            opt = nn.Adam(p, g, lr=0.01)
            for _ in range(50):
                g[:] = rng.normal(size=2)
                opt.step()
            return p

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.Adam(np.zeros(3), np.zeros(4), lr=0.001)

    def test_gradient_of_another_shape_refused(self):
        # the kernel reads p.size entries of g: one of p's size but another shape is refused too
        for shape in [(1, 3), (3, 1), ()]:
            with pytest.raises(ValueError, match=r"of shape \(3,\)"):
                nn.Adam(np.zeros(3), np.zeros(shape), lr=0.001)

    def test_params_is_a_read_only_view_of_p(self):
        p = np.zeros(3)
        opt = nn.Adam(p, np.zeros(3), lr=0.001)
        assert len(opt.params) == 1 and opt.params[0] is p
        with pytest.raises(AttributeError):
            opt.params = [np.zeros(3)]

    @pytest.mark.parametrize("bad", [np.zeros(6, np.float32), np.zeros(12)[::2], np.zeros(6)[::-1],
                                     np.frombuffer(bytearray(56), offset=1, count=6), np.frombuffer(bytes(48))],
                             ids=["float32", "strided", "reversed", "misaligned", "read-only"])
    def test_vectors_the_kernel_cannot_read_raise(self, bad):
        # both forms: the vectors are checked before the form is chosen
        with pytest.raises(ValueError):
            nn.Adam(bad, np.zeros(6), lr=0.01)
        with pytest.raises(ValueError):
            nn.Adam(np.zeros(6), bad, lr=0.01)

    @staticmethod
    def flat_and_reference(shapes, n_steps, lr, t0, seed, textbook, form="kernel"):
        """The flat step's parameters, on Adam form `form`, and reference_adam's, after the same random steps."""
        rng = np.random.default_rng(seed)
        ref = [rng.normal(size=s) for s in shapes]
        flat = np.concatenate([p.ravel() for p in ref])
        grad_steps = [
            [rng.normal(size=s) * 10.0 ** rng.uniform(-6, 3) for s in shapes] for _ in range(n_steps)
        ]
        reference_adam(ref, grad_steps, lr, 0.9, 0.999, 1e-8, t0=t0, textbook=textbook)

        g_flat = np.empty_like(flat)  # one reused vector, rewritten whole before each step
        with kernel_form(form):
            opt = nn.Adam(flat, g_flat, lr=lr)
        opt.t = t0
        for grads in grad_steps:
            np.concatenate([g.ravel() for g in grads], out=g_flat)
            opt.step()
        return flat, np.concatenate([p.ravel() for p in ref])

    adam_inputs = given(
        shapes=st.lists(
            st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple), min_size=1, max_size=4
        ),
        n_steps=st.integers(1, 8),
        lr=st.sampled_from([0.001, 0.008, 0.02, 0.3]),
        t0=st.sampled_from([0, 350]),
        seed=st.integers(0, 2**32 - 1),
    )

    @settings(max_examples=60, deadline=None)
    @adam_inputs
    # at beta1 = 0.9, 1 - beta1**t first rounds to 1.0 at t = 356; these steps
    # t = 351..358 cross that point
    @example(shapes=[(5, 3), (3,), (7,)], n_steps=8, lr=0.008, t0=350, seed=0)
    @example(shapes=[(4,), (2, 6)], n_steps=8, lr=0.3, t0=350, seed=1)
    def test_flat_step_matches_per_array_formula(self, shapes, n_steps, lr, t0, seed):
        for form in KERNEL_FORMS:
            flat, ref = self.flat_and_reference(shapes, n_steps, lr, t0, seed, textbook=False, form=form)
            assert np.array_equal(flat, ref), form

    @settings(max_examples=60, deadline=None)
    @adam_inputs
    def test_flat_step_matches_textbook_formula(self, shapes, n_steps, lr, t0, seed):
        # the efficient form is the textbook update m_hat / (sqrt(v_hat) + eps) in exact
        # arithmetic, so the two part only by rounding
        flat, ref = self.flat_and_reference(shapes, n_steps, lr, t0, seed, textbook=True)
        np.testing.assert_allclose(flat, ref, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("t0", [0, 350])
    def test_special_values_equal_across_forms(self, t0):
        # 1e154's square stays finite, 1e160's overflows; inf and nan make nan updates
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e154, 1e160, -1e200, np.inf, -np.inf, np.nan, 0.5])
        states = []
        for form in KERNEL_FORMS:
            with kernel_form(form):
                opt = nn.Adam(np.linspace(-1.0, 1.0, special.size), np.empty(special.size), lr=0.01)
            opt.t = t0
            with np.errstate(all="ignore"):
                for k in range(4):
                    np.multiply(special, (-1.0) ** k, out=opt.g)
                    opt.step()
            states.append([a.tobytes() for a in (opt.p, opt.m, opt.v)])
        assert states[0] == states[1]

    @pytest.mark.parametrize("architecture", train.ARCHITECTURES)
    def test_train_run_equal_across_forms(self, monkeypatch, architecture):
        made = []

        class Recording(nn.Adam):
            def __post_init__(self):
                super().__post_init__()
                made.append(self)

        monkeypatch.setattr(nn, "Adam", Recording)
        config = train.TrainConfig(M=8, batch_size=16, data_budget=16 * 40, tx_hidden=(12,), rx_hidden=(12,),
                                   architecture=architecture, init_seed=3, data_seed=4)
        runs = []
        for form in KERNEL_FORMS:
            with kernel_form(form):
                runs.append(train.train_run(config))
        assert runs[0].loss_curve == runs[1].loss_curve
        kernel, numpy_form = ([a.tobytes() for a in (opt.p, opt.m, opt.v)] for opt in made)
        assert kernel == numpy_form

    def test_kernel_loads(self):
        # the compiled loop must load wherever its compiler exists, so a host that
        # has one cannot pass the tests above on the numpy fallback alone
        if shutil.which(configured_cc()) is None:
            pytest.skip(f"the configured C compiler {configured_cc()!r} is not on PATH")
        assert nn.adam_kernel() is not None

    @pytest.mark.parametrize("break_it", ["compiler", "source", "syntax"])
    def test_failed_build_falls_back_once_and_leaves_no_files(
            self, fresh_loader, tmp_path, tmp_path_factory, monkeypatch, capsys, break_it):
        if break_it == "compiler":  # no kernel loads
            config_var = sysconfig.get_config_var
            monkeypatch.setattr(sysconfig, "get_config_var",
                                lambda name: "no-such-cc" if name == "CC" else config_var(name))
        else:  # "source": a library that builds and loads, but whose Adam adds eps_t under the
            # square root; "syntax": a source without a comma between two parameters, which no kernel builds
            if shutil.which(configured_cc()) is None:
                pytest.skip("no C compiler to build the broken kernel with")
            broken = tmp_path_factory.mktemp("source") / "kernels.c"
            edit = ("sqrt(v[i]) + eps_t", "sqrt(v[i] + eps_t)") if break_it == "source" else ("b1, double", "b1 double")
            broken.write_text(nn._KERNELS_C.read_text().replace(*edit))
            monkeypatch.setattr(nn, "_KERNELS_C", broken)
        builds = spy_builds(monkeypatch)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        for _ in range(2):  # cached: no second build, no second line
            assert nn.adam_kernel() is None
            assert (metrics.batch_error_kernel() is None) == (break_it != "source")
        assert len(builds) == 1
        g = np.array([1.0, 4.0])
        nn.Adam(np.array([0.5, -0.5]), g, lr=0.1).step()
        assert not np.array_equal(g, [1.0, 4.0])  # the numpy form uses the gradient as scratch
        raw = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        got = metrics.normalization_error(nn.Mlp([raw], [np.zeros(2)]), np.array([0, 3]), 1.0)
        assert got == norm_errors_vectorized(raw, np.array([[0, 3]]), 1.0)[0]
        adam_line, *batch_lines = capsys.readouterr().err.splitlines()
        prefix, suffix = "note: no compiled Adam kernel (", "); Adam runs as numpy ufuncs"
        assert adam_line.startswith(prefix) and adam_line.endswith(suffix)
        reason = adam_line[len(prefix):-len(suffix)]
        if break_it == "compiler":
            assert reason.startswith("no-such-cc: ")
        elif break_it == "source":
            assert reason == "its results differ from numpy's"
        else:  # the compiler's own error line, which names the file, line and column
            assert reason.startswith(f"{configured_cc()}: {nn._KERNELS_C}:9:") and ": error: " in reason
        if break_it == "source":
            assert batch_lines == []
        else:
            assert batch_lines == [f"note: no compiled batch-error kernel ({reason}); norm-error runs as numpy ufuncs"]
        assert list(tmp_path.iterdir()) == []


def spy_builds(monkeypatch) -> list:
    """The argument lists of every compiler run the kernel loader starts from now on."""
    builds, run = [], subprocess.run

    def spy(args, *rest, **kw):
        if "-shared" in args:
            builds.append(args)
        return run(args, *rest, **kw)

    monkeypatch.setattr(subprocess, "run", spy)
    return builds


class TestKernelLibrary:
    def test_one_build_serves_adam_and_norm_error(self, fresh_loader, tmp_path, monkeypatch):
        # a process that trains and then measures starts the compiler once
        if shutil.which(configured_cc()) is None:
            pytest.skip(f"the configured C compiler {configured_cc()!r} is not on PATH")
        builds = spy_builds(monkeypatch)
        nn.Adam(np.zeros(3), np.zeros(3), lr=0.1)
        cfg = tmp_path / "ne.json"
        cfg.write_text(json.dumps({"M_list": [4], "batch_sizes": [4], "n_inits": 1, "n_batches": 2, "tx_hidden": [4]}))
        assert cli.main(["norm-error", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(builds) == 1
        assert nn.adam_kernel() is not None and metrics.batch_error_kernel() is not None


class TestGradientCheck:
    def test_quadratic_is_exact(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])

        def f(x):
            return 0.5 * float(x @ A @ x), A @ x

        assert gradient_check(f, np.array([0.7, -1.2])) < 1e-9

    def test_wrong_gradient_detected(self):
        def f(x):
            return float(x @ x), x  # true gradient is 2x

        assert gradient_check(f, np.array([1.0, 2.0])) > 0.1

    def test_nonfinite_reported(self):
        def f(x):
            return float("nan"), x

        with pytest.raises(FloatingPointError):
            gradient_check(f, np.array([1.0]))
