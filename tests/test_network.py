import numpy as np
import pytest

from echodoa.errors import InputError, ShapeMismatchError
from echodoa.neural.adam import AdamHyper, AdamState, adam_step
from echodoa.neural.gradcheck import REDUCED_SPEC, grad_check
from echodoa.neural.network import (
    NetworkSpec,
    backward,
    forward,
    init_params,
)

SMALL = NetworkSpec(input_time=64, feature_maps=4, dense_widths=(8, 4))


def small_setup(seed=0, batch=3, dtype=np.float64):
    params = init_params(SMALL, seed, dtype=dtype)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(batch, SMALL.input_rows, SMALL.input_time))
    y = rng.uniform(-0.9, 0.9, batch)
    return params, x.astype(dtype), y.astype(dtype)


class TestNetworkSpec:
    def test_default_shape_algebra(self):
        spec = NetworkSpec()
        assert spec.flattened_size == 64 * 16 == 1024
        assert spec.pool_schedule() == [(2, 2), (2, 2), (1, 2), (1, 2),
                                        (1, 2)]

    def test_parameter_count_of_default(self):
        spec = NetworkSpec()
        shapes = spec.param_shapes()
        assert shapes["conv1_w"] == (4, 16, 1, 64)
        assert shapes["conv5_w"] == (4, 16, 64, 64)
        assert shapes["dense1_w"] == (1024, 128)
        assert shapes["output_w"] == (32, 1)

    def test_rejects_nondividing_time(self):
        with pytest.raises(ShapeMismatchError):
            NetworkSpec(input_time=100)

    def test_rejects_rows_not_reducing_to_one(self):
        with pytest.raises(ShapeMismatchError):
            NetworkSpec(input_rows=6)


class TestForward:
    def test_zero_weights_give_zero_output(self):
        params, x, _ = small_setup()
        zeros = {k: np.zeros_like(v) for k, v in params.items()}
        assert (forward(SMALL, zeros, x) == 0.0).all()

    def test_zero_input_zero_bias_gives_zero(self):
        params, _, _ = small_setup()
        x = np.zeros((2, SMALL.input_rows, SMALL.input_time))
        assert (forward(SMALL, params, x) == 0.0).all()

    def test_bit_identical_across_runs(self):
        params, x, _ = small_setup(dtype=np.float32)
        a = forward(SMALL, params, x.astype(np.float32))
        b = forward(SMALL, params, x.astype(np.float32))
        assert (a == b).all()

    def test_output_strictly_inside_unit_interval(self):
        params, x, _ = small_setup()
        huge = {k: v * 1e4 for k, v in params.items()}
        pred = forward(SMALL, huge, x * 1e3)
        assert (np.abs(pred) < 1.0).all()

    def test_shape_mismatch_raises(self):
        params, x, _ = small_setup()
        with pytest.raises(ShapeMismatchError):
            forward(SMALL, params, x[:, :, :32])
        with pytest.raises(ShapeMismatchError):
            forward(NetworkSpec(), params, x)


class TestBackward:
    def test_zero_residual_gives_zero_gradients(self):
        params, x, _ = small_setup()
        labels = forward(SMALL, params, x)
        loss, grads = backward(SMALL, params, x, labels)
        assert loss == 0.0
        for g in grads.values():
            assert (g == 0.0).all()

    def test_duplicate_batch_equals_single_record(self):
        # mean reduction: identical records leave gradients unchanged
        # (up to accumulation-order round-off)
        params, x, y = small_setup(batch=1)
        _, single = backward(SMALL, params, x, y)
        x2 = np.concatenate([x, x])
        y2 = np.concatenate([y, y])
        _, double = backward(SMALL, params, x2, y2)
        for name in single:
            np.testing.assert_allclose(single[name], double[name],
                                       rtol=1e-12, atol=1e-15)

    def test_loss_is_mean_squared_error(self):
        params, x, y = small_setup()
        pred = forward(SMALL, params, x)
        loss, _ = backward(SMALL, params, x, y)
        assert loss == pytest.approx(float(np.mean((pred - y) ** 2)),
                                     rel=1e-12)

    def test_rejects_out_of_range_labels(self):
        params, x, _ = small_setup()
        with pytest.raises(InputError):
            backward(SMALL, params, x, np.full(x.shape[0], 1.5))

    def test_gradient_shapes_mirror_parameters(self):
        params, x, y = small_setup()
        _, grads = backward(SMALL, params, x, y)
        assert set(grads) == set(params)
        for name in params:
            assert grads[name].shape == params[name].shape


class TestGradCheck:
    def test_reduced_spec_passes(self):
        for seed in (0, 1):
            report = grad_check(seed=seed)
            assert report.passed, report
            assert report.max_rel_error < 1e-4
            assert report.sampled >= 200

    def test_linear_case_is_numerically_exact(self):
        # oracle for the checker itself: a pure linear map has an exact
        # analytic gradient, so central differences at eps=1e-5 must
        # agree to ~1e-9
        rng = np.random.default_rng(0)
        w = rng.normal(size=8)
        x = rng.normal(size=(4, 8))
        y = rng.normal(size=4)

        def loss_of(wv):
            return float(np.mean((x @ wv - y) ** 2))

        analytic = 2.0 * x.T @ (x @ w - y) / 4.0
        eps = 1e-5
        for i in range(8):
            probe = w.copy()
            probe[i] += eps
            plus = loss_of(probe)
            probe[i] -= 2 * eps
            minus = loss_of(probe)
            fd = (plus - minus) / (2 * eps)
            assert abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i])) \
                < 1e-8

    def test_corrupted_gradient_detected(self):
        # negative control: doubling one layer's analytic gradient must
        # blow the finite-difference comparison well past tolerance
        params, x, y = small_setup()
        _, grads = backward(SMALL, params, x, y)
        grads["dense2_w"] = grads["dense2_w"] * 2.0
        eps = 1e-5
        flat = params["dense2_w"].ravel()
        ref = grads["dense2_w"].ravel()
        worst = 0.0
        for idx in np.random.default_rng(1).choice(flat.size, 20,
                                                   replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            plus, _ = backward(SMALL, params, x, y)
            flat[idx] = orig - eps
            minus, _ = backward(SMALL, params, x, y)
            flat[idx] = orig
            fd = (plus - minus) / (2 * eps)
            denom = max(abs(fd), abs(ref[idx]))
            if denom > 1e-8:
                worst = max(worst, abs(fd - ref[idx]) / denom)
        assert worst > 1e-2

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            grad_check(eps=1e-2)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = {"w": np.ones(4)}
        grads = {"w": np.zeros(4)}
        state = AdamState(params)
        adam_step(params, grads, AdamHyper(), state)
        assert (params["w"] == 1.0).all()
        assert (state.m["w"] == 0.0).all()
        assert (state.v["w"] == 0.0).all()
        assert state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes m_hat = g and v_hat = g^2 on step one,
        # so the update is lr * sign(g) up to eps
        params = {"w": np.zeros(1)}
        grads = {"w": np.full(1, 0.5)}
        state = AdamState(params)
        adam_step(params, grads, AdamHyper(learning_rate=1e-3), state)
        assert params["w"][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_second_identical_step_similar_size(self):
        params = {"w": np.zeros(1)}
        grads = {"w": np.full(1, 0.5)}
        state = AdamState(params)
        hyper = AdamHyper(learning_rate=1e-3)
        adam_step(params, grads, hyper, state)
        first = abs(params["w"][0])
        before = params["w"][0]
        adam_step(params, grads, hyper, state)
        second = abs(params["w"][0] - before)
        assert abs(second - first) < 0.1 * first
        assert state.step == 2

    def test_shape_mismatch_raises(self):
        params = {"w": np.zeros(3)}
        state = AdamState(params)
        with pytest.raises(ShapeMismatchError):
            adam_step(params, {"w": np.zeros(4)}, AdamHyper(), state)
        with pytest.raises(ShapeMismatchError):
            adam_step(params, {"v": np.zeros(3)}, AdamHyper(), state)

    def test_hyper_validation(self):
        with pytest.raises(InputError):
            AdamHyper(learning_rate=0.0)
        with pytest.raises(InputError):
            AdamHyper(beta2=1.0)


class TestConvolutionAgainstBruteForce:
    def test_matches_direct_convolution(self):
        # independent O(n^4) reference for the same-padded convolution
        from echodoa.neural.network import _conv_same, _same_pads
        rng = np.random.default_rng(2)
        kr, kt, c, f = 4, 16, 3, 5
        r_dim, b_dim, t_dim = 4, 2, 20
        x = rng.normal(size=(r_dim, b_dim, t_dim, c))
        w = rng.normal(size=(kr, kt, c, f))
        pad_r, pad_t = _same_pads(kr), _same_pads(kt)
        got, _ = _conv_same(x, w, pad_r, pad_t)
        want = np.zeros((r_dim, b_dim, t_dim, f))
        for r in range(r_dim):
            for b in range(b_dim):
                for t in range(t_dim):
                    for dr in range(kr):
                        for dt in range(kt):
                            ri = r + dr - pad_r[0]
                            ti = t + dt - pad_t[0]
                            if 0 <= ri < r_dim and 0 <= ti < t_dim:
                                want[r, b, t] += x[ri, b, ti] @ w[dr, dt]
        np.testing.assert_allclose(got, want, atol=1e-12)


def pool_reference(x, dy, pr, pt):
    """Loop-based max pooling: first maximum in row-major window order."""
    r_dim, b_dim, t_dim, c_dim = x.shape
    out = np.zeros((r_dim // pr, b_dim, t_dim // pt, c_dim), dtype=x.dtype)
    arg = np.zeros(out.shape, dtype=np.int8)
    dx = np.zeros(x.shape, dtype=x.dtype)
    for idx in np.ndindex(out.shape):
        r, b, t, c = idx
        best = None
        for i in range(pr):
            for j in range(pt):
                v = x[r * pr + i, b, t * pt + j, c]
                if best is None or v > best:
                    best, at = v, (i, j)
        out[idx] = best
        arg[idx] = at[0] * pt + at[1]
        dx[r * pr + at[0], b, t * pt + at[1], c] = dy[idx]
    return out, arg, dx


class TestPoolingAgainstBruteForce:
    @pytest.mark.parametrize("pr", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_indices_and_gradients_exact(self, pr, dtype):
        from echodoa.neural.network import _maxpool, _maxpool_grad
        rng = np.random.default_rng(pr)
        shape = (2 * pr, 3, 16, 5)
        # small integers give exact positive ties and all-zero windows;
        # a ReLU'd normal block adds distinct values
        x = rng.integers(0, 3, size=shape).astype(dtype)
        x[..., :2] = np.maximum(rng.normal(size=shape[:-1] + (2,)), 0.0)
        x[:, :, :4] = 0.0
        out_shape = (2, 3, 8, 5)
        dy = rng.normal(size=out_shape).astype(dtype)
        dy[0, 0, :3] = -0.0
        want_out, want_arg, want_dx = pool_reference(x, dy, pr, 2)
        assert (want_arg == 0).any() and (want_arg > 0).any()

        out, arg = _maxpool(x, pr, 2, keep=True)
        assert out.tobytes() == want_out.tobytes()
        assert arg.dtype == np.int8
        np.testing.assert_array_equal(arg, want_arg)
        dx = _maxpool_grad(dy, arg, x.shape, pr, 2)
        assert dx.dtype == dtype
        assert dx.tobytes() == want_dx.tobytes()

        out_infer, arg_infer = _maxpool(x, pr, 2, keep=False)
        assert arg_infer is None
        assert out_infer.tobytes() == want_out.tobytes()

    def test_ties_route_to_first_slot_in_row_major_order(self):
        from echodoa.neural.network import _maxpool, _maxpool_grad
        # one 2x2 window per case: slots (0,0) (0,1) (1,0) (1,1)
        cases = {(0, 0, 0, 0): 0, (1, 2, 2, 2): 1, (1, 1, 2, 2): 2,
                 (0, 1, 0, 1): 1, (0, 0, 1, 1): 2, (0, 0, 0, 3): 3}
        x = np.zeros((2, 1, 2 * len(cases), 1))
        for n, window in enumerate(cases):
            x[:, 0, 2 * n:2 * n + 2, 0] = np.reshape(window, (2, 2))
        _, arg = _maxpool(x, 2, 2, keep=True)
        assert arg[0, 0, :, 0].tolist() == list(cases.values())
        dx = _maxpool_grad(np.ones((1, 1, len(cases), 1)), arg, x.shape, 2, 2)
        assert dx.sum() == len(cases)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keep_does_not_change_predictions(self, dtype):
        from echodoa.neural.network import _forward_impl
        params, x, _ = small_setup(batch=5, dtype=dtype)
        kept, cache = _forward_impl(SMALL, params, x, keep=True)
        plain, none = _forward_impl(SMALL, params, x, keep=False)
        assert cache is not None and none is None
        assert kept.tobytes() == plain.tobytes()
