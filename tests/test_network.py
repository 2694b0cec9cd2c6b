import math
import sys

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
        # the values benchmarks/layers.py reads to count backward FLOPs
        for spec, flattened in ((NetworkSpec(), 64 * 16),
                                (REDUCED_SPEC, 4 * 2)):
            assert (spec.input_rows, spec.conv_stages) == (4, 5)
            assert (spec.kernel_rows, spec.kernel_time) == (4, 16)
            assert spec.pool_schedule() == [(2, 2), (2, 2), (1, 2), (1, 2),
                                            (1, 2)]
            assert spec.flattened_size == flattened

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
        # the row count, like the rest of the layout, is no setting
        for key in ("input_rows", "conv_stages", "kernel_rows",
                    "kernel_time"):
            with pytest.raises(TypeError):
                NetworkSpec(**{key: 6})


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

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_tolerance_not_positive_and_finite(self, tolerance):
        with pytest.raises(InputError, match="tolerance"):
            grad_check(tolerance=tolerance)


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

    def test_mismatch_leaves_everything_untouched(self):
        # the bad gradient comes last, after one the step could apply
        params = {"a": np.zeros(3), "b": np.zeros(2)}
        state = AdamState(params)
        grads = {"a": np.full(3, 0.5), "b": np.zeros(5)}
        with pytest.raises(ShapeMismatchError):
            adam_step(params, grads, AdamHyper(), state)
        assert state.step == 0
        for name in params:
            assert (params[name] == 0.0).all()
            assert (state.m[name] == 0.0).all()
            assert (state.v[name] == 0.0).all()

    def test_hyper_validation(self):
        with pytest.raises(InputError):
            AdamHyper(learning_rate=0.0)


def direct_conv(x, w, pad_r, pad_t):
    """Same-padded convolution from its definition, summed tap by tap."""
    kr, kt, _, f_out = w.shape
    r_dim, b_dim, t_dim, _ = x.shape
    y = np.zeros((r_dim, b_dim, t_dim, f_out))
    for r, dr, dt in np.ndindex(r_dim, kr, kt):
        ri, shift = r + dr - pad_r[0], dt - pad_t[0]
        t_lo, t_hi = max(0, -shift), min(t_dim, t_dim - shift)
        if 0 <= ri < r_dim and t_lo < t_hi:
            y[r, :, t_lo:t_hi] += (x[ri, :, t_lo + shift:t_hi + shift]
                                   @ w[dr, dt])
    return y


def direct_input_grad(dy, w, pad_r, pad_t):
    """Adjoint of ``direct_conv``: each tap's term sent back to its input."""
    kr, kt, c_in, _ = w.shape
    r_dim, b_dim, t_dim, _ = dy.shape
    dx = np.zeros((r_dim, b_dim, t_dim, c_in))
    for r, dr, dt in np.ndindex(r_dim, kr, kt):
        ri, shift = r + dr - pad_r[0], dt - pad_t[0]
        t_lo, t_hi = max(0, -shift), min(t_dim, t_dim - shift)
        if 0 <= ri < r_dim and t_lo < t_hi:
            dx[ri, :, t_lo + shift:t_hi + shift] += (dy[r, :, t_lo:t_hi]
                                                     @ w[dr, dt].T)
    return dx


class TestConvolutionAgainstBruteForce:
    def test_matches_direct_convolution(self):
        from echodoa.neural.network import _conv_folded, _same_pads
        x, w, _ = conv_case((4, 2, 20, 3), 5, seed=2)
        pad_r, pad_t = _same_pads(4), _same_pads(16)
        got = _conv_folded(x, w, pad_r, pad_t)
        np.testing.assert_allclose(got, direct_conv(x, w, pad_r, pad_t),
                                   atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("rows, time, maps", [(2, 256, 64), (1, 32, 8)])
    def test_folded_input_gradient_matches_direct_adjoint(self, rows, time,
                                                          maps, batch):
        # the default stage-2 shape and a narrow one-row stage
        from echodoa.neural.network import _folded_input_grad, _same_pads
        x, w, dy = conv_case((rows, batch, time, maps), maps, seed=batch)
        pad_r, pad_t = _same_pads(4), _same_pads(16)
        dx = _folded_input_grad(dy, w, pad_r, pad_t)
        assert dx.dtype == np.float64
        assert rel_error(dx, direct_input_grad(dy, w, pad_r, pad_t)) <= 1e-12


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


# --- lean training pass against the unshared reference -------------------

MID = NetworkSpec(input_time=128, feature_maps=8, dense_widths=(16, 8))


def reference_conv(x, w, pad_r, pad_t):
    """im2col convolution: one GEMM per kernel row offset, summed.

    Each call builds a fresh (R, B, T, kt * C) column buffer, which it
    returns with the output.
    """
    from numpy.lib.stride_tricks import sliding_window_view
    kr, kt, c_in, f_out = w.shape
    r_dim, b_dim, t_dim, _ = x.shape
    xpt = np.pad(x, ((0, 0), (0, 0), pad_t, (0, 0)))
    cols = np.ascontiguousarray(
        sliding_window_view(xpt, kt, axis=2).transpose(0, 1, 2, 4, 3))
    cols = cols.reshape(r_dim, b_dim, t_dim, kt * c_in)
    wm = w.reshape(kr, kt * c_in, f_out)
    y = np.zeros((r_dim, b_dim, t_dim, f_out), dtype=x.dtype)
    for dr in range(kr):
        r_lo = max(0, pad_r[0] - dr)
        r_hi = min(r_dim, r_dim + pad_r[0] - dr)
        if r_lo >= r_hi:
            continue
        i_lo = r_lo + dr - pad_r[0]
        rows = r_hi - r_lo
        xs = cols[i_lo:i_lo + rows].reshape(rows * b_dim * t_dim, kt * c_in)
        y[r_lo:r_hi] += (xs @ wm[dr]).reshape(rows, b_dim, t_dim, f_out)
    return y, cols


def flipped(w, pad_r, pad_t):
    """Kernel and pads whose convolution of dy gives the input gradient.

    The kernel is flipped in space with its channel axes swapped, and
    the padding is mirrored.
    """
    wflip = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
    return wflip, (pad_r[1], pad_r[0]), (pad_t[1], pad_t[0])


def reference_conv_grads(dy, w, cols, pad_r, pad_t, need_dx):
    """(dw, db, dx) of ``reference_conv``; ``cols`` is its column buffer."""
    kr, kt, c_in, f_out = w.shape
    r_dim, b_dim, t_dim, _ = dy.shape
    dwm = np.zeros((kr, kt * c_in, f_out), dtype=dy.dtype)
    for dr in range(kr):
        r_lo = max(0, pad_r[0] - dr)
        r_hi = min(r_dim, r_dim + pad_r[0] - dr)
        if r_lo >= r_hi:
            continue
        i_lo = r_lo + dr - pad_r[0]
        n = (r_hi - r_lo) * b_dim * t_dim
        dwm[dr] = (cols[i_lo:i_lo + r_hi - r_lo].reshape(n, kt * c_in).T
                   @ dy[r_lo:r_hi].reshape(n, f_out))
    dx = reference_conv(dy, *flipped(w, pad_r, pad_t))[0] if need_dx else None
    return dwm.reshape(w.shape), dy.sum(axis=(0, 1, 2)), dx


def row_folded_conv(x, w, pad_r, pad_t):
    """One GEMM per output row over the band of input rows it reads.

    The column buffer, returned with the output, is (B * T, R * kt * C):
    every input row's time windows side by side.
    """
    from numpy.lib.stride_tricks import sliding_window_view
    kr, kt, c_in, f_out = w.shape
    r_dim, b_dim, t_dim, _ = x.shape
    k = kt * c_in
    xpt = np.pad(x, ((0, 0), (0, 0), pad_t, (0, 0)))
    cols = np.ascontiguousarray(
        sliding_window_view(xpt, kt, axis=2).transpose(1, 2, 0, 4, 3))
    cols = cols.reshape(b_dim * t_dim, r_dim * k)
    y = np.empty((r_dim, b_dim, t_dim, f_out), dtype=x.dtype)
    for r in range(r_dim):
        lo, hi = max(0, r - pad_r[0]), min(r_dim, r - pad_r[0] + kr)
        d_lo = lo - r + pad_r[0]
        band = w[d_lo:d_lo + hi - lo].reshape(-1, f_out)
        y[r] = (cols[:, lo * k:hi * k] @ band).reshape(b_dim, t_dim, f_out)
    return y, cols


def row_folded_grads(dy, w, cols, pad_r, pad_t, need_dx):
    """(dw, db, dx) of ``row_folded_conv``, dw summed output row by row."""
    kr, kt, c_in, f_out = w.shape
    r_dim, b_dim, t_dim, _ = dy.shape
    k = kt * c_in
    dw = np.zeros((kr * k, f_out), dtype=dy.dtype)
    for r in range(r_dim):
        lo, hi = max(0, r - pad_r[0]), min(r_dim, r - pad_r[0] + kr)
        d_lo = lo - r + pad_r[0]
        dw[d_lo * k:(d_lo + hi - lo) * k] += (
            cols[:, lo * k:hi * k].T @ dy[r].reshape(b_dim * t_dim, f_out))
    dx = (row_folded_conv(dy, *flipped(w, pad_r, pad_t))[0] if need_dx
          else None)
    return dw.reshape(w.shape), dy.sum(axis=(0, 1, 2)), dx


def reference_backward(spec, params, x, labels, folded=False):
    """Loss, gradients and predictions with every buffer kept.

    Keeps each stage's full ReLU output and masks the routed gradient
    with it. Every stage runs ``reference_conv``, or with ``folded``
    ``row_folded_conv``, whose first stage then runs on chunks of 2
    records: a GEMM over fewer rows may sum in another order, and the
    chunks' weight and bias gradients are summed.
    """
    from echodoa.neural.network import _maxpool, _maxpool_grad, _same_pads
    conv_fn, grads_fn = ((row_folded_conv, row_folded_grads) if folded
                         else (reference_conv, reference_conv_grads))
    dtype = params["conv1_w"].dtype
    act = np.ascontiguousarray(
        x.astype(dtype, copy=False).transpose(1, 0, 2))[..., None]
    pad_r, pad_t = _same_pads(spec.kernel_rows), _same_pads(spec.kernel_time)
    schedule = spec.pool_schedule()
    stages = []
    for s, (pr, pt) in enumerate(schedule, start=1):
        w = params[f"conv{s}_w"]
        if folded and s == 1:
            chunks = [conv_fn(act[:, lo:lo + 2], w, pad_r, pad_t)
                      for lo in range(0, x.shape[0], 2)]
            conv = np.concatenate([y for y, _ in chunks], axis=1)
            cols = [c for _, c in chunks]
        else:
            conv, cols = conv_fn(act, w, pad_r, pad_t)
        relu = np.maximum(conv + params[f"conv{s}_b"], 0.0)
        act, arg = _maxpool(relu, pr, pt, keep=True)
        stages.append((cols, relu, arg))
    flat = act[0].reshape(act.shape[1], -1)
    a1 = np.maximum(flat @ params["dense1_w"] + params["dense1_b"], 0.0)
    a2 = np.maximum(a1 @ params["dense2_w"] + params["dense2_b"], 0.0)
    z3 = a2 @ params["output_w"] + params["output_b"]
    bound = np.nextafter(dtype.type(1.0), dtype.type(0.0))
    pred = np.clip(np.tanh(z3[:, 0]), -bound, bound)

    labels = labels.astype(dtype, copy=False)
    residual = pred - labels
    loss = float(np.mean(residual ** 2))
    grads = {}
    dz3 = ((2.0 / x.shape[0]) * residual
           * (1.0 - pred ** 2))[:, None].astype(dtype)
    grads["output_w"] = a2.T @ dz3
    grads["output_b"] = dz3.sum(axis=0)
    dz2 = (dz3 @ params["output_w"].T) * (a2 > 0)
    grads["dense2_w"] = a1.T @ dz2
    grads["dense2_b"] = dz2.sum(axis=0)
    dz1 = (dz2 @ params["dense2_w"].T) * (a1 > 0)
    grads["dense1_w"] = flat.T @ dz1
    grads["dense1_b"] = dz1.sum(axis=0)
    dact = (dz1 @ params["dense1_w"].T).reshape(act.shape)
    for s in range(spec.conv_stages, 0, -1):
        cols, relu, arg = stages[s - 1]
        pr, pt = schedule[s - 1]
        dconv = _maxpool_grad(dact, arg, relu.shape, pr, pt)
        dconv *= relu > 0
        w = params[f"conv{s}_w"]
        if folded and s == 1:
            dw, db = np.zeros(w.shape, dtype), np.zeros(w.shape[3], dtype)
            for n, part in enumerate(cols):
                part_dw, part_db, _ = grads_fn(
                    np.ascontiguousarray(dconv[:, 2 * n:2 * n + 2]), w, part,
                    pad_r, pad_t, False)
                dw += part_dw
                db += part_db
        else:
            dw, db, dact = grads_fn(dconv, w, cols, pad_r, pad_t, s > 1)
        grads[f"conv{s}_w"], grads[f"conv{s}_b"] = dw, db
    return loss, grads, pred


def crafted_batch(spec, params, batch, seed):
    """Inputs with exact pooling ties, all-zero windows and zero residuals.

    A zero stretch of input meets positive conv biases, so every stage
    has windows of equal positive outputs; negative biases on some maps
    give all-zero windows; labels equal to the prediction on every third
    record give zero (and sign-carrying zero) upstream gradients.
    """
    rng = np.random.default_rng(seed)
    dtype = params["conv1_w"].dtype
    params = dict(params)
    for s in range(1, spec.conv_stages + 1):
        b = np.full(spec.feature_maps, 0.05, dtype=dtype)
        b[::3] = -0.5
        params[f"conv{s}_b"] = b
    x = rng.normal(size=(batch, spec.input_rows, spec.input_time))
    x[:, :, : spec.input_time // 2] = 0.0
    x = x.astype(dtype)
    labels = rng.uniform(-0.9, 0.9, batch).astype(dtype)
    labels[::3] = forward(spec, params, x)[::3]
    return params, x, labels


def assert_same_bytes(got, want):
    loss, grads = got
    want_loss, want_grads, _ = want
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert set(grads) == set(want_grads)
    for name in want_grads:
        assert grads[name].dtype == want_grads[name].dtype, name
        assert grads[name].tobytes() == want_grads[name].tobytes(), name


class TestLeanBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_reference_across_interleaved_batches(self, dtype):
        params = init_params(MID, 4, dtype=dtype)
        crafted = init_params(MID, 5, dtype=dtype)
        for batch in (1, 8, 51, 8, 1, 51, 64):
            rng = np.random.default_rng(batch)
            x = rng.normal(size=(batch, 4, MID.input_time)).astype(dtype)
            y = rng.uniform(-0.9, 0.9, batch).astype(dtype)
            want = reference_backward(MID, params, x, y, folded=True)
            assert_same_bytes(backward(MID, params, x, y), want)
            p, x, y = crafted_batch(MID, crafted, batch, seed=batch)
            assert_same_bytes(backward(MID, p, x, y),
                              reference_backward(MID, p, x, y, folded=True))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_before_routing_equals_mask_after(self, dtype):
        # the identity backward relies on: for a ReLU output, masking the
        # pooled gradient by (pooled > 0) before routing gives the bytes of
        # masking the routed gradient by (relu > 0)
        from echodoa.neural.network import _maxpool, _maxpool_grad
        rng = np.random.default_rng(7)
        for pr in (1, 2):
            shape = (2 * pr, 3, 16, 5)
            relu = np.maximum(rng.integers(-2, 3, size=shape), 0).astype(dtype)
            relu[:, :, :4] = 0.0
            pooled, arg = _maxpool(relu, pr, 2, keep=True)
            assert (pooled == 0).any() and (pooled > 0).any()
            dy = rng.normal(size=pooled.shape).astype(dtype)
            dy[..., 0] = -0.0
            dy[..., 1] = 0.0
            after = _maxpool_grad(dy, arg, shape, pr, 2)
            after *= relu > 0
            before = _maxpool_grad(dy * (pooled > 0), arg, shape, pr, 2)
            assert before.tobytes() == after.tobytes()
            assert np.signbit(after).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inference_forward_unchanged(self, dtype):
        for spec, batch in ((MID, 51), (NetworkSpec(), 3)):
            params = init_params(spec, 6, dtype=dtype)
            x = np.random.default_rng(batch).normal(
                size=(batch, 4, spec.input_time)).astype(dtype)
            _, _, want = reference_backward(
                spec, params, x, np.zeros(batch, dtype), folded=True)
            assert forward(spec, params, x).tobytes() == want.tobytes()

    def test_training_step_peak_memory_near_the_column_buffers(self):
        # bounded by the columns of every stage summed, though a training
        # step caches no column buffer: each folded stage caches its input
        # and rebuilds its columns in the reverse pass, one stage's at a
        # time. Traced peak on CPython 3.11: 26.4 MB against a bound of
        # 32.8 MB (27.9 MB when each later stage cached its columns)
        import tracemalloc
        spec, batch = NetworkSpec(), 8
        params = init_params(spec, 0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch, 4, spec.input_time)).astype(np.float32)
        y = rng.uniform(-0.9, 0.9, batch).astype(np.float32)
        rows, time, c_in, col_bytes = spec.input_rows, spec.input_time, 1, 0
        for pr, pt in spec.pool_schedule():
            col_bytes += rows * batch * time * spec.kernel_time * c_in * 4
            rows, time, c_in = rows // pr, time // pt, spec.feature_maps
        backward(spec, params, x, y)                 # warm up
        tracemalloc.start()
        try:
            got = backward(spec, params, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * col_bytes, (peak, col_bytes)
        assert_same_bytes(got, reference_backward(spec, params, x, y,
                                                  folded=True))


# --- spectral convolution against the im2col reference --------------------

def conv_case(shape, f_out, seed, dtype=np.float64):
    """Input, kernel and output gradient of a (R, B, T, C) convolution."""
    rng = np.random.default_rng(seed)
    r_dim, b_dim, t_dim, c_in = shape
    x = rng.normal(size=shape)
    w = rng.normal(size=(4, 16, c_in, f_out))
    dy = rng.normal(size=(r_dim, b_dim, t_dim, f_out))
    return tuple(a.astype(dtype) for a in (x, w, dy))


def both_forms(x, w, dy):
    """(forward, dw, db, dx) of the im2col reference, then spectral form."""
    from echodoa.neural.network import (
        _conv_spectral, _conv_spectral_grads, _same_pads)
    pad_r, pad_t = _same_pads(w.shape[0]), _same_pads(w.shape[1])
    y, cols = reference_conv(x, w, pad_r, pad_t)
    im2col = (y, *reference_conv_grads(dy, w, cols, pad_r, pad_t,
                                         need_dx=True))
    y, xf = _conv_spectral(x, w, pad_r, pad_t)
    spectral = (y, *_conv_spectral_grads(dy, w, xf, pad_r, pad_t))
    return im2col, spectral


def rel_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# (R, B, T, C), F: the default spec's stage 2 and 3 shapes at small batch,
# odd time lengths, one row, more rows than kernel rows, and one input map
SPECTRAL_CASES = [((2, 3, 256, 64), 64), ((1, 4, 128, 64), 64),
                  ((2, 2, 20, 3), 3), ((1, 5, 33, 4), 4),
                  ((5, 2, 17, 2), 2), ((4, 2, 64, 1), 5)]


class TestSpectralConvolution:
    @pytest.mark.parametrize("shape, f_out", SPECTRAL_CASES)
    def test_float64_agrees_with_im2col(self, shape, f_out):
        im2col, spectral = both_forms(*conv_case(shape, f_out, seed=3))
        for name, want, got in zip(("y", "dw", "db", "dx"), im2col, spectral):
            assert got.dtype == np.float64 and got.shape == want.shape, name
            assert rel_error(got, want) < 1e-12, name

    @pytest.mark.parametrize("shape", [(2, 8, 256, 64), (2, 16, 256, 64),
                                       (1, 32, 128, 64), (2, 4, 64, 32)])
    def test_float32_closer_to_float64_than_im2col(self, shape):
        # measured 0.25-0.62 of im2col's error over these shapes and seeds
        # 4-6; evaluating the weight-gradient lags in single precision
        # reads 0.84-1.27 at the stage-2 shapes
        x, w, dy = conv_case(shape, shape[3], seed=4)
        truth, _ = both_forms(x, w, dy)
        low = [a.astype(np.float32) for a in (x, w, dy)]
        im2col, spectral = both_forms(*low)
        for name, want, a, b in zip(("y", "dw", "db", "dx"), truth, im2col,
                                    spectral):
            assert a.dtype == b.dtype == np.float32, name
            if name == "db":
                assert a.tobytes() == b.tobytes()
            else:
                assert rel_error(b, want) <= 0.75 * rel_error(a, want), name

    def test_matches_direct_convolution(self):
        from echodoa.neural.network import _conv_spectral, _same_pads
        x, w, _ = conv_case((4, 2, 20, 3), 5, seed=2)
        pad_r, pad_t = _same_pads(4), _same_pads(16)
        got, _ = _conv_spectral(x, w, pad_r, pad_t)
        np.testing.assert_allclose(got, direct_conv(x, w, pad_r, pad_t),
                                   atol=1e-12)

    def test_grad_check_on_the_spectral_path(self, monkeypatch):
        from echodoa.neural import network
        monkeypatch.setattr(network, "_conv_form",
                            lambda *shapes: "spectral")
        params = init_params(REDUCED_SPEC, 0, dtype=np.float64)
        assert stage_paths(REDUCED_SPEC, params, 3) == ["spectral"] * 5
        report = grad_check(REDUCED_SPEC, seed=0)
        assert report.passed and report.max_rel_error < 1e-4, report


def stage_paths(spec, params, batch):
    """Which convolution form each stage of a training pass takes."""
    from echodoa.neural.network import _forward_impl
    x = np.zeros((batch, spec.input_rows, spec.input_time), np.float32)
    _, cache = _forward_impl(spec, params, x, keep=True)
    return [stage["form"] for stage in cache["stages"]]


class TestConvolutionDispatch:
    def test_paths_per_stage_and_batch(self):
        spec = NetworkSpec()
        params = init_params(spec, 0)
        for batch in (1, 15):
            assert stage_paths(spec, params, batch) == ["folded"] * 5
        assert stage_paths(spec, params, 16) == [
            "folded", "spectral", "folded", "folded", "folded"]
        for batch in (32, 64):
            assert stage_paths(spec, params, batch) == [
                "folded"] + ["spectral"] * 4
        for spec in (MID, REDUCED_SPEC, NetworkSpec(
                input_time=256, feature_maps=8, dense_widths=(16, 8))):
            assert stage_paths(spec, init_params(spec, 0), 64) == [
                "folded"] * 5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_small_default_batches_keep_im2col_bytes(self, dtype):
        # named for the im2col form these batches once ran; they now run
        # row-folded and keep the bytes of the row-folded reference
        spec = NetworkSpec()
        params = init_params(spec, 8, dtype=dtype)
        for batch in (1, 3, 8, 15):
            rng = np.random.default_rng(batch)
            x = rng.normal(size=(batch, 4, spec.input_time)).astype(dtype)
            y = rng.uniform(-0.9, 0.9, batch).astype(dtype)
            assert_same_bytes(backward(spec, params, x, y),
                              reference_backward(spec, params, x, y,
                                                 folded=True))

    def test_repeated_backward_is_bit_identical(self):
        spec, batch = NetworkSpec(), 64
        params = init_params(spec, 9)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(batch, 4, spec.input_time)).astype(np.float32)
        y = rng.uniform(-0.9, 0.9, batch).astype(np.float32)
        first = backward(spec, params, x, y)
        backward(spec, params, x[:8], y[:8])       # all stages folded between
        second = backward(spec, params, x, y)
        assert_same_bytes(second, (*first, None))

    def test_batch_64_peak_memory_well_below_the_column_buffers(self):
        # a batch-64 step's column buffers would take 201 MB. Traced peak
        # on CPython 3.11: 38.4 MB, about three full-size stage-2 arrays
        # at once. It read 49.0 MB with a whole-batch zero-padded copy
        # for each rfft and the pooled gradient, routed gradient and
        # input spectrum alive longer, and 74.5 MB with the first stage
        # on the whole batch. Before 3.11 the caller's stack holds
        # call arguments until the call returns, so the routed gradient
        # and the input spectrum stay through the input gradient: 56.3
        # MB, measured with the references held. Each bound is about 15%
        # above its reading.
        spec, batch = NetworkSpec(), 64
        params = init_params(spec, 0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch, 4, spec.input_time)).astype(np.float32)
        y = rng.uniform(-0.9, 0.9, batch).astype(np.float32)
        peak = traced_peak(lambda: backward(spec, params, x, y))
        limit = 44.0e6 if sys.version_info >= (3, 11) else 64.5e6
        assert peak <= limit, peak

    def test_batch_64_forward_peak_memory(self):
        # traced peak on CPython 3.11: 28.5 MB, the stage-2 input and
        # output spectra with one row band's product and tap spectrum,
        # then with the irfft result. It read 36.9 MB while the stage
        # input lived through the stage, and 50.9 MB with the first stage
        # on the whole batch. Before 3.11 the caller's stack holds the
        # stage input: 36.9 MB, measured with the reference held. Each
        # bound is about 15% above its reading.
        spec, batch = NetworkSpec(), 64
        params = init_params(spec, 0)
        x = np.random.default_rng(0).normal(
            size=(batch, 4, spec.input_time)).astype(np.float32)
        peak = traced_peak(lambda: forward(spec, params, x))
        limit = 33.0e6 if sys.version_info >= (3, 11) else 42.5e6
        assert peak <= limit, peak

    def test_batch_15_peak_memory_without_cached_columns(self):
        # every stage of a batch-15 step is folded. Traced peak on
        # CPython 3.11: 44.0 MB, while stage 2 rebuilds its 31.5 MB of
        # columns in the reverse pass; it read 49.8 MB when each later
        # folded stage cached its forward columns (45.2 MB of them), so
        # this bound sits between the two. Before 3.11 the caller's stack
        # holds call arguments until the call returns, so the stage input
        # and the pooled gradient stay through the input gradient: 46.0
        # MB, measured with the references held (73.9 MB with cached
        # columns); that bound is about 15% above its reading
        spec, batch = NetworkSpec(), 15
        params = init_params(spec, 0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch, 4, spec.input_time)).astype(np.float32)
        y = rng.uniform(-0.9, 0.9, batch).astype(np.float32)
        assert stage_paths(spec, params, batch) == ["folded"] * 5
        peak = traced_peak(lambda: backward(spec, params, x, y))
        limit = 47.0e6 if sys.version_info >= (3, 11) else 53.0e6
        assert peak <= limit, peak


def traced_peak(run):
    """tracemalloc peak in bytes of one ``run()`` after a warm-up call."""
    import tracemalloc
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- the first stage in chunks of records ---------------------------------

def whole_batch_forward(spec, params, x, taps=None):
    """Predictions with each stage run over the whole batch at once.

    Every stage takes the form ``_conv_form`` names, the blocked one on
    ``taps`` (stages 2-5), then adds the bias, applies ReLU and pools
    its full-resolution output.
    """
    from echodoa.neural.network import (
        _conv_blocked, _conv_folded, _conv_form, _conv_spectral, _maxpool,
        _same_pads)
    dtype = params["conv1_w"].dtype
    act = np.ascontiguousarray(
        x.astype(dtype, copy=False).transpose(1, 0, 2))[..., None]
    pad_r, pad_t = _same_pads(spec.kernel_rows), _same_pads(spec.kernel_time)
    for s, (pr, pt) in enumerate(spec.pool_schedule(), start=1):
        w = params[f"conv{s}_w"]
        form = _conv_form(act.shape, w.shape, taps is not None)
        if form == "blocked":
            conv = _conv_blocked(act, w, taps[s - 2], pad_r, pad_t)
        elif form == "spectral":
            conv, _ = _conv_spectral(act, w, pad_r, pad_t)
        else:
            conv = _conv_folded(act, w, pad_r, pad_t)
        conv += params[f"conv{s}_b"]
        np.maximum(conv, 0.0, out=conv)
        act, _ = _maxpool(conv, pr, pt, keep=False)
    flat = act[0].reshape(act.shape[1], -1)
    a1 = np.maximum(flat @ params["dense1_w"] + params["dense1_b"], 0.0)
    a2 = np.maximum(a1 @ params["dense2_w"] + params["dense2_b"], 0.0)
    z3 = a2 @ params["output_w"] + params["output_b"]
    bound = np.nextafter(dtype.type(1.0), dtype.type(0.0))
    return np.clip(np.tanh(z3[:, 0]), -bound, bound)


def random_batch(spec, batch, dtype):
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, spec.input_rows, spec.input_time))
    return x.astype(dtype), rng.uniform(-0.9, 0.9, batch).astype(dtype)


class TestChunkedFirstStage:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bytes_equal_whole_batch_order(self, dtype):
        # the odd batches end on a one-record chunk
        from echodoa.neural.network import _forward_impl
        spec = NetworkSpec()
        params = init_params(spec, 10, dtype=dtype)
        for batch in (1, 3, 15, 16, 17, 28, 51, 64):
            x, _ = random_batch(spec, batch, dtype)
            want = whole_batch_forward(spec, params, x).tobytes()
            assert forward(spec, params, x).tobytes() == want, batch
            trained, _ = _forward_impl(spec, params, x, keep=True)
            assert trained.tobytes() == want, batch

    def test_predict_doa_bytes_equal_whole_batch_order(self):
        # stages 2-5 run blocked on the checkpoint's own tap spectra
        from echodoa.neural import (
            ANGLE_SCALE_DEG, Checkpoint, baseband_to_input, predict_doa)
        spec = NetworkSpec()
        checkpoint = Checkpoint(
            spec=spec, params=init_params(spec, 11, dtype=np.float64))
        for rec in echo_records().records:
            rows = baseband_to_input(rec.baseband, spec)
            pred = whole_batch_forward(spec, checkpoint.params32, rows[None],
                                       checkpoint.tap_spectra)
            want = float(pred[0]) * ANGLE_SCALE_DEG
            got = predict_doa(checkpoint, rec.baseband).angle_deg
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("dtype, batches, bound", [
        (np.float32, (16, 17, 33), 1e-5), (np.float64, (16, 17), 1e-12)])
    def test_chunked_backward_is_float_reordering(self, dtype, batches,
                                                  bound):
        # measured at most 4.2e-6 (float32) and 7.3e-15 (float64) of each
        # gradient's largest value, at batches 16-64
        spec = NetworkSpec()
        params = init_params(spec, 3, dtype=dtype)
        for batch in batches:
            assert stage_paths(spec, params, batch)[0] == "folded"
            x, y = random_batch(spec, batch, dtype)
            loss, grads = backward(spec, params, x, y)
            want_loss, want, _ = reference_backward(spec, params, x, y)
            assert abs(loss - want_loss) <= bound * want_loss, batch
            for name in want:
                assert grads[name].dtype == want[name].dtype, name
                assert rel_error(grads[name], want[name]) < bound, (
                    batch, name)


# --- spectral stages against the whole-batch order -------------------------

def whole_batch_spectral(x, w, dy):
    """(forward, dw, db, dx) of a spectral stage, each transform at once.

    One ``rfft`` of the whole batch, zero-padded to ``n``, per array,
    and each row band's cross product widened to complex128 whole for
    its lag transform: the order ``_conv_spectral`` and
    ``_conv_spectral_grads`` must reproduce byte for byte.
    """
    import scipy.fft
    from echodoa.neural.network import (
        _phases, _row_bands, _same_pads, _spectral_size, _tap_spectrum)
    kr, kt, c_in, f_out = w.shape
    r_dim, b_dim, t_dim, _ = x.shape
    pad_r, pad_t = _same_pads(kr), _same_pads(kt)
    n = _spectral_size(t_dim, kt)

    def apply(xf, w, pad_r, pad_t):
        c, f = w.shape[2:]
        nf = xf.shape[2]
        yf = np.empty((r_dim, b_dim, nf, f), dtype=xf.dtype)
        xv = xf.reshape(r_dim * b_dim, nf, c).transpose(1, 0, 2)
        yv = yf.reshape(r_dim * b_dim, nf, f).transpose(1, 0, 2)
        np.matmul(xv, _tap_spectrum(w[pad_r[0]], n, xf.dtype), out=yv)
        for dr, r_lo, r_hi, i_lo in _row_bands(kr, r_dim, pad_r):
            if dr != pad_r[0]:
                yv[:, r_lo * b_dim:r_hi * b_dim] += (
                    xv[:, i_lo * b_dim:(i_lo + r_hi - r_lo) * b_dim]
                    @ _tap_spectrum(w[dr], n, xf.dtype))
        lo = kt - 1 - pad_t[0]
        return scipy.fft.irfft(yf, n=n, axis=2)[:, :, lo:lo + t_dim]

    xf = scipy.fft.rfft(x, n=n, axis=2)
    y = apply(xf, w, pad_r, pad_t)
    nf = xf.shape[2]
    dyf = scipy.fft.rfft(dy, n=n, axis=2)
    k = np.arange(nf)
    weight = np.where((k == 0) | (2 * k == n), 1.0, 2.0) / n
    lags = (_phases(n, pad_t[0] - np.arange(kt)) * weight[:, None]).T
    xv = xf.reshape(r_dim * b_dim, nf, c_in).transpose(1, 2, 0)
    gv = np.conjugate(dyf).reshape(r_dim * b_dim, nf, f_out).transpose(
        1, 0, 2)
    dw = np.zeros(w.shape, dtype=x.dtype)
    for dr, r_lo, r_hi, i_lo in _row_bands(kr, r_dim, pad_r):
        cross = (xv[:, :, i_lo * b_dim:(i_lo + r_hi - r_lo) * b_dim]
                 @ gv[:, r_lo * b_dim:r_hi * b_dim])
        cross = cross.reshape(nf, c_in * f_out).astype(np.complex128)
        dw[dr] = (lags @ cross).real.reshape(kt, c_in, f_out)
    wflip = w[::-1, ::-1].transpose(0, 1, 3, 2)
    dx = apply(dyf, wflip, (pad_r[1], pad_r[0]), (pad_t[1], pad_t[0]))
    return y, dw, dy.sum(axis=(0, 1, 2)), dx


class TestSpectralStageBytes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [17, 33, 50, 64])
    def test_equal_whole_batch_order(self, batch, dtype):
        # the default stage-2 shape; 17, 33 and 50 end on a part chunk
        from echodoa.neural.network import (
            _conv_spectral, _conv_spectral_grads, _same_pads)
        x, w, dy = conv_case((2, batch, 256, 64), 64, seed=batch,
                             dtype=dtype)
        w *= 0.05
        want = whole_batch_spectral(x, w, dy)
        pad_r, pad_t = _same_pads(4), _same_pads(16)
        y, xf = _conv_spectral(x.copy(), w, pad_r, pad_t)
        got = (y, *_conv_spectral_grads(dy.copy(), w, xf, pad_r, pad_t))
        for name, a, b in zip(("y", "dw", "db", "dx"), got, want):
            assert a.dtype == b.dtype == dtype, name
            assert a.shape == b.shape, name
            assert np.ascontiguousarray(a).tobytes() == \
                np.ascontiguousarray(b).tobytes(), (batch, name)


# --- row-folded convolution against the im2col reference ------------------

def folded_and_im2col(x, w, dy):
    """(forward, dw, db, dx) of the im2col reference, then the folded form."""
    from echodoa.neural.network import (
        _conv_folded, _conv_folded_grads, _folded_cols, _folded_input_grad,
        _same_pads)
    pad_r, pad_t = _same_pads(w.shape[0]), _same_pads(w.shape[1])
    need_dx = w.shape[2] == w.shape[3]
    y, cols = reference_conv(x, w, pad_r, pad_t)
    im2col = (y, *reference_conv_grads(dy, w, cols, pad_r, pad_t, need_dx))
    cols = _folded_cols(x, w.shape[1], pad_t)
    folded = (_conv_folded(x, w, pad_r, pad_t),
              *_conv_folded_grads(dy, w, cols, pad_r, pad_t),
              _folded_input_grad(dy, w, pad_r, pad_t) if need_dx else None)
    return im2col, folded


# (R, B, T, C), F: the default first stage at small batch, one row, more
# rows than kernel rows, an odd length, more than one input map, and the
# default stage-2 and narrow one-row shapes with their input gradients
FOLDED_CASES = [((4, 3, 512, 1), 64), ((1, 4, 64, 1), 32),
                ((5, 2, 17, 1), 3), ((4, 2, 33, 2), 4),
                ((2, 3, 256, 64), 64), ((1, 4, 32, 8), 8)]


class TestFoldedConvolution:
    @pytest.mark.parametrize("shape, f_out", [
        ((4, 2, 20, 1), 5), ((5, 2, 17, 1), 3), ((1, 2, 20, 2), 4)])
    def test_matches_direct_convolution(self, shape, f_out):
        from echodoa.neural.network import _conv_folded, _same_pads
        x, w, _ = conv_case(shape, f_out, seed=2)
        pad_r, pad_t = _same_pads(4), _same_pads(16)
        got = _conv_folded(x, w, pad_r, pad_t)
        np.testing.assert_allclose(got, direct_conv(x, w, pad_r, pad_t),
                                   atol=1e-12)

    @pytest.mark.parametrize("shape, f_out", FOLDED_CASES)
    def test_float64_agrees_with_im2col(self, shape, f_out):
        im2col, folded = folded_and_im2col(*conv_case(shape, f_out, seed=3))
        for name, want, got in zip(("y", "dw", "db", "dx"), im2col, folded):
            if want is None:
                assert got is None and shape[3] != f_out
                continue
            assert got.dtype == np.float64 and got.shape == want.shape, name
            assert rel_error(got, want) < 1e-12, name

    @pytest.mark.parametrize("batch, seed", [(16, 4), (16, 5), (16, 6),
                                             (64, 4)])
    def test_float32_within_bound_of_float64(self, batch, seed):
        # measured 2.8-3.9e-7 (y) and 3.5-5.3e-7 (dw) for the folded
        # form against 1.2-1.7e-7 and 3.9-8.8e-7 for im2col, at batches
        # 16 and 64 and seeds 4-6
        x, w, dy = conv_case((4, batch, 512, 1), 64, seed=seed)
        truth, _ = folded_and_im2col(x, w, dy)
        low = [a.astype(np.float32) for a in (x, w, dy)]
        im2col, folded = folded_and_im2col(*low)
        for name, want, got in zip(("y", "dw"), truth, folded):
            assert got.dtype == np.float32, name
            assert rel_error(got, want) < 1e-6, name
        assert folded[2].tobytes() == im2col[2].tobytes()


# --- the blocked inference form and its cached tap spectra ------------------

def blocked_conv(x, w):
    """``_conv_blocked`` on tap spectra derived here, in ``x``'s precision."""
    from echodoa.neural.network import (
        _BLOCK_TIME, _conv_blocked, _row_bands, _same_pads, _tap_spectrum)
    pad_r, pad_t = _same_pads(w.shape[0]), _same_pads(w.shape[1])
    ctype = np.result_type(x.dtype, np.complex64)
    taps = {dr: _tap_spectrum(w[dr], _BLOCK_TIME, ctype)
            for dr, *_ in _row_bands(w.shape[0], x.shape[0], pad_r)}
    return _conv_blocked(x, w, taps, pad_r, pad_t)


def forms_called(monkeypatch, run):
    """Calls of the folded and the blocked convolution while ``run()``."""
    from echodoa.neural import network
    calls = {"folded": 0, "blocked": 0}
    for form in calls:
        real = getattr(network, f"_conv_{form}")

        def counted(*args, _real=real, _form=form):
            calls[_form] += 1
            return _real(*args)
        monkeypatch.setattr(network, f"_conv_{form}", counted)
    run()
    return calls


def echo_records():
    from echodoa.datasets import SweepSpec, generate_dataset
    return generate_dataset(SweepSpec(angles_deg=(-20.0, 35.0),
                                      snrs_db=(20.0,), records_per_cell=1))


# T = 66 is two whole block steps of 33; the others end on a part block
BLOCKED_TIMES = [32, 64, 66, 100, 128, 256]


class TestBlockedConvolution:
    @pytest.mark.parametrize("time", BLOCKED_TIMES)
    @pytest.mark.parametrize("rows", [1, 2])
    def test_float64_matches_direct_and_folded(self, rows, time):
        from echodoa.neural.network import _conv_folded, _same_pads
        x, w, _ = conv_case((rows, 1, time, 64), 64, seed=time + rows)
        got = blocked_conv(x, w)
        assert got.dtype == np.float64 and got.shape == (rows, 1, time, 64)
        pad_r, pad_t = _same_pads(4), _same_pads(16)
        folded = _conv_folded(x, w, pad_r, pad_t)
        assert rel_error(got, folded) <= 1e-12
        assert rel_error(got, direct_conv(x, w, pad_r, pad_t)) <= 1e-12

    def test_float64_several_records_and_narrow_maps(self):
        # rows and blocks of three records share each GEMM
        from echodoa.neural.network import _same_pads
        x, w, _ = conv_case((2, 3, 70, 5), 7, seed=5)
        want = direct_conv(x, w, _same_pads(4), _same_pads(16))
        assert rel_error(blocked_conv(x, w), want) <= 1e-12

    @pytest.mark.parametrize("time", BLOCKED_TIMES)
    @pytest.mark.parametrize("rows", [1, 2])
    def test_float32_within_1e_6_of_float64(self, rows, time):
        # measured 1.6-2.5e-7 over these shapes; the folded form's float32
        # output reads 3.9-5.8e-7 from the same float64 result
        x, w, _ = conv_case((rows, 1, time, 64), 64, seed=time + rows)
        truth = blocked_conv(x, w)
        got = blocked_conv(x.astype(np.float32), w.astype(np.float32))
        assert got.dtype == np.float32
        assert rel_error(got, truth) < 1e-6


class TestTapSpectra:
    def test_stage_offsets_shapes_and_size(self):
        # three row offsets at stage 2 (two input rows), one at 3-5
        from echodoa.neural import Checkpoint
        from echodoa.neural.network import _BLOCK_TIME
        spec = NetworkSpec()
        checkpoint = Checkpoint(
            spec=spec, params=init_params(spec, 0, dtype=np.float64))
        taps = checkpoint.tap_spectra
        assert [sorted(stage) for stage in taps] == [[0, 1, 2], [1], [1],
                                                     [1]]
        nbytes = 0
        for stage in taps:
            for spectrum in stage.values():
                assert spectrum.dtype == np.complex64
                assert spectrum.shape == (_BLOCK_TIME // 2 + 1, 64, 64)
                nbytes += spectrum.nbytes
        assert nbytes == 6 * 25 * 64 * 64 * 8      # about 4.9 MB

    def test_read_only_and_derived_once(self, monkeypatch):
        from echodoa.neural import Checkpoint, checkpoint as module
        from echodoa.neural import predict_doa
        spec = NetworkSpec()
        checkpoint = Checkpoint(
            spec=spec, params=init_params(spec, 1, dtype=np.float64))
        derived = []
        real = module._blocked_taps

        def counted(*args):
            derived.append(args)
            return real(*args)
        monkeypatch.setattr(module, "_blocked_taps", counted)
        for rec in echo_records().records:
            predict_doa(checkpoint, rec.baseband)
            predict_doa(checkpoint, rec.baseband)
        assert len(derived) == 1
        assert derived[0][1] is checkpoint.params32
        taps = checkpoint.tap_spectra
        assert taps is checkpoint.tap_spectra
        for stage in taps:
            with pytest.raises(TypeError):
                stage[3] = None
            for spectrum in stage.values():
                assert not spectrum.flags.writeable
                with pytest.raises(ValueError):
                    spectrum[0, 0, 0] = 0

    def test_pickle_round_trip_rederives_the_same_bytes(self):
        import pickle
        from echodoa.neural import Checkpoint
        spec = NetworkSpec()
        checkpoint = Checkpoint(
            spec=spec, params=init_params(spec, 2, dtype=np.float64))
        blob = pickle.dumps(checkpoint)
        taps = checkpoint.tap_spectra
        # the pickle carries the float64 weights only, derived or not
        assert pickle.dumps(checkpoint) == blob
        copy = pickle.loads(blob)
        assert "tap_spectra" not in vars(copy)
        for mine, theirs in zip(taps, copy.tap_spectra, strict=True):
            assert sorted(mine) == sorted(theirs)
            for dr in mine:
                assert mine[dr].tobytes() == theirs[dr].tobytes()


class TestInferenceDispatch:
    def test_default_spec_runs_folded_then_blocked(self, monkeypatch):
        from echodoa.neural import Checkpoint, predict_doa
        spec = NetworkSpec()
        checkpoint = Checkpoint(
            spec=spec, params=init_params(spec, 3, dtype=np.float64))
        base = echo_records().records[0].baseband
        calls = forms_called(monkeypatch,
                             lambda: predict_doa(checkpoint, base))
        assert calls == {"folded": 1, "blocked": 4}

    @pytest.mark.parametrize("spec", [
        NetworkSpec(input_time=256, feature_maps=8, dense_widths=(16, 8)),
        MID, REDUCED_SPEC])
    def test_narrow_networks_run_folded_and_derive_nothing(self, spec,
                                                           monkeypatch):
        from echodoa.neural import Checkpoint, predict_doa
        checkpoint = Checkpoint(
            spec=spec, params=init_params(spec, 3, dtype=np.float64))
        base = echo_records().records[0].baseband
        calls = forms_called(monkeypatch,
                             lambda: predict_doa(checkpoint, base))
        assert calls == {"folded": 5, "blocked": 0}
        assert checkpoint.tap_spectra is None

    def test_forward_keeps_the_folded_order(self, monkeypatch):
        # only predict_doa passes the cache; forward and training do not
        spec = NetworkSpec()
        params = init_params(spec, 4)
        x, _ = random_batch(spec, 1, np.float32)
        calls = forms_called(monkeypatch, lambda: forward(spec, params, x))
        assert calls == {"folded": 5, "blocked": 0}


# --- strided windows, and pooling ahead of bias and ReLU --------------------

def sliding_folded_cols(x, kt, pad_t):
    """The columns of ``_folded_cols`` as they were built before the
    strided view: ``np.pad``, ``sliding_window_view`` and a transpose."""
    from numpy.lib.stride_tricks import sliding_window_view
    r_dim, b_dim, t_dim, c_in = x.shape
    xpt = np.pad(x, ((0, 0), (0, 0), pad_t, (0, 0)))
    win = sliding_window_view(xpt, kt, axis=2)               # (R,B,T,C,kt)
    cols = np.ascontiguousarray(win.transpose(1, 2, 0, 4, 3))
    return cols.reshape(b_dim * t_dim, r_dim * kt * c_in)


def sliding_conv_blocked(x, w, taps, pad_r, pad_t):
    """``_conv_blocked`` with its blocks taken as they were before the
    strided view: every window of ``sliding_window_view``, stepped and
    swapped into place."""
    import scipy.fft
    from numpy.lib.stride_tricks import sliding_window_view
    from echodoa.neural.network import _BLOCK_TIME, _spectral_product
    kr, kt = w.shape[:2]
    r_dim, b_dim, t_dim, c_in = x.shape
    step = _BLOCK_TIME - kt + 1
    blocks = -(-t_dim // step)
    xp = np.zeros((r_dim, b_dim, blocks * step + kt - 1, c_in), x.dtype)
    xp[:, :, pad_t[0]:pad_t[0] + t_dim] = x
    win = sliding_window_view(xp, _BLOCK_TIME, axis=2)[:, :, ::step]
    xf = scipy.fft.rfft(win.swapaxes(3, 4), axis=3)
    xf = xf.reshape(r_dim, b_dim * blocks, -1, c_in)
    yf = _spectral_product(xf, taps.__getitem__, kr, pad_r)
    z = scipy.fft.irfft(yf, n=_BLOCK_TIME, axis=2)[:, :, kt - 1:]
    return z.reshape(r_dim, b_dim, blocks * step, -1)[:, :, :t_dim]


def bias_relu_then_pool(conv, b, pr, pt, keep):
    """Bias and ReLU on the whole convolution output, then pooling."""
    from echodoa.neural.network import _maxpool
    conv += b
    np.maximum(conv, 0.0, out=conv)
    return _maxpool(conv, pr, pt, keep)


def earlier_constructions(monkeypatch):
    """Run the network on the three constructions above."""
    from echodoa.neural import network
    monkeypatch.setattr(network, "_folded_cols", sliding_folded_cols)
    monkeypatch.setattr(network, "_conv_blocked", sliding_conv_blocked)
    monkeypatch.setattr(network, "_bias_relu_pool", bias_relu_then_pool)


def awkward_conv(shape, dtype, seed):
    """Convolution output with every case pooling must order alike.

    Small integers give exact ties and all-negative windows; signed
    zeros, NaN and infinities are scattered over every map.
    """
    rng = np.random.default_rng(seed)
    conv = rng.integers(-3, 3, size=shape).astype(dtype)
    conv[..., 1::2] += rng.normal(size=conv[..., 1::2].shape).astype(dtype)
    flat = conv.reshape(-1)
    for value in (0.0, -0.0, np.nan, np.inf, -np.inf):
        flat[rng.choice(flat.size, 6, replace=False)] = value
    return conv


class TestDataMovement:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pr, pt", [(2, 2), (1, 2)])
    def test_pool_first_equals_bias_and_relu_first(self, pr, pt, dtype):
        from echodoa.neural.network import _bias_relu_pool
        # zero and signed-zero biases, ones that make new ties, a bias
        # that rounds away against large values, and ones that flip signs
        b = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-30, 0.125],
                     dtype=dtype)
        for seed in range(4):
            conv = awkward_conv((2 * pr, 3, 16, b.size), dtype, seed)
            conv[0, 0, :2 * pt] = 1e20        # + 1e-30 rounds to a tie
            want, arg = bias_relu_then_pool(conv.copy(), b, pr, pt, True)
            assert arg is not None and np.isnan(want).any()
            kept, kept_arg = _bias_relu_pool(conv.copy(), b, pr, pt, True)
            assert kept.tobytes() == want.tobytes()
            assert kept_arg.tobytes() == arg.tobytes()
            got, none = _bias_relu_pool(conv.copy(), b, pr, pt, False)
            assert none is None and got.dtype == dtype
            assert got.tobytes() == want.tobytes(), seed
            assert not np.signbit(got[got == 0]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, pad_t", [
        ((4, 3, 64, 1), (7, 8)), ((1, 1, 32, 64), (7, 8)),
        ((2, 1, 40, 3), (8, 7)), ((1, 2, 17, 5), (8, 7)),
        ((5, 2, 16, 1), (7, 8))])
    def test_folded_cols_equal_the_sliding_windows(self, shape, pad_t, dtype):
        # one row of one record is the shape a reshape could leave a view
        from echodoa.neural.network import _folded_cols
        x = np.random.default_rng(shape[2]).normal(size=shape).astype(dtype)
        want = sliding_folded_cols(x, 16, pad_t)
        got = _folded_cols(x, 16, pad_t)
        assert got.shape == want.shape and got.dtype == dtype
        assert got.flags.c_contiguous
        assert not np.shares_memory(got, x)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("time", BLOCKED_TIMES)
    @pytest.mark.parametrize("rows, batch", [(1, 1), (2, 1), (2, 3)])
    def test_blocked_equals_the_sliding_windows(self, rows, batch, time,
                                                dtype):
        from echodoa.neural.network import (
            _BLOCK_TIME, _conv_blocked, _row_bands, _same_pads,
            _tap_spectrum)
        x, w, _ = conv_case((rows, batch, time, 8), 8, seed=time + rows,
                            dtype=dtype)
        pad_r, pad_t = _same_pads(4), _same_pads(16)
        ctype = np.result_type(dtype, np.complex64)
        taps = {dr: _tap_spectrum(w[dr], _BLOCK_TIME, ctype)
                for dr, *_ in _row_bands(4, rows, pad_r)}
        want = sliding_conv_blocked(x, w, taps, pad_r, pad_t)
        got = _conv_blocked(x, w, taps, pad_r, pad_t)
        assert got.shape == want.shape and got.dtype == dtype
        assert np.ascontiguousarray(got).tobytes() == \
            np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_bytes_equal_earlier_order(self, dtype,
                                                            monkeypatch):
        spec = NetworkSpec()
        params = init_params(spec, 12, dtype=dtype)
        cases = []
        for batch in (1, 16, 17, 64):
            x, y = random_batch(spec, batch, dtype)
            cases.append((x, y, forward(spec, params, x),
                          backward(spec, params, x, y)))
        earlier_constructions(monkeypatch)
        for x, y, pred, got in cases:
            assert forward(spec, params, x).tobytes() == pred.tobytes()
            want_loss, want_grads = backward(spec, params, x, y)
            assert_same_bytes(got, (want_loss, want_grads, None))

    def test_predict_doa_bytes_equal_earlier_order(self, monkeypatch):
        from echodoa.neural import Checkpoint, predict_doa
        spec = NetworkSpec()
        checkpoint = Checkpoint(
            spec=spec, params=init_params(spec, 13, dtype=np.float64))
        bases = [rec.baseband for rec in echo_records().records]
        got = [predict_doa(checkpoint, base).angle_deg for base in bases]
        earlier_constructions(monkeypatch)
        want = [predict_doa(checkpoint, base).angle_deg for base in bases]
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# --- the float contract of inference ----------------------------------------

class TestFloatContract:
    def test_predictions_within_1e_4_deg_of_the_im2col_order(self):
        # the written contract for float reordering: a fixed checkpoint's
        # predictions stay within 1e-4 degrees of the im2col order that
        # batch-1 inference ran before it became row-folded. Measured at
        # most 9.4e-6 degrees over these 144 predictions with stages 2-5
        # blocked, a margin of about 10x (7.4e-6 all folded; float32,
        # OpenBLAS on one and on two threads). The blocked stages moved
        # them at most 1.2e-5 degrees from the all-folded order
        from echodoa.datasets import SweepSpec, generate_dataset
        from echodoa.doa_music import CONVERGED
        from echodoa.neural import (
            ANGLE_SCALE_DEG, Checkpoint, baseband_to_input, predict_doa)
        spec = NetworkSpec()
        ds = generate_dataset(SweepSpec(
            angles_deg=(-60.0, -45.0, -30.0, -15.0, 0.0, 15.0, 30.0, 45.0,
                        60.0),
            snrs_db=(10.0, 20.0), records_per_cell=4))
        assert len(ds.records) == 72
        worst = 0.0
        for seed in (0, 1):
            checkpoint = Checkpoint(
                spec=spec, params=init_params(spec, seed, dtype=np.float64))
            for rec in ds.records:
                got = predict_doa(checkpoint, rec.baseband)
                assert got.status == CONVERGED
                rows = baseband_to_input(rec.baseband, spec)
                _, _, pred = reference_backward(
                    spec, checkpoint.params32, rows[None],
                    np.zeros(1, np.float32))
                worst = max(worst, abs(got.angle_deg
                                       - float(pred[0]) * ANGLE_SCALE_DEG))
        assert worst <= 1e-4, worst
