"""From-scratch convolutional regression network.

Five same-padded 2-D convolution stages (kernels span the full
sensor/IQ row axis), max pooling that collapses the row dimension to 1,
two ReLU dense layers, and a single tanh output unit bounded to
(-1, 1). Forward and reverse passes are exact closed-form numpy; no
autograd framework is involved.

Internally activations live in (rows, batch, time, maps) layout so the
row-sliced GEMMs of the convolutions operate on contiguous memory.
Pooling works on strided views of that layout and copies nothing; it
records the int8 window index of each maximum only for the training
pass. Bias-add and ReLU run in place on the convolution output.

Each convolution runs in one of two forms, picked by ``_conv_form``
from the shape alone:

- folded (``_conv_folded``): the column buffer holds every input row's
  16-tap time windows side by side, so each output row is one GEMM
  whose inner dimension spans all the input rows it reads (16-64 taps
  deep per input map), written straight into the output. It takes
  every stage with fewer than 32 input maps, so every first stage and
  every stage of a narrower network, and every stage whose rows times
  batch is below 32, so every stage of a batch-1 ``forward``. The
  first stage (one input map) runs in chunks of
  ``_FOLDED_CHUNK`` (2) records at every batch size: each chunk's
  columns, GEMMs, bias, ReLU and pooling run while its output is still
  in cache, so no full-resolution first-stage array exists in either
  pass. Its input gradient is never needed. A later stage's input
  gradient is the folded convolution of the output gradient with the
  kernel flipped in space and its channel axes swapped, under mirrored
  padding.
- spectral (``_conv_spectral``): ``rfft`` along time to
  ``next_fast_len(T + kt - 1)`` points, one batched complex GEMM per
  row offset and frequency, and one ``irfft``. It takes stages with at
  least 32 input maps once rows times batch reaches 32: stage 2 of the
  default spec from batch 16, stages 3-5 from batch 32, so every stage
  but the first of a 64-record training batch. It does about 7x fewer
  multiply-adds. The ``rfft`` runs ``_RFFT_CHUNK`` (4) records per call
  into one preallocated spectrum, so only a chunk is ever zero-padded;
  the output is a strided view into the ``irfft`` result, not a copy.

Inference has a third, forward-only path, which ``_conv_form`` never
picks: ``predict_doa`` passes the checkpoint's cached tap spectra, and
then stages 2-5 run ``_conv_blocked``, an overlap-save convolution
over blocks of ``_BLOCK_TIME`` (48) samples that step by 33, with one
complex GEMM per frequency and row band against a stored tap spectrum.
``_blocked_taps`` derives those spectra once per checkpoint
(``Checkpoint.tap_spectra``, read-only, about 4.9 MB for the default
spec; pickles carry only the float64 weights). At batch 1 stage 2 it
does about 13 M real multiply-adds against the folded form's 67 M, and
its short blocks keep the tap spectra small: the spectral form's
whole-record spectra would take about 19 MB for stages 2-5. A network
narrower than 32 maps derives none and stays folded, and everything
that runs without the cache (``forward``, training, the held-out loss,
the first stage) keeps the two forms above and their bytes.

The forms are float reorderings of the same sums. In float64 each
agrees to about 1e-14 relative with a reference that the tests keep:
one GEMM per kernel row offset over columns of one input row each. In
float32 each stays a few 1e-7 from the float64 result, relative to its
largest value: the spectral forward pass and gradients closer than
that reference, the folded output and weight gradient within 1e-6, the
bias gradient bit for bit the reference's; the blocked output reads
1.6-2.5e-7 at batch-1 stage shapes, where folded reads 3.9-5.8e-7. A
GEMM over fewer rows may sum in another order, so the chunked first
stage need not give the bytes of a whole-batch pass: at 64 maps its
forward output does; at 8 maps it does not from batch 16 on, nor at 4
maps at batch 64. Its gradients are sums of per-chunk sums, up to
4.2e-6 of their maximum from the whole-batch ones (64 maps, batches
16-64). Whole-network float32 gradients of a large batch can differ
between orders by a few 1e-3 of their maximum, because a last-bit
change can flip a max-pool or ReLU near-tie; compare the forms per
stage, not per network.

The training pass caches, per convolution stage, three things: the
stage input in the form its gradient needs (the folded column buffer;
the input spectrum, about 14x smaller; for the chunked first stage the
input itself, 16x smaller than its columns, which each chunk
rebuilds), the int8 window index of each pooled maximum, and a bool
mask of the positive pooled outputs (one byte per pooling window, in
place of the full-size ReLU output).

A spectral stage frees each full-size array as soon as it is spent,
so it holds about three at once. At stage 2 of a batch-64 step
(float32) the input, the routed gradient and the ``irfft`` result are
8.4-9.4 MB, each spectrum 9.5 MB, and one row band's product and its
tap spectrum 4.7 MB each:

- forward: the stage input is freed once its spectrum exists. While
  the output spectrum is built, the two spectra and one band's product
  with its tap spectrum are alive; then the two spectra and the
  ``irfft`` result, which bias, ReLU and pooling read. Training keeps
  the input spectrum; ``forward`` and the held-out loss run the same
  code and drop it with the stage.
- backward: the pooled gradient is freed once routed, the routed
  gradient once its spectrum exists, each row band's cross product
  before the next band starts (it is widened to complex128
  ``_LAG_COLUMNS`` (256) columns at a time for the lag transform), the
  input spectrum once the weight gradient exists, and the gradient
  spectrum once the input gradient's spectrum does, before its inverse
  transform. The peak comes while the input gradient's spectrum is
  built: the two gradient spectra and one band's product with its tap
  spectrum. Just before, the routed gradient, its spectrum and the
  saved input spectrum are alive.

The convolution output of every form is freed once pooled, and the
reverse pass takes each stage's cache out as it reaches that stage. A
folded stage drops its forward column buffer before its input
gradient builds columns of its own. The stage functions free their
inputs only when the caller passes its last reference, and CPython
before 3.11 keeps call arguments on the caller's stack until the call
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InputError, ShapeMismatchError


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of the DoA regression network.

    The layout is fixed: four input rows (the pair's re and im rows),
    five conv stages of 4x16 kernels, each pooling time by 2 and rows by
    2 until the four rows are one. The input length, the map count and
    the two dense widths are the settings; the input length must be a
    multiple of 32, so that every pool divides it.
    """

    input_rows: ClassVar[int] = 4
    conv_stages: ClassVar[int] = 5
    kernel_rows: ClassVar[int] = 4
    kernel_time: ClassVar[int] = 16

    input_time: int = 512
    feature_maps: int = 64
    dense_widths: tuple = (128, 32)

    def __post_init__(self):
        for name in ("input_time", "feature_maps"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be at least 1")
        if len(self.dense_widths) != 2 or any(w < 1 for w in self.dense_widths):
            raise InputError("dense_widths must be two positive integers")
        if self.input_time % 2 ** self.conv_stages:
            raise ShapeMismatchError(
                f"input_time must be a multiple of {2 ** self.conv_stages}, "
                f"got {self.input_time}")
        object.__setattr__(self, "dense_widths", tuple(self.dense_widths))

    def pool_schedule(self) -> list:
        """(row, time) pool factors per stage."""
        return [(2, 2), (2, 2), (1, 2), (1, 2), (1, 2)]

    @property
    def flattened_size(self) -> int:
        return self.feature_maps * (self.input_time // 2 ** self.conv_stages)

    def param_shapes(self) -> dict:
        """Parameter names and shapes in declaration order."""
        kr, kt, maps = self.kernel_rows, self.kernel_time, self.feature_maps
        shapes = {}
        in_maps = 1
        for s in range(1, self.conv_stages + 1):
            shapes[f"conv{s}_w"] = (kr, kt, in_maps, maps)
            shapes[f"conv{s}_b"] = (maps,)
            in_maps = maps
        widths = (self.flattened_size, *self.dense_widths, 1)
        names = ("dense1", "dense2", "output")
        for name, w_in, w_out in zip(names, widths, widths[1:]):
            shapes[f"{name}_w"] = (w_in, w_out)
            shapes[f"{name}_b"] = (w_out,)
        return shapes


def init_params(spec: NetworkSpec, seed: int,
                dtype=np.float32) -> dict:
    """Fan-in-scaled uniform initialization, deterministic per seed."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in spec.param_shapes().items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=dtype)
            continue
        fan_in = int(np.prod(shape[:-1]))
        limit = np.sqrt(6.0 / fan_in)
        params[name] = rng.uniform(-limit, limit, shape).astype(dtype)
    return params


def _same_pads(k: int) -> tuple:
    return ((k - 1) // 2, k // 2)


def _row_bands(kr, r_dim, pad_r):
    """(dr, r_lo, r_hi, i_lo) for each kernel row offset with work to do.

    Output rows ``r_lo:r_hi`` take kernel row ``dr`` from input rows
    starting at ``i_lo``; offsets whose taps land entirely in the row
    padding are skipped.
    """
    for dr in range(kr):
        r_lo = max(0, pad_r[0] - dr)
        r_hi = min(r_dim, r_dim + pad_r[0] - dr)
        if r_lo < r_hi:
            yield dr, r_lo, r_hi, r_lo + dr - pad_r[0]


def _out_rows(kr, r_dim, pad_r):
    """(r, d_lo, d_hi, i_lo) for each output row with work to do.

    Output row ``r`` takes kernel rows ``d_lo:d_hi`` from the input rows
    starting at ``i_lo``; kernel rows whose taps land in the row padding
    are left out.
    """
    for r in range(r_dim):
        d_lo = max(0, pad_r[0] - r)
        d_hi = min(kr, r_dim + pad_r[0] - r)
        if d_lo < d_hi:
            yield r, d_lo, d_hi, r + d_lo - pad_r[0]


def _folded_cols(x, kt, pad_t):
    """(B * T, R * kt * C) columns of ``_conv_folded``."""
    r_dim, b_dim, t_dim, c_in = x.shape
    xpt = np.pad(x, ((0, 0), (0, 0), pad_t, (0, 0)))
    win = sliding_window_view(xpt, kt, axis=2)               # (R,B,T,C,kt)
    cols = np.ascontiguousarray(win.transpose(1, 2, 0, 4, 3))
    return cols.reshape(b_dim * t_dim, r_dim * kt * c_in)


def _conv_folded(x, w, pad_r, pad_t):
    """Same-size 2-D convolution; returns output and the column buffer.

    ``x`` is (R, B, T, C) and ``w`` is (kr, kt, C, F); time padding is
    explicit. The column buffer is (B * T, R * kt * C): each row holds
    the time window of every input row side by side, so the input rows
    that one output row reads form one contiguous band of columns. Each
    output row is then one GEMM of that band with the matching kernel
    rows, written into the output without an accumulator. Kernel rows
    whose taps land entirely in the row padding are left out.
    """
    kr, kt, c_in, f_out = w.shape
    r_dim, b_dim, t_dim, _ = x.shape
    k = kt * c_in
    cols = _folded_cols(x, kt, pad_t)
    y = np.empty((r_dim, b_dim, t_dim, f_out), dtype=x.dtype)
    for r, d_lo, d_hi, i_lo in _out_rows(kr, r_dim, pad_r):
        i_hi = i_lo + d_hi - d_lo
        np.matmul(cols[:, i_lo * k:i_hi * k],
                  w[d_lo:d_hi].reshape(-1, f_out),
                  out=y[r].reshape(b_dim * t_dim, f_out))
    return y, cols


def _conv_folded_grads(dy, w, cols, pad_r, pad_t, need_dx):
    """Gradients of ``_conv_folded``; ``cols`` is its column buffer.

    The weight gradient sums, output row by output row, that row's band
    of columns against its output gradient. The input gradient is the
    folded convolution of ``dy`` with the kernel flipped in space and
    its channel axes swapped, under mirrored padding. ``cols`` is
    dropped before that convolution builds its own columns, so a caller
    that passes its last reference holds one column buffer at a time.
    """
    kr, kt, c_in, f_out = w.shape
    r_dim, b_dim, t_dim, _ = dy.shape
    k = kt * c_in
    dw = np.zeros(w.shape, dtype=dy.dtype)
    dwm = dw.reshape(kr * k, f_out)
    db = dy.sum(axis=(0, 1, 2))
    for r, d_lo, d_hi, i_lo in _out_rows(kr, r_dim, pad_r):
        i_hi = i_lo + d_hi - d_lo
        dwm[d_lo * k:d_hi * k] += (cols[:, i_lo * k:i_hi * k].T
                                   @ dy[r].reshape(b_dim * t_dim, f_out))
    del cols
    if not need_dx:
        return dw, db, None
    wflip = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
    dx, _ = _conv_folded(dy, wflip, (pad_r[1], pad_r[0]),
                         (pad_t[1], pad_t[0]))
    return dw, db, dx


# Records per ``rfft`` call of a spectral stage (``_rfft_records``), and
# columns of a row band's cross product widened to complex128 at a time
# for the lag transform of the weight gradient. Default stage 2 at batch
# 64, forward plus gradients, medians of 9: chunks of 2-8 records took
# 127-148 ms against 152-168 ms for one whole-batch call; blocks of 128
# to 4096 columns stayed within the host's noise.
_RFFT_CHUNK = 4
_LAG_COLUMNS = 256


def _spectral_size(t_dim, kt):
    """FFT length that holds a full linear convolution along time."""
    return scipy.fft.next_fast_len(t_dim + kt - 1, real=True)


def _phases(n, shifts):
    """(n // 2 + 1, len(shifts)) complex128 factors exp(-2 pi i k s / n)."""
    return np.exp(-2j * np.pi * np.outer(np.arange(n // 2 + 1), shifts) / n)


def _tap_spectrum(w_row, n, ctype):
    """Spectrum of one kernel row's time-reversed taps at ``n`` points.

    ``w_row`` is (kt, C, F) and the result (n // 2 + 1, C, F). With 16
    taps a DFT matrix product costs far less than an ``rfft`` of n
    mostly-zero points per (input, output) map pair.
    """
    kt, c_in, f_out = w_row.shape
    dft = _phases(n, kt - 1 - np.arange(kt)).astype(ctype)
    taps = w_row.reshape(kt, c_in * f_out).astype(ctype)
    return (dft @ taps).reshape(-1, c_in, f_out)


def _rfft_records(x, n):
    """``rfft(x, n=n, axis=2)`` of an (R, B, T, C) array, in chunks.

    The spectrum is allocated once and filled ``_RFFT_CHUNK`` records
    per call, so each call zero-pads only its own records to ``n``
    points and no whole-batch padded copy exists. Every line is
    transformed on its own, so the bytes equal one whole-batch call's.
    """
    r_dim, b_dim, _, c_dim = x.shape
    xf = np.empty((r_dim, b_dim, n // 2 + 1, c_dim),
                  dtype=np.result_type(x.dtype, np.complex64))
    for lo in range(0, b_dim, _RFFT_CHUNK):
        part = np.s_[:, lo:lo + _RFFT_CHUNK]
        xf[part] = scipy.fft.rfft(x[part], n=n, axis=2)
    return xf


def _spectral_product(xf, taps, kr, pad_r):
    """Output spectrum of the convolution of the input with spectrum ``xf``.

    ``xf`` is (R, B, Nf, C), the ``rfft`` along time at an ``n`` that
    holds the linear convolution each output sample needs.
    ``taps(dr)`` is kernel row ``dr``'s ``_tap_spectrum`` at that ``n``,
    (Nf, C, F): the time-reversed kernel turns the correlation into a
    convolution.

    Kernel row ``pad_r[0]`` reads every input row into every output row,
    so its product is written into the output spectrum and the other
    rows' products are added to it; with ``kr`` below 5 that sums the
    products in the order of a zero-filled accumulator.
    """
    r_dim, b_dim, nf, c_in = xf.shape
    first = taps(pad_r[0])
    f_out = first.shape[2]
    yf = np.empty((r_dim, b_dim, nf, f_out), dtype=xf.dtype)
    # (Nf, R * B, maps) views: one GEMM per frequency and row offset
    xv = xf.reshape(r_dim * b_dim, nf, c_in).transpose(1, 0, 2)
    yv = yf.reshape(r_dim * b_dim, nf, f_out).transpose(1, 0, 2)
    np.matmul(xv, first, out=yv)
    del first
    for dr, r_lo, r_hi, i_lo in _row_bands(kr, r_dim, pad_r):
        if dr == pad_r[0]:
            continue
        rows = r_hi - r_lo
        yv[:, r_lo * b_dim:r_hi * b_dim] += \
            xv[:, i_lo * b_dim:(i_lo + rows) * b_dim] @ taps(dr)
    return yf


def _spectral_output(yf, n, kt, pad_t, t_dim):
    """Same-size part of the convolution whose spectrum is ``yf``.

    It starts at ``kt - 1 - pad_t[0]`` of the full linear convolution.
    The result is a strided view into the ``irfft`` output, not a copy.
    """
    lo = kt - 1 - pad_t[0]
    return scipy.fft.irfft(yf, n=n, axis=2)[:, :, lo:lo + t_dim]


def _conv_spectral(x, w, pad_r, pad_t):
    """Spectral form of ``_conv_folded``; returns output and input spectrum.

    The training pass keeps the spectrum, (R, B, Nf, C) complex, for the
    weight gradient. ``x`` is dropped once its spectrum exists; a caller
    that passes its last reference frees the input then.
    """
    t_dim, kt = x.shape[2], w.shape[1]
    n = _spectral_size(t_dim, kt)
    xf = _rfft_records(x, n)
    del x
    yf = _spectral_product(
        xf, lambda dr: _tap_spectrum(w[dr], n, xf.dtype), w.shape[0], pad_r)
    return _spectral_output(yf, n, kt, pad_t, t_dim), xf


def _conv_spectral_grads(dy, w, xf, pad_r, pad_t, need_dx):
    """Gradients of ``_conv_spectral``; ``xf`` is its input spectrum.

    The input gradient is the spectral convolution of ``dy``'s spectrum
    with the kernel flipped in space and its channel axes swapped. The
    weight gradient at tap ``dt`` is the circular cross-correlation of
    input and output gradient at lag ``dt - pad_t[0]``: per frequency
    the (C, F) product ``X^T conj(DY)``, summed over rows and batch, then
    an inverse real DFT evaluated at those ``kt`` lags only. That last
    sum runs over every frequency, so it runs in double precision: in
    single precision its rounding alone matched a GEMM's whole error.

    Each full-size array is dropped as soon as it is spent: ``dy`` once
    its spectrum exists, each row band's cross product before the next
    band starts (it is widened to complex128 ``_LAG_COLUMNS`` columns at
    a time), ``xf`` once the weight gradient exists, and ``dy``'s
    spectrum once the input gradient's spectrum does, before its inverse
    transform. A caller that passes its last references to ``dy`` and
    ``xf`` frees both then.
    """
    kr, kt, c_in, f_out = w.shape
    r_dim, b_dim, t_dim, _ = dy.shape
    n = _spectral_size(t_dim, kt)
    nf = xf.shape[2]
    dw = np.zeros(w.shape, dtype=dy.dtype)
    db = dy.sum(axis=(0, 1, 2))
    dyf = _rfft_records(dy, n)
    del dy
    # irfft weights: every bin but DC and Nyquist stands for two
    k = np.arange(nf)
    weight = np.where((k == 0) | (2 * k == n), 1.0, 2.0) / n
    lags = (_phases(n, pad_t[0] - np.arange(kt)) * weight[:, None]).T
    xv = xf.reshape(r_dim * b_dim, nf, c_in).transpose(1, 2, 0)
    gv = dyf.reshape(r_dim * b_dim, nf, f_out).transpose(1, 0, 2)
    np.conjugate(dyf, out=dyf)
    for dr, r_lo, r_hi, i_lo in _row_bands(kr, r_dim, pad_r):
        rows = r_hi - r_lo
        cross = (xv[:, :, i_lo * b_dim:(i_lo + rows) * b_dim]
                 @ gv[:, r_lo * b_dim:r_hi * b_dim])          # (Nf, C, F)
        cross = cross.reshape(nf, c_in * f_out)
        dw_row = dw[dr].reshape(kt, c_in * f_out)
        for lo in range(0, c_in * f_out, _LAG_COLUMNS):
            part = np.s_[:, lo:lo + _LAG_COLUMNS]
            dw_row[part] = (lags @ cross[part].astype(np.complex128)).real
        del cross
    del xf, xv
    if not need_dx:
        return dw, db, None
    np.conjugate(dyf, out=dyf)                     # back to dy's spectrum
    wflip = w[::-1, ::-1].transpose(0, 1, 3, 2)
    dxf = _spectral_product(
        dyf, lambda dr: _tap_spectrum(wflip[dr], n, dyf.dtype), kr,
        (pad_r[1], pad_r[0]))
    del dyf, gv
    return dw, db, _spectral_output(dxf, n, kt, (pad_t[1], pad_t[0]), t_dim)


_FORMS = {"folded": (_conv_folded, _conv_folded_grads),
          "spectral": (_conv_spectral, _conv_spectral_grads)}


# Time samples per overlap-save block of the blocked inference form
# (``_conv_blocked``); each block keeps its last 48 - kt + 1 = 33.
# ``to_baseband`` plus ``predict_doa`` over one 286-echo benchmark
# block, default spec: the median over 8 alternating rounds of each
# round's p50, as a ratio to the all-folded order's (3.20 and 3.09 ms),
# on 2 CPUs with OpenBLAS on one thread, float32, on a shared host:
#
#   block samples     32     48     64
#   seed 77          0.82   0.79   0.83
#   seed 4242        0.80   0.80   0.85
#
# Shorter blocks spend more of each transform on the kt - 1 samples
# they drop; longer ones pad the short late stages (32-128 samples)
# further and hold larger tap spectra.
_BLOCK_TIME = 48


def _conv_blocked(x, w, taps, pad_r, pad_t):
    """Same-size convolution by overlap-save over short time blocks.

    Forward only, for inference; ``w`` gives only the kernel's shape.
    ``taps`` maps each kernel row offset that ``_row_bands`` uses at
    this row count to its ``_tap_spectrum`` at ``_BLOCK_TIME`` points
    (see ``_blocked_taps``). Time is zero-padded by ``pad_t`` and cut
    into blocks of ``_BLOCK_TIME`` samples that step by
    ``_BLOCK_TIME - kt + 1``; each block's circular convolution (one
    ``rfft``, one complex GEMM per frequency and row band, one
    ``irfft``) equals the linear one from sample ``kt - 1`` on, which
    it keeps. The output is a view into a copy of those samples.
    """
    kr, kt = w.shape[:2]
    r_dim, b_dim, t_dim, c_in = x.shape
    step = _BLOCK_TIME - kt + 1
    blocks = -(-t_dim // step)
    xp = np.zeros((r_dim, b_dim, blocks * step + kt - 1, c_in), x.dtype)
    xp[:, :, pad_t[0]:pad_t[0] + t_dim] = x
    # (R, B, blocks, _BLOCK_TIME, C) view of the overlapping blocks
    win = sliding_window_view(xp, _BLOCK_TIME, axis=2)[:, :, ::step]
    xf = scipy.fft.rfft(win.swapaxes(3, 4), axis=3)
    xf = xf.reshape(r_dim, b_dim * blocks, -1, c_in)
    yf = _spectral_product(xf, taps.__getitem__, kr, pad_r)
    z = scipy.fft.irfft(yf, n=_BLOCK_TIME, axis=2)[:, :, kt - 1:]
    return z.reshape(r_dim, b_dim, blocks * step, -1)[:, :, :t_dim]


def _blocked_taps(spec, params):
    """Tap spectra of ``_conv_blocked`` for conv stages 2-5, or None.

    One read-only mapping per stage from each kernel row offset that
    ``_row_bands`` uses at the stage's input row count (three at stage
    2, one at stages 3-5) to its ``_tap_spectrum`` at ``_BLOCK_TIME``
    points, complex64 for float32 weights: about 4.9 MB for the default
    spec. A network narrower than 32 maps gets None and stays folded,
    as ``_conv_form`` keeps it in training.
    """
    if spec.feature_maps < 32:
        return None
    pad_r = _same_pads(spec.kernel_rows)
    rows = spec.input_rows
    taps = []
    for s, (pr, _) in enumerate(spec.pool_schedule(), start=1):
        if s > 1:
            w = params[f"conv{s}_w"]
            ctype = np.result_type(w.dtype, np.complex64)
            stage = {}
            for dr, *_ in _row_bands(spec.kernel_rows, rows, pad_r):
                stage[dr] = _tap_spectrum(w[dr], _BLOCK_TIME, ctype)
                stage[dr].setflags(write=False)
            taps.append(MappingProxyType(stage))
        rows //= pr
    return tuple(taps)


# Crossover of the convolution forms, measured on 2 CPUs with OpenBLAS
# on one thread in float32, as (folded time) / (spectral time) for a
# forward pass plus both gradients, C = F, kt = 16, medians of 9 over
# two runs:
#
#   rows x batch      2x8        1x16       2x16       1x32
#   C=64, T=256    1.45-1.61  2.05-2.19  2.25-2.28  2.72-2.76
#   C=64, T=128    1.22-1.23  1.51       2.06-2.20  3.03-3.32
#   C=64, T=32     0.66-0.77  0.99-1.02  1.13-1.20  1.37-1.78
#   C=8,  T=128    0.52-0.76  0.59-0.63  1.07-1.45  0.65-0.69
#
# From rows x batch 32 on the spectral form wins at 64 maps at every
# length. At 16 it already wins the longer stages but loses or ties
# stage 5 (T = 32); the threshold stays at 32. At 8 maps it loses at
# nearly every shape, so networks narrower than 32 maps stay folded in
# every stage. The first stage has one input map, so each
# per-frequency product is a 1-deep outer product: the spectral form
# took 2.7x as long as a column GEMM there at batch 64.
#
# The folded first stage runs _FOLDED_CHUNK records at a time through
# bias, ReLU and pooling. Default first stage at batch 64, forward pass
# plus gradients, medians of 9 (2 MiB of L2 per core):
#
#   records per chunk    1     2     4     8     16    64 (whole batch)
#   ms                 94.4  76.1  75.8  82.1  84.9  118.4
#
# 2 and 4 tie; 2 keeps each chunk's output at 1 MB.
_FOLDED_CHUNK = 2


def _conv_form(x_shape, w_shape) -> str:
    """Name of the form, a key of ``_FORMS``, that runs this convolution."""
    r_dim, b_dim, _, _ = x_shape
    if w_shape[2] >= 32 and r_dim * b_dim >= 32:
        return "spectral"
    return "folded"


def _pool_slots(x, pr, pt):
    """Strided views of each window slot of ``x``, in row-major order.

    Slot ``i * pt + j`` holds element (i, j) of every pr x pt window of
    the (R, B, T, C) activation; no data is copied.
    """
    r_dim, b_dim, t_dim, c_dim = x.shape
    v = x.reshape(r_dim // pr, pr, b_dim, t_dim // pt, pt, c_dim)
    return [v[:, i, :, :, j] for i in range(pr) for j in range(pt)]


def _maxpool(x, pr, pt, keep):
    """Max over each pr x pt (row, time) window, and the window index.

    The index is computed only when ``keep`` (the training pass needs it
    to route gradients), else it is None. It is the int8 slot
    ``i * pt + j`` of the first maximum in row-major window order, the
    tie rule of ``argmax`` (for windows without NaN): the count of
    leading slots that differ from the maximum.
    """
    slots = _pool_slots(x, pr, pt)
    out = slots[0].copy()
    for slot in slots[1:]:
        np.maximum(out, slot, out=out)
    if not keep:
        return out, None
    arg = np.zeros(out.shape, dtype=np.int8)
    before_max = np.ones(out.shape, dtype=bool)
    for slot in slots[:-1]:
        before_max &= slot != out
        arg += before_max
    return out, arg


def _maxpool_grad(dy, arg, in_shape, pr, pt):
    """Route each pooled gradient to the window slot named by ``arg``.

    ``arg`` is the int8 index from ``_maxpool``. Each slot receives
    ``dy`` where ``arg`` names it and +0.0 elsewhere, as a scatter into
    zeros would. The selection multiplies the integer bit patterns by
    the 0/1 mask, because a float multiply would leave -0.0 (or NaN)
    behind negative (or non-finite) gradients.
    """
    bits = np.dtype(f"i{dy.itemsize}")
    dx = np.empty(in_shape, dtype=dy.dtype)
    for k, slot in enumerate(_pool_slots(dx.view(bits), pr, pt)):
        np.multiply(dy.view(bits), arg == k, out=slot)
    return dx


def _bias_relu_pool(conv, b, pr, pt, keep):
    """Bias, ReLU (both in place on ``conv``) and ``_maxpool``."""
    conv += b
    np.maximum(conv, 0.0, out=conv)
    return _maxpool(conv, pr, pt, keep)


def _folded_stage(x, w, b, pad_r, pad_t, pr, pt, keep):
    """A folded stage through pooling, ``_FOLDED_CHUNK`` records at a time.

    Each chunk's convolution output stays in cache from its GEMMs to its
    pooling; only the pooled output and window index are written out.
    """
    r_dim, b_dim, t_dim, _ = x.shape
    out = np.empty((r_dim // pr, b_dim, t_dim // pt, w.shape[3]),
                   dtype=x.dtype)
    arg = np.empty(out.shape, dtype=np.int8) if keep else None
    for lo in range(0, b_dim, _FOLDED_CHUNK):
        part = np.s_[:, lo:lo + _FOLDED_CHUNK]
        conv, _ = _conv_folded(x[part], w, pad_r, pad_t)
        out[part], chunk_arg = _bias_relu_pool(conv, b, pr, pt, keep)
        if keep:
            arg[part] = chunk_arg
    return out, arg


def _folded_stage_grads(dact, arg, x, w, pad_r, pad_t, pr, pt):
    """Weight and bias gradients of ``_folded_stage``, chunk by chunk.

    ``dact`` is the masked pooled gradient and ``x`` the stage input;
    each chunk rebuilds its columns and routes its own gradient.
    """
    dw = np.zeros(w.shape, dtype=x.dtype)
    db = np.zeros(w.shape[3], dtype=x.dtype)
    for lo in range(0, x.shape[1], _FOLDED_CHUNK):
        part = np.s_[:, lo:lo + _FOLDED_CHUNK]
        xs = x[part]
        dconv = _maxpool_grad(dact[part], arg[part],
                              xs.shape[:3] + (w.shape[3],), pr, pt)
        chunk_dw, chunk_db, _ = _conv_folded_grads(
            dconv, w, _folded_cols(xs, w.shape[1], pad_t), pad_r, pad_t,
            need_dx=False)
        dw += chunk_dw
        db += chunk_db
    return dw, db


def _check_input(spec, x):
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1:] != (spec.input_rows, spec.input_time):
        raise ShapeMismatchError(
            f"input must be (batch, {spec.input_rows}, {spec.input_time}), "
            f"got {x.shape}")
    return x


def _check_params(spec, params):
    for name, shape in spec.param_shapes().items():
        if name not in params:
            raise ShapeMismatchError(f"missing parameter {name}")
        if params[name].shape != shape:
            raise ShapeMismatchError(
                f"{name} has shape {params[name].shape}, expected {shape}")


def _forward_impl(spec, params, x, keep, taps=None):
    """Predictions, and the training cache when ``keep``.

    With ``taps`` from ``_blocked_taps`` (inference only, never with
    ``keep``) stages 2-5 run ``_conv_blocked``; without, each stage
    takes the form ``_conv_form`` picks.
    """
    dtype = params["conv1_w"].dtype
    act = np.ascontiguousarray(
        x.astype(dtype, copy=False).transpose(1, 0, 2))[..., None]
    pad_r = _same_pads(spec.kernel_rows)
    pad_t = _same_pads(spec.kernel_time)
    stages = []
    for s, (pr, pt) in enumerate(spec.pool_schedule(), start=1):
        w, b = params[f"conv{s}_w"], params[f"conv{s}_b"]
        form = _conv_form(act.shape, w.shape)
        conv_shape = act.shape[:3] + w.shape[3:]
        if s == 1:
            # one input map, so no input gradient: chunks of records
            saved = act
            act, arg = _folded_stage(act, w, b, pad_r, pad_t, pr, pt, keep)
        elif taps is not None:
            saved = None
            act, arg = _bias_relu_pool(
                _conv_blocked(act, w, taps[s - 2], pad_r, pad_t), b, pr, pt,
                keep)
        else:
            # the input goes in without a caller name, so a spectral
            # stage frees it once its spectrum exists (CPython 3.11 on;
            # older ones hold call arguments until the return)
            held = [act]
            del act
            conv, saved = _FORMS[form][0](held.pop(), w, pad_r, pad_t)
            act, arg = _bias_relu_pool(conv, b, pr, pt, keep)
            del conv
        if keep:
            stages.append({"saved": saved, "form": form, "arg": arg,
                           "mask": act > 0, "pre_pool_shape": conv_shape})
        del saved

    flat = act[0].reshape(act.shape[1], -1)
    z1 = flat @ params["dense1_w"] + params["dense1_b"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params["dense2_w"] + params["dense2_b"]
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ params["output_w"] + params["output_b"]
    bound = np.nextafter(dtype.type(1.0), dtype.type(0.0))
    pred = np.clip(np.tanh(z3[:, 0]), -bound, bound)
    cache = {"stages": stages, "flat": flat, "a1": a1, "a2": a2,
             "flat_shape": act.shape} if keep else None
    return pred, cache


def forward(spec: NetworkSpec, params: dict, x) -> np.ndarray:
    """Predictions in (-1, 1) for a batch of (rows, time) inputs."""
    x = _check_input(spec, x)
    _check_params(spec, params)
    pred, _ = _forward_impl(spec, params, x, keep=False)
    return pred


def backward(spec: NetworkSpec, params: dict, x, labels):
    """Mean-squared-error loss and exact gradients for every parameter.

    ``labels`` are normalized targets in [-1, 1]. Gradient arrays
    mirror the parameter shapes one to one.

    Each stage's cache entry (column buffer, input spectrum or stage
    input, window index, pooled mask) is taken out of the cache and
    freed once that stage's gradients exist; a folded stage drops its
    column buffer before its input gradient builds columns of its own.
    The ReLU mask is applied to the pooled gradient before routing:
    a routed slot holds its window's maximum, so its ReLU output is
    positive exactly when the pooled output is, and unrouted slots
    are +0.0 either way. This matches masking the routed gradient bit
    for bit on finite activations; a window holding NaN could route
    differently, but a NaN activation already makes the loss
    non-finite.
    """
    x = _check_input(spec, x)
    _check_params(spec, params)
    labels = np.asarray(labels)
    if labels.shape != (x.shape[0],):
        raise ShapeMismatchError(
            f"labels must be ({x.shape[0]},), got {labels.shape}")
    if np.any(np.abs(labels) > 1.0):
        raise InputError("labels must lie in [-1, 1]")

    dtype = params["conv1_w"].dtype
    labels = labels.astype(dtype, copy=False)
    pred, cache = _forward_impl(spec, params, x, keep=True)
    batch = x.shape[0]
    residual = pred - labels
    loss = float(np.mean(residual ** 2))

    grads = {}
    dpred = (2.0 / batch) * residual
    dz3 = (dpred * (1.0 - pred ** 2))[:, None].astype(dtype)
    a2, a1, flat = cache["a2"], cache["a1"], cache["flat"]
    grads["output_w"] = a2.T @ dz3
    grads["output_b"] = dz3.sum(axis=0)
    dz2 = (dz3 @ params["output_w"].T) * (a2 > 0)
    grads["dense2_w"] = a1.T @ dz2
    grads["dense2_b"] = dz2.sum(axis=0)
    dz1 = (dz2 @ params["dense2_w"].T) * (a1 > 0)
    grads["dense1_w"] = flat.T @ dz1
    grads["dense1_b"] = dz1.sum(axis=0)

    dact = (dz1 @ params["dense1_w"].T).reshape(cache["flat_shape"])
    pad_r = _same_pads(spec.kernel_rows)
    pad_t = _same_pads(spec.kernel_time)
    schedule = spec.pool_schedule()
    stages = cache.pop("stages")
    for s in range(spec.conv_stages, 0, -1):
        stage = stages.pop()
        pr, pt = schedule[s - 1]
        w = params[f"conv{s}_w"]
        dact *= stage.pop("mask")
        if s == 1:
            dw, db = _folded_stage_grads(dact, stage.pop("arg"),
                                         stage.pop("saved"), w, pad_r, pad_t,
                                         pr, pt)
            dact = None
        else:
            # the pooled gradient is dropped once routed, and the routed
            # gradient and the saved input go in without a caller name,
            # so the form can free them part way (CPython 3.11 on; older
            # ones hold call arguments until the return)
            held = [_maxpool_grad(dact, stage.pop("arg"),
                                  stage["pre_pool_shape"], pr, pt)]
            del dact
            dw, db, dact = _FORMS[stage["form"]][1](
                held.pop(), w, stage.pop("saved"), pad_r, pad_t, need_dx=True)
        grads[f"conv{s}_w"] = dw
        grads[f"conv{s}_b"] = db
    return loss, grads
