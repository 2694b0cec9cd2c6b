"""Training loop and DoA inference for the regression network.

Records are windowed around the detected echo, split into real and
imaginary rows per channel, normalized by the RMS magnitude over the
detected window, and regressed against labels scaled so that +-90
degrees maps to +-1.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .. import container
from ..doa_music import CONVERGED, DoaEstimate
from ..errors import (
    EchoNotFoundError,
    EmptyDatasetError,
    IncompatibleCheckpointError,
    InputError,
    TrainingDivergedError,
)
from ..signal_sim import (
    DETECTION_THRESHOLD,
    ComplexBaseband,
    EchoWindow,
    _echo_windows,
    detect_echo_window,
)
from .adam import AdamHyper, AdamState, adam_step
from .checkpoint import Checkpoint
from .network import NetworkSpec, backward, init_params, _forward_impl

ANGLE_SCALE_DEG = 90.0


@dataclass(frozen=True)
class TrainConfig:
    """Optimization schedule; epochs default fits a desk-scale budget."""

    epochs: int = 12
    batch_size: int = 64
    train_fraction: float = 0.8
    shuffle_seed: int = 0
    patience: int | None = None
    mirror_augment: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InputError("epochs and batch_size must be positive")
        if not 0.0 < self.train_fraction < 1.0:
            raise InputError("train_fraction must lie in (0, 1)")
        if self.patience is not None and self.patience < 0:
            raise InputError("patience must be non-negative")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


# permissive gate for inference: only inputs with no signal at all
# (relative to their own noise floor) report the 0-degree fallback
GATE_THRESHOLD_FACTOR = 1.5


def _check_rows(base: ComplexBaseband) -> None:
    if base.channels * 2 != NetworkSpec.input_rows:
        raise IncompatibleCheckpointError(
            f"{base.channels}-channel record feeds {base.channels * 2} rows, "
            f"network expects {NetworkSpec.input_rows}")


def _center_window(base: ComplexBaseband, spec: NetworkSpec) -> EchoWindow:
    n = base.samples_per_channel
    half = min(n, spec.input_time) // 2
    return EchoWindow(start=max(0, n // 2 - half),
                      stop=min(n, n // 2 + half), tof_s=math.nan)


def _crop_window(base: ComplexBaseband, spec: NetworkSpec):
    """Echo window when confidently detected, else the record center."""
    try:
        return detect_echo_window(base)
    except EchoNotFoundError:
        return _center_window(base, spec)


def baseband_to_input(base: ComplexBaseband, spec: NetworkSpec,
                      window=None):
    """Network input rows for one record.

    Crops (or zero-pads) ``input_time`` samples centered on the given
    window (the confidently detected echo, else the record center),
    interleaves channels as (re, im) row pairs, and divides by the RMS
    magnitude over the window.
    """
    _check_rows(base)
    if window is None:
        window = _crop_window(base, spec)
    n = base.samples_per_channel
    center = (window.start + window.stop) // 2
    t_len = spec.input_time
    lo = center - t_len // 2
    src_lo, src_hi = max(0, lo), min(n, lo + t_len)
    crop = np.zeros((base.channels, t_len), dtype=complex)
    crop[:, src_lo - lo:src_hi - lo] = base.data[:, src_lo:src_hi]

    rms = math.sqrt(float(np.mean(
        np.abs(base.data[:, window.start:window.stop]) ** 2)))
    if rms > 0.0:
        crop /= rms
    rows = np.empty((spec.input_rows, t_len), dtype=np.float32)
    rows[0::2] = crop.real
    rows[1::2] = crop.imag
    return rows


def prepare_inputs(records, spec: NetworkSpec):
    """Stacked network inputs and normalized labels for a record list.

    Every record trains: undetected echoes get record-center windows,
    teaching the network to answer near zero on uninformative input.
    """
    inputs = np.zeros((len(records), spec.input_rows, spec.input_time),
                      dtype=np.float32)
    labels = np.zeros(len(records), dtype=np.float32)
    for i, record in enumerate(records):
        inputs[i] = baseband_to_input(record.baseband, spec)
        labels[i] = record.doa_deg / ANGLE_SCALE_DEG
    return inputs, labels


def _mirror(inputs, labels):
    # swapping the two sensors' (re, im) row blocks mirrors the scene
    flipped = inputs[:, (2, 3, 0, 1), :]
    return flipped, -labels


def _val_loss(spec, params, inputs, labels, batch_size):
    total = 0.0
    for lo in range(0, len(labels), batch_size):
        x = inputs[lo:lo + batch_size]
        pred, _ = _forward_impl(spec, params, x, keep=False)
        total += float(np.sum((pred - labels[lo:lo + batch_size]) ** 2))
    return total / len(labels)


def training_split(dataset, train_config: TrainConfig):
    """The (training, held-out) datasets ``train`` fits and selects on.

    EmptyDatasetError when the dataset or its held-out part is empty.
    """
    from ..datasets import split as split_dataset

    if len(dataset.records) == 0:
        raise EmptyDatasetError("training needs at least one record")
    train_ds, val_ds = split_dataset(dataset, train_config.train_fraction,
                                     train_config.shuffle_seed)
    if not val_ds.records:
        raise EmptyDatasetError(
            f"the split gives {len(train_ds.records)} training and "
            f"0 held-out records; training needs at least one held-out "
            f"record")
    return train_ds, val_ds


def train(dataset, spec: NetworkSpec, train_config: TrainConfig,
          adam_hyper: AdamHyper = AdamHyper(), seed: int = 0):
    """Fit the network; returns the best-held-out checkpoint and history.

    Deterministic for a fixed seed in single-threaded mode: the split
    (``training_split``), initialization, and per-epoch shuffles all
    derive from ``seed`` and the config's shuffle seed. When no epoch's
    held-out loss improves on infinity (it is NaN throughout), the
    checkpoint holds the initial weights, ``best_epoch`` 0; they are
    drawn again at the end rather than copied at the start.
    """
    train_ds, val_ds = training_split(dataset, train_config)
    x_train, y_train = prepare_inputs(train_ds.records, spec)
    x_val, y_val = prepare_inputs(val_ds.records, spec)
    if train_config.mirror_augment:
        x_mir, y_mir = _mirror(x_train, y_train)
        x_train = np.concatenate([x_train, x_mir])
        y_train = np.concatenate([y_train, y_mir])

    params = init_params(spec, seed, dtype=np.float32)
    state = AdamState(params)
    rng = np.random.default_rng(seed)
    history = []
    best_val = math.inf
    best_params = None
    best_epoch = 0
    since_best = 0
    n = len(y_train)
    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(n)
        running = 0.0
        for lo in range(0, n, train_config.batch_size):
            idx = order[lo:lo + train_config.batch_size]
            loss, grads = backward(spec, params, x_train[idx], y_train[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}")
            adam_step(params, grads, adam_hyper, state)
            running += loss * len(idx)
        train_loss = running / n
        val_loss = _val_loss(spec, params, x_val, y_val,
                             train_config.batch_size)
        history.append(EpochStats(epoch=epoch, train_loss=train_loss,
                                  val_loss=val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if (train_config.patience is not None
                    and since_best > train_config.patience):
                break

    if best_params is None:
        # no epoch improved on the start: its weights, drawn again
        best_params = init_params(spec, seed, dtype=np.float32)
    checkpoint = Checkpoint(
        spec=spec,
        params=best_params,
        metadata={
            "seed": seed,
            "best_epoch": best_epoch,
            "best_val_loss": best_val,
            "final_train_loss": history[-1].train_loss,
            "final_val_loss": history[-1].val_loss,
            "epochs_run": len(history),
        })
    return checkpoint, history


def write_history(history, path) -> None:
    """The ``EpochStats`` of ``history`` as a text table, one row an epoch."""
    container.write_table(path, [f.name for f in fields(EpochStats)],
                          map(astuple, history))


def predict_doa(checkpoint: Checkpoint, base: ComplexBaseband) -> DoaEstimate:
    """Angle estimate from a trained network.

    The tanh output in (-1, 1) scales to degrees by a factor of 90.
    When echo detection at ``GATE_THRESHOLD_FACTOR`` fails the estimator
    reports the 0-degree fallback, mirroring the MUSIC convention. The
    gate is permissive: the network is trained on noisy windows and
    regresses toward zero on uninformative input by itself, so only
    signal-free records are gated out. One detection pass over the
    record yields both the gate and the crop window of
    ``baseband_to_input``. The forward pass runs on the checkpoint's
    float32 weights, ``params32``, and its stages 2-5 in overlap-save
    blocks on the checkpoint's cached ``tap_spectra`` (folded, as in
    ``forward``, for a network narrower than 32 maps). A record that is
    not a pair (two channels for the network's four input rows) raises
    before the gate, so even a signal-free record cannot pass for a
    fallback.
    """
    _check_rows(base)
    gate, crop = _echo_windows(base, (GATE_THRESHOLD_FACTOR, DETECTION_THRESHOLD))
    if gate is None:
        return DoaEstimate.fallback()
    if crop is None:
        crop = _center_window(base, checkpoint.spec)
    rows = baseband_to_input(base, checkpoint.spec, crop)
    pred, _ = _forward_impl(checkpoint.spec, checkpoint.params32, rows[None],
                            keep=False, taps=checkpoint.tap_spectra)
    angle = float(pred[0]) * ANGLE_SCALE_DEG
    return DoaEstimate(angle_deg=angle, status=CONVERGED,
                       ambiguity_deg=(angle,))
