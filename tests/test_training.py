import hashlib
import json
import math
import struct

import numpy as np
import pytest

from echodoa.datasets import SweepSpec, generate_dataset, split
from echodoa.errors import (
    EmptyDatasetError,
    FileFormatError,
    IncompatibleCheckpointError,
    InputError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from echodoa.doa_music import CONVERGED, FALLBACK
from echodoa.neural import (
    AdamHyper,
    Checkpoint,
    NetworkSpec,
    TrainConfig,
    baseband_to_input,
    forward,
    load_checkpoint,
    predict_doa,
    prepare_inputs,
    save_checkpoint,
    train,
)
from echodoa.neural.network import init_params
from echodoa.neural.training import GATE_THRESHOLD_FACTOR, _mirror
from echodoa.datasets import Dataset
from echodoa.signal_sim import (
    DETECTION_THRESHOLD,
    ArrayGeometry,
    ComplexBaseband,
    SimConfig,
    _echo_windows,
    wavelength,
)

CFG = SimConfig()
GEO = ArrayGeometry.pair(wavelength(CFG) / 2.0)

# small architecture keeps the training tests fast; time length 256
# still covers the echo support comfortably
TINY = NetworkSpec(input_time=256, feature_maps=8, dense_widths=(16, 8))


def tiny_dataset(angles, records_per_cell, snrs=(math.inf,), seed=0):
    spec = SweepSpec(angles_deg=angles, snrs_db=snrs,
                     records_per_cell=records_per_cell, master_seed=seed)
    return generate_dataset(spec)


def four_channels(base):
    """The pair's record twice over: eight rows for a four-row network."""
    return ComplexBaseband(data=np.vstack([base.data, base.data]),
                           sample_rate=base.sample_rate)


@pytest.fixture(scope="module")
def noiseless_32():
    return tiny_dataset(angles=(-45.0, -15.0, 15.0, 45.0),
                        records_per_cell=8)


class TestFeatureExtraction:
    def test_input_shape_and_rows(self, noiseless_32):
        x, y = prepare_inputs(noiseless_32.records, TINY)
        assert x.shape == (32, 4, 256)
        assert y.min() >= -1.0 and y.max() <= 1.0
        rec = noiseless_32.records[0]
        assert y[0] == pytest.approx(rec.doa_deg / 90.0)

    def test_rows_are_interleaved_re_im(self, noiseless_32):
        rec = noiseless_32.records[0]
        rows = baseband_to_input(rec.baseband, TINY)
        # real rows correlate with their own imaginary rows in envelope
        assert rows.shape == (4, 256)
        env0 = np.hypot(rows[0], rows[1])
        env1 = np.hypot(rows[2], rows[3])
        assert env0.max() > 0
        np.testing.assert_allclose(env0.max(), env1.max(), rtol=0.05)

    def test_channel_count_mismatch(self, noiseless_32):
        with pytest.raises(IncompatibleCheckpointError):
            baseband_to_input(four_channels(noiseless_32.records[0].baseband),
                              TINY)

    def test_mirror_swaps_channels_and_negates(self, noiseless_32):
        x, y = prepare_inputs(noiseless_32.records[:4], TINY)
        xm, ym = _mirror(x, y)
        np.testing.assert_array_equal(xm[:, 0], x[:, 2])
        np.testing.assert_array_equal(xm[:, 1], x[:, 3])
        np.testing.assert_array_equal(ym, -y)


MEMORIZE = TrainConfig(epochs=200, batch_size=8, train_fraction=0.9,
                       shuffle_seed=0)


@pytest.fixture(scope="module")
def memorization_runs(noiseless_32):
    # each train seed runs once per module, shared by the tests that read it
    runs = {}

    def run(seed):
        if seed not in runs:
            runs[seed] = train(noiseless_32, TINY, MEMORIZE, AdamHyper(),
                               seed=seed)
        return runs[seed]

    return run


# train seeds whose returned weights miss 1 degree on their own training
# records: 4.433, 5.320 and 1.852 degrees for seeds 0, 1 and 3 (seeds 2
# and 4 read 0.242 and 0.878). The fixture's silent stretches hold only
# demodulation round-off, so where these land moves with it. CHANGES.md
# records the two causes as FOUND: the returned epoch is the one with the
# lowest loss on the four held-out records, which stay near 7.8 degrees,
# so it is arbitrary; and ADAM at batch 8 swings the training fit late in
# training
RETURNED_WEIGHTS_MISS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="best-held-out epoch is arbitrary on four held-out records")


class TestTrain:
    def test_memorizes_noiseless_records(self, memorization_runs):
        _, history = memorization_runs(0)
        # RMSE bounds MAE from above, so the final train loss certifies
        # memorization without reloading the final-epoch weights
        final_rmse_deg = math.sqrt(history[-1].train_loss) * 90.0
        assert final_rmse_deg < 1.0

    @pytest.mark.parametrize("seed", [
        pytest.param(0, marks=RETURNED_WEIGHTS_MISS),
        pytest.param(1, marks=RETURNED_WEIGHTS_MISS),
        2,
        pytest.param(3, marks=RETURNED_WEIGHTS_MISS),
        4,
    ])
    def test_returned_weights_fit_training_records(
            self, noiseless_32, memorization_runs, seed):
        checkpoint, _ = memorization_runs(seed)
        train_ds, _ = split(noiseless_32, MEMORIZE.train_fraction,
                            MEMORIZE.shuffle_seed)
        x, y = prepare_inputs(train_ds.records, TINY)
        # a forward pass of the returned weights over the training
        # records; RMSE bounds MAE from above
        pred = forward(TINY, checkpoint.params, x).astype(np.float64)
        rmse_deg = math.sqrt(float(np.mean((pred - y) ** 2))) * 90.0
        assert rmse_deg < 1.0, (seed, rmse_deg)

    def test_bit_reproducible_history(self, noiseless_32):
        config = TrainConfig(epochs=3, batch_size=8, shuffle_seed=0)
        _, h1 = train(noiseless_32, TINY, config, AdamHyper(), seed=7)
        _, h2 = train(noiseless_32, TINY, config, AdamHyper(), seed=7)
        assert [(e.train_loss, e.val_loss) for e in h1] \
            == [(e.train_loss, e.val_loss) for e in h2]

    def test_checkpoint_holds_best_epoch(self, noiseless_32):
        config = TrainConfig(epochs=5, batch_size=8, shuffle_seed=0)
        checkpoint, history = train(noiseless_32, TINY, config,
                                    AdamHyper(), seed=1)
        best = min(history, key=lambda h: h.val_loss)
        assert checkpoint.metadata["best_epoch"] == best.epoch
        assert checkpoint.metadata["best_val_loss"] == pytest.approx(
            best.val_loss)

    def test_no_improving_epoch_returns_the_initial_weights(
            self, noiseless_32, monkeypatch):
        # a NaN held-out loss never beats infinity, so no epoch is kept
        from echodoa.neural import training
        monkeypatch.setattr(training, "_val_loss",
                            lambda *args: math.nan)
        config = TrainConfig(epochs=2, batch_size=8, shuffle_seed=0)
        checkpoint, history = train(noiseless_32, TINY, config,
                                    AdamHyper(), seed=5)
        assert len(history) == 2
        assert checkpoint.metadata["best_epoch"] == 0
        assert checkpoint.metadata["best_val_loss"] == math.inf
        want = init_params(TINY, 5, dtype=np.float32)
        assert checkpoint.params.keys() == want.keys()
        for name, value in want.items():
            assert checkpoint.params32[name].tobytes() == value.tobytes()
            assert checkpoint.params[name].tobytes() == value.astype(
                np.float64).tobytes(), name

    def test_shuffled_labels_do_not_generalize(self):
        ds = tiny_dataset(angles=(-40.0, 0.0, 40.0), records_per_cell=10)
        rng = np.random.default_rng(0)
        labels = np.array([r.doa_deg for r in ds.records])
        rng.shuffle(labels)
        for rec, lab in zip(ds.records, labels):
            rec.doa_deg = float(lab)
        config = TrainConfig(epochs=12, batch_size=8, shuffle_seed=0)
        _, history = train(ds, TINY, config, AdamHyper(), seed=0)
        label_var = float(np.var(labels / 90.0))
        assert history[-1].val_loss > 0.5 * label_var

    def test_empty_dataset(self):
        ds = Dataset(config=CFG, geometry=GEO, records=[])
        with pytest.raises(EmptyDatasetError):
            train(ds, TINY, TrainConfig(epochs=1), AdamHyper(), seed=0)

    @pytest.mark.parametrize("angles", [(0.0,), (0.0, 10.0)])
    def test_split_without_held_out_record(self, angles):
        # one record per cell: every record lands on the training side
        ds = tiny_dataset(angles, records_per_cell=1)
        n = len(angles)
        with pytest.raises(EmptyDatasetError,
                           match=f"gives {n} training and 0 held-out records"):
            train(ds, TINY, TrainConfig(epochs=1), AdamHyper(), seed=0)

    def test_divergence_raises(self, noiseless_32):
        poisoned = Dataset(config=noiseless_32.config,
                           geometry=noiseless_32.geometry,
                           records=list(noiseless_32.records))
        bad = ComplexBaseband(
            data=np.full_like(poisoned.records[0].baseband.data, np.nan),
            sample_rate=poisoned.records[0].baseband.sample_rate)
        from dataclasses import replace as dc_replace
        import copy
        first = copy.copy(poisoned.records[0])
        first.baseband = bad
        poisoned.records[0] = first
        with pytest.raises(TrainingDivergedError):
            train(poisoned, TINY, TrainConfig(epochs=1, batch_size=8),
                  AdamHyper(), seed=0)

    def test_early_stop_patience(self, noiseless_32):
        config = TrainConfig(epochs=50, batch_size=8, shuffle_seed=0,
                             patience=2)
        _, history = train(noiseless_32, TINY, config, AdamHyper(), seed=2)
        assert len(history) < 50


class TestTrainingInputChecks:
    @pytest.mark.parametrize("name", ["learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-3])
    def test_adam_rejects_rate_or_eps_not_positive_and_finite(self, name,
                                                             value):
        with pytest.raises(InputError, match=name):
            AdamHyper(**{name: value})

    def test_rejects_negative_patience(self):
        with pytest.raises(InputError, match="patience"):
            TrainConfig(patience=-1)
        assert TrainConfig(patience=0).patience == 0


class TestPredict:
    def test_zero_network_predicts_zero_converged(self, noiseless_32):
        params = {k: np.zeros(s) for k, s in TINY.param_shapes().items()}
        checkpoint = Checkpoint(spec=TINY, params=params)
        est = predict_doa(checkpoint, noiseless_32.records[0].baseband)
        assert est.status == CONVERGED
        assert est.angle_deg == 0.0
        assert est.ambiguity_deg == (0.0,)

    def test_output_scaling_to_degrees(self, noiseless_32):
        # bias-only network: output tanh(atanh(0.5)) = 0.5 -> 45 degrees
        params = {k: np.zeros(s) for k, s in TINY.param_shapes().items()}
        params["output_b"] = np.array([math.atanh(0.5)])
        checkpoint = Checkpoint(spec=TINY, params=params)
        est = predict_doa(checkpoint, noiseless_32.records[0].baseband)
        assert est.angle_deg == pytest.approx(45.0, abs=1e-4)

    def test_zero_input_falls_back(self):
        params = {k: np.zeros(s) for k, s in TINY.param_shapes().items()}
        checkpoint = Checkpoint(spec=TINY, params=params)
        silent = ComplexBaseband(data=np.zeros((2, 600), dtype=complex),
                                 sample_rate=CFG.effective_rate)
        est = predict_doa(checkpoint, silent)
        assert est.status == FALLBACK
        assert est.angle_deg == 0.0

    def test_channel_mismatch_raises_before_the_gate(self, noiseless_32):
        # a signal-free record must not pass for a fallback either
        params = {k: np.zeros(s) for k, s in TINY.param_shapes().items()}
        checkpoint = Checkpoint(spec=TINY, params=params)
        silent = ComplexBaseband(data=np.zeros((4, 600), dtype=complex),
                                 sample_rate=CFG.effective_rate)
        for base in (silent, four_channels(noiseless_32.records[0].baseband)):
            with pytest.raises(IncompatibleCheckpointError):
                predict_doa(checkpoint, base)

    def test_trained_model_recovers_angles(self, noiseless_32):
        config = TrainConfig(epochs=60, batch_size=8, shuffle_seed=0)
        checkpoint, _ = train(noiseless_32, TINY, config, AdamHyper(),
                              seed=0)
        errors = []
        for rec in noiseless_32.records:
            est = predict_doa(checkpoint, rec.baseband)
            assert est.status == CONVERGED
            errors.append(abs(est.angle_deg - rec.doa_deg))
        assert float(np.mean(errors)) < 5.0


class TestWeightCache:
    def test_predict_matches_float32_forward_exactly(self, noiseless_32):
        from echodoa.neural.network import forward
        params = init_params(TINY, seed=4, dtype=np.float64)
        checkpoint = Checkpoint(spec=TINY, params=params)
        cast = {k: v.astype(np.float32) for k, v in params.items()}
        for rec in noiseless_32.records[::5]:
            est = predict_doa(checkpoint, rec.baseband)
            rows = baseband_to_input(rec.baseband, TINY)
            want = float(forward(TINY, cast, rows[None])[0]) * 90.0
            assert est.status == CONVERGED
            assert est.angle_deg == want

    def test_weights_are_read_only(self):
        checkpoint = Checkpoint(spec=TINY,
                                params=init_params(TINY, 0, np.float64))
        for table in (checkpoint.params, checkpoint.params32):
            with pytest.raises(ValueError):
                table["conv1_w"][0, 0, 0, 0] = 1.0
            with pytest.raises(TypeError):
                table["conv1_w"] = np.zeros(TINY.param_shapes()["conv1_w"])
        with pytest.raises(AttributeError):
            checkpoint.params = {}

    def test_callers_arrays_stay_writable_and_unshared(self):
        params = init_params(TINY, 0, np.float64)
        before = {k: v.copy() for k, v in params.items()}
        checkpoint = Checkpoint(spec=TINY, params=params)
        for name, array in params.items():
            assert array.flags.writeable
            array += 1.0
            assert (checkpoint.params32[name].tobytes()
                    == before[name].astype(np.float32).tobytes())
            assert (checkpoint.params[name].tobytes()
                    == before[name].astype(np.float32).astype(
                        np.float64).tobytes())
            assert checkpoint.params32[name].dtype == np.float32

    def test_pickle_round_trip_rebuilds_cache(self):
        import pickle
        checkpoint = Checkpoint(spec=TINY,
                                params=init_params(TINY, 1, np.float64),
                                metadata={"seed": 1})
        copy = pickle.loads(pickle.dumps(checkpoint))
        assert copy.metadata == {"seed": 1}
        for name in TINY.param_shapes():
            assert not copy.params[name].flags.writeable
            assert not copy.params32[name].flags.writeable
            assert (copy.params32[name].tobytes()
                    == checkpoint.params32[name].tobytes())

    def test_unpickle_checks_what_it_takes_over(self):
        from echodoa.neural.checkpoint import _unpickle
        params32 = {k: v.astype(np.float32)
                    for k, v in init_params(TINY, 1, np.float64).items()}
        taken = _unpickle(TINY, dict(params32), {})
        for name, array in params32.items():
            assert taken.params32[name] is array
            assert not array.flags.writeable
        wide = {**params32, "output_b": np.zeros(1)}
        with pytest.raises(TypeError):
            _unpickle(TINY, wide, {})
        short = {**params32, "output_b": np.zeros(2, np.float32)}
        with pytest.raises(ShapeMismatchError):
            _unpickle(TINY, short, {})
        with pytest.raises(ShapeMismatchError):
            _unpickle(TINY, {k: params32[k] for k in list(params32)[1:]}, {})


def two_pass_predict(checkpoint, base):
    """predict_doa composed of two separate detections: gate, then crop."""
    from echodoa.neural.network import forward
    if not detects(base, GATE_THRESHOLD_FACTOR):
        return 0.0, FALLBACK
    rows = baseband_to_input(base, checkpoint.spec)
    pred = forward(checkpoint.spec, dict(checkpoint.params32), rows[None])
    return float(pred[0]) * 90.0, CONVERGED


def detects(base, factor):
    return _echo_windows(base, (factor,)) != [None]


class TestOnePassDetection:
    def test_matches_two_pass_prediction(self, noiseless_32):
        checkpoint = Checkpoint(spec=TINY,
                                params=init_params(TINY, seed=6,
                                                   dtype=np.float64))
        rng = np.random.default_rng(3)
        noise = rng.normal(size=(2, 1000)) + 1j * rng.normal(size=(2, 1000))
        cases = {
            "gated": ComplexBaseband(data=np.zeros((2, 1000), dtype=complex),
                                     sample_rate=CFG.effective_rate),
            "center_cropped": ComplexBaseband(data=noise,
                                              sample_rate=CFG.effective_rate),
            "detected": noiseless_32.records[3].baseband,
        }
        assert not detects(cases["gated"], GATE_THRESHOLD_FACTOR)
        assert detects(cases["center_cropped"], GATE_THRESHOLD_FACTOR)
        assert not detects(cases["center_cropped"], DETECTION_THRESHOLD)
        assert detects(cases["detected"], DETECTION_THRESHOLD)
        for name, base in cases.items():
            est = predict_doa(checkpoint, base)
            assert (est.angle_deg, est.status) == two_pass_predict(
                checkpoint, base), name

    def test_detects_once_per_estimate(self, noiseless_32, monkeypatch):
        import echodoa.signal_sim as signal_sim
        calls = []
        one_pass = signal_sim._echo_windows

        def counted(*args, **kwargs):
            calls.append(args[1])
            return one_pass(*args, **kwargs)

        monkeypatch.setattr("echodoa.neural.training._echo_windows", counted)
        monkeypatch.setattr(signal_sim, "_echo_windows", counted)
        checkpoint = Checkpoint(spec=TINY,
                                params=init_params(TINY, seed=6,
                                                   dtype=np.float64))
        predict_doa(checkpoint, noiseless_32.records[0].baseband)
        assert calls == [(GATE_THRESHOLD_FACTOR, DETECTION_THRESHOLD)]


def _rewrite_header(path, edit):
    """Re-frame a saved checkpoint with ``edit(header)`` and a valid digest.

    An edit that returns bytes supplies the raw header itself.
    """
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 5)
    header = edit(json.loads(raw[9:9 + length]))
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    body = raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + length:-32]
    path.write_bytes(body + hashlib.sha256(body).digest())


def _set(key, value):
    return lambda header: {**header, key: value}


def _set_spec(key, value):
    return lambda header: {**header, "spec": {**header["spec"], key: value}}


def _drop(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


MALFORMED_HEADERS = {
    "missing spec": _drop("spec"),
    "missing params": _drop("params"),
    "missing normalization": _drop("normalization"),
    "missing metadata": _drop("metadata"),
    "header is a list": lambda header: [header],
    "spec is a list": _set("spec", [4, 256]),
    "unknown spec key": _set_spec("dropout", 1),
    "missing spec key": lambda h: {
        **h, "spec": _drop("kernel_time")(h["spec"])},
    "string spec value": _set_spec("feature_maps", "8"),
    "float spec value": _set_spec("feature_maps", 8.0),
    "invalid spec value": _set_spec("input_rows", 0),
    "dense widths not a list": _set_spec("dense_widths", 16),
    "params is an object": _set("params", {"conv1_w": [4, 16, 1, 8]}),
    "param entry is a list": lambda h: {**h, "params": [
        [e["name"], e["shape"]] for e in h["params"]]},
    "bad shape": lambda h: {**h, "params": [
        {**e, "shape": [1, 2]} if e["name"] == "dense1_w" else e
        for e in h["params"]]},
    "renamed param": lambda h: {**h, "params": [
        {**e, "name": "x"} if e["name"] == "output_b" else e
        for e in h["params"]]},
    "normalization not a string": _set("normalization", 1),
    "other normalization": _set("normalization", "rms_window_v2"),
    "metadata not an object": _set("metadata", [1]),
    "nested too deeply": lambda header: b"[" * 100_000,
}


# TINY's header spec: the four fixed keys and the three settings
SPEC_KEYS = {"input_rows": 4, "input_time": 256, "conv_stages": 5,
             "feature_maps": 8, "kernel_rows": 4, "kernel_time": 16,
             "dense_widths": [16, 8]}


def framed_spec(spec):
    """An EDCK image of zero weights whose manifest and payload fit the
    header ``spec``, computed here from its keys, whatever their values."""
    kr, kt, maps = spec["kernel_rows"], spec["kernel_time"], spec["feature_maps"]
    shapes, in_maps = [], 1
    for s in range(1, spec["conv_stages"] + 1):
        shapes += [(f"conv{s}_w", [kr, kt, in_maps, maps]),
                   (f"conv{s}_b", [maps])]
        in_maps = maps
    widths = [maps * (spec["input_time"] >> spec["conv_stages"]),
              *spec["dense_widths"], 1]
    for name, w_in, w_out in zip(("dense1", "dense2", "output"), widths,
                                 widths[1:]):
        shapes += [(f"{name}_w", [w_in, w_out]), (f"{name}_b", [w_out])]
    header = {"spec": spec, "normalization": "rms_window_v1", "metadata": {},
              "params": [{"name": n, "shape": s} for n, s in shapes]}
    blob = json.dumps(header, sort_keys=True).encode()
    out = bytearray(b"EDCK" + struct.pack("<BI", 1, len(blob)) + blob)
    out += bytes(8 * sum(math.prod(s) for _, s in shapes))
    return bytes(out + hashlib.sha256(out).digest())


class TestMalformedHeader:
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_maps_to_file_format_error(self, case, tmp_path):
        path = tmp_path / "model.edck"
        save_checkpoint(Checkpoint(spec=TINY,
                                   params=init_params(TINY, 0, np.float64)),
                        path)
        _rewrite_header(path, MALFORMED_HEADERS[case])
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("kernel_time", 8), ("conv_stages", 4), ("kernel_rows", 3)])
    def test_other_fixed_spec_value(self, key, value, tmp_path):
        path = tmp_path / "model.edck"
        path.write_bytes(framed_spec(SPEC_KEYS))
        assert load_checkpoint(path).spec == TINY
        # manifest and payload fit the header's spec, so only the fixed
        # value itself is wrong
        path.write_bytes(framed_spec({**SPEC_KEYS, key: value}))
        with pytest.raises(FileFormatError, match=key):
            load_checkpoint(path)

    def test_untouched_header_still_loads(self, tmp_path):
        path = tmp_path / "model.edck"
        save_checkpoint(Checkpoint(spec=TINY,
                                   params=init_params(TINY, 0, np.float64)),
                        path)
        _rewrite_header(path, lambda header: header)
        assert load_checkpoint(path).spec == TINY


class TestCheckpointIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = init_params(TINY, seed=3, dtype=np.float64)
        checkpoint = Checkpoint(spec=TINY, params=params,
                                metadata={"seed": 3, "best_epoch": 1})
        path = tmp_path / "model.edck"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == TINY
        assert loaded.normalization == checkpoint.normalization
        assert loaded.metadata == checkpoint.metadata
        for name in params:
            assert (loaded.params32[name].tobytes()
                    == params[name].astype(np.float32).tobytes())

    def test_corruption_detected(self, tmp_path):
        from echodoa.errors import ChecksumError
        params = init_params(TINY, seed=3, dtype=np.float64)
        path = tmp_path / "model.edck"
        save_checkpoint(Checkpoint(spec=TINY, params=params), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_wrong_magic(self, tmp_path):
        from echodoa.errors import FileFormatError
        path = tmp_path / "model.edck"
        path.write_bytes(b"EDDS" + bytes(64))
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_wrong_shapes_rejected(self):
        params = init_params(TINY, seed=0)
        params["dense1_w"] = params["dense1_w"][:, :4]
        with pytest.raises(ShapeMismatchError):
            Checkpoint(spec=TINY, params=params)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_weight_writes_nothing(self, value, tmp_path):
        params = init_params(TINY, seed=3, dtype=np.float64)
        params["output_b"][0] = value
        path = tmp_path / "model.edck"
        with pytest.raises(InputError,
                           match="output_b: a weight is not finite"):
            save_checkpoint(Checkpoint(spec=TINY, params=params), path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [math.nan, 1e39])
    def test_non_finite_weight_is_refused_on_construction(self, value):
        # 1e39 is finite in float64 and inf once cast to float32, and the
        # cast must not warn (pytest makes a warning an error)
        params = init_params(TINY, seed=3, dtype=np.float64)
        params["output_b"][0] = value
        with pytest.raises(InputError,
                           match="^output_b: a weight is not finite$"):
            Checkpoint(spec=TINY, params=params)

    @pytest.mark.parametrize("version, value", [
        (2, math.nan), (2, math.inf), (1, -math.inf), (1, math.nan),
        (1, 1e39)])
    def test_non_finite_weight_fails_to_load(self, version, value,
                                             tmp_path):
        # framed without save_checkpoint, which would refuse the weight;
        # 1e39 is finite in version 1's float64 and inf once cast
        params = init_params(TINY, seed=3, dtype=np.float64)
        params["conv1_w"][0, 0, 0, 0] = value
        path = tmp_path / "model.edck"
        path.write_bytes(framed_checkpoint(TINY, params, {}, version))
        with pytest.raises(FileFormatError,
                           match="conv1_w: a weight is not finite"):
            load_checkpoint(path)


def framed_checkpoint(spec, weights, metadata, version):
    """The EDCK image built in memory: magic, version, header, weights, hash.

    Version 1 holds ``weights`` as ``<f8``, version 2 as ``<f4``.
    """
    header = {
        "spec": {"input_rows": spec.input_rows,
                 "input_time": spec.input_time,
                 "conv_stages": spec.conv_stages,
                 "feature_maps": spec.feature_maps,
                 "kernel_rows": spec.kernel_rows,
                 "kernel_time": spec.kernel_time,
                 "dense_widths": list(spec.dense_widths)},
        "normalization": "rms_window_v1",
        "metadata": metadata,
        "params": [{"name": n, "shape": list(s)}
                   for n, s in spec.param_shapes().items()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    out = bytearray(b"EDCK" + struct.pack("<BI", version, len(blob)) + blob)
    for name in spec.param_shapes():
        out += np.asarray(weights[name],
                          dtype={1: "<f8", 2: "<f4"}[version]).tobytes()
    out += hashlib.sha256(out).digest()
    return bytes(out)


class TestCheckpointBytes:
    """``save_checkpoint`` writes exactly the version-2 reference framing,
    and ``load_checkpoint`` reads the version-1 one too."""

    @pytest.mark.parametrize("spec", [TINY, NetworkSpec()],
                             ids=["tiny", "default"])
    def test_bytes_equal_reference_and_roundtrip(self, spec, tmp_path):
        metadata = {"seed": 4, "best_epoch": 2, "best_val_loss": 0.125}
        checkpoint = Checkpoint(spec=spec,
                                params=init_params(spec, 4, np.float64),
                                metadata=metadata)
        path = tmp_path / "model.edck"
        save_checkpoint(checkpoint, path)
        assert path.read_bytes() == framed_checkpoint(
            spec, checkpoint.params32, metadata, 2)
        loaded = load_checkpoint(path)
        assert loaded.spec == spec
        assert loaded.normalization == checkpoint.normalization
        assert loaded.metadata == checkpoint.metadata
        for name, value in checkpoint.params32.items():
            assert loaded.params32[name].tobytes() == value.tobytes()
        save_checkpoint(loaded, tmp_path / "again.edck")
        assert (tmp_path / "again.edck").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("spec", [TINY, NetworkSpec()],
                             ids=["tiny", "default"])
    def test_version_1_loads_to_the_float32_cast(self, spec, noiseless_32,
                                                 tmp_path):
        params = init_params(spec, 5, np.float64)
        metadata = {"seed": 5}
        v1 = tmp_path / "v1.edck"
        v1.write_bytes(framed_checkpoint(spec, params, metadata, 1))
        loaded = load_checkpoint(v1)
        assert loaded.spec == spec
        assert loaded.metadata == metadata
        for name, value in params.items():
            assert (loaded.params32[name].tobytes()
                    == value.astype(np.float32).tobytes())
        # saved again it is version 2: the version-1 weights cast to <f4
        v2 = tmp_path / "v2.edck"
        save_checkpoint(loaded, v2)
        assert v2.read_bytes() == framed_checkpoint(spec, params, metadata, 2)
        again = load_checkpoint(v2)
        for rec in noiseless_32.records[::4]:
            ests = [predict_doa(c, rec.baseband) for c in (loaded, again)]
            assert ests[0].status == ests[1].status == CONVERGED
            assert ests[0].angle_deg.hex() == ests[1].angle_deg.hex()

    def test_default_spec_pickle_carries_the_float32_weights_once(self):
        import pickle
        spec = NetworkSpec()
        checkpoint = Checkpoint(spec=spec,
                                params=init_params(spec, 0, np.float64))
        weights = 4 * sum(p.size for p in checkpoint.params32.values())
        assert weights == 4_753_412
        assert weights < len(pickle.dumps(checkpoint)) < weights + 10_000

    def test_peak_memory(self, tmp_path):
        """No step holds a float64 copy of the weights, which alone would
        take twice their float32 size. Building casts the caller's
        arrays once; saving copies no weights; loading holds the file
        and the float32 weights (a version-1 file is twice as large);
        pickling holds the pickle while it is built, and unpickling only
        the weights it reads, which the checkpoint takes over."""
        import pickle
        import tracemalloc

        spec = NetworkSpec()
        params = init_params(spec, 0, np.float64)
        weights = 4 * sum(p.size for p in params.values())
        path, v1 = tmp_path / "model.edck", tmp_path / "v1.edck"
        v1.write_bytes(framed_checkpoint(spec, params, {}, 1))
        built = []
        steps = [
            ("build", lambda: built.append(Checkpoint(spec=spec,
                                                      params=params)), 1.5),
            ("save", lambda: save_checkpoint(built[0], path), 0.05),
            ("load", lambda: load_checkpoint(path), 2.5),
            ("load version 1", lambda: load_checkpoint(v1), 3.5),
            ("pickle", lambda: built.append(pickle.dumps(built[0])), 3.0),
            ("unpickle", lambda: pickle.loads(built[1]), 1.5),
        ]
        for name, step, bound in steps:
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * weights, (name, peak / weights)


class TestMirrorAugmentation:
    def test_mirrored_test_error_matches_unmirrored(self):
        # mirror-augmented training makes the error statistics symmetric
        ds = tiny_dataset(angles=tuple(float(a) for a in range(-60, 61, 10)),
                          records_per_cell=16)
        config = TrainConfig(epochs=80, batch_size=16, shuffle_seed=0,
                             mirror_augment=True)
        checkpoint, _ = train(ds, TINY, config, AdamHyper(), seed=0)
        from echodoa.datasets import split
        _, test = split(ds, 0.8, 0)
        x, y = prepare_inputs(test.records, TINY)
        xm, ym = _mirror(x, y)
        from echodoa.neural.network import forward
        params = {k: v.astype(np.float32)
                  for k, v in checkpoint.params.items()}
        mae = float(np.mean(np.abs(forward(TINY, params, x) - y)))
        mae_m = float(np.mean(np.abs(forward(TINY, params, xm) - ym)))
        assert abs(mae - mae_m) <= 0.2 * max(mae, mae_m)
