import hashlib
import inspect
import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from echodoa import container, datasets
from echodoa.cli import (
    _parse_grid,
    _parse_interval,
    _sweep_spec,
    _train_config,
    build_parser,
    main,
)
from echodoa.datasets import load_dataset
from echodoa.doa_music import (
    CONVERGED,
    FALLBACK,
    DoaEstimate,
    MusicOptions,
    covariance,
    music_with_spectrum,
    noise_subspace,
    pseudospectrum,
)
from echodoa.evaluation import load_results
from echodoa.neural import (
    AdamHyper,
    Checkpoint,
    NetworkSpec,
    TrainConfig,
    grad_check,
    init_params,
    save_checkpoint,
)
from echodoa.signal_sim import (
    ArrayGeometry,
    SimConfig,
    SourceScenario,
    add_awgn,
    detect_echo_window,
    synthesize_echo,
    to_baseband,
    wavelength,
)
from echodoa.triangulation import (
    RangeMeasurement,
    SensorPose,
    fuse_doa_with_ranges,
    triangulate,
)

SUBCOMMANDS = ("simulate", "dataset", "train", "eval", "music",
               "triangulate", "sweep", "gradcheck")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def cli_error(tmp_path, capsys, monkeypatch):
    """The CLI's error contract, checked in ``tmp_path``.

    ``cli_error(argv, code, kind, text)`` runs ``main(argv)`` there and
    asserts that it exits ``code`` with nothing on stdout and one stderr
    line that starts ``error: <kind>: <text>``, and that every file in
    the directory is as it was. A ``text`` that ends in a newline is the
    whole message. A warning fails the test as well, since pyproject.toml
    makes every warning an error.
    """
    monkeypatch.chdir(tmp_path)

    def check(argv, code, kind, text=""):
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        status = main(list(argv))
        out, err = capsys.readouterr()
        assert (status, out) == (code, ""), err
        lines = err.splitlines()
        assert len(lines) == 1 and err == lines[0] + "\n", err
        assert err.startswith(f"error: {kind}: {text}"), err
        assert sorted(tmp_path.rglob("*")) == before

    return check


class TestParser:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_missing_required_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dataset"])    # --out missing
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# the fewest flags each subcommand parses with
REQUIRED = {"simulate": ("--doa", "0", "--range", "1"),
            "dataset": ("--out", "d.edds"),
            "train": ("--dataset", "d.edds", "--out", "m.edck"),
            "eval": ("--dataset", "d.edds", "--out", "m.csv"),
            "music": (), "triangulate": ("--r1", "1", "--r2", "1"),
            "sweep": ("--out-dir", "run"), "gradcheck": ()}


def defaults(name):
    """The parsed flags of subcommand ``name`` left at their defaults."""
    return build_parser().parse_args([name, *REQUIRED[name]])


def default_of(function, name):
    return inspect.signature(function).parameters[name].default


class TestLibraryDefaults:
    """A flag that sets a library value defaults to the library's value."""

    def test_every_subcommand_is_covered(self):
        assert set(REQUIRED) == set(SUBCOMMANDS)

    @pytest.mark.parametrize("name", ["train", "sweep"])
    def test_training_flags(self, name):
        args = defaults(name)
        config = TrainConfig()
        assert (args.epochs, args.batch_size, args.train_fraction,
                args.patience) == (config.epochs, config.batch_size,
                                   config.train_fraction, config.patience)
        assert _train_config(args) == config
        assert args.learning_rate == AdamHyper().learning_rate

    @pytest.mark.parametrize("name", ["dataset", "sweep"])
    def test_sweep_flags(self, name):
        args = defaults(name)
        spec = datasets.SweepSpec()
        assert _parse_grid(args.angles, "--angles") == datasets.DEFAULT_ANGLES
        assert _parse_grid(args.snrs, "--snrs") == datasets.DEFAULT_SNRS
        assert args.records_per_cell == spec.records_per_cell
        assert _parse_interval(args.range_m, "--range-m") == \
            spec.range_interval_m
        assert args.aperture == spec.aperture_deg
        assert _sweep_spec(args, SimConfig()) == spec

    @pytest.mark.parametrize("name", ["simulate", "eval", "music", "sweep"])
    def test_grid_step(self, name):
        assert defaults(name).grid_step == MusicOptions().grid_step_deg

    @pytest.mark.parametrize("name", ["simulate", "music"])
    def test_snr(self, name):
        assert defaults(name).snr == SourceScenario(0.0, 1.0).snr_db

    def test_sigma_theta(self, capsys):
        # --doa without --sigma-theta fuses at the library's own default
        code, out, _ = run(capsys, "triangulate", "--r1", "2", "--r2", "2",
                           "--sigma-r", "0.02", "--doa", "12.5")
        assert code == 0
        m1 = RangeMeasurement(SensorPose(-0.25, 0.0), 2.0, sigma_r=0.02)
        m2 = RangeMeasurement(SensorPose(0.25, 0.0), 2.0, sigma_r=0.02)
        fix = fuse_doa_with_ranges(DoaEstimate(12.5, CONVERGED, (12.5,)),
                                   m1, m2)
        assert out == container.json_text(asdict(fix))

    def test_gradcheck_flags(self):
        args = defaults("gradcheck")
        for flag in ("eps", "tolerance", "samples"):
            assert getattr(args, flag) == default_of(grad_check, flag), flag


def demo_estimate(spacing_wl, doa, snr, seed):
    """The library's MUSIC estimate of ``music``'s demo echo."""
    config = SimConfig()
    geometry = ArrayGeometry.pair(spacing_wl * wavelength(config))
    record = datasets.simulate_record(SourceScenario(doa, 1.0, snr),
                                      geometry, config, seed)[1]
    return music_with_spectrum(record.baseband, geometry, config,
                               MusicOptions())[0]


def measurements(r1, r2):
    """``triangulate``'s default sensors and ``--sigma-r`` at two ranges."""
    return (RangeMeasurement(SensorPose(-0.25, 0.0), r1, 0.01),
            RangeMeasurement(SensorPose(0.25, 0.0), r2, 0.01))


class TestPrintedRecords:
    """``music``, ``triangulate`` and ``simulate`` print the library's
    record, field for field, through ``container.json_text``."""

    @pytest.mark.parametrize("argv, echo, status", [
        ((), (0.5, 30.0, math.inf, 0), CONVERGED),
        (("--spacing-wl", "1.5", "--doa", "-47", "--snr", "-5", "--seed",
          "4"), (1.5, -47.0, -5.0, 4), FALLBACK)])
    def test_music_prints_the_estimate(self, argv, echo, status, capsys):
        estimate = demo_estimate(*echo)
        assert estimate.status == status
        code, out, _ = run(capsys, "music", *argv)
        assert code == 0
        assert out == container.json_text(asdict(estimate))

    def test_triangulate_prints_the_two_circle_fix(self, capsys):
        fix = triangulate(*measurements(2.015564, 2.015564))
        code, out, _ = run(capsys, "triangulate", "--r1", "2.015564",
                           "--r2", "2.015564")
        assert code == 0
        assert out == container.json_text(asdict(fix))

    def test_triangulate_prints_and_writes_the_fused_fix(self, tmp_path,
                                                         capsys):
        # the circles meet straight ahead, so the fix takes the -5 degree
        # member of the ambiguity set, not the 40 degree estimate
        estimate = DoaEstimate(40.0, CONVERGED, (-5.0, 40.0))
        fix = fuse_doa_with_ranges(estimate, *measurements(2.0, 2.0))
        assert fix.x < 0
        path = tmp_path / "fix.json"
        code, out, _ = run(capsys, "triangulate", "--r1", "2", "--r2", "2",
                           "--doa", "40", "--ambiguity=-5", "--out",
                           str(path))
        assert code == 0
        assert out == path.read_text() == container.json_text(asdict(fix))

    def test_simulate_prints_the_scenario(self, tmp_path, capsys):
        path = tmp_path / "echo.edcf"
        code, out, _ = run(capsys, "simulate", "--doa", "30", "--range",
                           "1.0", "--snr", "10", "--out", str(path))
        assert code == 0
        scenario = SourceScenario(30.0, 1.0, 10.0)
        assert out == container.json_text(
            {"scenario": asdict(scenario), "outputs": {"capture": str(path)}})


class TestMusicCommand:
    def test_demo_recovers_thirty_degrees(self, capsys):
        code, out, _ = run(capsys, "music")
        assert code == 0
        result = json.loads(out)
        assert result["status"] == "converged"
        assert abs(result["angle_deg"] - 30.0) <= 0.25
        assert result["ambiguity_deg"] == [result["angle_deg"]]

    def test_demo_aliased_ambiguity(self, capsys):
        code, out, _ = run(capsys, "music", "--spacing-wl", "1.5")
        assert code == 0
        result = json.loads(out)
        assert len(result["ambiguity_deg"]) == 3

    def test_spectrum_export(self, tmp_path, capsys):
        spectrum = tmp_path / "spectrum.txt"
        code, _, _ = run(capsys, "music", "--spectrum-out", str(spectrum))
        assert code == 0
        body = [ln for ln in spectrum.read_text().splitlines()
                if not ln.startswith("#")]
        assert len(body) == 721    # [-90, 90] at 0.25 degrees

    def test_grid_stops_before_90(self, tmp_path, capsys):
        # a 100-degree step once put a third point at 110 degrees
        spectrum = tmp_path / "spectrum.txt"
        code, _, _ = run(capsys, "music", "--doa", "70", "--grid-step", "100",
                         "--spectrum-out", str(spectrum))
        assert code == 0
        angles = [float(ln.split()[0])
                  for ln in spectrum.read_text().splitlines()[1:]]
        assert angles == [-90.0, 10.0]

    def test_grid_of_180_holds_both_ends(self, tmp_path, capsys):
        spectrum = tmp_path / "spectrum.txt"
        code, _, _ = run(capsys, "music", "--grid-step", "180",
                         "--spectrum-out", str(spectrum))
        assert code == 0
        angles = [float(ln.split()[0])
                  for ln in spectrum.read_text().splitlines()[1:]]
        assert angles == [-90.0, 90.0]

    def test_dataset_record_input(self, tmp_path, capsys):
        ds_path = tmp_path / "tiny.edds"
        code, _, _ = run(capsys, "dataset", "--angles", "10",
                         "--snrs", "inf", "--records-per-cell", "1",
                         "--out", str(ds_path))
        assert code == 0
        code, out, _ = run(capsys, "music", "--dataset", str(ds_path),
                           "--index", "0")
        assert code == 0
        assert abs(json.loads(out)["angle_deg"] - 10.0) <= 0.25

    def test_bad_index_is_validation_error(self, cli_error):
        assert main(["dataset", "--angles", "10", "--snrs", "inf",
                     "--records-per-cell", "1", "--out", "tiny.edds"]) == 0
        cli_error(("music", "--dataset", "tiny.edds", "--index", "5"), 3,
                  "InputError", "--index 5 out of range (0..0)\n")


class TestSimulateCommand:
    def test_capture_and_reingest(self, tmp_path, capsys):
        capture = tmp_path / "echo.edcf"
        code, out, _ = run(capsys, "simulate", "--doa", "30",
                           "--range", "1.0", "--out", str(capture))
        assert code == 0
        assert capture.exists()
        code, out, _ = run(capsys, "music", "--capture", str(capture))
        assert code == 0
        assert abs(json.loads(out)["angle_deg"] - 30.0) <= 0.25

    def test_baseband_dump_is_loadable_dataset(self, tmp_path, capsys):
        bb = tmp_path / "one.edds"
        code, _, _ = run(capsys, "simulate", "--doa", "-20",
                         "--range", "0.8", "--snr", "10",
                         "--baseband-out", str(bb))
        assert code == 0
        ds = load_dataset(bb)
        assert len(ds.records) == 1
        assert ds.records[0].doa_deg == -20.0
        # the stored time of flight is the one detection gives, as in
        # a dataset file
        base = ds.records[0].baseband
        assert ds.records[0].tof_s == detect_echo_window(base).tof_s

    @pytest.mark.parametrize("argv", [
        ("simulate", "--doa", "-20", "--range", "0.8", "--out", "c.edcf"),
        ("music",)])
    def test_simulates_through_the_dataset_module(self, argv, tmp_path,
                                                  capsys, monkeypatch):
        # the benchmark tracer wraps these datasets globals
        chain = ("synthesize_echo", "add_awgn", "to_baseband",
                 "detect_echo_window")
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in chain:
            monkeypatch.setattr(datasets, name,
                                counted(name, getattr(datasets, name)))
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv)[0] == 0
        assert calls == list(chain)

    def test_noiseless_stdout_is_strict_json(self, tmp_path, capsys):
        code, out, _ = run(capsys, "simulate", "--doa", "30", "--range", "1",
                           "--spectrum-out", str(tmp_path / "s.txt"))
        assert code == 0

        def reject(name):
            raise ValueError(f"not strict JSON: {name}")

        scenario = json.loads(out, parse_constant=reject)["scenario"]
        assert scenario["snr_db"] == "inf"
        assert float(scenario["snr_db"]) == math.inf

    def test_no_output_requested_is_validation_error(self, cli_error):
        cli_error(("simulate", "--doa", "0", "--range", "1.0"), 3,
                  "InputError", "nothing to do: pass --out, --baseband-out, "
                  "or --spectrum-out\n")

    def test_out_of_window_scenario_fails_validation(self, cli_error):
        cli_error(("simulate", "--doa", "0", "--range", "2.5", "--out",
                   "x.edcf"), 3, "ScenarioOutOfWindowError",
                  "echo on element 0 spans [14.706, 15.006] ms, outside the "
                  "8.000 ms listen window\n")

    def test_out_of_memory_is_one_line_runtime_error(self, cli_error):
        # 10**15 samples per channel: the allocation fails at once
        cli_error(("simulate", "--doa", "30", "--range", "1", "--sim",
                   "listen_window=1e9", "--out", "c.edcf"), 1, "MemoryError")


def reference_spectrum_table(path, doa, snr, grid_step, seed=0):
    """The --spectrum-out table of a second, separate MUSIC pass."""
    config = SimConfig()
    geometry = ArrayGeometry.pair(0.5 * wavelength(config))
    wave = synthesize_echo(SourceScenario(doa_deg=doa, range_m=1.0,
                                          snr_db=snr), geometry, config)
    base = to_baseband(add_awgn(wave, snr, seed), config)
    window = detect_echo_window(base, min_len=16)
    subspace = noise_subspace(covariance(base.data[:, window.start:window.stop]))
    pseudospectrum(subspace, geometry, wavelength(config),
                   grid_step).write_table(path)
    return path.read_bytes()


NO_ECHO = "no sample crossed the detection threshold\n"


class TestSpectrumOut:
    """``--spectrum-out`` of ``music`` and ``simulate``: the table of the
    detected window whatever the estimate, and no table without an echo."""

    @pytest.mark.parametrize("doa, snr, grid_step", [
        (30.0, math.inf, 0.25), (-12.5, 10.0, 0.5), (45.0, 0.0, 1.0)])
    def test_music_table_bytes(self, doa, snr, grid_step, tmp_path, capsys):
        table = tmp_path / "spectrum.txt"
        code, out, _ = run(capsys, "music", "--doa", str(doa), "--snr",
                           str(snr), "--grid-step", str(grid_step),
                           "--spectrum-out", str(table))
        assert code == 0
        assert json.loads(out)["status"] == "converged"
        assert table.read_bytes() == reference_spectrum_table(
            tmp_path / "ref.txt", doa, snr, grid_step)

    def test_music_fallback_writes_the_table(self, tmp_path, capsys):
        # detected, but no prominent peak on the coarse grid
        table = tmp_path / "spectrum.txt"
        code, out, _ = run(capsys, "music", "--doa", "0", "--grid-step", "60",
                           "--spectrum-out", str(table))
        assert code == 0
        assert json.loads(out)["status"] == "fallback"
        assert table.read_bytes() == reference_spectrum_table(
            tmp_path / "ref.txt", 0.0, math.inf, 60.0)

    def test_music_and_simulate_write_the_same_table(self, tmp_path, capsys):
        scene = ("--spacing-wl", "1.5", "--doa", "-47", "--snr", "-5",
                 "--seed", "4")
        music_table, simulate_table = tmp_path / "f.txt", tmp_path / "g.txt"
        code, out, _ = run(capsys, "music", *scene,
                           "--spectrum-out", str(music_table))
        assert code == 0
        assert json.loads(out)["status"] == "fallback"
        code, _, _ = run(capsys, "simulate", *scene, "--range", "1.0",
                         "--spectrum-out", str(simulate_table))
        assert code == 0
        assert len(music_table.read_text().splitlines()) == 722
        assert music_table.read_bytes() == simulate_table.read_bytes()

    def test_music_without_echo_is_runtime_error(self, cli_error):
        cli_error(("music", "--snr", "-40", "--spectrum-out", "spectrum.txt"),
                  1, "EchoNotFoundError", NO_ECHO)

    @pytest.mark.parametrize("doa, snr, grid_step", [
        (30.0, math.inf, 0.25), (-12.5, 10.0, 0.5),
        (0.0, math.inf, 60.0)])                  # the estimate falls back
    def test_simulate_table_bytes(self, doa, snr, grid_step, tmp_path,
                                  capsys):
        table = tmp_path / "spectrum.txt"
        code, out, _ = run(capsys, "simulate", "--doa", str(doa), "--range",
                           "1.0", "--snr", str(snr), "--grid-step",
                           str(grid_step), "--spectrum-out", str(table))
        assert code == 0
        assert json.loads(out)["outputs"] == {"spectrum": str(table)}
        assert table.read_bytes() == reference_spectrum_table(
            tmp_path / "ref.txt", doa, snr, grid_step)

    def test_simulate_without_echo_is_runtime_error(self, cli_error):
        cli_error(("simulate", "--doa", "30", "--range", "1.0", "--snr",
                   "-40", "--spectrum-out", "spectrum.txt"), 1,
                  "EchoNotFoundError", NO_ECHO)


def _malformed_capture(raw, how):
    (n,) = struct.unpack_from("<I", raw, 5)
    if how == "length_off_by_five":
        return raw[:5] + struct.pack("<I", n + 5) + raw[9:]
    if how == "bracket_first":
        return raw[:9] + b"[" + raw[10:]
    header = json.loads(raw[9:9 + n])
    del header["annotation"]
    blob = json.dumps(header).encode()
    return raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + n:]


class TestMalformedCaptureHeader:
    @pytest.mark.parametrize("how", ["length_off_by_five", "bracket_first",
                                     "missing_annotation"])
    def test_one_line_file_format_error(self, how, cli_error):
        capture = Path("echo.edcf")
        assert main(["simulate", "--doa", "30", "--range", "1.0",
                     "--out", str(capture)]) == 0
        capture.write_bytes(_malformed_capture(capture.read_bytes(), how))
        cli_error(("music", "--capture", str(capture)), 3, "FileFormatError")

    @pytest.mark.parametrize("channel, value", [
        (1, math.inf), (1, math.nan), (0, math.inf)])
    def test_non_finite_sample(self, channel, value, cli_error):
        capture = Path("echo.edcf")
        assert main(["simulate", "--doa", "30", "--range", "1.0",
                     "--snr", "10", "--out", str(capture)]) == 0
        raw = bytearray(capture.read_bytes())
        (n,) = struct.unpack_from("<I", raw, 5)
        frames = (len(raw) - 9 - n) // 16
        struct.pack_into("<d", raw, 9 + n + 8 * (channel * frames
                                                 + frames // 2), value)
        capture.write_bytes(bytes(raw))
        cli_error(("music", "--capture", str(capture)), 3, "FileFormatError",
                  "echo.edcf: a sample is not finite\n")


def _edds_with_header(raw, **changes):
    """EDDS bytes with some header keys replaced and the digest redone."""
    (n,) = struct.unpack_from("<I", raw, 5)
    header = {**json.loads(raw[9:9 + n]), **changes}
    blob = json.dumps(header, sort_keys=True).encode()
    body = raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + n:-32]
    return body + hashlib.sha256(body).digest()


class TestDatasetCommand:
    @staticmethod
    def check_header_rejected(cli_error, text, **changes):
        path = Path("d.edds")
        assert main(["dataset", "--angles", "10", "--snrs", "inf",
                     "--records-per-cell", "1", "--out", str(path)]) == 0
        path.write_bytes(_edds_with_header(path.read_bytes(), **changes))
        cli_error(("music", "--dataset", str(path)), 3, "FileFormatError",
                  text)

    def test_three_element_dataset_fails_at_load(self, cli_error):
        self.check_header_rejected(cli_error, "",
                                   element_x=[0.0, 0.003, 0.006])

    def test_rate_other_than_the_config_fails_at_load(self, cli_error):
        # each record's sample rate is the header's effective_rate: one
        # that its own config does not give would misplace every echo
        self.check_header_rejected(
            cli_error, "d.edds: malformed header: ValueError: effective_rate "
            "1.0 is not the config's 125000.0\n", effective_rate=1.0)

    def test_generates_expected_cardinality(self, tmp_path, capsys):
        out_path = tmp_path / "grid.edds"
        code, out, _ = run(capsys, "dataset", "--angles=-20:20:20",
                           "--snrs", "0,10", "--records-per-cell", "2",
                           "--out", str(out_path), "--index-out",
                           str(tmp_path / "index.txt"))
        assert code == 0
        assert json.loads(out)["records"] == 3 * 2 * 2
        assert len(load_dataset(out_path).records) == 12

    def test_seed_reproducibility(self, tmp_path, capsys):
        a, b = tmp_path / "a.edds", tmp_path / "b.edds"
        run(capsys, "dataset", "--angles", "0", "--snrs", "5",
            "--records-per-cell", "2", "--seed", "9", "--out", str(a))
        run(capsys, "dataset", "--angles", "0", "--snrs", "5",
            "--records-per-cell", "2", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_aperture_violation_exit_code(self, cli_error):
        cli_error(("dataset", "--angles=-80:80:20", "--out", "x.edds"), 3,
                  "ApertureViolationError",
                  "angles exceed the +-60.0 degree aperture\n")


@pytest.fixture(scope="module")
def tiny_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.edds"
    assert main(["dataset", "--angles=-30:30:30",
                 "--snrs", "10,20", "--records-per-cell", "4",
                 "--out", str(path)]) == 0
    return path


class TestTrainEvalCommands:
    def test_train_then_eval(self, tiny_dataset_path, tmp_path, capsys):
        ckpt = tmp_path / "model.edck"
        history = tmp_path / "history.txt"
        code, out, _ = run(capsys, "train", "--dataset",
                           str(tiny_dataset_path), "--epochs", "2",
                           "--out", str(ckpt), "--history", str(history))
        assert code == 0
        assert ckpt.exists()
        assert len(history.read_text().splitlines()) == 3   # header + 2

        metrics = tmp_path / "metrics.csv"
        code, out, _ = run(capsys, "eval", "--dataset",
                           str(tiny_dataset_path), "--music",
                           "--checkpoint", str(ckpt),
                           "--out", str(metrics))
        assert code == 0
        table = load_results(metrics)
        estimators = {r.estimator for r in table.rows}
        assert estimators == {"music", "cnn"}

    def test_eval_without_estimators_is_validation_error(
            self, tiny_dataset_path, cli_error):
        cli_error(("eval", "--dataset", str(tiny_dataset_path), "--out",
                   "m.csv"), 3, "InputError", "select at least one "
                  "estimator (--music and/or --checkpoint)\n")

    @pytest.mark.parametrize("estimators, name", [
        (("--checkpoint", "a/m.edck", "--checkpoint", "b/m.edck"), "m"),
        # two or more checkpoints are named after their file stems
        (("--music", "--checkpoint", "a/music.edck", "--checkpoint",
          "a/m.edck"), "music")])
    def test_shared_estimator_name_writes_nothing(
            self, estimators, name, tiny_dataset_path, cli_error):
        spec = NetworkSpec(input_time=256, feature_maps=8,
                           dense_widths=(16, 8))
        checkpoint = Checkpoint(spec=spec,
                                params=init_params(spec, 2, np.float64))
        for path in estimators:
            if path.endswith(".edck"):
                Path(path).parent.mkdir(exist_ok=True)
                save_checkpoint(checkpoint, path)
        cli_error(("eval", "--dataset", str(tiny_dataset_path), *estimators,
                   "--out", "e.csv"), 3, "InputError",
                  f"two estimators are named {name!r}\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_domain_leaving_no_record_writes_nothing(
            self, fmt, tiny_dataset_path, cli_error):
        # the dataset holds angles -30, 0 and 30 only
        cli_error(("eval", "--dataset", str(tiny_dataset_path), "--music",
                   "--domain", "outside_30", "--format", fmt,
                   "--out", f"o.{fmt}"), 3, "EmptyDatasetError",
                  "no record lies in domain 'outside_30'\n")

    @staticmethod
    def check_checkpoint_rejected(blob, tiny_dataset_path, cli_error):
        body = (b"EDCK" + struct.pack("<BI", 1, len(blob)) + blob)
        Path("bad.edck").write_bytes(body + hashlib.sha256(body).digest())
        cli_error(("eval", "--dataset", str(tiny_dataset_path),
                   "--checkpoint", "bad.edck", "--out", "m.csv"), 3,
                  "FileFormatError")

    def test_malformed_checkpoint_header_is_validation_error(
            self, tiny_dataset_path, cli_error):
        self.check_checkpoint_rejected(b"[1, 2]", tiny_dataset_path,
                                       cli_error)

    def test_deeply_nested_checkpoint_header_is_validation_error(
            self, tiny_dataset_path, cli_error):
        self.check_checkpoint_rejected(b"[" * 100_000, tiny_dataset_path,
                                       cli_error)

    def test_non_finite_checkpoint_weight_is_file_format_error(
            self, tiny_dataset_path, cli_error):
        # output_b, the last weight, made NaN in a file whose digest holds
        spec = NetworkSpec(input_time=256, feature_maps=8,
                           dense_widths=(16, 8))
        save_checkpoint(Checkpoint(spec=spec, params=init_params(
            spec, 2, np.float64)), "nan.edck")
        body = bytearray(Path("nan.edck").read_bytes()[:-32])
        struct.pack_into("<f", body, len(body) - 4, math.nan)
        Path("nan.edck").write_bytes(body + hashlib.sha256(body).digest())
        cli_error(("eval", "--dataset", str(tiny_dataset_path),
                   "--checkpoint", "nan.edck", "--out", "m.csv"), 3,
                  "FileFormatError",
                  "nan.edck: output_b: a weight is not finite\n")

    def test_one_record_dataset_is_validation_error(self, cli_error):
        assert main(["dataset", "--angles=0", "--snrs=20",
                     "--records-per-cell", "1", "--out", "one.edds"]) == 0
        cli_error(("train", "--dataset", "one.edds", "--epochs", "1",
                   "--out", "one.edck"), 3, "EmptyDatasetError",
                  "the split gives 1 training and 0 held-out records; "
                  "training needs at least one held-out record\n")

    def test_missing_dataset_file_is_runtime_error(self, cli_error):
        cli_error(("train", "--dataset", "absent.edds", "--out", "m.edck"),
                  1, "FileNotFoundError", "[Errno 2] No such file or "
                  "directory: 'absent.edds'\n")


class TestTriangulateCommand:
    def test_plain_intersection(self, capsys):
        r = math.hypot(0.25, 2.0)
        code, out, _ = run(capsys, "triangulate", "--r1", str(r),
                           "--r2", str(r))
        assert code == 0
        fix = json.loads(out)
        assert fix["x"] == pytest.approx(0.0, abs=1e-9)
        assert fix["y"] == pytest.approx(2.0, abs=1e-9)
        assert fix["source"] == "triangulation"

    def test_fused_ray(self, capsys):
        code, out, _ = run(capsys, "triangulate", "--r1", "2.0",
                           "--r2", "2.0", "--doa", "30")
        assert code == 0
        fix = json.loads(out)
        assert fix["x"] == pytest.approx(1.0, abs=1e-9)
        assert fix["y"] == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert fix["source"] == "fused"

    def test_disjoint_circles_runtime_error(self, cli_error):
        cli_error(("triangulate", "--r1", "0.1", "--r2", "0.1"), 1,
                  "NoIntersectionError", "circles disjoint: sensor "
                  "separation 0.5 exceeds r1+r2 0.2\n")

    def test_coincident_sensors_validation_error(self, cli_error):
        cli_error(("triangulate", "--sensor1", "0,0", "--sensor2", "0,0",
                   "--r1", "1", "--r2", "1"), 3, "CoincidentSensorsError",
                  "sensors coincide\n")


class TestNoWarningOrTraceback:
    """Argvs that would overflow a float, simulate an echo of no sample
    or far outside the listen window, or pass a fusion flag without
    --doa: each ends in one readable error line, no file, no output and
    no warning."""

    @pytest.mark.parametrize("argv, text", [
        pytest.param(("triangulate", "--r1", "1", "--r2", "1",
                      "--sigma-r", "1e200"), "sigma_r ",
                     id="sigma_r_squared_overflows"),
        pytest.param(("triangulate", "--r1", "0.25000000001",
                      "--r2", "0.25000000001", "--sigma-r", "1e153"),
                     "sigma_r ", id="covariance_overflows"),
        pytest.param(("triangulate", "--r1", "1", "--r2", "1",
                      "--sigma-r", "1e308", "--doa", "0"),
                     "sigma_r ", id="fused_sigma_r_overflows"),
        pytest.param(("triangulate", "--r1", "1e308", "--r2", "1e308",
                      "--doa", "0"), "range_m must lie in (0, 1e+153]\n",
                     id="range_overflows"),
        pytest.param(("triangulate", "--r1", "1e200", "--r2", "1e200",
                      "--sensor1=-1e199,0", "--sensor2=1e199,0"),
                     "sensor position ", id="sensor_coordinates_overflow"),
        pytest.param(("simulate", "--doa", "30", "--range", "1", "--sim",
                      "echo_duration=1e-300", "--snr", "0", "--out",
                      "x.edcf"), "echo_duration ",
                     id="simulate_echo_shorter_than_a_sample"),
        pytest.param(("music", "--sim", "echo_duration=1e-300", "--snr", "0"),
                     "echo_duration ", id="music_echo_shorter_than_a_sample"),
        pytest.param(("music", "--snr=-3083"),
                     "snr_db -3083 overflows the noise power\n",
                     id="music_noise_power_overflows"),
        pytest.param(("simulate", "--doa", "30", "--range", "1",
                      "--snr=-1e308", "--out", "x.edcf"), "snr_db ",
                     id="simulate_noise_power_overflows"),
        pytest.param(("dataset", "--angles=0", "--snrs=-3100",
                      "--records-per-cell", "1", "--out", "d.edds"),
                     "snr_db ", id="dataset_noise_power_overflows"),
        pytest.param(("triangulate", "--r1", "2", "--r2", "2",
                      "--ambiguity=-5,40"), "--ambiguity ",
                     id="ambiguity_without_doa"),
        pytest.param(("triangulate", "--r1", "2", "--r2", "2",
                      "--sigma-theta", "5"), "--sigma-theta ",
                     id="sigma_theta_without_doa"),
        pytest.param(("music", "--range", "1e308"),
                     "range_m must lie in (0, 1e+153]\n",
                     id="music_range_overflows"),
        pytest.param(("simulate", "--doa", "30", "--range", "1e308",
                      "--out", "x.edcf"), "range_m must lie in (0, 1e+153]\n",
                     id="simulate_range_overflows")])
    def test_one_line_input_error(self, argv, text, cli_error):
        cli_error(argv, 3, "InputError", text)

    @pytest.mark.parametrize("argv, span", [
        pytest.param(("music", "--spacing-wl", "1e300"),
                     "[9.76562e+297, 9.76562e+297]", id="spacing_wl_1e300"),
        pytest.param(("music", "--sim", "carrier_freq=1e-300"),
                     "[2.5e+302, 2.5e+302]", id="carrier_freq_1e-300")])
    def test_far_out_of_window_span_is_readable(self, argv, span, cli_error):
        cli_error(argv, 3, "ScenarioOutOfWindowError",
                  f"echo on element 1 spans {span} ms, outside the 8.000 ms "
                  "listen window\n")


class TestSweepCommand:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "sweep", "--angles=-30:30:30",
                           "--snrs", "5,15", "--records-per-cell", "3",
                           "--epochs", "2", "--batch-size", "8",
                           "--out-dir", str(out_dir))
        assert code == 0
        for name in ("dataset.edds", "checkpoint.edck", "history.txt",
                     "metrics.csv", "summary.json"):
            assert (out_dir / name).exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["held_out_records"] > 0
        table = load_results(out_dir / "metrics.csv")
        assert {r.estimator for r in table.rows} == {"music", "cnn"}

    def test_empty_held_out_split_writes_nothing(self, cli_error):
        cli_error(("sweep", "--angles=0", "--snrs=20", "--records-per-cell",
                   "1", "--epochs", "1", "--out-dir", "run"), 3,
                  "EmptyDatasetError")


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_rel_error"] < 1e-4

    @pytest.mark.parametrize("argv, field", [
        (("--seeds", "0"), "--seeds"), (("--seeds=-2",), "--seeds"),
        (("--tolerance=-1",), "tolerance"), (("--tolerance", "nan"),
                                             "tolerance"),
        (("--samples=-5",), "samples"), (("--samples", "0"), "samples")])
    def test_vacuous_or_malformed_check_is_input_error(self, argv, field,
                                                       cli_error):
        cli_error(("gradcheck", *argv), 3, "InputError", f"{field} ")


class TestSeedRange:
    @pytest.mark.parametrize("argv", [
        pytest.param(("simulate", "--doa", "0", "--range", "1", "--snr", "10",
                      "--seed", "-1", "--out", "x.edcf"), id="argv0-x.edcf"),
        pytest.param(("dataset", "--seed", "-1", "--angles=0", "--snrs=20",
                      "--records-per-cell", "1", "--out", "n.edds"),
                     id="argv1-n.edds"),
        pytest.param(("simulate", "--doa", "0", "--range", "1", "--seed",
                      str(2**64), "--baseband-out", "b.edds"),
                     id="argv2-b.edds")])
    def test_out_of_range_seed_is_one_line_input_error(self, argv,
                                                       cli_error):
        cli_error(argv, 3, "InputError", "--seed ")


class TestConfigPlumbing:
    def test_config_file_and_override(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("carrier_freq = 40000\n")
        capture = tmp_path / "c.edcf"
        code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                           "--sim", "carrier_freq=51200",
                           "--doa", "30", "--range", "1.0",
                           "--out", str(capture))
        assert code == 0

        monkeypatch.setenv("ECHODOA_CONFIG", str(cfg))
        code, out, _ = run(capsys, "music")
        assert code == 0
        # 40 kHz carrier changes the wavelength; estimate still converges
        assert json.loads(out)["status"] == "converged"

    def test_bad_sim_override_key(self, cli_error):
        cli_error(("music", "--sim", "who=1"), 3, "InputError",
                  "unknown simulation key 'who'\n")

    @pytest.mark.parametrize("argv", [
        ("simulate", "--doa", "30", "--range", "1", "--out", "c.edcf"),
        ("dataset", "--angles=0", "--snrs=20", "--records-per-cell", "1",
         "--out", "d.edds"),
        ("train", "--dataset", "d.edds", "--out", "m.edck"),
        ("eval", "--dataset", "d.edds", "--music", "--out", "e.csv"),
        ("music", "--spectrum-out", "s.txt"),
        ("triangulate", "--r1", "1", "--r2", "1", "--out", "fix.json"),
        ("sweep", "--angles=0", "--snrs=20", "--records-per-cell", "2",
         "--epochs", "1", "--out-dir", "run"),
        ("gradcheck",)], ids=SUBCOMMANDS)
    def test_malformed_sim_fails_every_subcommand(self, argv, cli_error):
        # also those that read no simulation key; d.edds does not exist,
        # so train and eval show that the check comes first
        cli_error((*argv, "--sim", "bogus"), 3, "InputError",
                  "--sim expects key=value, got 'bogus'\n")

    def test_missing_config_file_fails_a_subcommand_that_reads_none(
            self, cli_error, monkeypatch):
        monkeypatch.setenv("ECHODOA_CONFIG", "missing.cfg")
        cli_error(("triangulate", "--r1", "1", "--r2", "1"), 1,
                  "FileNotFoundError", "[Errno 2] No such file or "
                  "directory: 'missing.cfg'\n")

    def test_rng_seed_is_an_unknown_key(self, cli_error):
        Path("sim.cfg").write_text("rng_seed = 1\n")
        for argv, text in (
                (("--sim", "rng_seed=1"), "unknown simulation key"),
                (("--config", "sim.cfg"), "sim.cfg:1: unknown key")):
            cli_error(("simulate", "--doa", "30", "--range", "1", "--out",
                       "c.edcf", *argv), 3, "InputError",
                      f"{text} 'rng_seed'\n")

    @pytest.mark.parametrize("key, value", [("decimation_factor", "abc"),
                                            ("carrier_freq", "nan")])
    def test_bad_config_value_is_one_line_input_error(self, key, value,
                                                      cli_error):
        Path("sim.cfg").write_text(f"{key} = {value}\n")
        for argv in (("--sim", f"{key}={value}"), ("--config", "sim.cfg")):
            cli_error(("music", *argv), 3, "InputError", f"{key} ")


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv, field", [
        pytest.param(("simulate", "--doa", "30", "--range", "1", "--snr",
                      "nan", "--out", "a.edcf"), "snr_db",
                     id="argv0-snr_db-a.edcf"),
        pytest.param(("simulate", "--doa", "30", "--range", "1",
                      "--snr=-inf", "--out", "a.edcf"), "snr_db",
                     id="argv1-snr_db-a.edcf"),
        pytest.param(("simulate", "--doa", "30", "--range", "nan",
                      "--baseband-out", "b.edds"), "range_m",
                     id="argv2-range_m-b.edds"),
        pytest.param(("dataset", "--angles=0", "--snrs=nan",
                      "--records-per-cell", "1", "--out", "d.edds"),
                     "snr_db", id="argv3-snr_db-d.edds"),
        pytest.param(("music", "--doa", "nan"), "doa_deg",
                     id="argv4-doa_deg-None"),
        pytest.param(("music", "--grid-step", "nan"), "grid step",
                     id="argv5-grid step-None"),
        pytest.param(("music", "--grid-step", "inf"), "grid step",
                     id="argv6-grid step-None"),
        pytest.param(("triangulate", "--r1", "nan", "--r2", "1"), "range_m",
                     id="argv7-range_m-None"),
        pytest.param(("triangulate", "--r1", "1", "--r2", "inf"), "range_m",
                     id="argv8-range_m-None"),
        pytest.param(("triangulate", "--r1", "1", "--r2", "1", "--sigma-r",
                      "nan"), "sigma_r", id="argv9-sigma_r-None"),
        pytest.param(("simulate", "--doa", "30", "--range", "1",
                      "--spacing-wl", "nan", "--out", "a.edcf"),
                     "element positions",
                     id="argv10-element positions-a.edcf"),
        pytest.param(("dataset", "--angles=0", "--snrs=20",
                      "--records-per-cell", "1", "--spacing-wl", "nan",
                      "--out", "d.edds"), "element positions",
                     id="argv11-element positions-d.edds"),
        pytest.param(("dataset", "--angles=0", "--snrs=20",
                      "--records-per-cell", "1", "--spacing-wl", "inf",
                      "--out", "d.edds"), "element positions",
                     id="argv12-element positions-d.edds"),
        pytest.param(("dataset", "--angles=0", "--snrs=20",
                      "--records-per-cell", "1", "--aperture", "nan",
                      "--out", "d.edds"), "aperture_deg",
                     id="argv13-aperture_deg-d.edds"),
        pytest.param(("dataset", "--angles=0", "--snrs=20",
                      "--records-per-cell", "1", "--aperture", "120",
                      "--out", "d.edds"), "aperture_deg",
                     id="argv14-aperture_deg-d.edds"),
        pytest.param(("triangulate", "--r1", "1", "--r2", "1", "--sensor1",
                      "nan,0"), "sensor position",
                     id="argv15-sensor position-None"),
        pytest.param(("triangulate", "--r1", "1", "--r2", "1", "--sensor2",
                      "0.25,inf"), "sensor position",
                     id="argv16-sensor position-None"),
        pytest.param(("simulate", "--doa", "30", "--range", "1", "--sim",
                      "sample_rate=1e308", "--sim", "listen_window=10",
                      "--out", "a.edcf"), "listen_window",
                     id="argv17-listen_window-a.edcf"),
        # sample counts no NumPy array can hold, not only this host
        pytest.param(("music", "--sim", "sample_rate=1e20"), "listen_window",
                     id="argv18-listen_window-None"),
        pytest.param(("simulate", "--doa", "30", "--range", "1", "--sim",
                      "listen_window=1e15", "--out", "a.edcf"),
                     "listen_window", id="argv19-listen_window-a.edcf")])
    def test_one_line_input_error(self, argv, field, cli_error):
        cli_error(argv, 3, "InputError", f"{field} ")


GRID_STEP_COMMANDS = [
    ("music", "--spectrum-out", "s.txt"),
    ("simulate", "--doa", "30", "--range", "1", "--out", "c.edcf",
     "--baseband-out", "b.edds", "--spectrum-out", "s.txt"),
    ("eval", "--dataset", "d.edds", "--music", "--out", "m.csv"),
    ("sweep", "--angles=0,10", "--snrs=20", "--records-per-cell", "2",
     "--epochs", "1", "--out-dir", "run")]


class TestGridStep:
    @pytest.mark.parametrize("argv", GRID_STEP_COMMANDS)
    @pytest.mark.parametrize("step", ["200", "180.5", "1e300"])
    def test_fewer_than_two_points_is_input_error(self, argv, step,
                                                  cli_error):
        # a step above 180 leaves the grid one point: MUSIC could never
        # converge on it
        self.check_rejected(argv, step, cli_error)

    @pytest.mark.parametrize("argv", GRID_STEP_COMMANDS)
    @pytest.mark.parametrize("step", ["0.000999", "1e-6", "1e-300",
                                      "5e-324"])
    def test_more_than_the_point_cap_is_input_error(self, argv, step,
                                                    cli_error):
        # 1e-6 would ask for 1.8e8 points, 1e-300 for more than NumPy can
        # index and 5e-324 for an infinite count
        self.check_rejected(argv, step, cli_error)

    @staticmethod
    def check_rejected(argv, step, cli_error):
        if "eval" in argv:
            assert main(["dataset", "--angles=0", "--snrs=20",
                         "--records-per-cell", "1", "--out", "d.edds"]) == 0
        cli_error((*argv, "--grid-step", step), 3, "InputError", "grid step ")


DATASET = ("dataset", "--records-per-cell", "1", "--out", "d.edds")


class TestGridBounds:
    def test_step_not_dividing_the_span_stops_within_hi(self, tmp_path,
                                                        capsys):
        # rounding the step count would reach 65 degrees, outside the
        # aperture, and 12 dB
        path = tmp_path / "g.edds"
        code, out, err = run(capsys, "dataset", "--angles=-60:60:25",
                             "--snrs=0:11:4", "--records-per-cell", "1",
                             "--out", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["records"] == 15
        records = load_dataset(path).records
        assert sorted({r.doa_deg for r in records}) == [-60, -35, -10, 15, 40]
        assert sorted({r.snr_db for r in records}) == [0, 4, 8]

    @pytest.mark.parametrize("text, values", [
        ("-60:60:10", tuple(float(a) for a in range(-60, 61, 10))),
        ("-30:20:5", tuple(float(s) for s in range(-30, 21, 5))),
        ("0:0.3:0.1", (0.0, 0.1, 0.2, 0.1 * 3)),
        ("5:5:1", (5.0,))])
    def test_step_dividing_the_span_keeps_every_value(self, text, values):
        assert _parse_grid(text, "--angles") == values

    @pytest.mark.parametrize("argv, flag", [
        ((*DATASET, "--angles=0:60:1e-12", "--snrs=20"), "--angles"),
        ((*DATASET, "--angles=0", "--snrs=0:10:5e-324"), "--snrs"),
        (("sweep", "--angles=0:60:0.0003", "--snrs=20",
          "--records-per-cell", "2", "--out-dir", "run"), "--angles")])
    def test_more_than_the_point_cap_is_input_error(self, argv, flag,
                                                    cli_error):
        cli_error(argv, 3, "InputError", f"{flag} grid step ")


class TestMalformedNumbers:
    @pytest.mark.parametrize("argv, text", [
        pytest.param((*DATASET, "--angles=1,,2", "--snrs=20"),
                     "--angles expects numbers, got '1,,2'\n",
                     id="argv0---angles"),
        pytest.param((*DATASET, "--angles=a:b:1", "--snrs=20"),
                     "--angles expects numbers, got 'a:b:1'\n",
                     id="argv1---angles"),
        pytest.param((*DATASET, "--angles=0", "--snrs=x"),
                     "--snrs expects numbers, got 'x'\n", id="argv2---snrs"),
        pytest.param((*DATASET, "--angles=0:10:nan", "--snrs=20"),
                     "bad --angles grid bounds in '0:10:nan'\n",
                     id="argv3---angles"),
        pytest.param((*DATASET, "--angles=0:inf:10", "--snrs=20"),
                     "bad --angles grid bounds in '0:inf:10'\n",
                     id="argv4---angles"),
        pytest.param((*DATASET, "--angles=nan:10:5", "--snrs=20"),
                     "bad --angles grid bounds in 'nan:10:5'\n",
                     id="argv5---angles"),
        pytest.param((*DATASET, "--angles=0", "--snrs=0:10:inf"),
                     "bad --snrs grid bounds in '0:10:inf'\n",
                     id="argv6---snrs"),
        pytest.param((*DATASET, "--angles=0", "--snrs=20", "--range-m=a:b"),
                     "--range-m expects numbers, got 'a:b'\n",
                     id="argv7---range-m"),
        pytest.param(("sweep", "--angles=1,,2", "--snrs=20",
                      "--records-per-cell", "1", "--out-dir", "run"),
                     "--angles expects numbers, got '1,,2'\n",
                     id="argv8---angles"),
        pytest.param(("triangulate", "--r1", "1", "--r2", "1", "--sensor1",
                      "x,y"), "--sensor1 expects numbers, got 'x,y'\n",
                     id="argv9---sensor1"),
        pytest.param(("triangulate", "--r1", "1", "--r2", "1", "--sensor2",
                      "0.25,"), "--sensor2 expects numbers, got '0.25,'\n",
                     id="argv10---sensor2"),
        pytest.param(("triangulate", "--r1", "1", "--r2", "1", "--doa", "10",
                      "--ambiguity", "10,q", "--out", "f.json"),
                     "--ambiguity expects numbers, got '10,q'\n",
                     id="argv11---ambiguity")])
    def test_one_line_input_error(self, argv, text, cli_error):
        cli_error(argv, 3, "InputError", text)


TRIANGULATE = ("triangulate", "--r1", "1", "--r2", "1", "--out", "f.json")


class TestFusionAndTrainingInputs:
    @pytest.mark.parametrize("argv, field", [
        ((*TRIANGULATE, "--doa", "nan"), "doa_deg"),
        ((*TRIANGULATE, "--doa", "100"), "doa_deg"),
        ((*TRIANGULATE, "--doa", "30", "--ambiguity=-100,30"), "doa_deg"),
        ((*TRIANGULATE, "--doa", "0", "--sigma-theta", "nan"),
         "sigma_theta_deg"),
        ((*TRIANGULATE, "--doa", "0", "--sigma-theta=-1"), "sigma_theta_deg"),
        ((*TRIANGULATE, "--doa", "0", "--sigma-theta", "90"),
         "sigma_theta_deg"),
        (("train", "--epochs", "1", "--learning-rate", "nan"),
         "learning_rate"),
        (("train", "--epochs", "2", "--learning-rate", "inf"),
         "learning_rate"),
        (("train", "--epochs", "1", "--patience=-1"), "patience"),
        (("sweep", "--learning-rate", "nan", "--out-dir", "s"),
         "learning_rate")])
    def test_one_line_input_error(self, argv, field, tiny_dataset_path,
                                  cli_error):
        if argv[0] == "train":
            argv = (*argv, "--dataset", str(tiny_dataset_path),
                    "--out", "m.edck")
        cli_error(argv, 3, "InputError", f"{field} ")

    def test_edges_of_the_fusion_ranges_accepted(self, capsys):
        code, out, _ = run(capsys, "triangulate", "--r1", "1", "--r2", "1",
                           "--doa=-90", "--sigma-theta", "0")
        assert code == 0
        fix = json.loads(out)
        assert all(math.isfinite(v) for v in (fix["x"], fix["y"],
                                              *fix["ellipse"].values()))


class TestWorkersFlag:
    ARGV = {
        "simulate": ("--doa", "0", "--range", "0.7", "--out", "c.edcf"),
        "dataset": ("--records-per-cell", "1", "--out", "d.edds"),
        "train": ("--epochs", "1", "--out", "m.edck"),
        "eval": ("--music", "--out", "r.csv"),
        "music": ("--spectrum-out", "s.txt"),
        "triangulate": ("--r1", "1", "--r2", "1", "--out", "f.json"),
        "sweep": ("--out-dir", "s"),
        "gradcheck": (),
    }

    def test_every_subcommand_is_covered(self):
        assert set(self.ARGV) == set(SUBCOMMANDS)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_below_one_is_an_input_error(self, name, workers,
                                         tiny_dataset_path, cli_error):
        argv = (name, *self.ARGV[name], f"--workers={workers}")
        if name in ("train", "eval"):
            argv = (*argv, "--dataset", str(tiny_dataset_path))
        cli_error(argv, 3, "InputError",
                  f"--workers must be at least 1, got {workers}\n")

    def test_more_workers_than_cpus_writes_the_same_file(self, tmp_path,
                                                         capsys):
        argv = ("dataset", "--angles=-30,0,30", "--snrs", "10",
                "--records-per-cell", "12")
        assert run(capsys, *argv, "--out", str(tmp_path / "a.edds"))[0] == 0
        assert run(capsys, *argv, "--workers", "64",
                   "--out", str(tmp_path / "b.edds"))[0] == 0
        assert (tmp_path / "a.edds").read_bytes() \
            == (tmp_path / "b.edds").read_bytes()


class TestImportCost:
    @staticmethod
    def run_fresh(code):
        """Exit status of ``code`` in a fresh interpreter on this tree."""
        import os
        import subprocess
        import sys

        import echodoa
        src = str(Path(echodoa.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        return subprocess.run([sys.executable, "-c", code], env=env,
                              stdout=subprocess.DEVNULL,
                              timeout=60).returncode

    def test_cli_import_leaves_out_scipy_signal(self):
        # scipy.signal pulls in scipy.stats; no command needs it
        code = ("import sys, echodoa.cli; "
                "sys.exit('scipy.signal' in sys.modules)")
        assert self.run_fresh(code) == 0

    def test_music_run_leaves_out_scipy_signal(self):
        # the demo echo runs the baseband low pass, built in NumPy
        code = ("import sys; from echodoa.cli import main; "
                "assert main(['music']) == 0; "
                "sys.exit('scipy.signal' in sys.modules)")
        assert self.run_fresh(code) == 0
