import hashlib
import json
import math
import struct

import numpy as np
import pytest

from echodoa import datasets
from echodoa.datasets import (
    Dataset,
    DatasetRecord,
    SweepSpec,
    generate_dataset,
    ingest_capture,
    pool_map,
    pool_size,
    load_dataset,
    read_capture,
    record_seed,
    save_dataset,
    split,
    write_capture,
    write_index_text,
)
from echodoa.errors import (
    ApertureViolationError,
    ChecksumError,
    EmptyDatasetError,
    FileFormatError,
    InputError,
    RateMismatchError,
    ScenarioOutOfWindowError,
    UnsupportedVersionError,
)
from echodoa.signal_sim import (
    ArrayGeometry,
    ComplexBaseband,
    SimConfig,
    SourceScenario,
    add_awgn,
    synthesize_echo,
    to_baseband,
    wavelength,
)

CFG = SimConfig()
GEO = ArrayGeometry.pair(wavelength(CFG) / 2.0)

SMALL_SPEC = SweepSpec(angles_deg=(-20.0, 0.0, 20.0),
                       snrs_db=(0.0, 10.0),
                       records_per_cell=3)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(SMALL_SPEC)


class TestSweepSpec:
    def test_cardinality(self):
        spec = SweepSpec(records_per_cell=4)
        assert spec.record_count == 13 * 11 * 4 == 572

    def test_aperture_violation(self):
        with pytest.raises(ApertureViolationError):
            SweepSpec(angles_deg=(0.0, 70.0))

    @pytest.mark.parametrize("aperture", [math.nan, -1.0, 90.5, math.inf])
    def test_aperture_outside_0_to_90_rejected(self, aperture):
        with pytest.raises(InputError, match="aperture_deg"):
            SweepSpec(angles_deg=(0.0,), aperture_deg=aperture)

    def test_range_must_fit_window(self):
        with pytest.raises(ScenarioOutOfWindowError):
            SweepSpec(range_interval_m=(0.5, 3.0))

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            SweepSpec(angles_deg=())


class TestGenerateDataset:
    def test_record_count_and_labels(self, small_dataset):
        assert len(small_dataset.records) == 18
        cells = {(r.doa_deg, r.snr_db) for r in small_dataset.records}
        assert len(cells) == 6
        for cell in cells:
            n = sum((r.doa_deg, r.snr_db) == cell
                    for r in small_dataset.records)
            assert n == 3

    def test_bit_identical_regeneration(self, small_dataset, tmp_path):
        other = generate_dataset(SMALL_SPEC)
        a, b = tmp_path / "a.edds", tmp_path / "b.edds"
        save_dataset(small_dataset, a)
        save_dataset(other, b)
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, small_dataset,
                                                tmp_path):
        parallel = generate_dataset(SMALL_SPEC, workers=2)
        a, b = tmp_path / "a.edds", tmp_path / "b.edds"
        save_dataset(small_dataset, a)
        save_dataset(parallel, b)
        assert a.read_bytes() == b.read_bytes()

    def test_record_seeds_stable(self):
        assert record_seed(0, 0, 0, 0) == record_seed(0, 0, 0, 0)
        assert record_seed(0, 0, 0, 0) != record_seed(0, 0, 0, 1)
        assert record_seed(0, 1, 0, 0) != record_seed(1, 0, 0, 0)

    def test_payloads_reproduce_simulation_path(self, small_dataset):
        # the stored baseband equals re-running the generation chain
        rec = small_dataset.records[7]
        scenario = SourceScenario(doa_deg=rec.doa_deg, range_m=rec.range_m,
                                  snr_db=rec.snr_db)
        wave = synthesize_echo(scenario, small_dataset.geometry,
                               small_dataset.config)
        noisy = add_awgn(wave, rec.snr_db, rec.seed)
        base = to_baseband(noisy, small_dataset.config)
        assert (base.data == rec.baseband.data).all()

    def test_per_cell_snr_within_half_db(self):
        spec = SweepSpec(angles_deg=(10.0,), snrs_db=(0.0,),
                         records_per_cell=20)
        ds = generate_dataset(spec)
        measured = []
        for rec in ds.records:
            scenario = SourceScenario(doa_deg=rec.doa_deg,
                                      range_m=rec.range_m,
                                      snr_db=rec.snr_db)
            clean = synthesize_echo(scenario, ds.geometry, ds.config)
            noisy = add_awgn(clean, rec.snr_db, rec.seed)
            start, _ = clean.echo_support
            noise_var = float((noisy.data - clean.data)[:, :start].var())
            measured.append(
                10 * math.log10(clean.signal_power / noise_var))
        assert abs(np.mean(measured) - 0.0) < 0.5

    def test_detected_tof_matches_range(self, small_dataset):
        for rec in small_dataset.records:
            if rec.snr_db >= 10.0 and not math.isnan(rec.tof_s):
                expected = 2.0 * rec.range_m / CFG.sound_speed
                assert rec.tof_s == pytest.approx(expected, abs=2e-4)

    def test_detected_tof_is_nan_without_an_echo(self):
        silent = ComplexBaseband(np.zeros((2, 1000), dtype=complex),
                                 CFG.effective_rate)
        assert math.isnan(datasets.detected_tof(silent))

    def test_record_detects_through_the_module_global(self, monkeypatch):
        # the benchmark tracer wraps datasets.detect_echo_window
        calls = []

        def missing(base):
            calls.append(base)
            raise datasets.EchoNotFoundError("patched")

        monkeypatch.setattr(datasets, "detect_echo_window", missing)
        rec = datasets._make_record(SMALL_SPEC, 0, 1, 0)
        assert len(calls) == 1 and math.isnan(rec.tof_s)


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_below_one_is_an_input_error(self, workers):
        with pytest.raises(InputError, match="workers must be at least 1"):
            pool_size(workers, 10)
        with pytest.raises(InputError, match="workers must be at least 1"):
            generate_dataset(SMALL_SPEC, workers=workers)

    @pytest.mark.parametrize("workers, chunks, cpus, size", [
        (1, 100, 64, 1), (8, 100, 64, 8), (10**6, 4, 64, 4),
        (10**6, 100, 2, 2), (3, 0, 64, 1), (5, 1, 64, 1)])
    def test_capped_by_chunks_and_cpus(self, record_pool_sizes, workers,
                                       chunks, cpus, size):
        record_pool_sizes(datasets, cpus)
        assert pool_size(workers, chunks) == size

    @pytest.mark.parametrize("cpus, size", [(64, 4), (2, 2)])
    def test_pool_never_outnumbers_chunks_or_cpus(self, record_pool_sizes,
                                                  cpus, size):
        # 5 x 2 x 10 = 100 records in chunks of 32: four chunks
        spec = SweepSpec(angles_deg=(-40.0, -20.0, 0.0, 20.0, 40.0),
                         snrs_db=(0.0, 10.0), records_per_cell=10)
        serial = generate_dataset(spec)
        sizes = record_pool_sizes(datasets, cpus)
        pooled = generate_dataset(spec, workers=10**6)
        assert sizes == [size]
        assert [r.baseband.data.tobytes() for r in pooled.records] \
            == [r.baseband.data.tobytes() for r in serial.records]

    def test_pool_map_keeps_item_order(self, record_pool_sizes):
        # 5 items in chunks of 2 make three chunks: a pool of three
        sizes = record_pool_sizes(datasets, 64)
        squares = pool_map(pow, [(i, 2) for i in range(5)], 8, 2)
        assert squares == [0, 1, 4, 9, 16]
        assert sizes == [3]

    def test_one_chunk_runs_in_process(self, record_pool_sizes,
                                       small_dataset):
        sizes = record_pool_sizes(datasets, 64)
        again = generate_dataset(SMALL_SPEC, workers=8)
        assert sizes == []
        assert len(again.records) == len(small_dataset.records)


class TestPersistence:
    def test_roundtrip_bit_exact(self, small_dataset, tmp_path):
        path = tmp_path / "ds.edds"
        save_dataset(small_dataset, path)
        loaded = load_dataset(path)
        assert loaded.master_seed == small_dataset.master_seed
        assert loaded.geometry.element_x == small_dataset.geometry.element_x
        assert loaded.config == small_dataset.config
        for a, b in zip(small_dataset.records, loaded.records):
            assert a.doa_deg == b.doa_deg
            assert a.snr_db == b.snr_db
            assert a.range_m == b.range_m
            assert a.seed == b.seed
            assert (math.isnan(a.tof_s) and math.isnan(b.tof_s)) \
                or a.tof_s == b.tof_s
            assert (a.baseband.data == b.baseband.data).all()

    def test_corrupted_payload_fails_checksum(self, small_dataset, tmp_path):
        path = tmp_path / "ds.edds"
        save_dataset(small_dataset, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_dataset(path)

    def test_truncated_file(self, small_dataset, tmp_path):
        path = tmp_path / "ds.edds"
        save_dataset(small_dataset, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(FileFormatError):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ds.edds"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FileFormatError):
            load_dataset(path)

    def test_unsupported_version(self, small_dataset, tmp_path):
        path = tmp_path / "ds.edds"
        save_dataset(small_dataset, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        # refresh the checksum so only the version differs
        body = bytes(raw[:-32])
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(UnsupportedVersionError):
            load_dataset(path)

    def test_empty_dataset_roundtrip(self, tmp_path):
        empty = Dataset(config=CFG, geometry=GEO, records=[], master_seed=5)
        path = tmp_path / "empty.edds"
        save_dataset(empty, path)
        loaded = load_dataset(path)
        assert loaded.records == []
        assert loaded.master_seed == 5

    def test_index_export(self, small_dataset, tmp_path):
        path = tmp_path / "index.txt"
        write_index_text(small_dataset, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(small_dataset.records)
        first = lines[1].split()
        assert float(first[1]) == small_dataset.records[0].doa_deg


class TestSplit:
    def test_eighty_twenty(self):
        recs = [DatasetRecord(doa_deg=0.0, snr_db=0.0, range_m=1.0, seed=i,
                              baseband=ComplexBaseband(
                                  np.zeros((2, 4), complex), 125e3))
                for i in range(100)]
        ds = Dataset(config=CFG, geometry=GEO, records=recs)
        train, test = split(ds, 0.8, 0)
        assert (len(train.records), len(test.records)) == (80, 20)

    def test_ceiling_rule_on_five(self):
        recs = [DatasetRecord(doa_deg=0.0, snr_db=0.0, range_m=1.0, seed=i,
                              baseband=ComplexBaseband(
                                  np.zeros((2, 4), complex), 125e3))
                for i in range(5)]
        ds = Dataset(config=CFG, geometry=GEO, records=recs)
        train, test = split(ds, 0.8, 0)
        assert (len(train.records), len(test.records)) == (4, 1)

    def test_deterministic(self, small_dataset):
        a1, b1 = split(small_dataset, 0.8, 3)
        a2, b2 = split(small_dataset, 0.8, 3)
        assert [r.seed for r in a1.records] == [r.seed for r in a2.records]
        assert [r.seed for r in b1.records] == [r.seed for r in b2.records]

    def test_stratification(self, small_dataset):
        train, test = split(small_dataset, 0.8, 1)
        cells = {(r.doa_deg, r.snr_db) for r in small_dataset.records}
        assert {(r.doa_deg, r.snr_db) for r in train.records} == cells
        assert {(r.doa_deg, r.snr_db) for r in test.records} == cells

    def test_partitions_cover_everything(self, small_dataset):
        train, test = split(small_dataset, 0.8, 2)
        all_seeds = sorted(r.seed for r in small_dataset.records)
        got = sorted(r.seed for r in train.records + test.records)
        assert got == all_seeds

    def test_empty_raises(self):
        ds = Dataset(config=CFG, geometry=GEO, records=[])
        with pytest.raises(EmptyDatasetError):
            split(ds, 0.8, 0)

    def test_bad_fraction(self, small_dataset):
        with pytest.raises(InputError):
            split(small_dataset, 1.0, 0)


class TestCaptureFiles:
    def test_roundtrip(self, tmp_path):
        wave = synthesize_echo(SourceScenario(doa_deg=12.0, range_m=0.8),
                               GEO, CFG)
        path = tmp_path / "echo.edcf"
        write_capture(path, wave, GEO, annotation="doa_deg=12;range_m=0.8")
        loaded, geometry, note = read_capture(path)
        assert (loaded.data == wave.data).all()
        assert loaded.sample_rate == wave.sample_rate
        assert geometry.element_x == GEO.element_x
        assert note == "doa_deg=12;range_m=0.8"

    def test_ingest_matches_direct_simulation(self, tmp_path):
        scenario = SourceScenario(doa_deg=12.0, range_m=0.8, snr_db=10.0)
        wave = add_awgn(synthesize_echo(scenario, GEO, CFG), 10.0, seed=4)
        direct = to_baseband(wave, CFG)
        path = tmp_path / "echo.edcf"
        write_capture(path, wave, GEO,
                      annotation="doa_deg=12;snr_db=10;range_m=0.8")
        records = ingest_capture(path, GEO, CFG)
        assert len(records) == 1
        rec = records[0]
        assert rec.doa_deg == 12.0
        assert rec.snr_db == 10.0
        assert rec.baseband.sample_rate == CFG.effective_rate
        np.testing.assert_allclose(rec.baseband.data, direct.data,
                                   atol=1e-9)

    def test_unlabeled_capture_gets_nan_labels(self, tmp_path):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=0.8),
                               GEO, CFG)
        path = tmp_path / "echo.edcf"
        write_capture(path, wave, GEO)
        rec = ingest_capture(path, GEO, CFG)[0]
        assert math.isnan(rec.doa_deg)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.edcf"
        path.write_bytes(b"WHAT" + bytes(32))
        with pytest.raises(FileFormatError):
            ingest_capture(path, GEO, CFG)

    def test_rate_mismatch(self, tmp_path):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=0.8),
                               GEO, CFG)
        path = tmp_path / "echo.edcf"
        write_capture(path, wave, GEO)
        slow = SimConfig(sample_rate=500_000.0, decimation_factor=4)
        with pytest.raises(RateMismatchError):
            ingest_capture(path, GEO, slow)

    def test_geometry_mismatch(self, tmp_path):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=0.8),
                               GEO, CFG)
        path = tmp_path / "echo.edcf"
        write_capture(path, wave, GEO)
        other = ArrayGeometry.pair(0.01)
        with pytest.raises(InputError):
            ingest_capture(path, other, CFG)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("channel", [0, 1])
    def test_non_finite_sample_is_file_format_error(self, channel, value,
                                                     tmp_path):
        wave = add_awgn(synthesize_echo(
            SourceScenario(doa_deg=30.0, range_m=1.0), GEO, CFG), 10.0, seed=0)
        wave.data[channel, wave.data.shape[1] // 2] = value
        path = tmp_path / "echo.edcf"
        # framed without write_capture, which would refuse the sample
        path.write_bytes(framed_capture(wave, GEO, ""))
        # raised while reading, before anything is demodulated or estimated
        with pytest.raises(FileFormatError, match="not finite"):
            ingest_capture(path, GEO, CFG)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_sample_writes_nothing(self, value, tmp_path):
        wave = synthesize_echo(SourceScenario(doa_deg=30.0, range_m=1.0),
                               GEO, CFG)
        wave.data[1, -1] = value
        path = tmp_path / "echo.edcf"
        with pytest.raises(InputError, match="a sample is not finite"):
            write_capture(path, wave, GEO)
        assert not path.exists()

    def test_declared_frame_count_must_match(self, tmp_path):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=0.8),
                               GEO, CFG)
        path = tmp_path / "echo.edcf"
        write_capture(path, wave, GEO)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FileFormatError):
            read_capture(path)


# --- streamed writer and strict header decoding ------------------------------

SPEC_27 = SweepSpec(angles_deg=(-20.0, 0.0, 20.0), snrs_db=(0.0, 10.0, 20.0),
                    records_per_cell=3)


def framed_in_memory(dataset):
    """The EDDS image built in memory: magic, version, header, records, hash."""
    records = dataset.records
    cfg = dataset.config
    header = {
        "config": {"carrier_freq": cfg.carrier_freq,
                   "sound_speed": cfg.sound_speed,
                   "sample_rate": cfg.sample_rate,
                   "echo_duration": cfg.echo_duration,
                   "listen_window": cfg.listen_window,
                   "decimation_factor": cfg.decimation_factor,
                   "envelope": cfg.envelope},
        "element_x": list(dataset.geometry.element_x),
        "master_seed": dataset.master_seed,
        "record_count": len(records),
        "channels": dataset.geometry.num_elements,
        "samples_per_channel": records[0].baseband.samples_per_channel,
        "effective_rate": cfg.effective_rate,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    out = bytearray(b"EDDS" + struct.pack("<B", 1) + struct.pack("<I", len(blob)))
    out += blob
    for rec in records:
        out += struct.pack("<dddQd", rec.doa_deg, rec.snr_db, rec.range_m,
                           rec.seed, rec.tof_s)
        out += np.ascontiguousarray(rec.baseband.data, dtype="<c16").tobytes()
    out += hashlib.sha256(out).digest()
    return bytes(out)


def framed_capture(wave, geometry, annotation):
    """The EDCF image built in memory: magic, version, header, samples."""
    header = {"sample_rate": wave.sample_rate,
              "channels": wave.channels,
              "frame_count": wave.samples_per_channel,
              "element_x": list(geometry.element_x),
              "annotation": annotation}
    blob = json.dumps(header, sort_keys=True).encode()
    return (b"EDCF" + struct.pack("<BI", 1, len(blob)) + blob
            + np.asarray(wave.data, dtype="<f8").tobytes())


class TestCaptureBytes:
    @pytest.mark.parametrize("snr, annotation", [
        (math.inf, ""), (10.0, "doa_deg=12;snr_db=10;range_m=0.8")])
    def test_bytes_equal_reference_and_roundtrip(self, snr, annotation,
                                                 tmp_path):
        scenario = SourceScenario(doa_deg=12.0, range_m=0.8, snr_db=snr)
        wave = add_awgn(synthesize_echo(scenario, GEO, CFG), snr, seed=7)
        path = tmp_path / "echo.edcf"
        write_capture(path, wave, GEO, annotation)
        assert path.read_bytes() == framed_capture(wave, GEO, annotation)
        loaded, geometry, note = read_capture(path)
        assert loaded.data.tobytes() == wave.data.tobytes()
        assert loaded.sample_rate == wave.sample_rate
        assert geometry.element_x == GEO.element_x
        assert note == annotation
        write_capture(tmp_path / "again.edcf", loaded, geometry, note)
        assert (tmp_path / "again.edcf").read_bytes() == path.read_bytes()


def reframe(raw, header_bytes, checksum=True):
    """``raw`` with its header replaced and, for EDDS, the hash refreshed."""
    (n,) = struct.unpack_from("<I", raw, 5)
    tail = raw[9 + n:-32] if checksum else raw[9 + n:]
    body = raw[:5] + struct.pack("<I", len(header_bytes)) + header_bytes + tail
    return body + hashlib.sha256(body).digest() if checksum else body


def header_of(raw):
    (n,) = struct.unpack_from("<I", raw, 5)
    return json.loads(raw[9:9 + n])


class TestStreamedSave:
    @pytest.fixture(scope="class")
    def dataset_27(self):
        return generate_dataset(SPEC_27)

    def test_bytes_equal_in_memory_framing(self, dataset_27, tmp_path):
        assert len(dataset_27.records) == 27
        path = tmp_path / "ds.edds"
        save_dataset(dataset_27, path)
        assert path.read_bytes() == framed_in_memory(dataset_27)

    def test_roundtrip(self, dataset_27, tmp_path):
        path = tmp_path / "ds.edds"
        save_dataset(dataset_27, path)
        loaded = load_dataset(path)
        assert len(loaded.records) == 27
        for a, b in zip(dataset_27.records, loaded.records):
            assert (a.doa_deg, a.snr_db, a.range_m, a.seed) \
                == (b.doa_deg, b.snr_db, b.range_m, b.seed)
            assert a.baseband.data.tobytes() == b.baseband.data.tobytes()
        save_dataset(loaded, tmp_path / "again.edds")
        assert (tmp_path / "again.edds").read_bytes() == path.read_bytes()

    def test_mixed_shapes_write_nothing(self, dataset_27, tmp_path):
        records = list(dataset_27.records[:2])
        short = records[1].baseband.data[:, :-1]
        records[1] = DatasetRecord(0.0, 0.0, 1.0, 0,
                                   ComplexBaseband(short, CFG.effective_rate))
        path = tmp_path / "mixed.edds"
        with pytest.raises(InputError):
            save_dataset(Dataset(CFG, GEO, records), path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                       complex(0.0, math.inf)])
    def test_non_finite_sample_writes_nothing(self, dataset_27, value,
                                              tmp_path):
        records = list(dataset_27.records[:3])
        data = records[2].baseband.data.copy()
        data[1, data.shape[1] // 2] = value
        records[2] = DatasetRecord(0.0, 0.0, 1.0, 0,
                                   ComplexBaseband(data, CFG.effective_rate))
        path = tmp_path / "inf.edds"
        with pytest.raises(InputError, match="record 2: .* not finite"):
            save_dataset(Dataset(CFG, GEO, records), path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                       complex(0.0, -math.inf)])
    def test_non_finite_sample_fails_to_load(self, dataset_27, value,
                                             tmp_path):
        # framed without save_dataset, which would refuse the record;
        # the checksum holds, so only the sample is at fault
        records = list(dataset_27.records)
        data = records[-1].baseband.data.copy()
        data[0, -1] = value
        records[-1] = DatasetRecord(0.0, 0.0, 1.0, 0,
                                    ComplexBaseband(data, CFG.effective_rate))
        path = tmp_path / "inf.edds"
        path.write_bytes(framed_in_memory(Dataset(CFG, GEO, records)))
        with pytest.raises(FileFormatError, match="not finite"):
            load_dataset(path)

    def test_peak_memory_is_about_one_record(self, tmp_path):
        import tracemalloc

        sweep = generate_dataset(SweepSpec(records_per_cell=1))
        assert len(sweep.records) == 143
        record_bytes = 40 + sweep.records[0].baseband.data.nbytes
        path = tmp_path / "sweep.edds"
        tracemalloc.start()
        try:
            save_dataset(sweep, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * record_bytes, (peak, record_bytes)


def _mutated(header, key, value):
    header = dict(header)
    if value is KeyError:
        del header[key]
    else:
        header[key] = value
    return header


class TestMalformedDatasetHeader:
    """Headers that pass the checksum but are not what the writer emits."""

    @pytest.fixture(scope="class")
    def saved(self, small_dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("hdr") / "ds.edds"
        save_dataset(small_dataset, path)
        return path.read_bytes()

    def _load(self, raw, tmp_path):
        path = tmp_path / "bad.edds"
        path.write_bytes(raw)
        return load_dataset(path)

    @pytest.mark.parametrize("header_bytes", [
        b"\xff\xfe not utf-8", b"[1, 2]", b"42", b"{", b"[" * 100_000])
    def test_unreadable_or_non_object(self, saved, tmp_path, header_bytes):
        with pytest.raises(FileFormatError, match="header"):
            self._load(reframe(saved, header_bytes), tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("channels", KeyError), ("record_count", KeyError),
        ("config", KeyError), ("element_x", KeyError),
        ("effective_rate", KeyError), ("master_seed", KeyError),
        ("samples_per_channel", KeyError),
        ("channels", "2"), ("channels", 2.0), ("channels", True),
        ("record_count", -1), ("samples_per_channel", [1000]),
        ("effective_rate", "125000"), ("master_seed", None),
        ("element_x", "ab"), ("element_x", [0.0, "x"]), ("element_x", [0.0]),
        ("config", [1]), ("config", {"carrier": 1.0}),
        ("config", {"envelope": 5}), ("config", {"carrier_freq": "51200"}),
        ("config", {"decimation_factor": 8.0}),
        ("config", {"sample_rate": -1.0}),
        ("element_x", [0.0, 0.003, 0.006]), ("channels", 3),
        ("element_x", [0.0, math.nan]), ("element_x", [-math.inf, 0.0]),
        # a rate the header's own config does not give
        ("effective_rate", 1.0),
        # finite values whose sample count is not
        ("config", {"sample_rate": 1e308, "listen_window": 10.0})])
    def test_missing_or_mistyped_key(self, saved, tmp_path, key, value):
        header = _mutated(header_of(saved), key, value)
        raw = reframe(saved, json.dumps(header).encode())
        with pytest.raises(FileFormatError, match="malformed header"):
            self._load(raw, tmp_path)

    def test_reframed_unchanged_header_still_loads(self, saved, tmp_path):
        raw = reframe(saved, json.dumps(header_of(saved)).encode())
        assert len(self._load(raw, tmp_path).records) == 18

    @staticmethod
    def _with_rng_seed(saved, value):
        """``saved`` with an ``rng_seed`` config entry, as earlier writers had."""
        header = header_of(saved)
        header["config"]["rng_seed"] = value
        return reframe(saved, json.dumps(header, sort_keys=True).encode())

    @pytest.mark.parametrize("value", [0, 7, 2**64 - 1])
    def test_earlier_rng_seed_is_read_and_ignored(self, saved, tmp_path,
                                                  value):
        assert "rng_seed" not in header_of(saved)["config"]
        expected = self._load(saved, tmp_path)
        loaded = self._load(self._with_rng_seed(saved, value), tmp_path)
        assert loaded.config == expected.config
        assert loaded.geometry == expected.geometry
        assert len(loaded.records) == len(expected.records)
        for a, b in zip(expected.records, loaded.records):
            assert (a.doa_deg, a.snr_db, a.range_m, a.seed) \
                == (b.doa_deg, b.snr_db, b.range_m, b.seed)
            assert a.baseband.data.tobytes() == b.baseband.data.tobytes()

    @pytest.mark.parametrize("value", [-1, 2**64, 1.0, "0", True, None])
    def test_mistyped_rng_seed(self, saved, tmp_path, value):
        with pytest.raises(FileFormatError, match="rng_seed"):
            self._load(self._with_rng_seed(saved, value), tmp_path)


class TestMalformedCaptureHeader:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=0.8),
                               GEO, CFG)
        path = tmp_path_factory.mktemp("cap") / "echo.edcf"
        write_capture(path, wave, GEO, annotation="doa_deg=0")
        return path.read_bytes()

    def _read(self, raw, tmp_path):
        path = tmp_path / "bad.edcf"
        path.write_bytes(raw)
        return read_capture(path)

    @pytest.mark.parametrize("header_bytes", [b"\xc3\x28", b"[]", b"null"])
    def test_unreadable_or_non_object(self, saved, tmp_path, header_bytes):
        with pytest.raises(FileFormatError, match="header"):
            self._read(reframe(saved, header_bytes, checksum=False), tmp_path)

    def test_header_length_off_by_five(self, saved, tmp_path):
        (n,) = struct.unpack_from("<I", saved, 5)
        raw = saved[:5] + struct.pack("<I", n + 5) + saved[9:]
        with pytest.raises(FileFormatError, match="header"):
            self._read(raw, tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("annotation", KeyError), ("channels", KeyError),
        ("frame_count", KeyError), ("sample_rate", KeyError),
        ("element_x", KeyError), ("annotation", 5), ("channels", "2"),
        ("frame_count", -8000), ("sample_rate", "1e6"),
        ("element_x", {"x": 0}), ("element_x", [0.0, 0.003, 0.006]),
        ("channels", 3), ("element_x", [math.nan, 0.003])])
    def test_missing_or_mistyped_key(self, saved, tmp_path, key, value):
        header = _mutated(header_of(saved), key, value)
        raw = reframe(saved, json.dumps(header).encode(), checksum=False)
        with pytest.raises(FileFormatError, match="malformed header"):
            self._read(raw, tmp_path)
