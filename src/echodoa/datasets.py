"""Labeled dataset generation, persistence, and capture-file ingestion.

Sweeps an (angle, SNR) grid with a configurable number of records per
cell, drawing the obstacle range per record so estimators cannot key on
a fixed echo position. Record seeds derive from the master seed and the
cell indices, so generation order and worker count never change the
output.

Two file formats live here: ``EDDS`` dataset files, whose payload is
fixed-size records (``_record_layout``: the five ``_LABELS``, then the
baseband samples), and ``EDCF`` capture files, whose payload is an
externally recorded raw waveform. Their shared framing (magic, version, JSON
header, SHA-256 trailer on EDDS only), the typed header fields and the
payload length check are defined in ``container.py``.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import container
from .errors import (
    ApertureViolationError,
    EmptyDatasetError,
    FileFormatError,
    InputError,
    RateMismatchError,
    ScenarioOutOfWindowError,
)
from .signal_sim import (
    ArrayGeometry,
    ComplexBaseband,
    EchoNotFoundError,
    RealWaveform,
    SimConfig,
    SourceScenario,
    add_awgn,
    detect_echo_window,
    synthesize_echo,
    to_baseband,
    wavelength,
)

DATASET_MAGIC = b"EDDS"
CAPTURE_MAGIC = b"EDCF"
FORMAT_VERSION = 1

DEFAULT_ANGLES = tuple(float(a) for a in range(-60, 61, 10))
DEFAULT_SNRS = tuple(float(s) for s in range(-30, 21, 5))


def _default_geometry() -> ArrayGeometry:
    return ArrayGeometry.pair(wavelength(SimConfig()) / 2.0)


@dataclass(frozen=True)
class SweepSpec:
    """Grid of scenarios to simulate.

    The range interval default keeps the round trip inside the default
    8 ms listen window with the echo always inside a record-centered
    network crop.
    """

    angles_deg: tuple = DEFAULT_ANGLES
    snrs_db: tuple = DEFAULT_SNRS
    records_per_cell: int = 40
    geometry: ArrayGeometry = field(default_factory=_default_geometry)
    config: SimConfig = field(default_factory=SimConfig)
    range_interval_m: tuple = (0.5, 0.95)
    aperture_deg: float = 60.0
    master_seed: int = 0

    def __post_init__(self):
        if not self.angles_deg or not self.snrs_db:
            raise InputError("angle and SNR grids must be non-empty")
        if self.records_per_cell < 1:
            raise InputError("records_per_cell must be at least 1")
        # written so that NaN fails the check
        if not 0.0 <= self.aperture_deg <= 90.0:
            raise InputError("aperture_deg must lie in [0, 90]")
        if any(abs(a) > self.aperture_deg for a in self.angles_deg):
            raise ApertureViolationError(
                f"angles exceed the +-{self.aperture_deg} degree aperture")
        lo, hi = self.range_interval_m
        if not 0 < lo <= hi:
            raise InputError("range interval must satisfy 0 < lo <= hi")
        max_range = (self.config.listen_window - self.config.echo_duration) \
            * self.config.sound_speed / 2.0
        if hi > max_range:
            raise ScenarioOutOfWindowError(
                f"range up to {hi} m does not fit the listen window "
                f"(max {max_range:.3f} m)")

    @property
    def record_count(self) -> int:
        return len(self.angles_deg) * len(self.snrs_db) * self.records_per_cell


@dataclass
class DatasetRecord:
    """One labeled baseband record."""

    doa_deg: float
    snr_db: float
    range_m: float
    seed: int
    baseband: ComplexBaseband
    tof_s: float = math.nan       # detected time of flight, NaN if none


@dataclass
class Dataset:
    config: SimConfig
    geometry: ArrayGeometry
    records: list
    master_seed: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def describe(self) -> str:
        return (f"{len(self.records)} records, "
                f"{self.geometry.num_elements} channels, seed "
                f"{self.master_seed}")


def record_seed(master_seed: int, angle_idx: int, snr_idx: int,
                rep: int) -> int:
    """Stable per-record seed, independent of generation order."""
    packed = struct.pack("<QQQQ", master_seed, angle_idx, snr_idx, rep)
    return int.from_bytes(hashlib.sha256(packed).digest()[:8], "little")


def detected_tof(base: ComplexBaseband) -> float:
    """Time of flight of the echo detected in ``base``; NaN if none."""
    try:
        return detect_echo_window(base).tof_s
    except EchoNotFoundError:
        return math.nan


# scenario draws use a Philox channel id outside the sensor range
_SCENARIO_STREAM = 2**32


def simulate_record(scenario: SourceScenario, geometry: ArrayGeometry,
                    config: SimConfig, seed: int) -> tuple:
    """The noisy waveform of ``scenario`` and its labeled record.

    Synthesis, AWGN drawn from ``seed``, demodulation and echo
    detection, in that order; ``(noisy wave, DatasetRecord)``.
    """
    wave = add_awgn(synthesize_echo(scenario, geometry, config),
                    scenario.snr_db, seed)
    base = to_baseband(wave, config)
    return wave, DatasetRecord(doa_deg=scenario.doa_deg,
                               snr_db=scenario.snr_db,
                               range_m=scenario.range_m, seed=seed,
                               baseband=base, tof_s=detected_tof(base))


def _make_record(spec: SweepSpec, angle_idx: int, snr_idx: int,
                 rep: int) -> DatasetRecord:
    seed = record_seed(spec.master_seed, angle_idx, snr_idx, rep)
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, _SCENARIO_STREAM], dtype=np.uint64)))
    lo, hi = spec.range_interval_m
    scenario = SourceScenario(doa_deg=spec.angles_deg[angle_idx],
                              range_m=float(rng.uniform(lo, hi)),
                              snr_db=spec.snrs_db[snr_idx])
    return simulate_record(scenario, spec.geometry, spec.config, seed)[1]


def pool_size(workers: int, chunks: int) -> int:
    """Worker processes to start for ``chunks`` pieces of work.

    ``workers`` (at least 1, else InputError) capped by the chunk count
    and by the CPUs this process may run on; 1 means run in-process.
    """
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(workers, chunks, cpus))


def pool_map(fn, arg_tuples: list, workers: int, chunk: int) -> list:
    """``[fn(*args) for args in arg_tuples]``, in item order.

    The items go out ``chunk`` at a time to ``pool_size(workers,
    chunks)`` processes; with one, they run in the calling process.
    ``fn`` and the items must pickle.
    """
    size = pool_size(workers, -(-len(arg_tuples) // chunk))
    if size == 1:
        return [fn(*args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, *zip(*arg_tuples), chunksize=chunk))


_GENERATE_CHUNK = 32


def generate_dataset(spec: SweepSpec, workers: int = 1) -> Dataset:
    """All grid cells times records_per_cell, in deterministic order.

    ``workers`` processes at most, ``_GENERATE_CHUNK`` records to a
    chunk (see ``pool_map``); the records do not depend on how many run.
    """
    cells = [(spec, ai, si, rep)
             for ai in range(len(spec.angles_deg))
             for si in range(len(spec.snrs_db))
             for rep in range(spec.records_per_cell)]
    records = pool_map(_make_record, cells, workers, _GENERATE_CHUNK)
    return Dataset(config=spec.config, geometry=spec.geometry,
                   records=records, master_seed=spec.master_seed)


# --- persistence -----------------------------------------------------------

# the labels of a record, in EDDS payload and index order, with the
# type each has in the payload
_LABELS = {"doa_deg": "<f8", "snr_db": "<f8", "range_m": "<f8",
           "seed": "<u8", "tof_s": "<f8"}


def _record_layout(channels: int, samples: int) -> np.dtype:
    """One EDDS payload record: its labels, then its baseband samples."""
    return np.dtype([*_LABELS.items(), ("data", "<c16", (channels, samples))])


def _labels(record: DatasetRecord) -> tuple:
    return tuple(getattr(record, name) for name in _LABELS)


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` as an EDDS file, one record at a time.

    Records of differing shapes, or a baseband sample that is not
    finite, raise ``InputError`` before any byte is written.
    """
    records = dataset.records
    channels = dataset.geometry.num_elements
    samples = records[0].baseband.samples_per_channel if records else 0
    if any(rec.baseband.data.shape != (channels, samples) for rec in records):
        raise InputError("records must share one payload shape")
    for i, rec in enumerate(records):
        if not np.isfinite(rec.baseband.data).all():
            raise InputError(f"record {i}: a baseband sample is not finite")
    header = {
        "config": asdict(dataset.config),
        "element_x": list(dataset.geometry.element_x),
        "master_seed": dataset.master_seed,
        "record_count": len(records),
        "channels": channels,
        "samples_per_channel": samples,
        "effective_rate": dataset.config.effective_rate,
    }
    layout = _record_layout(channels, samples)
    rows = (np.array((*_labels(rec), rec.baseband.data), dtype=layout)
            for rec in records)
    container.write(path, DATASET_MAGIC, FORMAT_VERSION, header, rows)


_NUMBER = (int, float)


def _sim_config(header: dict) -> SimConfig:
    config = dict(container.field(header, "config", dict))
    # earlier writers stored rng_seed, a setting that drove nothing;
    # it is checked as they wrote it and dropped
    if "rng_seed" in config:
        if not 0 <= container.field(config, "rng_seed", int) < 2**64:
            raise ValueError(f"rng_seed must fit in 64 bits, got "
                             f"{config['rng_seed']}")
        del config["rng_seed"]
    for key in config:
        kind = SimConfig.kind(key)
        container.field(config, key, *(_NUMBER if kind is float else (kind,)))
    return SimConfig(**config)


def _geometry(header: dict) -> ArrayGeometry:
    return ArrayGeometry(
        element_x=tuple(container.list_field(header, "element_x", *_NUMBER)))


def _channels(header: dict) -> int:
    channels = container.count(header, "channels")
    if channels != 2:
        raise ValueError(f"channels must be 2 (a pair), got {channels}")
    return channels


def _dataset_header(header: dict) -> tuple:
    """The dataset a header describes, without its records; its record
    layout and record count."""
    config = _sim_config(header)
    rate = container.field(header, "effective_rate", *_NUMBER)
    if rate != config.effective_rate:
        raise ValueError(f"effective_rate {rate} is not the config's "
                         f"{config.effective_rate}")
    dataset = Dataset(config=config, geometry=_geometry(header), records=[],
                      master_seed=container.count(header, "master_seed"))
    # a record too large for a NumPy dtype raises ValueError here
    layout = _record_layout(_channels(header),
                            container.count(header, "samples_per_channel"))
    return dataset, layout, container.count(header, "record_count")


def load_dataset(path) -> Dataset:
    """Read an EDDS file written by ``save_dataset``.

    A defect in the framing, the checksum, the header or the payload
    length, an ``effective_rate`` other than its config's, or a
    baseband sample that is not finite, raises ``FileFormatError`` (or
    a subclass of it).
    """
    dataset, rows = container.read(path, DATASET_MAGIC,
                                   {FORMAT_VERSION: _dataset_header})
    if not np.isfinite(rows["data"]).all():
        raise FileFormatError(f"{path}: a baseband sample is not finite")
    rate = dataset.config.effective_rate
    dataset.records = [
        DatasetRecord(**dict(zip(_LABELS, values)),
                      baseband=ComplexBaseband(data=data.copy(),
                                               sample_rate=rate))
        for values, data in zip(rows[list(_LABELS)].tolist(), rows["data"])]
    return dataset


def write_index_text(dataset: Dataset, path) -> None:
    """Plain-text audit listing of per-record labels."""
    container.write_table(path, ("index", *_LABELS),
                          ((i, *_labels(rec))
                           for i, rec in enumerate(dataset.records)))


def split(dataset: Dataset, train_fraction: float, seed: int):
    """Deterministic stratified train/test partition.

    Every (angle, SNR) cell with two or more records contributes to
    both sides; overall sizes are ceil(n * fraction) and the remainder.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InputError("train_fraction must lie in (0, 1)")
    n = len(dataset.records)
    if n == 0:
        raise EmptyDatasetError("cannot split an empty dataset")
    target = math.ceil(n * train_fraction)

    cells = {}
    for idx, rec in enumerate(dataset.records):
        cells.setdefault((rec.doa_deg, rec.snr_db), []).append(idx)
    rng = np.random.default_rng(seed)

    # per-cell quota bounds keep every >= 2-record cell on both sides;
    # the global target is met whenever those bounds allow it
    floors, limits, quotas = {}, {}, {}
    for key in sorted(cells):
        size = len(cells[key])
        floors[key] = 1 if size >= 2 else 0
        limits[key] = size - 1 if size >= 2 else size
        quotas[key] = min(max(round(size * train_fraction), floors[key]),
                          limits[key])
    target = min(max(target, sum(floors.values())), sum(limits.values()))
    keys = sorted(cells, key=lambda k: (-len(cells[k]), k))
    i = 0
    while sum(quotas.values()) != target:
        key = keys[i % len(keys)]
        if sum(quotas.values()) < target and quotas[key] < limits[key]:
            quotas[key] += 1
        elif sum(quotas.values()) > target and quotas[key] > floors[key]:
            quotas[key] -= 1
        i += 1

    train_idx, test_idx = [], []
    for key in sorted(cells):
        members = list(cells[key])
        perm = rng.permutation(len(members))
        shuffled = [members[j] for j in perm]
        take = quotas[key]
        train_idx += shuffled[:take]
        test_idx += shuffled[take:]
    train_idx.sort()
    test_idx.sort()
    make = lambda idxs: Dataset(config=dataset.config,
                                geometry=dataset.geometry,
                                records=[dataset.records[i] for i in idxs],
                                master_seed=dataset.master_seed)
    return make(train_idx), make(test_idx)


# --- capture files ----------------------------------------------------------

def write_capture(path, wave: RealWaveform, geometry: ArrayGeometry,
                  annotation: str = "") -> None:
    """Persist a raw real waveform as an ``EDCF`` capture file.

    A sample that is not finite raises ``InputError`` before any byte is
    written.
    """
    if not np.isfinite(wave.data).all():
        raise InputError("a sample is not finite")
    header = {
        "sample_rate": wave.sample_rate,
        "channels": wave.channels,
        "frame_count": wave.samples_per_channel,
        "element_x": list(geometry.element_x),
        "annotation": annotation,
    }
    container.write(path, CAPTURE_MAGIC, FORMAT_VERSION, header,
                    [np.ascontiguousarray(wave.data, dtype="<f8")],
                    checksum=False)


def read_capture(path):
    """Raw waveform, geometry, and annotation from a capture file.

    A defect in the framing, the header or the payload length, or a
    sample that is not finite, raises ``FileFormatError`` (or a
    subclass of it).
    """
    (rate, geometry, annotation), samples = container.read(
        path, CAPTURE_MAGIC, {FORMAT_VERSION: _capture_header}, checksum=False)
    data = samples.reshape(geometry.num_elements, -1).copy()
    if not np.isfinite(data).all():
        raise FileFormatError(f"{path}: a sample is not finite")
    return RealWaveform(data=data, sample_rate=rate), geometry, annotation


def _capture_header(header: dict) -> tuple:
    """Sample rate, geometry and annotation; the samples, ``channels *
    frame_count`` little-endian doubles."""
    decoded = (container.field(header, "sample_rate", *_NUMBER),
               _geometry(header), container.field(header, "annotation", str))
    frames = container.count(header, "frame_count")
    return decoded, "<f8", _channels(header) * frames


def _parse_annotation(text: str) -> dict:
    values = {}
    for part in text.split(";"):
        part = part.strip()
        if not part or "=" not in part:
            continue
        key, val = part.split("=", 1)
        try:
            values[key.strip()] = float(val)
        except ValueError:
            pass
    return values


def ingest_capture(path, geometry: ArrayGeometry,
                   config: SimConfig) -> list:
    """Records from an externally captured waveform file.

    The declared sample rate must match the configuration; the stored
    geometry must match the expected one. Annotations of the form
    ``doa_deg=30;snr_db=10;range_m=1.5`` become labels, otherwise the
    label fields are NaN.
    """
    wave, file_geometry, annotation = read_capture(path)
    if wave.sample_rate != config.sample_rate:
        raise RateMismatchError(
            f"{path}: captured at {wave.sample_rate} Hz, config expects "
            f"{config.sample_rate} Hz")
    if file_geometry.element_x != geometry.element_x:
        raise InputError(
            f"{path}: capture geometry {file_geometry.element_x} does not "
            f"match expected {geometry.element_x}")
    base = to_baseband(wave, config)
    labels = _parse_annotation(annotation)
    return [DatasetRecord(
        doa_deg=labels.get("doa_deg", math.nan),
        snr_db=labels.get("snr_db", math.nan),
        range_m=labels.get("range_m", math.nan),
        seed=0, baseband=base, tof_s=detected_tof(base))]
