"""Inputs, set-up and timed phases of the echodoa benchmark.

Three kinds of work, each a closed loop driven by one caller:

* ``music``: one echo at a time, ``to_baseband -> estimate_doa_music ->
  fuse_doa_with_ranges`` (the in-car path with the subspace estimator);
* ``cnn``: one echo at a time, ``to_baseband -> predict_doa`` (the
  in-car path with the network);
* ``sweep``: the research workflow of ``echodoa sweep`` at reduced size,
  ``generate_dataset -> save_dataset -> load_dataset -> train -> split
  -> evaluate([music, cnn]) -> snr_crossover``.

Echoes are synthesized with noise from the workload seed outside the
timed interval; a block holds one echo per (angle, SNR, spacing) cell
in a seeded order, so every block has the same mix of converged and
fallback paths. Every output is checked outside the timed interval.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from echodoa import datasets, doa_music, evaluation, neural, signal_sim, triangulation
from echodoa.errors import EchoDoaError, UnusableFallbackError

ANGLES_DEG = tuple(float(a) for a in range(-60, 61, 10))
SNRS_DB = tuple(float(s) for s in range(-30, 21, 5))
# lambda/2 is unambiguous; 1.5 lambda aliases into multi-member sets
SPACINGS_WL = (0.5, 1.5)
RANGE_M = (0.5, 0.95)
# two bumper range sensors either side of the array, which sits at the origin
SENSOR_X_M = (-0.2, 0.2)
SIGMA_R_M = 0.003
BATCH = neural.TrainConfig().batch_size     # the training batch of `echodoa sweep`
# one record per grid cell and one epoch keep a sweep pass near 2 s
SWEEP_RECORDS_PER_CELL = 1
SWEEP_EPOCHS = 1
# set-ups timed for `setup_s`, each in a fresh interpreter; echoes per
# stream path in the warm-up of a set-up
SETUP_REPEATS = 3
WARMUP_ECHOES = 8

# Output checks. Above CHECK_SNR_DB a converged MUSIC estimate should
# hold the truth in its ambiguity set within ANGLE_TOL_DEG (0.25 deg grid
# plus noise), and does for at least MIN_HIT_RATE of such echoes; when it
# does, the fused fix lies within FIX_TOL_M of the obstacle. A triangulated
# fix from exact ranges lies on the obstacle.
CHECK_SNR_DB = 10.0
ANGLE_TOL_DEG = 3.0
MIN_HIT_RATE = 0.99
FIX_TOL_M = 0.1
TRIANGULATION_TOL_M = 1e-6


@dataclass(frozen=True)
class Echo:
    doa_deg: float
    snr_db: float
    spacing_wl: float
    range_m: float
    noise_seed: int


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(what)


def echo_blocks(seed: int):
    """Endless blocks of echoes; the same seed yields the same blocks."""
    cells = [(a, s, sp) for a in ANGLES_DEG for s in SNRS_DB for sp in SPACINGS_WL]
    rng = np.random.default_rng([seed, 0xEC40])
    while True:
        order = rng.permutation(len(cells))
        ranges = rng.uniform(*RANGE_M, len(cells))
        seeds = rng.integers(0, 2**63, len(cells))
        yield [Echo(*cells[i], float(r), int(s))
               for i, r, s in zip(order, ranges, seeds)]


class EchoStream:
    """Echoes handed out in chunks that never straddle two blocks."""

    def __init__(self, seed: int):
        self._blocks = echo_blocks(seed)
        self._pending = []

    def chunk(self, n: int) -> list:
        if not self._pending:
            self._pending = next(self._blocks)
        out, self._pending = self._pending[:n], self._pending[n:]
        return out

    @property
    def at_block_end(self) -> bool:
        return not self._pending


class EchoSample(NamedTuple):
    """One timed echo: wall and thread CPU seconds of the timed part, and
    for MUSIC the absolute error and the high-SNR hit (see ``music_echo``)."""

    seconds: float
    cpu_seconds: float
    error_deg: float | None = None
    hit: bool | None = None


@dataclass
class Context:
    """State built by set-up and used by every phase."""

    config: signal_sim.SimConfig
    geometries: dict            # spacing in wavelengths -> ArrayGeometry
    sensors: tuple              # SensorPose pair
    checkpoint: neural.Checkpoint
    workdir: Path


def setup(seed: int, workdir: Path, tracer=None) -> Context:
    """Input generators, the stream checkpoint (saved and re-loaded), warm-up.

    The checkpoint is a seeded ``init_params`` network: inference cost
    does not depend on training. Warm-up runs each timed path once so
    first-call costs (BLAS buffers, page faults, lazy caches) land here.
    """
    if tracer:
        tracer.begin_op("setup")
    config = signal_sim.SimConfig()
    lam = signal_sim.wavelength(config)
    geometries = {sp: signal_sim.ArrayGeometry.pair(sp * lam) for sp in SPACINGS_WL}
    sensors = tuple(triangulation.SensorPose(x, 0.0) for x in SENSOR_X_M)
    spec = neural.NetworkSpec()
    params = neural.init_params(spec, seed, dtype=np.float64)
    path = workdir / "stream.edck"
    neural.save_checkpoint(neural.Checkpoint(spec=spec, params=params), path)
    checkpoint = neural.load_checkpoint(path)
    ctx = Context(config, geometries, sensors, checkpoint, workdir)

    if tracer:
        tracer.begin_op("warmup")
    block = next(echo_blocks(seed + 1))[:WARMUP_ECHOES]
    sink = Tally()
    for echo in block:
        music_echo(ctx, echo, sink)
        cnn_echo(ctx, echo, sink)
    if sink.failed:
        raise RuntimeError(f"warm-up failed: {sink.reasons}")
    warm = datasets.generate_dataset(datasets.SweepSpec(
        angles_deg=ANGLES_DEG, snrs_db=(20.0,), records_per_cell=1,
        master_seed=seed))
    x, y = neural.prepare_inputs(warm.records, spec)
    reps = -(-BATCH // len(y))
    x, y = np.tile(x, (reps, 1, 1))[:BATCH], np.tile(y, reps)[:BATCH]
    params32 = neural.init_params(spec, seed, dtype=np.float32)
    _, grads = neural.backward(spec, params32, x, y)
    neural.adam_step(params32, grads, neural.AdamHyper(), neural.AdamState(params32))
    return ctx


def synthesize(ctx: Context, echo: Echo) -> signal_sim.RealWaveform:
    scenario = signal_sim.SourceScenario(doa_deg=echo.doa_deg, range_m=echo.range_m)
    wave = signal_sim.synthesize_echo(scenario, ctx.geometries[echo.spacing_wl],
                                      ctx.config)
    return signal_sim.add_awgn(wave, echo.snr_db, echo.noise_seed)


def _obstacle(echo: Echo):
    theta = math.radians(echo.doa_deg)
    return echo.range_m * math.sin(theta), echo.range_m * math.cos(theta)


def _ranges(ctx: Context, echo: Echo):
    x, y = _obstacle(echo)
    return [triangulation.RangeMeasurement(
                sensor=s, range_m=math.hypot(x - s.x, y - s.y), sigma_r=SIGMA_R_M)
            for s in ctx.sensors]


def music_echo(ctx: Context, echo: Echo, tally: Tally):
    """One timed echo on the MUSIC path, or None if it failed.

    Returns an ``EchoSample``; its ``hit`` says whether a
    converged estimate above CHECK_SNR_DB holds the truth in its
    ambiguity set, and is None for other echoes. A miss is an estimation
    error, not a failure (noise can trip the detector early), so misses
    are checked as a rate over the run.
    """
    tally.attempted += 1
    try:
        wave = synthesize(ctx, echo)
        m1, m2 = _ranges(ctx, echo)
        geometry = ctx.geometries[echo.spacing_wl]
        c0, t0 = time.thread_time(), time.perf_counter()
        base = signal_sim.to_baseband(wave, ctx.config)
        est = doa_music.estimate_doa_music(base, geometry, ctx.config)
        try:
            fix = triangulation.fuse_doa_with_ranges(est, m1, m2)
        except UnusableFallbackError:
            fix = None
        elapsed, cpu = time.perf_counter() - t0, time.thread_time() - c0
    except Exception as exc:      # one bad echo must not end the stream
        tally.fail(f"music {echo}: {type(exc).__name__}: {exc}")
        return None
    hit = None
    if est.status == doa_music.CONVERGED and echo.snr_db >= CHECK_SNR_DB:
        hit = min(abs(a - echo.doa_deg) for a in est.ambiguity_deg) <= ANGLE_TOL_DEG
    problem = _check_music(echo, est, fix, hit)
    if problem:
        tally.fail(f"music {echo}: {problem}")
        return None
    return EchoSample(elapsed, cpu, abs(est.angle_deg - echo.doa_deg), hit)


def _check_music(echo, est, fix, hit):
    if est.status not in (doa_music.CONVERGED, doa_music.FALLBACK):
        return f"unknown status {est.status!r}"
    if not (math.isfinite(est.angle_deg) and abs(est.angle_deg) <= 90.0):
        return f"angle {est.angle_deg} outside [-90, 90]"
    if est.angle_deg not in est.ambiguity_deg:
        return f"estimate missing from its ambiguity set {est.ambiguity_deg}"
    if fix is None:
        return None
    if not all(math.isfinite(v) for v in (fix.x, fix.y, fix.ellipse.semi_major,
                                          fix.ellipse.semi_minor)):
        return "non-finite position fix"
    miss = math.dist((fix.x, fix.y), _obstacle(echo))
    if est.status == doa_music.FALLBACK and miss > TRIANGULATION_TOL_M:
        return f"triangulated fix {miss:.3g} m from the obstacle"
    if hit and miss > FIX_TOL_M:
        return f"fused fix {miss:.3g} m from the obstacle"
    return None


def cnn_echo(ctx: Context, echo: Echo, tally: Tally):
    """One timed echo on the CNN path; returns an ``EchoSample`` or None."""
    tally.attempted += 1
    try:
        wave = synthesize(ctx, echo)
        c0, t0 = time.thread_time(), time.perf_counter()
        base = signal_sim.to_baseband(wave, ctx.config)
        est = neural.predict_doa(ctx.checkpoint, base)
        elapsed, cpu = time.perf_counter() - t0, time.thread_time() - c0
    except Exception as exc:      # one bad echo must not end the stream
        tally.fail(f"cnn {echo}: {type(exc).__name__}: {exc}")
        return None
    if (est.status not in (doa_music.CONVERGED, doa_music.FALLBACK)
            or not math.isfinite(est.angle_deg) or abs(est.angle_deg) >= 90.0
            or est.ambiguity_deg != (est.angle_deg,)):
        tally.fail(f"cnn {echo}: malformed estimate {est}")
        return None
    return EchoSample(elapsed, cpu)


@dataclass
class SweepPass:
    seconds: float
    stages: dict                # stage -> seconds
    records: int
    train_records: int
    epochs: int
    held_out: int
    val_loss: float
    crossover_db: float | None


def sweep_pass(ctx: Context, seed: int, tally: Tally):
    """One reduced ``echodoa sweep``, timed stage by stage; None on failure."""
    tally.attempted += 1
    spec = datasets.SweepSpec(angles_deg=ANGLES_DEG, snrs_db=SNRS_DB,
                              records_per_cell=SWEEP_RECORDS_PER_CELL,
                              master_seed=seed)
    train_config = neural.TrainConfig(epochs=SWEEP_EPOCHS, shuffle_seed=seed)
    path = ctx.workdir / "sweep.edds"
    marks = []
    try:
        marks.append(time.perf_counter())
        ds = datasets.generate_dataset(spec, 1)
        marks.append(time.perf_counter())
        datasets.save_dataset(ds, path)
        marks.append(time.perf_counter())
        loaded = datasets.load_dataset(path)
        marks.append(time.perf_counter())
        checkpoint, history = neural.train(loaded, neural.NetworkSpec(), train_config,
                                           neural.AdamHyper(), seed)
        marks.append(time.perf_counter())
        train_part, held_out = datasets.split(loaded, train_config.train_fraction, seed)
        marks.append(time.perf_counter())
        estimators = [evaluation.MusicEstimator(), evaluation.NeuralEstimator(checkpoint)]
        table = evaluation.evaluate(held_out, estimators, evaluation.DOMAIN_FULL, 1)
        marks.append(time.perf_counter())
        try:
            crossover = evaluation.snr_crossover(table, "cnn", "music")
        except EchoDoaError:      # curves too short or disjoint: the CLI reports null
            crossover = None
        marks.append(time.perf_counter())
    except Exception as exc:      # one bad pass must not end the run
        tally.fail(f"sweep seed {seed}: {type(exc).__name__}: {exc}")
        return None
    problem = _check_sweep(ds, loaded, history, table, held_out)
    if problem:
        tally.fail(f"sweep seed {seed}: {problem}")
        return None
    names = ("generate", "save", "load", "train", "split", "evaluate", "crossover")
    return SweepPass(seconds=marks[-1] - marks[0],
                     stages={n: b - a for n, a, b in zip(names, marks, marks[1:])},
                     records=len(ds.records), train_records=len(train_part.records),
                     epochs=len(history), held_out=len(held_out.records),
                     val_loss=history[-1].val_loss, crossover_db=crossover)


def _check_sweep(ds, loaded, history, table, held_out):
    if len(loaded.records) != len(ds.records):
        return "EDDS round trip changed the record count"
    for a, b in zip(ds.records, loaded.records):
        if (a.doa_deg, a.snr_db, a.range_m, a.seed) != (b.doa_deg, b.snr_db, b.range_m, b.seed) \
                or not np.array_equal(a.baseband.data, b.baseband.data):
            return "EDDS round trip changed a record"
    if not all(math.isfinite(h.train_loss) and math.isfinite(h.val_loss) for h in history):
        return "non-finite training loss"
    for name in ("music", "cnn"):
        rows = table.select(name)
        if sum(r.n for r in rows) != len(held_out.records):
            return f"{name} rows do not cover the held-out records"
        if not all(math.isfinite(r.mae_deg) and 0.0 <= r.fallback_rate <= 1.0 for r in rows):
            return f"{name} rows hold invalid metrics"
    return None
