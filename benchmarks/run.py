#!/usr/bin/env python3
"""echodoa benchmark: one closed-loop workload, correctness gates, metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload stream_music --seed 1 --seconds 22 --trace 0

There are three kinds of work (see ``phases.py``): ``music`` and ``cnn``
stream echoes through the in-car paths, ``sweep`` repeats a reduced
``echodoa sweep``. Every workload reports every end-to-end metric, so a
run gives half of its time to its home kind (``stream_music`` ->
music, ``stream_cnn`` -> cnn, ``sweep`` -> sweep) and a quarter to each
of the other two, in interleaved units; each metric comes from the units
of its kind, and is steadiest on its home workload.

Timing metrics, apart from ``UNADJUSTED``, are divided by the run's
host-speed index (see ``calibration.py``), so they read as on a quiet
host; the raw values and the index go to the result file.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans (see ``tracing.py`` and ``layers.py``). Each metric
line gives its unit and sample count; the last line of standard output
is the JSON result, and the full result with an environment block goes
to ``benchmarks/results/``. Exit status is 0 only for a correct run.

BLAS is pinned to one thread before numpy loads. The timed work runs in
this one process with one caller; the set-ups timed for ``setup_s`` run
one after another, each in a fresh interpreter (``cold_setup.py``).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

# kind of work per phase, home phase first
WORKLOADS = {
    "stream_music": ("music", "cnn", "sweep"),
    "stream_cnn": ("cnn", "music", "sweep"),
    "sweep": ("sweep", "music", "cnn"),
}
HOME_SHARE = 0.5
# a stream unit is a chunk of echoes (11 per block of 286, one echo per
# grid cell); a sweep unit is one pass
CHUNK_ECHOES = 26
COLD_SETUP_TIMEOUT_S = 120
# timings the host-speed index does not track, reported as measured: a
# cold set-up is mostly process start-up, and a CPU-time tail is the
# echoes that met a burst of contention, which a run-long median of the
# reference work does not follow
UNADJUSTED = {"setup_s", "music_latency_ms_p99", "cnn_latency_ms_p99"}

# metric names and units; the code computes the values
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "echodoa" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import echodoa
    if Path(echodoa.__file__).resolve().parent != SRC / "echodoa":
        print(f"error: imported echodoa from {echodoa.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / str(os.getpid())
    workdir.mkdir()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']:10s} n={m['n']}")
    if "host_index" in result:
        print(f"{'host_index (timings above are divided by it)':48s} "
              f"{result['host_index']['value']:14.6g} {'':10s} n={result['host_index']['n']}")
    for reason in result["failures"]:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()
                    if name in result["reported"]},
    }))
    return 0 if result["correct"] else 1


def run(workload, seed, seconds, trace, workdir) -> dict:
    """One benchmark run; returns the full result (see ``main`` for output)."""
    import gates
    import layers
    from calibration import Calibration, adjust
    from phases import MIN_HIT_RATE, Tally, setup
    from tracing import Tracer

    tally = Tally()
    calibration = Calibration()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    ctx = setup(seed, workdir, tracer)
    if tracer:
        tracer.remove()
    setup_times, cold_val_loss = cold_setups(seed, workdir, tally, calibration)

    gate_results = gates.run_gates(ctx, seed, tally)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "inputs": inputs_block(),
        "gates": gate_results,
        "metrics": {}, "reported": [],
    }
    if tally.failed:
        return finish(result, tally)

    home = WORKLOADS[workload][0]
    samples, spent = run_mix(workload, seconds, ctx, seed, tally, tracer, calibration)

    passes = [p for unit in samples["sweep"] for p in unit]
    val_losses = sorted({p.val_loss for p in passes} | {cold_val_loss})
    hits = [s.hit for unit in samples["music"] for s in unit if s.hit is not None]
    hit_rate = sum(hits) / len(hits) if hits else 1.0
    result["gates"].update(
        sweep_val_loss_bit_identical={"passed": len(val_losses) == 1, "value": val_losses,
                                      "n": len(passes) + 1},
        music_high_snr_hit_rate={"passed": hit_rate >= MIN_HIT_RATE, "value": hit_rate,
                                 "n": len(hits)})
    for name in ("sweep_val_loss_bit_identical", "music_high_snr_hit_rate"):
        tally.attempted += 1
        if not result["gates"][name]["passed"]:
            tally.fail(f"gate {name}: {result['gates'][name]['value']}")
    if tally.failed:
        return finish(result, tally)

    if tracer:
        raw = with_units(layers.per_layer(tracer, home, spent[home]), "per_layer")
    else:
        raw = with_units(end_to_end(samples, setup_times), "end_to_end")
    result["reported"] = sorted(raw)
    index = calibration.index()
    metrics = adjust(raw, index, keep=UNADJUSTED)
    result["raw_metrics"] = raw
    result["host_index"] = {"value": index, "n": len(calibration.samples)}
    if tracer:
        result["extrapolation"] = layers.extrapolate(metrics, passes)
    # printed and kept in the result file, but not bounded metrics: the
    # error rate is zero on a good run, and the validation loss after one
    # epoch varies across seeds far beyond any regression bound
    metrics["error_rate"] = metric(tally.failed / tally.attempted, "ratio", tally.attempted)
    metrics["cnn_val_loss"] = metric(passes[0].val_loss, "mse", len(passes) + 1)
    result["crossover_db"] = passes[0].crossover_db
    result["metrics"] = metrics
    return finish(result, tally)


def finish(result, tally) -> dict:
    result.update(correct=tally.failed == 0, attempted=tally.attempted,
                  failed=tally.failed, failures=tally.reasons)
    if tally.failed:
        result["metrics"], result["reported"] = {}, []
    return result


def cold_setups(seed, workdir, tally, calibration):
    """Time SETUP_REPEATS set-ups, each in a fresh interpreter (``cold_setup.py``).

    A set-up in this process after the first would find BLAS warm and
    module caches full; a fresh interpreter pays those costs every time.
    The first child also runs one sweep pass, whose validation loss the
    determinism gate compares with this process's passes. Returns the
    set-up seconds and that validation loss.
    """
    from phases import SETUP_REPEATS

    times, val_loss = [], None
    for i in range(SETUP_REPEATS):
        tally.attempted += 1
        child_dir = workdir / f"cold{i}"
        child_dir.mkdir()
        cmd = [sys.executable, str(HERE / "cold_setup.py"), str(seed), str(child_dir)]
        if i == 0:
            cmd.append("--sweep")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  timeout=COLD_SETUP_TIMEOUT_S)
            out = json.loads(proc.stdout.splitlines()[-1])
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            stderr = (getattr(exc, "stderr", None) or "").strip()[-300:]
            tally.fail(f"cold set-up {i}: {type(exc).__name__}: {exc} {stderr}")
            continue
        calibration.sample()
        times.append(out["setup_s"])
        if out.get("failures"):
            tally.fail(f"cold set-up {i}: sweep pass failed: {out['failures']}")
        val_loss = out.get("val_loss", val_loss)
    return times, val_loss


def run_mix(workload, seconds, ctx, seed, tally, tracer, calibration):
    """Interleave units of the three kinds of work for ``seconds``.

    The next unit goes to the kind furthest behind its share of the time
    spent so far, so every metric samples the whole run and not one
    stretch of it (throughput on a shared host drifts over seconds).
    After the time is up, stream kinds finish their block and every kind
    has at least one unit. The calibration work runs after every unit,
    outside its time.

    Returns per kind a list of units, each a list of samples (per echo
    the tuple from ``music_echo``/``cnn_echo``, per sweep pass a
    ``SweepPass``), and per kind the seconds its units took.
    """
    from phases import EchoStream, cnn_echo, music_echo, sweep_pass

    kinds = WORKLOADS[workload]
    home = kinds[0]
    share = {k: HOME_SHARE if k == home else (1.0 - HOME_SHARE) / 2 for k in kinds}
    streams = {"music": EchoStream(seed), "cnn": EchoStream(seed)}
    steps = {"music": music_echo, "cnn": cnn_echo}
    spent = dict.fromkeys(kinds, 0.0)
    samples = {k: [] for k in kinds}
    if tracer:
        tracer.install()
    while True:
        total = sum(spent.values())
        unfinished = [k for k in kinds if not samples[k]
                      or (k in streams and not streams[k].at_block_end)]
        if total >= seconds and not unfinished:
            break
        kind = max(unfinished if total >= seconds else kinds,
                   key=lambda k: share[k] * total - spent[k])
        start = time.perf_counter()
        if kind == "sweep":
            if tracer:
                tracer.begin_op("sweep")
            found = [sweep_pass(ctx, seed, tally)]
        else:
            found = []
            for echo in streams[kind].chunk(CHUNK_ECHOES):
                if tracer:
                    tracer.begin_op(kind)
                found.append(steps[kind](ctx, echo, tally))
        spent[kind] += time.perf_counter() - start
        calibration.sample()
        samples[kind].append([s for s in found if s is not None])
    if tracer:
        tracer.remove()
    return samples, spent


def metric(value, unit, n) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def with_units(values, section) -> dict:
    """``{name: (value, n)}`` as metrics, with the units BENCHMARK.json gives."""
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    if set(values) != set(units):
        raise RuntimeError(f"computed {section} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: metric(v, units[name], n) for name, (v, n) in values.items()}


def end_to_end(samples, setup_times) -> dict:
    """Every end-to-end metric as ``{name: (value, sample count)}``."""
    import numpy as np

    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 1),
    }
    for kind in ("music", "cnn"):
        lat = np.array([s.seconds for unit in samples[kind] for s in unit])
        cpu = np.array([s.cpu_seconds for unit in samples[kind] for s in unit])
        values[f"{kind}_latency_ms_p50"] = (np.median(lat) * 1e3, lat.size)
        # the wall-time tail is the scheduler giving the core away; the
        # program's own tail is in the thread's CPU time
        values[f"{kind}_latency_ms_p99"] = (np.percentile(cpu, 99) * 1e3, cpu.size)
        values[f"{kind}_echoes_per_s"] = (lat.size / lat.sum(), lat.size)
    errors = [s.error_deg for unit in samples["music"] for s in unit]
    values["music_mae_deg"] = (statistics.fmean(errors), len(errors))
    passes = [p for unit in samples["sweep"] for p in unit]
    per_pass = {
        "sweep_s": [p.seconds for p in passes],
        "generate_records_per_s": [p.records / p.stages["generate"] for p in passes],
        "train_records_per_s": [p.train_records * p.epochs / p.stages["train"]
                                for p in passes],
        "eval_records_per_s": [p.held_out / p.stages["evaluate"] for p in passes],
    }
    for name, per in per_pass.items():
        values[name] = (statistics.median(per), len(per))
    return values


def openblas_threads():
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": openblas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "workers": 1,
        "callers": 1,
    }


def inputs_block() -> dict:
    from phases import (ANGLES_DEG, BATCH, RANGE_M, SETUP_REPEATS, SNRS_DB, SPACINGS_WL,
                        SWEEP_EPOCHS, SWEEP_RECORDS_PER_CELL)

    return {
        "stream_block_echoes": len(ANGLES_DEG) * len(SNRS_DB) * len(SPACINGS_WL),
        "stream_grid": {"angles_deg": ANGLES_DEG, "snrs_db": SNRS_DB,
                        "spacings_wl": SPACINGS_WL, "range_m": RANGE_M},
        "sweep_records": len(ANGLES_DEG) * len(SNRS_DB) * SWEEP_RECORDS_PER_CELL,
        "sweep_grid": {"angles_deg": ANGLES_DEG, "snrs_db": SNRS_DB,
                       "records_per_cell": SWEEP_RECORDS_PER_CELL},
        "sweep_epochs": SWEEP_EPOCHS,
        "train_batch": BATCH,
        "setup_repeats": SETUP_REPEATS,
        "home_share": HOME_SHARE,
    }


if __name__ == "__main__":
    sys.exit(main())
