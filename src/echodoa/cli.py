"""Command-line interface: reproducible experiments over the library.

One binary with subcommands (simulate, dataset, train, eval, music,
triangulate, sweep, gradcheck). Every subcommand accepts and validates
``--seed``, ``--config`` (also via the ECHODOA_CONFIG environment
variable), ``--sim`` and ``--workers`` before it runs, but only some
read them:

* ``--seed``: simulate, dataset, train, sweep, gradcheck, and music's
  demo scenario;
* ``--config``/``--sim``: simulate, dataset, sweep, and music without
  ``--dataset`` (a dataset carries its own config);
* ``--workers``: dataset, eval and sweep.

``--sim`` overrides win over the config file. ``music``, ``triangulate``
and ``simulate`` print their library record (``DoaEstimate``,
``PositionFix``, ``SourceScenario``) field for field, and a flag that
sets a library dataclass field defaults to that field. ``sweep`` is one
call of ``evaluation.run_sweep``. Exit codes: 0 success, 1 runtime
failure, 2 usage error, 3 validation error, each failure printing one
``error: <Kind>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import container, datasets, evaluation, neural
from .doa_music import (
    CONVERGED,
    DoaEstimate,
    MusicOptions,
    _grid_steps,
    music_with_spectrum,
)
from .errors import EchoDoaError, EchoNotFoundError, InputError, ProcessingError
from .signal_sim import ArrayGeometry, SimConfig, SourceScenario, wavelength
from .triangulation import (
    RangeMeasurement,
    SensorPose,
    fuse_doa_with_ranges,
    triangulate,
)

CONFIG_ENV = "ECHODOA_CONFIG"


def _numbers(text: str, sep: str, flag: str) -> tuple:
    """The ``sep``-separated numbers of ``text``; InputError on any other."""
    try:
        return tuple(float(part) for part in text.split(sep))
    except ValueError:
        raise InputError(f"{flag} expects numbers, got {text!r}") from None


def _parse_grid(text: str, flag: str):
    """Angle/SNR grid: 'lo:hi:step' or a comma-separated list.

    A 'lo:hi:step' grid counts its steps as the MUSIC angle grid does:
    it stops at its last point within ``hi`` and holds at most
    ``doa_music._MAX_GRID_POINTS`` points.
    """
    if ":" in text:
        bounds = _numbers(text, ":", flag)
        if len(bounds) != 3:
            raise InputError(f"{flag} grid {text!r} must be lo:hi:step")
        lo, hi, step = bounds
        if not (all(map(math.isfinite, bounds)) and step > 0 and hi >= lo):
            raise InputError(f"bad {flag} grid bounds in {text!r}")
        try:
            count = _grid_steps(step, hi - lo)
        except InputError as exc:
            raise InputError(f"{flag} {exc}") from None
        return tuple(lo + step * i for i in range(count + 1))
    return _numbers(text, ",", flag)


def _parse_interval(text: str, flag: str):
    bounds = _numbers(text, ":", flag)
    if len(bounds) != 2:
        raise InputError(f"{flag} interval {text!r} must be lo:hi")
    return bounds


def _parse_point(text: str, flag: str):
    point = _numbers(text, ",", flag)
    if len(point) != 2:
        raise InputError(f"{flag} point {text!r} must be x,y")
    return point


def _sim_config(args) -> SimConfig:
    path = args.config or os.environ.get(CONFIG_ENV)
    config = SimConfig.from_file(path) if path else SimConfig()
    overrides = {}
    for item in args.sim or ():
        if "=" not in item:
            raise InputError(f"--sim expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        overrides[key] = SimConfig.parse_field(key, value)
    return replace(config, **overrides) if overrides else config


def _geometry(args, config: SimConfig) -> ArrayGeometry:
    return ArrayGeometry.pair(args.spacing_wl * wavelength(config))


def _scenario(args) -> SourceScenario:
    return SourceScenario(args.doa, args.range, args.snr)


def _print_json(payload) -> None:
    print(container.json_text(payload), end="")


def _write_spectrum(spectrum, path) -> None:
    """The ``--spectrum-out`` table, fallbacks included; no echo, no file."""
    if spectrum is None:
        raise EchoNotFoundError("no sample crossed the detection threshold")
    spectrum.write_table(path)


# --- subcommands ------------------------------------------------------------

def _cmd_simulate(args) -> int:
    config = args.sim_config
    geometry = _geometry(args, config)
    scenario = _scenario(args)
    noisy, record = datasets.simulate_record(scenario, geometry, config,
                                             args.seed)
    outputs = {}
    if args.out:
        annotation = (f"doa_deg={args.doa};snr_db={args.snr};"
                      f"range_m={args.range}")
        datasets.write_capture(args.out, noisy, geometry, annotation)
        outputs["capture"] = str(args.out)
    if args.baseband_out:
        ds = datasets.Dataset(config=config, geometry=geometry,
                              records=[record], master_seed=args.seed)
        datasets.save_dataset(ds, args.baseband_out)
        outputs["baseband"] = str(args.baseband_out)
    if args.spectrum_out:
        _, spectrum = music_with_spectrum(record.baseband, geometry, config,
                                          args.music_options)
        _write_spectrum(spectrum, args.spectrum_out)
        outputs["spectrum"] = str(args.spectrum_out)
    if not outputs:
        raise InputError("nothing to do: pass --out, --baseband-out, "
                         "or --spectrum-out")
    _print_json({"scenario": asdict(scenario), "outputs": outputs})
    return 0


def _sweep_spec(args, config) -> datasets.SweepSpec:
    return datasets.SweepSpec(
        angles_deg=_parse_grid(args.angles, "--angles"),
        snrs_db=_parse_grid(args.snrs, "--snrs"),
        records_per_cell=args.records_per_cell,
        geometry=_geometry(args, config),
        config=config,
        range_interval_m=_parse_interval(args.range_m, "--range-m"),
        aperture_deg=args.aperture,
        master_seed=args.seed)


def _cmd_dataset(args) -> int:
    spec = _sweep_spec(args, args.sim_config)
    ds = datasets.generate_dataset(spec, workers=args.workers)
    datasets.save_dataset(ds, args.out)
    if args.index_out:
        datasets.write_index_text(ds, args.index_out)
    _print_json({"records": len(ds.records), "out": str(args.out)})
    return 0


def _train_config(args) -> neural.TrainConfig:
    return neural.TrainConfig(epochs=args.epochs,
                              batch_size=args.batch_size,
                              train_fraction=args.train_fraction,
                              shuffle_seed=args.seed,
                              patience=args.patience,
                              mirror_augment=args.mirror_augment)


def _cmd_train(args) -> int:
    train_config = _train_config(args)
    hyper = neural.AdamHyper(learning_rate=args.learning_rate)
    ds = datasets.load_dataset(args.dataset)
    checkpoint, history = neural.train(ds, neural.NetworkSpec(), train_config,
                                       hyper, seed=args.seed)
    neural.save_checkpoint(checkpoint, args.out)
    if args.history:
        neural.training.write_history(history, args.history)
    _print_json({"checkpoint": str(args.out),
                 "best_epoch": checkpoint.metadata["best_epoch"],
                 "best_val_loss": checkpoint.metadata["best_val_loss"],
                 "epochs_run": checkpoint.metadata["epochs_run"]})
    return 0


def _estimators(args):
    estimators = []
    if args.music:
        estimators.append(evaluation.MusicEstimator(args.music_options))
    for path in args.checkpoint or ():
        checkpoint = neural.load_checkpoint(path)
        name = "cnn" if len(args.checkpoint) == 1 else Path(path).stem
        estimators.append(evaluation.NeuralEstimator(checkpoint, name=name))
    if not estimators:
        raise InputError("select at least one estimator "
                         "(--music and/or --checkpoint)")
    return estimators


def _cmd_eval(args) -> int:
    ds = datasets.load_dataset(args.dataset)
    table = evaluation.evaluate(ds, _estimators(args), args.domain,
                                workers=args.workers)
    evaluation.emit_results(table, args.out, format=args.format)
    _print_json({"rows": len(table.rows), "out": str(args.out)})
    return 0


def _cmd_music(args) -> int:
    config = args.sim_config
    if args.dataset:
        ds = datasets.load_dataset(args.dataset)
        if not 0 <= args.index < len(ds.records):
            raise InputError(f"--index {args.index} out of range "
                             f"(0..{len(ds.records) - 1})")
        base = ds.records[args.index].baseband
        geometry, config = ds.geometry, ds.config
    elif args.capture:
        geometry = _geometry(args, config)
        records = datasets.ingest_capture(args.capture, geometry, config)
        base = records[0].baseband
    else:
        # demo: the noiseless half-wavelength scenario
        geometry = _geometry(args, config)
        base = datasets.simulate_record(_scenario(args), geometry, config,
                                        args.seed)[1].baseband
    estimate, spectrum = music_with_spectrum(base, geometry, config,
                                             args.music_options)
    if args.spectrum_out:
        _write_spectrum(spectrum, args.spectrum_out)
    _print_json(asdict(estimate))
    return 0


def _cmd_triangulate(args) -> int:
    s1 = SensorPose(*_parse_point(args.sensor1, "--sensor1"))
    s2 = SensorPose(*_parse_point(args.sensor2, "--sensor2"))
    m1 = RangeMeasurement(sensor=s1, range_m=args.r1, sigma_r=args.sigma_r)
    m2 = RangeMeasurement(sensor=s2, range_m=args.r2, sigma_r=args.sigma_r)
    if args.doa is not None:
        ambiguity = (_numbers(args.ambiguity, ",", "--ambiguity")
                     if args.ambiguity else (args.doa,))
        if args.doa not in ambiguity:
            ambiguity = tuple(sorted((*ambiguity, args.doa)))
        estimate = DoaEstimate(angle_deg=args.doa, status=CONVERGED,
                               ambiguity_deg=ambiguity)
        # without --sigma-theta, the library's own default
        sigma = ({} if args.sigma_theta is None
                 else {"sigma_theta_deg": args.sigma_theta})
        fix = fuse_doa_with_ranges(estimate, m1, m2, **sigma)
    elif args.ambiguity is not None or args.sigma_theta is not None:
        flag = "--sigma-theta" if args.ambiguity is None else "--ambiguity"
        raise InputError(f"{flag} fuses a DoA estimate and needs --doa")
    else:
        fix = triangulate(m1, m2)
    text = container.json_text(asdict(fix))
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def _cmd_sweep(args) -> int:
    train_config = _train_config(args)
    hyper = neural.AdamHyper(learning_rate=args.learning_rate)
    spec = _sweep_spec(args, args.sim_config)
    _print_json(evaluation.run_sweep(spec, train_config, hyper,
                                     args.music_options, args.out_dir,
                                     workers=args.workers))
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise InputError(f"--seeds must be at least 1, got {args.seeds}")
    worst = 0.0
    checked = 0
    for seed in range(args.seed, args.seed + args.seeds):
        report = neural.grad_check(seed=seed, eps=args.eps,
                                   tolerance=args.tolerance,
                                   samples=args.samples)
        worst = max(worst, report.max_rel_error)
        checked += report.checked
    passed = worst < args.tolerance
    _print_json({"max_rel_error": worst, "tolerance": args.tolerance,
                 "parameters_checked": checked, "seeds": args.seeds,
                 "passed": passed})
    if not passed:
        raise ProcessingError(
            f"gradient check failed: {worst:.3e} >= {args.tolerance:.3e}")
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="master seed (default %(default)s)")
    common.add_argument("--config", default=None,
                        help=f"simulation config file (or ${CONFIG_ENV})")
    common.add_argument("--sim", action="append", metavar="KEY=VALUE",
                        help="override one simulation key; wins over --config")
    common.add_argument("--workers", type=int, default=1,
                        help="dataset and evaluation processes, at least 1; "
                             "capped at the CPUs (default %(default)s)")

    spacing = argparse.ArgumentParser(add_help=False)
    spacing.add_argument("--spacing-wl", type=float, default=0.5,
                         help="element spacing in wavelengths "
                              "(default %(default)s)")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-step", type=float,
                      default=MusicOptions.grid_step_deg,
                      help="MUSIC grid step in degrees (default %(default)s)")

    sweep_opts = argparse.ArgumentParser(add_help=False)
    sweep_opts.add_argument("--angles", default="-60:60:10",
                            help="angle grid, lo:hi:step or list (degrees)")
    sweep_opts.add_argument("--snrs", default="-30:20:5",
                            help="SNR grid, lo:hi:step or list (dB)")
    sweep_opts.add_argument("--records-per-cell", type=int,
                            default=datasets.SweepSpec.records_per_cell)
    range_m = ":".join(map(str, datasets.SweepSpec.range_interval_m))
    sweep_opts.add_argument("--range-m", default=range_m,
                            help="obstacle range interval lo:hi (meters)")
    sweep_opts.add_argument("--aperture", type=float,
                            default=datasets.SweepSpec.aperture_deg,
                            help="half aperture in degrees")

    train_opts = argparse.ArgumentParser(add_help=False)
    train_opts.add_argument("--epochs", type=int,
                            default=neural.TrainConfig.epochs)
    train_opts.add_argument("--batch-size", type=int,
                            default=neural.TrainConfig.batch_size)
    train_opts.add_argument("--learning-rate", type=float,
                            default=neural.AdamHyper.learning_rate)
    train_opts.add_argument("--train-fraction", type=float,
                            default=neural.TrainConfig.train_fraction)
    train_opts.add_argument("--patience", type=int,
                            default=neural.TrainConfig.patience)
    train_opts.add_argument("--mirror-augment", action="store_true")

    parser = argparse.ArgumentParser(
        prog="echodoa",
        description="ultrasonic array DoA estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common, spacing, grid],
                       help="synthesize one scenario and dump waveforms")
    p.add_argument("--doa", type=float, required=True)
    p.add_argument("--range", type=float, required=True)
    p.add_argument("--snr", type=float, default=SourceScenario.snr_db,
                   help="SNR in dB (default noiseless)")
    p.add_argument("--out", help="capture file (EDCF) to write")
    p.add_argument("--baseband-out", help="single-record dataset (EDDS)")
    p.add_argument("--spectrum-out", help="pseudospectrum table")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dataset", parents=[common, spacing, sweep_opts],
                       help="generate a labeled sweep dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--index-out", help="plain-text label index")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("train", parents=[common, train_opts],
                       help="train the regression network")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="loss history text file")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[common, grid],
                       help="score estimators over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--music", action="store_true",
                   help="include the MUSIC estimator")
    p.add_argument("--checkpoint", action="append",
                   help="include a trained network (repeatable)")
    p.add_argument("--domain", default=evaluation.DOMAIN_FULL,
                   choices=evaluation.DOMAINS)
    p.add_argument("--format", default="csv", choices=("csv", "json"),
                   help="csv = delimited text, json = structured text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("music", parents=[common, spacing, grid],
                       help="MUSIC estimate for one record")
    p.add_argument("--dataset", help="dataset file to read a record from")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--capture", help="capture file to ingest")
    p.add_argument("--doa", type=float, default=30.0,
                   help="demo scenario angle (no input file)")
    p.add_argument("--range", type=float, default=1.0)
    p.add_argument("--snr", type=float, default=SourceScenario.snr_db)
    p.add_argument("--spectrum-out")
    p.set_defaults(func=_cmd_music)

    p = sub.add_parser("triangulate", parents=[common],
                       help="position fix from two ranges")
    p.add_argument("--sensor1", default="-0.25,0", metavar="X,Y")
    p.add_argument("--sensor2", default="0.25,0", metavar="X,Y")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--sigma-r", type=float, default=0.01)
    p.add_argument("--doa", type=float, default=None,
                   help="fuse with this DoA estimate (degrees)")
    p.add_argument("--ambiguity", default=None,
                   help="comma-separated ambiguity set for --doa")
    p.add_argument("--sigma-theta", type=float, default=None,
                   help="DoA standard deviation in degrees; needs --doa")
    p.add_argument("--out", help="write the fix as JSON")
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("sweep", parents=[common, spacing, grid, sweep_opts,
                                         train_opts],
                       help="end-to-end dataset, training, evaluation run")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference check of the backward pass")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every seed ends up in a uint64 (Philox keys, EDDS records)
        if not 0 <= args.seed < 2**64:
            raise InputError(f"--seed must lie in [0, 2**64), got {args.seed}")
        if args.workers < 1:
            raise InputError(f"--workers must be at least 1, got {args.workers}")
        # checked before any subcommand writes a file
        if "grid_step" in args:
            args.music_options = MusicOptions(grid_step_deg=args.grid_step)
        args.sim_config = _sim_config(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (EchoDoaError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:      # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
