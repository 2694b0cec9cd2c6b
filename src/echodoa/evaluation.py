"""Head-to-head SNR sweeps of the DoA estimators.

Evaluates estimators record by record, aggregates absolute errors per
SNR level (fallback answers contribute their true error against the
0-degree answer), locates the horizontal dB shift between two error
curves, and writes plot-ready tables that re-parse losslessly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import container
from .datasets import generate_dataset, pool_map, pool_size, save_dataset
from .doa_music import FALLBACK, MusicOptions, estimate_doa_music
from .errors import (
    EchoDoaError,
    EmptyDatasetError,
    FileFormatError,
    InputError,
    NonOverlappingCurvesError,
)
from .neural.checkpoint import Checkpoint, save_checkpoint
from .neural.network import NetworkSpec
from .neural.training import predict_doa, train, training_split, write_history

DOMAIN_FULL = "full"
DOMAIN_INSIDE_30 = "inside_30"
DOMAIN_OUTSIDE_30 = "outside_30"
DOMAINS = (DOMAIN_FULL, DOMAIN_INSIDE_30, DOMAIN_OUTSIDE_30)


@dataclass(frozen=True)
class MetricsRow:
    snr_db: float
    estimator: str
    domain: str
    mae_deg: float
    median_deg: float
    fallback_rate: float
    n: int


# the columns of a table file, in order, and the type each reads as
_COLUMNS = get_type_hints(MetricsRow)


@dataclass
class MetricsTable:
    """Rows of one domain, at most one per (SNR, estimator)."""

    rows: list
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        domains = sorted({r.domain for r in self.rows})
        if len(domains) > 1:
            raise InputError(f"a table holds one domain, got {domains}")
        keys = [(r.snr_db, r.estimator) for r in self.rows]
        if len(set(keys)) != len(keys):
            raise InputError("duplicate (snr, estimator) rows")

    def select(self, estimator: str) -> list:
        rows = [r for r in self.rows if r.estimator == estimator]
        return sorted(rows, key=lambda r: r.snr_db)


class MusicEstimator:
    """MUSIC pipeline bound to a set of options."""

    name = "music"

    def __init__(self, options: MusicOptions = MusicOptions()):
        self.options = options

    def estimate(self, base, geometry, config):
        return estimate_doa_music(base, geometry, config, self.options)

    def describe(self) -> str:
        return f"music(grid={self.options.grid_step_deg})"


class NeuralEstimator:
    """Trained-network inference bound to a checkpoint."""

    def __init__(self, checkpoint: Checkpoint, name: str = "cnn"):
        self.checkpoint = checkpoint
        self.name = name

    def estimate(self, base, geometry, config):
        return predict_doa(self.checkpoint, base)

    def describe(self) -> str:
        meta = self.checkpoint.metadata
        return f"cnn(best_epoch={meta.get('best_epoch', '?')})"


def _in_domain(doa_deg: float, domain: str) -> bool:
    if domain == DOMAIN_FULL:
        return True
    if domain == DOMAIN_INSIDE_30:
        return abs(doa_deg) <= 30.0
    return abs(doa_deg) > 30.0


def _estimate(est, rec, geometry, config):
    result = est.estimate(rec.baseband, geometry, config)
    return (rec.snr_db, abs(result.angle_deg - rec.doa_deg),
            result.status == FALLBACK)


def evaluate(dataset, estimators, domain_filter: str = DOMAIN_FULL,
             workers: int = 1) -> MetricsTable:
    """Per-(SNR, estimator) absolute-error metrics over the dataset.

    Fallback estimates count at their actual error |0 - truth|, the
    same convention both estimators use at runtime. Every estimator's
    records go through one process pool, so ``workers`` processes
    start once per call. Aggregation is a deterministic fold in record
    order whatever the worker count.
    Estimators that share a name, an empty dataset and a domain that
    leaves no record raise before any record is estimated.
    """
    if len(dataset.records) == 0:
        raise EmptyDatasetError("nothing to evaluate")
    if domain_filter not in DOMAINS:
        raise InputError(f"domain_filter must be one of {DOMAINS}")
    names = [est.name for est in estimators]
    for name in names:
        if names.count(name) > 1:
            raise InputError(f"two estimators are named {name!r}")
    records = [r for r in dataset.records
               if _in_domain(r.doa_deg, domain_filter)]
    if not records:
        raise EmptyDatasetError(f"no record lies in domain {domain_filter!r}")

    # one pool for every estimator, in contiguous chunks that split
    # one estimator's records evenly over the processes
    n = len(records)
    chunk = -(-n // pool_size(workers, n))
    results = pool_map(_estimate, [(est, rec, dataset.geometry, dataset.config)
                                   for est in estimators for rec in records],
                       workers, chunk)
    rows = []
    for i, est in enumerate(estimators):
        by_snr = {}
        for snr_db, err, fell_back in results[i * n:(i + 1) * n]:
            bucket = by_snr.setdefault(snr_db, {"err": [], "fb": 0})
            bucket["err"].append(err)
            bucket["fb"] += fell_back
        for snr in sorted(by_snr):
            errs = np.array(by_snr[snr]["err"])
            rows.append(MetricsRow(
                snr_db=snr, estimator=est.name, domain=domain_filter,
                mae_deg=float(errs.mean()),
                median_deg=float(np.median(errs)),
                fallback_rate=by_snr[snr]["fb"] / errs.size,
                n=errs.size))
    provenance = {
        "dataset": dataset.describe(),
        "estimators": {est.name: est.describe() for est in estimators},
        "domain_filter": domain_filter,
    }
    return MetricsTable(rows=rows, provenance=provenance)


def snr_crossover(table: MetricsTable, estimator_a: str,
                  estimator_b: str) -> float:
    """Median horizontal dB shift between two MAE-versus-SNR curves.

    For each MAE level reached by ``estimator_a`` at some SNR, monotone
    interpolation of ``estimator_b``'s curve gives the SNR where b
    reaches the same error; the returned value is the median of those
    SNR differences. Positive means a needs that many dB less than b.
    Only finite SNR levels take part: a noiseless (``inf``) level has no
    finite dB distance to any other. Fewer than 4 finite levels common
    to both curves raise ``InputError``.
    """
    rows_a = [r for r in table.select(estimator_a) if math.isfinite(r.snr_db)]
    rows_b = [r for r in table.select(estimator_b) if math.isfinite(r.snr_db)]
    common = {r.snr_db for r in rows_a} & {r.snr_db for r in rows_b}
    if len(common) < 4:
        raise InputError(
            f"need >= 4 common finite SNR levels, have {len(common)}")

    def curve(rows):
        snr = np.array([r.snr_db for r in rows])
        mae = np.array([r.mae_deg for r in rows])
        # enforce a non-increasing error curve before inverting it
        mae = np.minimum.accumulate(mae)
        return snr, mae

    snr_a, mae_a = curve(rows_a)
    snr_b, mae_b = curve(rows_b)
    lo, hi = mae_b.min(), mae_b.max()
    shifts = []
    for level, s_a in zip(mae_a, snr_a):
        if not lo <= level <= hi:
            continue
        # mae_b is non-increasing in snr; reverse for ascending interp
        s_b = float(np.interp(level, mae_b[::-1], snr_b[::-1]))
        shifts.append(s_b - s_a)
    if not shifts:
        raise NonOverlappingCurvesError(
            f"{estimator_a} and {estimator_b} error curves share no MAE range")
    return float(np.median(shifts))


def run_sweep(spec, train_config, hyper, options: MusicOptions, out_dir,
              workers: int = 1) -> dict:
    """The paper's workflow: generate, split, train, evaluate, crossover.

    Generates ``spec``'s dataset, trains the network on it (seeded with
    ``spec.master_seed``) and scores MUSIC under ``options`` and the
    trained network on the held-out records ``train`` selected on. Writes
    ``dataset.edds``, ``checkpoint.edck``, ``history.txt``,
    ``metrics.csv`` and ``summary.json`` into ``out_dir`` and returns the
    summary it wrote; ``crossover_db`` is ``None`` when the two error
    curves give no crossover. Every stage runs before ``out_dir`` is
    made. ``workers`` processes generate and evaluate; no output byte
    depends on their number.
    """
    ds = generate_dataset(spec, workers=workers)
    _, held_out = training_split(ds, train_config)  # train() selects on it
    checkpoint, history = train(ds, NetworkSpec(), train_config, hyper,
                                seed=spec.master_seed)
    estimators = [MusicEstimator(options), NeuralEstimator(checkpoint)]
    table = evaluate(held_out, estimators, workers=workers)
    out_dir = Path(out_dir)
    summary = {"dataset": str(out_dir / "dataset.edds"),
               "checkpoint": str(out_dir / "checkpoint.edck"),
               "metrics": str(out_dir / "metrics.csv"),
               "held_out_records": len(held_out.records)}
    try:
        summary["crossover_db"] = snr_crossover(table, "cnn", "music")
    except EchoDoaError:
        summary["crossover_db"] = None
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, summary["dataset"])
    save_checkpoint(checkpoint, summary["checkpoint"])
    write_history(history, out_dir / "history.txt")
    emit_results(table, summary["metrics"], format="csv")
    container.write_json(out_dir / "summary.json", summary)
    return summary


def emit_results(table: MetricsTable, path, format: str = "csv") -> None:
    """Write the table as delimited text (csv) or structured text (json)."""
    if format == "csv":
        container.write_table(path, _COLUMNS, map(astuple, table.rows),
                              sep=",", comment="")
    elif format == "json":
        container.write_json(path, {"provenance": table.provenance,
                                    "rows": [asdict(r) for r in table.rows]})
    else:
        raise InputError("format must be 'csv' (delimited text) or "
                         "'json' (structured text)")


def load_results(path) -> MetricsTable:
    """Parse a table written by emit_results; values round-trip exactly."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return MetricsTable(rows=[_metrics_row(r) for r in payload["rows"]],
                            provenance=payload["provenance"])
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(_COLUMNS):
        raise FileFormatError(f"{path}: unexpected header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise FileFormatError(f"{path}: malformed row {line!r}")
        rows.append(_metrics_row(dict(zip(_COLUMNS, parts))))
    return MetricsTable(rows=rows)


def _metrics_row(values: dict) -> MetricsRow:
    """The row whose column values ``values`` holds, each read as its type."""
    return MetricsRow(**{name: kind(values[name])
                         for name, kind in _COLUMNS.items()})
