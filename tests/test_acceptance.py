"""Acceptance checks of the paper's workflow, end to end.

``evaluation.run_sweep`` generates a sweep dataset, trains the network
on it and scores MUSIC and the network on the held-out records. These
tests run it on a tiny grid and check the determinism guarantees and the
files it writes. The claims about estimator accuracy wait on a larger
grid and several seeds.
"""

import json

import pytest

from echodoa import (
    MusicOptions,
    SweepSpec,
    container,
    load_dataset,
    load_results,
    run_sweep,
)
from echodoa.cli import main
from echodoa.neural import (
    AdamHyper,
    TrainConfig,
    load_checkpoint,
    training_split,
)

FILES = ("dataset.edds", "checkpoint.edck", "history.txt", "metrics.csv",
         "summary.json")
DATA_FILES = FILES[:4]

# about a second a run on one CPU
ARGV = ("--angles=-30:30:30", "--snrs=-10,0,10,20", "--records-per-cell", "3",
        "--epochs", "1")
SPEC = SweepSpec(angles_deg=(-30.0, 0.0, 30.0),
                 snrs_db=(-10.0, 0.0, 10.0, 20.0), records_per_cell=3)
TRAIN_CONFIG = TrainConfig(epochs=1)


def sweep(root, workers=1):
    """``run_sweep`` on the tiny grid into ``root/run``, named relative to
    ``root`` as the CLI names it; the summary it returned."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        return run_sweep(SPEC, TRAIN_CONFIG, AdamHyper(), MusicOptions(),
                         "run", workers=workers)


def read(root, names=FILES):
    return {name: (root / "run" / name).read_bytes() for name in names}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Root directory and summary of each run, by name."""
    out = {}
    for name, workers in (("first", 1), ("again", 1), ("two_workers", 2)):
        root = tmp_path_factory.mktemp(name)
        out[name] = root, sweep(root, workers)
    return out


def test_cli_sweep_is_run_sweep(runs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", *ARGV, "--out-dir", "run"]) == 0
    root, summary = runs["first"]
    assert capsys.readouterr().out == container.json_text(summary)
    assert read(tmp_path) == read(root)


def test_same_seed_same_bytes(runs):
    assert read(runs["again"][0]) == read(runs["first"][0])
    assert runs["again"][1] == runs["first"][1]


def test_worker_count_moves_no_byte(runs):
    assert read(runs["two_workers"][0], DATA_FILES) \
        == read(runs["first"][0], DATA_FILES)


def test_files_read_back(runs):
    root, summary = runs["first"]
    assert json.loads((root / "run" / "summary.json").read_text()) == summary
    ds = load_dataset(root / summary["dataset"])
    assert len(ds.records) == SPEC.record_count
    _, held_out = training_split(ds, TRAIN_CONFIG)
    assert summary["held_out_records"] == len(held_out.records) > 0
    checkpoint = load_checkpoint(root / summary["checkpoint"])
    assert checkpoint.metadata["epochs_run"] == TRAIN_CONFIG.epochs
    assert checkpoint.metadata["seed"] == SPEC.master_seed
    history = (root / "run" / "history.txt").read_text().splitlines()
    assert len(history) == 1 + TRAIN_CONFIG.epochs
    table = load_results(root / summary["metrics"])
    for estimator in ("music", "cnn"):
        rows = table.select(estimator)
        assert [r.snr_db for r in rows] == sorted(SPEC.snrs_db)
        assert sum(r.n for r in rows) == summary["held_out_records"]
