import json
import math

import numpy as np
import pytest
from scipy import stats

from echodoa import datasets
from echodoa.datasets import Dataset, DatasetRecord, SweepSpec, generate_dataset
from echodoa.errors import (
    EmptyDatasetError,
    InputError,
    NonOverlappingCurvesError,
)
from echodoa.evaluation import (
    DOMAIN_FULL,
    DOMAIN_INSIDE_30,
    DOMAIN_OUTSIDE_30,
    MetricsRow,
    MetricsTable,
    MusicEstimator,
    NeuralEstimator,
    emit_results,
    evaluate,
    load_results,
    snr_crossover,
)
from echodoa.neural import Checkpoint, NetworkSpec, init_params
from echodoa.signal_sim import (
    ArrayGeometry,
    ComplexBaseband,
    SimConfig,
    wavelength,
)

CFG = SimConfig()
GEO = ArrayGeometry.pair(wavelength(CFG) / 2.0)


def table_from(points, estimator, domain=DOMAIN_FULL):
    return [MetricsRow(snr_db=s, estimator=estimator, domain=domain,
                       mae_deg=m, median_deg=m, fallback_rate=0.0, n=10)
            for s, m in points]


def tiny_cnn():
    spec = NetworkSpec(input_time=256, feature_maps=8, dense_widths=(16, 8))
    return NeuralEstimator(
        Checkpoint(spec=spec, params=init_params(spec, 2, np.float64)))


class CountingEstimator(MusicEstimator):
    """MUSIC under another name; ``calls`` collects each record's baseband."""

    def __init__(self, name, calls):
        super().__init__()
        self.name, self.calls = name, calls

    def estimate(self, base, geometry, config):
        self.calls.append(base)
        return super().estimate(base, geometry, config)


@pytest.fixture(scope="module")
def sweep_dataset():
    # 11 SNR levels x 19 angles x 11 records > 200 records per level
    spec = SweepSpec(angles_deg=tuple(float(a) for a in range(-45, 46, 5)),
                     records_per_cell=11)
    return generate_dataset(spec)


class TestEvaluate:
    def test_noiseless_music_is_grid_exact(self):
        spec = SweepSpec(angles_deg=(-40.0, -10.0, 5.0, 35.0),
                         snrs_db=(math.inf,), records_per_cell=3)
        ds = generate_dataset(spec)
        table = evaluate(ds, [MusicEstimator()])
        assert len(table.rows) == 1
        assert table.rows[0].mae_deg <= 0.25
        assert table.rows[0].fallback_rate == 0.0

    def test_pure_noise_mae_equals_mean_abs_label(self):
        # every record falls back to 0, so the error is |label|
        rng = np.random.default_rng(0)
        records = []
        for i, angle in enumerate((-40.0, -10.0, 5.0, 35.0) * 5):
            noise = (rng.normal(size=(2, 600))
                     + 1j * rng.normal(size=(2, 600)))
            records.append(DatasetRecord(
                doa_deg=angle, snr_db=-99.0, range_m=1.0, seed=i,
                baseband=ComplexBaseband(noise, CFG.effective_rate)))
        ds = Dataset(config=CFG, geometry=GEO, records=records)
        table = evaluate(ds, [MusicEstimator()])
        row = table.rows[0]
        assert row.fallback_rate == 1.0
        expected = np.mean([abs(r.doa_deg) for r in records])
        assert row.mae_deg == pytest.approx(expected, rel=1e-12)

    def test_domain_filters(self):
        spec = SweepSpec(angles_deg=(-50.0, -20.0, 0.0, 20.0, 50.0),
                         snrs_db=(math.inf,), records_per_cell=2)
        ds = generate_dataset(spec)
        inside = evaluate(ds, [MusicEstimator()], DOMAIN_INSIDE_30)
        outside = evaluate(ds, [MusicEstimator()], DOMAIN_OUTSIDE_30)
        assert inside.rows[0].n == 6    # -20, 0, 20
        assert outside.rows[0].n == 4   # -50, 50

    def test_domain_leaving_no_record_raises(self):
        spec = SweepSpec(angles_deg=(-30.0, 0.0, 30.0),
                         snrs_db=(math.inf,), records_per_cell=1)
        ds = generate_dataset(spec)
        with pytest.raises(EmptyDatasetError,
                           match="no record lies in domain 'outside_30'"):
            evaluate(ds, [MusicEstimator()], DOMAIN_OUTSIDE_30)

    @pytest.mark.parametrize("names", [("m", "m"), ("music", "cnn", "music")])
    def test_shared_estimator_name_raises_before_estimating(
            self, sweep_dataset, names):
        calls = []
        estimators = [CountingEstimator(name, calls) for name in names]
        with pytest.raises(InputError,
                           match=f"two estimators are named '{names[0]}'"):
            evaluate(sweep_dataset, estimators)
        assert calls == []

    def test_deterministic(self, sweep_dataset):
        small = Dataset(config=sweep_dataset.config,
                        geometry=sweep_dataset.geometry,
                        records=sweep_dataset.records[:50])
        t1 = evaluate(small, [MusicEstimator()])
        t2 = evaluate(small, [MusicEstimator()])
        assert t1.rows == t2.rows

    def test_empty_dataset_raises(self):
        ds = Dataset(config=CFG, geometry=GEO, records=[])
        with pytest.raises(EmptyDatasetError):
            evaluate(ds, [MusicEstimator()])

    def test_worker_count_does_not_change_table(self, sweep_dataset):
        small = Dataset(config=sweep_dataset.config,
                        geometry=sweep_dataset.geometry,
                        records=sweep_dataset.records[:40])
        serial = evaluate(small, [MusicEstimator()], workers=1)
        parallel = evaluate(small, [MusicEstimator()], workers=2)
        assert serial.rows == parallel.rows

    def test_worker_count_does_not_change_cnn_table(self, sweep_dataset):
        # the estimator, float32 weight cache included, crosses the
        # process boundary by pickle
        small = Dataset(config=sweep_dataset.config,
                        geometry=sweep_dataset.geometry,
                        records=sweep_dataset.records[:40])
        estimators = [tiny_cnn()]
        serial = evaluate(small, estimators, workers=1)
        parallel = evaluate(small, estimators, workers=2)
        assert serial.rows == parallel.rows
        assert max(r.mae_deg for r in serial.rows) > 0.0

    @pytest.mark.parametrize("cpus, size", [(64, 40), (2, 2)])
    def test_pool_never_outnumbers_records_or_cpus(self, sweep_dataset,
                                                   record_pool_sizes, cpus,
                                                   size):
        small = Dataset(config=sweep_dataset.config,
                        geometry=sweep_dataset.geometry,
                        records=sweep_dataset.records[:40])
        serial = evaluate(small, [MusicEstimator()])
        sizes = record_pool_sizes(datasets, cpus)
        pooled = evaluate(small, [MusicEstimator()], workers=10**6)
        assert sizes == [size]
        assert pooled.rows == serial.rows

    def test_one_pool_for_every_estimator(self, sweep_dataset,
                                          record_pool_sizes):
        # both estimators' records go through one pool, so its processes
        # start once per call, not once per estimator
        small = Dataset(config=sweep_dataset.config,
                        geometry=sweep_dataset.geometry,
                        records=sweep_dataset.records[:40])
        estimators = [MusicEstimator(), tiny_cnn()]
        serial = evaluate(small, estimators)
        sizes = record_pool_sizes(datasets, 2)
        pooled = evaluate(small, estimators, workers=10**6)
        assert sizes == [2]
        assert pooled.rows == serial.rows
        assert {r.estimator for r in pooled.rows} == {"music", "cnn"}

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_is_an_input_error(self, sweep_dataset,
                                                 workers):
        with pytest.raises(InputError, match="workers must be at least 1"):
            evaluate(sweep_dataset, [MusicEstimator()], workers=workers)

    def test_music_mae_monotone_in_snr(self, sweep_dataset):
        table = evaluate(sweep_dataset, [MusicEstimator()])
        rows = table.select("music")
        assert len(rows) == 11
        assert min(r.n for r in rows) >= 200
        rho = stats.spearmanr([r.snr_db for r in rows],
                              [r.mae_deg for r in rows]).statistic
        assert rho <= -0.8

    def test_fallback_rate_monotone(self, sweep_dataset):
        table = evaluate(sweep_dataset, [MusicEstimator()])
        rows = table.select("music")
        low = next(r for r in rows if r.snr_db == -30.0)
        high = next(r for r in rows if r.snr_db == 20.0)
        assert low.fallback_rate > high.fallback_rate


class TestCrossover:
    def test_identical_curves_zero_shift(self):
        pts = [(-20.0, 30.0), (-10.0, 20.0), (0.0, 10.0), (10.0, 3.0),
               (20.0, 1.0)]
        table = MetricsTable(rows=table_from(pts, "a")
                             + table_from(pts, "b"))
        assert snr_crossover(table, "a", "b") == pytest.approx(0.0)

    def test_ten_db_shift_recovered(self):
        pts_a = [(s, 40.0 * 2.0 ** (-(s + 30) / 10.0))
                 for s in range(-30, 25, 5)]
        pts_b = [(s + 10.0, m) for s, m in pts_a]
        table = MetricsTable(rows=table_from(pts_a, "a")
                             + table_from(pts_b, "b"))
        assert snr_crossover(table, "a", "b") == pytest.approx(10.0,
                                                               abs=1e-9)

    def test_needs_four_common_levels(self):
        pts = [(0.0, 10.0), (5.0, 5.0), (10.0, 2.0)]
        table = MetricsTable(rows=table_from(pts, "a")
                             + table_from(pts, "b"))
        with pytest.raises(InputError):
            snr_crossover(table, "a", "b")

    @pytest.mark.parametrize("domain", [DOMAIN_INSIDE_30, DOMAIN_OUTSIDE_30])
    def test_filtered_table(self, domain):
        # a table from evaluate(..., domain) holds only that domain's rows
        pts_a = [(s, 40.0 * 2.0 ** (-(s + 30) / 10.0))
                 for s in range(-30, 25, 5)]
        pts_b = [(s + 10.0, m) for s, m in pts_a]
        table = MetricsTable(rows=table_from(pts_a, "a", domain)
                             + table_from(pts_b, "b", domain))
        assert snr_crossover(table, "a", "b") == pytest.approx(10.0,
                                                               abs=1e-9)

    def test_disjoint_mae_ranges_raise(self):
        pts_a = [(s, 50.0 - s) for s in (0.0, 5.0, 10.0, 15.0)]
        pts_b = [(s, 5.0 - 0.1 * s) for s in (0.0, 5.0, 10.0, 15.0)]
        table = MetricsTable(rows=table_from(pts_a, "a")
                             + table_from(pts_b, "b"))
        with pytest.raises(NonOverlappingCurvesError):
            snr_crossover(table, "a", "b")


class TestEmitResults:
    def make_table(self):
        rows = []
        for est in ("music", "cnn"):
            rows += table_from([(float(s), 1.0 / 3.0 + s) for s in
                                range(-30, 25, 5)], est)
        return MetricsTable(rows=rows, provenance={"dataset": "test"})

    def test_csv_roundtrip_exact(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "metrics.csv"
        emit_results(table, path, format="csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 22
        again = load_results(path)
        assert again.rows == table.rows

    def test_json_roundtrip_exact(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "metrics.json"
        emit_results(table, path, format="json")
        again = load_results(path)
        assert again.rows == table.rows
        assert again.provenance["dataset"] == "test"

    def test_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results(MetricsTable(rows=[]), path)
        assert load_results(path).rows == []

    def test_duplicate_keys_rejected(self):
        rows = table_from([(0.0, 1.0)], "a") + table_from([(0.0, 2.0)], "a")
        with pytest.raises(InputError):
            MetricsTable(rows=rows)

    def test_rows_of_two_domains_rejected(self):
        rows = (table_from([(0.0, 1.0)], "a")
                + table_from([(10.0, 1.0)], "a", DOMAIN_INSIDE_30))
        with pytest.raises(InputError, match="one domain"):
            MetricsTable(rows=rows)

    def test_json_holds_non_finite_floats_as_strings(self, tmp_path):
        # noiseless rows: the JSON is strict and still reads back exactly
        table = MetricsTable(rows=table_from([(10.0, 1.5), (math.inf, 0.0)],
                                             "music"))
        path = tmp_path / "metrics.json"
        emit_results(table, path, format="json")

        def reject(name):
            raise ValueError(f"not strict JSON: {name}")

        rows = json.loads(path.read_text(), parse_constant=reject)["rows"]
        assert [r["snr_db"] for r in rows] == [10.0, "inf"]
        assert load_results(path).rows == table.rows

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InputError):
            emit_results(MetricsTable(rows=[]), tmp_path / "x", format="xml")
