import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from scipy import signal as sps

from echodoa.doa_music import (
    CONVERGED,
    FALLBACK,
    DoaEstimate,
    MusicOptions,
    NoiseSubspace,
    _MAX_GRID_POINTS,
    _angle_grid,
    _grid_steps,
    _top_peak,
    covariance,
    estimate_doa_music,
    grating_lobe_set,
    music_with_spectrum,
    noise_subspace,
    pseudospectrum,
)
from echodoa.errors import EchoNotFoundError, InputError, TooFewSnapshotsError
from echodoa.signal_sim import (
    ArrayGeometry,
    ComplexBaseband,
    SimConfig,
    SourceScenario,
    add_awgn,
    detect_echo_window,
    steering_vector,
    synthesize_echo,
    to_baseband,
    wavelength,
)

CFG = SimConfig()
LAM = wavelength(CFG)
HALF_WL = ArrayGeometry.pair(LAM / 2.0)
ALIASED = ArrayGeometry.pair(1.5 * LAM)

# grating-lobe companions of 30 degrees at d = 1.5 wavelengths:
# sin(t') in {0.5 - 4/3, 0.5 - 2/3, 0.5}
TRIPLET = (math.degrees(math.asin(0.5 - 4.0 / 3.0)),
           math.degrees(math.asin(0.5 - 2.0 / 3.0)),
           30.0)


def steering_baseband(theta_deg, geometry, n=1000, burst=(400, 460),
                      seed=0):
    """Synthetic rank-1 baseband: a(theta) times an envelope burst."""
    a = steering_vector(geometry, theta_deg, LAM)
    env = np.zeros(n)
    lo, hi = burst
    env[lo:hi] = np.hanning(hi - lo)
    rng = np.random.default_rng(seed)
    coeff = env * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return ComplexBaseband(data=a[:, None] * coeff[None, :],
                           sample_rate=CFG.effective_rate)


class TestCovariance:
    def test_rank_one_example(self):
        # snapshots proportional to [1, -i]: outer product worked by hand
        rng = np.random.default_rng(0)
        s = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        snaps = np.array([1.0, -1.0j])[:, None] * s[None, :]
        r = covariance(snaps)
        np.testing.assert_allclose(r, [[1.0, 1.0j], [-1.0j, 1.0]],
                                   atol=1e-12)

    def test_zero_snapshots(self):
        r = covariance(np.zeros((2, 16), dtype=complex))
        assert (r == 0.0).all()

    def test_too_few_snapshots(self):
        with pytest.raises(TooFewSnapshotsError):
            covariance(np.zeros((3, 2), dtype=complex))

    def test_awgn_covariance_near_identity(self):
        rng = np.random.default_rng(123)
        sigma = 0.7
        snaps = (rng.normal(0, sigma / math.sqrt(2), (2, 10_000))
                 + 1j * rng.normal(0, sigma / math.sqrt(2), (2, 10_000)))
        r = covariance(snaps)
        var = sigma ** 2
        assert abs(r[0, 0].real - var) < 0.05 * var
        assert abs(r[1, 1].real - var) < 0.05 * var
        assert abs(r[0, 1]) < 0.05 * var

    def test_hermitian_psd_for_random_snapshots(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = rng.integers(2, 40)
            snaps = rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k))
            r = covariance(snaps)
            assert np.allclose(r, r.conj().T, rtol=1e-12, atol=1e-12)
            eigvals = np.linalg.eigvalsh(r)
            assert eigvals.min() >= -1e-12 * np.trace(r).real


class TestNoiseSubspace:
    def test_hand_checked_example(self):
        r = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
        sub = noise_subspace(r)
        expected = np.array([1.0, 1.0j]) / math.sqrt(2)
        np.testing.assert_allclose(sub.vector, expected, atol=1e-12)
        # orthogonal to the signal vector [1, -i]
        assert abs(np.vdot(np.array([1.0, -1.0j]), sub.vector)) < 1e-12

    def test_diagonal_covariance(self):
        sub = noise_subspace(np.diag([2.0, 1.0]).astype(complex))
        np.testing.assert_allclose(sub.vector, [0.0, 1.0], atol=1e-12)
        assert sub.gap_ratio == pytest.approx(0.5)
        assert not sub.degenerate

    def test_identity_degenerate_tiebreak(self):
        sub = noise_subspace(np.eye(2, dtype=complex))
        assert sub.degenerate
        assert sub.gap_ratio == pytest.approx(1.0)
        np.testing.assert_allclose(sub.vector, [0.0, 1.0], atol=1e-12)

    def test_off_diagonal_dominant_axis(self):
        # nearly diagonal with a < c keeps the noise axis on element 0
        r = np.array([[1.0, 1e-14], [1e-14, 3.0]], dtype=complex)
        sub = noise_subspace(r)
        np.testing.assert_allclose(np.abs(sub.vector), [1.0, 0.0],
                                   atol=1e-9)

    def test_phase_convention_first_component_real_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            snaps = rng.normal(size=(2, 32)) + 1j * rng.normal(size=(2, 32))
            sub = noise_subspace(covariance(snaps))
            lead = sub.vector[np.flatnonzero(np.abs(sub.vector) > 1e-12)[0]]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real > 0

    def test_orthogonality_to_true_steering(self):
        for theta in (-50.0, -10.0, 0.0, 25.0, 71.0):
            base = steering_baseband(theta, HALF_WL)
            snaps = base.data[:, 400:460]
            sub = noise_subspace(covariance(snaps))
            a = steering_vector(HALF_WL, theta, LAM)
            assert abs(np.vdot(a, sub.vector)) < 1e-6

    def test_rank_deficiency_of_noiseless_covariance(self):
        base = steering_baseband(33.0, HALF_WL)
        sub = noise_subspace(covariance(base.data[:, 400:460]))
        assert sub.gap_ratio < 1e-10

    def test_rejects_covariance_not_2x2(self):
        for shape in ((3, 3), (1, 1), (2, 3), (4,)):
            with pytest.raises(InputError):
                noise_subspace(np.ones(shape, dtype=complex))


class TestPseudospectrum:
    @pytest.mark.parametrize("step", [0.0, -0.25, math.nan, math.inf])
    def test_rejects_step_not_positive_and_finite(self, step):
        sub = noise_subspace(np.array([[1.0, 1.0j], [-1.0j, 1.0]]))
        with pytest.raises(InputError, match="grid step"):
            pseudospectrum(sub, HALF_WL, LAM, grid_step_deg=step)

    @pytest.mark.parametrize("step", [0.000999, 180.0 / 180_001, 1e-6,
                                      1e-300, 5e-324])
    def test_rejects_more_points_than_the_cap_unallocated(self, step):
        import tracemalloc

        sub = noise_subspace(np.array([[1.0, 1.0j], [-1.0j, 1.0]]))
        tracemalloc.start()
        try:
            for make in (lambda: MusicOptions(grid_step_deg=step),
                         lambda: pseudospectrum(sub, HALF_WL, LAM,
                                                grid_step_deg=step)):
                with pytest.raises(InputError, match="grid step"):
                    make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_point_cap_holds_a_step_of_a_thousandth(self):
        assert _MAX_GRID_POINTS == 180_001
        assert _grid_steps(0.001) == 180_000
        # one point short of the cap: still accepted
        assert _grid_steps(180.0 / 180_000.5) == 180_000
        assert MusicOptions(grid_step_deg=0.001).grid_step_deg == 0.001

    @pytest.mark.parametrize("step", [0.1, 0.25, 0.5, 1.0, 60.0])
    def test_steps_dividing_180_end_at_90(self, step):
        grid = _angle_grid(step)
        assert grid.tobytes() == (
            -90.0 + step * np.arange(round(180.0 / step) + 1)).tobytes()
        assert grid[-1] == 90.0

    @pytest.mark.parametrize("step, last", [
        (100.0, 10.0), (0.27, -90.0 + 0.27 * 666), (0.7, -90.0 + 0.7 * 257),
        (200.0, -90.0)])
    def test_grid_stops_at_the_last_point_below_90(self, step, last):
        grid = _angle_grid(step)
        assert grid[0] == -90.0
        assert grid[-1] == last
        assert np.diff(grid) == pytest.approx(step)

    def test_peak_at_thirty_degrees(self):
        sub = noise_subspace(np.array([[1.0, 1.0j], [-1.0j, 1.0]]))
        ps = pseudospectrum(sub, HALF_WL, LAM, grid_step_deg=0.25)
        top = ps.angles_deg[np.argmax(ps.power)]
        assert abs(top - 30.0) <= 0.25
        assert ps.angles_deg[_top_peak(ps.power)[0]] == pytest.approx(top)

    def test_value_at_minus_ninety(self):
        # a(-90) = [1, -1]; |Vn^H a|^2 = 1, so P = M / 1 = 2
        sub = noise_subspace(np.array([[1.0, 1.0j], [-1.0j, 1.0]]))
        ps = pseudospectrum(sub, HALF_WL, LAM, grid_step_deg=0.25)
        p_edge = ps.power[ps.angles_deg == -90.0][0]
        assert p_edge == pytest.approx(2.0, abs=1e-9)
        assert p_edge < 1e-6 * ps.power.max()

    def test_aliased_triplet_peaks(self):
        base = steering_baseband(30.0, ALIASED)
        sub = noise_subspace(covariance(base.data[:, 400:460]))
        ps = pseudospectrum(sub, ALIASED, LAM, grid_step_deg=0.25)
        p = ps.power
        # the three highest strict local maxima of the power
        maxima = np.flatnonzero((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])) + 1
        lobes = maxima[np.argsort(p[maxima])[::-1][:3]]
        peak_angles = sorted(ps.angles_deg[lobes])
        assert len(peak_angles) == 3
        for found, expected in zip(peak_angles, TRIPLET):
            assert abs(found - expected) <= 0.25

    def test_mirror_symmetry_of_conjugate_snapshots(self):
        base = steering_baseband(37.0, HALF_WL)
        snaps = base.data[:, 400:460]
        ps_pos = pseudospectrum(noise_subspace(covariance(snaps)),
                                HALF_WL, LAM)
        ps_neg = pseudospectrum(noise_subspace(covariance(snaps.conj())),
                                HALF_WL, LAM)
        np.testing.assert_allclose(ps_neg.power, ps_pos.power[::-1],
                                   rtol=1e-9)

    def test_power_positive_and_bounded_by_floor(self):
        base = steering_baseband(10.0, HALF_WL)
        sub = noise_subspace(covariance(base.data[:, 400:460]))
        ps = pseudospectrum(sub, HALF_WL, LAM)
        assert (ps.power > 0).all()
        assert ps.power.max() <= 1e12 + 1e-6

    def test_table_export(self, tmp_path):
        sub = noise_subspace(np.array([[1.0, 1.0j], [-1.0j, 1.0]]))
        ps = pseudospectrum(sub, HALF_WL, LAM, grid_step_deg=1.0)
        path = tmp_path / "spectrum.txt"
        ps.write_table(path)
        rows = [ln.split() for ln in path.read_text().splitlines()
                if not ln.startswith("#")]
        assert len(rows) == ps.angles_deg.size
        np.testing.assert_allclose([float(r[0]) for r in rows],
                                   ps.angles_deg)
        np.testing.assert_allclose([float(r[1]) for r in rows], ps.power)


def reference_spectrum(subspace, geometry, wavelength_m, step):
    """Angles and power from the steering formula, without a cache."""
    angles = -90.0 + step * np.arange(round(180.0 / step) + 1)
    x = np.asarray(geometry.element_x) - geometry.element_x[0]
    steering = np.exp(-2j * np.pi * np.outer(np.sin(np.radians(angles)), x)
                      / wavelength_m)
    denom = np.sum(np.abs(steering.conj() @ subspace.vector[:, None]) ** 2,
                   axis=1)
    m = float(geometry.num_elements)
    power = m / np.maximum(denom, 1e-12 * m)
    return angles, power


def window_subspace(base):
    """Noise subspace of the echo window that MUSIC searches."""
    window = detect_echo_window(base, min_len=16)
    return noise_subspace(covariance(base.data[:, window.start:window.stop]))


def reference_peaks(power):
    """(index, prominence) of every peak, by descending prominence.

    ``scipy.signal.find_peaks`` on the spectrum padded with its own
    minimum, so that maxima at the grid ends count; equal prominences
    keep the lower index first.
    """
    padded = np.concatenate(([power.min()], power, [power.min()]))
    idx, props = sps.find_peaks(padded, prominence=0.0)
    return sorted(((int(i) - 1, float(p))
                   for i, p in zip(idx, props["prominences"])),
                  key=lambda peak: (-peak[1], peak[0]))


class TestSteeringGridCache:
    def test_matches_direct_formula_interleaved(self):
        subspaces = [noise_subspace(np.array([[1.0, 1.0j], [-1.0j, 1.0]])),
                     noise_subspace(np.eye(2))]
        for theta, geometry, snr in ((30.0, HALF_WL, 10.0),
                                     (-20.0, ALIASED, 0.0),
                                     (55.0, ALIASED, math.inf)):
            wave = add_awgn(synthesize_echo(SourceScenario(theta, 0.8),
                                            geometry, CFG), snr, seed=3)
            base = to_baseband(wave, CFG)
            subspaces.append(noise_subspace(covariance(base.data[:, 250:300])))
        # alternate geometries and grids so cached grids cannot cross
        for _ in range(2):
            for subspace in subspaces:
                for geometry in (HALF_WL, ALIASED):
                    for step in (0.25, 0.5):
                        got = pseudospectrum(subspace, geometry, LAM, step)
                        angles, power = reference_spectrum(
                            subspace, geometry, LAM, step)
                        assert got.angles_deg.tobytes() == angles.tobytes()
                        assert got.power.tobytes() == power.tobytes()

    def test_grid_is_read_only_and_angles_are_fresh(self):
        from echodoa.doa_music import _steering_grid
        angles, steering_conj = _steering_grid(HALF_WL.element_x, LAM, 0.25)
        for array in (angles, steering_conj):
            assert not array.flags.writeable
        sub = noise_subspace(np.array([[1.0, 1.0j], [-1.0j, 1.0]]))
        first = pseudospectrum(sub, HALF_WL, LAM)
        assert first.angles_deg.flags.writeable
        assert not np.shares_memory(first.angles_deg, angles)
        first.angles_deg[...] = 0.0
        again = pseudospectrum(sub, HALF_WL, LAM)
        assert again.angles_deg.tobytes() == angles.tobytes()


class TestGratingLobes:
    def test_half_wavelength_is_unambiguous(self):
        assert grating_lobe_set(30.0, HALF_WL, LAM) == [30.0]

    def test_aliased_thirty_degrees(self):
        got = grating_lobe_set(30.0, ALIASED, LAM)
        np.testing.assert_allclose(got, TRIPLET, atol=1e-6)
        np.testing.assert_allclose(got, [-56.443, -9.594, 30.0], atol=1e-3)

    def test_aliased_broadside(self):
        got = grating_lobe_set(0.0, ALIASED, LAM)
        np.testing.assert_allclose(got, [-41.810, 0.0, 41.810], atol=1e-3)

    def test_members_share_one_lattice(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = rng.uniform(0.6, 2.5) * LAM
            theta = rng.uniform(-90, 90)
            geo = ArrayGeometry.pair(d)
            lobes = grating_lobe_set(theta, geo, LAM)
            assert theta in lobes
            for member in lobes:
                again = grating_lobe_set(member, geo, LAM)
                assert len(again) == len(lobes)
                np.testing.assert_allclose(
                    sorted(again), sorted(lobes), atol=1e-6)


class TestEstimateDoaMusic:
    def test_noiseless_thirty_degrees_full_pipeline(self):
        scenario = SourceScenario(doa_deg=30.0, range_m=1.0)
        base = to_baseband(synthesize_echo(scenario, HALF_WL, CFG), CFG)
        est = estimate_doa_music(base, HALF_WL, CFG)
        assert est.status == CONVERGED
        assert abs(est.angle_deg - 30.0) <= 0.25
        assert est.ambiguity_deg == (est.angle_deg,)

    def test_pure_noise_falls_back_to_zero(self):
        silent = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                                 HALF_WL, CFG)
        silent.data[:] = 0.0
        noisy = add_awgn(replace(silent, signal_power=1.0), 0.0, seed=7)
        base = to_baseband(noisy, CFG)
        est = estimate_doa_music(base, HALF_WL, CFG)
        assert est.status == FALLBACK
        assert est.angle_deg == 0.0
        assert est.ambiguity_deg == (0.0,)

    def test_aliased_converges_with_triplet_ambiguity(self):
        scenario = SourceScenario(doa_deg=30.0, range_m=1.0)
        base = to_baseband(synthesize_echo(scenario, ALIASED, CFG), CFG)
        est = estimate_doa_music(base, ALIASED, CFG)
        assert est.status == CONVERGED
        assert len(est.ambiguity_deg) == 3
        for got, expected in zip(sorted(est.ambiguity_deg), TRIPLET):
            assert abs(got - expected) <= 0.5

    def test_exhaustive_noiseless_sweep(self):
        # every 1-degree truth over the open domain recovers within one
        # grid step (the +-90 endpoints share one steering vector, so
        # they are mathematically indistinguishable)
        for theta in range(-89, 90):
            base = steering_baseband(float(theta), HALF_WL, seed=theta + 90)
            est = estimate_doa_music(base, HALF_WL, CFG)
            assert est.status == CONVERGED
            assert abs(est.angle_deg - theta) <= 0.25, f"theta={theta}"

    def test_channel_mismatch_raises(self):
        pair = steering_baseband(0.0, HALF_WL)
        three = ComplexBaseband(data=np.vstack([pair.data, pair.data[:1]]),
                                sample_rate=pair.sample_rate)
        with pytest.raises(InputError):
            estimate_doa_music(three, HALF_WL, CFG)

    def test_fallback_estimate_invariants(self):
        with pytest.raises(InputError):
            DoaEstimate(angle_deg=5.0, status=FALLBACK, ambiguity_deg=(5.0,))
        with pytest.raises(InputError):
            DoaEstimate(angle_deg=5.0, status=CONVERGED, ambiguity_deg=(4.0,))

    @pytest.mark.parametrize("angle, prominence", [
        (math.nan, 4.0), (math.inf, 4.0), (-math.inf, 4.0),
        (30.0, math.nan), (30.0, math.inf)])
    def test_converged_estimate_is_finite(self, angle, prominence):
        # the angle is its own ambiguity set, which NaN passes by identity
        with pytest.raises(InputError, match="must be finite"):
            DoaEstimate(angle_deg=angle, status=CONVERGED,
                        ambiguity_deg=(angle,), prominence=prominence)


class TestMusicWithSpectrum:
    """The estimate of ``estimate_doa_music`` and the spectrum it searched."""

    def check(self, base, options=MusicOptions()):
        """The estimate, the searched spectrum and its noise subspace."""
        estimate, spectrum = music_with_spectrum(base, HALF_WL, CFG, options)
        assert estimate == estimate_doa_music(base, HALF_WL, CFG, options)
        subspace = window_subspace(base)
        expected = pseudospectrum(subspace, HALF_WL, LAM,
                                  options.grid_step_deg)
        assert spectrum.angles_deg.tobytes() == expected.angles_deg.tobytes()
        assert spectrum.power.tobytes() == expected.power.tobytes()
        return estimate, spectrum, subspace

    @pytest.mark.parametrize("options, status", [
        (MusicOptions(), CONVERGED),
        (MusicOptions(grid_step_deg=0.5), CONVERGED)])
    def test_estimate_and_spectrum(self, options, status):
        scenario = SourceScenario(doa_deg=-20.0, range_m=1.0, snr_db=10.0)
        base = to_baseband(add_awgn(synthesize_echo(scenario, HALF_WL, CFG),
                                    10.0, seed=3), CFG)
        estimate, _, _ = self.check(base, options)
        assert estimate.status == status

    @staticmethod
    def paired_burst(gain):
        """A 32-sample echo on channel 0; channel 1 is it times ``gain``."""
        n = 1000
        k = np.arange(n)
        ch0 = np.zeros(n, dtype=complex)
        ch0[400:432] = 1.0
        return ComplexBaseband(np.vstack([ch0, gain(k) * ch0]),
                               CFG.effective_rate)

    def test_degenerate_subspace_falls_back(self):
        # alternating signs make the covariance diagonal: equal eigenvalues
        base = self.paired_burst(lambda k: (-1.0) ** k)
        estimate, spectrum, subspace = self.check(base)
        assert subspace.degenerate and subspace.gap_ratio == 1.0
        # the tie-break vector's spectrum is flat to rounding, so its
        # prominence is below the floor as well
        prominence = _top_peak(spectrum.power)[1]
        assert 0.0 < prominence < 3.0 * float(np.median(spectrum.power))
        assert estimate == DoaEstimate.fallback()

    def test_near_tie_falls_back_on_the_flag(self):
        # a relative eigenvalue gap of 2e-11: a sharp spectrum, but no
        # direction
        base = self.paired_burst(
            lambda k: (-1.0) ** k + 1e-11 * np.exp(0.7j))
        estimate, spectrum, subspace = self.check(base)
        assert subspace.degenerate and subspace.gap_ratio < 1.0
        prominence = _top_peak(spectrum.power)[1]
        assert prominence > 1e3 * 3.0 * float(np.median(spectrum.power))
        assert estimate == DoaEstimate.fallback()

    def test_low_prominence_falls_back(self):
        base = self.paired_burst(lambda k: 0.5 * (-1.0) ** k + 0.1)
        estimate, spectrum, subspace = self.check(base)
        assert not subspace.degenerate
        assert len(reference_peaks(spectrum.power)) == 1
        floor = 3.0 * float(np.median(spectrum.power))
        assert _top_peak(spectrum.power)[1] < floor
        assert estimate == DoaEstimate.fallback()

    def test_no_echo_has_no_spectrum(self):
        base = ComplexBaseband(np.zeros((2, 1000), dtype=complex),
                               CFG.effective_rate)
        estimate, spectrum = music_with_spectrum(base, HALF_WL, CFG)
        assert estimate.status == FALLBACK
        assert spectrum is None


def estimate_bytes(angle_deg, prominence, status):
    return struct.pack("<dd", angle_deg, prominence) + status.encode()


class TestTopPeakAgainstFindPeaks:
    """The one-pass top peak against ``find_peaks`` on the padded spectrum."""

    @pytest.mark.parametrize("spacing_wl", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("step", [0.25, 0.5])
    def test_random_noise_vectors(self, spacing_wl, step):
        geometry = ArrayGeometry.pair(spacing_wl * LAM)
        rng = np.random.default_rng(int(spacing_wl * 100 + step * 8))
        for _ in range(150):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            subspace = NoiseSubspace(vector=v / np.linalg.norm(v),
                                     gap_ratio=0.5, degenerate=False)
            power = pseudospectrum(subspace, geometry, LAM, step).power
            assert _top_peak(power) == reference_peaks(power)[0]

    def test_flat_spectrum_has_no_peak_and_no_prominence(self):
        power = np.full(721, 2.0)
        assert reference_peaks(power) == []
        assert _top_peak(power)[1] == 0.0

    @pytest.mark.parametrize("power, top", [
        ([1.0, 5.0, 5.0, 5.0, 5.0, 2.0], (2, 4.0)),      # even run
        ([5.0, 5.0, 5.0, 1.0, 2.0], (1, 4.0)),           # run at the left end
        ([1.0, 2.0, 5.0, 5.0], (2, 4.0)),                # run at the right end
        ([1.0, 5.0, 2.0, 5.0, 5.0, 5.0, 1.0], (1, 4.0)), # equal maxima apart
    ])
    def test_runs_of_equal_maxima(self, power, top):
        power = np.array(power)
        assert _top_peak(power) == top == reference_peaks(power)[0]

    @staticmethod
    def reference_estimate(base, geometry, step):
        """angle, prominence and status bytes built with ``find_peaks``."""
        try:
            subspace = window_subspace(base)
        except EchoNotFoundError:
            return estimate_bytes(0.0, 0.0, FALLBACK)
        angles, power = reference_spectrum(subspace, geometry, LAM, step)
        peaks = reference_peaks(power)
        if (subspace.degenerate or not peaks
                or peaks[0][1] < 3.0 * float(np.median(power))):
            return estimate_bytes(0.0, 0.0, FALLBACK)
        k, prominence = peaks[0]
        return estimate_bytes(float(angles[k]), prominence, CONVERGED)

    def check(self, base, geometry, step):
        estimate, _ = music_with_spectrum(base, geometry, CFG,
                                          MusicOptions(grid_step_deg=step))
        got = estimate_bytes(estimate.angle_deg, estimate.prominence,
                             estimate.status)
        assert got == self.reference_estimate(base, geometry, step)
        return estimate

    @pytest.mark.parametrize("spacing_wl", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("step", [0.25, 0.5])
    def test_noisy_echoes(self, spacing_wl, step):
        geometry = ArrayGeometry.pair(spacing_wl * LAM)
        rng = np.random.default_rng(int(spacing_wl * 10))
        statuses = set()
        for snr in (-10.0, -5.0, 0.0, 10.0, math.inf):
            for _ in range(4):
                scenario = SourceScenario(float(rng.uniform(-60, 60)),
                                          float(rng.uniform(0.5, 0.95)), snr)
                wave = add_awgn(synthesize_echo(scenario, geometry, CFG),
                                snr, int(rng.integers(2**32)))
                statuses.add(self.check(to_baseband(wave, CFG), geometry,
                                        step).status)
        assert statuses == {CONVERGED, FALLBACK}

    @pytest.mark.parametrize("spacing_wl", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("step", [0.25, 0.5])
    def test_exact_grid_angles(self, spacing_wl, step):
        # a steering vector on the grid nulls the denominator there, so
        # the floored maximum can recur at another grid point (an alias,
        # or the other end of the grid)
        geometry = ArrayGeometry.pair(spacing_wl * LAM)
        for theta in np.arange(-90.0, 90.0 + step, 4 * step):
            base = steering_baseband(float(theta), geometry,
                                     seed=int(theta / step) % 997)
            self.check(base, geometry, step)

    @pytest.mark.parametrize("gain", [
        lambda k: (-1.0) ** k,                  # degenerate
        lambda k: 0.5 * (-1.0) ** k + 0.1,      # low prominence
    ])
    def test_fallback_bursts(self, gain):
        base = TestMusicWithSpectrum.paired_burst(gain)
        for spacing_wl in (0.5, 1.5, 3.0):
            geometry = ArrayGeometry.pair(spacing_wl * LAM)
            assert self.check(base, geometry, 0.25).status == FALLBACK
