import math
from dataclasses import replace

import numpy as np
import pytest

from echodoa.errors import (
    EchoNotFoundError,
    InputError,
    MissingSignalPowerError,
    RateMismatchError,
    ScenarioOutOfWindowError,
)
from echodoa.signal_sim import (
    ENVELOPE_KINDS,
    ArrayGeometry,
    ComplexBaseband,
    RealWaveform,
    SimConfig,
    SourceScenario,
    _envelope,
    _median,
    add_awgn,
    detect_echo_window,
    steering_vector,
    synthesize_echo,
    to_baseband,
    wavelength,
)

CFG = SimConfig()
LAM = wavelength(CFG)
HALF_WL_PAIR = ArrayGeometry.pair(LAM / 2.0)


class TestWavelength:
    def test_default_constants(self):
        assert wavelength(SimConfig()) == pytest.approx(6.640625e-3, rel=1e-12)

    def test_band_edge(self):
        cfg = SimConfig(carrier_freq=40_000.0)
        assert wavelength(cfg) == pytest.approx(8.5e-3, rel=1e-12)

    def test_identity_ratio(self):
        cfg = SimConfig(carrier_freq=340.0, sound_speed=340.0,
                        sample_rate=1_000_000.0)
        assert wavelength(cfg) == 1.0


class TestSimConfig:
    def test_rejects_low_sample_rate(self):
        with pytest.raises(InputError):
            SimConfig(sample_rate=100_000.0)

    def test_rejects_long_echo(self):
        with pytest.raises(InputError):
            SimConfig(echo_duration=9e-3)

    @pytest.mark.parametrize("echo_duration", [0.999e-6, 1e-300])
    def test_rejects_echo_shorter_than_one_sample(self, echo_duration):
        # its record would have no support to measure signal power over
        with pytest.raises(InputError, match="^echo_duration "):
            SimConfig(echo_duration=echo_duration)

    def test_accepts_one_sample_echo(self):
        assert SimConfig(echo_duration=1e-6).echo_duration == 1e-6

    def test_rejects_nondividing_decimation(self):
        with pytest.raises(InputError):
            SimConfig(decimation_factor=7)

    def test_rejects_unknown_envelope(self):
        with pytest.raises(InputError):
            SimConfig(envelope="square")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["carrier_freq", "sound_speed",
                                      "sample_rate", "echo_duration",
                                      "listen_window"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(InputError, match=f"{name} must be finite"):
            SimConfig(**{name: value})

    @pytest.mark.parametrize("overrides", [{"sample_rate": 1e20},
                                           {"listen_window": 1e15}])
    def test_rejects_counts_numpy_cannot_hold(self, overrides):
        # the padded two-channel complex128 record would exceed NumPy's
        # largest array (8e17 and 1e21 samples a channel)
        with pytest.raises(InputError, match="larger than NumPy can hold"):
            SimConfig(**overrides)

    def test_leaves_host_sized_counts_to_allocation(self):
        # 8e16 samples a channel: NumPy can describe the record, only a
        # host cannot hold it
        assert SimConfig(sample_rate=1e19).n_samples == 8 * 10**16

    def test_parse_field_types(self):
        assert SimConfig.parse_field("decimation_factor", " 4 ") == 4
        assert type(SimConfig.parse_field("decimation_factor", "7")) is int
        assert SimConfig.parse_field("carrier_freq", "4e4") == 40_000.0
        assert SimConfig.parse_field("envelope", " flat_top\t") == "flat_top"
        with pytest.raises(InputError, match="unknown simulation key"):
            SimConfig.parse_field("carrier", "40000")

    @pytest.mark.parametrize("line", ["decimation_factor = abc",
                                      "decimation_factor = 8.0",
                                      "decimation_factor = -",
                                      "carrier_freq = 40 kHz"])
    def test_parse_failures_are_input_errors(self, line, tmp_path):
        key, value = (part.strip() for part in line.split("="))
        with pytest.raises(InputError, match=key):
            SimConfig.parse_field(key, value)
        path = tmp_path / "sim.cfg"
        path.write_text(line + "\n")
        with pytest.raises(InputError, match=key):
            SimConfig.from_file(path)

    def test_config_file_rejects_non_finite(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("carrier_freq = nan\n")
        with pytest.raises(InputError, match="finite"):
            SimConfig.from_file(path)

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "# sensor constants\n"
            "carrier_freq = 40000\n"
            "sound_speed = 343.0\n"
            "decimation_factor = 4\n"
            "envelope = flat_top\n")
        cfg = SimConfig.from_file(path)
        assert cfg.carrier_freq == 40_000.0
        assert cfg.sound_speed == 343.0
        assert cfg.decimation_factor == 4
        assert cfg.envelope == "flat_top"
        assert cfg.listen_window == 8e-3   # untouched default

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("carrier = 40000\n")
        with pytest.raises(InputError):
            SimConfig.from_file(path)


class TestArrayGeometry:
    def test_pair_spacing(self):
        assert ArrayGeometry.pair(0.004).spacing == 0.004
        assert ArrayGeometry(element_x=(-0.002, 0.003)).spacing == 0.005

    @pytest.mark.parametrize("xs", [(0.0,), (0.0, 0.003, 0.006),
                                    (0.003, 0.0), (0.003, 0.003)])
    def test_rejects_anything_but_an_increasing_pair(self, xs):
        with pytest.raises(InputError):
            ArrayGeometry(element_x=xs)

    @pytest.mark.parametrize("xs", [(0.0, math.nan), (math.nan, 0.003),
                                    (0.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_positions_that_are_not_finite(self, xs):
        with pytest.raises(InputError, match="finite"):
            ArrayGeometry(element_x=xs)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        a = steering_vector(HALF_WL_PAIR, 0.0, LAM)
        assert (a == 1.0 + 0.0j).all()

    def test_half_wavelength_30deg(self):
        # phase = 2*pi*(d/lam)*sin(30) = pi/2, so element 1 is -i
        a = steering_vector(HALF_WL_PAIR, 30.0, LAM)
        np.testing.assert_allclose(a, [1.0, -1.0j], atol=1e-12)

    def test_aliased_spacing_30deg(self):
        # phase 1.5*pi wraps to +i
        a = steering_vector(ArrayGeometry.pair(1.5 * LAM), 30.0, LAM)
        np.testing.assert_allclose(a, [1.0, 1.0j], atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(7)
        for geo in (ArrayGeometry.pair(0.004), ArrayGeometry.pair(1.5 * LAM),
                    ArrayGeometry(element_x=(-0.003, 0.011))):
            for theta in rng.uniform(-90, 90, 50):
                a = steering_vector(geo, theta, LAM)
                np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        for theta in rng.uniform(0, 90, 25):
            plus = steering_vector(HALF_WL_PAIR, theta, LAM)
            minus = steering_vector(HALF_WL_PAIR, -theta, LAM)
            np.testing.assert_allclose(minus, plus.conj(), atol=1e-12)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(InputError):
            steering_vector(HALF_WL_PAIR, 95.0, LAM)


class TestSourceScenario:
    @pytest.mark.parametrize("field, value", [
        ("doa_deg", math.nan), ("doa_deg", -90.5), ("range_m", math.nan),
        ("range_m", 0.0), ("snr_db", math.nan), ("snr_db", -math.inf)])
    def test_rejects_nan_and_out_of_range(self, field, value):
        kwargs = {"doa_deg": 30.0, "range_m": 1.0, "snr_db": 10.0,
                  field: value}
        with pytest.raises(InputError, match=field):
            SourceScenario(**kwargs)

    def test_infinite_snr_means_noiseless(self):
        scenario = SourceScenario(doa_deg=30.0, range_m=1.0, snr_db=math.inf)
        assert scenario.snr_db == math.inf


class TestSynthesizeEcho:
    def test_broadside_channels_bit_identical(self):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        assert (wave.data[0] == wave.data[1]).all()

    def test_onset_at_round_trip_time(self):
        # 2 * 0.68 / 340 = 4.0 ms exactly
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=0.68),
                               HALF_WL_PAIR, CFG)
        first = np.flatnonzero(wave.data[0])[0]
        onset = first / CFG.sample_rate
        assert 4.0e-3 <= onset <= 4.0e-3 + 5e-6
        assert (wave.data[0, :4000] == 0.0).all()

    def test_inter_element_onset_lag(self):
        # far-field delay d*sin(30)/c = lam/(4c), a quarter carrier period
        wave = synthesize_echo(SourceScenario(doa_deg=30.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        lag = (np.flatnonzero(wave.data[1])[0]
               - np.flatnonzero(wave.data[0])[0]) / CFG.sample_rate
        expected = (LAM / 2.0) * 0.5 / CFG.sound_speed
        assert expected == pytest.approx(4.8828125e-6, rel=1e-9)
        assert lag == pytest.approx(expected, abs=2.0 / CFG.sample_rate)

    def test_out_of_window_raises(self):
        with pytest.raises(ScenarioOutOfWindowError):
            synthesize_echo(SourceScenario(doa_deg=0.0, range_m=2.0),
                            HALF_WL_PAIR, CFG)

    def test_support_and_power_metadata(self):
        wave = synthesize_echo(SourceScenario(doa_deg=10.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        start, stop = wave.echo_support
        # hann envelope times carrier: mean power 0.375 * 0.5
        assert wave.signal_power == pytest.approx(0.1875, rel=0.02)
        assert (wave.data[0, :start] == 0.0).all()
        assert np.abs(wave.data[0, start:stop]).max() > 0.9

    def test_flat_top_envelope_longer_plateau(self):
        cfg = SimConfig(envelope="flat_top")
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, cfg)
        start, stop = wave.echo_support
        d = cfg.decimation_factor
        mag = np.abs(to_baseband(wave, cfg).data[0, start // d:stop // d])
        # baseband magnitude sits near env/2 = 0.5 over the plateau
        assert (mag > 0.45).sum() > 0.6 * mag.size


def full_window_echo(scenario, geometry, config):
    """The burst written out over every sample of the listen window."""
    fs = config.sample_rate
    c = config.sound_speed
    t_grid = np.arange(config.n_samples) / fs
    sin_theta = math.sin(math.radians(scenario.doa_deg))
    base_delay = 2.0 * scenario.range_m / c
    rows = []
    for x_m in geometry.element_x:
        t_rel = t_grid - (base_delay + x_m * sin_theta / c)
        rows.append(_envelope(t_rel, config.echo_duration, config.envelope)
                    * np.cos(2.0 * np.pi * config.carrier_freq * t_rel))
    return np.array(rows)


def last_range_in_window(config):
    """Largest range whose broadside echo still ends inside the window."""
    r = (config.listen_window - config.echo_duration) * config.sound_speed / 2.0
    while 2.0 * r / config.sound_speed + config.echo_duration > config.listen_window:
        r = np.nextafter(r, 0.0)
    return float(r)


class TestSynthesizeEchoSupport:
    """The burst is evaluated over its own samples only."""

    @pytest.mark.parametrize("spacing_wl", [0.5, 1.5])
    @pytest.mark.parametrize("envelope", ENVELOPE_KINDS)
    def test_equals_full_window_formula(self, envelope, spacing_wl):
        cfg = SimConfig(envelope=envelope)
        geometry = ArrayGeometry.pair(spacing_wl * wavelength(cfg))
        for doa in (-90.0, -60.0, -37.3, -1e-3, 0.0, 12.5, 45.0, 60.0, 90.0):
            for range_m in (0.05, 0.5, 0.777, 1.2):
                scenario = SourceScenario(doa_deg=doa, range_m=range_m)
                wave = synthesize_echo(scenario, geometry, cfg)
                want = full_window_echo(scenario, geometry, cfg)
                assert (wave.data == want).all(), (doa, range_m)
                assert wave.signal_power == float(np.mean(
                    want[0, slice(*wave.echo_support)] ** 2))

    def test_samples_outside_the_echo_are_positive_zero(self):
        wave = synthesize_echo(SourceScenario(doa_deg=30.0, range_m=0.7),
                               HALF_WL_PAIR, CFG)
        start, stop = wave.echo_support
        # the guard sample each side of the support may hold -0.0
        outside = np.r_[wave.data[0, :start - 2], wave.data[0, stop + 2:]]
        assert outside.size > 7000
        assert (outside.view(np.uint64) == 0).all()

    @pytest.mark.parametrize("envelope", ENVELOPE_KINDS)
    def test_window_edges(self, envelope):
        cfg = SimConfig(envelope=envelope)
        first = SourceScenario(doa_deg=0.0, range_m=1e-7)
        last = SourceScenario(doa_deg=0.0, range_m=last_range_in_window(cfg))
        for scenario in (first, last):
            wave = synthesize_echo(scenario, HALF_WL_PAIR, cfg)
            assert (wave.data == full_window_echo(scenario, HALF_WL_PAIR,
                                                  cfg)).all()
        head = synthesize_echo(first, HALF_WL_PAIR, cfg).data[0]
        tail = synthesize_echo(last, HALF_WL_PAIR, cfg).data[0]
        assert np.flatnonzero(head)[0] <= 1
        assert np.flatnonzero(tail)[-1] >= cfg.n_samples - 2

    def test_integer_onset_sample(self):
        # 2 * 0.68 / 340 * 1e6 is exactly 4000
        scenario = SourceScenario(doa_deg=0.0, range_m=0.68)
        assert 2.0 * 0.68 / CFG.sound_speed * CFG.sample_rate == 4000.0
        for envelope in ENVELOPE_KINDS:
            cfg = SimConfig(envelope=envelope)
            wave = synthesize_echo(scenario, HALF_WL_PAIR, cfg)
            assert (wave.data == full_window_echo(scenario, HALF_WL_PAIR,
                                                  cfg)).all()

    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, math.inf])
    def test_baseband_bytes_match_full_window(self, snr_db):
        for spacing_wl, doa in ((0.5, -41.0), (1.5, 17.0)):
            geometry = ArrayGeometry.pair(spacing_wl * LAM)
            scenario = SourceScenario(doa_deg=doa, range_m=0.63)
            clean = synthesize_echo(scenario, geometry, CFG)
            full = replace(clean, data=full_window_echo(scenario, geometry,
                                                         CFG))
            got = to_baseband(add_awgn(clean, snr_db, seed=5), CFG)
            want = to_baseband(add_awgn(full, snr_db, seed=5), CFG)
            assert_same_bytes(got, want.data)

    @pytest.mark.parametrize("doa,range_m,element,span", [
        (0.0, 2.0, 0, "[11.765, 12.065]"),
        (-90.0, 1e-4, 1, "[-0.009, 0.291]"),
    ])
    def test_out_of_window_message(self, doa, range_m, element, span):
        with pytest.raises(ScenarioOutOfWindowError) as info:
            synthesize_echo(SourceScenario(doa_deg=doa, range_m=range_m),
                            HALF_WL_PAIR, CFG)
        assert str(info.value) == (
            f"echo on element {element} spans {span} ms, outside the "
            f"8.000 ms listen window")


class TestAddAwgn:
    def test_noiseless_sentinel_is_identity(self):
        wave = synthesize_echo(SourceScenario(doa_deg=5.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        out = add_awgn(wave, math.inf, seed=3)
        assert (out.data == wave.data).all()
        assert out.data is not wave.data

    @pytest.mark.parametrize("snr_db,variance", [(0.0, 1.0), (-10.0, 10.0)])
    def test_variance_matches_request(self, snr_db, variance):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        out = add_awgn(replace(wave, signal_power=1.0), snr_db, seed=11)
        noise = out.data - wave.data
        assert noise.var() == pytest.approx(variance, rel=0.05)

    def test_requires_signal_power(self):
        from echodoa.signal_sim import RealWaveform
        bare = RealWaveform(data=np.zeros((2, 800)), sample_rate=1e5)
        with pytest.raises(MissingSignalPowerError):
            add_awgn(bare, 0.0, seed=0)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_rejects_nan_and_minus_inf_snr(self, snr_db):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        with pytest.raises(InputError, match="snr_db"):
            add_awgn(wave, snr_db, seed=0)

    @pytest.mark.parametrize("snr_db, power", [
        (-3083.0, None), (-1e308, None), (-3000.0, 1e10)])
    def test_rejects_snr_whose_noise_power_overflows(self, snr_db, power):
        # 10 ** 308.3 overflows, and so does 1e10 * 10 ** 300
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        if power is not None:
            wave = replace(wave, signal_power=power)
        with pytest.raises(InputError, match="^snr_db "):
            add_awgn(wave, snr_db, seed=0)

    def test_lowest_snr_with_a_finite_noise_power(self):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        assert np.isfinite(add_awgn(wave, -3080.0, seed=0).data).all()

    @pytest.mark.parametrize("power", [-1e-12, -1.0, math.nan, math.inf,
                                       -math.inf])
    def test_rejects_bad_signal_power(self, power):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        with pytest.raises(InputError, match="signal_power"):
            add_awgn(replace(wave, signal_power=power), 0.0, seed=0)

    def test_zero_signal_power_adds_no_noise(self):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        out = add_awgn(replace(wave, signal_power=0.0), 0.0, seed=0)
        assert (out.data == wave.data).all()

    def test_deterministic_per_seed(self):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        a = add_awgn(wave, 5.0, seed=42)
        b = add_awgn(wave, 5.0, seed=42)
        c = add_awgn(wave, 5.0, seed=43)
        assert (a.data == b.data).all()
        assert not (a.data == c.data).all()

    def test_channels_get_independent_noise(self):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        out = add_awgn(wave, 0.0, seed=1)
        noise = out.data - wave.data
        assert not (noise[0] == noise[1]).any()

    def test_measured_snr_within_half_db(self):
        # average over 20 seeds: clean power over the active window vs
        # noise variance estimated from the echo-free leading region
        wave = synthesize_echo(SourceScenario(doa_deg=20.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        start, _ = wave.echo_support
        measured = []
        for seed in range(20):
            noisy = add_awgn(wave, 0.0, seed=seed)
            noise_var = float((noisy.data - wave.data)[:, :start].var())
            measured.append(10 * math.log10(wave.signal_power / noise_var))
        assert abs(np.mean(measured)) < 0.5


class TestToBaseband:
    def test_pure_tone_magnitude_half(self):
        from echodoa.signal_sim import RealWaveform
        n = CFG.n_samples
        t = np.arange(n) / CFG.sample_rate
        tone = np.cos(2 * np.pi * CFG.carrier_freq * t)
        wave = RealWaveform(data=np.stack([tone, tone]),
                            sample_rate=CFG.sample_rate)
        base = to_baseband(wave, CFG)
        interior = np.abs(base.data[0, 50:-50])
        np.testing.assert_allclose(interior, 0.5, rtol=0.01)

    def test_zero_in_zero_out(self):
        from echodoa.signal_sim import RealWaveform
        wave = RealWaveform(data=np.zeros((2, CFG.n_samples)),
                            sample_rate=CFG.sample_rate)
        base = to_baseband(wave, CFG)
        assert (base.data == 0.0).all()
        assert base.sample_rate == CFG.effective_rate

    def test_inter_channel_phase_quarter_turn(self):
        # theta=30, d=lam/2: steering phase pi/2 between channels
        wave = synthesize_echo(SourceScenario(doa_deg=30.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        base = to_baseband(wave, CFG)
        window = detect_echo_window(base)
        seg = base.data[:, window.start + 5:window.stop - 5]
        phase = np.angle(np.vdot(seg[1], seg[0]))   # arg E[ch0 * conj(ch1)]
        assert phase == pytest.approx(math.pi / 2, abs=0.05)

    def test_echo_band_power_preserved(self):
        # oracle: demodulation maps env*cos to (env/2)*exp(i*phi), so the
        # baseband power over the support must be 0.25 * mean(env^2)
        from echodoa.signal_sim import _envelope
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        start, stop = wave.echo_support
        base = to_baseband(wave, CFG)
        d = CFG.decimation_factor
        tau = 2.0 * 1.0 / CFG.sound_speed
        t_bb = np.arange(base.samples_per_channel) * d / CFG.sample_rate
        env = _envelope(t_bb - tau, CFG.echo_duration, CFG.envelope)
        lo, hi = start // d, stop // d
        bb_power = float(np.mean(np.abs(base.data[0, lo:hi]) ** 2))
        expected = 0.25 * float(np.mean(env[lo:hi] ** 2))
        assert bb_power == pytest.approx(expected, rel=0.01)

    def test_rate_mismatch_raises(self):
        from echodoa.signal_sim import RealWaveform
        wave = RealWaveform(data=np.zeros((2, 4000)), sample_rate=5e5)
        with pytest.raises(RateMismatchError):
            to_baseband(wave, CFG)


def reference_baseband(wave, config):
    """Demodulation written out with fftconvolve, without any cache."""
    from scipy import signal as sps
    fs = config.sample_rate
    t = np.arange(wave.samples_per_channel) / fs
    mixed = wave.data * np.exp(-2j * np.pi * config.carrier_freq * t)
    taps = sps.firwin(129, cutoff=config.carrier_freq / 2.0, fs=fs)
    filtered = sps.fftconvolve(mixed, taps[None, :], mode="same", axes=1)
    return filtered[:, ::config.decimation_factor]


def assert_same_bytes(base, want):
    assert base.data.shape == want.shape
    assert base.data.dtype == want.dtype
    assert base.data.tobytes() == want.tobytes()


class TestBasebandPlan:
    @pytest.mark.parametrize("spacing_wl", [0.5, 1.5])
    @pytest.mark.parametrize("envelope", ENVELOPE_KINDS)
    @pytest.mark.parametrize("decimation", [1, 4, 8, 10])
    def test_bytes_match_fftconvolve(self, decimation, envelope, spacing_wl):
        cfg = SimConfig(decimation_factor=decimation, envelope=envelope)
        geometry = ArrayGeometry.pair(spacing_wl * wavelength(cfg))
        clean = synthesize_echo(SourceScenario(doa_deg=25.0, range_m=0.7),
                                geometry, cfg)
        for seed, snr in enumerate((-30.0, -10.0, 0.0, 10.0, 20.0,
                                    math.inf)):
            wave = add_awgn(clean, snr, seed=seed)
            before, flags = wave.data.tobytes(), str(wave.data.flags)
            base = to_baseband(wave, cfg)
            assert_same_bytes(base, reference_baseband(wave, cfg))
            # the input is read, never written, and may be read-only
            assert wave.data.tobytes() == before
            assert str(wave.data.flags) == flags
            wave.data.flags.writeable = False
            again = to_baseband(wave, cfg)
            assert again.data.tobytes() == base.data.tobytes()
            assert not np.shares_memory(again.data, base.data)

    def test_other_carrier_and_rate(self):
        for cfg in (SimConfig(carrier_freq=40_000.0),
                    SimConfig(sample_rate=500_000.0, decimation_factor=4),
                    CFG):
            geometry = ArrayGeometry.pair(wavelength(cfg) / 2.0)
            wave = add_awgn(synthesize_echo(
                SourceScenario(doa_deg=-40.0, range_m=0.9), geometry, cfg),
                5.0, seed=2)
            assert_same_bytes(to_baseband(wave, cfg),
                              reference_baseband(wave, cfg))

    def test_record_lengths_interleaved(self):
        # one plan per record length; alternating lengths must not cross
        rng = np.random.default_rng(8)
        for channels, n in ((3, 8003), (2, 8000), (3, 8003), (1, 4096),
                            (2, 8000)):
            noise = RealWaveform(data=rng.standard_normal((channels, n)),
                                 sample_rate=CFG.sample_rate)
            assert_same_bytes(to_baseband(noise, CFG),
                              reference_baseband(noise, CFG))
            zeros = RealWaveform(data=np.zeros((channels, n)),
                                 sample_rate=CFG.sample_rate)
            base = to_baseband(zeros, CFG)
            assert_same_bytes(base, reference_baseband(zeros, CFG))
            assert not base.data.any()

    def test_plan_is_read_only_and_output_is_not(self):
        from echodoa.signal_sim import _demodulation_plan
        oscillator, nfft, spectrum = _demodulation_plan(
            CFG.n_samples, CFG.carrier_freq, CFG.sample_rate)
        assert nfft >= CFG.n_samples + 128
        for array in (oscillator, spectrum):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0
        wave = add_awgn(synthesize_echo(
            SourceScenario(doa_deg=10.0, range_m=0.8), HALF_WL_PAIR, CFG),
            10.0, seed=4)
        base = to_baseband(wave, CFG)
        first = base.data.tobytes()
        assert base.data.flags.writeable and base.data.flags.c_contiguous
        assert not np.shares_memory(base.data, oscillator)
        base.data[...] = 0.0
        assert to_baseband(wave, CFG).data.tobytes() == first


class TestDetectEchoWindow:
    def test_noiseless_tof_within_50us(self):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=0.68),
                               HALF_WL_PAIR, CFG)
        base = to_baseband(wave, CFG)
        window = detect_echo_window(base)
        assert window.tof_s == pytest.approx(4.0e-3, abs=50e-6)

    def test_all_zero_raises(self):
        base = ComplexBaseband(data=np.zeros((2, 1000), dtype=complex),
                               sample_rate=CFG.effective_rate)
        with pytest.raises(EchoNotFoundError):
            detect_echo_window(base)

    def test_high_snr_matches_noiseless_window(self):
        clean = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=0.68),
                                HALF_WL_PAIR, CFG)
        ref = detect_echo_window(to_baseband(clean, CFG))
        noisy = add_awgn(clean, 20.0, seed=5)
        win = detect_echo_window(to_baseband(noisy, CFG))
        assert abs(win.start - ref.start) <= 10
        assert abs(win.stop - ref.stop) <= 10

    def test_pure_noise_rarely_triggers(self):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        silent = replace(wave, data=wave.data * 0.0, signal_power=1.0)
        misses = 0
        for seed in range(10):
            noise_only = add_awgn(silent, 0.0, seed=seed)
            try:
                detect_echo_window(to_baseband(noise_only, CFG))
            except EchoNotFoundError:
                misses += 1
        assert misses == 10

    def test_minimum_length_enforced(self):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        base = to_baseband(wave, CFG)
        window = detect_echo_window(base, min_len=64)
        assert window.stop - window.start >= 64

    def test_threshold_is_not_positional(self):
        wave = synthesize_echo(SourceScenario(doa_deg=0.0, range_m=1.0),
                               HALF_WL_PAIR, CFG)
        with pytest.raises(TypeError):
            detect_echo_window(to_baseband(wave, CFG), 5.0)


class TestDeterminism:
    def test_full_chain_bit_identical(self):
        def run():
            wave = synthesize_echo(
                SourceScenario(doa_deg=17.0, range_m=0.9, snr_db=3.0),
                HALF_WL_PAIR, CFG)
            noisy = add_awgn(wave, 3.0, seed=99)
            return to_baseband(noisy, CFG).data
        a, b = run(), run()
        assert (a == b).all()


def _nan_at(position):
    def build(values):
        values[{"first": 0, "middle": values.size // 2,
                "last": -1}[position]] = np.nan
        return values
    return build


def _read_only_view(values):
    view = np.repeat(values, 2)[::2]            # strided, not a copy
    view.flags.writeable = False
    return view


MEDIAN_INPUTS = {
    "random": lambda v: v,
    "ties": lambda v: np.floor(4.0 * v),
    "signed_zeros": lambda v: np.where(v < 0.5, -0.0, 0.0),
    "nan_first": _nan_at("first"),
    "nan_middle": _nan_at("middle"),
    "nan_last": _nan_at("last"),
    "read_only_view": _read_only_view,
}


@pytest.mark.parametrize("kind", MEDIAN_INPUTS)
@pytest.mark.parametrize("n", [1, 2, 125, 721, 722])
def test_median_helper_is_np_median_bit_for_bit(n, kind):
    values = MEDIAN_INPUTS[kind](np.random.default_rng(n).random(n))
    before = values.tobytes()
    got = _median(values)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.median(values).tobytes()
    assert values.tobytes() == before
