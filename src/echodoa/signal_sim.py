"""Ultrasonic array echo synthesis and baseband conversion.

Generates the two-channel carrier bursts seen by a sensor pair after
reflecting off an obstacle, adds power-calibrated white Gaussian
noise, and demodulates the real waveforms to decimated complex baseband
for the DoA estimators.

All functions are pure: randomness enters only through explicit seeds
(noise uses a counter-based Philox stream keyed by seed and channel so
records can be generated in parallel without coordination). The one
module-level cache, the demodulation plan, holds only read-only
constants derived from its key, so it never changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import fft as sp_fft

from .errors import (
    EchoNotFoundError,
    InputError,
    MissingSignalPowerError,
    RateMismatchError,
    ScenarioOutOfWindowError,
)

ENVELOPE_KINDS = ("hann", "flat_top")

# FIR low-pass used in quadrature demodulation; odd length keeps the
# symmetric kernel zero-delay under "same" convolution.
_LOWPASS_TAPS = 129
_LOWPASS_DELAY = (_LOWPASS_TAPS - 1) // 2

# Detection floor relative to the record peak; protects the noiseless
# case from triggering on filter tails while staying far below any
# usable echo amplitude.
_PEAK_FLOOR = 0.01

NOISELESS = math.inf

# Echo detection threshold, a multiple of the lead segment's median
# magnitude: MUSIC detects its snapshot window at it and the CNN
# centers its crop on it.
DETECTION_THRESHOLD = 5.0

# Leading share of the record taken as noise only.
_LEAD_FRACTION = 0.125

# Largest scenario range in meters, the bound ``triangulation`` puts on
# ranges: the round-trip time stays finite in any unit a message shows.
_MAX_RANGE_M = 1e153

# Most samples per channel a two-channel complex128 array can hold: the
# largest array of a record is to_baseband's padded FFT buffer, and
# NumPy refuses any array of more than intp-max bytes.
_MAX_RECORD_SAMPLES = np.iinfo(np.intp).max // (2 * 16)


@dataclass(frozen=True)
class SimConfig:
    """Physical and sampling constants of the simulated sensor."""

    carrier_freq: float = 51_200.0
    sound_speed: float = 340.0
    sample_rate: float = 1_000_000.0
    echo_duration: float = 300e-6
    listen_window: float = 8e-3
    decimation_factor: int = 8
    envelope: str = "hann"

    def __post_init__(self):
        for name in ("carrier_freq", "sound_speed", "sample_rate",
                     "echo_duration", "listen_window"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite")
            if value <= 0:
                raise InputError(f"{name} must be positive")
        count = self.listen_window * self.sample_rate
        if not math.isfinite(count):
            raise InputError("listen_window * sample_rate (the sample "
                             "count) must be finite")
        if self.sample_rate <= 2 * self.carrier_freq:
            raise InputError("sample_rate must exceed twice the carrier frequency")
        # an echo of no sample has no power to set a noise level by
        if self.echo_duration * self.sample_rate < 1.0:
            raise InputError(
                f"echo_duration {self.echo_duration:g} s is shorter than one "
                f"sample at sample_rate {self.sample_rate:g} Hz")
        if self.echo_duration >= self.listen_window:
            raise InputError("echo_duration must be shorter than listen_window")
        if self.decimation_factor < 1:
            raise InputError("decimation_factor must be a positive integer")
        if self.n_samples % self.decimation_factor != 0:
            raise InputError("decimation_factor must divide the listen-window sample count")
        if (count > _MAX_RECORD_SAMPLES
                or _fft_length(self.n_samples, self.decimation_factor)
                > _MAX_RECORD_SAMPLES):
            raise InputError(
                f"listen_window * sample_rate ({count:.6g} samples) leaves "
                f"a record larger than NumPy can hold (at most "
                f"{_MAX_RECORD_SAMPLES} padded samples a channel)")
        if self.envelope not in ENVELOPE_KINDS:
            raise InputError(f"envelope must be one of {ENVELOPE_KINDS}")

    @property
    def n_samples(self) -> int:
        return round(self.listen_window * self.sample_rate)

    @property
    def effective_rate(self) -> float:
        return self.sample_rate / self.decimation_factor

    @classmethod
    def kind(cls, key: str) -> type:
        """``float``, ``int`` or ``str``: the type of field ``key``'s values.

        It is the type of the field's default; an unknown key raises
        InputError.
        """
        if key not in cls.__dataclass_fields__:
            raise InputError(f"unknown simulation key {key!r}")
        return type(cls.__dataclass_fields__[key].default)

    @classmethod
    def parse_field(cls, key: str, text: str):
        """Typed value of field ``key`` from its text form.

        Unknown keys and text that does not parse as the field's type
        raise InputError; range checks are left to construction.
        """
        kind = cls.kind(key)
        text = text.strip()
        try:
            return kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise InputError(f"{key} expects {noun}, got {text!r}") from None

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        """Load from a plain-text file of ``key = value`` lines.

        Recognized keys are exactly the field names; ``#`` starts a
        comment. Unknown keys are rejected.
        """
        overrides = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in cls.__dataclass_fields__:
                raise InputError(f"{path}:{lineno}: unknown key {key!r}")
            overrides[key] = cls.parse_field(key, value)
        return cls(**overrides)


@dataclass(frozen=True)
class ArrayGeometry:
    """Positions (meters) of the sensor pair along its baseline."""

    element_x: tuple

    def __post_init__(self):
        xs = tuple(float(x) for x in self.element_x)
        object.__setattr__(self, "element_x", xs)
        if len(xs) != 2:
            raise InputError(f"the array is a pair, got {len(xs)} elements")
        if not all(map(math.isfinite, xs)):
            raise InputError(f"element positions must be finite, got {xs}")
        if xs[1] <= xs[0]:
            raise InputError("element positions must be strictly increasing")

    @classmethod
    def pair(cls, spacing_m: float) -> "ArrayGeometry":
        """Two-element array with the first element at the origin."""
        return cls(element_x=(0.0, float(spacing_m)))

    @property
    def num_elements(self) -> int:
        return len(self.element_x)

    @property
    def spacing(self) -> float:
        """Distance between the two elements in meters."""
        return self.element_x[1] - self.element_x[0]


@dataclass(frozen=True)
class SourceScenario:
    """Single obstacle: direction, radial range, and noise level."""

    doa_deg: float
    range_m: float
    snr_db: float = NOISELESS

    def __post_init__(self):
        # written so that NaN fails every check
        if not abs(self.doa_deg) <= 90.0:
            raise InputError("doa_deg must lie in [-90, 90]")
        if not 0 < self.range_m <= _MAX_RANGE_M:
            raise InputError(f"range_m must lie in (0, {_MAX_RANGE_M:g}]")
        if not self.snr_db > -math.inf:
            raise InputError("snr_db must be finite, or +inf for noiseless")


@dataclass
class RealWaveform:
    """Pre-demodulation sensor output, channel-major."""

    data: np.ndarray            # (channels, samples) float64
    sample_rate: float
    echo_support: tuple | None = None   # [start, stop) sample interval on channel 0
    signal_power: float | None = None   # mean clean-echo power over the support

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def samples_per_channel(self) -> int:
        return self.data.shape[1]


@dataclass
class ComplexBaseband:
    """Demodulated, decimated complex samples, channel-major."""

    data: np.ndarray            # (channels, samples) complex128
    sample_rate: float          # effective rate after decimation

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def samples_per_channel(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class EchoWindow:
    """Detected echo interval in baseband samples."""

    start: int
    stop: int
    tof_s: float


def wavelength(config: SimConfig) -> float:
    """Carrier wavelength in meters, sound_speed / carrier_freq."""
    return config.sound_speed / config.carrier_freq


def steering_vector(geometry: ArrayGeometry, doa_deg: float,
                    wavelength_m: float) -> np.ndarray:
    """Unit-modulus array response for a plane wave from ``doa_deg``.

    Phase is referenced to element 0, so the first entry is exactly 1.
    """
    if abs(doa_deg) > 90.0:
        raise InputError("doa_deg must lie in [-90, 90]")
    x = np.asarray(geometry.element_x) - geometry.element_x[0]
    phase = -2.0 * np.pi * x * math.sin(math.radians(doa_deg)) / wavelength_m
    return np.exp(1j * phase)


def _envelope(t: np.ndarray, duration: float, kind: str) -> np.ndarray:
    """Amplitude envelope evaluated at times relative to echo onset."""
    u = t / duration
    inside = (u >= 0.0) & (u <= 1.0)
    if kind == "hann":
        env = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.clip(u, 0.0, 1.0)))
    elif kind == "flat_top":
        # wall-like return: flat plateau with 10% raised-cosine ramps
        ramp = 0.1
        uc = np.clip(u, 0.0, 1.0)
        env = np.ones_like(uc)
        rising = uc < ramp
        falling = uc > 1.0 - ramp
        env[rising] = 0.5 * (1.0 - np.cos(np.pi * uc[rising] / ramp))
        env[falling] = 0.5 * (1.0 - np.cos(np.pi * (1.0 - uc[falling]) / ramp))
    else:
        raise InputError(f"unknown envelope kind {kind!r}")
    return np.where(inside, env, 0.0)


def _ms(seconds: float) -> str:
    """Milliseconds to three decimals, or to six digits from a million."""
    ms = seconds * 1e3
    return f"{ms:.3f}" if abs(ms) < 1e6 else f"{ms:.6g}"


def synthesize_echo(scenario: SourceScenario, geometry: ArrayGeometry,
                    config: SimConfig) -> RealWaveform:
    """Noiseless carrier burst as received by every array element.

    Channel m starts at 2*range/c plus the far-field inter-element delay
    element_x[m]*sin(doa)/c and carries the configured envelope. The
    returned waveform remembers the reference channel's active interval
    and mean power so noise can be calibrated later.

    The cost follows the echo's length, not the listen window's: each
    channel evaluates the burst only over the samples its echo can reach
    (plus a guard sample each side), and every other sample is +0.0.
    """
    fs = config.sample_rate
    c = config.sound_speed
    n = config.n_samples
    sin_theta = math.sin(math.radians(scenario.doa_deg))
    base_delay = 2.0 * scenario.range_m / c

    data = np.zeros((geometry.num_elements, n))
    for m, x_m in enumerate(geometry.element_x):
        tau = base_delay + x_m * sin_theta / c
        if tau < 0.0 or tau + config.echo_duration > config.listen_window:
            raise ScenarioOutOfWindowError(
                f"echo on element {m} spans [{_ms(tau)}, "
                f"{_ms(tau + config.echo_duration)}] ms, outside the "
                f"{_ms(config.listen_window)} ms listen window")
        # the guard samples leave the edges to _envelope's own mask; the
        # times are element for element those of np.arange(n) / fs
        lo = max(0, math.floor(tau * fs) - 1)
        hi = min(n, math.ceil((tau + config.echo_duration) * fs) + 2)
        t_rel = np.arange(lo, hi) / fs - tau
        data[m, lo:hi] = (
            _envelope(t_rel, config.echo_duration, config.envelope)
            * np.cos(2.0 * np.pi * config.carrier_freq * t_rel))

    tau0 = base_delay + geometry.element_x[0] * sin_theta / c
    start = math.ceil(tau0 * fs)
    stop = min(n, math.floor((tau0 + config.echo_duration) * fs) + 1)
    power = float(np.mean(data[0, start:stop] ** 2))
    return RealWaveform(data=data, sample_rate=fs,
                        echo_support=(start, stop), signal_power=power)


def add_awgn(wave: RealWaveform, snr_db: float, seed: int) -> RealWaveform:
    """Add white Gaussian noise at the requested SNR.

    Noise variance is P_signal * 10**(-snr_db/10) where P_signal is the
    clean echo's mean power over its active duration, the waveform's
    ``signal_power``. ``snr_db = inf`` is the noiseless sentinel and
    returns an untouched copy; a NaN or -inf ``snr_db`` and a negative
    or non-finite signal power raise InputError. Each channel draws from
    an independent Philox stream keyed by (seed, channel).
    """
    if math.isinf(snr_db) and snr_db > 0:
        return replace(wave, data=wave.data.copy())
    # written so that NaN fails every check
    if not snr_db > -math.inf:
        raise InputError("snr_db must be finite, or +inf for noiseless")
    power = wave.signal_power
    if power is None:
        raise MissingSignalPowerError(
            "clean signal power unknown; synthesize the echo first")
    if not 0.0 <= power < math.inf:
        raise InputError(
            f"signal_power must be finite and non-negative, got {power}")
    try:
        sigma = math.sqrt(power * 10.0 ** (-snr_db / 10.0))
    except OverflowError:       # 10 ** x already overflows above x = 308.25
        sigma = math.inf
    if sigma == math.inf:
        raise InputError(f"snr_db {snr_db:g} overflows the noise power")
    out = wave.data.copy()
    n = wave.samples_per_channel
    for ch in range(wave.channels):
        rng = np.random.Generator(np.random.Philox(key=np.array(
            [seed, ch], dtype=np.uint64)))
        out[ch] += rng.normal(0.0, sigma, n)
    return replace(wave, data=out)


def _fft_length(samples: int, decimation: int) -> int:
    """Padded length of the demodulation FFT for a record of ``samples``.

    A multiple of ``decimation`` whose quotient, the length of the
    output-rate inverse FFT, is a fast length: room for the whole linear
    convolution with the low pass, so no output wraps around.
    """
    span = -(-(samples + _LOWPASS_TAPS - 1) // decimation)
    return decimation * sp_fft.next_fast_len(span, False)


def _lowpass_taps(carrier_freq: float, sample_rate: float) -> np.ndarray:
    """Hamming-windowed sinc low pass, cutoff at half the carrier.

    Bit for bit ``scipy.signal.firwin(_LOWPASS_TAPS, cutoff=carrier_freq
    / 2, fs=sample_rate)``, the same operations in the same order: the
    ideal low pass at the cutoff relative to Nyquist, times the
    symmetric Hamming window, scaled to unit DC gain. Built here so that
    no command imports ``scipy.signal``.
    """
    cutoff = (carrier_freq / 2.0) / (0.5 * sample_rate)
    m = np.arange(_LOWPASS_TAPS, dtype=float) - 0.5 * (_LOWPASS_TAPS - 1)
    window = 0.54 + (1.0 - 0.54) * np.cos(
        np.linspace(-np.pi, np.pi, _LOWPASS_TAPS))
    taps = cutoff * np.sinc(cutoff * m) * window
    return taps / np.sum(taps)


@lru_cache(maxsize=8)
def _demodulation_plan(samples: int, carrier_freq: float, sample_rate: float,
                       decimation: int):
    """Oscillator, FFT length and folded low-pass spectrum for one record
    shape and decimation factor.

    The oscillator and the low pass's padded spectrum are exactly what
    ``fftconvolve(mixed, taps, mode="same")`` would rebuild on every
    call. The spectrum also carries the two factors that the folded
    inverse in ``to_baseband`` needs: the 1/decimation scale and, only
    when decimation does not divide the filter delay, the phase ramp
    that advances the output by the delay's remainder. The arrays are
    read-only.
    """
    t = np.arange(samples) / sample_rate
    oscillator = np.exp(-2j * np.pi * carrier_freq * t)
    taps = _lowpass_taps(carrier_freq, sample_rate)
    nfft = _fft_length(samples, decimation)
    spectrum = sp_fft.fftn(taps[None, :], [nfft], axes=[1]) / decimation
    shift = _LOWPASS_DELAY % decimation
    if shift:
        spectrum *= np.exp(2j * np.pi * shift * np.arange(nfft) / nfft)
    oscillator.flags.writeable = False
    spectrum.flags.writeable = False
    return oscillator, nfft, spectrum


def to_baseband(wave: RealWaveform, config: SimConfig) -> ComplexBaseband:
    """Quadrature demodulation, low-pass filtering, and decimation.

    Multiplies by exp(-i*2*pi*f*t), applies a linear-phase FIR low pass
    with cutoff at half the carrier (zero net delay), then keeps every
    decimation_factor-th sample. A unit-amplitude carrier tone maps to
    baseband magnitude 0.5 (analytic-signal halving).

    The oscillator and the filter's spectrum come from a read-only plan
    cached per (record length, carrier, sample rate, decimation). The
    filter runs as one FFT product, and decimation happens in frequency
    before the inverse: the product's ``decimation`` aliases are summed
    into one output-rate spectrum, whose inverse FFT holds exactly the
    kept samples (Crochiere & Rabiner, 1983). In exact arithmetic that
    is ``scipy.signal.fftconvolve`` in "same" mode followed by the
    stride. In floats it differs by round-off only, within the bound
    README's float contract states, and at decimation 1 it is that
    computation bit for bit.
    """
    if wave.sample_rate != config.sample_rate:
        raise RateMismatchError(
            f"waveform sampled at {wave.sample_rate} Hz, config expects "
            f"{config.sample_rate} Hz")
    n = wave.samples_per_channel
    d = config.decimation_factor
    oscillator, nfft, spectrum = _demodulation_plan(
        n, config.carrier_freq, config.sample_rate, d)
    # the mixed record and its zero padding in one buffer, which the
    # forward FFT and the filter product then overwrite in place
    buf = np.empty((wave.channels, nfft), dtype=complex)
    np.multiply(wave.data, oscillator, out=buf[:, :n])
    buf[:, n:] = 0.0
    buf = sp_fft.fft(buf, axis=1, overwrite_x=True)
    buf *= spectrum
    # the d aliases summed in index order: the spectrum at the output
    # rate, whose inverse holds every d-th filtered sample from the
    # delay's remainder on; the record's ceil(n / d) start at delay // d
    folded = buf.reshape(wave.channels, d, nfft // d).sum(axis=1)
    folded = sp_fft.ifft(folded, axis=1, overwrite_x=True)
    first = _LOWPASS_DELAY // d
    return ComplexBaseband(data=folded[:, first:first + -(-n // d)].copy(),
                           sample_rate=config.effective_rate)


def detect_echo_window(base: ComplexBaseband, *, min_len: int = 1) -> EchoWindow:
    """Find the echo interval on the reference channel.

    The threshold is ``DETECTION_THRESHOLD`` times the median magnitude
    of the leading noise-only segment (the first eighth of the record,
    at least 8 samples), floored at a small fraction of the record peak.
    The window runs from the first crossing until the magnitude falls
    back below, extended to at least ``min_len`` samples. Time of
    flight is the onset sample over the effective sample rate.
    """
    (window,) = _echo_windows(base, (DETECTION_THRESHOLD,), min_len)
    if window is None:
        raise EchoNotFoundError("no sample crossed the detection threshold")
    return window


def _echo_windows(base: ComplexBaseband, threshold_factors,
                  min_len: int = 1) -> list:
    """``detect_echo_window`` at several thresholds from one pass.

    The magnitude, the lead-segment median and the peak are computed
    once; each factor (a constant above 1) gets its window, or None
    where nothing crossed.
    """
    mag = np.abs(base.data[0])
    n = mag.size
    if n < min_len:
        raise InputError(f"record has {n} samples, need at least {min_len}")
    lead = max(8, int(n * _LEAD_FRACTION))
    noise_median = _median(mag[:lead])
    floor = _PEAK_FLOOR * float(mag.max())
    windows = []
    for factor in threshold_factors:
        above = mag > max(factor * noise_median, floor)
        if not above.any():
            windows.append(None)
            continue
        start = int(np.argmax(above))
        below_after = ~above[start:]
        stop = start + (int(np.argmax(below_after)) if below_after.any()
                        else n - start)
        if stop - start < min_len:
            stop = min(n, start + min_len)
            start = max(0, stop - min_len)
        windows.append(EchoWindow(start=start, stop=stop,
                                  tof_s=start / base.sample_rate))
    return windows


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a non-empty 1-D float array, bit
    for bit, without NumPy's generic axis handling.

    The same partition as ``np.median`` (the middle index or indices
    plus the last), the middle values summed from +0.0 as NumPy's mean
    sums them, and the partition's last value when that is NaN.
    """
    n = values.size
    middle = [(n - 1) // 2] if n % 2 else [n // 2 - 1, n // 2]
    part = np.partition(values, middle + [-1])
    if math.isnan(part[-1]):
        return float(part[-1])
    if n % 2:
        return 0.0 + float(part[middle[0]])
    return (0.0 + float(part[middle[0]]) + float(part[middle[1]])) / 2.0
