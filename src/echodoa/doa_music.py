"""MUSIC direction-of-arrival estimation for a sensor pair.

Covariance estimation, closed-form 2x2 noise-subspace extraction, the
pseudospectrum and its top peak with a 0-degree fallback when that peak
is not convincing, and enumeration of grating-lobe ambiguities for
element spacings beyond half a wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import container
from .errors import EchoNotFoundError, InputError, TooFewSnapshotsError
from .signal_sim import (
    ArrayGeometry,
    ComplexBaseband,
    SimConfig,
    _median,
    detect_echo_window,
    wavelength,
)

CONVERGED = "converged"
FALLBACK = "fallback"

# Denominator floor, relative to the numerator, guarding exact nulls.
_DENOM_FLOOR = 1e-12

# Eigenvalue ratio above which the spectrum is flagged degenerate.
_DEGENERATE_GAP = 1.0 - 1e-9

# Fewest snapshots the detected window is widened to.
_MIN_SNAPSHOTS = 16

# The top peak converges when its prominence reaches this multiple of
# the spectrum median.
_PROMINENCE_FACTOR = 3.0


@dataclass(frozen=True)
class NoiseSubspace:
    """Unit eigenvector of the noise subspace plus spectrum metadata."""

    vector: np.ndarray      # (2,), unit norm
    gap_ratio: float        # lambda_min / lambda_max
    degenerate: bool


@dataclass
class Pseudospectrum:
    """MUSIC power over an angle grid."""

    angles_deg: np.ndarray
    power: np.ndarray

    def write_table(self, path) -> None:
        """Two-column plain-text export (angle_deg, power)."""
        container.write_table(path, ("angle_deg", "power"),
                              zip(self.angles_deg, self.power))


@dataclass(frozen=True)
class DoaEstimate:
    """Angle estimate with convergence status and aliasing ambiguities.

    The angle and prominence are finite, a fallback's angle is 0, and
    the ambiguity set holds the angle; any other estimate raises
    ``InputError``.
    """

    angle_deg: float
    status: str                     # CONVERGED or FALLBACK
    ambiguity_deg: tuple
    prominence: float = 0.0

    def __post_init__(self):
        if self.status == FALLBACK and self.angle_deg != 0.0:
            raise InputError("fallback estimates report angle 0")
        if not all(map(math.isfinite, (self.angle_deg, self.prominence))):
            raise InputError(f"doa_deg and prominence must be finite, got "
                             f"{self.angle_deg} and {self.prominence}")
        if self.angle_deg not in self.ambiguity_deg:
            raise InputError("ambiguity set must contain the estimate")

    @classmethod
    def fallback(cls) -> "DoaEstimate":
        """The 0-degree answer an estimator gives when it finds nothing."""
        return cls(angle_deg=0.0, status=FALLBACK, ambiguity_deg=(0.0,))


@dataclass(frozen=True)
class MusicOptions:
    """The one setting of the MUSIC pipeline: its grid step in degrees.

    The step must be positive, finite and at most 180, so that the grid
    holds at least two points, and must leave at most
    ``_MAX_GRID_POINTS`` points, as any step of 0.001 degree or more
    does; any other step raises InputError.

    Everything else is fixed: the grid spans [-90, 90], the echo is
    detected at ``DETECTION_THRESHOLD`` and widened to at least 16
    snapshots, a degenerate noise subspace falls back, and the top peak
    falls back unless its prominence reaches 3 times the spectrum median.
    """

    grid_step_deg: float = 0.25

    def __post_init__(self):
        if _grid_steps(self.grid_step_deg) < 1:
            raise InputError(
                f"grid step must be at most 180 degrees, so that the grid "
                f"holds two points, got {self.grid_step_deg}")


def covariance(snapshots: np.ndarray) -> np.ndarray:
    """Sample covariance (1/K) * sum of snapshot outer products.

    ``snapshots`` is (channels, K) complex with K >= channels. The
    result is Hermitian by construction.
    """
    y = np.asarray(snapshots)
    if y.ndim != 2:
        raise InputError("snapshot matrix must be 2-D (channels x snapshots)")
    m, k = y.shape
    if k < m:
        raise TooFewSnapshotsError(f"{k} snapshots for {m} channels")
    return (y @ y.conj().T) / k


def noise_subspace(r: np.ndarray) -> NoiseSubspace:
    """Eigenvector of the smaller eigenvalue of a 2x2 covariance.

    With two channels and one source the noise subspace is a single
    eigenvector, taken from the closed-form Hermitian eigendecomposition:
    eigenvalues (a+c)/2 +- sqrt(((a-c)/2)^2 + |b|^2). It is unit norm
    with its first nonzero component made real positive. A near-flat
    eigenvalue spectrum is reported via ``degenerate``, not raised.
    """
    r = np.asarray(r)
    if r.shape != (2, 2):
        raise InputError(f"covariance must be 2x2, got shape {r.shape}")
    a = float(r[0, 0].real)
    c = float(r[1, 1].real)
    b = complex(r[0, 1])
    mean = 0.5 * (a + c)
    half = math.hypot(0.5 * (a - c), abs(b))
    lam_max, lam_min = mean + half, mean - half
    scale = max(abs(a), abs(c), abs(b))
    if scale == 0.0 or half <= 1e-15 * scale:
        # flat spectrum: deterministic tie-break on the second axis
        return NoiseSubspace(vector=np.array([0.0, 1.0], dtype=complex),
                             gap_ratio=1.0 if scale else 0.0,
                             degenerate=True)
    # pick the better conditioned of the two eigenvector formulas
    if abs(lam_min - a) >= abs(lam_min - c):
        v = np.array([b, lam_min - a], dtype=complex)
    else:
        v = np.array([lam_min - c, np.conj(b)], dtype=complex)
    v = v / np.linalg.norm(v)
    lead = v[0] if abs(v[0]) > 1e-12 else v[1]
    v = v * (np.conj(lead) / abs(lead))
    gap = 1.0 if lam_max <= 0 else max(lam_min, 0.0) / lam_max
    return NoiseSubspace(vector=v, gap_ratio=gap,
                         degenerate=gap > _DEGENERATE_GAP)


# the most points a grid may hold (steps of 0.001 degree and up): a
# smaller step would ask for a steering matrix of gigabytes, or more
# points than NumPy can index
_MAX_GRID_POINTS = 180_001


def _grid_steps(step, span=180.0):
    """Steps of ``step`` from a grid's start that stay within ``span``
    of it; the MUSIC grid spans the 180 degrees from -90 to 90.

    A step that is not positive and finite, or that would leave more
    than ``_MAX_GRID_POINTS`` points, raises InputError.
    """
    if not (math.isfinite(step) and step > 0):
        raise InputError("grid step must be positive and finite")
    # the 1e-9 keeps the end point when the quotient rounds low
    steps = span / step + 1e-9
    if steps >= _MAX_GRID_POINTS:
        raise InputError(
            f"grid step must leave at most {_MAX_GRID_POINTS} grid points "
            f"(a step of {span / (_MAX_GRID_POINTS - 1):.3g} or more), "
            f"got {step}")
    return math.floor(steps)


def _angle_grid(step_deg):
    return -90.0 + step_deg * np.arange(_grid_steps(step_deg) + 1)


@lru_cache(maxsize=16)
def _steering_grid(element_x: tuple, wavelength_m: float, grid_step_deg: float):
    """Angle grid and conjugated steering matrix (n, 2), both read-only."""
    angles = _angle_grid(grid_step_deg)
    x = np.asarray(element_x) - element_x[0]
    sines = np.sin(np.radians(angles))
    steering_conj = np.exp(-2j * np.pi * np.outer(sines, x) / wavelength_m).conj()
    angles.flags.writeable = False
    steering_conj.flags.writeable = False
    return angles, steering_conj


def pseudospectrum(subspace: NoiseSubspace, geometry: ArrayGeometry,
                   wavelength_m: float,
                   grid_step_deg: float = 0.25) -> Pseudospectrum:
    """MUSIC pseudospectrum P = (a^H a) / |a^H v|^2 on a grid.

    ``v`` is the pair's noise eigenvector. The grid runs from -90 to 90
    degrees in ``grid_step_deg`` steps. The denominator is floored at
    1e-12 times the numerator so exact nulls stay finite. The angle grid
    and the conjugated steering matrix come from a read-only cache keyed
    by (element positions, wavelength, grid step); the returned
    ``angles_deg`` is a fresh, writable copy.
    """
    angles, steering_conj = _steering_grid(geometry.element_x, wavelength_m,
                                           grid_step_deg)
    denom = np.abs(steering_conj @ subspace.vector) ** 2
    numer = 2.0                                                         # a^H a
    power = numer / np.maximum(denom, _DENOM_FLOOR * numer)
    return Pseudospectrum(angles_deg=angles.copy(), power=power)


def _top_peak(power: np.ndarray) -> tuple[int, float]:
    """Index and prominence of the spectrum's top peak.

    The leftmost maximum, or the middle (rounded down) of its run of
    equal values. With the minimum padded onto both ends, no other peak
    is as prominent: the maximum minus the minimum, 0 for a flat one.
    """
    k = end = int(np.argmax(power))
    while end + 1 < power.size and power[end + 1] == power[k]:
        end += 1
    return (k + end) // 2, float(power[k] - power.min())


def grating_lobe_set(doa_deg: float, geometry: ArrayGeometry,
                     wavelength_m: float) -> list:
    """All angles aliased with ``doa_deg`` for the pair spacing.

    Solutions of sin(t') = sin(t) + k * lambda / d over [-90, 90],
    including k = 0, sorted ascending with near-duplicates merged.
    """
    if abs(doa_deg) > 90.0:
        raise InputError("doa_deg must lie in [-90, 90]")
    ratio = wavelength_m / geometry.spacing
    s0 = math.sin(math.radians(doa_deg))
    k_lo = math.ceil((-1.0 - s0) / ratio - 1e-12)
    k_hi = math.floor((1.0 - s0) / ratio + 1e-12)
    angles = []
    for k in range(k_lo, k_hi + 1):
        s = s0 + k * ratio
        if abs(s) > 1.0:
            continue
        ang = math.degrees(math.asin(s))
        if not any(abs(ang - a) < 1e-9 for a in angles):
            angles.append(ang)
    # keep the queried angle exactly as given
    angles = [doa_deg if abs(a - doa_deg) < 1e-9 else a for a in angles]
    return sorted(angles)


def estimate_doa_music(base: ComplexBaseband, geometry: ArrayGeometry,
                       config: SimConfig,
                       options: MusicOptions = MusicOptions()) -> DoaEstimate:
    """Full pipeline: detect echo, covariance, subspace, top peak.

    Returns a fallback (angle 0) instead of raising when the echo is
    not detected, the eigenvalue spectrum is degenerate, or the top
    peak is not prominent enough (a flat spectrum has no prominence).
    Estimation failure is never an exception.
    """
    return music_with_spectrum(base, geometry, config, options)[0]


def music_with_spectrum(base: ComplexBaseband, geometry: ArrayGeometry,
                        config: SimConfig,
                        options: MusicOptions = MusicOptions()
                        ) -> tuple[DoaEstimate, Pseudospectrum | None]:
    """``estimate_doa_music`` and the pseudospectrum it searched.

    The spectrum is None when no echo was detected; every other
    estimate, fallbacks included, comes with the spectrum of the
    detected window.
    """
    if base.data.shape[0] != geometry.num_elements:
        raise InputError("baseband channel count does not match the geometry")
    try:
        window = detect_echo_window(base, min_len=_MIN_SNAPSHOTS)
    except EchoNotFoundError:
        return DoaEstimate.fallback(), None

    snapshots = base.data[:, window.start:window.stop]
    r = covariance(snapshots)
    subspace = noise_subspace(r)
    lam = wavelength(config)
    spectrum = pseudospectrum(subspace, geometry, lam, options.grid_step_deg)
    k, prominence = _top_peak(spectrum.power)
    if (subspace.degenerate or prominence
            < _PROMINENCE_FACTOR * _median(spectrum.power)):
        return DoaEstimate.fallback(), spectrum
    angle = float(spectrum.angles_deg[k])
    return DoaEstimate(angle_deg=angle, status=CONVERGED,
                       ambiguity_deg=tuple(grating_lobe_set(angle, geometry,
                                                            lam)),
                       prominence=prominence), spectrum
