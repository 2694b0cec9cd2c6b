"""Obstacle localization from two radial distances.

Circle intersection, a linearized precision-dilution model for the
intersection point, and fusion of a DoA estimate with the measured
ranges to shrink the transverse uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .doa_music import FALLBACK, DoaEstimate
from .errors import (
    CoincidentSensorsError,
    InputError,
    NoIntersectionError,
    SingularGeometryError,
    UnusableFallbackError,
)

TRIANGULATION = "triangulation"
FUSED = "fused"

_REL_TOL = 1e-9


@dataclass(frozen=True)
class SensorPose:
    """Sensor position in the vehicle-plane frame (meters)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InputError(f"sensor position must be finite, got "
                             f"({self.x}, {self.y})")


@dataclass(frozen=True)
class RangeMeasurement:
    """Radial distance from one sensor with its standard deviation."""

    sensor: SensorPose
    range_m: float
    sigma_r: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.range_m) and self.range_m > 0):
            raise InputError("range_m must be positive and finite")
        if not (math.isfinite(self.sigma_r) and self.sigma_r >= 0):
            raise InputError("sigma_r must be non-negative and finite")


@dataclass(frozen=True)
class ErrorEllipse:
    """1-sigma position uncertainty: semi-axes and major-axis bearing."""

    semi_major: float
    semi_minor: float
    orientation_deg: float      # major axis, degrees from the +x axis


@dataclass(frozen=True)
class PositionFix:
    x: float
    y: float
    ellipse: ErrorEllipse
    source: str                 # TRIANGULATION or FUSED


def intersect_two_circles(m1: RangeMeasurement,
                          m2: RangeMeasurement) -> list:
    """Intersection points of the two range circles.

    Returns one or two (x, y) tuples ordered by descending y so the
    forward half-plane comes first. Raises when the circles are
    disjoint, nested, or the sensors coincide.
    """
    # plain scalar arithmetic: each step rounds as the same step on
    # 2-vectors does, without the cost of building them
    x1, y1 = m1.sensor.x, m1.sensor.y
    dx, dy = m2.sensor.x - x1, m2.sensor.y - y1
    d = float(np.linalg.norm(np.array([dx, dy])))
    scale = max(m1.range_m, m2.range_m, d)
    if d < _REL_TOL * scale or d == 0.0:
        raise CoincidentSensorsError("sensors coincide")
    r1, r2 = m1.range_m, m2.range_m
    if d > r1 + r2 + _REL_TOL * scale:
        raise NoIntersectionError(
            f"circles disjoint: sensor separation {d:.6g} exceeds r1+r2 {r1 + r2:.6g}")
    if d < abs(r1 - r2) - _REL_TOL * scale:
        raise NoIntersectionError(
            f"one circle contains the other: separation {d:.6g} below "
            f"|r1-r2| {abs(r1 - r2):.6g}")

    ux, uy = dx / d, dy / d                    # unit baseline
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    h = math.sqrt(max(h_sq, 0.0))
    fx, fy = x1 + a * ux, y1 + a * uy
    if h <= _REL_TOL * scale:
        points = [(fx, fy)]
    else:
        # either side of the foot along the baseline normal (-uy, ux)
        points = [(fx - h * uy, fy + h * ux), (fx + h * uy, fy - h * ux)]
    points.sort(key=lambda p: (-p[1], p[0]))
    return [(float(x), float(y)) for x, y in points]


def dilution_ellipse(m1: RangeMeasurement, m2: RangeMeasurement,
                     point) -> ErrorEllipse:
    """Linearized position uncertainty at ``point``.

    Rows of the measurement Jacobian are the unit lines of sight from
    each sensor; the position covariance is sigma_r^2 (J^T J)^-1 with
    sigma_r the mean of the two range deviations. Raises when the lines
    of sight are parallel (point on the sensor baseline).
    """
    p = np.asarray(point, dtype=float)
    rows = []
    for m in (m1, m2):
        los = p - np.array([m.sensor.x, m.sensor.y])
        norm = float(np.linalg.norm(los))
        if norm == 0.0:
            raise InputError("point coincides with a sensor")
        rows.append(los / norm)
    jac = np.array(rows)
    cross = abs(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    if cross < 1e-12:
        raise SingularGeometryError("lines of sight are parallel")
    sigma_r = 0.5 * (m1.sigma_r + m2.sigma_r)
    cov = sigma_r ** 2 * np.linalg.inv(jac.T @ jac)
    eigvals, eigvecs = np.linalg.eigh(cov)
    major = math.sqrt(max(eigvals[1], 0.0))
    minor = math.sqrt(max(eigvals[0], 0.0))
    axis = eigvecs[:, 1]
    return ErrorEllipse(semi_major=major, semi_minor=minor,
                        orientation_deg=math.degrees(math.atan2(axis[1], axis[0])))


def triangulate(m1: RangeMeasurement, m2: RangeMeasurement) -> PositionFix:
    """The forward circle intersection with its dilution ellipse; raises
    as ``intersect_two_circles`` and ``dilution_ellipse`` do."""
    point = intersect_two_circles(m1, m2)[0]
    return PositionFix(x=point[0], y=point[1],
                       ellipse=dilution_ellipse(m1, m2, point),
                       source=TRIANGULATION)


def _ray_fix(mid, doa_deg, mean_range):
    theta = math.radians(doa_deg)
    return (mid[0] + mean_range * math.sin(theta),
            mid[1] + mean_range * math.cos(theta))


def fuse_doa_with_ranges(doa: DoaEstimate, m1: RangeMeasurement,
                         m2: RangeMeasurement,
                         sigma_theta_deg: float = 1.0) -> PositionFix:
    """Combine a DoA estimate with the two measured radial distances.

    A ray is cast from the midpoint of the sensors at the estimated
    angle (measured from the array normal, +y); the fix sits at the
    mean range along it. Transverse uncertainty becomes
    mean_range * tan(sigma_theta); radial uncertainty is the mean
    sigma_r over sqrt(2). Multi-member ambiguity sets pick the member
    nearest the two-circle intersection when one exists, otherwise the
    smallest absolute angle. A fallback DoA degrades to ``triangulate``,
    or raises ``UnusableFallbackError`` if the circles do not
    intersect. A DoA or ambiguity member outside [-90, 90] degrees, or
    a ``sigma_theta_deg`` outside [0, 90), raises ``InputError``.
    """
    for angle in doa.ambiguity_deg:            # holds doa.angle_deg
        if not -90.0 <= angle <= 90.0:
            raise InputError(f"doa_deg must lie in [-90, 90], got {angle}")
    if not 0.0 <= sigma_theta_deg < 90.0:
        raise InputError(
            f"sigma_theta_deg must lie in [0, 90), got {sigma_theta_deg}")

    if doa.status == FALLBACK:
        try:
            return triangulate(m1, m2)
        except (NoIntersectionError, CoincidentSensorsError):
            raise UnusableFallbackError(
                "fallback DoA and no circle intersection to fall back on")

    mid = (_mean(m1.sensor.x, m2.sensor.x), _mean(m1.sensor.y, m2.sensor.y))
    mean_range = _mean(m1.range_m, m2.range_m)

    angle = doa.angle_deg
    if len(doa.ambiguity_deg) > 1:
        try:
            intersection = intersect_two_circles(m1, m2)[0]
        except (NoIntersectionError, CoincidentSensorsError):
            angle = min(doa.ambiguity_deg, key=lambda a: (abs(a), a))
        else:
            angle = min(doa.ambiguity_deg,
                        key=lambda a: _dist(_ray_fix(mid, a, mean_range),
                                            intersection))

    x, y = _ray_fix(mid, angle, mean_range)
    transverse = mean_range * math.tan(math.radians(sigma_theta_deg))
    sigma_r = _mean(m1.sigma_r, m2.sigma_r)
    radial = sigma_r / math.sqrt(2)

    # radial axis points along the ray; transverse is perpendicular
    ray_bearing = 90.0 - angle
    if transverse >= radial:
        ellipse = ErrorEllipse(semi_major=transverse, semi_minor=radial,
                               orientation_deg=ray_bearing + 90.0)
    else:
        ellipse = ErrorEllipse(semi_major=radial, semi_minor=transverse,
                               orientation_deg=ray_bearing)
    return PositionFix(x=x, y=y, ellipse=ellipse, source=FUSED)


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _mean(a, b):
    """``float(np.mean([a, b]))`` for two float64 values or integers,
    without building an array; like NumPy's, the sum starts from +0.0,
    so two -0.0 give +0.0."""
    return (0.0 + float(a) + float(b)) / 2.0
