import math

import numpy as np
import pytest

from echodoa.doa_music import CONVERGED, FALLBACK, DoaEstimate
from echodoa.errors import (
    CoincidentSensorsError,
    InputError,
    NoIntersectionError,
    SingularGeometryError,
    UnusableFallbackError,
)
from echodoa.triangulation import (
    FUSED,
    TRIANGULATION,
    ErrorEllipse,
    PositionFix,
    RangeMeasurement,
    SensorPose,
    dilution_ellipse,
    fuse_doa_with_ranges,
    intersect_two_circles,
    triangulate,
)


def meas(x, y, r, sigma=0.01):
    return RangeMeasurement(sensor=SensorPose(x, y), range_m=r, sigma_r=sigma)


class TestRangeMeasurement:
    @pytest.mark.parametrize("r, sigma", [
        (0.0, 0.01), (math.nan, 0.01), (math.inf, 0.01), (2e153, 0.01),
        (1.0, -0.01), (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_bad_range_or_sigma(self, r, sigma):
        with pytest.raises(InputError):
            meas(0.0, 0.0, r, sigma)


class TestSensorPose:
    @pytest.mark.parametrize("x, y", [
        (math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf), (0.0, math.nan)])
    def test_rejects_non_finite_position(self, x, y):
        with pytest.raises(InputError, match="sensor position must be finite"):
            SensorPose(x, y)

    @pytest.mark.parametrize("x, y", [(2e153, 0.0), (0.0, -1e200)])
    def test_rejects_coordinate_past_the_bound(self, x, y):
        with pytest.raises(InputError, match="sensor position "):
            SensorPose(x, y)


class TestLargestAcceptedValues:
    # ranges and coordinates of 1e153 keep every square in the fix finite
    @pytest.mark.parametrize("s1, s2", [((1e153, -1e153), (1e153, 0.0)),
                                        ((-1e153, -1e153), (-1e153 + 1e145,
                                                            -1e153))])
    def test_give_a_finite_fix(self, s1, s2):
        m1, m2 = meas(*s1, 1e153), meas(*s2, 1e153)
        ahead = DoaEstimate(90.0, CONVERGED, (90.0,))
        for fix in (triangulate(m1, m2), fuse_doa_with_ranges(ahead, m1, m2)):
            ell = fix.ellipse
            assert all(map(math.isfinite, (fix.x, fix.y, ell.semi_major,
                                           ell.semi_minor,
                                           ell.orientation_deg)))


class TestIntersectTwoCircles:
    def test_symmetric_forward_point(self):
        r = math.hypot(0.25, 2.0)
        points = intersect_two_circles(meas(-0.25, 0, r), meas(0.25, 0, r))
        assert points[0] == pytest.approx((0.0, 2.0), abs=1e-9)
        assert points[1][1] < 0   # mirror solution second

    def test_worked_asymmetric_example(self):
        # x = (r1^2 - r2^2 + d^2) / (2 d), y = sqrt(r1^2 - x^2)
        points = intersect_two_circles(meas(0, 0, 1.0), meas(0.5, 0, 1.2))
        assert points[0] == pytest.approx((-0.19, 0.981784), abs=1e-6)

    def test_residuals_vanish(self):
        points = intersect_two_circles(meas(0, 0, 1.0), meas(0.5, 0, 1.2))
        for x, y in points:
            assert math.hypot(x, y) == pytest.approx(1.0, rel=1e-9)
            assert math.hypot(x - 0.5, y) == pytest.approx(1.2, rel=1e-9)

    def test_disjoint_circles_raise(self):
        with pytest.raises(NoIntersectionError):
            intersect_two_circles(meas(-0.25, 0, 0.2), meas(0.25, 0, 0.2))

    def test_nested_circles_raise(self):
        with pytest.raises(NoIntersectionError):
            intersect_two_circles(meas(0, 0, 5.0), meas(0.1, 0, 0.5))

    def test_coincident_sensors_raise(self):
        with pytest.raises(CoincidentSensorsError):
            intersect_two_circles(meas(0, 0, 1.0), meas(0, 0, 1.2))

    def test_tangent_circles_single_point(self):
        points = intersect_two_circles(meas(0, 0, 1.0), meas(3.0, 0, 2.0))
        assert len(points) == 1
        assert points[0] == pytest.approx((1.0, 0.0), abs=1e-9)

    def test_random_geometries_residual_property(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 2000:
            s1 = rng.uniform(-1, 1, 2)
            s2 = rng.uniform(-1, 1, 2)
            target = rng.uniform(-4, 4, 2)
            r1 = float(np.linalg.norm(target - s1))
            r2 = float(np.linalg.norm(target - s2))
            if np.linalg.norm(s2 - s1) < 1e-3 or min(r1, r2) < 1e-3:
                continue
            points = intersect_two_circles(meas(*s1, r1), meas(*s2, r2))
            for x, y in points:
                assert math.hypot(x - s1[0], y - s1[1]) == pytest.approx(
                    r1, rel=1e-9, abs=1e-12)
                assert math.hypot(x - s2[0], y - s2[1]) == pytest.approx(
                    r2, rel=1e-9, abs=1e-12)
            checked += 1


class TestDilutionEllipse:
    def test_symmetric_closed_form(self):
        # sensors (+-a, 0), point (0, y): sigma_x = r s / (a sqrt 2),
        # sigma_y = r s / (y sqrt 2)
        a, y, s = 0.25, 2.0, 0.01
        r = math.hypot(a, y)
        ell = dilution_ellipse(meas(-a, 0, r, s), meas(a, 0, r, s), (0, y))
        assert ell.semi_major == pytest.approx(r * s / (a * math.sqrt(2)),
                                               rel=1e-9)
        assert ell.semi_minor == pytest.approx(r * s / (y * math.sqrt(2)),
                                               rel=1e-9)
        # major axis transverse (along x)
        assert math.cos(math.radians(ell.orientation_deg)) == pytest.approx(
            1.0, abs=1e-9)

    def test_dilution_grows_with_range(self):
        a, s = 0.25, 0.01
        ell4 = dilution_ellipse(meas(-a, 0, math.hypot(a, 4.0), s),
                                meas(a, 0, math.hypot(a, 4.0), s), (0, 4.0))
        assert ell4.semi_major == pytest.approx(0.1133578, abs=1e-6)

    def test_monotone_in_y(self):
        a, s = 0.25, 0.01
        majors = []
        for y in np.linspace(0.5, 7.0, 28):
            r = math.hypot(a, y)
            ell = dilution_ellipse(meas(-a, 0, r, s), meas(a, 0, r, s),
                                   (0, y))
            majors.append(ell.semi_major)
        assert all(b > a_ for a_, b in zip(majors, majors[1:]))

    def test_point_on_baseline_is_singular(self):
        with pytest.raises(SingularGeometryError):
            dilution_ellipse(meas(-0.25, 0, 1.25), meas(0.25, 0, 0.75),
                             (1.0, 0.0))

    def test_point_on_sensor_rejected(self):
        with pytest.raises(InputError):
            dilution_ellipse(meas(-0.25, 0, 1.0), meas(0.25, 0, 1.0),
                             (0.25, 0.0))

    @pytest.mark.parametrize("r, sigma", [
        (1.0, 1e200),               # sigma_r ** 2 overflows
        (0.25000000001, 1e153)])    # 2e-6 m off the baseline
    def test_sigma_r_too_large_for_a_finite_ellipse(self, r, sigma):
        with pytest.raises(InputError, match="^sigma_r "):
            triangulate(meas(-0.25, 0, r, sigma), meas(0.25, 0, r, sigma))

    @pytest.mark.parametrize("r, sigma", [(math.hypot(0.25, 0.25), 0.99e153),
                                          (0.25000000001, 1.7e148)])
    def test_largest_accepted_sigma_r_gives_finite_axes(self, r, sigma):
        ell = triangulate(meas(-0.25, 0, r, sigma),
                          meas(0.25, 0, r, sigma)).ellipse
        assert all(map(math.isfinite, (ell.semi_major, ell.semi_minor,
                                       ell.orientation_deg)))
        assert ell.semi_major > 1e152


class TestTriangulate:
    def test_forward_intersection_with_its_dilution_ellipse(self):
        r = math.hypot(0.25, 2.0)
        m1, m2 = meas(-0.25, 0, r), meas(0.25, 0, r)
        fix = triangulate(m1, m2)
        assert fix.source == TRIANGULATION
        assert (fix.x, fix.y) == intersect_two_circles(m1, m2)[0]
        assert fix.ellipse == dilution_ellipse(m1, m2, (fix.x, fix.y))
        assert fuse_doa_with_ranges(DoaEstimate.fallback(), m1, m2) == fix

    def test_raises_as_the_intersection_does(self):
        with pytest.raises(NoIntersectionError):
            triangulate(meas(-0.25, 0, 0.1), meas(0.25, 0, 0.1))
        with pytest.raises(CoincidentSensorsError):
            triangulate(meas(0.0, 0, 1.0), meas(0.0, 0, 1.0))


class TestFuseDoaWithRanges:
    def test_broadside_ray(self):
        est = DoaEstimate(0.0, CONVERGED, (0.0,))
        fix = fuse_doa_with_ranges(est, meas(-0.25, 0, 2.0),
                                   meas(0.25, 0, 2.0))
        assert (fix.x, fix.y) == pytest.approx((0.0, 2.0), abs=1e-12)
        assert fix.source == FUSED

    def test_thirty_degree_ray(self):
        est = DoaEstimate(30.0, CONVERGED, (30.0,))
        fix = fuse_doa_with_ranges(est, meas(-0.25, 0, 2.0),
                                   meas(0.25, 0, 2.0))
        assert (fix.x, fix.y) == pytest.approx((1.0, math.sqrt(3.0)),
                                               abs=1e-9)

    def test_ambiguity_resolved_by_intersection(self):
        triplet = (-56.443, -9.594, 30.0)
        est = DoaEstimate(-56.443, CONVERGED, triplet)
        target = (1.0, math.sqrt(3.0))
        r1 = math.hypot(target[0] + 0.25, target[1])
        r2 = math.hypot(target[0] - 0.25, target[1])
        fix = fuse_doa_with_ranges(est, meas(-0.25, 0, r1),
                                   meas(0.25, 0, r2))
        # the 30-degree member lies closest to the triangulated point
        assert math.degrees(math.atan2(fix.x, fix.y)) == pytest.approx(
            30.0, abs=1e-6)

    def test_ambiguity_without_ranges_picks_smallest_angle(self):
        est = DoaEstimate(-41.81, CONVERGED, (-41.81, 0.0, 41.81))
        # disjoint circles: no intersection to resolve the set with
        fix = fuse_doa_with_ranges(est, meas(-0.25, 0, 0.1),
                                   meas(0.25, 0, 0.1))
        assert fix.x == pytest.approx(0.0, abs=1e-12)

    def test_fallback_degrades_to_triangulation(self):
        est = DoaEstimate(0.0, FALLBACK, (0.0,))
        r = math.hypot(0.25, 2.0)
        fix = fuse_doa_with_ranges(est, meas(-0.25, 0, r), meas(0.25, 0, r))
        assert fix.source == TRIANGULATION
        assert (fix.x, fix.y) == pytest.approx((0.0, 2.0), abs=1e-9)

    def test_fallback_without_intersection_raises(self):
        est = DoaEstimate(0.0, FALLBACK, (0.0,))
        with pytest.raises(UnusableFallbackError):
            fuse_doa_with_ranges(est, meas(-0.25, 0, 0.1), meas(0.25, 0, 0.1))

    def test_fused_transverse_tighter_than_dilution(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            y = rng.uniform(1.0, 6.0)
            a, s = 0.25, 0.01
            r = math.hypot(a, y)
            m1, m2 = meas(-a, 0, r, s), meas(a, 0, r, s)
            ell = dilution_ellipse(m1, m2, (0, y))
            sigma_theta = 0.5
            fix = fuse_doa_with_ranges(
                DoaEstimate(0.0, CONVERGED, (0.0,)), m1, m2,
                sigma_theta_deg=sigma_theta)
            transverse = r * math.tan(math.radians(sigma_theta))
            if transverse < ell.semi_major:
                assert max(fix.ellipse.semi_major,
                           fix.ellipse.semi_minor) <= ell.semi_major

    def test_mirror_symmetry(self):
        est = DoaEstimate(25.0, CONVERGED, (25.0,))
        fix = fuse_doa_with_ranges(est, meas(-0.2, 0, 1.8),
                                   meas(0.3, 0, 2.1))
        mirrored = DoaEstimate(-25.0, CONVERGED, (-25.0,))
        fix_m = fuse_doa_with_ranges(mirrored, meas(0.2, 0, 1.8),
                                     meas(-0.3, 0, 2.1))
        assert fix_m.x == pytest.approx(-fix.x, abs=1e-12)
        assert fix_m.y == pytest.approx(fix.y, abs=1e-12)

    @pytest.mark.parametrize("angle, ambiguity", [
        (math.nan, None), (100.0, None), (-90.5, None),
        (30.0, (-100.0, 30.0)), (30.0, (30.0, math.nan))])
    def test_rejects_doa_outside_the_half_plane(self, angle, ambiguity):
        # a NaN angle is refused as the estimate is built
        with pytest.raises(InputError, match="doa_deg"):
            est = DoaEstimate(angle, CONVERGED, ambiguity or (angle,))
            fuse_doa_with_ranges(est, meas(-0.25, 0, 2.0), meas(0.25, 0, 2.0))

    @pytest.mark.parametrize("sigma_theta", [math.nan, -1.0, 90.0, math.inf])
    def test_rejects_sigma_theta_outside_0_to_90(self, sigma_theta):
        est = DoaEstimate(0.0, CONVERGED, (0.0,))
        with pytest.raises(InputError, match="sigma_theta_deg"):
            fuse_doa_with_ranges(est, meas(-0.25, 0, 2.0), meas(0.25, 0, 2.0),
                                 sigma_theta_deg=sigma_theta)

    def test_rejects_sigma_r_whose_mean_overflows(self):
        est = DoaEstimate(0.0, CONVERGED, (0.0,))
        with pytest.raises(InputError, match="^sigma_r "):
            fuse_doa_with_ranges(est, meas(-0.25, 0, 1.0, 1e308),
                                 meas(0.25, 0, 1.0, 1e308))

    @pytest.mark.parametrize("angle", [-90.0, 90.0])
    def test_accepts_the_edges_of_the_half_plane(self, angle):
        est = DoaEstimate(angle, CONVERGED, (angle,))
        fix = fuse_doa_with_ranges(est, meas(-0.25, 0, 2.0),
                                   meas(0.25, 0, 2.0), sigma_theta_deg=0.0)
        assert fix.y == pytest.approx(0.0, abs=1e-12)
        assert fix.ellipse.semi_minor == 0.0


def vector_intersections(m1, m2):
    """Both circle intersections written with numpy 2-vectors, forward first."""
    p1 = np.array([m1.sensor.x, m1.sensor.y])
    p2 = np.array([m2.sensor.x, m2.sensor.y])
    d = float(np.linalg.norm(p2 - p1))
    ex = (p2 - p1) / d
    ey = np.array([-ex[1], ex[0]])
    r1, r2 = m1.range_m, m2.range_m
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    foot = p1 + a * ex
    points = [tuple(map(float, foot + h * ey)),
              tuple(map(float, foot - h * ey))]
    return sorted(points, key=lambda p: (-p[1], p[0]))


def mean_reference_fix(doa, m1, m2, sigma_theta_deg=1.0):
    """``fuse_doa_with_ranges`` written out with ``np.mean`` and the
    vector intersection."""
    if doa.status == FALLBACK:
        x, y = vector_intersections(m1, m2)[0]
        return PositionFix(x, y, dilution_ellipse(m1, m2, (x, y)),
                           TRIANGULATION)
    mid = (float(np.mean([m1.sensor.x, m2.sensor.x])),
           float(np.mean([m1.sensor.y, m2.sensor.y])))
    mean_range = float(np.mean([m1.range_m, m2.range_m]))

    def along(angle):
        theta = math.radians(angle)
        return (mid[0] + mean_range * math.sin(theta),
                mid[1] + mean_range * math.cos(theta))

    angle = doa.angle_deg
    if len(doa.ambiguity_deg) > 1:
        ix, iy = vector_intersections(m1, m2)[0]
        angle = min(doa.ambiguity_deg, key=lambda a: math.hypot(
            along(a)[0] - ix, along(a)[1] - iy))
    x, y = along(angle)
    transverse = mean_range * math.tan(math.radians(sigma_theta_deg))
    radial = float(np.mean([m1.sigma_r, m2.sigma_r])) / math.sqrt(2)
    bearing = 90.0 - angle
    if transverse >= radial:
        ellipse = ErrorEllipse(transverse, radial, bearing + 90.0)
    else:
        ellipse = ErrorEllipse(radial, transverse, bearing)
    return PositionFix(x, y, ellipse, FUSED)


def fix_bits(fix):
    """Every float of a fix as its exact bits, and its source."""
    e = fix.ellipse
    return ([float(v).hex() for v in (fix.x, fix.y, e.semi_major,
                                      e.semi_minor, e.orientation_deg)],
            fix.source)


# sensor pairs with ranges that intersect: float, integer and
# signed-zero coordinates (np.mean of two -0.0 is +0.0)
SENSOR_PAIRS = {
    "float": (meas(-0.2, 0.0, 0.83, 0.003), meas(0.2, 0.0, 0.71, 0.004)),
    "int": (meas(-1, 0, 2, 0), meas(1, 0, 3, 1)),
    "signed_zero": (meas(-0.0, -0.0, 0.8, 0.003), meas(-0.0, 1.0, 0.9, 0.003)),
}
ESTIMATES = {
    "fused": DoaEstimate(30.0, CONVERGED, (30.0,)),
    "fused_broadside": DoaEstimate(-0.0, CONVERGED, (-0.0,)),
    "aliased": DoaEstimate(-41.81, CONVERGED, (-41.81, 0.0, 41.81)),
    "fallback": DoaEstimate.fallback(),
}


class TestSameBitsAsVectorArithmetic:
    @pytest.mark.parametrize("pair", SENSOR_PAIRS)
    @pytest.mark.parametrize("case", ESTIMATES)
    def test_fix_equals_the_np_mean_reference(self, case, pair):
        est, (m1, m2) = ESTIMATES[case], SENSOR_PAIRS[pair]
        assert fix_bits(fuse_doa_with_ranges(est, m1, m2)) == \
            fix_bits(mean_reference_fix(est, m1, m2))

    @pytest.mark.parametrize("pair", SENSOR_PAIRS)
    def test_intersections_equal_the_vector_reference(self, pair):
        m1, m2 = SENSOR_PAIRS[pair]
        got = intersect_two_circles(m1, m2)
        want = vector_intersections(m1, m2)
        assert [tuple(map(float.hex, p)) for p in got] == \
            [tuple(map(float.hex, p)) for p in want]
