import math

import numpy as np
import pytest
from scipy.optimize import brentq

from thzlink.atmosphere import build_layers
from thzlink.constants import EARTH_RADIUS
from thzlink.errors import DegenerateGeometry, GeometryError
from thzlink import geometry as geometry_module
from thzlink.geometry import (
    LinkEndpoints,
    _segment_lengths,
    atmospheric_path_length,
    central_angle_for_elevation,
    elevation_angle,
    layer_path_segments,
    plane_parallel_segments,
    slant_range,
)

R = EARTH_RADIUS


@pytest.fixture(scope="module")
def thin_stack():
    # 0-5 km in 500 m steps; geometry tests don't need the full atmosphere
    return build_layers(0.0, 5_000.0, 500.0)


class TestSlantRange:
    def test_collinear_zenith(self):
        assert slant_range(LinkEndpoints(11e3, 500e3, 0.0)) == pytest.approx(
            489e3)

    def test_coincident(self):
        assert slant_range(LinkEndpoints(0.0, 0.0, 0.0)) == 0.0

    def test_chord_identity_oracle(self):
        # equal-altitude endpoints: law of cosines must equal 2 R sin(rho/2)
        rho = 0.01
        expected = 2.0 * R * math.sin(rho / 2.0)
        assert slant_range(LinkEndpoints(0.0, 0.0, rho)) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(63.71e3, rel=1e-3)

    def test_invariants_enforced(self):
        with pytest.raises(GeometryError):
            LinkEndpoints(10.0, 5.0, 0.0)
        with pytest.raises(GeometryError):
            LinkEndpoints(0.0, 10.0, math.pi / 2)


def vector_elevation(h_low, h_high, rho):
    """Independent 2-D construction: elevation from the dot product of the
    local vertical and the line of sight."""
    a = np.array([0.0, R + h_low])
    s = np.array([(R + h_high) * math.sin(rho), (R + h_high) * math.cos(rho)])
    los = s - a
    vertical = a / np.linalg.norm(a)
    return math.asin(float(np.dot(los, vertical) / np.linalg.norm(los)))


class TestElevationAngle:
    def test_zenith(self):
        assert elevation_angle(LinkEndpoints(11e3, 500e3, 0.0)) == math.pi / 2

    def test_distant_terminal_limit(self):
        # as the high terminal recedes, elevation approaches pi/2 - rho
        rho = 0.1
        psi = elevation_angle(LinkEndpoints(0.0, 1e12, rho))
        assert psi == pytest.approx(math.pi / 2 - rho, abs=1e-5)

    def test_vector_oracle(self):
        ep = LinkEndpoints(11e3, 500e3, 0.05)
        assert elevation_angle(ep) == pytest.approx(
            vector_elevation(11e3, 500e3, 0.05), abs=1e-9)

    @pytest.mark.parametrize("h_low,h_high,rho", [
        (0.0, 500e3, 0.2), (5e3, 36e6, 0.3), (11e3, 500e3, 0.01),
        (0.0, 11e3, 0.002),
    ])
    def test_vector_oracle_sweep(self, h_low, h_high, rho):
        ep = LinkEndpoints(h_low, h_high, rho)
        assert elevation_angle(ep) == pytest.approx(
            vector_elevation(h_low, h_high, rho), abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometry):
            elevation_angle(LinkEndpoints(0.0, 0.0, 0.0))


def ray_sphere_oracle(h_start, psi, top):
    """Root-find |start + t * direction| = R + top in 2-D."""
    start = np.array([0.0, R + h_start])
    direction = np.array([math.cos(psi), math.sin(psi)])

    def miss(t):
        point = start + t * direction
        return float(np.linalg.norm(point)) - (R + top)

    return brentq(miss, 0.0, 4.0 * (R + top), xtol=1e-6)


class TestAtmosphericPathLength:
    def test_zenith_collapses_to_thickness(self):
        assert atmospheric_path_length(0.0, math.pi / 2, 500e3) == \
            pytest.approx(500e3, rel=1e-12)
        assert atmospheric_path_length(11e3, math.pi / 2, 500e3) == \
            pytest.approx(489e3, rel=1e-12)

    def test_ray_sphere_oracle(self):
        got = atmospheric_path_length(11e3, math.radians(45.0), 500e3)
        want = ray_sphere_oracle(11e3, math.radians(45.0), 500e3)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("h,psi_deg,top", [
        (0.0, 5.0, 500e3), (0.0, 38.2, 500e3), (11e3, 70.0, 500e3),
        (80e3, 10.0, 100e3),
    ])
    def test_ray_sphere_oracle_sweep(self, h, psi_deg, top):
        psi = math.radians(psi_deg)
        assert atmospheric_path_length(h, psi, top) == pytest.approx(
            ray_sphere_oracle(h, psi, top), rel=1e-6)

    def test_monotone_decreasing_in_elevation(self):
        lengths = [atmospheric_path_length(0.0, math.radians(d), 500e3)
                   for d in range(1, 91)]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))

    def test_preconditions(self):
        with pytest.raises(GeometryError):
            atmospheric_path_length(500e3, math.pi / 2, 500e3)
        with pytest.raises(GeometryError):
            atmospheric_path_length(0.0, 0.0, 500e3)


class TestLayerPathSegments:
    def test_zenith_segments_equal_thickness(self, thin_stack):
        segments = layer_path_segments(0.0, math.pi / 2, thin_stack)
        assert len(segments) == 10
        for _, length in segments:
            assert length == pytest.approx(500.0, rel=1e-9)

    def test_telescoping_sum(self, thin_stack):
        psi = math.radians(23.0)
        segments = layer_path_segments(0.0, psi, thin_stack)
        total = atmospheric_path_length(0.0, psi, 5_000.0)
        assert sum(s for _, s in segments) == pytest.approx(total, rel=1e-9)

    def test_partial_first_layer(self, thin_stack):
        segments = layer_path_segments(250.0, math.pi / 2, thin_stack)
        assert segments[0][0] == 0
        assert segments[0][1] == pytest.approx(250.0, rel=1e-9)
        assert len(segments) == 10

    @pytest.mark.parametrize("psi_deg", [0.5, 10.0, 38.2, 89.9, 90.0])
    @pytest.mark.parametrize("h_start", [0.0, 250.0, 1_000.0, 4_999.5])
    def test_each_segment_is_its_shell_path_length(self, thin_stack, psi_deg,
                                                   h_start):
        psi = math.radians(psi_deg)
        expected = tuple(
            (index, atmospheric_path_length(h_start, psi, layer.upper)
             - (atmospheric_path_length(h_start, psi, layer.lower)
                if layer.lower > h_start else 0.0))
            for index, layer in enumerate(thin_stack.layers)
            if layer.upper > h_start)
        segments = layer_path_segments(h_start, psi, thin_stack)
        assert segments == expected
        assert all(type(i) is int and type(s) is float for i, s in segments)

    def test_segments_exceed_thickness_off_zenith(self, thin_stack):
        psi = math.radians(38.2)
        for (index, length) in layer_path_segments(0.0, psi, thin_stack):
            layer = thin_stack[index]
            assert length > layer.upper - layer.lower

    @pytest.mark.parametrize("segments", [layer_path_segments,
                                          plane_parallel_segments])
    @pytest.mark.parametrize("h_start", [5_000.0, 6_000.0])
    def test_start_at_or_above_the_stack_top_rejected(self, thin_stack,
                                                      segments, h_start):
        with pytest.raises(GeometryError, match="above the stack top"):
            segments(h_start, math.pi / 2, thin_stack)

    def test_curved_below_plane_parallel_pointwise(self, thin_stack):
        # flat layers overestimate every traversal length off zenith,
        # and the gap widens with altitude
        psi = math.radians(38.2)
        curved = dict(layer_path_segments(0.0, psi, thin_stack))
        flat = dict(plane_parallel_segments(0.0, psi, thin_stack))
        gaps = [flat[i] - curved[i] for i in sorted(curved)]
        assert all(g > 0.0 for g in gaps)
        assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))


class TestSegmentLengths:
    """Any shell, not only one reaching above the start: a shell the ray
    does not cross has length 0.0, one it crosses the difference of the
    ray's lengths to its ends, its base taken at the start when below it."""

    H_START = 1_000.0
    SHELLS = [
        (0.0, 500.0),        # below the start
        (0.0, 1_000.0),      # below, touching the start with its top
        (500.0, 2_000.0),    # straddling the start
        (1_000.0, 2_000.0),  # starting at the start
        (2_000.0, 3_000.0),  # above the start
        (2_000.0, 2_000.0),  # empty
        (3_000.0, 2_000.0),  # upside down
    ]

    def expected(self, psi, lower, upper):
        h = self.H_START
        if upper <= max(lower, h):
            return 0.0
        to_lower = (atmospheric_path_length(h, psi, lower) if lower > h
                    else 0.0)
        return atmospheric_path_length(h, psi, upper) - to_lower

    @pytest.mark.parametrize("psi_deg", [0.5, 30.0, 90.0])
    def test_every_shell_is_zero_or_its_exact_difference(self, psi_deg,
                                                         monkeypatch):
        psi = math.radians(psi_deg)
        tops = []
        ray = geometry_module._ray_lengths

        def spy(h_start, psi, top):
            tops.append(np.min(top))
            return ray(h_start, psi, top)

        monkeypatch.setattr(geometry_module, "_ray_lengths", spy)
        lower, upper = np.array(self.SHELLS).T
        lengths = _segment_lengths(self.H_START, psi, lower, upper)
        assert lengths.tolist() == [self.expected(psi, *shell)
                                    for shell in self.SHELLS]
        # the ray is never evaluated below its start, where it has no
        # length and, near the horizon, no real solution
        assert min(tops) >= self.H_START


class TestPlaneParallel:
    def test_zenith_equals_thickness(self, thin_stack):
        for index, length in plane_parallel_segments(0.0, math.pi / 2,
                                                     thin_stack):
            layer = thin_stack[index]
            assert length == layer.upper - layer.lower

    def test_thirty_degrees_doubles(self, thin_stack):
        for _, length in plane_parallel_segments(0.0, math.radians(30.0),
                                                 thin_stack):
            assert length == pytest.approx(1_000.0)

    def test_start_inside_the_stack_skips_the_layers_below(self, thin_stack):
        # 1,750 m is 250 m into the fourth layer: the three below are not
        # on the path, and the fourth counts from the start up
        segments = plane_parallel_segments(1_750.0, math.pi / 2, thin_stack)
        assert [i for i, _ in segments] == list(range(3, len(thin_stack)))
        assert segments[0][1] == 250.0
        assert all(length == 500.0 for _, length in segments[1:])

    def test_low_elevation_overestimates_total(self):
        stack = build_layers(0.0, 500e3, 5_000.0)
        psi = math.radians(5.0)
        flat_total = sum(s for _, s in plane_parallel_segments(0.0, psi, stack))
        curved_total = atmospheric_path_length(0.0, psi, 500e3)
        assert flat_total > curved_total

    def test_zero_elevation_rejected(self, thin_stack):
        for psi in (0.0, -0.1):
            with pytest.raises(GeometryError,
                               match=r"must be in \(0, pi/2\], got"):
                plane_parallel_segments(0.0, psi, thin_stack)

    def test_elevation_past_zenith_rejected(self, thin_stack):
        with pytest.raises(GeometryError, match=r"must be in \(0, pi/2\]"):
            plane_parallel_segments(0.0, math.pi / 2 + 0.1, thin_stack)


class TestHelpers:
    def test_central_angle_for_elevation_round_trip(self):
        for psi_deg in (5.0, 38.2, 60.0, 89.0):
            psi = math.radians(psi_deg)
            rho = central_angle_for_elevation(11e3, 500e3, psi)
            back = elevation_angle(LinkEndpoints(11e3, 500e3, rho))
            assert back == pytest.approx(psi, abs=1e-9)

    @pytest.mark.parametrize("psi", [0.0, -0.1, math.pi / 2 + 0.1])
    def test_central_angle_for_elevation_out_of_range(self, psi):
        with pytest.raises(GeometryError, match=r"must be in \(0, pi/2\]"):
            central_angle_for_elevation(11e3, 500e3, psi)

    def test_central_angle_for_equal_altitudes(self):
        with pytest.raises(DegenerateGeometry, match="equal endpoint"):
            central_angle_for_elevation(11e3, 11e3, math.radians(30.0))
