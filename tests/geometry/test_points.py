"""Tests for repro.geometry.points."""

import math

import pytest

from repro.geometry.points import (
    Point,
    centroid,
    direction,
    distance,
    midpoint,
    rotate_about,
    squared_distance,
    translate_polar,
)


class TestPointArithmetic:
    def test_addition_and_subtraction(self):
        a = Point(1.0, 2.0)
        b = Point(3.0, -1.0)
        assert a + b == Point(4.0, 1.0)
        assert b - a == Point(2.0, -3.0)

    def test_scalar_multiplication_both_sides(self):
        p = Point(1.5, -2.0)
        assert p * 2 == Point(3.0, -4.0)
        assert 2 * p == Point(3.0, -4.0)

    def test_division(self):
        assert Point(4.0, 2.0) / 2.0 == Point(2.0, 1.0)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Point(1.0, 1.0) / 0.0

    def test_negation(self):
        assert -Point(1.0, -2.0) == Point(-1.0, 2.0)

    def test_iteration_and_tuple(self):
        p = Point(3.0, 4.0)
        assert tuple(p) == (3.0, 4.0)
        assert p.as_tuple() == (3.0, 4.0)

    def test_points_are_hashable_and_value_equal(self):
        assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert Point(1.0, 2.0) != Point(2.0, 1.0)

    def test_dot_and_cross(self):
        a = Point(1.0, 0.0)
        b = Point(0.0, 1.0)
        assert a.dot(b) == 0.0
        assert a.cross(b) == 1.0
        assert b.cross(a) == -1.0

    def test_norm(self):
        assert Point(3.0, 4.0).norm() == pytest.approx(5.0)


class TestMetricHelpers:
    def test_distance_is_euclidean(self):
        assert distance(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)

    def test_squared_distance_avoids_sqrt(self):
        assert squared_distance(Point(0, 0), Point(3, 4)) == pytest.approx(25.0)

    def test_midpoint(self):
        assert midpoint(Point(0, 0), Point(2, 4)) == Point(1.0, 2.0)

    def test_direction_cardinal_points(self):
        origin = Point(0, 0)
        assert direction(origin, Point(1, 0)) == pytest.approx(0.0)
        assert direction(origin, Point(0, 1)) == pytest.approx(math.pi / 2)
        assert direction(origin, Point(-1, 0)) == pytest.approx(math.pi)
        assert direction(origin, Point(0, -1)) == pytest.approx(3 * math.pi / 2)

    def test_direction_of_coincident_points_raises(self):
        with pytest.raises(ValueError):
            direction(Point(1, 1), Point(1, 1))

    def test_direction_is_normalized(self):
        angle = direction(Point(0, 0), Point(-1, -1e-9))
        assert 0.0 <= angle < 2 * math.pi

    @pytest.mark.parametrize("dy", [-1e-300, -5e-324, -1e-17])
    def test_tiny_negative_angle_maps_to_zero_not_two_pi(self, dy):
        # atan2 returns a tiny negative angle, which ``% 2*pi`` rounds up to
        # exactly 2*pi; the half-open range requires 0.0 instead.
        assert math.atan2(dy, 1.0) % (2 * math.pi) == 2 * math.pi
        assert Point(0, 0).angle_to(Point(1, dy)) == 0.0
        assert direction(Point(0, 0), Point(1, dy)) == 0.0

    def test_centroid(self):
        points = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        assert centroid(points) == Point(1.0, 1.0)

    def test_centroid_of_empty_collection_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_is_close(self):
        assert Point(0, 0).is_close(Point(0, 1e-12))
        assert not Point(0, 0).is_close(Point(0, 1e-3))


class TestTransforms:
    def test_rotate_about_origin_quarter_turn(self):
        rotated = rotate_about(Point(1, 0), Point(0, 0), math.pi / 2)
        assert rotated.x == pytest.approx(0.0, abs=1e-12)
        assert rotated.y == pytest.approx(1.0)

    def test_rotate_about_arbitrary_center_preserves_distance(self):
        center = Point(2.0, 3.0)
        point = Point(5.0, 7.0)
        rotated = rotate_about(point, center, 1.234)
        assert distance(center, rotated) == pytest.approx(distance(center, point))

    def test_translate_polar_roundtrip(self):
        origin = Point(1.0, 1.0)
        target = translate_polar(origin, math.pi / 3, 2.0)
        assert distance(origin, target) == pytest.approx(2.0)
        assert direction(origin, target) == pytest.approx(math.pi / 3)
