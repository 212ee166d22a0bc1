"""Planar points and metric helpers.

All coordinates are plain Python floats.  ``Point`` is an immutable value
object; the simulator and the CBTC implementation treat node positions as
``Point`` instances throughout, so equality and hashing are value based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple


@dataclass(frozen=True)
class Point:
    """An immutable point in the Euclidean plane."""

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def as_tuple(self) -> Tuple[float, float]:
        """Return the point as an ``(x, y)`` tuple."""
        return (self.x, self.y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Point":
        if scalar == 0:
            raise ZeroDivisionError("cannot divide a Point by zero")
        return Point(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def dot(self, other: "Point") -> float:
        """Dot product treating both points as vectors from the origin."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z component of the cross product of the two vectors."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean norm of the point treated as a vector."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def angle_to(self, other: "Point") -> float:
        """Direction from this point towards ``other`` in ``[0, 2*pi)``."""
        angle = math.atan2(other.y - self.y, other.x - self.x) % (2.0 * math.pi)
        # A tiny negative angle rounds up to exactly 2*pi; that direction is 0.
        return 0.0 if angle == 2.0 * math.pi else angle

    def is_close(self, other: "Point", tolerance: float = 1e-9) -> bool:
        """Return ``True`` if the two points coincide up to ``tolerance``."""
        return self.distance_to(other) <= tolerance


ORIGIN = Point(0.0, 0.0)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between ``a`` and ``b``."""
    return a.distance_to(b)


def squared_distance(a: Point, b: Point) -> float:
    """Squared Euclidean distance (avoids the square root)."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def midpoint(a: Point, b: Point) -> Point:
    """Midpoint of the segment ``ab``."""
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def direction(origin: Point, target: Point) -> float:
    """Direction from ``origin`` towards ``target`` in ``[0, 2*pi)``.

    This is the quantity the paper assumes a node can measure about a
    transmitting neighbour (the Angle-of-Arrival).  ``origin`` and ``target``
    must be distinct points.
    """
    if origin == target:
        raise ValueError("direction is undefined for coincident points")
    return origin.angle_to(target)


def centroid(points: Iterable[Point]) -> Point:
    """Centroid of a non-empty collection of points."""
    xs, ys, n = 0.0, 0.0, 0
    for p in points:
        xs += p.x
        ys += p.y
        n += 1
    if n == 0:
        raise ValueError("centroid of an empty collection is undefined")
    return Point(xs / n, ys / n)


def rotate_about(point: Point, center: Point, angle: float) -> Point:
    """Rotate ``point`` by ``angle`` radians counterclockwise about ``center``."""
    cos_a = math.cos(angle)
    sin_a = math.sin(angle)
    dx = point.x - center.x
    dy = point.y - center.y
    return Point(
        center.x + dx * cos_a - dy * sin_a,
        center.y + dx * sin_a + dy * cos_a,
    )


def translate_polar(origin: Point, angle: float, radius: float) -> Point:
    """The point at polar coordinates ``(radius, angle)`` relative to ``origin``.

    Used heavily by the counterexample constructions in the paper's Figures 2
    and 5, which place nodes at prescribed angles and distances.
    """
    return Point(
        origin.x + radius * math.cos(angle),
        origin.y + radius * math.sin(angle),
    )
