"""Arithmetic of the Heisenberg group in global coordinates.

Points are written h = (x, y, t) with x, y in R^n and t in R. The product
twists the central coordinate by x . y', the inverse untwists it, and the
parabolic dilations scale the horizontal part linearly and the center
quadratically. The homogeneous norm used throughout is

    |h| = sum_i (|x_i| + |y_i|) + |t|^{1/2},

homogeneous of degree 1 under the dilations and quasi-subadditive. (It is
not exactly inversion-symmetric in these coordinates: the inverse shears
the central slot by x.y.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_vector(a, n: int | None = None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(a, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"horizontal coordinate must be a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite coordinate")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected length {n}, got {v.shape[0]}")
    return v


@dataclass(frozen=True)
class GroupPoint:
    """A point (x, y, t) of H^n with value semantics."""

    x: np.ndarray
    y: np.ndarray
    t: float

    def __post_init__(self):
        x = _as_vector(self.x)
        y = _as_vector(self.y, n=x.shape[0])
        t = float(self.t)
        if not np.isfinite(t):
            raise ValueError("non-finite central coordinate")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupPoint):
            return NotImplemented
        return (
            self.n == other.n
            and bool(np.all(self.x == other.x))
            and bool(np.all(self.y == other.y))
            and self.t == other.t
        )

    def isclose(self, other: "GroupPoint", tol: float = 1e-12) -> bool:
        return (
            self.n == other.n
            and bool(np.all(np.abs(self.x - other.x) <= tol))
            and bool(np.all(np.abs(self.y - other.y) <= tol))
            and abs(self.t - other.t) <= tol
        )


def identity(n: int) -> GroupPoint:
    """The group identity of H^n."""
    return GroupPoint(np.zeros(n), np.zeros(n), 0.0)


def group_mul(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    """Group product (x,y,t)(x',y',t') = (x+x', y+y', t+t'+x.y')."""
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    return GroupPoint(a.x + b.x, a.y + b.y, a.t + b.t + float(a.x @ b.y))


def group_inv(a: GroupPoint) -> GroupPoint:
    """Group inverse (-x, -y, -t + x.y)."""
    return GroupPoint(-a.x, -a.y, -a.t + float(a.x @ a.y))


def dilate(j: float, a: GroupPoint) -> GroupPoint:
    """Parabolic dilation delta_j(x, y, t) = (j x, j y, j^2 t), j > 0."""
    j = float(j)
    if j <= 0:
        raise ValueError(f"dilation parameter must be positive, got {j}")
    return GroupPoint(j * a.x, j * a.y, j * j * a.t)


def homogeneous_norm(a: GroupPoint) -> float:
    """l1 norm of the horizontal part plus sqrt of the central part."""
    return float(np.sum(np.abs(a.x)) + np.sum(np.abs(a.y)) + np.sqrt(np.abs(a.t)))
