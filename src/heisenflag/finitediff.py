"""Central finite-difference stencils on batched point clouds.

Derivative estimates back `Spectrum.derivatives`, where a family is only
available through a callable, and the inverse-fiber lam-derivatives.
Everything here is plain composed one-dimensional stencils; mixed
partials take the tensor product of the per-axis rules.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Callable, Sequence

import numpy as np

# one-sided accuracy would waste the parity bonus; stay symmetric and
# size the stencil so every order comes out 4th-order accurate
_TARGET_ACCURACY = 4

# the step of every difference, relative to the scale of its coordinate
H_REL = 0.02


@lru_cache(maxsize=None)
def stencil(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric stencil for the given derivative order at unit spacing.

    Uses the smallest symmetric stencil that is 4th-order accurate. The
    weights are exactly symmetric for even orders and antisymmetric for
    odd ones, so an odd order weighs the center by 0.0.

    Parameters
    ----------
    order : int
        Derivative order, at least 0.

    Returns
    -------
    offsets : ndarray of int
    weights : ndarray of float
        Divide by spacing**order after applying.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return np.array([0]), np.array([1.0])
    half_width = (order + _TARGET_ACCURACY - 1) // 2
    offsets = np.arange(-half_width, half_width + 1)
    # moment conditions: sum_o c_o o^k / k! = [k == order]
    rows = np.vander(offsets.astype(float), len(offsets), increasing=True).T
    rows /= np.array([factorial(k) for k in range(len(offsets))])[:, None]
    rhs = np.zeros(len(offsets))
    rhs[order] = 1.0
    weights = np.linalg.solve(rows, rhs)
    # the exact weights are (anti)symmetric with the order; the solve's
    # rounding is not, and would leave residue where the weight is zero
    return offsets, (weights + (-1) ** order * weights[::-1]) / 2


def displacement_cloud(alpha: Sequence[int], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Product stencil for the mixed partial d^alpha on R^dim, unit spacing.

    Returns integer displacements (K, dim) and weights (K,), so that
    `values @ weights` estimates the derivative at unit steps.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim:
        raise ValueError(f"alpha length {len(alpha)} != dim {dim}")
    disp = np.zeros((1, dim))
    weights = np.ones(1)
    for axis, a in enumerate(alpha):
        if a == 0:
            continue
        off, w = stencil(a)
        shift = np.zeros((len(off), dim))
        shift[:, axis] = off
        disp = (disp[:, None, :] + shift[None, :, :]).reshape(-1, dim)
        weights = (weights[:, None] * w[None, :]).ravel()
    return disp, weights


def partial_cloud(fun: Callable[[np.ndarray], np.ndarray], points: np.ndarray,
                  alpha: Sequence[int], spacing: np.ndarray | float) -> np.ndarray:
    """Mixed partial d^alpha fun at each row of points, one batched call.

    `fun` maps an (N, dim) array to N values; the full shifted cloud is
    evaluated in a single call so vectorized callables stay fast. The
    spacing is a scalar, one step per axis (dim,) or one per row and axis
    (N, dim); every step must be positive.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    disp, weights = displacement_cloud(alpha, points.shape[1])
    h = np.broadcast_to(np.asarray(spacing, dtype=float), points.shape)
    if not np.all(h > 0):
        raise ValueError("spacing must be positive")
    cloud = points[:, None, :] + disp[None, :, :] * h[:, None, :]
    vals = np.asarray(fun(cloud.reshape(-1, points.shape[1])))
    return vals.reshape(-1, len(weights)) @ weights / np.prod(h ** alpha, axis=1)
