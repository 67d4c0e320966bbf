"""Central finite-difference stencils on batched point clouds.

Derivative estimates back the seminorm scans and the inverse-fiber
derivative identities, where the differentiated object is only available
through a callable. Everything here is plain composed one-dimensional
stencils; mixed partials take the tensor product of the per-axis rules.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Callable, Sequence

import numpy as np

# one-sided accuracy would waste the parity bonus; stay symmetric and
# size the stencil so every order comes out 4th-order accurate
_TARGET_ACCURACY = 4


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


def displacement_cloud(alpha: Sequence[int], spacing: Sequence[float] | float,
                       dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Product stencil for the mixed partial d^alpha on R^dim.

    Returns displacements (K, dim) and weights (K,) already divided by
    the spacing powers, so `values @ weights` estimates the derivative.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim:
        raise ValueError(f"alpha length {len(alpha)} != dim {dim}")
    h = np.broadcast_to(np.asarray(spacing, dtype=float), (dim,))
    if np.any(h <= 0):
        raise ValueError("spacing must be positive")
    disp = np.zeros((1, dim))
    weights = np.ones(1)
    for axis, a in enumerate(alpha):
        if a == 0:
            continue
        off, w = stencil(a)
        shift = np.zeros((len(off), dim))
        shift[:, axis] = off * h[axis]
        disp = (disp[:, None, :] + shift[None, :, :]).reshape(-1, dim)
        weights = (weights[:, None] * (w / h[axis] ** a)[None, :]).ravel()
    return disp, weights


def partial_cloud(fun: Callable[[np.ndarray], np.ndarray], points: np.ndarray,
                  alpha: Sequence[int], spacing: Sequence[float] | float) -> np.ndarray:
    """Mixed partial d^alpha fun at each row of points, one batched call.

    `fun` maps an (N, dim) array to N values; the full shifted cloud is
    evaluated in a single call so vectorized callables stay fast.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    disp, weights = displacement_cloud(alpha, spacing, points.shape[1])
    cloud = points[:, None, :] + disp[None, :, :]
    vals = np.asarray(fun(cloud.reshape(-1, points.shape[1])))
    return vals.reshape(points.shape[0], len(weights)) @ weights
