"""Shared grids and helpers for the test suite; stock inputs come from
heisenflag.checks."""

import tracemalloc

import numpy as np

from heisenflag.grids import LineGrid, group_grid, self_dual_line

# accuracy grid: balanced Gaussians have periodization floor ~ e^{-8 pi}
GROUP32 = group_grid(1, 32, 4.0, 64, 8.0)
# spec-default-sized grid, used where identities are algebra-exact
GROUP16 = group_grid(1, 16, 4.0, 32, 8.0)
# tiny grid for brute-force oracles
GROUP8 = group_grid(1, 8, 4.0, 8, 4.0)
# tall central axis: lambda band [-4, 4), bins at multiples of 1/16
GROUPTALL = group_grid(1, 32, 4.0, 128, 8.0)
# wide horizontal axes: dual band [-4, 4) for quadrature-route compressions
GROUPWIDE = group_grid(1, 64, 4.0, 64, 8.0)

LINE64 = self_dual_line(64)          # L = 4, self-dual lattice
LINE128 = LineGrid(128, 6.0)         # roomy grid for representation draws


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocates, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def assert_rows_read_off_one_jet(spec, W, lams):
    """spec(W, lams) is the order-0 row of `derivatives` bit for bit, and a
    permuted index list with a duplicate gives the same rows in its order."""
    rest = (0,) * (2 * spec.n - 1)
    zero = ((0, *rest), 0)
    np.testing.assert_array_equal(spec(W, lams), spec.derivatives([zero], W, lams)[0])
    indices = [zero, ((1, *rest), 1), ((2, *rest), 0), ((0, *rest), 1)]
    rows = spec.derivatives(indices, W, lams)
    again = spec.derivatives([indices[k] for k in (3, 1, 1, 0, 2)], W, lams)
    np.testing.assert_array_equal(again, rows[[3, 1, 1, 0, 2]])
