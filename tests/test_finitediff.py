import numpy as np
import pytest

from heisenflag.inversion import stencil


def test_stencil_first_derivative_classic_weights():
    off, w = stencil(1)
    np.testing.assert_array_equal(off, [-2, -1, 0, 1, 2])
    np.testing.assert_allclose(w, [1 / 12, -2 / 3, 0, 2 / 3, -1 / 12], atol=1e-14)


def test_stencil_weights_are_exactly_parity_symmetric():
    # odd orders weigh the center by exactly zero, not by rounding residue
    assert stencil(1)[1][2] == 0.0
    assert stencil(3)[1][3] == 0.0
    for order in range(1, 7):
        w = stencil(order)[1]
        np.testing.assert_array_equal(w, (-1) ** order * w[::-1])


def test_stencil_moment_conditions():
    from math import factorial

    for order in range(1, 5):
        off, w = stencil(order)
        # exact on monomials up to the stencil length
        for k in range(len(off)):
            target = 1.0 if k == order else 0.0
            got = np.sum(w * off.astype(float) ** k) / factorial(k)
            assert abs(got - target) < 1e-10


def test_stencil_rejects_bad_requests():
    with pytest.raises(ValueError):
        stencil(-1)


def test_fourth_order_convergence():
    x = np.array([0.3, 0.9])
    exact = -27.0 * np.cos(3.0 * x)
    off, w = stencil(3)

    def diff(h):
        return sum(wk * np.sin(3.0 * (x + o * h)) for o, wk in zip(off, w)) / h ** 3

    e1 = np.max(np.abs(diff(0.08) - exact))
    e2 = np.max(np.abs(diff(0.04) - exact))
    assert e1 / e2 > 12.0  # ~16x for a 4th-order rule
