import numpy as np
import pytest
import sympy as sp

from heisenflag.finitediff import displacement_cloud, partial_cloud, stencil


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


def test_partials_match_symbolic_oracle():
    x, y, z = sp.symbols("x y z")
    expr = sp.exp(sp.sin(x) + y ** 2 / 5) * sp.cos(z) + x * y * z
    f = sp.lambdify((x, y, z), expr, "numpy")

    def fun(p):
        return f(p[:, 0], p[:, 1], p[:, 2])

    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(40, 3))
    cases = [(1, 0, 0), (0, 2, 0), (1, 1, 0), (2, 0, 1), (0, 0, 4), (2, 2, 0)]
    for alpha in cases:
        dexpr = sp.diff(expr, x, alpha[0], y, alpha[1], z, alpha[2])
        want = sp.lambdify((x, y, z), dexpr, "numpy")(pts[:, 0], pts[:, 1], pts[:, 2])
        got = partial_cloud(fun, pts, alpha, 0.05)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) / scale < 5e-6, alpha


def test_fourth_order_convergence():
    def fun(p):
        return np.sin(3.0 * p[:, 0]) * np.exp(p[:, 1] / 3.0)

    pts = np.array([[0.3, -0.2], [0.9, 0.4]])
    exact = -27.0 * np.cos(3.0 * pts[:, 0]) * np.exp(pts[:, 1] / 3.0)
    e1 = np.max(np.abs(partial_cloud(fun, pts, (3, 0), 0.08) - exact))
    e2 = np.max(np.abs(partial_cloud(fun, pts, (3, 0), 0.04) - exact))
    assert e1 / e2 > 12.0  # ~16x for a 4th-order rule


def test_displacement_cloud_shapes():
    disp, w = displacement_cloud((1, 0, 2), 3)
    assert disp.shape == (25, 3) and w.shape == (25,)
    assert np.all(disp[:, 1] == 0.0)
    disp0, w0 = displacement_cloud((0, 0), 2)
    assert disp0.shape == (1, 2) and w0[0] == 1.0
