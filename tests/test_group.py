import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenflag.group import (
    GroupDims,
    GroupPoint,
    dilate,
    group_inv,
    group_mul,
    homogeneous_norm,
    identity,
)


def random_point(rng, n=1, scale=2.0):
    return GroupPoint(rng.uniform(-scale, scale, n), rng.uniform(-scale, scale, n),
                      rng.uniform(-scale, scale))


def test_dims_validation():
    assert GroupDims(1).homogeneous_dim == 4
    assert GroupDims(3).homogeneous_dim == 8
    with pytest.raises(ValueError):
        GroupDims(2, homogeneous_dim=5)
    with pytest.raises(ValueError):
        GroupDims(0)


def test_product_twists_center():
    a = GroupPoint([1.0], [2.0], 0.5)
    b = GroupPoint([0.5], [3.0], -1.0)
    c = group_mul(a, b)
    assert np.allclose(c.x, [1.5]) and np.allclose(c.y, [5.0])
    assert c.t == 0.5 - 1.0 + 1.0 * 3.0


def test_associativity_random():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(50):
            a, b, c = (random_point(rng, n) for _ in range(3))
            lhs = group_mul(group_mul(a, b), c)
            rhs = group_mul(a, group_mul(b, c))
            assert lhs.isclose(rhs, tol=1e-12)


def test_inverse_and_identity():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        e = identity(n)
        for _ in range(50):
            a = random_point(rng, n)
            assert group_mul(a, group_inv(a)).isclose(e, tol=1e-12)
            assert group_mul(group_inv(a), a).isclose(e, tol=1e-12)
            assert group_mul(a, e).isclose(a)
            assert group_mul(e, a).isclose(a)


def test_noncommutativity_is_central():
    a = GroupPoint([1.0], [0.0], 0.0)
    b = GroupPoint([0.0], [1.0], 0.0)
    ab, ba = group_mul(a, b), group_mul(b, a)
    assert ab.t - ba.t == 1.0
    assert np.allclose(ab.x, ba.x) and np.allclose(ab.y, ba.y)


def test_dilation_is_automorphism():
    rng = np.random.default_rng(9)
    for _ in range(30):
        a, b = random_point(rng), random_point(rng)
        j = rng.uniform(0.2, 3.0)
        lhs = dilate(j, group_mul(a, b))
        rhs = group_mul(dilate(j, a), dilate(j, b))
        assert lhs.isclose(rhs, tol=1e-12)
    with pytest.raises(ValueError):
        dilate(0.0, a)
    with pytest.raises(ValueError):
        dilate(-1.0, a)


def test_norm_homogeneous_and_quasi_subadditive():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a, b = random_point(rng, n=2), random_point(rng, n=2)
        j = rng.uniform(0.1, 4.0)
        assert np.isclose(homogeneous_norm(dilate(j, a)), j * homogeneous_norm(a),
                          rtol=1e-12)
        # |ab| <= C (|a| + |b|); C = 1.5 suffices for the l1 gauge
        assert homogeneous_norm(group_mul(a, b)) <= 1.5 * (
            homogeneous_norm(a) + homogeneous_norm(b)) + 1e-12
    assert homogeneous_norm(identity(2)) == 0.0


def test_norm_value():
    # l1 horizontal part plus sqrt of the center
    a = GroupPoint([3.0, -1.0], [0.5, 0.0], -4.0)
    assert homogeneous_norm(a) == 3.0 + 1.0 + 0.5 + 2.0


def test_validation_rejects_bad_points():
    with pytest.raises(ValueError):
        GroupPoint([1.0], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        GroupPoint([np.nan], [0.0], 0.0)
    with pytest.raises(ValueError):
        GroupPoint([0.0], [0.0], np.inf)
    with pytest.raises(ValueError):
        group_mul(GroupPoint([1.0], [0.0], 0.0), GroupPoint([1.0, 0.0], [0.0, 0.0], 0.0))


# -- group laws at hypothesis-drawn points ----------------------------------------

COORD = st.floats(-8.0, 8.0, allow_nan=False)


def points(n, count):
    point = st.builds(lambda x, y, t: GroupPoint(x, y, t),
                      st.lists(COORD, min_size=n, max_size=n),
                      st.lists(COORD, min_size=n, max_size=n), COORD)
    return st.tuples(*[point] * count)


def coords(a):
    return np.concatenate([a.x, a.y, [a.t]])


def size(*points):
    return max(1.0, *(np.max(np.abs(coords(p))) for p in points))


def assert_close(a, b, scale):
    # the central slot carries sums of products x.y', so rounding grows
    # with the square of the inputs' size
    assert np.max(np.abs(coords(a) - coords(b))) <= 1e-13 * scale ** 2, (a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: points(n, 3)))
def test_associativity_at_drawn_points(abc):
    a, b, c = abc
    assert_close(group_mul(group_mul(a, b), c), group_mul(a, group_mul(b, c)),
                 size(a, b, c))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: points(n, 1)))
def test_inverses_at_drawn_points(a):
    (a,) = a
    e = identity(a.n)
    assert_close(group_mul(a, group_inv(a)), e, size(a))
    assert_close(group_mul(group_inv(a), a), e, size(a))
    assert_close(group_inv(group_inv(a)), a, size(a))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: points(n, 2)), st.floats(0.1, 10.0))
def test_dilation_automorphism_at_drawn_points(ab, j):
    a, b = ab
    scale = max(1.0, j) * size(a, b)
    assert_close(dilate(j, group_mul(a, b)), group_mul(dilate(j, a), dilate(j, b)),
                 scale)
    assert_close(dilate(1.0 / j, dilate(j, a)), a, scale)
