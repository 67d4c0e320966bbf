import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import GROUP16, GROUP32, GROUPWIDE, LINE64, LINE128
from oracles import (
    c_fun_shift_loop,
    gauss_c_fun_closed_form,
    pi_field_quadrature_dense,
    pi_point_matrix,
    pi_point_matrix_dense,
)

from heisenflag.checks import balanced_rates, gauss_state, random_field, random_state
from heisenflag.fields import SampledField
from heisenflag.grids import LineGrid, group_grid, self_dual_line
from heisenflag.group import GroupPoint, group_inv, group_mul
from heisenflag.schrodinger import (
    FiberOperator,
    StateVector,
    big_c_fun,
    c_fun,
    gramian,
    hs_norm,
    load_operator,
    pi_field,
    pi_point,
    save_operator,
)
from heisenflag.transform import central_slice_energy, convolve, gaussian_field, l2_norm, spike_field


def random_group_point(rng, scale=0.5, t_scale=1.0):
    return GroupPoint(rng.uniform(-scale, scale, 1), rng.uniform(-scale, scale, 1),
                      rng.uniform(-t_scale, t_scale))


def random_lambda(rng):
    return float(rng.choice([-1, 1]) * 2.0 ** rng.uniform(-2, 1))


def test_pi_point_unitary():
    rng = np.random.default_rng(41)
    u = random_state(LINE128, rng)
    for _ in range(20):
        h = random_group_point(rng, scale=1.5)
        lam = random_lambda(rng)
        v = pi_point(h, lam, u)
        assert np.isclose(v.l2_norm(), u.l2_norm(), rtol=1e-12)
    M = pi_point_matrix(h, lam, LINE64).matrix
    assert np.max(np.abs(M.conj().T @ M - np.eye(LINE64.size))) < 1e-12


def test_pi_point_matrix_consistent_with_action():
    rng = np.random.default_rng(42)
    u = random_state(LINE64, rng)
    h = random_group_point(rng)
    for lam in (0.7, -1.3):
        direct = pi_point(h, lam, u)
        via_matrix = pi_point_matrix(h, lam, LINE64).apply(u)
        assert np.max(np.abs(direct.values - via_matrix.values)) < 1e-12


# field and state grids for the quantized fiber matrices: n = 1 on a
# self-dual and a non-self-dual state lattice, n = 2 on a self-dual one
QUANT_CASES = [(GROUPWIDE, LINE64), (GROUPWIDE, LineGrid(64, 6.0)),
               (group_grid(2, 8, 4.0, 8, 2.0), self_dual_line(8, 2))]
QUANT_IDS = ["n1-N64-dual", "n1-N64-L6", "n2-N8-dual"]


@pytest.mark.parametrize("fgrid,grid", QUANT_CASES, ids=QUANT_IDS)
def test_fiber_matrices_match_dense_dft_oracles(fgrid, grid):
    # a noise field has no x-parity, so the sign of lam shows in both routes
    rng = np.random.default_rng(71)
    n = grid.dim
    f = SampledField(fgrid, rng.standard_normal(fgrid.shape)
                     + 1j * rng.standard_normal(fgrid.shape))
    for lam in (0.25, -0.25, 0.5, -0.5, 1.0, -1.0):
        h = GroupPoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), rng.uniform(-1, 1))
        for got, want in ((pi_point_matrix(h, lam, grid), pi_point_matrix_dense(h, lam, grid)),
                          (pi_field(f, lam, grid, route="quadrature"),
                           pi_field_quadrature_dense(f, lam, grid))):
            gap = FiberOperator(lam, grid, got.matrix - want.matrix)
            assert hs_norm(gap) <= 1e-13 * hs_norm(want)
            assert got.lam == lam


def test_pi_point_rejects_zero_lambda():
    u = gauss_state(LINE64)
    with pytest.raises(ValueError):
        pi_point(GroupPoint([0.0], [0.0], 0.0), 0.0, u)


def test_homomorphism_on_gaussians():
    rng = np.random.default_rng(43)
    u = random_state(LINE128, rng)
    worst = 0.0
    for _ in range(25):
        h, hp = random_group_point(rng), random_group_point(rng)
        lam = random_lambda(rng)
        lhs = pi_point(h, lam, pi_point(hp, lam, u))
        rhs = pi_point(group_mul(h, hp), lam, u)
        worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    assert worst < 1e-8


def test_representation_inverse():
    rng = np.random.default_rng(44)
    u = random_state(LINE128, rng)
    h = random_group_point(rng)
    lam = -0.75
    back = pi_point(group_inv(h), lam, pi_point(h, lam, u))
    assert np.max(np.abs(back.values - u.values)) < 1e-10


# -- representation laws at hypothesis-drawn (h, lam) ---------------------------

STATE = random_state(LINE128, np.random.default_rng(45))


def drawn_points(scale, t_scale=1.0):
    coord = st.floats(-scale, scale, allow_nan=False)
    return st.builds(lambda x, y, t: GroupPoint([x], [y], t),
                     coord, coord, st.floats(-t_scale, t_scale, allow_nan=False))


LAMBDAS = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 1.0)).map(
    lambda p: p[0] * 2.0 ** p[1])


@settings(max_examples=50, deadline=None)
@given(drawn_points(3.0, 8.0), LAMBDAS)
def test_pi_point_unitary_at_drawn_points(h, lam):
    v = pi_point(h, lam, STATE)
    assert np.isclose(v.l2_norm(), STATE.l2_norm(), rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(drawn_points(0.5), drawn_points(0.5), LAMBDAS)
def test_pi_point_homomorphism_at_drawn_points(h, hp, lam):
    # the same box as the seeded draws: shifts stay well inside the grid,
    # where the periodic lattice carries the state without wrap-around
    lhs = pi_point(h, lam, pi_point(hp, lam, STATE))
    rhs = pi_point(group_mul(h, hp), lam, STATE)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-8


def test_c_fun_gaussian_closed_form():
    g = gauss_state(LINE64)
    c = c_fun(g, g)
    x = c.grid.axes[0].points()
    want = gauss_c_fun_closed_form(x[:, None], x[None, :])
    assert np.max(np.abs(c.values - want)) < 1e-10


@pytest.mark.parametrize("grid", [LINE64, LineGrid(64, 6.0), self_dual_line(8, 2)],
                         ids=["n1-N64-dual", "n1-N64-L6", "n2-N8-dual"])
def test_c_fun_matches_the_shift_loop(grid):
    # noise states: every u carries weight, so every shift is exercised
    rng = np.random.default_rng(47)
    f, g = (StateVector(grid, rng.standard_normal(grid.shape)
                        + 1j * rng.standard_normal(grid.shape)) for _ in range(2))
    want = c_fun_shift_loop(f, g)
    got = c_fun(f, g).values
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


def test_c_hat_identity_exact_on_self_dual_grid():
    # c-hat(xi, eta) = f-hat(xi) g(eta) e^{2 pi i xi eta}, exact discretely
    from heisenflag.grids import centered_dft
    from heisenflag.transform import fourier

    rng = np.random.default_rng(45)
    f = random_state(LINE64, rng)
    g = random_state(LINE64, rng)
    chat = fourier(c_fun(f, g))
    xi = LINE64.freqs()
    fhat = LINE64.spacing * centered_dft(f.values, 0)
    want = fhat[:, None] * g.values[None, :] * np.exp(2j * np.pi * np.outer(xi, xi))
    scale = np.max(np.abs(want))
    assert np.max(np.abs(chat.values - want)) < 1e-12 * scale


def test_big_c_factorization_both_signs():
    rng = np.random.default_rng(46)
    f = random_state(LINE64, rng)
    g = random_state(LINE64, rng)
    c = c_fun(f, g)
    for lam in (1.0, 4.0, -1.0, -4.0, 0.5, -0.5):
        root = np.sqrt(abs(lam))
        for _ in range(5):
            h = random_group_point(rng, scale=0.8, t_scale=2.0)
            got = big_c_fun(f, g, lam, h)
            arg = np.array([[np.sign(lam) * root * h.x[0], root * h.y[0]]])
            want = np.exp(2j * np.pi * lam * h.t) * c.eval_at(arg, policy="wrap")[0]
            assert abs(got - want) < 1e-8


def test_pi_field_routes_agree():
    rng = np.random.default_rng(47)
    f = random_field(GROUPWIDE, rng, modulation_scale=0.3)
    for lam, tol in ((0.5, 1e-8), (-0.5, 1e-8), (0.25, 1e-4), (-0.25, 1e-4)):
        a = pi_field(f, lam, LINE64, route="quadrature")
        b = pi_field(f, lam, LINE64, route="kernel")
        rel = hs_norm(FiberOperator(lam, LINE64, a.matrix - b.matrix)) / hs_norm(a)
        # the quadrature route only probes the field x-spectrum inside
        # sqrt|lam| times the state band, so small lam loosens agreement
        assert rel < tol


def test_pi_field_routes_coincide_at_unit_lambda():
    # at |lam| = 1 the scaled dual lattice equals the state lattice and the
    # wrap-policy kernel route reproduces the quadrature sum identically
    rng = np.random.default_rng(53)
    f = random_field(GROUPWIDE, rng, modulation_scale=0.3)
    for lam in (1.0, -1.0):
        a = pi_field(f, lam, LINE64, route="quadrature")
        b = pi_field(f, lam, LINE64, route="kernel", policy="wrap")
        rel = hs_norm(FiberOperator(lam, LINE64, a.matrix - b.matrix)) / hs_norm(a)
        assert rel < 1e-14
    c = pi_field(f, 0.5, LINE64, route="kernel", policy="wrap")
    d = pi_field(f, 0.5, LINE64, route="quadrature")
    rel = hs_norm(FiberOperator(0.5, LINE64, c.matrix - d.matrix)) / hs_norm(d)
    assert rel < 1e-9


def test_pi_field_spike_quadrature_is_identity():
    d = spike_field(GROUP16)
    for lam in (1.0, -0.5):
        a = pi_field(d, lam, LINE64, route="quadrature")
        assert np.max(np.abs(a.matrix - np.eye(LINE64.size))) < 1e-12


def test_pi_field_spike_kernel_is_approximate_identity():
    # the kernel route band-limits the flat spike spectrum, so it only
    # reproduces the identity on well-resolved states
    d = spike_field(GROUP32)
    a = pi_field(d, 1.0, LINE64, route="kernel", policy="wrap")
    u = gauss_state(LINE64)
    err = a.apply(u).values - u.values
    assert np.sqrt(LINE64.weight * np.sum(np.abs(err) ** 2)) < 1e-4


def test_pi_field_convolution_homomorphism():
    rng = np.random.default_rng(48)
    f = random_field(GROUPWIDE, rng, modulation_scale=0.3)
    g = random_field(GROUPWIDE, rng, modulation_scale=0.3)
    fg = convolve(f, g)
    for lam in (0.5, -0.5):
        lhs = pi_field(fg, lam, LINE64)
        rhs = pi_field(f, lam, LINE64) @ pi_field(g, lam, LINE64)
        rel = hs_norm(FiberOperator(lam, LINE64, lhs.matrix - rhs.matrix)) / hs_norm(lhs)
        assert rel < 1e-5


def test_pi_field_band_validation():
    f = gaussian_field(GROUP16)
    with pytest.raises(ValueError):
        pi_field(f, 0.0, LINE64)
    with pytest.raises(ValueError):
        pi_field(f, 5.0, LINE64)  # beyond the t dual band of GROUP16


def test_gramian_matches_slice_energy():
    rng = np.random.default_rng(50)
    f = random_field(GROUP32, rng, modulation_scale=0.3)
    for lam in (0.5, -0.5, 0.25, -0.25):
        slice_e = central_slice_energy(f, lam)
        gram = gramian(f, lam, LINE64)
        assert abs(gram - slice_e) < 1e-6 * max(slice_e, 1e-12)


def test_gramian_sums_to_norm():
    rng = np.random.default_rng(51)
    f = random_field(GROUP32, rng, modulation_scale=0.4)
    lam = GROUP32.t_axis.freqs()
    dl = GROUP32.t_axis.freq_spacing
    total = dl * sum(gramian(f, float(l), LINE64) for l in lam if l != 0.0)
    total += dl * central_slice_energy(f, 0.0)  # the one excluded bin
    # innermost bins dominate the error: there the kernel varies on the
    # scale band/sqrt|lam| and the state lattice undersamples its square
    assert np.isclose(total, l2_norm(f) ** 2, rtol=1e-4)


def test_operator_container_roundtrip(tmp_path):
    rng = np.random.default_rng(52)
    f = random_field(GROUP32, rng, modulation_scale=0.5)
    a = pi_field(f, 0.5, LINE64)
    p = tmp_path / "op.hfc"
    save_operator(a, p)
    b = load_operator(p)
    assert b.lam == a.lam and b.grid == a.grid
    np.testing.assert_array_equal(b.matrix, a.matrix)
