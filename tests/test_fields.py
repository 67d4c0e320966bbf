import numpy as np
import pytest

from common import GROUP16, GROUP8
from oracles import centered_dft_shifted, dft_literal, symbol_interpolant_literal

from heisenflag.fields import LambdaWindow, SampledField
from heisenflag.grids import (
    Axis,
    Grid,
    LineGrid,
    centered_dft,
    centered_fft_inplace,
    centered_idft,
    flat_coords,
    self_dual_line,
)
from heisenflag.symbols import SymbolGrid, symbol_field
from heisenflag.transform import gaussian_field

POLICIES = ("wrap", "zero", "edge")


def test_axis_geometry():
    ax = Axis(16, 4.0)
    assert ax.spacing == 0.5
    assert ax.freq_spacing == 0.125
    assert ax.freq_half_width == 1.0
    pts = ax.points()
    assert pts[0] == -4.0 and pts[-1] == 3.5 and pts[8] == 0.0
    with pytest.raises(ValueError):
        Axis(12, 4.0)
    with pytest.raises(ValueError):
        Axis(16, 0.0)


def test_self_dual_line():
    g = self_dual_line(64)
    assert np.allclose(g.points(), g.freqs())


def test_centered_dft_matches_literal_sum():
    rng = np.random.default_rng(11)
    for N in (8, 16):
        v = rng.normal(size=N) + 1j * rng.normal(size=N)
        assert np.allclose(centered_dft(v, 0), dft_literal(v), atol=1e-12)
        assert np.allclose(centered_idft(centered_dft(v, 0), 0), v, atol=1e-13)


@pytest.mark.parametrize("N", [2, 4, 8, 64])
def test_centered_transforms_match_the_shift_form(N):
    # N = 2 carries the global sign (-1)^{N/2} = -1; single axes agree
    # bit for bit, all axes (run one after another) to rounding
    rng = np.random.default_rng(N)
    shape = (N, 4, N)
    real = rng.normal(size=shape)
    for v in (real, real + 1j * rng.normal(size=shape)):
        keep = v.copy()
        for ours, inverse in ((centered_dft, False), (centered_idft, True)):
            for axes in (0, 1, 2):
                assert np.array_equal(ours(v, axes),
                                      centered_dft_shifted(v, axes, inverse))
            got = ours(v, (0, 1, 2))
            want = centered_dft_shifted(v, (0, 1, 2), inverse)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.array_equal(v, keep)
        a = v.astype(complex)
        assert centered_fft_inplace(a, 2) is a
        assert np.array_equal(a, centered_dft_shifted(v, 2))
    with pytest.raises(ValueError):
        centered_dft(np.ones(3), 0)


def test_group_grid_layout():
    assert GROUP16.n == 1
    assert GROUP16.shape == (16, 16, 32)
    assert GROUP16.t_axis.half_width == 8.0
    assert GROUP16.weight == 0.5 * 0.5 * 0.5
    with pytest.raises(ValueError):
        Grid((Axis(8, 1.0), Axis(8, 2.0), Axis(8, 1.0)), group_dim=1)


def test_field_sides_and_norm():
    f = gaussian_field(GROUP16)
    assert f.side == "group"
    # separable Gaussian: norm is the product of 1d quadratures
    x = GROUP16.axes[0].points()
    t = GROUP16.t_axis.points()
    n1 = 0.5 * np.sum(np.exp(-2 * np.pi * x ** 2))
    nt = 0.5 * np.sum(np.exp(-2 * np.pi * t ** 2))
    assert np.isclose(f.l2_norm(), np.sqrt(n1 * n1 * nt), rtol=1e-12)


def test_eval_at_interpolates_grid_points():
    f = gaussian_field(GROUP8, v_rate=1.3, t_rate=0.9, modulation=0.25)
    mesh = np.meshgrid(*[ax.points() for ax in GROUP8.axes], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    got = f.eval_at(pts, policy="wrap")
    assert np.allclose(got, f.values.ravel(), atol=1e-12)


def test_eval_at_off_grid_matches_closed_form():
    from common import GROUP32

    from heisenflag.checks import balanced_rates

    av, at = balanced_rates(GROUP32)
    f = gaussian_field(GROUP32, v_rate=av, t_rate=at)
    pts = np.array([[0.3, -0.7, 1.1], [1.05, 0.45, -2.2]])
    truth = np.exp(-np.pi * (av * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
                             + at * pts[:, 2] ** 2))
    assert np.allclose(f.eval_at(pts), truth, atol=1e-9)


def test_eval_at_policies():
    f = gaussian_field(GROUP16)
    outside = np.array([[5.0, 0.0, 0.0]])
    inside = np.array([[0.5, 0.0, 0.0]])
    assert f.out_of_footprint(outside)[0] and not f.out_of_footprint(inside)[0]
    assert f.eval_at(outside, policy="zero")[0] == 0.0
    # wrap: periodic alias of the interpolant, 5 = -3 mod 8
    wrapped = f.eval_at(np.array([[-3.0, 0.0, 0.0]]), policy="wrap")[0]
    assert np.isclose(f.eval_at(outside, policy="wrap")[0], wrapped, atol=1e-10)
    # edge: clamped onto the boundary point
    edge = f.eval_at(outside, policy="edge")[0]
    clamped = f.eval_at(np.array([[4.0 - 0.5, 0.0, 0.0]]), policy="wrap")[0]
    assert np.isclose(edge, clamped, atol=1e-12)
    with pytest.raises(ValueError):
        f.eval_at(inside, policy="nearest")


def test_eval_at_edge_row_ignores_its_batch():
    # a wide modulated Gaussian keeps visible values near the v edge H = 4
    f = gaussian_field(GROUP16, v_rate=0.05, modulation=0.3)
    d = GROUP16.axes[0].spacing
    near = np.array([[4.0 - d / 2, 0.7, 0.3]])          # inside, past H - d
    outside = np.array([[5.0, 0.0, 0.0]])
    alone = f.eval_at(near, policy="edge")[0]
    batched = f.eval_at(np.vstack([near, outside]), policy="edge")[0]
    assert np.isclose(alone, batched, rtol=0, atol=1e-14)
    # every row is clamped to [-H, H - d], inside ones too
    last_cell = f.eval_at(np.array([[4.0 - d, 0.7, 0.3]]), policy="wrap")[0]
    assert np.isclose(alone, last_cell, rtol=0, atol=1e-14)
    assert abs(alone - f.eval_at(near, policy="wrap")[0]) > 1e-3


def _footprint_probes(f: SampledField, rng) -> list:
    """Per-axis values at -H, H - d and +H, beyond them, and inside."""
    out = []
    for i in range(f.grid.ndim):
        h, d = f.axis_half_width(i), f.axis_spacing(i)
        inside = rng.uniform(-h, h, size=2)
        out.append(np.concatenate([[-1.7 * h, -h * (1 + 1e-9), -h, h - d, h - d / 3,
                                    h, 1.2 * h], inside]))
    return out


def _random_field(grid: Grid, transformed, rng) -> SampledField:
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, vals, transformed)


@pytest.mark.parametrize("policy", POLICIES)
def test_eval_lattice_matches_eval_at_on_flat_rows(policy):
    rng = np.random.default_rng(17)
    group3 = _random_field(GROUP8, (True, False, True), rng)
    line = LineGrid(4, 1.5, dim=2)
    table = SymbolGrid(0.5, line, rng.standard_normal((line.size, line.size))
                       + 1j * rng.standard_normal((line.size, line.size)))
    symbol4 = symbol_field(table)
    assert symbol4.transformed == (True, True, False, False)
    for f in (group3, symbol4):
        axes = _footprint_probes(f, rng)
        got = f.eval_lattice(axes, policy)
        assert got.shape == tuple(len(a) for a in axes)
        want = f.eval_at(flat_coords(axes), policy)
        scale = np.max(np.abs(want))
        assert scale > 0
        assert np.max(np.abs(got.ravel() - want)) <= 1e-13 * scale
        if policy == "zero":
            zeroed = f.out_of_footprint(flat_coords(axes))
            assert zeroed.any() and np.all(got.ravel()[zeroed] == 0.0)
            # the rounding slack below -H does not reach -H(1 + 1e-9)
            for i, a in enumerate(axes):
                assert list(f.axis_footprint(i, a[1:3])[1]) == [False, True]
    with pytest.raises(ValueError):
        group3.eval_lattice(axes[:2], policy)
    with pytest.raises(ValueError):
        group3.eval_lattice(_footprint_probes(group3, rng), "nearest")


@pytest.mark.parametrize("policy", POLICIES)
def test_eval_lattice_of_symbol_matches_literal_interpolant(policy):
    rng = np.random.default_rng(23)
    g = LineGrid(8, 1.5)
    a = SymbolGrid(1.0, g, rng.standard_normal((g.size, g.size))
                   + 1j * rng.standard_normal((g.size, g.size)))
    f = symbol_field(a)
    axes = _footprint_probes(f, rng)
    got = f.eval_lattice(axes, policy).ravel()
    # the literal sum is the periodic interpolant: apply the policy by hand
    H, L = g.freq_half_width, g.half_width
    xi, s = flat_coords(axes).T
    outside = (xi < -H) | (xi >= H) | (s < -L) | (s >= L)
    if policy == "edge":
        xi = np.clip(xi, -H, H - g.freq_spacing)
        s = np.clip(s, -L, L - g.spacing)
    want = symbol_interpolant_literal(a.values, g.points(), g.freqs(), xi, s)
    if policy == "zero":
        want[outside] = 0.0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lambda_window():
    w = LambdaWindow(0.25)
    assert w.lo == 0.25 and w.hi == 4.0
    got = w.contains([0.1, -0.25, 0.5, 4.0, -5.0, 0.0])
    assert list(got) == [False, True, True, True, False, False]
    with pytest.raises(ValueError):
        LambdaWindow(0.0)
    with pytest.raises(ValueError):
        LambdaWindow(1.5)


def test_container_rejects_wrong_kind(tmp_path):
    from heisenflag.fields import write_blob
    from heisenflag.schrodinger import load_operator

    p = tmp_path / "x.hfc"
    write_blob(p, {"kind": "something"}, np.zeros(2, dtype=complex))
    with pytest.raises(ValueError, match="expected 'fiber_operator'"):
        load_operator(p)
    with open(p, "wb") as fh:
        fh.write(b"nope")
    with pytest.raises(ValueError, match="not a container file"):
        load_operator(p)
