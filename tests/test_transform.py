import numpy as np
import pytest
from scipy import integrate

from common import GROUP16, GROUP32, GROUP8, GROUPWIDE, traced_peak
from oracles import (
    direct_convolution,
    gaussian_field_meshgrid,
    gaussian_transform_1d,
    twisted_fiber_direct,
)

from heisenflag.checks import balanced_rates, random_field
from heisenflag.fields import LambdaWindow, SampledField
from heisenflag.grids import (
    LineGrid,
    centered_dft,
    centered_idft,
    group_grid,
    offset_table,
    self_dual_line,
)
from heisenflag.group import GroupPoint, group_inv
from heisenflag.schrodinger import pi_field
from heisenflag.symbols import SymbolGrid, symbol_field
from heisenflag.transform import (
    _lattice_xy,
    central_slice,
    central_slice_energy,
    convolution_slice,
    convolve,
    fourier,
    gaussian_field,
    group_reflect,
    inverse_fourier,
    lambda_filter,
    spike_field,
    star_involution,
    twisted_fiber_product,
)


def noise_field(grid, rng):
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return SampledField(grid, vals)


def test_plancherel_exact():
    rng = np.random.default_rng(21)
    for grid in (GROUP8, GROUP16):
        f = noise_field(grid, rng)
        assert np.isclose(f.l2_norm(), fourier(f).l2_norm(), rtol=1e-13)


def test_roundtrip_exact():
    rng = np.random.default_rng(22)
    f = noise_field(GROUP16, rng)
    back = inverse_fourier(fourier(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    assert back.side == "group"


def test_mixed_side_norms_preserved():
    # a symbol table as a field: xi axes on the frequency side, s axes on
    # the position side, weighted by SampledField.quad_weight
    rng = np.random.default_rng(24)
    for line in (LineGrid(8, 3.0, 2), LineGrid(4, 2.5, 2)):
        shape = (line.size, line.size)
        a = SymbolGrid(0.5, line, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        f = symbol_field(a)
        assert f.side == "mixed"
        assert f.l2_norm() == a.l2_norm()


# t half-widths of a power of two, where t lam is exact on the lattice
DYADIC_T_HALF_WIDTH = {64: 8.0, 256: 16.0}


@pytest.mark.parametrize("t_count", [2, 4, 8, 64, 256])
def test_central_slice_is_the_weighted_t_transform_fiber(t_count):
    # convolve takes the fibers m of f and g as central_slice(., -lam_m)
    rng = np.random.default_rng(34)

    def worst_gap(f):
        t_axis = f.grid.t_axis
        want = t_axis.spacing * centered_dft(f.values, 2)
        gap = max(np.max(np.abs(central_slice(f, -l) - want[..., m]))
                  for m, l in enumerate(t_axis.freqs()))
        return gap, np.max(np.abs(want))

    grid = group_grid(1, 8, 4.0, t_count, 3.0)
    for _ in range(3):
        gap, top = worst_gap(random_field(grid, rng, modulation_scale=0.5))
        assert gap <= 1e-15 * top
    # on white noise the far t samples weigh as much as the central ones.
    # At half-width 3 lam = k / 6 is rounded, so t lam carries about eps Nt
    # of rounding, against the bound Dt sum_t |f| of every fiber
    f = noise_field(grid, rng)
    gap, _ = worst_gap(f)
    dt = grid.t_axis.spacing
    assert gap <= np.finfo(float).eps * t_count * dt * np.max(np.sum(np.abs(f.values), axis=2))
    # on a dyadic axis t lam is exact and reduced mod 1 exactly, so the
    # phase is rounded once, near 1
    if t_count in DYADIC_T_HALF_WIDTH:
        grid = group_grid(1, 8, 4.0, t_count, DYADIC_T_HALF_WIDTH[t_count])
        gap, top = worst_gap(noise_field(grid, rng))
        assert gap <= 1e-15 * top


def test_gaussian_transform_closed_form():
    av, at = balanced_rates(GROUP32)
    lam0 = 0.5
    f = gaussian_field(GROUP32, v_rate=av, t_rate=at, modulation=lam0)
    F = fourier(f)
    xi = GROUP32.axes[0].freqs()
    lam = GROUP32.t_axis.freqs()
    gx = gaussian_transform_1d(av, xi)
    gt = gaussian_transform_1d(at, lam - lam0)
    truth = gx[:, None, None] * gx[None, :, None] * gt[None, None, :]
    assert np.max(np.abs(F.values - truth)) < 1e-8


@pytest.mark.parametrize("grid", [GROUP8, GROUP32, group_grid(2, 8, 2.0, 8, 4.0)],
                         ids=["n1-N8", "n1-N32", "n2-N8"])
def test_gaussian_field_matches_meshgrid_oracle(grid):
    # the 1-d factors go through the same operations in the same order
    # as the full-mesh form, so the values agree bit for bit
    per_axis = np.linspace(0.7, 1.6, 2 * grid.n)
    for v_rate in (1.0, 1.3, per_axis):
        for modulation in (0.0, 0.25):
            kw = dict(v_rate=v_rate, t_rate=0.9, modulation=modulation)
            got = gaussian_field(grid, **kw).values
            assert np.array_equal(got, gaussian_field_meshgrid(grid, **kw))


def test_group_field_memory_in_field_sizes():
    # a 64^3 complex field is 4 MiB; full-mesh Gaussians peaked at 4.5
    # field sizes. Shift copies made a centered transform 3.0 field sizes
    # and star_involution 4.0. convolve, which takes f and g one central
    # slice at a time, is 1.32 above its inputs; it was 1.30 while it
    # transformed f whole, 1.53 while it transformed g a quarter of the
    # fibers at a time, 3.05 while it held both operands transformed, and
    # 5.05 before that
    size = 16 * np.prod(GROUPWIDE.shape)
    av, at = balanced_rates(GROUPWIDE)
    f, peak = traced_peak(gaussian_field, GROUPWIDE, av, at, 0.5)
    assert peak <= 1.1 * size
    fourier(f)  # the first transform of a length fills numpy's FFT plan cache
    for axes in (2, (0, 1, 2)):
        _, peak = traced_peak(centered_dft, f.values, axes)
        assert peak <= 1.1 * size
    _, peak = traced_peak(star_involution, f)
    assert peak <= 2.1 * size
    g = gaussian_field(GROUPWIDE, 2.0 * av, at)
    _, peak = traced_peak(convolve, f, g)
    assert peak <= 1.4 * size


def test_wrap_route_builds_no_phase_cube():
    # the bound keeps the kernel route off a (size, size, Nv^n) table of
    # mode phases, Nv = 64 state matrices here; either policy peaks at 6 to 7
    state = self_dual_line(64)
    f = random_field(GROUPWIDE, np.random.default_rng(42))
    matrix = 16 * state.size ** 2
    for policy in ("zero", "wrap"):
        _, peak = traced_peak(pi_field, f, 1.0, state, "kernel", policy)
        assert peak <= 8 * matrix


def test_operations_leave_their_inputs_unchanged():
    rng = np.random.default_rng(26)
    f = random_field(GROUP16, rng, modulation_scale=0.2)
    g = random_field(GROUP16, rng, modulation_scale=0.2)
    F = fourier(f)
    keep = [x.values.copy() for x in (f, g, F)]
    fourier(f)
    inverse_fourier(F)
    central_slice(f, 0.25)
    lambda_filter(f, LambdaWindow(0.5))
    star_involution(f)
    h = convolve(f, g)
    for x, before in zip((f, g, F), keep):
        assert np.array_equal(x.values, before)
    assert np.array_equal(convolve(f, f).values, convolve(f, f.with_values(f.values.copy())).values)
    assert not np.shares_memory(h.values, f.values)


def test_convolution_slice_is_the_slice_of_the_convolution():
    # convolve writes these fibers and transforms back in t; central_slice
    # reads each back, on white noise that fills every t bin, the Nyquist
    # bin -band (= +band) included
    rng = np.random.default_rng(30)
    for grid in (GROUP16, group_grid(2, 8, 4.0, 16, 8.0)):
        f, g = noise_field(grid, rng), noise_field(grid, rng)
        fg = convolve(f, g)
        band = grid.t_axis.freq_half_width
        for lam in (*grid.t_axis.freqs(), band):
            want = central_slice(fg, lam)
            got = convolution_slice(f, g, lam)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), lam
        step = grid.t_axis.freq_spacing
        for lam in (0.5 * step, 0.25 + 0.3 * step, np.nan):
            with pytest.raises(ValueError, match="off the t dual lattice"):
                convolution_slice(f, g, lam)


def test_convolution_matches_direct_oracle():
    # g's fibers are central slices; t_count 2 is the shortest t axis
    rng = np.random.default_rng(25)
    for t_count in (8, 4, 2):
        grid = group_grid(1, 8, 4.0, t_count, 4.0)
        f = random_field(grid, rng, modulation_scale=0.2)
        g = random_field(grid, rng, modulation_scale=0.2)
        got = convolve(f, g)
        want = direct_convolution(f, g)
        assert np.max(np.abs(got.values - want)) < 1e-11


@pytest.mark.parametrize("grid", [group_grid(1, 8, 4.0, 8, 4.0),
                                  group_grid(2, 4, 2.0, 4, 4.0), GROUP32],
                         ids=["n1-N8", "n2-N4", "n1-N32"])
def test_twisted_fiber_product_matches_direct_sum(grid):
    # at N = 32 the x' sum spans two blocks
    rng = np.random.default_rng(40)
    shape = grid.shape[:-1]
    top = float(np.max(np.abs(grid.t_axis.freqs())))
    for lam in (0.0, 0.3, -0.3, top, -top):
        fv = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        gv = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = twisted_fiber_direct(fv, gv, lam, grid)
        got = twisted_fiber_product(fv, gv, lam, grid)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # every call on the grid shares one copy of each table
    for table in (_lattice_xy(grid), offset_table(grid.axes[0].count, grid.n)):
        assert not table.flags.writeable
    assert _lattice_xy(grid) is _lattice_xy(grid)


def test_convolve_memory_at_rank_two():
    # one n = 2, N = 16 fiber has 16^6 (x', x, eta) products, 268 MiB as
    # one complex array; the blocked contraction never holds them whole
    grid = group_grid(2, 16, 4.0, 2, 8.0)
    rng = np.random.default_rng(41)
    f, g = (noise_field(grid, rng) for _ in range(2))
    h, peak = traced_peak(convolve, f, g)
    assert peak < 32 * 2 ** 20
    lam = float(grid.t_axis.freqs()[0])  # -1/16
    fiber = central_slice(h, -lam)
    outputs = [tuple(rng.integers(0, 16, 4)) for _ in range(6)]
    want = twisted_fiber_direct(central_slice(f, -lam), central_slice(g, -lam),
                                lam, grid, outputs)
    got = np.array([fiber[v] for v in outputs])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(fiber))


def test_convolution_matches_continuum_quadrature():
    # one-point anchor against adaptive 3d quadrature of the closed form
    av, at = balanced_rates(GROUP32)
    f = gaussian_field(GROUP32, v_rate=av, t_rate=at)
    g = gaussian_field(GROUP32, v_rate=1.3 * av, t_rate=0.8 * at)

    def integrand(tp, yp, xp, h):
        x0, y0, t0 = h
        fv = np.exp(-np.pi * (av * (xp ** 2 + yp ** 2) + at * tp ** 2))
        ts = t0 - tp - xp * (y0 - yp)
        gv = np.exp(-np.pi * (1.3 * av * ((x0 - xp) ** 2 + (y0 - yp) ** 2)
                              + 0.8 * at * ts ** 2))
        return fv * gv

    conv = convolve(f, g)
    h = (0.5, -0.25, 1.0)
    want, err = integrate.tplquad(integrand, -4, 4, -4, 4, -8, 8, args=(h,),
                                  epsabs=1e-10, epsrel=1e-10)
    idx = (np.argmin(np.abs(GROUP32.axes[0].points() - h[0])),
           np.argmin(np.abs(GROUP32.axes[1].points() - h[1])),
           np.argmin(np.abs(GROUP32.t_axis.points() - h[2])))
    got = conv.values[idx]
    assert abs(got - want) < 1e-7
    assert abs(got.imag) < 1e-12


def test_spike_is_neutral():
    rng = np.random.default_rng(26)
    f = random_field(GROUP16, rng, modulation_scale=0.5)
    d = spike_field(GROUP16)
    for h in (convolve(f, d), convolve(d, f)):
        assert np.max(np.abs(h.values - f.values)) < 1e-10 * np.max(np.abs(f.values))


def test_central_factors_commute():
    # pure-central factor: horizontal spike times a t-profile
    grid = GROUP16
    t = grid.t_axis.points()
    vals = np.zeros(grid.shape, dtype=complex)
    vals[grid.axes[0].count // 2, grid.axes[1].count // 2, :] = (
        np.exp(-np.pi * 0.25 * t ** 2) / (grid.axes[0].spacing ** 2)
    )
    central = SampledField(grid, vals)
    rng = np.random.default_rng(27)
    f = random_field(grid, rng, modulation_scale=0.5)
    lhs = convolve(f, central)
    rhs = convolve(central, f)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10 * np.max(np.abs(lhs.values))


def test_convolution_associative_on_gaussians():
    # narrow envelopes: the periodic wrap of the true-coordinate twist
    # phase is the dominant defect and decays with the y-tail squared
    rng = np.random.default_rng(28)
    fields = []
    for _ in range(3):
        f = gaussian_field(GROUP32, v_rate=rng.uniform(1.0, 1.4, 2),
                           t_rate=0.125 * rng.uniform(0.8, 1.2),
                           modulation=rng.uniform(-0.3, 0.3))
        fields.append(f)
    f, g, k = fields
    lhs = convolve(convolve(f, g), k)
    rhs = convolve(f, convolve(g, k))
    scale = np.max(np.abs(lhs.values))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-6 * scale


def test_star_is_involutive_and_isometric():
    rng = np.random.default_rng(29)
    f = random_field(GROUP32, rng, modulation_scale=0.25)
    ff = star_involution(star_involution(f))
    # residual is the band-limitation defect of the sheared interpolant
    assert np.max(np.abs(ff.values - f.values)) < 1e-8 * np.max(np.abs(f.values))
    assert np.isclose(star_involution(f).l2_norm(), f.l2_norm(), rtol=1e-10)


def test_group_reflect_matches_interpolant_at_inverse_points():
    # at lattice points the reflected samples equal the interpolant of f
    # composed with the group inverse, exactly
    rng = np.random.default_rng(39)
    f = random_field(GROUP32, rng, modulation_scale=0.4)
    r = group_reflect(f)
    ii = rng.integers(2, 30, 20)
    jj = rng.integers(2, 30, 20)
    kk = rng.integers(4, 60, 20)
    pts = np.column_stack([GROUP32.axes[0].points()[ii],
                           GROUP32.axes[1].points()[jj],
                           GROUP32.t_axis.points()[kk]])
    inv_pts = np.column_stack([-pts[:, 0], -pts[:, 1],
                               -pts[:, 2] + pts[:, 0] * pts[:, 1]])
    got = r.values[ii, jj, kk]
    want = f.eval_at(inv_pts, policy="wrap")
    assert np.max(np.abs(got - want)) < 1e-12


def test_star_moves_aligned_spike_to_inverse():
    grid = GROUP16
    point = GroupPoint([1.0], [1.0], 0.5)  # x.y = 1 keeps the shear on-lattice
    inv = group_inv(point)
    vals = np.zeros(grid.shape, dtype=complex)

    def index_of(p):
        return (np.argmin(np.abs(grid.axes[0].points() - p.x[0])),
                np.argmin(np.abs(grid.axes[1].points() - p.y[0])),
                np.argmin(np.abs(grid.t_axis.points() - p.t)))

    vals[index_of(point)] = 2.0 - 1.0j
    f = SampledField(grid, vals)
    r = star_involution(f)
    expect = np.zeros(grid.shape, dtype=complex)
    expect[index_of(inv)] = 2.0 + 1.0j
    assert np.max(np.abs(r.values - expect)) < 1e-10


def test_star_antihomomorphism():
    rng = np.random.default_rng(30)
    f = gaussian_field(GROUP32, v_rate=rng.uniform(1.0, 1.4, 2), t_rate=0.125,
                       modulation=0.25)
    g = gaussian_field(GROUP32, v_rate=rng.uniform(1.0, 1.4, 2), t_rate=0.15,
                       modulation=-0.125)
    lhs = star_involution(convolve(f, g))
    rhs = convolve(star_involution(g), star_involution(f))
    scale = np.max(np.abs(lhs.values))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-6 * scale


def test_group_reflect_involutive():
    rng = np.random.default_rng(31)
    f = random_field(GROUP32, rng, modulation_scale=0.25)
    rr = group_reflect(group_reflect(f))
    assert np.max(np.abs(rr.values - f.values)) < 1e-8 * np.max(np.abs(f.values))


@pytest.mark.parametrize("grid", [GROUP32, group_grid(2, 8, 4.0, 16, 8.0)],
                         ids=["n1", "n2"])
def test_involutions_exact_off_the_documented_rows(grid):
    # white noise is nowhere negligible, so only the scope the docstrings
    # state holds: zero on the self-mirrored rows (index 0 of a horizontal
    # axis) for star_involution, and also on the t Nyquist mode for
    # group_reflect
    vals = noise_field(grid, np.random.default_rng(41)).values
    for ax in range(2 * grid.n):
        np.moveaxis(vals, ax, 0)[0] = 0.0
    f = SampledField(grid, vals)
    scale = np.max(np.abs(vals))
    ff = star_involution(star_involution(f))
    assert np.max(np.abs(ff.values - vals)) <= 1e-15 * scale
    spectrum = centered_dft(vals, axes=(2 * grid.n,))
    spectrum[..., 0] = 0.0
    f = SampledField(grid, centered_idft(spectrum, axes=(2 * grid.n,)))
    rr = group_reflect(group_reflect(f))
    assert np.max(np.abs(rr.values - f.values)) <= 1e-15 * np.max(np.abs(f.values))


def test_lambda_filter_projection():
    rng = np.random.default_rng(32)
    f = noise_field(GROUP16, rng)
    win = LambdaWindow(0.5)
    pf = lambda_filter(f, win)
    pf2 = lambda_filter(pf, win)
    assert np.max(np.abs(pf2.values - pf.values)) < 1e-12
    # orthogonal projection: energies split exactly
    rest = f.with_values(f.values - pf.values)
    assert np.isclose(f.l2_norm() ** 2, pf.l2_norm() ** 2 + rest.l2_norm() ** 2,
                      rtol=1e-12)
    # surviving bins are exactly the window band
    lam = GROUP16.t_axis.freqs()
    outside = lam[~win.contains(lam)]
    assert max(np.max(np.abs(central_slice(pf, -l))) for l in outside) < 1e-12


def test_slice_energy_decomposes_norm():
    rng = np.random.default_rng(33)
    f = random_field(GROUP16, rng, modulation_scale=0.4)
    lam = GROUP16.t_axis.freqs()
    dl = GROUP16.t_axis.freq_spacing
    total = dl * sum(central_slice_energy(f, float(l)) for l in lam)
    assert np.isclose(total, f.l2_norm() ** 2, rtol=1e-12)


def test_slice_energy_sign_convention():
    # the slice kernel e^{+2 pi i t lam} matches the representation's
    # central character, so e^{+2 pi i lam0 t} content sits at lam = -lam0
    grid = GROUP32
    av, at = balanced_rates(grid)
    f = gaussian_field(grid, v_rate=av, t_rate=at, modulation=0.5)
    hot = central_slice_energy(f, -0.5)
    cold = central_slice_energy(f, 0.5)
    assert hot > 1e6 * cold
