"""Fourier analysis and convolution on the group grid.

The full transform is the Euclidean one in all 2n + 1 coordinates with
kernel e^{-2 pi i h . zeta}; quadrature weights make it the trapezoidal
approximation of the integral, and Plancherel holds exactly on the grid.

Group convolution is computed fiberwise in the central frequency: after a
partial transform in t,

    (f * g)^lam(v) = Dv^{2n} sum_{v'} f^lam(v') g^lam(v - v')
                      e^{-2 pi i lam x'.(y - y')},

with true (unwrapped) coordinate values in the twist phase and periodic
index wrap in the lattice shift v - v'. The y-part of the sum is a
circular convolution once the phase is split as
e^{-2 pi i lam x'.y} e^{+2 pi i lam x'.y'}, so each fiber costs one FFT
pass per x' lattice point.
"""

from __future__ import annotations

import numpy as np

from .fields import LambdaWindow, SampledField
from .grids import Grid, centered_dft, centered_idft


def _require_group_layout(f: SampledField) -> None:
    if f.grid.group_dim is None:
        raise ValueError("operation requires a group-layout grid")


def _require_side(f: SampledField, side: str) -> None:
    if f.side != side:
        raise ValueError(f"expected a {side}-side field, got {f.side}")


def fourier(f: SampledField) -> SampledField:
    """Forward transform on all axes: position samples -> frequency samples."""
    _require_side(f, "group")
    vals = centered_dft(f.values, tuple(range(f.grid.ndim))) * f.grid.weight
    return SampledField(f.grid, vals, (True,) * f.grid.ndim)


def inverse_fourier(f: SampledField) -> SampledField:
    _require_side(f, "dual")
    vals = centered_idft(f.values, tuple(range(f.grid.ndim))) / f.grid.weight
    return SampledField(f.grid, vals, (False,) * f.grid.ndim)


def partial_fourier(f: SampledField, axes) -> SampledField:
    """Forward transform on a subset of axes (e.g. just the central one)."""
    axes = tuple(np.atleast_1d(axes))
    flags = list(f.transformed)
    w = 1.0
    for i in axes:
        if flags[i]:
            raise ValueError(f"axis {i} already on the frequency side")
        flags[i] = True
        w *= f.grid.axes[i].spacing
    return SampledField(f.grid, centered_dft(f.values, axes) * w, tuple(flags))


def partial_inverse_fourier(f: SampledField, axes) -> SampledField:
    axes = tuple(np.atleast_1d(axes))
    flags = list(f.transformed)
    w = 1.0
    for i in axes:
        if not flags[i]:
            raise ValueError(f"axis {i} already on the position side")
        flags[i] = False
        w *= f.grid.axes[i].spacing
    return SampledField(f.grid, centered_idft(f.values, axes) / w, tuple(flags))


def l2_norm(f: SampledField) -> float:
    return f.l2_norm()


# -- group symmetries ---------------------------------------------------------

def _lattice_xy(grid: Grid) -> np.ndarray:
    """x.y at every horizontal lattice point v = (x, y), shape (Nv,)*2n."""
    n = grid.n
    mesh = np.meshgrid(*([grid.axes[0].points()] * (2 * n)), indexing="ij")
    return sum(mesh[i] * mesh[n + i] for i in range(n))


def group_reflect(f: SampledField) -> SampledField:
    """f(h) -> f(h^{-1}), exact on the band-limited interpolant.

    The horizontal flips are lattice permutations; the central shear
    t -> -t + x.y is an off-lattice shift handled spectrally, line by
    line in (x, y).
    """
    _require_group_layout(f)
    _require_side(f, "group")
    grid = f.grid
    n = grid.n
    vals = f.values
    for ax in range(2 * n):
        N = grid.axes[ax].count
        idx = (N - np.arange(N)) % N
        vals = np.take(vals, idx, axis=ax)
    t_ax = 2 * n
    Nt = grid.t_axis.count
    lam = grid.t_axis.freqs()
    tau = _lattice_xy(grid)  # x.y at output coords
    spec = centered_dft(vals, t_ax)
    spec = spec * np.exp(2j * np.pi * tau[..., None] * lam)
    perm = (Nt - np.arange(Nt)) % Nt  # lambda -> -lambda
    spec = np.take(spec, perm, axis=t_ax)
    return f.with_values(centered_idft(spec, t_ax))


def star_involution(f: SampledField) -> SampledField:
    """f*(h) = conj(f(h^{-1}))."""
    r = group_reflect(f)
    return r.with_values(np.conj(r.values))


# -- convolution --------------------------------------------------------------

def twisted_fiber_product(fv: np.ndarray, gv: np.ndarray, lam: float,
                          grid: Grid) -> np.ndarray:
    """One central-frequency fiber of the group convolution.

    fv, gv: fiber arrays of shape (Nv,)*2n on the grid's v-axes.
    Returns Dv^{2n} sum_{v'} fv(v') gv(v - v') e^{-2 pi i lam x'.(y - y')}.
    """
    n = grid.n
    ax0 = grid.axes[0]
    N = ax0.count
    pts = ax0.points()
    x_axes = tuple(range(n))
    y_axes = tuple(range(n, 2 * n))

    fmod = fv * np.exp(2j * np.pi * lam * _lattice_xy(grid))

    g_sh = np.fft.ifftshift(gv, axes=tuple(range(2 * n)))
    GY = np.fft.fftn(g_sh, axes=y_axes)
    FY = np.fft.fftn(fmod, axes=y_axes)

    ymesh = np.meshgrid(*([pts] * n), indexing="ij")
    out = np.zeros_like(fv)
    for flat in range(N ** n):
        jx = np.unravel_index(flat, (N,) * n)
        GYr = np.roll(GY, shift=jx, axis=x_axes)
        row = FY[jx][(None,) * n + (...,)]  # broadcast over output x-axes
        term = np.fft.ifftn(row * GYr, axes=y_axes)
        xprime_dot_y = sum(pts[jx[i]] * ymesh[i] for i in range(n))
        out += np.exp(-2j * np.pi * lam * xprime_dot_y)[(None,) * n + (...,)] * term
    return out * ax0.spacing ** (2 * n)


def convolve(f: SampledField, g: SampledField) -> SampledField:
    """Group convolution (f * g)(h) = int f(h') g(h'^{-1} h) dh'."""
    _require_group_layout(f)
    _require_side(f, "group")
    _require_side(g, "group")
    if f.grid != g.grid:
        raise ValueError("operands must share a grid")
    grid = f.grid
    t_ax = 2 * grid.n
    F = partial_fourier(f, t_ax)
    G = partial_fourier(g, t_ax)
    lam_vals = grid.t_axis.freqs()
    out = np.empty_like(F.values)
    for m, lam in enumerate(lam_vals):
        out[..., m] = twisted_fiber_product(
            F.values[..., m], G.values[..., m], float(lam), grid
        )
    H = SampledField(grid, out, F.transformed)
    return partial_inverse_fourier(H, t_ax)


def lambda_filter(f: SampledField, window: LambdaWindow) -> SampledField:
    """Sharp cutoff to the central-frequency band of the window."""
    _require_group_layout(f)
    _require_side(f, "group")
    t_ax = 2 * f.grid.n
    spec = centered_dft(f.values, t_ax)
    keep = window.contains(f.grid.t_axis.freqs())
    spec = spec * keep[(None,) * (f.grid.ndim - 1) + (...,)]
    return f.with_values(centered_idft(spec, t_ax))


def central_frequencies(grid: Grid) -> np.ndarray:
    """The lambda lattice of a group grid (t-axis dual points)."""
    return grid.t_axis.freqs()


def central_slice_energy(f: SampledField, lam: float) -> float:
    """L2 energy of the central-frequency slice at lam.

    Computes Dv^{2n} sum_{x,y} |Dt sum_t f(x,y,t) e^{+2 pi i t lam}|^2,
    the squared slice norm entering the Plancherel-type decomposition of
    ||f||^2 over central frequencies. The e^{+...} kernel matches the
    representation's central character; it equals the forward transform
    evaluated at -lam.
    """
    _require_group_layout(f)
    _require_side(f, "group")
    grid = f.grid
    t = grid.t_axis.points()
    phase = np.exp(2j * np.pi * t * float(lam))
    slice_vals = grid.t_axis.spacing * np.tensordot(f.values, phase, axes=(2 * grid.n, 0))
    vw = grid.axes[0].spacing ** (2 * grid.n)
    return float(vw * np.sum(np.abs(slice_vals) ** 2))


# -- stock fields -------------------------------------------------------------

def gaussian_field(grid: Grid, v_rate=1.0, t_rate: float = 1.0,
                   modulation: float = 0.0, t_shift: float = 0.0) -> SampledField:
    """Separable Gaussian envelope exp(-pi a_i v_i^2) exp(-pi a_t (t-t0)^2)
    times the central character e^{2 pi i t lam0}.

    v_rate may be a scalar or one rate per horizontal axis.
    """
    n = grid.n
    rates = np.broadcast_to(np.asarray(v_rate, dtype=float), (2 * n,))
    mesh = grid.meshes()
    vals = np.ones(grid.shape, dtype=complex)
    for i in range(2 * n):
        vals = vals * np.exp(-np.pi * rates[i] * mesh[i] ** 2)
    tt = mesh[2 * n]
    vals = vals * np.exp(-np.pi * t_rate * (tt - t_shift) ** 2)
    if modulation != 0.0:
        vals = vals * np.exp(2j * np.pi * modulation * tt)
    return SampledField(grid, vals)


def spike_field(grid: Grid) -> SampledField:
    """Weight-normalized lattice spike at the group identity."""
    vals = np.zeros(grid.shape, dtype=complex)
    vals[tuple(ax.count // 2 for ax in grid.axes)] = 1.0 / grid.weight
    return SampledField(grid, vals)
