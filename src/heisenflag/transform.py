"""Fourier analysis and convolution on the group grid.

The full transform is the Euclidean one in all 2n + 1 coordinates with
kernel e^{-2 pi i h . zeta}; quadrature weights make it the trapezoidal
approximation of the integral, and Plancherel holds exactly on the grid.

Group convolution is computed fiberwise in the central frequency lam: with
f^lam and g^lam the weighted t-transforms Dt sum_t f e^{-2 pi i t lam},

    (f * g)^lam(v) = Dv^{2n} sum_{v'} f^lam(v') g^lam(v - v')
                      e^{-2 pi i lam x'.(y - y')},

with true (unwrapped) coordinate values in the twist phase and periodic
index wrap in the lattice shift v - v'. The y-part of the sum is a
circular convolution once the phase is split as
e^{-2 pi i lam x'.y} e^{+2 pi i lam x'.y'}. Each fiber gathers its
(x', x, eta) products in blocks of at most _BLOCK_ELEMENTS complex
values, takes each block to y with one batched inverse FFT, and sums it
over x' against the phase table; the N^{3n}-element product (268 MiB at
n = 2, N = 16) is never held whole. `convolve` makes every f^lam at once
with one FFT, in the array that becomes its output, and takes g^lam one
fiber at a time as `central_slice(g, -lam)`: a pass over g per fiber,
O(N^{2n} Nt^2) work on the t side, with one fiber of g held at a time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import LambdaWindow, SampledField
from .grids import Grid, centered_dft, centered_fft_inplace, centered_idft, offset_table


def _require_group_layout(f: SampledField) -> None:
    if f.grid.group_dim is None:
        raise ValueError("operation requires a group-layout grid")


def _require_side(f: SampledField, side: str) -> None:
    if f.side != side:
        raise ValueError(f"expected a {side}-side field, got {f.side}")


def fourier(f: SampledField) -> SampledField:
    """Forward transform on all axes: position samples -> frequency samples."""
    _require_side(f, "group")
    vals = centered_dft(f.values, tuple(range(f.grid.ndim)))
    vals *= f.grid.weight
    return SampledField(f.grid, vals, (True,) * f.grid.ndim)


def inverse_fourier(f: SampledField) -> SampledField:
    _require_side(f, "dual")
    vals = centered_idft(f.values, tuple(range(f.grid.ndim)))
    vals /= f.grid.weight
    return SampledField(f.grid, vals, (False,) * f.grid.ndim)


def l2_norm(f: SampledField) -> float:
    return f.l2_norm()


# -- group symmetries ---------------------------------------------------------

@lru_cache(maxsize=16)
def _lattice_xy(grid: Grid) -> np.ndarray:
    """x.y at every horizontal lattice point v = (x, y), shape (Nv,)*2n.

    Cached per grid and read-only: every caller shares the one array.
    """
    n = grid.n
    mesh = np.meshgrid(*([grid.axes[0].points()] * (2 * n)), indexing="ij")
    xy = sum(mesh[i] * mesh[n + i] for i in range(n))
    xy.flags.writeable = False
    return xy


def group_reflect(f: SampledField) -> SampledField:
    """f(h) -> f(h^{-1}), exact on the band-limited interpolant.

    The horizontal flips are lattice permutations, made by one gather;
    the central shear t -> -t + x.y is an off-lattice shift handled
    spectrally, fiber by fiber in lam. On the centered lattice the
    inverse transform of the spectrum at -lam is the forward transform
    over N, so the flip lam -> -lam costs no copy.
    """
    _require_group_layout(f)
    _require_side(f, "group")
    grid = f.grid
    n = grid.n
    t_ax = 2 * n
    Nt = grid.t_axis.count
    flips = [(ax.count - np.arange(ax.count)) % ax.count for ax in grid.axes[:t_ax]]
    vals = f.values[np.ix_(*flips, np.arange(Nt))]
    tau = _lattice_xy(grid)  # x.y at output coords
    centered_fft_inplace(vals, t_ax)
    for m, lam in enumerate(grid.t_axis.freqs()):
        vals[..., m] *= np.exp(2j * np.pi * tau * lam)
    centered_fft_inplace(vals, t_ax)
    vals /= Nt
    return f.with_values(vals)


def star_involution(f: SampledField) -> SampledField:
    """f*(h) = conj(f(h^{-1}))."""
    r = group_reflect(f)
    np.conjugate(r.values, out=r.values)  # r owns its values
    return r


# -- convolution --------------------------------------------------------------

# Complex elements in one block of the (x', x, eta) products of a fiber,
# rounded down to whole x' rows of N^{2n} products, at least one row.
# A block's temporaries (the gathered products and their inverse
# transform) then take 256 KiB each and stay in a core's L2 cache; on a
# 2-core Xeon with 2 MiB of L2 per core, 2^16-element blocks made an
# n = 2, N = 8 fiber 1.4 times slower (13.5 ms against 9.8 ms). The
# whole product is N^{3n} elements, 268 MiB at n = 2 and N = 16, where
# one row is as large as each of the other N^{2n} arrays of the fiber.
_BLOCK_ELEMENTS = 2 ** 14


def twisted_fiber_product(fv: np.ndarray, gv: np.ndarray, lam: float,
                          grid: Grid) -> np.ndarray:
    """One central-frequency fiber of the group convolution.

    fv, gv: fiber arrays of shape (Nv,)*2n on the grid's v-axes.
    Returns Dv^{2n} sum_{v'} fv(v') gv(v - v') e^{-2 pi i lam x'.(y - y')}
    with true coordinates in the phase and the index wrap in v - v'.

    With FY, GY the y-transforms of fv e^{+2 pi i lam x.y} and of gv,

        out(x, y) = sum_{x'} e^{-2 pi i lam x'.y}
                    IFFT_eta[FY(x', eta) GY(x - x', eta)](y).

    The sum runs over blocks of x' rows, as many as fit in
    _BLOCK_ELEMENTS (x', x, eta) products and at least one. A gather
    through the offset table forms a block, one batched inverse FFT over
    eta takes it to y, and the phase table contracts it over x'.
    """
    n = grid.n
    ax0 = grid.axes[0]
    N = ax0.count
    M = N ** n  # lattice points of each half, x and y, of v
    v_shape = (N,) * (2 * n)
    y_axes = tuple(range(n, 2 * n))

    # phase[x', y] = e^{-2 pi i lam x'.y}; its conjugate twists fv
    phase = np.exp(-2j * np.pi * lam * _lattice_xy(grid)).reshape(M, M)
    fmod = fv * phase.conj().reshape(v_shape)
    g_sh = np.fft.ifftshift(gv, axes=tuple(range(2 * n)))
    GY = np.fft.fftn(g_sh, axes=y_axes).reshape(M, M)
    FY = np.fft.fftn(fmod, axes=y_axes).reshape(M, M)

    offset = offset_table(N, n)
    p_rows = max(1, _BLOCK_ELEMENTS // M ** 2)
    eta_axes = tuple(range(2, n + 2))
    out = np.zeros((M, M), dtype=complex)
    for p0 in range(0, M, p_rows):
        p = slice(p0, p0 + p_rows)
        prod = GY[offset[p]]  # [x', x, eta]
        prod *= FY[p, None, :]
        term = np.fft.ifftn(prod.reshape(prod.shape[:2] + (N,) * n),
                            axes=eta_axes).reshape(prod.shape)
        term *= phase[p, None, :]
        out += term.sum(axis=0)
    return out.reshape(v_shape) * ax0.spacing ** (2 * n)


def convolve(f: SampledField, g: SampledField) -> SampledField:
    """Group convolution (f * g)(h) = int f(h') g(h'^{-1} h) dh'.

    f's weighted t-transform is made in the array that becomes the output,
    and each of its fibers m is overwritten by the twisted product with
    g's fiber m, `central_slice(g, -lam_m)`, taken one at a time; the
    inverse t-transform runs in place. Above its inputs this holds one
    field and one fiber (about 1.30 field sizes). Each slice is a pass
    over g, so g's fibers cost O(N^{2n} Nt^2) where an FFT would cost
    O(N^{2n} Nt log Nt); per fiber that is O(N^{2n} Nt) against the
    twisted product's O(N^{3n} log N).
    """
    _require_group_layout(f)
    _require_side(f, "group")
    _require_side(g, "group")
    if f.grid != g.grid:
        raise ValueError("operands must share a grid")
    grid = f.grid
    t_ax = 2 * grid.n
    dt = grid.t_axis.spacing
    out = centered_dft(f.values, t_ax)
    out *= dt
    for m, lam in enumerate(grid.t_axis.freqs()):
        out[..., m] = twisted_fiber_product(out[..., m], central_slice(g, -lam),
                                            float(lam), grid)
    centered_fft_inplace(out, t_ax, inverse=True)
    out /= dt
    return SampledField(grid, out)


def lambda_filter(f: SampledField, window: LambdaWindow) -> SampledField:
    """Sharp cutoff to the central-frequency band of the window."""
    _require_group_layout(f)
    _require_side(f, "group")
    t_ax = 2 * f.grid.n
    spec = centered_dft(f.values, t_ax)
    spec *= window.contains(f.grid.t_axis.freqs())  # t is the last axis
    return f.with_values(centered_fft_inplace(spec, t_ax, inverse=True))


def central_frequencies(grid: Grid) -> np.ndarray:
    """The lambda lattice of a group grid (t-axis dual points)."""
    return grid.t_axis.freqs()


def central_slice(f: SampledField, lam: float) -> np.ndarray:
    """Dt sum_t f(x, y, t) e^{+2 pi i t lam} on the horizontal lattice.

    The e^{+...} kernel matches the representation's central character;
    it equals the forward t-transform evaluated at -lam. Shape (Nv,)*2n.
    t lam is reduced mod 1 before the exponential, so the far t samples
    carry no rounding of a large phase (on dyadic axes the reduction is
    exact).
    """
    _require_group_layout(f)
    _require_side(f, "group")
    grid = f.grid
    phase = np.exp(2j * np.pi * np.mod(grid.t_axis.points() * float(lam), 1.0))
    return grid.t_axis.spacing * np.tensordot(f.values, phase, axes=(2 * grid.n, 0))


def central_slice_energy(f: SampledField, lam: float) -> float:
    """L2 energy Dv^{2n} sum_{x,y} |central_slice(f, lam)|^2 of the slice
    at lam, the squared slice norm entering the Plancherel-type
    decomposition of ||f||^2 over central frequencies.
    """
    slice_vals = central_slice(f, lam)
    vw = f.grid.axes[0].spacing ** (2 * f.grid.n)
    return float(vw * np.sum(np.abs(slice_vals) ** 2))


# -- stock fields -------------------------------------------------------------

def gaussian_field(grid: Grid, v_rate=1.0, t_rate: float = 1.0,
                   modulation: float = 0.0, t_shift: float = 0.0) -> SampledField:
    """Separable Gaussian envelope exp(-pi a_i v_i^2) exp(-pi a_t (t-t0)^2)
    times the central character e^{2 pi i t lam0}.

    v_rate may be a scalar or one rate per horizontal axis. Each factor
    is computed on its axis's points and multiplied into the field along
    that axis, so no full-grid temporary is made.
    """
    n = grid.n
    rates = np.broadcast_to(np.asarray(v_rate, dtype=float), (2 * n,))
    vals = np.ones(grid.shape, dtype=complex)
    for i in range(2 * n):
        x = grid.axes[i].points().reshape((-1,) + (1,) * (2 * n - i))
        vals *= np.exp(-np.pi * rates[i] * x ** 2)
    t = grid.t_axis.points()  # the last axis, so it broadcasts as it is
    vals *= np.exp(-np.pi * t_rate * (t - t_shift) ** 2)
    if modulation != 0.0:
        vals *= np.exp(2j * np.pi * modulation * t)
    return SampledField(grid, vals)


def spike_field(grid: Grid) -> SampledField:
    """Weight-normalized lattice spike at the group identity."""
    vals = np.zeros(grid.shape, dtype=complex)
    vals[tuple(ax.count // 2 for ax in grid.axes)] = 1.0 / grid.weight
    return SampledField(grid, vals)
