"""Schrodinger representations, matrix coefficients, and field compression.

For lam != 0 the representation acts on states over R^n by

    (pi_h^lam u)(s) = e^{2 pi i lam t} e^{2 pi i sqrt|lam| y.s}
                      u(s + sgn(lam) sqrt|lam| x),      h = (x, y, t).

Shifts are realized spectrally (phase ramp between FFTs), so each pi_h is
exactly unitary on the grid and the group law holds up to the spectral
leakage of the states involved.

Compressing a field f against the representation gives the fiber operator
pi_f^lam = int f(h) pi_h^lam dh. Two independent routes are kept:

* ``route="quadrature"``: the weighted sum of pi_h over the group
  lattice, computed as the quantization (`symbols.kn_quantize`) of the
  x-lattice sum of the pi_h symbols, the y- and t-sums folded into the
  symbol's s-dependence. Accurate while sqrt|lam| L_state stays inside
  the field's horizontal dual band (the y-sum aliases beyond it).
* ``route="kernel"``: the integral kernel in closed form,

      omega(s, x') = |lam|^{-n/2} (F2^{-1} F3^{-1} f)(sgn(lam)(x'-s)/sqrt|lam|,
                                                      sqrt|lam| s, lam),

  evaluated by partial transforms plus band-limited interpolation, with
  out-of-footprint queries zeroed (correct for decaying spectra).

All pairings are bilinear: C(h) = int (pi_h f)(s) g(s) ds, no conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SampledField, write_blob, read_blob
from .grids import (Axis, Grid, LineGrid, centered_dft, centered_fft_inplace, flat_coords,
                    flat_phase, offset_table)
from .group import GroupPoint
from .transform import central_slice


@dataclass
class StateVector:
    grid: LineGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ValueError(f"state shape {vals.shape} != grid shape {self.grid.shape}")
        self.values = vals

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.weight * np.sum(np.abs(self.values) ** 2)))

    def with_values(self, values: np.ndarray) -> "StateVector":
        return StateVector(self.grid, np.asarray(values, dtype=complex).reshape(self.grid.shape))


@dataclass
class FiberOperator:
    """Dense operator on states of a LineGrid, tagged with its fiber."""

    lam: float | None
    grid: LineGrid
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        size = self.grid.size
        if m.shape != (size, size):
            raise ValueError(f"matrix shape {m.shape} != ({size}, {size})")
        self.matrix = m

    def apply(self, u: StateVector) -> StateVector:
        return u.with_values(self.matrix @ u.flat)

    def __matmul__(self, other: "FiberOperator") -> "FiberOperator":
        if self.grid != other.grid:
            raise ValueError("fiber grids differ")
        return FiberOperator(self.lam, self.grid, self.matrix @ other.matrix)


def hs_norm(a: FiberOperator) -> float:
    """Hilbert-Schmidt norm; equals the L2 norm of the integral kernel.

    The entries are scaled by 2^-k, 2^k near the largest, so the sum of
    squares stays in the float range; a power of two scales exactly, and
    in range the result is the unscaled norm bit for bit.
    """
    k = int(np.frexp(np.max(np.abs(a.matrix)))[1])
    return float(np.ldexp(np.linalg.norm(a.matrix * np.ldexp(1.0, -k)), k))


# -- point representations ----------------------------------------------------

def _shift_phase(grid: LineGrid, shift: np.ndarray) -> np.ndarray:
    """Frequency-side multiplier of the shift u(.) -> u(. + shift)."""
    return np.exp(2j * np.pi * (grid.flat_freqs() @ shift)).reshape(grid.shape)


def pi_point(h: GroupPoint, lam: float, u: StateVector) -> StateVector:
    """Apply pi_h^lam to a state."""
    lam = float(lam)
    if lam == 0.0:
        raise ValueError("representation parameter lambda must be nonzero")
    if h.n != u.grid.dim:
        raise ValueError(f"group rank {h.n} != state dimension {u.grid.dim}")
    grid = u.grid
    root = np.sqrt(abs(lam))
    shift = np.sign(lam) * root * h.x
    axes = tuple(range(grid.dim))
    spec = centered_dft(u.values, axes)
    spec *= _shift_phase(grid, shift)
    vals = centered_fft_inplace(spec, axes, inverse=True)
    ramp = np.exp(2j * np.pi * root * (grid.flat_points() @ h.y)).reshape(grid.shape)
    phase = np.exp(2j * np.pi * lam * h.t)
    return u.with_values(phase * ramp * vals)


# -- matrix coefficients ------------------------------------------------------

def c_fun(f: StateVector, g: StateVector) -> SampledField:
    """Reduced matrix coefficient c(x, y) = int e^{2 pi i y.u} f(u+x) g(u) du.

    Returned on the plain 2n-axis product grid (x-axes then y-axes) of the
    states' line grid; the u-shift wraps periodically. One gather through
    the lattice-offset table forms every f(u + x), then one product with
    the phase table sums over u.
    """
    if f.grid != g.grid:
        raise ValueError("states must share a grid")
    grid = f.grid
    N, dim = grid.count, grid.dim
    table = offset_table(N, dim)
    half = np.ravel_multi_index((N // 2,) * dim, grid.shape)  # the origin
    # table[:, half] holds the index of -x; row -x of the table holds u + x
    shifted = f.flat[table[table[:, half]]]  # [x, u] -> f(u + x)
    shifted *= g.flat
    E = flat_phase(grid.flat_points(), grid.flat_points(), +1)  # e^{2 pi i y.u}
    out = grid.weight * (shifted @ E).reshape(grid.shape + grid.shape)
    cgrid = Grid((Axis(N, grid.half_width),) * (2 * dim))
    # row block = x multi-index, column block = y multi-index
    return SampledField(cgrid, out)


def big_c_fun(f: StateVector, g: StateVector, lam: float, h: GroupPoint) -> complex:
    """Full matrix coefficient C(h) = int (pi_h^lam f)(s) g(s) ds (bilinear)."""
    moved = pi_point(h, lam, f)
    return complex(f.grid.weight * np.sum(moved.values * g.values))


# -- field compression --------------------------------------------------------

def _check_lambda(field: SampledField, lam: float) -> None:
    band = field.grid.t_axis.freq_half_width
    if not (0 < abs(lam) <= band):
        raise ValueError(
            f"lambda = {lam} outside the representable central band (0, {band}]"
        )


def _lambda_slice(field: SampledField, lam: float, s_targets: np.ndarray) -> np.ndarray:
    """g2(x, s) = Dv^n Dt sum_{y,t} f(x,y,t) e^{2 pi i t lam} e^{2 pi i y.(sqrt|lam| s)}.

    Returns a (Nv^n, m) array over flattened x lattice and target rows s.
    """
    grid = field.grid
    n = grid.n
    Nv = grid.axes[0].count
    g1 = central_slice(field, lam).reshape(Nv ** n, Nv ** n)  # rows x, cols y
    ys = flat_coords([ax.points() for ax in grid.y_axes])
    Ey = flat_phase(ys, np.sqrt(abs(lam)) * s_targets, +1)
    return grid.axes[0].spacing ** n * (g1 @ Ey)


def pi_field(field: SampledField, lam: float, grid: LineGrid,
             route: str = "kernel", policy: str = "zero") -> FiberOperator:
    """Compression pi_f^lam = int f(h) pi_h^lam dh as a FiberOperator."""
    if field.side != "group" or field.grid.group_dim is None:
        raise ValueError("pi_field expects a group-side field on a group grid")
    lam = float(lam)
    _check_lambda(field, lam)
    n = field.grid.n
    if grid.dim != n:
        raise ValueError(f"state dimension {grid.dim} != group rank {n}")
    if policy not in ("zero", "wrap"):
        raise ValueError(f"unknown policy {policy!r}")
    if route == "quadrature":
        return _pi_field_quadrature(field, lam, grid)
    if route == "kernel":
        return _pi_field_kernel(field, lam, grid, policy)
    raise ValueError(f"unknown route {route!r}")


def _pi_field_quadrature(field: SampledField, lam: float, grid: LineGrid) -> FiberOperator:
    """Quantization of vw sum_x g2(x, s) e^{2 pi i xi.(sgn(lam) sqrt|lam| x)},
    the symbol of the x-lattice sum vw sum_x g2(x, s) pi_(x,0,0)."""
    from .symbols import SymbolGrid, kn_quantize  # deferred: symbols imports this module
    g2 = _lambda_slice(field, lam, grid.flat_points())  # (Nv^n, size)
    xs = flat_coords([ax.points() for ax in field.grid.x_axes])
    root = np.sign(lam) * np.sqrt(abs(lam))
    vw = field.grid.axes[0].spacing ** field.grid.n
    a = vw * flat_phase(grid.flat_freqs(), root * xs, +1) @ g2  # [xi, s]
    return kn_quantize(SymbolGrid(lam, grid, a))


def _pi_field_kernel(field: SampledField, lam: float, grid: LineGrid,
                     policy: str) -> FiberOperator:
    fgrid = field.grid
    n = fgrid.n
    Nv = fgrid.axes[0].count
    s_flat = grid.flat_points()  # (size, n)
    g2 = _lambda_slice(field, lam, s_flat)  # (Nv^n, size)
    root = np.sqrt(abs(lam))
    if policy == "zero":
        # y-side evaluation beyond the horizontal dual band aliases; the
        # true transform is negligible there for decaying fields.
        ymax = fgrid.axes[0].freq_half_width
        bad_s = np.any(np.abs(root * s_flat) > ymax, axis=1)
        g2[:, bad_s] = 0.0
    # x-side spectrum of g2, then band-limited evaluation at
    # u = sgn(lam) (x' - s) / sqrt|lam|.
    spec = centered_dft(g2.reshape((Nv,) * n + (-1,)), tuple(range(n)))
    spec = spec.reshape(Nv ** n, -1) * fgrid.axes[0].spacing ** n
    xi = flat_coords([ax.freqs() for ax in fgrid.x_axes])  # horizontal dual lattice
    L = fgrid.axes[0].half_width
    if policy == "zero":
        # separable phases: the mode sum factors over (s, x') rows/columns
        sdotxi = np.sign(lam) / root * (s_flat @ xi.T)  # (size, Nv^n)
        row_phase = np.exp(-2j * np.pi * sdotxi)
        col_phase = np.exp(+2j * np.pi * sdotxi)
        M = fgrid.axes[0].freq_spacing ** n * ((row_phase * spec.T) @ col_phase.T)
        u = np.abs(s_flat[None, :, :] - s_flat[:, None, :]) / root
    else:
        # fold the displacement into the state circle first, so wrap terms
        # land where the quadrature route puts them
        period = 2.0 * grid.half_width
        d = s_flat[None, :, :] - s_flat[:, None, :]
        d = (d + period / 2.0) % period - period / 2.0
        u_signed = np.sign(lam) / root * d  # (size, size, n)
        # one horizontal mode at a time: the (size, size, Nv^n) phase
        # cube grows as size^2 Nv^n
        M = np.zeros((grid.size, grid.size), dtype=complex)
        for mode, row in zip(xi, spec):
            M += row[:, None] * np.exp(2j * np.pi * (u_signed @ mode))
        M *= fgrid.axes[0].freq_spacing ** n
        u = np.abs(u_signed)
    # either way the x-argument must stay on the field footprint
    M[np.any(u > L, axis=2)] = 0.0
    M *= abs(lam) ** (-n / 2)
    return FiberOperator(lam, grid, grid.weight * M)


def gramian(field: SampledField, lam: float, grid: LineGrid) -> float:
    """|lam|^n ||pi_f^lam||_HS^2, the central Plancherel density."""
    a = pi_field(field, lam, grid)
    return abs(lam) ** field.grid.n * hs_norm(a) ** 2


# -- containers ---------------------------------------------------------------

def save_operator(a: FiberOperator, path) -> None:
    header = {
        "kind": "fiber_operator",
        "version": 1,
        "lam": a.lam,
        "grid": {"count": a.grid.count, "half_width": a.grid.half_width,
                 "dim": a.grid.dim},
        "shape": list(a.matrix.shape),
    }
    write_blob(path, header, a.matrix.ravel())


def load_operator(path) -> FiberOperator:
    header, payload = read_blob(path)
    if header.get("kind") != "fiber_operator":
        raise ValueError(f"container holds {header.get('kind')!r}, expected 'fiber_operator'")
    g = header["grid"]
    grid = LineGrid(g["count"], g["half_width"], g["dim"])
    lam = header["lam"]
    return FiberOperator(None if lam is None else float(lam), grid,
                         payload.reshape(tuple(header["shape"])))
