"""Centered periodic grids and the discrete Fourier conventions built on them.

Every axis discretizes a symmetric interval [-L, L) with N = 2^k points
x_j = (j - N/2) Dx, Dx = 2L/N. The reciprocal axis carries the frequencies
zeta_m = (m - N/2) Dzeta with Dzeta = 1/(2L), so the dual half-width is
N/(4L) and dual-of-dual returns the original axis.

`centered_dft` evaluates the plain sum

    F[m] = sum_j f[j] exp(-2 pi i x_j zeta_m)

as numpy's plain FFT between sign flips, on one complex copy of the
input (`centered_fft_inplace`); quadrature weights are applied by the
callers. With the self-dual choice (2L)^2 = N the position and
frequency lattices coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _is_pow2(k: int) -> bool:
    # a float such as a JSON 64.0 is not a point count
    return isinstance(k, (int, np.integer)) and k >= 2 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class Axis:
    """One periodic axis: N points over [-half_width, half_width)."""

    count: int
    half_width: float

    def __post_init__(self):
        if not _is_pow2(self.count):
            raise ValueError(f"axis count must be a power of two >= 2, got {self.count}")
        if not (self.half_width > 0 and np.isfinite(self.half_width)):
            raise ValueError(f"bad axis half-width {self.half_width}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.count

    @property
    def freq_spacing(self) -> float:
        return 1.0 / (2.0 * self.half_width)

    @property
    def freq_half_width(self) -> float:
        return self.count / (4.0 * self.half_width)

    def points(self) -> np.ndarray:
        return (np.arange(self.count) - self.count // 2) * self.spacing

    def freqs(self) -> np.ndarray:
        return (np.arange(self.count) - self.count // 2) * self.freq_spacing


@dataclass(frozen=True)
class Grid:
    """Tensor grid. For group layouts axes run x_1..x_n, y_1..y_n, t.

    group_dim is n for a Heisenberg layout (2n + 1 axes) and None for a
    plain product grid (e.g. the (x, y) domain of matrix coefficients).
    """

    axes: tuple[Axis, ...]
    group_dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if self.group_dim is not None:
            n = self.group_dim
            if n < 1 or len(self.axes) != 2 * n + 1:
                raise ValueError(
                    f"group layout needs 2n + 1 axes, got {len(self.axes)} for n = {n}"
                )
            vx, vy = self.axes[:n], self.axes[n : 2 * n]
            if vx != vy:
                raise ValueError("x and y axes must match in a group layout")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    @property
    def n(self) -> int:
        if self.group_dim is None:
            raise ValueError("not a group-layout grid")
        return self.group_dim

    @property
    def t_axis(self) -> Axis:
        return self.axes[2 * self.n]

    @property
    def x_axes(self) -> tuple[Axis, ...]:
        return self.axes[: self.n]

    @property
    def y_axes(self) -> tuple[Axis, ...]:
        return self.axes[self.n : 2 * self.n]

    @property
    def weight(self) -> float:
        """Quadrature weight of one cell, prod of axis spacings."""
        w = 1.0
        for ax in self.axes:
            w *= ax.spacing
        return w


def group_grid(n: int, v_count: int, v_half_width: float,
               t_count: int, t_half_width: float) -> Grid:
    """Standard H^n layout: 2n identical v-axes followed by the t-axis."""
    v = Axis(v_count, v_half_width)
    return Grid((v,) * (2 * n) + (Axis(t_count, t_half_width),), group_dim=n)


@dataclass(frozen=True)
class LineGrid:
    """Grid for states on R^n: the same axis replicated n times."""

    count: int
    half_width: float
    dim: int = 1

    def __post_init__(self):
        if not _is_pow2(self.count):
            raise ValueError(f"count must be a power of two >= 2, got {self.count}")
        if not (self.half_width > 0 and np.isfinite(self.half_width)):
            raise ValueError(f"bad half-width {self.half_width}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @property
    def axis(self) -> Axis:
        return Axis(self.count, self.half_width)

    @property
    def spacing(self) -> float:
        return self.axis.spacing

    @property
    def freq_spacing(self) -> float:
        return self.axis.freq_spacing

    @property
    def freq_half_width(self) -> float:
        return self.axis.freq_half_width

    @property
    def size(self) -> int:
        return self.count ** self.dim

    @property
    def weight(self) -> float:
        return self.spacing ** self.dim

    @property
    def freq_weight(self) -> float:
        return self.freq_spacing ** self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.count,) * self.dim

    def points(self) -> np.ndarray:
        return self.axis.points()

    def freqs(self) -> np.ndarray:
        return self.axis.freqs()

    def flat_points(self) -> np.ndarray:
        """All grid points as an array of shape (count^dim, dim), row-major."""
        return flat_coords([self.points()] * self.dim)

    def flat_freqs(self) -> np.ndarray:
        return flat_coords([self.freqs()] * self.dim)


def flat_coords(axis_values) -> np.ndarray:
    """Rows of the tensor lattice of one 1-d array per axis, row-major.

    Returns shape (prod of lengths, number of axes); column i runs over
    axis_values[i], the last column fastest.
    """
    mesh = np.meshgrid(*axis_values, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@lru_cache(maxsize=16)
def offset_table(N: int, n: int) -> np.ndarray:
    """Flat lattice index of (x - x') mod N per axis, shape (N^n, N^n).

    Entry [x', x] is the row-major index of the offset x - x' over n axes
    of N points, wrapped axis by axis; read as [d, x] it is the index of
    x - d. Cached and read-only.
    """
    k = np.indices((N,) * n).reshape(n, -1)  # [axis, flat point]
    diff = (k[:, None, :] - k[:, :, None]) % N  # [axis, x', x]
    table = np.ravel_multi_index(tuple(diff), (N,) * n)
    table.flags.writeable = False
    return table


def self_dual_line(count: int, dim: int = 1) -> LineGrid:
    """LineGrid whose frequency lattice equals its point lattice."""
    return LineGrid(count, float(np.sqrt(count)) / 2.0, dim)


# -- centered DFT kernels ---------------------------------------------------

def _negate_alternate(a: np.ndarray, axis: int, start: int) -> None:
    """Negate a at indices start, start + 2, ... along axis, in place."""
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, None, 2)
    view = a[tuple(index)]
    np.negative(view, out=view)


def centered_fft_inplace(a: np.ndarray, axes, inverse: bool = False) -> np.ndarray:
    """centered_dft (or centered_idft) of the complex array a, written into a.

    On an even axis of N points x_j zeta_m = (j - N/2)(m - N/2)/N, so

        e^{-2 pi i x_j zeta_m} = (-1)^j (-1)^m (-1)^{N/2} e^{-2 pi i j m / N}:

    the centered transform is the plain FFT with the input negated at odd
    j and the output at m + N/2 odd. Negation is exact, so a one-axis
    transform equals the shift-copy form (circular shifts by N/2 around
    the FFT) bit for bit, without the two copies. Returns a.
    """
    axes = tuple(np.atleast_1d(axes))
    for ax in axes:
        if a.shape[ax] % 2:
            raise ValueError(f"centered transforms need even axes, got {a.shape[ax]}")
        _negate_alternate(a, ax, 1)
    (np.fft.ifftn if inverse else np.fft.fftn)(a, axes=axes, out=a)
    for ax in axes:
        _negate_alternate(a, ax, 1 - (a.shape[ax] // 2) % 2)
    return a


def centered_dft(values: np.ndarray, axes) -> np.ndarray:
    """sum_j f[j] e^{-2 pi i x_j zeta_m} along the given axes (no weights)."""
    return centered_fft_inplace(np.array(values, dtype=complex), axes)


def centered_idft(values: np.ndarray, axes) -> np.ndarray:
    """Inverse of centered_dft (includes the 1/N normalization)."""
    return centered_fft_inplace(np.array(values, dtype=complex), axes, inverse=True)


def flat_phase(targets: np.ndarray, modes: np.ndarray, sign: int) -> np.ndarray:
    """exp(sign 2 pi i targets . modes) for (m, d) targets and (k, d) modes."""
    return np.exp(sign * 2j * np.pi * (targets @ modes.T))
