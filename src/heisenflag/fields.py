"""Sampled scalar fields on centered grids, and the binary container format.

A SampledField couples a Grid with a complex value tensor and records, per
axis, whether that axis currently lives on the position or the frequency
lattice. Full position-side fields are "group side", full frequency-side
ones "dual side". The one mixed field is a symbol table read as a field
(`symbols.symbol_field`): its xi axes on the frequency side, its s axes on
the position side.

Band-limited evaluation treats the samples as coefficients of the unique
trigonometric interpolant. `eval_at` evaluates it, or one of its exact
partial derivatives, at scattered query rows; `eval_lattice` evaluates it
over the tensor lattice of one 1-d array per axis by sum factorization,
one interpolation matrix per axis (symbol tables are evaluated through
both). A query coordinate is outside the footprint
when it is < -H(1 + 4 eps) or >= H, where H is that axis's half-width on
its current side and eps the float64 machine epsilon; the slack below -H
keeps a lattice edge that went through rounding arithmetic (the inverse
frame map of a fiber) inside. Outside the footprint the interpolant is
periodic, which is meaningless for decaying data, so both entries take an
explicit out-of-footprint policy, applied axis by axis by `axis_footprint`:

* ``"wrap"``: raw periodic mode sum (flat spectra, spikes);
* ``"zero"``: return 0 where any coordinate is outside (decaying fields,
  default);
* ``"edge"``: clamp every coordinate onto the last lattice cell,
  [-H, H - d] with d the axis spacing, so a row's value never depends on
  the other rows of its batch (symbol resampling; callers count the
  outside rows with `out_of_footprint` or `axis_footprint`).

`write_blob` and `read_blob` hold the binary container (magic, JSON
header, raw complex128 payload) that `schrodinger.save_operator` writes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, centered_fft_inplace

_MAGIC = b"HFC1"


@dataclass
class SampledField:
    grid: Grid
    values: np.ndarray
    transformed: tuple[bool, ...] = field(default=())

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        self.values = vals
        if self.transformed == ():
            self.transformed = (False,) * self.grid.ndim
        self.transformed = tuple(bool(b) for b in self.transformed)
        if len(self.transformed) != self.grid.ndim:
            raise ValueError("one transformed flag per axis required")

    @property
    def side(self) -> str:
        if not any(self.transformed):
            return "group"
        if all(self.transformed):
            return "dual"
        return "mixed"

    @property
    def quad_weight(self) -> float:
        w = 1.0
        for ax, tr in zip(self.grid.axes, self.transformed):
            w *= ax.freq_spacing if tr else ax.spacing
        return w

    def axis_half_width(self, i: int) -> float:
        ax = self.grid.axes[i]
        return ax.freq_half_width if self.transformed[i] else ax.half_width

    def axis_spacing(self, i: int) -> float:
        ax = self.grid.axes[i]
        return ax.freq_spacing if self.transformed[i] else ax.spacing

    def with_values(self, values: np.ndarray) -> "SampledField":
        return SampledField(self.grid, values, self.transformed)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.quad_weight * np.sum(np.abs(self.values) ** 2)))

    # -- band-limited evaluation --------------------------------------------

    def axis_footprint(self, i: int, values: np.ndarray,
                       policy: str = "wrap") -> tuple[np.ndarray, np.ndarray]:
        """Coordinates to evaluate on axis i under `policy`, and the mask of
        `values` inside the half-open footprint [-H(1 + 4 eps), H)."""
        if policy not in ("wrap", "zero", "edge"):
            raise ValueError(f"unknown policy {policy!r}")
        h = self.axis_half_width(i)
        inside = (values >= -h * (1 + 4 * np.finfo(float).eps)) & (values < h)
        if policy == "edge":
            values = np.clip(values, -h, h - self.axis_spacing(i))
        return values, inside

    def out_of_footprint(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of query rows outside the footprint on any axis."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mask = np.zeros(pts.shape[0], dtype=bool)
        for i in range(self.grid.ndim):
            mask |= ~self.axis_footprint(i, pts[:, i])[1]
        return mask

    def _mode_data(self):
        """Coefficient tensor plus per-axis (modes, kernel sign)."""
        coeff = self.values.copy()
        modes, signs = [], []
        for i, ax in enumerate(self.grid.axes):
            if self.transformed[i]:
                # frequency samples: interpolate with e^{-2 pi i x q}
                centered_fft_inplace(coeff, i, inverse=True)
                modes.append(ax.points())
                signs.append(-1)
            else:
                centered_fft_inplace(coeff, i)
                coeff /= ax.count
                modes.append(ax.freqs())
                signs.append(+1)
        return coeff, modes, signs

    def eval_at(self, points: np.ndarray, policy: str = "zero",
                derivative=None) -> np.ndarray:
        """Trigonometric interpolation at arbitrary points, shape (m, ndim).

        `derivative`, one order k per axis, differentiates the interpolant
        exactly: each axis's interpolation row is scaled mode by mode by
        (sign 2 pi i mode)^k. Under "edge" a clamped row reads the
        derivative at its clamped point.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.grid.ndim:
            raise ValueError(f"points must have {self.grid.ndim} columns")
        cols, outside = [], np.zeros(pts.shape[0], dtype=bool)
        for i in range(self.grid.ndim):
            col, inside = self.axis_footprint(i, pts[:, i], policy)
            cols.append(col)
            outside |= ~inside
        coeff, modes, signs = self._mode_data()
        out = None
        for i, col in enumerate(cols):
            e = np.exp(signs[i] * 2j * np.pi * col[:, None] * modes[i][None, :])
            if derivative is not None and derivative[i]:
                e *= (signs[i] * 2j * np.pi * modes[i]) ** derivative[i]
            if out is None:
                out = np.tensordot(e, coeff, axes=(1, 0))
            else:
                out = np.einsum("mk,mk...->m...", e, out)
        out = np.asarray(out)
        if policy == "zero":
            out = np.where(outside, 0.0, out)
        return out

    def eval_lattice(self, axis_values, policy: str = "zero") -> np.ndarray:
        """Trigonometric interpolation over the tensor lattice of one 1-d
        array per axis; returns shape (len(axis_values[0]), ...).

        Equals `eval_at(flat_coords(axis_values), policy)` reshaped, but
        contracts one (M_i, N_i) interpolation matrix per axis into the
        coefficients (sum factorization): O(N^d M) work per axis instead of
        O(N^d) per lattice row. Under "zero" a coordinate outside the
        footprint zeroes its row of the matrix, hence every lattice row
        through it.
        """
        if len(axis_values) != self.grid.ndim:
            raise ValueError(f"need one value array per axis ({self.grid.ndim})")
        cols = []
        for i, v in enumerate(axis_values):
            v = np.asarray(v, dtype=float)
            if v.ndim != 1:
                raise ValueError("axis values must be 1-d arrays")
            cols.append(self.axis_footprint(i, v, policy))
        coeff, modes, signs = self._mode_data()
        out = coeff
        for i, (col, inside) in enumerate(cols):
            e = np.exp(signs[i] * 2j * np.pi * col[:, None] * modes[i][None, :])
            if policy == "zero":
                e[~inside] = 0.0
            # contract the leading axis and append the new one at the end,
            # so after ndim steps the axes are back in order
            out = np.tensordot(out, e, axes=(0, 1))
        return out


@dataclass(frozen=True)
class LambdaWindow:
    """Central-frequency band eps <= |lambda| <= 1/eps."""

    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"window parameter must lie in (0, 1], got {self.eps}")

    @property
    def lo(self) -> float:
        return self.eps

    @property
    def hi(self) -> float:
        return 1.0 / self.eps

    def contains(self, lam) -> np.ndarray:
        a = np.abs(np.asarray(lam, dtype=float))
        # half-open tolerance so bin centers on the boundary are kept
        return (a >= self.lo - 1e-12) & (a <= self.hi + 1e-12)


# -- containers ---------------------------------------------------------------

def write_blob(path, header: dict, payload: np.ndarray) -> None:
    """Binary container: magic, header length, JSON header, raw complex128."""
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    data = np.ascontiguousarray(payload, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        fh.write(data)


def read_blob(path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a container file (magic {magic!r})")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        payload = np.frombuffer(fh.read(), dtype="<c16").astype(complex)
    return header, payload
