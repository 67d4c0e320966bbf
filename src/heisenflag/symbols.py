"""Kohn-Nirenberg symbols on fibers and the flag seminorm scans.

A `Spectrum` is a symbol family a(w, lam) on R^{2n} x (R \\ {0}); sampling
it along the parabolic change of variables attached to a central frequency
produces a per-fiber `SymbolGrid`, which quantizes to a `FiberOperator`
and back without loss:

    (Op(a) u)(s) = int e^{2 pi i xi.s} a(xi, s) u-hat(xi) dxi.

On the centered lattices the quantization is an exact linear bijection
between symbol tables and matrices, so composition of operators induces a
sharp twisted product of symbols and the Frobenius and symbol L2 norms
coincide identically. Since Dx Dxi = 1/N and the half-widths cancel in
xi.(s - x'), the matrix depends on s - x' only through the lattice offset

    Op(a)[s, x'] = c[(s - x') mod N, s],
    c[d, s] = N^{-n} sum_m a(xi_m, s) e^{2 pi i (m - N/2).d / N},

one inverse FFT over the xi axes read through `grids.offset_table`, the
table the twisted group convolution gathers with; the symbol of a matrix
is the reverse gather and a forward FFT.

The seminorm scans at the bottom quantify membership in the flag class:
normalized derivatives

    |d_w^alpha d_lam^beta a| * ||w||^|alpha| * (||w||^2 + |lam|)^beta

are sampled over log-radial shells and dyadic central frequencies and
flagged when a shell blows up against the mid-range.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fields import SampledField
from .finitediff import partial_cloud
from .grids import Grid, LineGrid, flat_coords, offset_table
from .jets import evaluate, truncation
from .schrodinger import FiberOperator
from .transform import fourier, inverse_fourier


# -- symbol tables on one fiber ------------------------------------------------

@dataclass(frozen=True)
class SymbolGrid:
    """Sampled Kohn-Nirenberg symbol a(xi, s) on one fiber.

    values[i, j] = a(xi_i, s_j) with xi over the flat frequency lattice
    and s over the flat point lattice of `grid`.
    """

    lam: float
    grid: LineGrid
    values: np.ndarray

    def __post_init__(self):
        want = (self.grid.size, self.grid.size)
        if self.values.shape != want:
            raise ValueError(f"symbol table shape {self.values.shape} != {want}")

    def l2_norm(self) -> float:
        w = self.grid.weight * self.grid.freq_weight
        return float(np.sqrt(w * np.sum(np.abs(self.values) ** 2)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def with_values(self, values: np.ndarray) -> "SymbolGrid":
        return SymbolGrid(self.lam, self.grid, values)


def kn_quantize(a: SymbolGrid) -> FiberOperator:
    """Matrix of Op(a) on the state lattice; exact inverse of kn_symbol_of.

    One inverse FFT over the xi axes gives c[d, s], whose N^{-n} is the
    weight Dx^n Dxi^n, and Op(a)[s, x'] = c[(s - x') mod N, s].
    """
    g = a.grid
    xi_axes = tuple(range(g.dim))
    c = np.fft.ifftn(np.fft.ifftshift(a.values.reshape(g.shape + (g.size,)),
                                      axes=xi_axes), axes=xi_axes)
    c = c.reshape(g.size, g.size)
    offset = offset_table(g.count, g.dim)  # [x', s] -> (s - x') mod N
    mat = c[offset.T, np.arange(g.size)[:, None]]
    return FiberOperator(a.lam, g, mat)


def kn_symbol_of(op: FiberOperator) -> SymbolGrid:
    """Symbol table of a fiber operator; exact inverse of kn_quantize."""
    g = op.grid
    xi_axes = tuple(range(g.dim))
    offset = offset_table(g.count, g.dim)  # [d, s] -> (s - d) mod N
    c = op.matrix[np.arange(g.size), offset].reshape(g.shape + (g.size,))
    vals = np.fft.fftshift(np.fft.fftn(c, axes=xi_axes), axes=xi_axes)
    lam = 0.0 if op.lam is None else op.lam
    return SymbolGrid(lam, g, vals.reshape(g.size, g.size))


def unit_symbol(lam: float, grid: LineGrid) -> SymbolGrid:
    return SymbolGrid(lam, grid, np.ones((grid.size, grid.size), dtype=complex))


def twisted_product(a: SymbolGrid, b: SymbolGrid) -> SymbolGrid:
    """Symbol of Op(a) Op(b); associative by construction."""
    if a.grid != b.grid or a.lam != b.lam:
        raise ValueError("twisted product needs matching fiber and grid")
    return kn_symbol_of(kn_quantize(a) @ kn_quantize(b))


def symbol_field(a: SymbolGrid) -> SampledField:
    """The table as a field on the (xi, s) lattice: xi axes on the
    frequency side, s axes on the position side."""
    g = a.grid
    n = g.dim
    return SampledField(Grid((g.axis,) * (2 * n)),
                        a.values.reshape((g.count,) * (2 * n)),
                        (True,) * n + (False,) * n)


def evaluate_symbol(a: SymbolGrid, xi: np.ndarray, s: np.ndarray,
                    policy: str = "zero") -> np.ndarray:
    """Band-limited evaluation of a symbol table at off-lattice rows.

    Exact at lattice coincidences. `policy` decides out-of-footprint rows
    as in `SampledField.eval_at`: "zero" nulls them, "edge" clamps every
    row onto the table.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    if xi.shape != s.shape or xi.shape[1] != a.grid.dim:
        raise ValueError("coordinate blocks must both be (m, dim)")
    return symbol_field(a).eval_at(np.hstack([xi, s]), policy)


# -- symbol families over the flag covariables ---------------------------------

class Spectrum:
    """Symbol family a(w, lam), w in R^{2n}, callable on batched rows.

    Subclasses implement `_evaluate(W, lam)`. Families with an analytic
    form also implement `derivatives`; without it the scans fall back to
    finite differences. Whether a fiber is Hermitian is a property of its
    quantized matrix, which strict inversion measures, not of the family.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("group rank must be >= 1")
        self.n = n

    def _rows(self, W, lam) -> tuple:
        W = np.atleast_2d(np.asarray(W, dtype=float))
        if W.shape[1] != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} covariable columns")
        return W, np.broadcast_to(np.asarray(lam, dtype=float), (W.shape[0],))

    def __call__(self, W: np.ndarray, lam: np.ndarray | float) -> np.ndarray:
        return self._evaluate(*self._rows(W, lam))

    def _evaluate(self, W: np.ndarray, lam: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivatives(self, indices: Sequence, W: np.ndarray,
                    lam: np.ndarray | float) -> "np.ndarray | None":
        """Rows d_w^alpha d_lam^beta a(W, lam), one per (alpha, beta)."""
        return None

    def fiber_table(self, lam: float, grid: LineGrid) -> SymbolGrid:
        """Symbol table of the fiber at lam; table-backed families override it."""
        return fiber_symbol(self, lam, grid)


class SympySpectrum(Spectrum):
    """Symbol family given by an inline expression in w1..w_{2n} and lam.

    The text is parsed once straight into a tape of Taylor-jet rules
    (`heisenflag.jets`, grammar in `heisenflag.kernels`). One pass over the
    tape yields every derivative d_w^alpha d_lam^beta of a scan at once,
    and order 0 of the same pass is the family's value. |lam|
    differentiates to sign(lam): the delta terms of its higher derivatives
    live on the excluded lam = 0 plane. `derivative(alpha, beta)` returns a
    cached view onto that evaluator. Despite the name, no computer algebra
    runs and the package imports none; the test oracles rebuild a symbolic
    expression from the tape (`tests/oracles.py`).
    """

    def __init__(self, text: str, n: int):
        super().__init__(n)
        from .kernels import parse_tape     # deferred: kernels imports this module
        self._tape = parse_tape(text, n)
        self._views: dict = {}

    def derivatives(self, indices, W, lam):
        W, lam = self._rows(W, lam)
        indices = [(tuple(int(a) for a in alpha), int(beta)) for alpha, beta in indices]
        tr = truncation(2 * self.n, max((sum(a) for a, _ in indices), default=0),
                        max((b for _, b in indices), default=0))
        # rows off the family's domain come out NaN or inf, and the scans
        # report them `non-finite`; numpy need not warn about each one
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            jet = evaluate(self._tape, tr, [*W.T, lam])
        rows = [tr.index[(*alpha, beta)] for alpha, beta in indices]
        return (tr.factorials[rows, None] * jet[rows]).astype(complex)

    def _evaluate(self, W, lam):
        return self.derivatives([((0,) * 2 * self.n, 0)], W, lam)[0]

    def derivative(self, alpha: Sequence[int], beta: int) -> Spectrum:
        alpha, beta = tuple(int(a) for a in alpha), int(beta)
        if not any(alpha) and not beta:
            return self
        view = self._views.get((alpha, beta))
        if view is None:
            view = self._views[alpha, beta] = _DerivativeView(self, alpha, beta)
        return view


class _DerivativeView(Spectrum):
    """d_w^alpha d_lam^beta of a `SympySpectrum`, read off its jet pass."""

    def __init__(self, family: SympySpectrum, alpha: tuple, beta: int):
        super().__init__(family.n)
        self._family, self._index = family, (alpha, beta)

    def _evaluate(self, W, lam):
        return self._family.derivatives([self._index], W, lam)[0]


# -- fiber sampling ------------------------------------------------------------

def fiber_axes(lam: float, grid: LineGrid) -> list:
    """Per-axis covariables of the fiber table at lam: n copies of
    -sgn(lam) sqrt|lam| xi, then n copies of -sqrt|lam| s."""
    root = np.sqrt(abs(lam))
    n = grid.dim
    return [-np.sign(lam) * root * grid.freqs()] * n + [-root * grid.points()] * n


def fiber_symbol(spec: Spectrum, lam: float, grid: LineGrid) -> SymbolGrid:
    """Sample the family along the parabolic frame of the fiber at lam."""
    if lam == 0.0:
        raise ValueError("fiber symbols need a nonzero central frequency")
    if grid.dim != spec.n:
        raise ValueError(f"state dimension {grid.dim} != group rank {spec.n}")
    vals = spec(flat_coords(fiber_axes(lam, grid)), -lam)
    return SymbolGrid(lam, grid, vals.reshape(grid.size, grid.size))


def fiber_symbol_of_field(field: SampledField, lam: float, grid: LineGrid,
                          policy: str = "zero") -> SymbolGrid:
    """Fiber symbol read off a sampled kernel: transform, then interpolate.

    The group-side samples are pushed to the full dual lattice and the
    band-limited interpolant is evaluated over the lattice of parabolic
    frame points (w, -lam), with `policy` deciding out-of-footprint rows.
    """
    if field.side != "group" or field.grid.group_dim is None:
        raise ValueError("expected a group-side field on a group grid")
    if grid.dim != field.grid.n:
        raise ValueError("state dimension != group rank")
    vals = fourier(field).eval_lattice(fiber_axes(lam, grid) + [np.array([-lam])],
                                       policy)
    return SymbolGrid(lam, grid, vals.reshape(grid.size, grid.size))


def field_of_spectrum(spec: Spectrum, grid: Grid) -> SampledField:
    """Group-side kernel field whose Euclidean transform samples the family.

    Bounded multipliers give distribution kernels; on the lattice that is
    just the inverse transform of the sampled table. The family is not
    defined on the lam = 0 plane, where multipliers like the Riesz ratio
    have no limit at w = 0; non-finite samples there are zeroed, which
    picks one representative of the same bounded class.
    """
    if grid.group_dim is None:
        raise ValueError("expected a Heisenberg-layout grid")
    if grid.n != spec.n:
        raise ValueError(f"grid rank {grid.n} != group rank {spec.n}")
    rows = flat_coords([ax.freqs() for ax in grid.axes])
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = spec(rows[:, :-1], rows[:, -1])
    vals = np.nan_to_num(vals, nan=0.0, posinf=0.0, neginf=0.0)
    dual = SampledField(grid, vals.reshape(grid.shape), (True,) * grid.ndim)
    return inverse_fourier(dual)


# -- flag seminorm scans -------------------------------------------------------

@dataclass(frozen=True)
class SeminormRow:
    alpha: tuple
    beta: int
    lam: float
    shell_radii: tuple
    shell_sup: tuple
    verdict: str

    @property
    def sup(self) -> float:
        """Largest shell sup; NaN when any shell is not finite."""
        finite = all(map(math.isfinite, self.shell_sup))
        return max(self.shell_sup) if finite else math.nan


@dataclass
class SeminormReport:
    rows: list = field(default_factory=list)
    blowup_factor: float = 8.0

    @property
    def overall_ok(self) -> bool:
        return all(r.verdict == "ok" for r in self.rows)

    def sym0(self) -> dict:
        """Best-constant table: sup of each (alpha, beta) over all fibers,
        NaN when any of its rows is NaN."""
        out: dict = {}
        for r in self.rows:
            key = (r.alpha, r.beta)
            out[key] = float(np.maximum(out.get(key, 0.0), r.sup))
        return out

    def to_json(self) -> str:
        """Sorted keys, indented, one row per line. Each row goes through
        the C encoder: an `indent` makes json use its pure-Python one."""
        head = {"blowup_factor": self.blowup_factor, "overall_ok": self.overall_ok}
        rows = ",\n".join("    " + json.dumps({
            "alpha": list(r.alpha),
            "beta": r.beta,
            "lam": r.lam,
            "sup": r.sup,
            "verdict": r.verdict,
            "shell_radii": list(r.shell_radii),
            "shell_sup": list(r.shell_sup),
        }, sort_keys=True) for r in self.rows)
        return ("{\n" + "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n"
                                for k, v in sorted(head.items()))
                + f'  "rows": [\n{rows}\n  ]\n}}')

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["alpha", "beta", "lam", "sup", "verdict"])
        for r in self.rows:
            w.writerow(["+".join(map(str, r.alpha)), r.beta, r.lam,
                        f"{r.sup:.6e}", r.verdict])
        return buf.getvalue()


def _shell_points(n: int, radius: float, directions: int) -> np.ndarray:
    # evenly spread directions on the (2n-1)-sphere; deterministic
    if n == 1:
        th = np.linspace(0.0, 2 * np.pi, directions, endpoint=False) + 0.39
        return radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    rng = np.random.default_rng(directions + 7 * n)
    v = rng.standard_normal((directions, 2 * n))
    return radius * v / np.linalg.norm(v, axis=1, keepdims=True)


def _normalized_derivative(spec: Spectrum, vals: "np.ndarray | None",
                           alpha, beta, lam, pts) -> np.ndarray:
    """Normalized derivative at shell blocks `pts` of shape (shells, m, 2n).

    `vals` holds the analytic derivative at the flattened rows; without
    it, finite differences of `spec` step each shell block with its own
    spacing, scaled to the block's radius.
    """
    shells, m, dim = pts.shape
    if vals is not None:
        vals = vals.reshape(shells, m)
    else:
        def joint(q):
            return spec(q[:, :-1], q[:, -1])

        blocks = []
        for block in pts:
            r = float(np.linalg.norm(block[0]))
            h_w = 0.02 * (r + np.sqrt(abs(lam)))
            # the lam step must stay clear of the |lam| kink at zero
            h = [h_w] * dim + [0.02 * abs(lam)]
            q = np.concatenate([block, np.full((m, 1), lam)], axis=1)
            blocks.append(partial_cloud(joint, q, (*alpha, beta), h))
        vals = np.stack(blocks)
    r = np.linalg.norm(pts, axis=2)
    return np.abs(vals) * r ** sum(alpha) * (r ** 2 + abs(lam)) ** beta


def default_multi_indices(n: int) -> list:
    """Derivative multi-indices (alpha, beta) scanned by default."""
    out = [((0,) * 2 * n, 1)]
    for i in range(2 * n):
        e = [0] * 2 * n
        e[i] = 1
        out.append((tuple(e), 0))
        out.append((tuple(e), 1))
        e2 = list(e)
        e2[i] = 2
        out.append((tuple(e2), 0))
    return out


def flag_estimate_report(spec: Spectrum,
                         indices: "Sequence | None" = None,
                         lam_values: "Sequence | None" = None,
                         rmin: float = 0.01, rmax: float = 100.0,
                         shells: int = 13, directions: int = 12,
                         blowup_factor: float = 8.0) -> SeminormReport:
    """Scan normalized flag derivatives over shells and dyadic fibers.

    A row fails near the flag boundary when the innermost shell exceeds
    the mid shell by `blowup_factor`, and fails at infinity when the
    outermost shell does. A row with a shell sup that is not finite fails
    as `non-finite`: every comparison with NaN is false.
    """
    if indices is None:
        indices = default_multi_indices(spec.n)
    if lam_values is None:
        lam_values = [s * 2.0 ** j for j in range(-3, 4) for s in (1, -1)]
    radii = np.geomspace(rmin, rmax, shells)
    pts = np.stack([_shell_points(spec.n, r, directions) for r in radii])
    indices, lam_values = list(indices), list(lam_values)
    # one jet pass per lam gives every index; rows stay ordered by index
    table = np.empty((len(indices), len(lam_values), shells))
    for j, lam in enumerate(lam_values):
        derived = spec.derivatives(indices, pts.reshape(-1, 2 * spec.n), lam)
        for i, (alpha, beta) in enumerate(indices):
            table[i, j] = np.max(_normalized_derivative(
                spec, None if derived is None else derived[i],
                alpha, beta, lam, pts), axis=1)
    report = SeminormReport(blowup_factor=blowup_factor)
    for (alpha, beta), row in zip(indices, table):
        for lam, shell_sup in zip(lam_values, row):
            sups = [float(v) for v in shell_sup]
            # reference over the middle third: a single zero crossing at one
            # mid radius must not trip the ratio test
            core = sups[len(sups) // 3:2 * len(sups) // 3 + 1]
            ref = max(max(core), 1e-300)
            # a bounded row may legitimately dwarf the mid shells when its
            # plateau sets in late (around ||w||^2 ~ |lam|), so a flag also
            # needs the endmost shells to still be climbing
            step = np.sqrt(radii[1] / radii[0])
            finite = bool(np.all(np.isfinite(sups)))
            flags = [] if finite else ["non-finite"]
            if finite and (sups[0] >= blowup_factor * ref and sups[0] > 1e-12
                           and sups[0] >= step * sups[1]):
                flags.append("origin-blowup")
            if finite and (sups[-1] >= blowup_factor * ref and sups[-1] > 1e-12
                           and sups[-1] >= step * sups[-2]):
                flags.append("growth-at-infinity")
            report.rows.append(SeminormRow(
                alpha=tuple(alpha), beta=int(beta), lam=float(lam),
                shell_radii=tuple(float(r) for r in radii),
                shell_sup=tuple(sups),
                verdict="+".join(flags) if flags else "ok",
            ))
    return report
