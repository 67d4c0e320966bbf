"""Fiberwise inversion of flag symbols and the reconstructed inverse family.

The pipeline samples a symbol family along each requested fiber, quantizes,
and inverts the matrix through one SVD. That SVD gives one `Fiber` record
per fiber: the inverse B plus its smallest singular value and condition
number. `InversionResult.fibers` holds these records, and the derivative
scan, the glued inverse family and the verification read them instead of
factorizing a fiber again; the record keeps no A or symbol table, so its
memory stays one matrix per fiber. Together with the two-sided residuals
the diagnostics decide whether the family is uniformly invertible: a
fiber can be perfectly invertible as a matrix while its symbol vanishes
on the flag boundary, so uniformity is judged against an absolute
singular-value floor rather than the condition limit alone.

The inverse tables read off the records glue to a new symbol family on
covariable space through the inverse parabolic frame map; that family
supports the same seminorm scans and derivative identities as the input,
which is the numerical content of inverse-closedness.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .finitediff import stencil
from .grids import LineGrid
from .schrodinger import FiberOperator, gramian, hs_norm, save_operator
from .transform import convolve
from .symbols import (
    Spectrum,
    SymbolGrid,
    evaluate_symbol,
    fiber_axes,
    kn_quantize,
    kn_symbol_of,
    symbol_field,
)

# Elliptic catalog fibers sit at sigma_min ~ 1, while a symbol vanishing at
# a phase-space point bottoms out near the quantization scale (the ground
# level of the oscillator that osculates its zero, ~ 0.13 under this Fourier
# convention, independent of the lattice). The floor splits the two regimes.
SIGMA_FLOOR = 0.25


class FiberInversionError(RuntimeError):
    """A fiber failed the hard numerical invertibility gate."""

    def __init__(self, lam: float, sigma_min: float, cond: float, limit: float):
        self.lam, self.sigma_min, self.cond, self.limit = lam, sigma_min, cond, limit
        super().__init__(
            f"fiber at lam={lam:g}: cond={cond:.3e} exceeds limit {limit:.3e} "
            f"(sigma_min={sigma_min:.3e})")


class SymmetryError(ValueError):
    """A strict inversion was asked to invert a non-Hermitian fiber."""


class Fiber(NamedTuple):
    """One inverted fiber: the inverse B and the SVD diagnostics of A."""

    b: FiberOperator
    sigma_min: float
    cond: float


def invert_fiber(a: FiberOperator, cond_limit: float = 1e8,
                 strict: bool = False) -> Fiber:
    """Invert one fiber operator; returns Fiber(inverse, sigma_min, cond).

    One SVD A = U diag(sigma) V* gives both the diagnostics and the inverse
    B = V diag(1/sigma) U*, whose residual grows like cond * eps (solving
    the normal equations A*A would square that). `strict` first requires a
    Hermitian matrix.
    """
    m = a.matrix
    if strict:
        skew = np.linalg.norm(m - m.conj().T) / max(np.linalg.norm(m), 1e-300)
        if skew > 1e-10:
            raise SymmetryError(
                f"fiber at lam={a.lam:g} is not Hermitian "
                f"(relative skew {skew:.3e})")
    u, sv, vh = np.linalg.svd(m)
    sigma_min = float(sv[-1])
    cond = float(sv[0] / sv[-1]) if sigma_min > 0 else np.inf
    if not np.isfinite(cond) or cond > cond_limit:
        raise FiberInversionError(a.lam, sigma_min, cond, cond_limit)
    inv = (vh.conj().T / sv) @ u.conj().T
    return Fiber(FiberOperator(a.lam, a.grid, inv), sigma_min, cond)


def neumann_inverse(a: SymbolGrid, k_max: int = 20) -> tuple[SymbolGrid, float]:
    """Series inverse of a = 1 + p via sum (-1)^k Op(p)^k, with tail bound.

    Independent of the solve-based route; the bound is operator-norm
    geometric and infinite when the series cannot converge.
    """
    p = kn_quantize(a.with_values(a.values - 1.0)).matrix
    rho = float(np.linalg.norm(p, 2))
    total = np.eye(p.shape[0], dtype=complex)
    term = np.eye(p.shape[0], dtype=complex)
    for _ in range(k_max):
        term = -term @ p
        total += term
    tail = rho ** (k_max + 1) / (1.0 - rho) if rho < 1.0 else np.inf
    return kn_symbol_of(FiberOperator(a.lam, a.grid, total)), tail


@dataclass(frozen=True)
class FiberRow:
    lam: float
    sigma_min: float
    sigma_max: float
    cond: float
    symbol_min: float
    inverse_op_norm: float
    inverse_hs_norm: float
    residual_right: float
    residual_left: float
    residual_sup: float
    invertible: bool


@dataclass
class InversionResult:
    grid: LineGrid
    cond_limit: float
    sigma_floor: float
    spec: Spectrum
    rows: list = field(default_factory=list)
    fibers: dict = field(default_factory=dict)     # lam -> Fiber

    @property
    def lam_values(self) -> list:
        return [r.lam for r in self.rows]

    @property
    def uniformly_invertible(self) -> bool:
        return all(r.invertible for r in self.rows)

    @property
    def uniform_bound(self) -> float:
        return max(r.inverse_op_norm for r in self.rows)

    @property
    def worst_residual(self) -> float:
        return max(max(r.residual_right, r.residual_left) for r in self.rows)

    def summary(self) -> dict:
        return {
            "cond_limit": self.cond_limit,
            "sigma_floor": self.sigma_floor,
            "uniformly_invertible": self.uniformly_invertible,
            "uniform_bound": self.uniform_bound,
            "worst_residual": self.worst_residual,
            "fibers": [
                {
                    "lam": r.lam,
                    "sigma_min": r.sigma_min,
                    "sigma_max": r.sigma_max,
                    "cond": r.cond,
                    "symbol_min": r.symbol_min,
                    "inverse_op_norm": r.inverse_op_norm,
                    "inverse_hs_norm": r.inverse_hs_norm,
                    "residual_right": r.residual_right,
                    "residual_left": r.residual_left,
                    "residual_sup": r.residual_sup,
                    "invertible": r.invertible,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["lam", "sigma_min", "cond", "symbol_min", "inverse_op_norm",
                    "residual_right", "residual_left", "residual_sup", "invertible"])
        for r in self.rows:
            w.writerow([r.lam, f"{r.sigma_min:.9e}", f"{r.cond:.9e}",
                        f"{r.symbol_min:.9e}", f"{r.inverse_op_norm:.9e}",
                        f"{r.residual_right:.9e}", f"{r.residual_left:.9e}",
                        f"{r.residual_sup:.9e}", int(r.invertible)])
        return buf.getvalue()

    def spectrum(self) -> "ReconstructedSpectrum":
        return ReconstructedSpectrum(self.spec, self.grid, self.fibers,
                                     self.cond_limit)

    def save(self, outdir, operators: bool = False) -> list:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        p = outdir / "inversion.json"
        p.write_text(self.to_json() + "\n")
        written.append(p)
        p = outdir / "fibers.csv"
        p.write_text(self.to_csv())
        written.append(p)
        if operators:
            for lam, fiber in sorted(self.fibers.items()):
                p = outdir / f"inverse_fiber_{lam:+.6f}.hfc"
                save_operator(fiber.b, p)
                written.append(p)
        return written


def invert_flag(spec, lam_values, grid: LineGrid, cond_limit: float = 1e8,
                sigma_floor: float = SIGMA_FLOOR,
                strict: bool = False) -> InversionResult:
    """Invert every requested fiber and collect the diagnostics.

    A fiber counts as invertible when its smallest singular value clears
    `sigma_floor`; the condition limit only guards the arithmetic. The two
    gates differ exactly on symbols that vanish somewhere: those stay
    numerically invertible at any lattice size but have no inverse in the
    symbol class, and the floor is what detects them. `strict` requires a
    family declared symmetric and Hermitian fibers.
    """
    if strict and not getattr(spec, "symmetric", False):
        raise SymmetryError(
            "strict inversion needs a family declared symmetric; "
            "this one is not")
    out = InversionResult(grid=grid, cond_limit=cond_limit,
                          sigma_floor=sigma_floor, spec=spec)
    eye = np.eye(grid.size)
    for lam in lam_values:
        lam = float(lam)
        table = spec.fiber_table(lam, grid)
        a = kn_quantize(table)
        fiber = invert_fiber(a, cond_limit, strict)
        b, sigma_min, cond = fiber
        ab = a.matrix @ b.matrix
        rr = np.linalg.norm(ab - eye, 2)
        rl = np.linalg.norm(b.matrix @ a.matrix - eye, 2)
        prod = kn_symbol_of(FiberOperator(lam, grid, ab))
        out.rows.append(FiberRow(
            lam=lam, sigma_min=sigma_min, sigma_max=sigma_min * cond, cond=cond,
            symbol_min=float(np.min(np.abs(table.values))),
            inverse_op_norm=1.0 / sigma_min, inverse_hs_norm=hs_norm(b),
            residual_right=float(rr), residual_left=float(rl),
            residual_sup=float(np.max(np.abs(prod.values - 1.0))),
            invertible=sigma_min >= sigma_floor))
        out.fibers[lam] = fiber
    return out


def uniform_invertibility_report(result: InversionResult) -> dict:
    """Per-fiber singular values and the frame-constant summary of a run.

    The minimum over fibers is the empirical lower frame constant: the
    factor c in ||K * f||_2 >= c ||f||_2 once the fibers are glued back.
    A view of `result.rows`; nothing is quantized or factorized here.
    """
    rows = [{"lam": r.lam, "sigma_min": r.sigma_min, "sigma_max": r.sigma_max,
             "inverse_norm": r.inverse_op_norm, "symbol_min": r.symbol_min}
            for r in result.rows]
    return {
        "rows": rows,
        "frame_constant": min(r.sigma_min for r in result.rows),
        "max_inverse_norm": result.uniform_bound,
    }


def gramian_lower_bound(kernel_field, test_field, lam_values, c: float) -> dict:
    """Bin-wise check of G_{K*f}(lam) >= c^2 G_f(lam) on occupied bins.

    `c` is the frame constant from the singular-value table; bins where
    the test field carries no energy are skipped (both sides vanish).
    """
    conv = convolve(kernel_field, test_field)
    grid = LineGrid(test_field.grid.axes[0].count,
                    test_field.grid.axes[0].half_width,
                    test_field.grid.n)
    rows = []
    energies = {}
    for lam in lam_values:
        lam = float(lam)
        if lam == 0.0:
            continue
        energies[lam] = gramian(test_field, lam, grid)
    floor = 1e-12 * max(energies.values())
    for lam, gf in energies.items():
        if gf < floor:
            continue
        gkf = gramian(conv, lam, grid)
        rows.append({
            "lam": lam,
            "gram_f": gf,
            "gram_conv": gkf,
            "margin": (gkf - c * c * gf) / gf,
        })
    return {
        "rows": rows,
        "worst_margin": min(r["margin"] for r in rows),
        "ok": all(r["margin"] >= -1e-8 for r in rows),
    }


def _table_coordinates(w_xi, w_s, mu: float) -> tuple:
    """Inverse parabolic frame map: covariables (w_xi, w_s) at central
    frequency mu to the (xi, s) coordinates of the fiber table at -mu."""
    root = np.sqrt(abs(mu))
    return np.sign(mu) * w_xi / root, -w_s / root


class ReconstructedSpectrum(Spectrum):
    """Inverse family glued from per-fiber inverse tables.

    Evaluation at (w, mu) looks up the fiber at -mu through the inverse
    parabolic frame map. The tables are read off the `fibers` records of
    an inversion run; a fiber missing there is inverted on demand, so the
    family supports finite differencing in the central frequency. Tables
    are cached. Rows that leave a table footprint are clamped ("edge")
    and counted in `clipped_rows`. `fiber_table` samples a whole fiber
    lattice of the family through the same frame map, one axis at a time.
    """

    def __init__(self, spec: Spectrum, grid: LineGrid, fibers: dict,
                 cond_limit: float = 1e8):
        super().__init__(grid.dim, symmetric=False)
        self.base = spec
        self.grid = grid
        self.fibers = fibers
        self.cond_limit = cond_limit
        self.clipped_rows = 0
        self._tables: dict[float, SymbolGrid] = {}

    def inverse_table(self, lam: float) -> SymbolGrid:
        lam = float(lam)
        tab = self._tables.get(lam)
        if tab is None:
            fiber = self.fibers.get(lam)
            if fiber is None:
                a = kn_quantize(self.base.fiber_table(lam, self.grid))
                fiber = invert_fiber(a, self.cond_limit)
            tab = self._tables[lam] = kn_symbol_of(fiber.b)
        return tab

    def _evaluate(self, W, lam):
        out = np.empty(W.shape[0], dtype=complex)
        for mu in np.unique(lam):
            if mu == 0.0:
                raise ValueError("reconstructed family needs nonzero lam")
            rows = lam == mu
            tab = self.inverse_table(-mu)
            xi, s = _table_coordinates(W[rows, :self.n], W[rows, self.n:], mu)
            outside = symbol_field(tab).out_of_footprint(np.hstack([xi, s]))
            self.clipped_rows += int(np.sum(outside))
            out[rows] = evaluate_symbol(tab, xi, s, policy="edge")
        return out

    def fiber_table(self, lam: float, grid: LineGrid) -> SymbolGrid:
        """`fiber_symbol(self, lam, grid)` evaluated over the lattice.

        Each axis of the fiber's covariables goes through the frame map at
        mu = -lam on its own; the clipped count is the lattice size minus
        the product of the per-axis inside counts.
        """
        w = fiber_axes(lam, grid)
        n = grid.dim
        coords = [None] * (2 * n)
        for i in range(n):
            coords[i], coords[n + i] = _table_coordinates(w[i], w[n + i], -lam)
        field = symbol_field(self.inverse_table(lam))
        inside = [int(np.sum(field.axis_footprint(i, c)[1]))
                  for i, c in enumerate(coords)]
        self.clipped_rows += grid.size ** 2 - math.prod(inside)
        vals = field.eval_lattice(coords, "edge")
        return SymbolGrid(lam, grid, vals.reshape(grid.size, grid.size))


class GramSpectrum(Spectrum):
    """Hermitian surrogate of a family: each fiber becomes A*A.

    Quantization does not commute with pointwise conjugation, so real
    symbols generally give non-Hermitian fibers; squaring through the
    adjoint restores symmetry at the operator level and keeps the fiber
    invertible exactly when the original one is.
    """

    def __init__(self, base):
        n = getattr(base, "n", None)
        if n is None:
            raise ValueError("base family must expose its group rank")
        super().__init__(n, symmetric=True)
        self.base = base

    def fiber_table(self, lam: float, grid: LineGrid) -> SymbolGrid:
        a = kn_quantize(self.base.fiber_table(lam, grid))
        return kn_symbol_of(FiberOperator(lam, grid, a.matrix.conj().T @ a.matrix))


def verify_inverse(result: InversionResult) -> dict:
    """Two-sided operator residuals plus the reconstruction round trip.

    The round trip compares the fiber symbol of the glued inverse family
    `result.spectrum()` against the inverse table read directly off each
    fiber; at lattice coincidences the two agree to rounding when the
    gluing is consistent. `clipped_rows` counts the fiber's lattice rows
    that the frame map sent outside the table footprint.
    """
    recon = result.spectrum()
    report = {}
    for row in result.rows:
        direct = recon.inverse_table(row.lam)
        clipped = recon.clipped_rows
        glued = recon.fiber_table(row.lam, result.grid)
        scale = max(direct.sup_norm(), 1e-300)
        report[row.lam] = {
            "residual_right": row.residual_right,
            "residual_left": row.residual_left,
            "glue_error": float(np.max(np.abs(glued.values - direct.values))) / scale,
            "clipped_rows": recon.clipped_rows - clipped,
        }
    return report


def lambda_derivative_check(spec, lam: float, grid: LineGrid,
                            cond_limit: float = 1e8, h_rel: float = 0.02,
                            order: int = 1, fiber: "Fiber | None" = None) -> dict:
    """Derivative structure of the inverse fibers at one central frequency.

    At order 1 this checks d_lam B = -B (d_lam A) B, with all derivatives
    taken at fixed table coordinates (the quantization lattice does not
    move with lam); the formula is constant-free only there, so higher
    orders report just the scaled derivative |lam|^M ||d^M B|| used by
    the uniformity scan, plus the sup of the differentiated symbol table.

    `fiber` is the record of the fiber at `lam` when an inversion run
    already holds it; otherwise that fiber is inverted here.
    Each stencil node's inverse is exact only up to size * eps * ||A|| ||B||^2,
    so a derivative norm below that bound times sum |w_o| / h^order (the
    `rounding_floor`) is noise: the row reports `zero_to_rounding` and no
    identity ratio. Dilation-invariant families land there at every lam.
    """
    if lam == 0.0:
        raise ValueError("derivative check needs a nonzero central frequency")
    if fiber is None:
        fiber = invert_fiber(kn_quantize(spec.fiber_table(lam, grid)), cond_limit)
    b0, sigma_min = fiber.b.matrix, fiber.sigma_min
    sigma_max = sigma_min * fiber.cond
    h = h_rel * abs(lam)
    off, wts = stencil(order)
    a_nodes, b_nodes = [], []
    for o in off:
        a = kn_quantize(spec.fiber_table(lam + o * h, grid))
        a_nodes.append(a.matrix)
        b_nodes.append(b0 if o == 0 else invert_fiber(a, cond_limit).b.matrix)
    scale = h ** order
    da = sum(w * m for w, m in zip(wts, a_nodes)) / scale
    db = sum(w * m for w, m in zip(wts, b_nodes)) / scale
    floor = float(grid.size * np.finfo(float).eps * sigma_max / sigma_min ** 2
                  * np.sum(np.abs(wts)) / scale)
    db_norm = float(np.linalg.norm(db, 2))
    # reading the table off the differentiated matrix is exact: the
    # quantization is linear, so d(symbol) = symbol(d(matrix))
    table = kn_symbol_of(FiberOperator(lam, grid, db))
    out = {
        "lam": float(lam),
        "order": order,
        "step": h,
        "derivative_norm": db_norm,
        "rounding_floor": floor,
        "zero_to_rounding": db_norm <= floor,
        "scaled_derivative": abs(lam) ** order * db_norm,
        "scaled_table_sup": abs(lam) ** order * table.sup_norm(),
    }
    if order == 1:
        rhs = -b0 @ da @ b0
        num = float(np.linalg.norm(db - rhs, 2))
        out["identity_residual"] = num
        if not out["zero_to_rounding"]:
            out["identity_rel"] = num / max(db_norm, float(np.linalg.norm(rhs, 2)))
    return out


def uniform_derivative_scan(spec, lam_values, grid: LineGrid,
                            cond_limit: float = 1e8, m_max: int = 1,
                            fibers: "dict | None" = None) -> dict:
    """Scaled inverse derivatives across fibers, with a uniformity verdict.

    Uniformity per order means the largest scaled derivative stays within
    a factor 4 of the median over the lam grid; a family leaving the
    symbol class under inversion shows up as orders of magnitude instead.
    Only rows above their rounding floor are judged (`resolved`); an order
    whose rows are all zero to rounding is uniform. `fibers` maps lam to
    the `fiber` argument of `lambda_derivative_check`.
    """
    orders = {}
    for order in range(1, m_max + 1):
        rows = []
        for lam in lam_values:
            fiber = fibers.get(float(lam)) if fibers else None
            rows.append(lambda_derivative_check(spec, lam, grid, cond_limit,
                                                order=order, fiber=fiber))
        scaled = [r["scaled_derivative"] for r in rows if not r["zero_to_rounding"]]
        top = max(scaled, default=0.0)
        med = float(np.median(scaled)) if scaled else 0.0
        orders[order] = {
            "rows": rows,
            "resolved": len(scaled),
            "max_scaled": top,
            "median_scaled": med,
            "uniform": top <= 4.0 * med,
        }
    return {
        "orders": orders,
        "uniform": all(o["uniform"] for o in orders.values()),
    }


def derivative_report(result: InversionResult, m_max: int = 2) -> dict:
    """Derivative scan over the fibers an inversion run already covered."""
    return uniform_derivative_scan(result.spec, result.lam_values, result.grid,
                                   result.cond_limit, m_max, result.fibers)
