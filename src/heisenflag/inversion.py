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
from dataclasses import asdict, dataclass, field
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
    the normal equations A*A would square that). A matrix with non-finite
    entries raises `LinAlgError` naming the fiber before LAPACK sees it.
    `strict` then requires a Hermitian matrix: relative skew at most 1e-10.
    """
    m = a.matrix
    bad = m.size - np.count_nonzero(np.isfinite(m))
    if bad:
        raise np.linalg.LinAlgError(
            f"fiber at lam={a.lam:g}: {bad} of {m.size} entries are not finite")
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
            "fibers": [asdict(r) for r in self.rows],
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
    symbol class, and the floor is what detects them. `strict` requires
    every fiber matrix to be Hermitian (relative skew at most 1e-10),
    measured per fiber before its SVD.
    """
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
        super().__init__(grid.dim)
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
        super().__init__(n)
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


# the central-frequency step of the derivative stencils, relative to |lam|
H_REL = 0.02


def _inverse_derivatives(spec, fiber: Fiber, m_max: int) -> list:
    """[B, d_lam B, ..., d_lam^m_max B] at fixed table coordinates.

    Each node that carries a nonzero weight for some order <= m_max is
    quantized once, so A^(j) reads its weights off `stencil(j)`. The
    Leibniz rule on AB = I gives, from the record's B alone,
    B^(k) = -B sum_{j=1..k} C(k, j) A^(j) B^(k-j): no node is inverted.
    """
    lam, grid = fiber.b.lam, fiber.b.grid
    h = H_REL * abs(lam)
    used = {o for k in range(1, m_max + 1) for o, w in zip(*stencil(k)) if w}
    nodes = {o: kn_quantize(spec.fiber_table(lam + o * h, grid)).matrix
             for o in sorted(used)}
    da, db = [None], [fiber.b.matrix]
    for k in range(1, m_max + 1):
        off, wts = stencil(k)
        da.append(sum(w * nodes[o] for o, w in zip(off, wts) if w) / h ** k)
        db.append(-db[0] @ sum(math.comb(k, j) * da[j] @ db[k - j]
                               for j in range(1, k + 1)))
    return db


def lambda_derivative_check(spec, fiber: Fiber, m_max: int = 1) -> list:
    """Rows |lam|^k ||B^(k)|| of one inverted-fiber record, k = 1..m_max.

    `rounding_floor`, size * eps * sigma_max / sigma_min^2 * sum |w_o| / h^k,
    is ||B||^2 times the rounding noise of A^(k): each quantized node is
    exact to size * eps * ||A||, summed with weights w_o / h^k. A norm at
    or below it is noise, and the row reports `zero_to_rounding`;
    dilation-invariant families land there at every lam.
    """
    lam, grid = fiber.b.lam, fiber.b.grid
    if lam == 0.0:
        raise ValueError("derivative check needs a nonzero central frequency")
    h = H_REL * abs(lam)
    # numpy's power: sigma_min^2 past the float range is inf, not an
    # OverflowError, and the floor of a family scaled by 1e200 is 0
    with np.errstate(over="ignore"):
        noise = (grid.size * np.finfo(float).eps * (fiber.sigma_min * fiber.cond)
                 / np.float64(fiber.sigma_min) ** 2)
    rows = []
    for k, db in enumerate(_inverse_derivatives(spec, fiber, m_max)[1:], 1):
        floor = float(noise * np.sum(np.abs(stencil(k)[1])) / h ** k)
        db_norm = float(np.linalg.norm(db, 2))
        # exact: the quantization is linear, so d(symbol) = symbol(d(matrix))
        table = kn_symbol_of(FiberOperator(lam, grid, db))
        rows.append({"lam": lam, "order": k, "step": h,
                     "derivative_norm": db_norm, "rounding_floor": floor,
                     "zero_to_rounding": db_norm <= floor,
                     "scaled_derivative": abs(lam) ** k * db_norm,
                     "scaled_table_sup": abs(lam) ** k * table.sup_norm()})
    return rows


def derivative_report(result: InversionResult, m_max: int = 2) -> dict:
    """Scaled inverse derivatives across a run's fibers, with a verdict.

    Uniformity per order means the largest scaled derivative stays within
    a factor 4 of the median over the lam grid; a family leaving the
    symbol class under inversion shows up as orders of magnitude instead.
    Only rows above their rounding floor are judged (`resolved`); an order
    whose rows are all zero to rounding is uniform. The `probe` checks the
    Leibniz rule at the fiber of largest |lam| against the order-1 stencil
    of its inverted nodes (4 SVDs), with `identity_rel` only when that
    row is resolved (below the floor it is a ratio of noise to noise).
    """
    checks = [lambda_derivative_check(result.spec, result.fibers[lam], m_max)
              for lam in result.lam_values]
    orders = {}
    for order in range(1, m_max + 1):
        rows = [check[order - 1] for check in checks]
        scaled = [r["scaled_derivative"] for r in rows if not r["zero_to_rounding"]]
        top = max(scaled, default=0.0)
        med = float(np.median(scaled)) if scaled else 0.0
        orders[order] = {"rows": rows, "resolved": len(scaled),
                         "max_scaled": top, "median_scaled": med,
                         "uniform": top <= 4.0 * med}
    lam = max(result.lam_values, key=abs)
    b, h = result.fibers[lam].b.matrix, H_REL * abs(lam)
    da = db = 0.0
    for o, w in zip(*stencil(1)):
        if w:  # the order-1 stencil weighs its center by zero
            a = kn_quantize(result.spec.fiber_table(lam + o * h, result.grid))
            da = da + w / h * a.matrix
            db = db + w / h * invert_fiber(a, result.cond_limit).b.matrix
    residual = float(np.linalg.norm(db + b @ da @ b, 2))
    probe = {"lam": lam, "identity_residual": residual}
    row = checks[result.lam_values.index(lam)][0]
    if not row["zero_to_rounding"]:
        probe["identity_rel"] = residual / max(float(np.linalg.norm(db, 2)),
                                               row["derivative_norm"])
    return {"orders": orders, "probe": probe,
            "uniform": all(o["uniform"] for o in orders.values())}
