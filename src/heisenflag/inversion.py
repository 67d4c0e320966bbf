"""Fiberwise inversion of flag symbols and the reconstructed inverse family.

The pipeline samples a symbol family along each requested fiber through
`fiber_symbol`, quantizes, and inverts the matrix through one SVD, which
gives one `Fiber` record per fiber: the inverse B plus its smallest
singular value and condition number. Work is keyed on a table's content,
not on lam: a fiber whose table equals an earlier one's reuses that
record, so each distinct table is quantized and factorized once, and the
records of equal tables share one B matrix. `InversionResult.fibers` holds
these records, and the derivative scan, the glued inverse family and the
verification read them instead of factorizing a fiber again (the
derivative scan quantizes one weighted sum of stencil-node tables per
fiber and order, and its probe LU-inverts four nodes); the record keeps no
A or symbol table, so its memory stays one matrix per distinct table.
Together with the two-sided residuals the diagnostics decide whether the
family is uniformly invertible: a fiber can be perfectly invertible as a
matrix while its symbol vanishes on the flag boundary, so uniformity is
judged against an absolute singular-value floor rather than the condition
limit alone.

The inverse tables read off the records glue to a new symbol family on
covariable space through the inverse parabolic frame map, defined at the
run's fibers; it supports the same seminorm scans and fiber sampling as
the input, which is the numerical content of inverse-closedness. Its
derivatives are exact on each table's band-limited interpolant in w and
the records' Leibniz rows in lam, joined by the frame map's chain rule
as a `jets` pass; only `invert_flag` factorizes a fiber.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import zlib
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .grids import LineGrid
from .jets import Tape, evaluate
from .schrodinger import gramian, hs_norm, save_operator
from .transform import convolve
from .symbols import (
    FiberOperator,
    Spectrum,
    SymbolGrid,
    _refuse_non_finite,
    fiber_symbol,
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
    _refuse_non_finite(m, a.lam)
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
        return ReconstructedSpectrum(self)

    def save(self, outdir) -> list:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = [outdir / "inversion.json", outdir / "fibers.csv"]
        written[0].write_text(self.to_json() + "\n")
        written[1].write_text(self.to_csv())
        for lam, fiber in sorted(self.fibers.items()):
            # one name per fiber: +.6f where it reads back as lam, else 17 digits
            name = f"{lam:+.6f}"
            if len(name) > 24 or float(name) != lam:
                name = f"{lam:+.17g}"
            written.append(outdir / f"inverse_fiber_{name}.hfc")
            save_operator(fiber.b, written[-1])
        return written


def _table_key(values: np.ndarray) -> int:
    """CRC-32 of a table's bytes: equal keys nominate equal tables, which
    `np.array_equal` then confirms. The interpreter loads zlib at start,
    while hashlib would map OpenSSL, about 3.7 MiB resident."""
    return zlib.crc32(np.ascontiguousarray(values))


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
    measured per fiber before its SVD. A symbol table with a non-finite
    entry raises `LinAlgError` naming the fiber in `kn_quantize`.

    One record per distinct table: a fiber whose table equals an earlier
    one's (the table at -lam equals the one at lam for an even family, and
    a family that sees lam only through the parabolic frame repeats it at
    4 lam) is neither quantized nor factorized again. Its `Fiber` carries
    its own lam and shares the earlier B matrix, and its row repeats the
    earlier diagnostics, which the same matrix would reproduce bit for bit.
    """
    out = InversionResult(grid=grid, cond_limit=cond_limit,
                          sigma_floor=sigma_floor, spec=spec)
    eye = np.eye(grid.size)
    seen: dict = {}     # table key -> [(Fiber, FiberRow)], one per distinct table
    for lam in lam_values:
        lam = float(lam)
        table = fiber_symbol(spec, lam, grid)
        same = seen.setdefault(_table_key(table.values), [])
        # an equal key nominates an earlier table, sampled again to compare:
        # holding every distinct table would cost one more matrix each
        hit = next((r for r in same if np.array_equal(
            fiber_symbol(spec, r[0].b.lam, grid).values, table.values)), None)
        if hit is not None:
            first, row = hit
            out.rows.append(replace(row, lam=lam))
            out.fibers[lam] = first._replace(
                b=FiberOperator(lam, grid, first.b.matrix))
            continue
        a = kn_quantize(table)
        fiber = invert_fiber(a, cond_limit, strict)
        b, sigma_min, cond = fiber
        ab = a.matrix @ b.matrix
        # Frobenius norms: upper bounds of the 2-norms, without an SVD each
        rr = np.linalg.norm(ab - eye)
        rl = np.linalg.norm(b.matrix @ a.matrix - eye)
        prod = kn_symbol_of(FiberOperator(lam, grid, ab))
        row = FiberRow(
            lam=lam, sigma_min=sigma_min, sigma_max=sigma_min * cond, cond=cond,
            symbol_min=float(np.min(np.abs(table.values))),
            inverse_op_norm=1.0 / sigma_min, inverse_hs_norm=hs_norm(b),
            residual_right=float(rr), residual_left=float(rl),
            residual_sup=float(np.max(np.abs(prod.values - 1.0))),
            invertible=sigma_min >= sigma_floor)
        out.rows.append(row)
        out.fibers[lam] = fiber
        same.append((fiber, row))
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
    """Inverse family glued from the per-fiber inverse tables of a run.

    Its jet at (w, mu) reads the table of the record at -mu through the
    inverse parabolic frame map, and the base class reads the family's
    values and derivative rows off it. The family is defined at its run's
    fibers: any other mu, mu = 0 included, raises `ValueError` naming the
    fiber, and nothing is inverted here. Records that share one B read its
    table once. Rows outside a table footprint are clamped ("edge") and counted
    in `clipped_rows`; `on_lattice`, which `fiber_symbol` samples through,
    maps and counts one axis at a time.
    """

    def __init__(self, result: InversionResult):
        super().__init__(result.grid.dim)
        self.base, self.grid, self.fibers = result.spec, result.grid, result.fibers
        self.clipped_rows = 0
        self._tables: dict[int, tuple] = {}     # id(B) -> (B, its table values)

    def inverse_table(self, lam: float) -> SymbolGrid:
        """Table of the inverse fiber at lam, a fiber of the run."""
        lam = float(lam)
        if lam not in self.fibers:      # + 0.0 names mu = 0 as lam=0, not -0
            raise ValueError(f"the glued inverse has no fiber at lam={lam + 0.0:g}: "
                             "it is defined at its run's fibers")
        b = self.fibers[lam].b
        if id(b.matrix) not in self._tables:    # the entry keeps B, so its id stays B's
            self._tables[id(b.matrix)] = (b.matrix, kn_symbol_of(b).values)
        return SymbolGrid(lam, self.grid, self._tables[id(b.matrix)][1])

    def _jet(self, tr, columns):
        """Jet at (m,) columns w1..w_{2n}, mu, exact on each table's interpolant.

        At one mu the family is T(lam; u) at the table coordinates lam = -mu
        and u = (sgn(mu) w_xi, -w_s) / sqrt|mu| (the inverse frame map), so
        its jet is the sum over (gamma, j) with |gamma| + j up to the
        truncation's degree of

            d^gamma T_j(u0) du^gamma / gamma! (-dmu)^j / j!,

        with T_j the table of the record's Leibniz row B^(j) (from A's
        stencil derivatives, as `derivative_report` takes them), du the jet
        of u less u0 (a `jets` pass) and d^gamma T_j one `eval_at`. u0 is
        `_table_coordinates`, so order 0 is the table's interpolant there.
        """
        W, lam = np.stack(columns[:-1], axis=1), columns[-1]
        mus = np.unique(lam)
        # every table first: a fiber off the run is refused before evaluating
        tables = {mu: [symbol_field(self.inverse_table(-mu))] for mu in mus}
        n, d = self.n, 2 * self.n
        # the frame map's coordinates w_k / sqrt|mu| and mu, as tape programs
        tape = Tape()
        scale = tape.power(tape.abs(tape.var(d)), -0.5)
        programs = [tape.program(tape.mul(tape.var(k), scale)) for k in range(d)]
        programs.append(tape.program(tape.var(d)))
        out = np.empty((tr.size, len(lam)), complex)
        for mu in mus:
            rows = lam == mu
            if tr.beta_max:
                db = _inverse_derivatives(self.base, self.fibers[-mu], tr.beta_max)
                tables[mu] += [symbol_field(kn_symbol_of(FiberOperator(-mu, self.grid, m)))
                               for m in db[1:]]
            points = np.hstack(_table_coordinates(W[rows, :n], W[rows, n:], mu))
            self.clipped_rows += int(np.sum(tables[mu][0].out_of_footprint(points)))
            # the jets of (u, lam) less their values, and their products
            # du^gamma / gamma!, each from the next lower gamma by one product
            coords = [*W[rows].T, np.full(len(points), mu)]
            du = [(np.sign(mu) if k < n else -1.0) * evaluate(program, tr, coords)
                  for k, program in enumerate(programs)]
            for x in du:
                x[0] = 0.0
            powers = {(0,) * (d + 1): np.eye(tr.size, 1)}     # the constant jet 1
            for gamma in sorted(itertools.product(*[range(tr.degree + 1)] * d,
                                                  range(tr.beta_max + 1)), key=sum):
                if 0 < sum(gamma) <= tr.degree:
                    k = max(np.flatnonzero(gamma))
                    lower = gamma[:k] + (gamma[k] - 1,) + gamma[k + 1:]
                    powers[gamma] = tr.mul(powers[lower], du[k]) / gamma[k]
            out[:, rows] = sum(tables[mu][gamma[-1]].eval_at(points, "edge", gamma[:-1])
                               * power for gamma, power in powers.items())
        return out

    def on_lattice(self, axes, lam):
        """The table of the fiber at -lam over the lattice, contracted one
        axis at a time: each covariable axis goes through the frame map on
        its own, and the clipped count is the lattice size minus the
        product of the per-axis inside counts."""
        field = symbol_field(self.inverse_table(-lam))
        n = self.n
        xi, s = zip(*[_table_coordinates(w, v, lam) for w, v in zip(axes[:n], axes[n:])])
        coords = [*xi, *s]
        inside = [int(np.sum(field.axis_footprint(i, c)[1]))
                  for i, c in enumerate(coords)]
        self.clipped_rows += math.prod(map(len, coords)) - math.prod(inside)
        return field.eval_lattice(coords, "edge").reshape(-1)


def verify_inverse(result: InversionResult) -> dict:
    """Two-sided operator residuals plus the reconstruction round trip.

    The round trip compares `fiber_symbol` of the glued inverse family
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
        glued = fiber_symbol(recon, row.lam, result.grid)
        scale = max(direct.sup_norm(), 1e-300)
        report[row.lam] = {
            "residual_right": row.residual_right,
            "residual_left": row.residual_left,
            "glue_error": float(np.max(np.abs(glued.values - direct.values))) / scale,
            "clipped_rows": recon.clipped_rows - clipped,
        }
    return report


# the step of every difference, relative to the scale of its coordinate
H_REL = 0.02


@lru_cache(maxsize=None)
def stencil(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, weights) of the smallest symmetric stencil for d^order at
    unit spacing that is 4th-order accurate; divide by spacing**order.

    One-sided rules would waste the parity bonus. The weights are exactly
    symmetric for even orders and antisymmetric for odd ones, so an odd
    order weighs the center by 0.0.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return np.array([0]), np.array([1.0])
    half_width = (order + 4 - 1) // 2     # 4th-order accurate
    offsets = np.arange(-half_width, half_width + 1)
    # moment conditions: sum_o c_o o^k / k! = [k == order]
    rows = np.vander(offsets.astype(float), len(offsets), increasing=True).T
    rows /= np.array([math.factorial(k) for k in range(len(offsets))])[:, None]
    rhs = np.zeros(len(offsets))
    rhs[order] = 1.0
    weights = np.linalg.solve(rows, rhs)
    # the exact weights are (anti)symmetric with the order; the solve's
    # rounding is not, and would leave residue where the weight is zero
    return offsets, (weights + (-1) ** order * weights[::-1]) / 2


def _table_derivatives(spec, fiber: Fiber, m_max: int) -> list:
    """[None, A^(1), ..., A^(m_max)] at fixed table coordinates.

    The quantization is linear, so A^(k) = Op(sum_o w_o a(lam + o h)) / h^k
    with h = H_REL |lam| and the weights of `stencil(k)`: each node table
    is sampled once and added to the sum of every order that weighs it,
    and each order is quantized once, tagged with the fiber's lam. A node
    with a non-finite entry raises `LinAlgError` naming the node.
    """
    lam, grid = fiber.b.lam, fiber.b.grid
    h = H_REL * abs(lam)
    weights = [dict(zip(*stencil(k))) for k in range(1, m_max + 1)]
    sums = [0.0] * m_max
    for o in sorted({o for wk in weights for o, w in wk.items() if w}):
        values = fiber_symbol(spec, lam + o * h, grid).values
        _refuse_non_finite(values, lam + o * h)
        for k, wk in enumerate(weights):
            if wk.get(o):
                sums[k] = sums[k] + wk[o] * values
    return [None] + [kn_quantize(SymbolGrid(lam, grid, total / h ** k)).matrix
                     for k, total in enumerate(sums, 1)]


def _inverse_derivatives(spec, fiber: Fiber, m_max: int) -> list:
    """[B, d_lam B, ..., d_lam^m_max B] from the record's B and the family's
    `_table_derivatives` at the fiber, by the Leibniz rule on AB = I:
    B^(k) = -B sum_{j=1..k} C(k, j) A^(j) B^(k-j). No node is inverted."""
    da = _table_derivatives(spec, fiber, m_max)
    db = [fiber.b.matrix]
    for k in range(1, m_max + 1):
        db.append(-db[0] @ sum(math.comb(k, j) * da[j] @ db[k - j]
                               for j in range(1, k + 1)))
    return db


def lambda_derivative_check(spec, fiber: Fiber, m_max: int = 1) -> list:
    """Rows |lam|^k ||B^(k)|| of one inverted-fiber record, k = 1..m_max.

    `rounding_floor`, size * eps * sigma_max / sigma_min^2 * sum |w_o| / h^k,
    is ||B||^2 times the rounding noise of A^(k): the weighted sum of the
    node tables rounds to within eps sum |w_o| of their scale, and its one
    quantization is exact to size * eps times that, over h^k. A norm at
    or below it is noise, and the row reports `zero_to_rounding`;
    dilation-invariant families land there at every lam.
    """
    lam, grid = fiber.b.lam, fiber.b.grid
    h = H_REL * abs(lam)
    # sigma_min = mant 2^e: sigma_min^2 leaves the float range for families
    # scaled by 1e-170 or 1e200, mant^2 does not, and the power of two
    # divides out exactly, so in range this is the plain quotient bit for bit
    mant, e = np.frexp(fiber.sigma_min)
    noise = np.ldexp(grid.size * np.finfo(float).eps * (fiber.sigma_min * fiber.cond)
                     / mant ** 2, -2 * e)
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


def _leibniz_probe(spec, fiber: Fiber, row: dict) -> dict:
    """||d B + B (d A) B|| with d the order-1 stencil over the fiber's own
    quantized and LU-inverted nodes, independent of `_table_derivatives`;
    `identity_rel` only when the fiber's order-1 `row` is resolved."""
    lam, grid, b = fiber.b.lam, fiber.b.grid, fiber.b.matrix
    h = H_REL * abs(lam)
    da = db = 0.0
    for o, w in zip(*stencil(1)):
        if w:  # the order-1 stencil weighs its center by zero
            node = kn_quantize(fiber_symbol(spec, lam + o * h, grid)).matrix
            da = da + w / h * node
            try:
                db = db + w / h * np.linalg.inv(node)
            except np.linalg.LinAlgError as exc:  # name the node, as invert_fiber does
                raise np.linalg.LinAlgError(f"fiber at lam={lam + o * h:g}: {exc}") from exc
    residual = float(np.linalg.norm(db + b @ da @ b, 2))
    probe = {"lam": lam, "identity_residual": residual}
    if not row["zero_to_rounding"]:
        probe["identity_rel"] = residual / max(float(np.linalg.norm(db, 2)),
                                               row["derivative_norm"])
    return probe


def derivative_report(result: InversionResult, m_max: int = 2) -> dict:
    """Scaled inverse derivatives across a run's fibers, with a verdict.

    Uniformity per order means the largest scaled derivative stays within
    a factor 4 of the median over the lam grid; a family leaving the
    symbol class under inversion shows up as orders of magnitude instead.
    Only rows above their rounding floor are judged (`resolved`); an order
    whose rows are all zero to rounding is uniform. The `probe` checks the
    Leibniz rule at the fiber of largest |lam| against the order-1 stencil
    of that fiber's LU-inverted nodes, which the probe quantizes itself, with
    `identity_rel` only when that row is resolved (below the floor it is a
    ratio of noise to noise). Rows are computed for every fiber, also where
    records share one B: for a family that sees lam only through the frame,
    ||B^(k)|| at 4 lam is the one at lam times 4^-k, but reading it off
    would be a second code path for a few milliseconds.
    """
    lams = result.lam_values
    checks = [lambda_derivative_check(result.spec, result.fibers[lam], m_max)
              for lam in lams]
    at = lams.index(max(lams, key=abs))
    probe = _leibniz_probe(result.spec, result.fibers[lams[at]], checks[at][0])
    orders = {}
    for order in range(1, m_max + 1):
        rows = [check[order - 1] for check in checks]
        scaled = [r["scaled_derivative"] for r in rows if not r["zero_to_rounding"]]
        top = max(scaled, default=0.0)
        med = float(np.median(scaled)) if scaled else 0.0
        orders[order] = {"rows": rows, "resolved": len(scaled),
                         "max_scaled": top, "median_scaled": med,
                         "uniform": top <= 4.0 * med}
    return {"orders": orders, "probe": probe,
            "uniform": all(o["uniform"] for o in orders.values())}
