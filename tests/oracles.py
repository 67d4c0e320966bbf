"""Independent reference implementations used to pin the engine down.

Everything here is written as literally as possible (nested sums, no
shared code with the package's fast paths) so that agreement between the
two is evidence, not tautology.
"""

import numpy as np
import sympy as sp

from heisenflag.fields import SampledField
from heisenflag.finitediff import stencil
from heisenflag.grids import Grid, LineGrid, flat_coords, flat_phase
from heisenflag.group import GroupPoint
from heisenflag.inversion import invert_fiber
from heisenflag.kernels import parse_tape
from heisenflag.schrodinger import FiberOperator, _lambda_slice
from heisenflag.symbols import Spectrum, SymbolGrid, kn_quantize


def dft_literal(values: np.ndarray) -> np.ndarray:
    """Centered forward DFT of a 1d array by explicit summation."""
    N = values.shape[0]
    j = np.arange(N) - N // 2
    kernel = np.exp(-2j * np.pi * np.outer(j, j) / N)
    return kernel @ values


def gaussian_transform_1d(rate: float, zeta: np.ndarray) -> np.ndarray:
    """Closed form: exp(-pi a x^2) has transform a^{-1/2} exp(-pi zeta^2 / a)."""
    return np.exp(-np.pi * zeta ** 2 / rate) / np.sqrt(rate)


def direct_convolution(f: SampledField, g: SampledField) -> np.ndarray:
    """Group convolution by explicit lattice summation.

    (f*g)(h) = w sum_{h'} f(h') g(h'^{-1} h) with
    h'^{-1} h = (x-x', y-y', t-t'-x'.(y-y')). Horizontal differences land
    on the lattice (periodic wrap); the sheared central argument is
    evaluated through g's trigonometric interpolant in t.
    """
    grid: Grid = f.grid
    assert grid.n == 1, "oracle is written for n = 1"
    N = grid.axes[0].count
    Nt = grid.t_axis.count
    v = grid.axes[0].points()
    t = grid.t_axis.points()
    lam = grid.t_axis.freqs()

    # t-mode coefficients of g: g(x, y, t) = sum_m Gt[x, y, m] e^{2 pi i t lam_m}
    jt = np.arange(Nt) - Nt // 2
    fwd = np.exp(-2j * np.pi * np.outer(jt, jt) / Nt) / Nt
    Gt = np.einsum("xyk,mk->xym", g.values, fwd)

    out = np.zeros(grid.shape, dtype=complex)
    for jxp in range(N):
        for jyp in range(N):
            for jtp in range(Nt):
                fv = f.values[jxp, jyp, jtp]
                if fv == 0.0:
                    continue
                rolled = np.roll(np.roll(Gt, jxp - N // 2, axis=0),
                                 jyp - N // 2, axis=1)
                targ = (t[None, :] - t[jtp]
                        - v[jxp] * (v[:, None] - v[jyp]))  # (jy, jt)
                E = np.exp(2j * np.pi * targ[:, :, None] * lam[None, None, :])
                out += fv * np.einsum("xym,ytm->xyt", rolled, E)
    return grid.weight * out


def twisted_fiber_direct(fv: np.ndarray, gv: np.ndarray, lam: float,
                         grid: Grid, outputs=None) -> np.ndarray:
    """One central-frequency fiber of the group convolution by the
    literal double sum over lattice points v = (x, y), v' = (x', y'):

        out(v) = Dv^{2n} sum_{v'} fv(v') gv(v - v') e^{-2 pi i lam x'.(y - y')}.

    gv is read at the index of v - v' wrapped periodically; the phase
    takes the true coordinates of x' and y - y', unwrapped. `outputs`
    lists the output indices v to evaluate, in that order; by default
    every lattice point, returned in fv's shape.
    """
    n = grid.n
    N = grid.axes[0].count
    pts = grid.axes[0].points()
    jp = np.indices(fv.shape).reshape(2 * n, -1)  # every v', [axis, point]
    f_flat = fv.reshape(-1)
    targets = list(np.ndindex(fv.shape)) if outputs is None else outputs
    vals = []
    for j in targets:
        j = np.asarray(j)[:, None]
        wrapped = tuple((j - jp + N // 2) % N)  # index of v - v'
        xp_dot_dy = np.sum(pts[jp[:n]] * (pts[j[n:]] - pts[jp[n:]]), axis=0)
        vals.append(np.sum(f_flat * gv[wrapped]
                           * np.exp(-2j * np.pi * lam * xp_dot_dy)))
    vals = grid.axes[0].spacing ** (2 * n) * np.array(vals)
    return vals.reshape(fv.shape) if outputs is None else vals


def gaussian_field_meshgrid(grid: Grid, v_rate=1.0, t_rate: float = 1.0,
                            modulation: float = 0.0,
                            t_shift: float = 0.0) -> np.ndarray:
    """Values of `transform.gaussian_field` from full coordinate meshes:
    each factor exp(-pi a_i v_i^2), exp(-pi a_t (t - t0)^2) and
    e^{2 pi i t lam0} is evaluated on the whole grid and multiplied in,
    in that order."""
    n = grid.n
    rates = np.broadcast_to(np.asarray(v_rate, dtype=float), (2 * n,))
    mesh = np.meshgrid(*[ax.points() for ax in grid.axes], indexing="ij")
    vals = np.ones(grid.shape, dtype=complex)
    for i in range(2 * n):
        vals = vals * np.exp(-np.pi * rates[i] * mesh[i] ** 2)
    tt = mesh[2 * n]
    vals = vals * np.exp(-np.pi * t_rate * (tt - t_shift) ** 2)
    if modulation != 0.0:
        vals = vals * np.exp(2j * np.pi * modulation * tt)
    return vals


def kn_quantize_dense(a: SymbolGrid) -> np.ndarray:
    """Matrix of Op(a) by the phase products of the quantization formula,

        Op(a)[s, x'] = Dx^n Dxi^n sum_xi e^{2 pi i s.xi} a(xi, s) e^{-2 pi i xi.x'},

    in O(size^3) work and four dense size x size phase tables.
    """
    g = a.grid
    pts, frq = g.flat_points(), g.flat_freqs()
    left = np.exp(2j * np.pi * (pts @ frq.T))     # e^{+2 pi i s.xi}, [s, xi]
    right = np.exp(-2j * np.pi * (frq @ pts.T))   # e^{-2 pi i xi.x'}, [xi, x']
    return g.weight * g.freq_weight * ((left * a.values.T) @ right)


def pi_point_matrix_dense(h: GroupPoint, lam: float, grid: LineGrid) -> FiberOperator:
    """Matrix of pi_h^lam as W^H diag(shift ramp) W / size times the y-ramp
    and the central phase, with W the dense size x size forward DFT."""
    lam = float(lam)
    if lam == 0.0:
        raise ValueError("representation parameter lambda must be nonzero")
    root = np.sqrt(abs(lam))
    pts = grid.flat_points()
    frq = grid.flat_freqs()
    W = flat_phase(frq, pts, -1)  # forward kernel, size x size
    ramp_f = np.exp(2j * np.pi * (frq @ (np.sign(lam) * root * h.x)))
    shift_m = (W.conj().T * ramp_f[None, :]) @ W / grid.size
    ramp_y = np.exp(2j * np.pi * root * (pts @ h.y))
    mat = np.exp(2j * np.pi * lam * h.t) * (ramp_y[:, None] * shift_m)
    return FiberOperator(lam, grid, mat)


def pi_field_quadrature_dense(field: SampledField, lam: float,
                              grid: LineGrid) -> FiberOperator:
    """Quadrature route of `pi_field` as the literal sum over the field's
    x-lattice of g2(x, s) times the dense shift matrix of sgn(lam) sqrt|lam| x,
    one size^3 product per lattice point."""
    g2 = _lambda_slice(field, lam, grid.flat_points())  # (Nv^n, size)
    pts = grid.flat_points()
    frq = grid.flat_freqs()
    W = flat_phase(frq, pts, -1)
    Wb = W.conj().T / grid.size
    xs = flat_coords([ax.points() for ax in field.grid.x_axes])
    root = np.sign(lam) * np.sqrt(abs(lam))
    mat = np.zeros((grid.size, grid.size), dtype=complex)
    for k in range(xs.shape[0]):
        ramp = np.exp(2j * np.pi * (frq @ (root * xs[k])))
        shift_m = (Wb * ramp[None, :]) @ W
        mat += g2[k][:, None] * shift_m
    vw = field.grid.axes[0].spacing ** field.grid.n
    return FiberOperator(lam, grid, vw * mat)


def kn_symbol_dense(matrix: np.ndarray, grid: LineGrid) -> np.ndarray:
    """Symbol table a(xi, s) of a fiber matrix by the inverse phase products,
    a(xi, s) = e^{-2 pi i xi.s} sum_x' e^{2 pi i xi.x'} matrix[s, x']."""
    pts, frq = grid.flat_points(), grid.flat_freqs()
    back = np.exp(2j * np.pi * (frq @ pts.T))     # e^{+2 pi i xi.x'}, [xi, x']
    return np.exp(-2j * np.pi * (frq @ pts.T)) * (back @ matrix.T)


def symbol_interpolant_literal(values: np.ndarray, points: np.ndarray,
                               freqs: np.ndarray, xi: np.ndarray,
                               s: np.ndarray) -> np.ndarray:
    """Band-limited interpolant of a one-dimensional symbol table.

    values[i, j] = a(freqs[i], points[j]). The frequency slot is
    interpolated over position modes p and the position slot over
    frequency modes q:

        a(xi, s) = N^-2 sum_{i,j} a_ij sum_p e^{2 pi i (xi_i - xi) p}
                                      sum_q e^{2 pi i (s - s_j) q}.
    """
    N = len(points)
    out = np.zeros(len(xi), dtype=complex)
    for m in range(len(xi)):
        d_xi = np.zeros(N, dtype=complex)
        d_s = np.zeros(N, dtype=complex)
        for i in range(N):
            for k in range(N):
                d_xi[i] += np.exp(2j * np.pi * (freqs[i] - xi[m]) * points[k])
                d_s[i] += np.exp(2j * np.pi * (s[m] - points[i]) * freqs[k])
        out[m] = d_xi @ values @ d_s / N ** 2
    return out


def gauss_c_fun_closed_form(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c_{g,g}(x, y) for the unit Gaussian g(u) = exp(-pi u^2)."""
    return (np.exp(-np.pi * (x ** 2 + y ** 2) / 2.0)
            * np.exp(-1j * np.pi * x * y) / np.sqrt(2.0))


class CallableSpectrum(Spectrum):
    """A family given by a plain function of (W, lam) and no derivatives,
    so the seminorm scans take their finite-difference path."""

    def __init__(self, n: int, fun):
        super().__init__(n)
        self._fun = fun

    def _evaluate(self, W, lam):
        return np.asarray(self._fun(W, lam))


def flag_symbols(n: int, real: bool = False) -> tuple:
    """Sympy symbols w1..w_{2n}, lam; `real=True` makes |lam|
    differentiate to sign(lam) rather than through re/im parts."""
    kw = {"real": True} if real else {}
    return (*sp.symbols(f"w1:{2 * n + 1}", **kw), sp.Symbol("lam", **kw))


def _sympy_number(c) -> sp.Expr:
    # integers exact in a double stay Integer, so -1*x prints as -x
    c = complex(c)
    re, im = (sp.Integer(int(x)) if x.is_integer() and abs(x) < 2 ** 53
              else sp.Float(x) for x in (c.real, c.imag))
    return re + sp.I * im if im else re


def tape_expression(tape: list, symbols: tuple) -> sp.Expr:
    """Sympy expression of a jet tape over `symbols` (w1..w_{2n}, lam)."""
    vals: list = []
    for op, args, param in tape:
        xs = [vals[i] for i in args]
        if op == "var":
            out = symbols[param]
        elif op == "const":
            out = _sympy_number(param)
        elif op == "add":
            out = sp.Add(*xs)
        elif op == "mul":
            out = sp.Mul(*xs)
        elif op in ("ipow", "pow"):
            out = xs[0] ** _sympy_number(param)
        elif op == "powe":
            out = xs[0] ** xs[1]
        elif op == "exp":
            out = sp.exp(xs[0])
        else:
            out = sp.Abs(xs[0])
        vals.append(out)
    return vals[-1]


def parse_kernel_expression(text: str, n: int) -> sp.Expr:
    """An inline kernel expression as a sympy tree over plain symbols
    w1..w_{2n}, lam, read off the tape the package's parser builds."""
    return tape_expression(parse_tape(text, n), flag_symbols(n))


def sympy_derivatives(spec, indices) -> dict:
    """d_w^alpha d_lam^beta of a `SympySpectrum` by `sp.diff` of the sympy
    expression of its tape over real symbols, compiled with `lambdify`:
    {(alpha, beta): f(W, lam) -> (m,) array}.

    Each index is differentiated one variable at a time from the next
    lower one. Terms in DiracDelta, which abs leaves on the plane where its
    argument vanishes, are dropped after each step: the comparison points
    lie off those planes. Raises NotImplementedError where sympy leaves an
    unevaluated Derivative (abs of a possibly complex subexpression), which
    lambdify cannot compile.
    """
    symbols = flag_symbols(spec.n, real=True)
    *w, lam = symbols
    exprs = {}

    def expr_of(alpha, beta):
        key = (alpha, beta)
        if key not in exprs:
            if beta:
                e = sp.diff(expr_of(alpha, beta - 1), lam)
            elif any(alpha):
                i = max(k for k, a in enumerate(alpha) if a)
                down = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
                e = sp.diff(expr_of(down, 0), w[i])
            else:
                e = tape_expression(spec._tape, symbols)
            if e.has(sp.Derivative):
                raise NotImplementedError(f"sympy left {e} unevaluated")
            exprs[key] = e.replace(lambda x: isinstance(x, sp.DiracDelta),
                                   lambda x: sp.S.Zero)
        return exprs[key]

    def compiled(expr):
        fn = sp.lambdify(symbols, expr, "numpy")
        return lambda W, lam_: np.broadcast_to(
            fn(*W.T, lam_), (len(W),)).astype(complex)

    return {(tuple(a), b): compiled(expr_of(tuple(a), b)) for a, b in indices}


def node_inverse_derivative(spec, lam: float, grid, order: int = 1,
                            h_rel: float = 0.02, cond_limit: float = 1e8) -> dict:
    """d^order B / d lam^order of the inverse fiber as the stencil of the
    inverses of its nodes, at fixed table coordinates.

    Every node A(lam + o h) is quantized and inverted on its own, so the
    derivative shares the quantization and the one-SVD inverse with the
    package but not the Leibniz rule. Returns the matrix `db`, its 2-norm,
    the rounding floor size * eps * ||A|| ||B||^2 * sum |w_o| / h^order and
    the `zero_to_rounding` verdict against it. At order 1 it also returns
    `identity_residual` = ||db + B (d A) B||_2 and, above the floor, the
    ratio `identity_rel` of that residual to the larger of the two sides.
    """
    center = invert_fiber(kn_quantize(spec.fiber_table(lam, grid)), cond_limit)
    b0, sigma_min = center.b.matrix, center.sigma_min
    sigma_max = sigma_min * center.cond
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
    out = {"db": db, "derivative_norm": db_norm, "rounding_floor": floor,
           "zero_to_rounding": db_norm <= floor}
    if order == 1:
        rhs = -b0 @ da @ b0
        num = float(np.linalg.norm(db - rhs, 2))
        out["identity_residual"] = num
        if not out["zero_to_rounding"]:
            out["identity_rel"] = num / max(db_norm, float(np.linalg.norm(rhs, 2)))
    return out
