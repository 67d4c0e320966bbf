"""Truncated multivariate Taylor jets pushed through an expression tape.

A jet of f at a batch of rows holds the Taylor coefficients
c_m = d^m f / m! of f at every row, for every monomial m of the set

    {(alpha, beta): |alpha| <= alpha_max, beta <= beta_max}

over the covariables w (alpha) and lam (beta). The set is closed under
taking smaller exponents, so jets add coefficient-wise and multiply by a
Cauchy product restricted to the set, which one pair table per set turns
into a single gather and segment sum. A univariate function g composes by
its Taylor series at the base value u0,

    g(u) = sum_{k <= D} g^(k)(u0) / k! (u - u0)^k,

which is exact on the set: (u - u0)^k vanishes there once k exceeds the
largest total degree D. One pass over the tape therefore yields every
derivative in the set at once (Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13); order 0 of the same pass is
plain numpy evaluation.

A `Tape` holds the expression as postorder instructions (op, operands,
param), one slot per distinct subtree; the inline grammar of
`heisenflag.kernels` builds it directly. The encoding: a - b is
a + (-1) b, a / b is a b^-1, sqrt is ^0.5, and a constant exponent gives
`ipow` (positive integer), `pow` (any other real) or the constant 1
(zero); a variable or complex exponent gives `powe`.

Instruction rules: sums and products are exact; a positive integer power
is a repeated product, so w1^2 stays exact at w1 = 0; other numeric
powers and exp use their series at the base value; a symbolic exponent
goes through exp(e log b); abs is sign(u0) times the jet, valid off
u0 = 0, which the flag scans never evaluate (lam = 0 is excluded).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


class Truncation:
    """The monomial set over `dim` w-variables and lam, and its products.

    Monomials are tuples (alpha_1, ..., alpha_dim, beta), ordered by total
    degree, so the constant term is coefficient 0 of every jet.
    """

    def __init__(self, dim: int, alpha_max: int, beta_max: int):
        mons = sorted(((*a, b)
                       for a in itertools.product(range(alpha_max + 1), repeat=dim)
                       if sum(a) <= alpha_max
                       for b in range(beta_max + 1)),
                      key=lambda m: (sum(m), m))
        self.index = {m: k for k, m in enumerate(mons)}
        self.size = len(mons)
        self.degree, self.beta_max = alpha_max + beta_max, beta_max
        # d^m f = m! c_m, with m! the product of the exponent factorials
        self.factorials = np.array(
            [math.prod(math.factorial(e) for e in m) for m in mons], dtype=float)
        # pair table: coefficient k of a product sums a_i b_j over m_i + m_j = m_k
        M = np.array(mons)
        sums = M[:, None, :] + M[None, :, :]
        inside = (sums[..., :dim].sum(axis=-1) <= alpha_max) & (sums[..., dim] <= beta_max)
        i, j = np.nonzero(inside)
        k = np.array([self.index[tuple(s)] for s in sums[i, j].tolist()])
        order = np.argsort(k, kind="stable")
        self._left, self._right = i[order], j[order]
        # every k has the pair (k, 0), so no segment is empty
        self._starts = np.searchsorted(k[order], np.arange(self.size))
        self._scratch: dict = {}

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two jets; a fresh array, never a view of scratch.

        Jets on different broadcast shapes multiply into their common
        shape."""
        if self.size == 1:
            return a * b
        left = np.take(a, self._left, axis=0, mode="clip", out=self._buffer(a, 0))
        right = np.take(b, self._right, axis=0, mode="clip", out=self._buffer(b, 1))
        if left.shape != right.shape:
            prod = left * right
        else:
            prod = left if left.dtype == np.result_type(left, right) else right
            np.multiply(left, right, out=prod)
        return np.add.reduceat(prod, self._starts, axis=0)

    def _buffer(self, x: np.ndarray, side: int) -> np.ndarray:
        """Scratch for gathering x through one side of the pair table.

        Kept between products, one per (dtype, side), and reallocated
        when the row count changes: freshly allocated pair gathers (a few
        hundred KB in a flag scan) go back to the OS after every product,
        and a pass of a hundred products then pays their page faults each
        time. The reuse makes a `Truncation` unsafe to share between
        threads.
        """
        shape = (len(self._left), *x.shape[1:])
        buf = self._scratch.get((x.dtype, side))
        if buf is None or buf.shape != shape:
            buf = self._scratch[x.dtype, side] = np.empty(shape, x.dtype)
        return buf

    def series(self, u: np.ndarray, coeffs: list) -> np.ndarray:
        """sum_k coeffs[k] (u - u0)^k by Horner's rule."""
        out = np.zeros(u.shape, np.result_type(u, *coeffs))
        out[0] = coeffs[-1]
        if len(coeffs) == 1:
            return out
        h = u.copy()
        h[0] = 0
        for c in coeffs[-2::-1]:
            out = self.mul(out, h)
            out[0] += c
        return out


@functools.lru_cache(maxsize=32)
def truncation(dim: int, alpha_max: int, beta_max: int) -> Truncation:
    return Truncation(dim, alpha_max, beta_max)


# -- the tape ------------------------------------------------------------------

class Tape:
    """Postorder instructions (op, operands, param) of one expression.

    Each instruction is interned, so two equal subtrees share one slot and
    are evaluated once per pass. The builders take operands that are slot
    numbers (int) or constants (float or complex), at least one of them a
    slot; folding two constants is the caller's job. They apply the
    identities x + 0 = x, 1 x = x, 0 x = 0, x^1 = x, x^0 = 1 and
    a + (-1) a = 0, so their result is a slot or a constant as well.
    """

    def __init__(self):
        self.code: list = []
        self._slots: dict = {}

    def _emit(self, op: str, args: tuple = (), param=None) -> int:
        ins = (op, args, param)
        slot = self._slots.get(ins)
        if slot is None:
            slot = self._slots[ins] = len(self.code)
            self.code.append(ins)
        return slot

    def _slot(self, x) -> int:
        if is_slot(x):
            return x
        x = complex(x)
        return self._emit("const", (), np.complex128(x) if x.imag else np.float64(x.real))

    def var(self, index: int) -> int:
        return self._emit("var", (), index)

    def _negation(self, slot: int) -> "int | None":
        """a when `slot` is mul(-1, a) or mul(a, -1)."""
        op, args, _ = self.code[slot]
        if op == "mul":
            for c, a in (args, args[::-1]):
                if self.code[c] == ("const", (), -1.0):
                    return a
        return None

    def add(self, a, b):
        if not is_slot(a) and a == 0:
            return b
        if not is_slot(b) and b == 0:
            return a
        if is_slot(a) and is_slot(b) and (
                self._negation(b) == a or self._negation(a) == b):
            return 0.0
        return self._emit("add", (self._slot(a), self._slot(b)))

    def mul(self, a, b):
        for x, y in ((a, b), (b, a)):
            if not is_slot(x) and x in (0, 1):
                return y if x == 1 else 0.0
        return self._emit("mul", (self._slot(a), self._slot(b)))

    def power(self, base, e):
        """base^e. A real constant exponent picks the rule: `ipow` for a
        positive integer, `pow` otherwise; any other exponent is `powe`."""
        if is_slot(e) or complex(e).imag:
            return self._emit("powe", (self._slot(base), self._slot(e)))
        p = complex(e).real
        if p == 0:                      # x^0 = 1 everywhere, as in numpy
            return 1.0
        if p == 1:
            return base
        if p > 0 and p.is_integer():
            return self._emit("ipow", (self._slot(base),), int(p))
        return self._emit("pow", (self._slot(base),), p)

    def exp(self, a) -> int:
        return self._emit("exp", (self._slot(a),))

    def abs(self, a) -> int:
        return self._emit("abs", (self._slot(a),))

    def program(self, root) -> list:
        """The instructions `root` depends on, renumbered, root last: the
        list `evaluate` runs."""
        root = self._slot(root)
        live = {root}
        for k in range(root, -1, -1):
            if k in live:
                live.update(self.code[k][1])
        order = sorted(live)
        renumber = {k: i for i, k in enumerate(order)}
        return [(op, tuple(renumber[a] for a in args), param)
                for op, args, param in (self.code[k] for k in order)]


def is_slot(x) -> bool:
    return isinstance(x, int)


# -- one pass --------------------------------------------------------------------

def _is_jet(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim > 0    # constants are scalars


def _add(xs: list):
    const = sum(x for x in xs if not _is_jet(x))
    jets = [x for x in xs if _is_jet(x)]
    if not jets:
        return const
    dtype = np.result_type(const, *jets)
    # a tape sum has two operands; their sum spans both broadcast shapes
    out = np.add(*jets, dtype=dtype) if len(jets) == 2 else jets[0].astype(dtype)
    out[0] += const
    return out


def _mul(tr: Truncation, xs: list):
    const = math.prod(x for x in xs if not _is_jet(x))
    jets = [x for x in xs if _is_jet(x)]
    if not jets:
        return const
    out = functools.reduce(tr.mul, jets)
    return out if const == 1 else const * out


def _ipow(tr: Truncation, u, k: int):
    if not _is_jet(u):
        return u ** k
    out = None
    while True:                     # binary powering: exact products only
        if k & 1:
            out = u if out is None else tr.mul(out, u)
        k >>= 1
        if not k:
            return out
        u = tr.mul(u, u)


def _pow(tr: Truncation, u, p: float):
    if not _is_jet(u):
        return u ** p
    u0 = u[0]
    binom = 1.0
    coeffs = []
    for k in range(tr.degree + 1):
        coeffs.append(binom * u0 ** (p - k))
        binom *= (p - k) / (k + 1)
    return tr.series(u, coeffs)


def _exp(tr: Truncation, u):
    if not _is_jet(u):
        return np.exp(u)
    e0 = np.exp(u[0])
    return tr.series(u, [e0 / math.factorial(k) for k in range(tr.degree + 1)])


def _log(tr: Truncation, u):
    if not _is_jet(u):
        return np.log(u)
    u0 = u[0]
    return tr.series(u, [np.log(u0)] + [(-1) ** (k + 1) / (k * u0 ** k)
                                        for k in range(1, tr.degree + 1)])


def _powe(tr: Truncation, b, e):
    if not _is_jet(e):              # a constant exponent such as sqrt(2)
        return _pow(tr, b, e)
    out = _exp(tr, _mul(tr, [e, _log(tr, b)]))
    # the exact value, also at b0 = 0. Jet operands are spread to one shape
    # first, as scan rows are: numpy's vector pow for contiguous operands
    # and its loop for broadcast ones may differ in the last bit
    b0, e0 = (np.broadcast_to(x[0], out.shape[1:]).copy() if _is_jet(x) else x
              for x in (b, e))
    out[0] = b0 ** e0
    return out


def _abs(tr: Truncation, u):
    if not _is_jet(u):
        return np.abs(u)
    if np.iscomplexobj(u):
        # |u| = (u conj(u))^(1/2); conj acts coefficient-wise on real variables
        out = _pow(tr, tr.mul(u, u.conj()), 0.5)
    else:
        out = np.sign(u[0]) * u
    out[0] = np.abs(u[0])
    return out


def evaluate(tape: list, tr: Truncation, columns: list):
    """Jet of the tape's root at the points of broadcastable columns.

    One real array per variable. Rows of a scan are the case of (m,)
    columns; a tensor lattice passes each axis as a column shaped to
    broadcast along its own dimension, so every instruction runs on the
    smallest shape its operands span. A variable's jet keeps its column's
    shape, and the root is broadcast to the lattice at the end. Returns a
    (tr.size, *shape) array of Taylor coefficients, with shape the
    columns' common broadcast shape; a read-only view where the root spans
    fewer axes than the lattice.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    ndim = max(c.ndim for c in columns)
    columns = [c.reshape((1,) * (ndim - c.ndim) + c.shape) for c in columns]
    shape = (tr.size, *np.broadcast_shapes(*(c.shape for c in columns)))
    vals: list = []
    for op, args, param in tape:
        xs = [vals[i] for i in args]
        if op == "var":
            out = np.zeros((tr.size, *columns[param].shape))
            out[0] = columns[param]
            unit = [0] * len(columns)
            unit[param] = 1
            k = tr.index.get(tuple(unit))
            if k is not None:
                out[k] = 1.0
        elif op == "const":
            out = param
        elif op == "add":
            out = _add(xs)
        elif op == "mul":
            out = _mul(tr, xs)
        elif op == "ipow":
            out = _ipow(tr, xs[0], param)
        elif op == "pow":
            out = _pow(tr, xs[0], param)
        elif op == "powe":
            out = _powe(tr, *xs)
        elif op == "exp":
            out = _exp(tr, xs[0])
        else:
            out = _abs(tr, xs[0])
        vals.append(out)
    root = vals[-1]
    if _is_jet(root):
        return root if root.shape == shape else np.broadcast_to(root, shape)
    out = np.zeros(shape, np.result_type(root))
    out[0] = root                   # a constant expression
    return out
