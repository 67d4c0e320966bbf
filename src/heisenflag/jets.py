"""Truncated multivariate Taylor jets pushed through a sympy expression tree.

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
largest total degree D. One pass over the tree therefore yields every
derivative in the set at once (Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13); order 0 of the same pass is
plain numpy evaluation.

Node rules: sums and products are exact; a positive integer power is a
repeated product, so w1^2 stays exact at w1 = 0; other numeric powers and
exp use their series at the base value; a symbolic exponent goes through
exp(e log b); abs is sign(u0) times the jet, valid off u0 = 0, which the
flag scans never evaluate (lam = 0 is excluded). Any other node raises
ValueError when the tape is compiled.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import sympy as sp


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
        self.degree = alpha_max + beta_max
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

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.size == 1:
            return a * b
        return np.add.reduceat(a[self._left] * b[self._right], self._starts, axis=0)

    def series(self, u: np.ndarray, coeffs: list) -> np.ndarray:
        """sum_k coeffs[k] (u - u0)^k by Horner's rule."""
        h = u.copy()
        h[0] = 0
        out = np.zeros(u.shape, np.result_type(u, *coeffs))
        out[0] = coeffs[-1]
        for c in coeffs[-2::-1]:
            out = self.mul(out, h)
            out[0] += c
        return out


@functools.lru_cache(maxsize=32)
def truncation(dim: int, alpha_max: int, beta_max: int) -> Truncation:
    return Truncation(dim, alpha_max, beta_max)


# -- the tape ------------------------------------------------------------------

def _constant(node) -> np.generic:
    value = complex(node)
    if not np.isfinite(value):
        raise ValueError(
            f"spectrum expression is not finite in floating point: {sp.N(node, 6)}")
    return np.complex128(value) if value.imag else np.float64(value.real)


def compile_tree(expr, variables: tuple) -> list:
    """Postorder tape of `expr`, one instruction (op, operands, param) per
    distinct node: sympy hash-conses its nodes, so a shared subexpression
    is one slot and is evaluated once per pass."""
    slots: dict = {}
    tape: list = []

    def visit(node) -> int:
        if node in slots:
            return slots[node]
        if node.is_Symbol:
            ins = ("var", (), variables.index(node))
        elif node.is_Atom:
            ins = ("const", (), _constant(node))
        elif node.is_Add or node.is_Mul:
            ins = ("add" if node.is_Add else "mul",
                   tuple(visit(a) for a in node.args), None)
        elif node.is_Pow:
            base, e = node.args
            if not e.is_Number:
                ins = ("powe", (visit(base), visit(e)), None)
            else:
                p = float(_constant(e))
                if p == 0:                  # x^0 = 1 everywhere, as in numpy
                    ins = ("const", (), np.float64(1.0))
                elif p > 0 and p.is_integer():
                    ins = ("ipow", (visit(base),), int(p))
                else:
                    ins = ("pow", (visit(base),), p)
        elif isinstance(node, sp.exp):
            ins = ("exp", (visit(node.args[0]),), None)
        elif isinstance(node, sp.Abs):
            ins = ("abs", (visit(node.args[0]),), None)
        else:
            raise ValueError(
                f"no jet rule for {type(node).__name__} in spectrum expression")
        slots[node] = len(tape)
        tape.append(ins)
        return slots[node]

    visit(expr)
    return tape


# -- one pass --------------------------------------------------------------------

def _is_jet(x) -> bool:
    return np.ndim(x) == 2


def _add(xs: list):
    const = sum(x for x in xs if not _is_jet(x))
    jets = [x for x in xs if _is_jet(x)]
    if not jets:
        return const
    out = jets[0].astype(np.result_type(const, *jets))
    for x in jets[1:]:
        out += x
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
    out[0] = (b[0] if _is_jet(b) else b) ** e[0]    # exact value, also at b0 = 0
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
    """Jet of the tape's root at rows given as one (m,) array per variable.

    Returns a (tr.size, m) array of Taylor coefficients.
    """
    m = len(columns[0])
    vals: list = []
    for op, args, param in tape:
        xs = [vals[i] for i in args]
        if op == "var":
            out = np.zeros((tr.size, m))
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
        return root
    out = np.zeros((tr.size, m), np.result_type(root))
    out[0] = root                   # a constant expression
    return out
