"""Kernel catalog and the inline symbol expression language.

Every entry is a symbol family a(w, lam) over the flag covariables
w in R^{2n} and the central frequency lam. Catalog entries carry the
expected outcomes of the estimate and inversion pipelines so the test
battery and the command line can assert against them.

Inline expressions use variables w1..w_{2n} and lam, functions abs, sqrt
and exp, the operators + - * / ^ and parentheses, e.g.

    expr: 1 + 0.3 * (w1^2 + w2^2) / (w1^2 + w2^2 + abs(lam))
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Callable

import sympy as sp

from .symbols import SympySpectrum


def _rho(n: int):
    w = sp.symbols(f"w1:{2 * n + 1}")
    lam = sp.Symbol("lam")
    q = sum(wi ** 2 for wi in w)
    return q / (q + sp.Abs(lam))


def _make_delta(n: int, eps: float) -> SympySpectrum:
    return SympySpectrum(sp.Integer(1), n, symmetric=True)


def _make_riesz(n: int, eps: float) -> SympySpectrum:
    return SympySpectrum(_rho(n), n)


def _make_perturbed_identity(n: int, eps: float) -> SympySpectrum:
    return SympySpectrum(1 + eps * _rho(n), n)


def _make_tempered(n: int, eps: float) -> SympySpectrum:
    # unit shift inside the parabolic bracket: breaks dilation invariance
    # without leaving the flag class (a pure-lam damping factor would,
    # since d_lam of it cannot decay in w)
    w = sp.symbols(f"w1:{2 * n + 1}", real=True)
    lam = sp.Symbol("lam", real=True)
    q = sum(wi ** 2 for wi in w)
    return SympySpectrum(1 + eps * q / (q + sp.Abs(lam) + 1), n)


def _make_abs_w(n: int, eps: float) -> SympySpectrum:
    w = sp.symbols(f"w1:{2 * n + 1}")
    return SympySpectrum(sp.sqrt(sum(wi ** 2 for wi in w)), n)


@dataclass(frozen=True)
class KernelCatalogEntry:
    name: str
    description: str
    factory: Callable[[int, float], SympySpectrum]
    flag_ok: bool          # passes the seminorm scan
    invertible: bool       # admits a bounded inverse in the algebra
    uses_eps: bool = False


CATALOG: dict[str, KernelCatalogEntry] = {
    e.name: e
    for e in [
        KernelCatalogEntry(
            "delta", "identity kernel, unit symbol", _make_delta,
            flag_ok=True, invertible=True),
        KernelCatalogEntry(
            "riesz", "parabolic Riesz ratio |w|^2/(|w|^2+|lam|); vanishes on "
            "the flag boundary", _make_riesz, flag_ok=True, invertible=False),
        KernelCatalogEntry(
            "perturbed-identity", "1 + eps * riesz; invertible for |eps| < 1",
            _make_perturbed_identity, flag_ok=True, invertible=True,
            uses_eps=True),
        KernelCatalogEntry(
            "tempered", "1 + eps |w|^2/(|w|^2+|lam|+1); invertible and not "
            "dilation invariant", _make_tempered, flag_ok=True,
            invertible=True, uses_eps=True),
        KernelCatalogEntry(
            "abs-w", "euclidean norm of w; violates the flag derivative "
            "bounds at infinity", _make_abs_w, flag_ok=False,
            invertible=False),
    ]
}


# -- inline expression parser ---------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {"abs": sp.Abs, "sqrt": sp.sqrt, "exp": sp.exp}

# parentheses, function calls, signs and exponents nest the descent; past
# this depth the parser, and sympy after it, would run out of stack
_MAX_DEPTH = 64

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class KernelParseError(ValueError):
    pass


class _Parser:
    """Recursive descent over: expr > term > power > unary > atom."""

    def __init__(self, text: str, n: int):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise KernelParseError(f"bad character at {text[pos:pos + 8]!r}")
            pos = m.end()
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind)))
        self.pos = 0
        self.depth = 0
        self.vars = {f"w{i + 1}": s for i, s in
                     enumerate(sp.symbols(f"w1:{2 * n + 1}"))}
        self.vars["lam"] = sp.Symbol("lam")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, want=None):
        kind, val = self.peek()
        if kind is None:
            raise KernelParseError("unexpected end of expression")
        if want is not None and val != want:
            raise KernelParseError(f"expected {want!r}, found {val!r}")
        self.pos += 1
        return kind, val

    def parse(self):
        out = self.expr()
        if self.pos != len(self.tokens):
            raise KernelParseError(f"trailing input at {self.peek()[1]!r}")
        return out

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            _, op = self.take()
            rhs = self.unary()
            node = node * rhs if op == "*" else node / rhs
        return node

    def unary(self):
        # every nesting cycle of the grammar passes through here
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise KernelParseError(f"expression nests deeper than {_MAX_DEPTH}")
        try:
            # binds looser than ^ so -w1^2 means -(w1^2)
            if self.peek()[1] == "-":
                self.take()
                return -self.unary()
            return self.power()
        finally:
            self.depth -= 1

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.take()
            exp = self.unary()              # right associative, signed exponent
            if base.is_Number and exp.is_Number and base != 0 \
                    and abs(float(abs(exp)) * float(sp.log(abs(base)))) > _LOG_FLOAT_MAX:
                # refuse before sympy evaluates it exactly
                raise KernelParseError(
                    "a numeric power is beyond floating-point range")
            return base ** exp
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            if not math.isfinite(float(val)):
                raise KernelParseError(
                    f"number {val} is beyond floating-point range")
            return sp.Rational(val) if "." not in val and "e" not in val.lower() \
                else sp.Float(val)
        if kind == "name":
            if self.peek()[1] == "(":
                fn = _FUNCTIONS.get(val)
                if fn is None:
                    raise KernelParseError(f"unknown function {val!r}")
                self.take("(")
                arg = self.expr()
                self.take(")")
                return fn(arg)
            sym = self.vars.get(val)
            if sym is None:
                raise KernelParseError(f"unknown variable {val!r}")
            return sym
        if val == "(":
            node = self.expr()
            self.take(")")
            return node
        raise KernelParseError(f"unexpected token {val!r}")


def parse_kernel_expression(text: str, n: int) -> sp.Expr:
    try:
        return _Parser(text, n).parse()
    except ZeroDivisionError as exc:
        # sympy divides Floats eagerly: 1./0. raises where 1/0 gives zoo
        raise KernelParseError("division by zero") from exc


def make_spectrum(spec: str, n: int = 1, eps: float = 0.5) -> SympySpectrum:
    """Catalog name or an `expr:` inline definition to a symbol family."""
    spec = spec.strip()
    if spec.startswith("expr:"):
        return SympySpectrum(parse_kernel_expression(spec[5:], n), n)
    entry = CATALOG.get(spec)
    if entry is None:
        known = ", ".join(sorted(CATALOG))
        raise KernelParseError(f"unknown kernel {spec!r}; catalog: {known}")
    if entry.uses_eps and not (0.0 < abs(eps) < 1.0):
        raise KernelParseError(f"kernel {spec!r} needs 0 < |eps| < 1, got {eps}")
    return entry.factory(n, eps)
