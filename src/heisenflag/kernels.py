"""Kernel catalog and the inline symbol expression language.

Every entry is a symbol family a(w, lam) over the flag covariables
w in R^{2n} and the central frequency lam, written in the inline language
for any rank n. Catalog entries carry the expected outcomes of the
estimate and inversion pipelines so the test battery and the command line
can assert against them.

Inline expressions use variables w1..w_{2n} and lam, functions abs, sqrt
and exp, the operators + - * / ^ and parentheses, e.g.

    expr: 1 + 0.3 * (w1^2 + w2^2) / (w1^2 + w2^2 + abs(lam))

The parser builds the Taylor-jet tape of `heisenflag.jets` directly and
folds constant subtrees in floating point. A folded constant that is not
finite, a zero constant raised to a negative power and a numeric power
beyond floating-point range raise `KernelParseError`.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
import sys
from dataclasses import dataclass
from typing import Callable

from .jets import Tape, is_slot
from .symbols import SympySpectrum


def _square_sum(n: int) -> str:
    return " + ".join(f"w{i}^2" for i in range(1, 2 * n + 1))


def _riesz(n: int, eps: float) -> str:
    q = _square_sum(n)
    return f"({q})/({q} + abs(lam))"


def _perturbed_identity(n: int, eps: float) -> str:
    return f"1 + {float(eps)!r}*({_riesz(n, eps)})"


def _tempered(n: int, eps: float) -> str:
    # unit shift inside the parabolic bracket: breaks dilation invariance
    # without leaving the flag class (a pure-lam damping factor would,
    # since d_lam of it cannot decay in w). eps weights each square, not
    # their sum: the order of the float operations shows in the artifacts
    weighted = " + ".join(f"{float(eps)!r}*w{i}^2" for i in range(1, 2 * n + 1))
    return f"1 + ({weighted})/({_square_sum(n)} + abs(lam) + 1)"


def _abs_w(n: int, eps: float) -> str:
    return f"sqrt({_square_sum(n)})"


@dataclass(frozen=True)
class KernelCatalogEntry:
    name: str
    description: str
    text: Callable[[int, float], str]     # inline expression at (n, eps)
    flag_ok: bool          # passes the seminorm scan
    invertible: bool       # admits a bounded inverse in the algebra
    uses_eps: bool = False


CATALOG: dict[str, KernelCatalogEntry] = {
    e.name: e
    for e in [
        KernelCatalogEntry(
            "delta", "identity kernel, unit symbol", lambda n, eps: "1",
            flag_ok=True, invertible=True),
        KernelCatalogEntry(
            "riesz", "parabolic Riesz ratio |w|^2/(|w|^2+|lam|); vanishes on "
            "the flag boundary", _riesz, flag_ok=True, invertible=False),
        KernelCatalogEntry(
            "perturbed-identity", "1 + eps * riesz; invertible for |eps| < 1",
            _perturbed_identity, flag_ok=True, invertible=True,
            uses_eps=True),
        KernelCatalogEntry(
            "tempered", "1 + eps |w|^2/(|w|^2+|lam|+1); invertible and not "
            "dilation invariant", _tempered, flag_ok=True,
            invertible=True, uses_eps=True),
        KernelCatalogEntry(
            "abs-w", "euclidean norm of w; violates the flag derivative "
            "bounds at infinity", _abs_w, flag_ok=False,
            invertible=False),
    ]
}


# -- inline expression parser ---------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = ("abs", "sqrt", "exp")

# parentheses, function calls, signs and exponents nest the descent; past
# this depth the parser would run out of stack
_MAX_DEPTH = 64

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class KernelParseError(ValueError):
    pass


def _power(base, e):
    if base != 0 and abs(abs(e) * math.log(abs(base))) > _LOG_FLOAT_MAX:
        # refuse before evaluating: also catches a power that underflows
        raise KernelParseError("a numeric power is beyond floating-point range")
    return base ** e


def _exp(x):
    return cmath.exp(x) if isinstance(x, complex) else math.exp(x)


_FOLD = {"add": operator.add, "mul": operator.mul, "power": _power,
         "exp": _exp, "abs": abs}


class _Parser:
    """Recursive descent over: expr > term > power > unary > atom.

    Each rule returns a tape slot (int) or a constant (float or complex).
    """

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
        self.tape = Tape()
        self.vars = {f"w{i + 1}": i for i in range(2 * n)}
        self.vars["lam"] = 2 * n

    def apply(self, op: str, *xs):
        """The tape's `op` of `xs`; an op of constants only is folded."""
        if any(is_slot(x) for x in xs):
            return getattr(self.tape, op)(*xs)
        try:
            value = _FOLD[op](*xs)
        except ZeroDivisionError as exc:
            raise KernelParseError("division by zero") from exc
        except OverflowError as exc:
            raise KernelParseError(f"a folded constant ({op}) is beyond "
                                   "floating-point range") from exc
        if not cmath.isfinite(value):
            raise KernelParseError(f"a folded constant ({op}) is not finite")
        return value

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

    def parse(self) -> list:
        out = self.expr()
        if self.pos != len(self.tokens):
            raise KernelParseError(f"trailing input at {self.peek()[1]!r}")
        return self.tape.program(out)

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op = self.take()
            rhs = self.term()
            node = self.apply("add", node, rhs if op == "+" else self.apply("mul", -1.0, rhs))
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            _, op = self.take()
            rhs = self.unary()
            node = self.apply("mul", node,
                              rhs if op == "*" else self.apply("power", rhs, -1.0))
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
                return self.apply("mul", -1.0, self.unary())
            return self.power()
        finally:
            self.depth -= 1

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.take()
            # right associative, signed exponent
            return self.apply("power", base, self.unary())
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise KernelParseError(f"number {val} is beyond floating-point range")
            return value
        if kind == "name":
            if self.peek()[1] == "(":
                if val not in _FUNCTIONS:
                    raise KernelParseError(f"unknown function {val!r}")
                self.take("(")
                arg = self.expr()
                self.take(")")
                return self.apply("power", arg, 0.5) if val == "sqrt" else self.apply(val, arg)
            index = self.vars.get(val)
            if index is None:
                raise KernelParseError(f"unknown variable {val!r}")
            return self.tape.var(index)
        if val == "(":
            node = self.expr()
            self.take(")")
            return node
        raise KernelParseError(f"unexpected token {val!r}")


def parse_tape(text: str, n: int) -> list:
    """Jet tape (`heisenflag.jets.evaluate`) of an inline expression over
    w1..w_{2n} and lam."""
    return _Parser(text, n).parse()


def make_spectrum(spec: str, n: int = 1, eps: float = 0.5) -> SympySpectrum:
    """Catalog name or an `expr:` inline definition to a symbol family."""
    spec = spec.strip()
    if spec.startswith("expr:"):
        return SympySpectrum(parse_tape(spec[5:], n), n)
    entry = CATALOG.get(spec)
    if entry is None:
        known = ", ".join(sorted(CATALOG))
        raise KernelParseError(f"unknown kernel {spec!r}; catalog: {known}")
    if entry.uses_eps and not (0.0 < abs(eps) < 1.0):
        raise KernelParseError(f"kernel {spec!r} needs 0 < |eps| < 1, got {eps}")
    return SympySpectrum(parse_tape(entry.text(n, eps), n), n)
