"""Hypothesis strategies over the inline kernel grammar."""

import math

import numpy as np
import sympy as sp
from hypothesis import strategies as st

FUNCTIONS = {"abs": sp.Abs, "sqrt": sp.sqrt, "exp": sp.exp}
BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b}

# inside log(float max) = 709.78, so rounding cannot cross the parser's bound
LOG_RANGE = 700.0


def _in_range(tree) -> bool:
    """Every constant subtree is exactly 0 or a float with |log|v|| in range."""
    if tree.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
        return False
    for sub in sp.preorder_traversal(tree):
        if sub.is_number:
            v = complex(sub)
            if not np.isfinite(v) or (v == 0) != bool(sub.is_zero):
                return False
            if v and abs(math.log(abs(v))) > LOG_RANGE:
                return False
    return True


def expression_trees(n):
    """(inline text, sympy tree) pairs over w1..w_{2n}, lam and numbers,
    combined with abs/sqrt/exp, + - * / and small integer powers.

    The parser folds constants in floating point and refuses a division by
    zero or a constant beyond floating-point range anywhere on the way;
    sympy may simplify such a step away ((w1/0)^0 is 1). The tree is None
    when some step of the text may be refused.
    """
    names = [f"w{i + 1}" for i in range(2 * n)] + ["lam"]
    leaves = st.one_of(
        st.sampled_from(names).map(lambda v: (v, sp.Symbol(v))),
        st.integers(0, 20).map(lambda k: (str(k), sp.Integer(k))),
        st.floats(0.01, 10.0).map(lambda x: f"{x:.3f}").map(
            lambda t: (t, sp.Float(t))))

    def checked(text, build, *trees):
        if any(t is None for t in trees):
            return text, None
        tree = build(*trees)
        return text, tree if _in_range(tree) else None

    def call(args):
        fn, (text, tree) = args
        return checked(f"{fn}({text})", FUNCTIONS[fn], tree)

    def binary(args):
        op, (ta, a), (tb, b) = args
        return checked(f"({ta} {op} {tb})", BINARY[op], a, b)

    def power(args):
        (text, tree), k = args
        return checked(f"({text})^{k}", lambda t: t ** k, tree)

    def grow(sub):
        return st.one_of(
            st.tuples(st.sampled_from(sorted(FUNCTIONS)), sub).map(call),
            sub.map(lambda a: checked(f"-({a[0]})", lambda t: -t, a[1])),
            st.tuples(st.sampled_from(sorted(BINARY)), sub, sub).map(binary),
            st.tuples(sub, st.integers(-3, 3)).map(power))

    return st.recursive(leaves, grow, max_leaves=10)
