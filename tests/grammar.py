"""Hypothesis strategies over the inline kernel grammar."""

import sympy as sp
from hypothesis import strategies as st

FUNCTIONS = {"abs": sp.Abs, "sqrt": sp.sqrt, "exp": sp.exp}
BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def expression_trees(n):
    """(inline text, sympy tree) pairs over w1..w_{2n}, lam and numbers,
    combined with abs/sqrt/exp, + - * / and small integer powers."""
    names = [f"w{i + 1}" for i in range(2 * n)] + ["lam"]
    leaves = st.one_of(
        st.sampled_from(names).map(lambda v: (v, sp.Symbol(v))),
        st.integers(0, 20).map(lambda k: (str(k), sp.Integer(k))),
        st.floats(0.01, 10.0).map(lambda x: f"{x:.3f}").map(
            lambda t: (t, sp.Float(t))))

    def call(args):
        fn, (text, tree) = args
        return f"{fn}({text})", FUNCTIONS[fn](tree)

    def binary(args):
        op, (ta, a), (tb, b) = args
        return f"({ta} {op} {tb})", BINARY[op](a, b)

    def power(args):
        (text, tree), k = args
        return f"({text})^{k}", tree ** k

    def grow(sub):
        return st.one_of(
            st.tuples(st.sampled_from(sorted(FUNCTIONS)), sub).map(call),
            sub.map(lambda a: (f"-({a[0]})", -a[1])),
            st.tuples(st.sampled_from(sorted(BINARY)), sub, sub).map(binary),
            st.tuples(sub, st.integers(-3, 3)).map(power))

    return st.recursive(leaves, grow, max_leaves=10)
