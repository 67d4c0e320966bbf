import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grammar import expression_trees
from oracles import parse_kernel_expression

import heisenflag
from heisenflag.kernels import CATALOG, KernelParseError, make_spectrum
from heisenflag.symbols import SympySpectrum


def test_catalog_entries_instantiate_and_evaluate():
    rng = np.random.default_rng(70)
    W = rng.uniform(-2, 2, size=(30, 2))
    lam = rng.uniform(0.1, 2.0, size=30) * rng.choice([-1, 1], size=30)
    for name in CATALOG:
        spec = make_spectrum(name, eps=0.4)
        vals = spec(W, lam)
        assert vals.shape == (30,) and np.all(np.isfinite(vals))


def test_riesz_values():
    spec = make_spectrum("riesz")
    got = spec(np.array([[1.0, 1.0]]), np.array([2.0]))[0]
    assert np.isclose(got, 0.5)
    assert np.isclose(spec(np.array([[0.0, 0.0]]), np.array([1.0]))[0], 0.0)


def test_tempered_damps_at_high_central_frequency():
    spec = make_spectrum("tempered", eps=0.5)
    W = np.array([[1.0, 0.0]])
    small = spec(W, np.array([1e-9]))[0]
    large = spec(W, np.array([1e9]))[0]
    assert abs(small - 1.25) < 1e-6  # 1 + eps q/(q+1) at q=1
    assert abs(large - 1.0) < 1e-6
    # not dilation invariant: scaling (w, lam) parabolically moves the value
    a1 = spec(np.array([[1.0, 0.0]]), np.array([1.0]))[0]
    a2 = spec(np.array([[2.0, 0.0]]), np.array([4.0]))[0]
    assert abs(a1 - a2) > 1e-3


def test_parser_matches_catalog_expression():
    inline = make_spectrum(
        "expr: 1 + 0.3 * (w1^2 + w2^2) / (w1^2 + w2^2 + abs(lam))")
    catalog = make_spectrum("perturbed-identity", eps=0.3)
    rng = np.random.default_rng(71)
    W = rng.uniform(-3, 3, size=(50, 2))
    lam = rng.uniform(-2, 2, size=50)
    np.testing.assert_allclose(inline(W, lam), catalog(W, lam), atol=1e-12)


def test_parser_precedence_and_unary():
    e = parse_kernel_expression("2^3^2", 1)
    assert sp.simplify(e - 512) == 0
    e = parse_kernel_expression("-w1^2", 1)
    w1 = sp.Symbol("w1")
    assert sp.simplify(e + w1 ** 2) == 0
    e = parse_kernel_expression("1 - 2 - 3", 1)
    assert sp.simplify(e + 4) == 0
    e = parse_kernel_expression("exp(-sqrt(w1^2 + w2^2))", 1)
    assert e.has(sp.exp)


def test_parser_and_catalog_errors():
    with pytest.raises(KernelParseError):
        make_spectrum("expr: w3 + 1", n=1)  # w3 needs rank >= 2
    with pytest.raises(KernelParseError):
        make_spectrum("expr: sin(w1)")
    with pytest.raises(KernelParseError):
        make_spectrum("expr: (w1 + ")
    with pytest.raises(KernelParseError):
        make_spectrum("expr: w1 @ w2")
    with pytest.raises(KernelParseError):
        make_spectrum("expr: w1 w2")
    with pytest.raises(KernelParseError):
        make_spectrum("expr: 1./0.")        # zero to a negative power
    with pytest.raises(KernelParseError):
        make_spectrum("expr: 1e400*w1")     # a literal beyond float range
    with pytest.raises(KernelParseError):
        make_spectrum("expr: 1e400 + w1")
    with pytest.raises(KernelParseError):
        make_spectrum("no-such-kernel")
    with pytest.raises(KernelParseError):
        make_spectrum("perturbed-identity", eps=1.5)


def test_riesz_tape_computes_the_square_sum_once():
    tape = make_spectrum("riesz")._tape
    squares = [k for k, (op, args, _) in enumerate(tape)
               if op == "add" and all(tape[a][0] == "ipow" for a in args)]
    assert len(squares) == 1
    # numerator and denominator both read that one slot
    assert sum(squares[0] in args for _, args, _ in tape) == 2


def test_run_path_does_no_symbolic_arithmetic(tmp_path):
    # sympy is a test oracle only: importing the package, parsing, one jet
    # pass and each command on its default config must never load it
    code = "\n".join([
        "import sys",
        "import heisenflag",
        "from heisenflag.kernels import make_spectrum",
        "assert 'sympy' not in sys.modules, 'import'",
        "spec = make_spectrum('expr: 1/(1 + 0.1*(w1^2 + w2^2)/(w1^2 + w2^2 + abs(lam)))')",
        "make_spectrum('perturbed-identity', eps=0.1)",
        "spec.derivatives([((1, 0), 1), ((0, 2), 0)], [[0.5, -1.0]], 0.25)",
        "assert 'sympy' not in sys.modules, 'jet pass'",
        "for cmd in ('invert', 'estimates', 'identities'):",
        f"    assert heisenflag.cli.main([cmd, '--out', {str(tmp_path)!r} + '/' + cmd]) == 0, cmd",
        "    assert 'sympy' not in sys.modules, cmd",
    ])
    src = Path(heisenflag.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_rank_two_variables():
    spec = make_spectrum("expr: w1*w4 + lam", n=2)
    got = spec(np.array([[1.0, 2.0, 3.0, 4.0]]), np.array([0.5]))[0]
    assert np.isclose(got, 4.5)


# -- grammar properties ----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.data())
def test_grammar_round_trip(data):
    n = data.draw(st.integers(1, 2))
    text, tree = data.draw(expression_trees(n))
    assume(tree is not None)
    parsed = parse_kernel_expression(text, n)
    syms = [sp.Symbol(f"w{i + 1}") for i in range(2 * n)] + [sp.Symbol("lam")]
    rng = np.random.default_rng(72)
    rows = rng.uniform(-2, 2, size=(2 * n + 1, 16))
    rows[-1] = np.where(np.abs(rows[-1]) < 0.1, 0.5, rows[-1])     # lam != 0
    with np.errstate(all="ignore"):
        got, want = (np.broadcast_to(sp.lambdify(syms, e, "numpy")(*rows), (16,))
                     for e in (parsed, tree))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12, equal_nan=True)


TOKENS = ["w1", "w2", "w3", "w4", "lam", "abs", "sqrt", "exp", "sin",
          "0", "1", "9", "99", "0.5", ".5", "1e3", "2E-2", "e",
          "+", "-", "*", "/", "^", "(", ")", ",", " ", "@"]


@st.composite
def token_strings(draw):
    """Token soup, or a grammatical expression with tokens spliced in."""
    tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=24))
    text = draw(st.one_of(st.just(""), expression_trees(2).map(lambda p: p[0])))
    for tok in tokens:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + tok + text[at:]
    return text


@settings(max_examples=200, deadline=None)
@given(token_strings(), st.integers(1, 2))
def test_grammar_rejects_or_builds(text, n):
    try:
        spec = make_spectrum(f"expr: {text}", n=n)
    except ValueError:              # KernelParseError is a ValueError
        return
    assert isinstance(spec, SympySpectrum)
