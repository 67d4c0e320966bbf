import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from common import GROUPWIDE, LINE64
from grammar import expression_trees
from oracles import (
    CallableSpectrum,
    kn_quantize_dense,
    kn_symbol_dense,
    symbol_interpolant_literal,
    sympy_derivatives,
)

from heisenflag.checks import balanced_rates, random_field
from heisenflag.jets import Truncation
from heisenflag.kernels import CATALOG, make_spectrum
from heisenflag.grids import LineGrid, self_dual_line
from heisenflag.schrodinger import FiberOperator, hs_norm, pi_field
from heisenflag.symbols import (
    SymbolGrid,
    SympySpectrum,
    evaluate_symbol,
    fiber_symbol,
    fiber_symbol_of_field,
    flag_estimate_report,
    kn_quantize,
    kn_symbol_of,
    twisted_product,
    unit_symbol,
)
from heisenflag.transform import gaussian_field


def random_symbol(lam, grid, rng):
    v = rng.standard_normal((grid.size, grid.size)) \
        + 1j * rng.standard_normal((grid.size, grid.size))
    return SymbolGrid(lam, grid, v)


def test_quantize_unit_is_identity():
    a = kn_quantize(unit_symbol(0.5, LINE64))
    assert np.max(np.abs(a.matrix - np.eye(LINE64.size))) < 1e-12


# the FFT pair against the dense phase products: on self-dual lattices
# and on lattices whose frequency spacing differs from the point spacing
QUANT_GRIDS = [LINE64, LineGrid(64, 6.0), self_dual_line(8, 2), LineGrid(16, 3.0, 2)]
QUANT_IDS = ["n1-N64-dual", "n1-N64-L6", "n2-N8-dual", "n2-N16-L3"]


@pytest.mark.parametrize("grid", QUANT_GRIDS, ids=QUANT_IDS)
def test_quantize_matches_dense_phase_products(grid):
    rng = np.random.default_rng(62)
    a = random_symbol(0.5, grid, rng)
    want = kn_quantize_dense(a)
    got = kn_quantize(a).matrix
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    m = rng.standard_normal(want.shape) + 1j * rng.standard_normal(want.shape)
    want = kn_symbol_dense(m, grid)
    got = kn_symbol_of(FiberOperator(0.5, grid, m)).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_quantize_roundtrip_is_exact():
    rng = np.random.default_rng(60)
    for grid in QUANT_GRIDS:
        a = random_symbol(0.5, grid, rng)
        back = kn_symbol_of(kn_quantize(a))
        assert np.max(np.abs(back.values - a.values)) <= 1e-14 * np.max(np.abs(a.values))


def test_hs_norm_equals_symbol_norm():
    rng = np.random.default_rng(61)
    a = random_symbol(-0.5, LINE64, rng)
    assert np.isclose(hs_norm(kn_quantize(a)), a.l2_norm(), rtol=1e-12)


def test_twisted_product_unit_and_associativity():
    rng = np.random.default_rng(62)
    a, b, c = (random_symbol(0.5, LINE64, rng) for _ in range(3))
    one = unit_symbol(0.5, LINE64)
    assert np.max(np.abs(twisted_product(a, one).values - a.values)) < 1e-9
    lhs = twisted_product(twisted_product(a, b), c)
    rhs = twisted_product(a, twisted_product(b, c))
    scale = np.max(np.abs(lhs.values))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10 * scale


def test_fiber_symbol_scale_invariance_of_riesz():
    # the riesz family is invariant under the parabolic dilations, so all
    # fibers of one sign share a single symbol table
    spec = make_spectrum("riesz")
    base = fiber_symbol(spec, 0.5, LINE64)
    for lam in (2.0, 0.125, -0.5, -2.0):
        other = fiber_symbol(spec, lam, LINE64)
        np.testing.assert_allclose(other.values, base.values, atol=1e-13)


def test_fiber_symbol_rejects_zero_lambda():
    with pytest.raises(ValueError):
        fiber_symbol(make_spectrum("delta"), 0.0, LINE64)


def test_dictionary_symbol_of_compression_matches_field_route():
    # Kohn-Nirenberg symbol of the compressed operator == fiber symbol read
    # from the transformed kernel samples
    rng = np.random.default_rng(63)
    f = random_field(GROUPWIDE, rng, modulation_scale=0.2)
    for lam in (0.5, -0.5):
        via_op = kn_symbol_of(pi_field(f, lam, LINE64))
        via_hat = fiber_symbol_of_field(f, lam, LINE64)
        scale = via_hat.l2_norm()
        diff = via_op.with_values(via_op.values - via_hat.values).l2_norm()
        assert diff / scale < 1e-6


def test_fiber_symbol_of_gaussian_matches_analytic():
    av, at = balanced_rates(GROUPWIDE)
    f = gaussian_field(GROUPWIDE, v_rate=av, t_rate=at)
    pi = repr(math.pi)
    spec = SympySpectrum(f"(1/{av!r})*exp(-{pi}*(w1^2 + w2^2)/{av!r})"
                         f" * (1/sqrt({at!r}))*exp(-{pi}*lam^2/{at!r})", 1)
    for lam_val in (0.5, -0.5, 1.0):
        want = fiber_symbol(spec, lam_val, LINE64)
        got = fiber_symbol_of_field(f, lam_val, LINE64)
        assert np.max(np.abs(got.values - want.values)) < 1e-9


def test_flag_report_catalog_and_negative_control():
    for name in ("delta", "riesz", "perturbed-identity", "tempered"):
        rep = flag_estimate_report(make_spectrum(name), directions=6, shells=9)
        assert rep.overall_ok, (name, {r.verdict for r in rep.rows} - {"ok"})
    rep = flag_estimate_report(make_spectrum("abs-w"), directions=6, shells=9)
    assert not rep.overall_ok
    bad = [r.verdict for r in rep.rows if r.verdict != "ok"]
    assert bad and all("growth-at-infinity" in v for v in bad)


def test_flag_report_serialization_round_trip():
    import json

    rep = flag_estimate_report(make_spectrum("riesz"), shells=5, directions=4,
                               lam_values=[0.5, -0.5])
    data = json.loads(rep.to_json())
    assert data["overall_ok"] is True
    assert len(data["rows"]) == len(rep.rows)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "alpha,beta,lam,sup,verdict"
    assert len(lines) == 1 + len(rep.rows)


def test_finite_difference_path_matches_analytic_rows():
    analytic = make_spectrum("riesz")
    blind = CallableSpectrum(1, lambda W, lam: analytic(W, lam))
    kw = dict(indices=[((1, 0), 0), ((0, 1), 1)], lam_values=[1.0, -0.5],
              rmin=0.1, rmax=10.0, shells=5, directions=6)
    ra = flag_estimate_report(analytic, **kw)
    rb = flag_estimate_report(blind, **kw)
    for x, y in zip(ra.rows, rb.rows):
        floor = 1e-4 * max(x.shell_sup)  # difference noise floor of the stencil
        for sa, sb in zip(x.shell_sup, y.shell_sup):
            assert abs(sa - sb) <= 2e-2 * sa + floor


def all_indices(dim, alpha_max, beta_max):
    return [(alpha, beta)
            for alpha in itertools.product(range(alpha_max + 1), repeat=dim)
            if sum(alpha) <= alpha_max for beta in range(beta_max + 1)]


def signed_rows(rng, m, dim):
    W = rng.uniform(-3, 3, size=(m, dim))
    lams = rng.uniform(0.05, 4, size=m) * rng.choice([-1, 1], size=m)
    return W, lams


def assert_jets_match(spec, indices, W, lams):
    got = spec.derivatives(indices, W, lams)
    assert got.shape == (len(indices), len(W))
    oracle = sympy_derivatives(spec, indices)
    for (alpha, beta), row in zip(indices, got):
        want = oracle[alpha, beta](W, lams)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(row - want)) <= 1e-12 * scale, (alpha, beta)


def test_derivative_views_match_direct_diff():
    # the order-3 benchmark family, one cached view per index
    spec = make_spectrum(
        "expr: 1/(1 + 0.1*(w1^2 + w2^2)/(w1^2 + w2^2 + abs(lam)))")
    W, lams = signed_rows(np.random.default_rng(64), 40, 2)
    indices = all_indices(2, 3, 2)
    oracle = sympy_derivatives(spec, indices)
    for index in indices:
        want = oracle[index](W, lams)
        got = spec.derivative(*index)(W, lams)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), index
    assert spec.derivative((0, 0), 0) is spec
    assert spec.derivative((1, 2), 1) is spec.derivative([1, 2], 1)  # cached


def test_jets_match_sympy_on_catalog_kernels():
    # every index of alpha_max=3, beta_max=2 from one jet pass per kernel
    rng = np.random.default_rng(65)
    W, lams = signed_rows(rng, 24, 2)
    indices = all_indices(2, 3, 2)
    for name in CATALOG:
        assert_jets_match(make_spectrum(name, eps=0.4), indices, W, lams)


def test_jets_match_sympy_at_rank_two():
    rng = np.random.default_rng(66)
    W, lams = signed_rows(rng, 24, 4)
    indices = [((0, 0, 0, 0), 0), ((1, 0, 0, 0), 2), ((0, 2, 0, 1), 1),
               ((0, 0, 3, 0), 0), ((1, 1, 0, 1), 2), ((0, 0, 0, 2), 1)]
    for name in ("riesz", "tempered", "abs-w"):
        assert_jets_match(make_spectrum(name, n=2, eps=0.3), indices, W, lams)


def test_truncation_mul_reuses_scratch_without_aliasing():
    # the order-3 scan's monomial set; a fresh instance, not the cached one
    tr = Truncation(2, 3, 2)
    rng = np.random.default_rng(74)

    def jet(rows, dtype=float):
        x = rng.standard_normal((tr.size, rows))
        return x + 1j * rng.standard_normal(x.shape) if dtype is complex else x

    cases = [(jet(156), jet(156)), (jet(156), jet(156, complex)),
             (jet(156, complex), jet(156)), (jet(156), jet(156)),
             (jet(7, complex), jet(7, complex)), (jet(156), jet(156))]
    results = []
    for a, b in cases:
        got = tr.mul(a, b)
        want = np.add.reduceat(a[tr._left] * b[tr._right], tr._starts, axis=0)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        results.append((got, want))
        if len(results) == 1:
            first = {key: id(buf) for key, buf in tr._scratch.items()}
    # the next float x float product at the same row count reused them
    assert {key: id(tr._scratch[key]) for key in first} == first
    for got, want in results:
        np.testing.assert_array_equal(got, want)
        assert not any(np.shares_memory(got, buf) for buf in tr._scratch.values())


def tree_indices(n):
    return [(alpha, beta) for alpha, beta in all_indices(2 * n, 2, 2)
            if sum(alpha) + beta <= 2]


def assert_tree_jets_match(text, spec, indices, oracle):
    """Order <= 2 jets of a grammar tree against the sympy oracle.

    The absolute tolerance is 1e-9 of each row's oracle max, but at least
    64 eps of the largest oracle value of the whole block: a derivative
    that sympy simplifies to exactly 0 comes out of the jet pass as the
    rounding residue of its terms.
    """
    W, lams = signed_rows(np.random.default_rng(67), 12, 2 * spec.n)
    with np.errstate(all="ignore"):
        got = spec.derivatives(indices, W, lams)
        # derivatives only exist where the family is defined
        defined = np.isfinite(got[0])
        wants = [oracle[index](W, lams) for index in indices]
        oks = [defined & np.isfinite(want) for want in wants]
        block = max(np.max(np.abs(want[ok]), initial=0.0)
                    for want, ok in zip(wants, oks))
        for (alpha, beta), row, want, ok in zip(indices, got, wants, oks):
            scale = np.max(np.abs(want[ok]), initial=0.0)
            atol = max(1e-9 * scale, 64 * np.finfo(float).eps * block)
            np.testing.assert_allclose(row[ok], want[ok], rtol=1e-9, atol=atol,
                                       err_msg=f"{text}: alpha={alpha} beta={beta}")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_jets_match_sympy_on_grammar_trees(data):
    n = data.draw(st.integers(1, 2))
    text, tree = data.draw(expression_trees(n))
    # a finite tree builds: every node of the grammar has a jet rule, and
    # only a constant beyond floating-point range is refused
    assume(tree is not None)
    spec = make_spectrum(f"expr: {text}", n=n)
    indices = tree_indices(n)
    try:
        oracle = sympy_derivatives(spec, indices)
    except NotImplementedError:
        assume(False)
    assert_tree_jets_match(text, spec, indices, oracle)


def test_jets_match_sympy_where_a_derivative_is_exactly_zero():
    # sympy reduces d/dw1 and d^2/dw1^2 of the sign w1/|w1| to exactly 0;
    # the jet pass leaves +-1.1e-16 at some of the rows
    spec = make_spectrum("expr: w1/abs(w1)")
    indices = tree_indices(1)
    oracle = sympy_derivatives(spec, indices)
    assert_tree_jets_match("w1/abs(w1)", spec, indices, oracle)


def test_order_zero_evaluator_at_the_origin():
    # exact integer powers keep the origin finite, where a series at the
    # base value would divide by zero
    origin = np.zeros((3, 2))
    lams = np.array([1.0, -0.5, 2.0])
    assert np.all(make_spectrum("riesz")(origin, lams) == 0.0)
    assert np.all(make_spectrum("abs-w")(origin, lams) == 0.0)
    assert np.all(make_spectrum("tempered", eps=0.5)(origin, lams) == 1.0)
    square = make_spectrum("expr: w1^2 + lam")
    assert np.all(square.derivatives([((0, 0), 0), ((1, 0), 0), ((2, 0), 0)],
                                     origin, lams).real
                  == [lams, [0.0] * 3, [2.0] * 3])


def test_lambda_derivatives_drop_delta_terms():
    # d_lam^2 of |lam| is a delta on the excluded lam = 0 plane: the jets
    # must agree with the delta-stripped sympy derivative on both sides
    spec = make_spectrum("riesz")
    indices = [((0, 0), 2), ((1, 0), 2), ((0, 2), 2)]
    oracle = sympy_derivatives(spec, indices)
    rng = np.random.default_rng(68)
    W = rng.uniform(-3, 3, size=(30, 2))
    for sign in (1.0, -1.0):
        lams = sign * rng.uniform(0.05, 4, size=30)
        for index in indices:
            want = oracle[index](W, lams)
            got = spec.derivative(*index)(W, lams)
            scale = np.max(np.abs(want))
            assert scale > 0
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (sign, index)


def test_sym0_constants_bounded_for_riesz():
    table = flag_estimate_report(make_spectrum("riesz"), shells=7, directions=6).sym0()
    assert table and all(v < 50.0 for v in table.values())


def test_evaluate_symbol_footprint_is_half_open():
    g = LineGrid(8, 2.0)
    a = unit_symbol(1.0, g)        # the interpolant is 1 everywhere
    H, L = g.freq_half_width, g.half_width
    xi = np.array([[-H], [H], [0.3], [0.3]])
    s = np.array([[0.1], [0.1], [-L], [L]])
    got = evaluate_symbol(a, xi, s, policy="zero")
    assert np.allclose(got, [1.0, 0.0, 1.0, 0.0], rtol=0, atol=1e-13)
    with pytest.raises(ValueError):
        evaluate_symbol(a, xi, s[:, :0])


def test_evaluate_symbol_matches_literal_interpolant():
    rng = np.random.default_rng(41)
    g = LineGrid(16, 2.0)
    a = random_symbol(0.5, g, rng)
    H, L = g.freq_half_width, g.half_width
    xi = rng.uniform(-H, H, size=(12, 1))
    s = rng.uniform(-L, L, size=(12, 1))
    want = symbol_interpolant_literal(a.values, g.points(), g.freqs(), xi[:, 0], s[:, 0])
    got = evaluate_symbol(a, xi, s)
    assert np.max(np.abs(got - want)) < 1e-12
    # lattice coincidences return the table itself
    on = evaluate_symbol(a, g.freqs()[[3, 9]][:, None], g.points()[[5, 0]][:, None])
    assert np.allclose(on, a.values[[3, 9], [5, 0]], rtol=0, atol=1e-12)
