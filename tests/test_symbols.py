import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from common import GROUPWIDE, LINE64, assert_rows_read_off_one_jet
from grammar import expression_trees
from oracles import (
    kn_quantize_dense,
    kn_symbol_dense,
    symbol_interpolant_literal,
    sympy_derivatives,
    term_magnitudes,
)

from heisenflag.checks import balanced_rates, random_field
from heisenflag.jets import Truncation, evaluate, truncation
from heisenflag.kernels import CATALOG, KernelParseError, make_spectrum
from heisenflag.grids import LineGrid, flat_coords, self_dual_line
from heisenflag.schrodinger import hs_norm, pi_field
from heisenflag.symbols import (
    FiberOperator,
    Spectrum,
    SymbolGrid,
    evaluate_symbol,
    fiber_axes,
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
    spec = make_spectrum(f"expr: (1/{av!r})*exp(-{pi}*(w1^2 + w2^2)/{av!r})"
                         f" * (1/sqrt({at!r}))*exp(-{pi}*lam^2/{at!r})")
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


def test_derivative_rows_match_direct_diff():
    # the order-3 benchmark family, one `derivative` per index
    spec = make_spectrum(
        "expr: 1/(1 + 0.1*(w1^2 + w2^2)/(w1^2 + w2^2 + abs(lam)))")
    W, lams = signed_rows(np.random.default_rng(64), 40, 2)
    indices = all_indices(2, 3, 2)
    oracle = sympy_derivatives(spec, indices)
    for index in indices:
        want = oracle[index](W, lams)
        got = spec.derivative(*index)(W, lams)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), index


class LinearFamily(Spectrum):
    """w1 + lam, a family that implements nothing but its jet: the value
    and two unit coefficients."""

    def _jet(self, tr, columns):
        jet = np.zeros((tr.size, *np.broadcast_shapes(*map(np.shape, columns))))
        jet[0] = columns[0] + columns[-1]
        for var in (0, 2 * self.n):
            k = tr.index.get(tuple(int(i == var) for i in range(2 * self.n + 1)))
            if k is not None:
                jet[k] = 1.0
        return jet


def test_a_family_needs_only_its_jet():
    spec = LinearFamily(1)
    W, lams = signed_rows(np.random.default_rng(69), 10, 2)
    value = W[:, 0] + lams
    np.testing.assert_array_equal(spec(W, lams), value)
    # any order, duplicates included, one row each
    indices = [((1, 0), 0), ((0, 0), 1), ((0, 0), 0), ((1, 0), 0),
               ((0, 1), 0), ((0, 0), 2), ((1, 0), 1), ((0, 0), 1)]
    got = spec.derivatives(indices, W, lams)
    assert got.shape == (len(indices), len(W)) and got.dtype == complex
    for row, want in zip(got, [1.0, 1.0, value, 1.0, 0.0, 0.0, 0.0, 1.0]):
        np.testing.assert_array_equal(row, np.broadcast_to(want, row.shape))
    # and a flag scan: the unit rows grow against their weights ||w|| and
    # ||w||^2 + |lam| at infinity, the zero rows are bounded
    rep = flag_estimate_report(spec, shells=7, directions=6)
    assert len(rep.rows) == 7 * 14
    for r in rep.rows:
        grows = (r.alpha, r.beta) in {((0, 0), 1), ((1, 0), 0)}
        assert r.verdict == ("growth-at-infinity" if grows else "ok"), r
    # and its fiber tables, w1 + lam at (-sgn(lam) sqrt|lam| xi_i, -lam)
    grid = LineGrid(8, 2.0)
    for lam in (0.5, -0.5):
        want = -np.sign(lam) * np.sqrt(abs(lam)) * grid.freqs() - lam
        np.testing.assert_array_equal(fiber_symbol(spec, lam, grid).values,
                                      np.broadcast_to(want[:, None], (8, 8)))


def test_value_is_order_zero_of_the_rows():
    W, lams = signed_rows(np.random.default_rng(70), 30, 2)
    assert_rows_read_off_one_jet(make_spectrum("tempered"), W, lams)


def test_jets_match_sympy_on_catalog_kernels():
    # every index of alpha_max=3, beta_max=2 from one jet pass per kernel;
    # the inline families take the symbolic-exponent rule and the complex
    # branch of abs, which no catalog kernel reaches
    rng = np.random.default_rng(65)
    W, lams = signed_rows(rng, 24, 2)
    indices = all_indices(2, 3, 2)
    for name in [*CATALOG, "expr: (2 + w1^2)^(lam/4)", "expr: 2^(w1/10 + w2*lam)",
                 "expr: (1 + w1^2)^(w2)", "expr: abs((-1)^0.5*w1 + 3) + w2"]:
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

    The absolute tolerance is 1e-9 of each row's oracle max, but at every
    point at least 64 eps times the magnitudes of the terms the jet pass
    sums there (`oracles.term_magnitudes`): a derivative that cancels to 0
    comes out of the jet pass, and out of the oracle unless sympy reduces
    it to exactly 0, as the rounding residue of those terms, which the
    result itself does not bound. Where the terms do not cancel, the floor
    is 64 eps of the result and rtol 1e-9 decides.
    """
    W, lams = signed_rows(np.random.default_rng(67), 12, 2 * spec.n)
    with np.errstate(all="ignore"):
        got = spec.derivatives(indices, W, lams)
        floors = 64 * np.finfo(float).eps * term_magnitudes(spec, indices, W, lams)
        # derivatives only exist where the family is defined
        defined = np.isfinite(got[0])
        for (alpha, beta), row, floor in zip(indices, got, floors):
            want = oracle[alpha, beta](W, lams)
            ok = defined & np.isfinite(want)
            scale = np.max(np.abs(want[ok]), initial=0.0)
            atol = np.maximum(1e-9 * scale, np.nan_to_num(floor[ok], posinf=0.0))
            gap = np.abs(row[ok] - want[ok])
            bad = ~(gap <= atol + 1e-9 * np.abs(want[ok]))
            assert not bad.any(), (f"{text}: alpha={alpha} beta={beta}: got "
                                   f"{row[ok][bad]}, want {want[ok][bad]}, atol {atol[bad]}")


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


@pytest.mark.parametrize("text", ["-(((w1)^-1 / (w1)^-1))", "(abs(w1) / w1)"])
def test_jets_match_sympy_where_terms_cancel(text):
    # order-2 w1-derivatives that vanish: at w1 = 0.0839 their terms carry
    # 2/w1^3 ~ 3.4e3, and one side leaves a residue of 5.7e-14 where the
    # other gives exactly 0, far above 64 eps of the largest value, 1
    spec = make_spectrum(f"expr: {text}")
    indices = tree_indices(1)
    assert_tree_jets_match(text, spec, indices, sympy_derivatives(spec, indices))


# fiber lattices small enough for a property test; each holds w = 0
LATTICES = {1: LineGrid(16, 4.0), 2: LineGrid(8, 3.0, 2)}
LADDER = [0.25, -0.5, 1.0, -2.0, 1.02]


def assert_lattice_matches_rows(spec, lam):
    """The broadcast table equals the (m,)-row evaluation of the same
    lattice bit for bit, NaN and inf positions included, and so do the
    jets to order 2 of the one evaluator behind both."""
    axes = fiber_axes(lam, LATTICES[spec.n])
    d = len(axes)
    tr = truncation(d, 2, 1)
    columns = [np.reshape(ax, (1,) * i + (-1,) + (1,) * (d - 1 - i))
               for i, ax in enumerate(axes)]
    with np.errstate(all="ignore"):
        rows = spec(flat_coords(axes), -lam)
        row_jets = evaluate(spec._tape, tr, [*flat_coords(axes).T, np.full(len(rows), -lam)])
        jets = evaluate(spec._tape, tr, [*columns, -lam])
    table = spec.on_lattice(axes, -lam)
    assert table.shape == rows.shape
    assert np.array_equal(table, rows, equal_nan=True)
    assert jets.shape == (tr.size,) + (LATTICES[spec.n].count,) * d
    assert np.array_equal(jets.reshape(tr.size, -1), row_jets, equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_broadcast_tables_match_rows_on_grammar_trees(data):
    n = data.draw(st.integers(1, 2))
    text, _ = data.draw(expression_trees(n))
    try:
        spec = make_spectrum(f"expr: {text}", n=n)
    except KernelParseError:
        assume(False)
    assert_lattice_matches_rows(spec, data.draw(st.sampled_from(LADDER)))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_broadcast_tables_match_rows_on_the_catalog(name, n):
    for lam in LADDER:
        assert_lattice_matches_rows(make_spectrum(name, n=n), lam)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("text", ["2^w1 + w2^lam", "abs(w1)^(w2/3)",
                                  "(w1 + (-1)^0.5)^(lam*w2)",
                                  "((-1)^0.5*w1 + 1) * ((-1)^0.5*w2 + lam)"])
def test_broadcast_tables_match_rows_off_the_grammar(text, n):
    # variable exponents (the grammar draws integer ones only): numpy's
    # pow differs in the last bit between contiguous and broadcast
    # operands, so the jet pass spreads them to one shape first
    for lam in LADDER:
        assert_lattice_matches_rows(make_spectrum(f"expr: {text}", n=n), lam)


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
