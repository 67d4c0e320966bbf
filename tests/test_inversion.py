"""Fiberwise inversion pipeline: residuals, oracles, uniformity, gluing."""

import tracemalloc

import numpy as np
import pytest

from common import GROUP32, assert_rows_read_off_one_jet
from oracles import glued_difference_rows, node_inverse_derivative

from heisenflag.checks import random_field
from heisenflag.cli import ExperimentConfig
from heisenflag.fields import LambdaWindow, SampledField
from heisenflag import inversion
from heisenflag.grids import LineGrid, flat_coords
from heisenflag.inversion import (
    H_REL,
    FiberInversionError,
    SymmetryError,
    _inverse_derivatives,
    _table_coordinates,
    derivative_report,
    gramian_lower_bound,
    invert_fiber,
    invert_flag,
    lambda_derivative_check,
    neumann_inverse,
    stencil,
    uniform_invertibility_report,
    verify_inverse,
)
from heisenflag.kernels import CATALOG, make_spectrum
from heisenflag.symbols import (
    evaluate_symbol,
    fiber_axes,
    fiber_symbol,
    field_of_spectrum,
    flag_estimate_report,
    kn_quantize,
    kn_symbol_of,
    unit_symbol,
)
from heisenflag.transform import lambda_filter

GRID = LineGrid(32, 4.0)
DYADIC = [s * 2.0 ** j for j in range(-2, 3) for s in (1.0, -1.0)]


def test_invert_fiber_identity():
    a = kn_quantize(unit_symbol(1.0, GRID))
    b, sigma_min, cond = invert_fiber(a)
    assert abs(sigma_min - 1.0) < 1e-12
    assert abs(cond - 1.0) < 1e-12
    assert np.max(np.abs(b.matrix - np.eye(GRID.size))) < 1e-12


def test_invert_fiber_multiplier_diagonalizes():
    # a xi-only symbol quantizes to a Fourier multiplier, whose inverse is
    # the reciprocal multiplier
    xi = GRID.flat_freqs()[:, 0]
    m = 2.0 + 1.0 / (1.0 + xi ** 2)
    a = unit_symbol(1.0, GRID).with_values(
        np.repeat(m[:, None], GRID.size, axis=1))
    inv, _, _ = invert_fiber(kn_quantize(a))
    recip = a.with_values(np.repeat((1.0 / m)[:, None], GRID.size, axis=1))
    assert np.max(np.abs(inv.matrix - kn_quantize(recip).matrix)) < 1e-10


def test_modes_agree_and_residuals_two_sided():
    spec = make_spectrum("perturbed-identity", eps=0.3)
    res = invert_flag(spec, DYADIC, GRID)
    assert res.uniformly_invertible
    assert res.worst_residual < 1e-10
    for row in res.rows:
        # the exact-inverse semantics keep the two one-sided residuals close
        assert abs(row.residual_right - row.residual_left) < 1e-8
        assert row.residual_sup <= 1e-8 * row.cond
    # the SVD inverse agrees with LAPACK's LU inverse of the same fiber
    for lam in (0.5, -1.0):
        direct = np.linalg.inv(kn_quantize(fiber_symbol(spec, lam, GRID)).matrix)
        gap = np.max(np.abs(direct - res.fibers[lam].b.matrix))
        assert gap < 1e-11


def test_neumann_oracle_matches_solver():
    spec = make_spectrum("perturbed-identity", eps=0.3)
    for lam in (0.5, -0.5, 2.0):
        a = fiber_symbol(spec, lam, GRID)
        series, tail = neumann_inverse(a, k_max=40)
        assert tail < 1e-12
        solved, _, _ = invert_fiber(kn_quantize(a))
        table = kn_symbol_of(solved)
        rel = (np.linalg.norm(series.values - table.values)
               / np.linalg.norm(table.values))
        assert rel < 1e-10


def test_neumann_divergence_reported():
    # symbol 1 + p with ||Op(p)|| > 1: the tail bound must be infinite
    big = unit_symbol(1.0, GRID).with_values(
        1.0 + 3.0 * np.ones((GRID.size, GRID.size)))
    _, tail = neumann_inverse(big, k_max=5)
    assert tail == np.inf


def test_riesz_flagged_non_uniform():
    res = invert_flag(make_spectrum("riesz"), DYADIC, GRID)
    assert not res.uniformly_invertible
    for row in res.rows:
        assert not row.invertible
        # quantization-scale floor, independent of lambda by scaling
        assert 0.10 < row.sigma_min < 0.20
        assert row.symbol_min == 0.0  # vanishes exactly at the origin point
    # and independent of the lattice: refining cannot rescue the fiber
    bigger = invert_flag(make_spectrum("riesz"), [1.0], LineGrid(64, 8.0))
    assert abs(bigger.rows[0].sigma_min - res.rows[0].sigma_min) < 5e-3


def test_perturbed_identity_uniformly_invertible():
    res = invert_flag(make_spectrum("perturbed-identity", eps=0.1),
                      DYADIC, GRID)
    assert res.uniformly_invertible
    for row in res.rows:
        assert row.sigma_min > 0.9
    assert res.uniform_bound < 1.0 / 0.9


def test_cond_limit_raises_loudly():
    # an ill-conditioned but nonsingular fiber: tiny positive multiplier
    xi = GRID.flat_freqs()[:, 0]
    m = 1.0 + 1e10 * np.exp(-50 * xi ** 2)
    a = unit_symbol(1.0, GRID).with_values(
        np.repeat(m[:, None], GRID.size, axis=1))
    with pytest.raises(FiberInversionError) as err:
        invert_fiber(kn_quantize(a), cond_limit=1e6)
    assert err.value.cond > 1e6
    assert err.value.lam == 1.0


def test_ill_conditioned_fiber_inverts_to_rounding():
    # the fiber of test_cond_limit_raises_loudly at cond ~ 1e6, well inside
    # the default cond_limit: the inverse must still meet residual_tol
    xi = GRID.flat_freqs()[:, 0]
    m = 1.0 + 1e6 * np.exp(-50 * xi ** 2)
    a = kn_quantize(unit_symbol(1.0, GRID).with_values(
        np.repeat(m[:, None], GRID.size, axis=1)))
    b, _, cond = invert_fiber(a)
    assert 1e5 < cond < 1e8
    eye = np.eye(GRID.size)
    assert np.linalg.norm(a.matrix @ b.matrix - eye, 2) <= 1e-6
    assert np.linalg.norm(b.matrix @ a.matrix - eye, 2) <= 1e-6


def test_uniform_invertibility_report_table():
    rep = uniform_invertibility_report(
        invert_flag(make_spectrum("delta"), DYADIC, GRID))
    assert abs(rep["frame_constant"] - 1.0) < 1e-12
    assert abs(rep["max_inverse_norm"] - 1.0) < 1e-12
    rep = uniform_invertibility_report(
        invert_flag(make_spectrum("riesz"), DYADIC, GRID))
    assert rep["frame_constant"] < 0.2
    for row in rep["rows"]:
        assert row["inverse_norm"] == pytest.approx(1.0 / row["sigma_min"])
        assert row["sigma_max"] >= row["sigma_min"]


def test_strict_mode_rejects_and_accepts():
    pert = make_spectrum("perturbed-identity", eps=0.3)
    with pytest.raises(SymmetryError):
        invert_flag(pert, [0.5], GRID, strict=True)
    # also on a ladder whose tables repeat at -lam and 4 lam
    with pytest.raises(SymmetryError, match="fiber at lam=0.25 is not Hermitian"):
        invert_flag(pert, DYADIC, GRID, strict=True)
    # a real symbol of xi alone quantizes to a Hermitian circulant
    herm = make_spectrum("expr: 1 + 0.3*w1^2/(1 + w1^2 + abs(lam))")
    res = invert_flag(herm, [0.5, -1.0, 0.25, 2.0], GRID, strict=True)
    assert len({id(b.matrix) for b, _, _ in res.fibers.values()}) == 4
    assert res.uniformly_invertible
    assert res.worst_residual < 1e-10
    for b, _, _ in res.fibers.values():
        herm = np.linalg.norm(b.matrix - b.matrix.conj().T)
        assert herm < 1e-10 * np.linalg.norm(b.matrix)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_invertible_field_matches_the_default_run(name):
    # smallest sigma_min: delta 1.0, riesz 0.134, perturbed-identity 1.066,
    # tempered 1.015, abs-w 0.186, against the floor 0.25
    cfg = ExperimentConfig()
    res = invert_flag(make_spectrum(name), cfg.lam_values(), cfg.state())
    assert res.uniformly_invertible == CATALOG[name].invertible


def test_reconstruction_round_trip_is_lattice_exact():
    spec = make_spectrum("perturbed-identity", eps=0.3)
    res = invert_flag(spec, [0.5, -0.5, 2.0], GRID)
    report = verify_inverse(res)
    for lam, row in report.items():
        # fiber coordinates of the glued family land back on the table
        assert row["glue_error"] < 1e-12
        assert row["residual_right"] < 1e-10


def test_glue_check_sees_a_distorted_lattice_query(monkeypatch):
    # the glued tables are read back through the interpolant, not by index:
    # stretching every axis of the lattice query by 1% must show up
    spec = make_spectrum("perturbed-identity", eps=0.3)
    res = invert_flag(spec, [0.5, -2.0], GRID)
    tol = ExperimentConfig().residual_tol
    assert max(r["glue_error"] for r in verify_inverse(res).values()) < 1e-12
    lattice = SampledField.eval_lattice

    def stretched(self, axis_values, policy="zero"):
        return lattice(self, [1.01 * v for v in axis_values], policy)

    monkeypatch.setattr(SampledField, "eval_lattice", stretched)
    for row in verify_inverse(res).values():
        assert row["glue_error"] > tol


def test_lattice_clipped_rows_match_flat_rows(monkeypatch):
    spec = make_spectrum("perturbed-identity", eps=0.3)
    res = invert_flag(spec, [0.5], GRID)
    # frequencies up to 4 against the table's 2: part of the lattice is out
    wide = LineGrid(64, 4.0)
    lattice, flat = res.spectrum(), res.spectrum()
    rows, eval_at = [], SampledField.eval_at

    def counted(self, points, *args, **kwargs):
        rows.append(len(points))
        return eval_at(self, points, *args, **kwargs)

    monkeypatch.setattr(SampledField, "eval_at", counted)
    # fiber_symbol samples the glued family one axis at a time, not row by row
    got = fiber_symbol(lattice, 0.5, wide).values.reshape(-1)
    assert rows == []
    want = flat(flat_coords(fiber_axes(0.5, wide)), -0.5)
    assert rows == [wide.size ** 2]
    assert 0 < lattice.clipped_rows < wide.size ** 2
    assert lattice.clipped_rows == flat.clipped_rows
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    report = verify_inverse(res)
    assert report[0.5]["clipped_rows"] == 0


def test_verify_inverse_memory_at_rank_two():
    # n = 2 fibers are 64x64 tables over 8^4 lattice rows: contracting
    # row by row would hold a (rows, 8^3) complex intermediate, 32 MiB
    cfg = ExperimentConfig(n=2, state_count=8)
    res = invert_flag(cfg.spectrum(), cfg.lam_values(), cfg.state())
    tracemalloc.start()
    try:
        report = verify_inverse(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert max(r["glue_error"] for r in report.values()) <= 1e-12
    # the inverse frame map lands the table edge -H at -H(1 + eps) for
    # lam = +-0.5, +-2; that is rounding, not a row outside the table
    assert len(report) == 8
    assert all(r["clipped_rows"] == 0 for r in report.values())


def count_inversions(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].lam)
        return invert_fiber(*args, **kwargs)

    monkeypatch.setattr(inversion, "invert_fiber", counted)
    return calls


def test_fiber_records_serve_every_consumer(monkeypatch, tmp_path):
    # each distinct table of the default ladder is inverted once, by
    # invert_flag: perturbed-identity sees lam only through the parabolic
    # frame, so the tables at +-lam and +-4 lam are equal and 2 of the 8
    # fibers are factorized. The records of equal tables share one B and
    # carry their own lam, which the derivative scan reads its nodes off.
    # The scan calls invert_fiber at no order (its probe inverts the
    # stencil nodes by LU), verification inverts nothing, and the glued
    # family is defined at the run's fibers only: it inverts nothing
    cfg = ExperimentConfig()
    calls = count_inversions(monkeypatch)
    res = invert_flag(cfg.spectrum(), cfg.lam_values(), cfg.state())
    assert calls == [0.25, 0.5]
    assert len(res.fibers) == 8
    assert all(fiber.b.lam == lam for lam, fiber in res.fibers.items())
    assert len({id(fiber.b.matrix) for fiber in res.fibers.values()}) == 2
    assert res.fibers[-1.0].b.matrix is res.fibers[0.25].b.matrix
    assert [r.lam for r in res.rows] == cfg.lam_values()
    calls.clear()
    for m_max in (1, 2):
        derivative_report(res, m_max=m_max)
        assert calls == []
    verify_inverse(res)
    assert calls == []
    glued = res.spectrum()
    W = np.array([[0.3, -0.7]])
    with pytest.raises(ValueError, match="no fiber at lam=-3:"):
        glued(W, 3.0)
    assert calls == []
    assert set(res.fibers) == set(cfg.lam_values())
    assert len(res.save(tmp_path)) == 2 + len(cfg.lam_values())
    assert len(list(tmp_path.glob("*.hfc"))) == len(cfg.lam_values())


def test_glued_family_refuses_a_fiber_outside_its_run(monkeypatch):
    # mu = 0 and a mu whose fiber -mu the run lacks are refused before
    # any table is read, whichever row of the batch asks for them
    res = invert_flag(make_spectrum("tempered", eps=0.4), [1.0, -1.0], GRID)
    glued = res.spectrum()
    calls = []
    monkeypatch.setattr(SampledField, "eval_at",
                        lambda *args, **kwargs: calls.append(1))
    W = np.array([[0.3, -0.7], [0.1, 0.2]])
    for lam, name in (([1.0, 0.0], "lam=0:"), ([-1.0, 0.5], "lam=-0.5:")):
        with pytest.raises(ValueError, match=f"no fiber at {name}"):
            glued.derivatives([((0, 0), 1)], W, lam)
        with pytest.raises(ValueError, match=f"no fiber at {name}"):
            glued(W, lam)
    assert calls == []
    assert glued.clipped_rows == 0


@pytest.mark.parametrize("n, count", [(1, 64), (2, 16)])
def test_glued_derivatives_are_the_limit_of_differences(n, count):
    # the exact rows against central differences of the glued values, the
    # mu differences over fibers inverted on their own: the worst gap
    # falls with the stencil's h^4 and ends well inside the scan's needs.
    # The pure mu rows stay at the floor of the record's own lam stencil
    grid = LineGrid(count, 4.0, n)
    spec = make_spectrum("tempered", n=n, eps=0.4)
    d = 2 * n
    rng = np.random.default_rng(1)
    u = rng.normal(size=(12, d))
    W = u / np.linalg.norm(u, axis=1, keepdims=True) * np.geomspace(0.1, 0.6, 12)[:, None]
    unit = np.eye(d, dtype=int)
    zero = (0,) * d
    indices = [(zero, 1), (zero, 2), (tuple(unit[0]), 0), (tuple(2 * unit[0]), 0),
               (tuple(unit[0]), 1), (tuple(unit[-1]), 1), (tuple(unit[-1]), 2)]
    gaps = {0.01: 0.0, 0.005: 0.0}
    for mu in (1.0, -2.0):
        glued = invert_flag(spec, [-mu], grid).spectrum()
        exact = glued.derivatives(indices, W, mu)
        scale = np.max(np.abs(exact), axis=1)
        for h in gaps:
            diff = glued_difference_rows(spec, grid, indices, W, mu, h)
            rel = np.max(np.abs(diff - exact), axis=1) / scale
            gaps[h] = max(gaps[h], float(np.max(rel)))
            if h == 0.005:
                assert np.all(rel <= 1e-4), (mu, rel)
        # order 0 is the table's band-limited value, clamped rows included
        far = np.vstack([W, 40.0 * W[:2]])
        xi, s = _table_coordinates(far[:, :n], far[:, n:], mu)
        want = evaluate_symbol(glued.inverse_table(-mu), xi, s, policy="edge")
        assert np.max(np.abs(glued(far, mu) - want)) <= 1e-13 * np.max(np.abs(want))
    assert gaps[0.01] >= 10 * gaps[0.005], gaps


def test_glued_value_is_order_zero_of_its_rows():
    # rows that mix several mu, each fiber's own table and Leibniz rows
    res = invert_flag(make_spectrum("tempered", eps=0.4), [1.0, -1.0, 2.0], GRID)
    glued = res.spectrum()
    W = np.random.default_rng(2).uniform(-0.8, 0.8, size=(12, 2))
    assert_rows_read_off_one_jet(glued, W, np.resize([-1.0, 1.0, -2.0], 12))


def count_quantizations(monkeypatch) -> list:
    calls = []

    def counted(table):
        calls.append(table.lam)
        return kn_quantize(table)

    monkeypatch.setattr(inversion, "kn_quantize", counted)
    return calls


def test_derivative_scan_quantizes_only_weighted_nodes(monkeypatch):
    # stencil(1) weighs its center by zero, so m_max = 1 samples its 4
    # outer nodes; stencil(2) weighs all 5. The weighted node tables of each
    # order are summed and quantized once, tagged with the fiber's lam
    cfg = ExperimentConfig()
    res = invert_flag(cfg.spectrum(), [1.0], cfg.state())
    spec, sampled = res.spec, []
    on_lattice = spec.on_lattice

    def sample(axes, lam):
        sampled.append(-lam)    # fiber_symbol(spec, lam, grid) passes -lam
        return on_lattice(axes, lam)

    monkeypatch.setattr(spec, "on_lattice", sample)
    calls = count_quantizations(monkeypatch)
    for m_max, offsets in ((1, (-2, -1, 1, 2)), (2, (-2, -1, 0, 1, 2))):
        lambda_derivative_check(spec, res.fibers[1.0], m_max)
        assert sampled == [1.0 + o * H_REL for o in offsets]  # h = H_REL |lam|
        assert calls == [1.0] * m_max
        sampled.clear()
        calls.clear()
    # the default ladder: one quantization per fiber, then the probe
    # quantizes the 4 order-1 nodes of the fiber of largest |lam| itself
    ladder = invert_flag(cfg.spectrum(), cfg.lam_values(), cfg.state())
    calls.clear()
    derivative_report(ladder, m_max=1)
    assert calls == cfg.lam_values() + [2.0 + o * (H_REL * 2.0) for o in (-2, -1, 1, 2)]


@pytest.mark.parametrize("kernel", ["perturbed-identity",
                                    "expr: 2 + w1/(1 + w1^2 + w2^2)"])
def test_derivative_scan_cost_does_not_depend_on_equal_tables(monkeypatch, kernel):
    # the first family repeats its tables at -lam and 4 lam, the second,
    # odd in w1, repeats none: the scan quantizes as often for both
    cfg = ExperimentConfig(kernel=kernel)
    res = invert_flag(cfg.spectrum(), cfg.lam_values(), cfg.state())
    calls = count_quantizations(monkeypatch)
    for m_max in (1, 2):
        derivative_report(res, m_max=m_max)
        assert len(calls) == 8 * m_max + 4
        calls.clear()


def test_tables_odd_in_w_are_all_factorized(monkeypatch):
    # odd in w1: no two fiber tables of the ladder are equal
    cfg = ExperimentConfig(kernel="expr: 2 + w1/(1 + w1^2 + w2^2)")
    calls = count_inversions(monkeypatch)
    res = invert_flag(cfg.spectrum(), cfg.lam_values(), cfg.state())
    assert calls == cfg.lam_values()
    assert len({id(fiber.b.matrix) for fiber in res.fibers.values()}) == 8


def test_reconstructed_family_interpolates():
    spec = make_spectrum("perturbed-identity", eps=0.1)
    res = invert_flag(spec, [1.0], GRID)
    L = res.spectrum()
    # off-lattice probes against a finer lattice of the same inverse
    fine = LineGrid(64, 4.0)
    fine_res = invert_flag(spec, [1.0], fine)
    Lf = fine_res.spectrum()
    W = np.array([[0.37, -0.81], [1.1, 0.4], [-0.6, -0.2]])
    gap = np.max(np.abs(L(W, -1.0) - Lf(W, -1.0)))
    assert gap < 1e-4
    assert L.clipped_rows == 0
    # out-of-footprint rows are counted
    L(np.array([[80.0, 0.0]]), -1.0)
    assert L.clipped_rows == 1


def test_rozklad_identity_moving_fibers():
    # fibers must genuinely move with lambda for a non-vacuous check
    temp = make_spectrum("tempered", eps=0.4)
    for lam in (0.5, -1.0, 2.0):
        row = node_inverse_derivative(temp, lam, GRID)
        assert row["derivative_norm"] > 1e-3
        assert row["identity_rel"] < 1e-3


def test_rozklad_identity_degenerate_family():
    # scale-invariant fibers: both sides vanish, absolute comparison
    pert = make_spectrum("perturbed-identity", eps=0.3)
    row = node_inverse_derivative(pert, 1.0, GRID)
    assert row["derivative_norm"] < 1e-8
    assert row["identity_residual"] < 1e-8
    # the stencil sums rounding noise, which stays below the floor and is
    # reported as such instead of as a ratio of noise to noise
    assert row["zero_to_rounding"]
    assert row["derivative_norm"] <= row["rounding_floor"]
    assert "identity_rel" not in row


@pytest.mark.parametrize("n, count", [(1, 64), (2, 8)])
def test_leibniz_derivatives_match_node_inverses(n, count):
    # the Leibniz rule on the record against the stencil of inverted nodes
    temp = make_spectrum("tempered", n=n, eps=0.4)
    grid = LineGrid(count, 4.0, n)
    res = invert_flag(temp, [0.5, -1.0, 2.0], grid)
    for lam, fiber in res.fibers.items():
        derived = _inverse_derivatives(temp, fiber, 3)
        for order in (1, 2, 3):
            ref = node_inverse_derivative(temp, lam, grid, order)["db"]
            gap = np.linalg.norm(derived[order] - ref, 2)
            assert gap <= 1e-5 * np.linalg.norm(ref, 2), (lam, order)


@pytest.mark.parametrize("n, count", [(1, 64), (2, 8)])
def test_zero_to_rounding_matches_node_inverses(n, count):
    # every catalog kernel inverts on the default ladder (riesz and abs-w
    # only numerically) and reads the same verdicts through order 3
    # whichever way the fiber is differentiated
    cfg = ExperimentConfig(n=n, state_count=count)
    for name in CATALOG:
        spec = make_spectrum(name, n=n)
        res = invert_flag(spec, cfg.lam_values(), cfg.state())
        for lam, fiber in res.fibers.items():
            for row in lambda_derivative_check(spec, fiber, 3):
                ref = node_inverse_derivative(spec, lam, cfg.state(), row["order"])
                assert row["zero_to_rounding"] == ref["zero_to_rounding"], (
                    name, lam, row["order"])
                assert row["rounding_floor"] == ref["rounding_floor"]


def test_scaled_derivatives_uniform_to_second_order():
    temp = make_spectrum("tempered", eps=0.4)
    scan = derivative_report(invert_flag(temp, DYADIC, GRID), m_max=2)
    assert scan["uniform"]
    for order, block in scan["orders"].items():
        assert np.isfinite(block["max_scaled"])
        assert block["max_scaled"] <= 4.0 * block["median_scaled"]


def test_derivative_report_runs_off_result():
    temp = make_spectrum("tempered", eps=0.4)
    res = invert_flag(temp, [0.5, -0.5, 1.0, -1.0], GRID)
    rep = derivative_report(res, m_max=1)
    assert rep["uniform"]
    assert set(rep["orders"]) == {1}
    # the probe sits at the largest |lam| and checks the Leibniz rule
    # against inverted stencil nodes, as the oracle does
    assert rep["probe"]["lam"] == 1.0
    assert rep["probe"]["identity_rel"] < 1e-3
    assert all("identity_rel" not in r for r in rep["orders"][1]["rows"])


def test_gramian_lower_bound_on_random_banded_fields():
    spec = make_spectrum("perturbed-identity", eps=0.1)
    frame = uniform_invertibility_report(
        invert_flag(spec, DYADIC, GRID))["frame_constant"]
    kernel = field_of_spectrum(spec, GROUP32)
    bins = GROUP32.t_axis.freqs()
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = lambda_filter(random_field(GROUP32, rng, modulation_scale=0.5),
                          LambdaWindow(0.25))
        chk = gramian_lower_bound(kernel, f, bins, frame)
        assert chk["ok"]
        assert chk["worst_margin"] > -1e-8


def test_reconstructed_inverse_flag_scan_windowed(monkeypatch):
    # table-backed scans stay on the lattice footprint; the far field is
    # covered separately by the closed-form reciprocal family.  The grid
    # frequency band (N / 4L = 4) must enclose the scan reach at the
    # smallest |lambda| scanned. The scan reads the run's records and
    # inverts no fiber.
    spec = make_spectrum("perturbed-identity", eps=0.1)
    res = invert_flag(spec, [1.0, -1.0, 2.0, -2.0], LineGrid(64, 4.0))
    L = res.spectrum()
    indices = [((0, 0), 0), ((1, 0), 0), ((0, 1), 0),
               ((2, 0), 0), ((1, 1), 0), ((0, 2), 0),
               ((0, 0), 1), ((1, 0), 1), ((0, 1), 1)]
    calls = []
    eval_at = SampledField.eval_at

    def counted(self, *args, **kwargs):
        calls.append(1)
        return eval_at(self, *args, **kwargs)

    monkeypatch.setattr(SampledField, "eval_at", counted)
    inversions = count_inversions(monkeypatch)
    rep = flag_estimate_report(
        L, indices=indices, lam_values=[1.0, -1.0, 2.0, -2.0],
        rmin=0.02, rmax=2.0, shells=9, directions=8)
    bad = [r for r in rep.rows if r.verdict != "ok"]
    assert not bad
    assert L.clipped_rows == 0
    assert inversions == []
    # one derivatives call per lam, one table evaluation per term of its
    # jet: every (j, gamma) with j <= 1 and |gamma| <= 3 - j over the two
    # table coordinates, 10 + 6 terms, at 4 lam
    assert len(calls) == 64


def test_export_artifacts_deterministic(tmp_path):
    spec = make_spectrum("perturbed-identity", eps=0.3)
    res = invert_flag(spec, [0.5, -0.5], GRID)
    files = res.save(tmp_path / "a")
    names = sorted(p.name for p in files)
    assert "inversion.json" in names and "fibers.csv" in names
    assert any(n.startswith("inverse_fiber_") for n in names)
    again = invert_flag(spec, [0.5, -0.5], GRID)
    again.save(tmp_path / "b")
    for p in files:
        q = tmp_path / "b" / p.name
        assert p.read_bytes() == q.read_bytes()


def test_stencil_first_derivative_classic_weights():
    off, w = stencil(1)
    np.testing.assert_array_equal(off, [-2, -1, 0, 1, 2])
    np.testing.assert_allclose(w, [1 / 12, -2 / 3, 0, 2 / 3, -1 / 12], atol=1e-14)


def test_stencil_weights_are_exactly_parity_symmetric():
    # odd orders weigh the center by exactly zero, not by rounding residue
    assert stencil(1)[1][2] == 0.0
    assert stencil(3)[1][3] == 0.0
    for order in range(1, 7):
        w = stencil(order)[1]
        np.testing.assert_array_equal(w, (-1) ** order * w[::-1])


def test_stencil_moment_conditions():
    from math import factorial

    for order in range(1, 5):
        off, w = stencil(order)
        # exact on monomials up to the stencil length
        for k in range(len(off)):
            target = 1.0 if k == order else 0.0
            got = np.sum(w * off.astype(float) ** k) / factorial(k)
            assert abs(got - target) < 1e-10


def test_stencil_rejects_bad_requests():
    with pytest.raises(ValueError):
        stencil(-1)


def test_fourth_order_convergence():
    x = np.array([0.3, 0.9])
    exact = -27.0 * np.cos(3.0 * x)
    off, w = stencil(3)

    def diff(h):
        return sum(wk * np.sin(3.0 * (x + o * h)) for o, wk in zip(off, w)) / h ** 3

    e1 = np.max(np.abs(diff(0.08) - exact))
    e2 = np.max(np.abs(diff(0.04) - exact))
    assert e1 / e2 > 12.0  # ~16x for a 4th-order rule
