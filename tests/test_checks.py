import numpy as np

from common import traced_peak

from heisenflag.checks import (
    BATTERY,
    check_context,
    default_context,
    random_field,
    run_identity_battery,
)


def test_battery_all_pass_at_default_seed():
    out = run_identity_battery(seed=0)
    assert list(out) == [c.name for c in BATTERY]
    failing = {k: v for k, v in out.items() if not v["pass"]}
    assert not failing, failing


def test_battery_names_filter_runs_subset():
    names = ["group/associativity", "symbolcalc/quantize-roundtrip"]
    out = run_identity_battery(seed=0, names=names)
    assert list(out) == names  # battery order, both present
    assert all(v["pass"] for v in out.values())


def test_battery_seed_changes_draws_not_verdicts():
    a = run_identity_battery(seed=0, names=["transform/plancherel"])
    b = run_identity_battery(seed=7, names=["transform/plancherel"])
    assert a["transform/plancherel"]["pass"]
    assert b["transform/plancherel"]["pass"]
    # different draws; the errors are rounding-level and may both be 0.0
    def field(seed):
        ctx = check_context(seed, "transform/plancherel")
        return random_field(ctx.grid, ctx.rng).values

    assert np.array_equal(field(0), field(0))
    assert not np.array_equal(field(0), field(7))


def test_default_context_shapes():
    ctx = default_context(seed=0)
    assert ctx.grid.n == 1
    assert ctx.wide.axes[0].count == 2 * ctx.grid.axes[0].count
    assert ctx.state.dim == 1
    again = default_context(seed=0)
    assert np.array_equal(random_field(ctx.grid, ctx.rng).values,
                          random_field(again.grid, again.rng).values)


def test_check_context_keys_seed_and_name():
    def draws(seed, name="transform/plancherel"):
        ctx = check_context(seed, name)
        return [ctx.rng.random() for _ in range(4)]

    seeds = [draws(s) for s in (0, 1, 2**32)]
    assert all(a != b for i, a in enumerate(seeds) for b in seeds[i + 1:])
    assert draws(0) == draws(0)
    assert draws(0) != draws(0, "transform/fourier-roundtrip")


def test_convolution_homomorphism_check_memory():
    # the check reads f * g at two fibers; forming the whole convolution on
    # the wide grid peaked at 3.35 wide-field sizes, two convolution slices
    # peak at about 2.4
    name = "schrodinger/convolution-homomorphism"
    check = next(c for c in BATTERY if c.name == name)
    ctx = check_context(0, name)
    size = 16 * np.prod(ctx.wide.shape)
    err, peak = traced_peak(check.run, ctx)
    assert err <= check.tol
    assert peak < 3 * size
