"""CLI contract: exit codes, artifacts, determinism, config handling."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grammar import expression_trees

import heisenflag
from heisenflag.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TOLERANCE,
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
)
from heisenflag.schrodinger import load_operator


def snapshot(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def test_identities_default_passes(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["identities", "--out", str(out), "--seed", "3"]) == EXIT_OK
    run = json.loads((out / "run.json").read_text())
    assert run["status"] == EXIT_OK
    assert run["summary"]["failed"] == []
    assert run["summary"]["checks"] >= 20
    assert "23/23" in capsys.readouterr().out or run["summary"]["checks"] != 23


def test_lambda_band_with_zero_rejected_before_compute(tmp_path):
    out = tmp_path / "run"
    assert main(["identities", "--lambda-band", "0:2",
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()  # validation precedes any computation


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"kernel": "riesz", "lambda_max": 1.0}))
    out = tmp_path / "run"
    code = main(["estimates", "--config", str(cfgfile), "--kernel", "delta",
                 "--out", str(out)])
    assert code == EXIT_OK
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["kernel"] == "delta"      # flag beats file
    assert run["config"]["lambda_max"] == 1.0      # file beats default


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["identities", "--config", str(bad)]) == EXIT_CONFIG
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert main(["identities", "--config", str(bad)]) == EXIT_CONFIG
    # keys of the removed inversion modes and worker pool
    for removed in ({"mode": "reduce"}, {"jobs": 2}):
        bad.write_text(json.dumps(removed))
        assert main(["invert", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["identities", "--jobs", "2"]) == EXIT_CONFIG
    bad.write_text(json.dumps({"v_count": 33}))
    assert main(["identities", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["identities", "--grid", "32,4.0"]) == EXIT_CONFIG
    # gate values that would switch a gate off or fail every run
    for gate in ({"sigma_floor": -1}, {"sigma_floor": 0}, {"residual_tol": float("nan")},
                 {"residual_tol": float("inf")}, {"cond_limit": -5},
                 {"cond_limit": 0.5}, {"blowup_factor": 1},
                 {"blowup_factor": float("nan")}, {"draws": 0}):
        bad.write_text(json.dumps(gate))
        assert main(["invert", "--config", str(bad)]) == EXIT_CONFIG, gate
        assert main(["identities", "--config", str(bad)]) == EXIT_CONFIG, gate
    assert main(["estimates", "--kernel", "expr: w3 + 1"]) == EXIT_CONFIG
    assert main(["estimates", "--kernel", "no-such-kernel"]) == EXIT_CONFIG
    assert main(["no-such-command"]) == EXIT_CONFIG


def test_estimates_catalog_expectations(tmp_path):
    out = tmp_path / "delta"
    assert main(["estimates", "--kernel", "delta", "--out", str(out)]) == EXIT_OK
    run = json.loads((out / "run.json").read_text())
    assert run["summary"]["matches_expectation"]
    rows = list(csv.DictReader((out / "flag_report.csv").read_text().splitlines()))
    assert rows and all(r["verdict"] == "ok" for r in rows)
    # every higher-derivative row of the constant family is exactly flat
    for r in rows:
        if r["alpha"] != "0+0" or r["beta"] != "0":
            assert float(r["sup"]) == 0.0

    out = tmp_path / "absw"
    assert main(["estimates", "--kernel", "abs-w",
                 "--out", str(out)]) == EXIT_TOLERANCE
    run = json.loads((out / "run.json").read_text())
    assert run["summary"]["matches_expectation"]  # failure is the expectation
    assert any(f["verdict"] != "ok" for f in run["summary"]["flagged"])


def test_estimates_inline_kernel(tmp_path):
    out = tmp_path / "inline"
    expr = "expr: 1 + 0.3*(w1^2 + w2^2)/(w1^2 + w2^2 + abs(lam))"
    assert main(["estimates", "--kernel", expr, "--out", str(out)]) == EXIT_OK
    run = json.loads((out / "run.json").read_text())
    assert run["summary"]["expected_pass"]  # inline families default to pass


def test_invert_perturbed_identity_ok(tmp_path):
    out = tmp_path / "run"
    assert main(["invert", "--kernel", "perturbed-identity", "--eps", "0.1",
                 "--out", str(out)]) == EXIT_OK
    run = json.loads((out / "run.json").read_text())
    s = run["summary"]
    assert s["uniformly_invertible"]
    assert s["frame_constant"] > 0.5
    assert s["worst_residual"] < 1e-10
    assert s["worst_glue_error"] < 1e-10
    # serialized inverses load back and match the residual claim
    op = load_operator(out / "inverse_fiber_+1.000000.hfc")
    assert op.lam == 1.0
    assert np.isfinite(op.matrix).all()


def test_invert_riesz_fails_with_sigma_table(tmp_path):
    out = tmp_path / "run"
    assert main(["invert", "--kernel", "riesz",
                 "--out", str(out)]) == EXIT_NUMERICAL
    run = json.loads((out / "run.json").read_text())
    assert not run["summary"]["uniformly_invertible"]
    rows = list(csv.DictReader((out / "fibers.csv").read_text().splitlines()))
    assert rows
    for r in rows:
        assert float(r["sigma_min"]) < 0.25
        assert r["invertible"] == "0"


def test_invert_residual_tolerance_gate(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"residual_tol": 1e-20}))
    assert main(["invert", "--kernel", "perturbed-identity",
                 "--config", str(cfgfile)]) == EXIT_TOLERANCE


def test_invert_strict_symmetric_rejects(tmp_path):
    assert main(["invert", "--kernel", "perturbed-identity",
                 "--strict-symmetric"]) == EXIT_CONFIG


@pytest.mark.parametrize("kernel, code", [
    ("delta", EXIT_OK),
    ("expr: 2", EXIT_OK),                       # every fiber is 2 I
    ("expr: 1 + 0.5*exp(-lam^2)", EXIT_OK),     # a multiple of I per fiber
    ("perturbed-identity", EXIT_CONFIG),
    ("riesz", EXIT_CONFIG),
])
def test_strict_mode_measures_each_fiber(capsys, kernel, code):
    # the fiber matrices decide, not a declaration on the family
    assert main(["invert", "--kernel", kernel, "--strict-symmetric"]) == code
    err = capsys.readouterr().err
    assert ("not Hermitian" in err) == (code == EXIT_CONFIG)


def test_report_replays_status(tmp_path, capsys):
    out = tmp_path / "run"
    main(["invert", "--kernel", "riesz", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == EXIT_NUMERICAL
    text = capsys.readouterr().out
    assert "invert" in text and "fibers.csv" in text
    assert main(["report", "--out", str(tmp_path / "empty")]) == EXIT_CONFIG


def test_repeat_runs_byte_identical(tmp_path):
    out = tmp_path / "run"
    args = ["invert", "--kernel", "perturbed-identity", "--eps", "0.2",
            "--out", str(out), "--seed", "9"]
    assert main(args) == EXIT_OK
    first = snapshot(out)
    assert main(args) == EXIT_OK
    assert snapshot(out) == first


def test_library_value_error_exits_config(tmp_path, capsys):
    # passes validate(), then the battery's lambda = 1 lies outside the
    # central band of this t grid: a rejected parameter, not a tolerance
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(
        {"n": 2, "state_count": 16, "v_count": 8, "t_count": 16}))
    out = tmp_path / "run"
    assert main(["identities", "--config", str(cfgfile),
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not (out / "run.json").exists()


def run_module(*args):
    src = Path(heisenflag.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "heisenflag", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point(tmp_path):
    proc = run_module("report", "--out", str(tmp_path / "missing"))
    assert proc.returncode == EXIT_CONFIG
    assert "no run.json" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("run", [
    ["command", "status", "summary"],                        # not an object
    {"command": "invert", "status": None, "summary": {}},
    {"command": "invert", "status": 7, "summary": {}},       # not an exit code
    {"command": "invert", "status": True, "summary": {}},
    {"command": "invert", "status": 0, "summary": []},
], ids=["root-list", "status-null", "status-7", "status-bool", "summary-list"])
def test_report_malformed_run_json_exits_config(tmp_path, run):
    (tmp_path / "run.json").write_text(json.dumps(run))
    proc = run_module("report", "--out", str(tmp_path))
    assert proc.returncode == EXIT_CONFIG
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, expr", [
    ("estimates", "1/0"), ("estimates", "0^-1"),          # non-finite constants
    ("estimates", "w1/0"),
    ("estimates", "(" * 2000 + "w1" + ")" * 2000),      # nesting beyond the stack
    ("estimates", "9^9^9"),                             # a 370M-digit integer
    ("estimates", "1e400*w1"),                          # literals beyond float range
    ("invert", "1e400 + w1"),
    ("estimates", "10^300*10^300*w1"),                  # a folded constant beyond it
    ("estimates", "1/(w1-w1)"),                         # a difference that cancels
    ("estimates", "exp(1000)*w1"),                      # a folded exp beyond range
    ("estimates", "2^-2000"),                           # a power that underflows
], ids=["one-over-zero", "zero-to-minus-one", "w1-over-zero",
        "nested-2000", "power-tower", "literal-overflow-estimates",
        "literal-overflow-invert", "folded-overflow", "cancelled-difference",
        "exp-overflow", "power-underflow"])
def test_inline_kernel_that_crashed_or_hung_exits_config(command, expr):
    proc = run_module(command, "--kernel", f"expr: {expr}")
    assert proc.returncode == EXIT_CONFIG
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("expr", ["exp(1000*w1^2) - exp(1000*w2^2)",
                                  "exp(w1^2 + w2^2)^1000"])
def test_estimates_rows_that_are_not_finite_fail(tmp_path, capsys, expr):
    # every comparison with NaN is false: such rows would otherwise read ok
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main(["estimates", "--kernel", f"expr: {expr}", "--out", str(out)])
    assert code == EXIT_TOLERANCE
    # an inline kernel has no catalog entry for the scan to contradict
    assert "catalog expectation" not in capsys.readouterr().out
    rows = list(csv.DictReader((out / "flag_report.csv").read_text().splitlines()))
    assert len(rows) == 96 and all(r["verdict"] == "non-finite" for r in rows)


@pytest.mark.parametrize("expr", ["sqrt(w1)", "exp(w1^2) - exp(w2^2)"])
def test_non_finite_rows_fail_without_numpy_warnings(expr):
    # the scans report such rows `non-finite`; the jet pass stays quiet
    proc = run_module("estimates", "--kernel", f"expr: {expr}")
    assert proc.returncode == EXIT_TOLERANCE
    assert "RuntimeWarning" not in proc.stderr
    proc = run_module("invert", "--kernel", f"expr: {expr}")
    assert proc.returncode == EXIT_NUMERICAL
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("expr", ["exp(w1^2) - exp(w2^2)", "sqrt(w1)"])
def test_non_finite_rows_report_nan_constants(tmp_path, expr):
    # Python's max skips a NaN after a number and keeps one before it, so
    # a row with a NaN shell or an index with NaN rows could read finite
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        main(["estimates", "--kernel", f"expr: {expr}", "--out", str(out)])
    rows = json.loads((out / "flag_report.json").read_text())["rows"]
    sym0 = json.loads((out / "run.json").read_text())["summary"]["sym0"]
    for r in rows:
        assert np.isnan(r["sup"]) == (r["verdict"] == "non-finite")
    for key, value in sym0.items():
        hit = [r for r in rows if f"alpha={r['alpha']} beta={r['beta']}" == key]
        assert hit and np.isnan(value) == any(np.isnan(r["sup"]) for r in hit)
    assert any(np.isnan(v) for v in sym0.values())


@pytest.mark.parametrize("expr", ["1/(w1)", "1/(lam - 0.25)"])
def test_non_finite_fiber_exits_numerical_naming_the_fiber(expr):
    # LAPACK printed `DLASCL ... illegal value` and the message was only
    # "SVD did not converge"
    proc = run_module("invert", "--kernel", f"expr: {expr}")
    assert proc.returncode == EXIT_NUMERICAL
    assert "lam=" in proc.stderr and "entries are not finite" in proc.stderr
    for text in ("DLASCL", "did not converge", "Traceback"):
        assert text not in proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "small.json"
    path.write_text(json.dumps({"state_count": 8, "alpha_max": 1}))
    return str(path)


@settings(max_examples=200, deadline=None)
@given(expression_trees(1), st.sampled_from([
    ("invert",), ("invert", "--strict-symmetric"), ("estimates",)]))
@example(("10^200", None), ("invert",))  # sigma_min^2 raised OverflowError
def test_commands_on_drawn_kernels_exit_by_contract(small_config, tree, command):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), np.errstate(all="ignore"):
        code = main([*command, "--config", small_config,
                     "--kernel", "expr: " + tree[0]])
    assert code in (EXIT_OK, EXIT_TOLERANCE, EXIT_CONFIG, EXIT_NUMERICAL)
    if code == EXIT_NUMERICAL:
        assert "lam=" in out.getvalue() + err.getvalue()


def test_config_dyadic_ladder_and_validation():
    cfg = ExperimentConfig(lambda_min=0.25, lambda_max=2.0)
    assert sorted(cfg.lam_values()) == [-2.0, -1.0, -0.5, -0.25,
                                        0.25, 0.5, 1.0, 2.0]
    with pytest.raises(ConfigError):
        ExperimentConfig(lambda_min=0.3, lambda_max=0.4).lam_values()
    with pytest.raises(ConfigError):
        load_config(None, {"mode": "bogus"})
    with pytest.raises(ConfigError):
        load_config(None, {"state_count": 48})


@pytest.mark.parametrize("config", [
    {"lambda_min": "x"}, {"eps": "x"}, {"n": 1.5}, {"shells": 3.0},
    {"kernel": 5}, {"n": True}, {"strict_symmetric": 1}, {"eps": 10 ** 400},
])
def test_config_value_of_wrong_type_exits_config(tmp_path, capsys, config):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["estimates", "--config", str(cfgfile),
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("args, config", [
    (("estimates", "--lambda-band", "0.25:inf"), None),
    (("invert", "--lambda-band", "0.25:inf"), None),
    (("estimates",), {"lambda_max": 1e400}),
    (("invert",), {"lambda_max": 1e400}),
    (("estimates",), {"rmax": 1e400}),
], ids=["band-estimates", "band-invert", "lambda-max-estimates",
        "lambda-max-invert", "rmax-estimates"])
def test_non_finite_band_or_radius_exits_config(tmp_path, args, config):
    # json reads 1e400 as inf: the ladder had no top rung (OverflowError)
    # and an infinite radius gave only non-finite scan rows
    if config is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        args += ("--config", str(cfgfile))
    proc = run_module(*args, "--out", str(tmp_path / "run"))
    assert proc.returncode == EXIT_CONFIG
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run").exists()


def test_config_types_accepted():
    # ints stand in for floats; out takes a string or null
    cfg = load_config(None, {"eps": 0, "lambda_max": 4, "out": None})
    assert cfg.lambda_max == 4 and cfg.out is None
    assert load_config(None, {"out": "dir", "strict_symmetric": True}).out == "dir"
    with pytest.raises(ConfigError):
        load_config(None, {"out": 3})


JSON_VALUES = st.one_of(
    st.integers(), st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__)),
                       JSON_VALUES, max_size=6))
@example({"lambda_max": float("inf")})  # passed validate(), overflowed the ladder
@example({"rmax": float("inf")})
def test_load_config_fuzz_validates_or_rejects(tmp_path_factory, data):
    cfgfile = tmp_path_factory.getbasetemp() / "fuzz.json"
    cfgfile.write_text(json.dumps(data))
    try:
        cfg = load_config(str(cfgfile), {})
    except ConfigError:
        return
    cfg.validate()
    try:
        cfg.lam_values()
    except ConfigError:
        pass
    for key, value in data.items():
        got = getattr(cfg, key)
        assert got == value or (got != got and value != value)  # nan echo
