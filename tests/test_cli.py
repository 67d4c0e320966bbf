"""CLI contract: exit codes, artifacts, determinism, config handling."""

import ast
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


def test_one_parser_takes_flags_before_or_after_the_command(tmp_path, capsys):
    assert main(["--help"]) == EXIT_OK
    text = capsys.readouterr().out
    for name in ("identities", "estimates", "invert", "report"):
        assert name in text
    assert main(["bogus"]) == EXIT_CONFIG
    out = tmp_path / "run"
    assert main(["--kernel", "delta", "estimates", "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "run.json").read_text())["config"]["kernel"] == "delta"


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
                 "--grid", "16,2.5,32,6.0", "--out", str(out)])
    assert code == EXIT_OK
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["kernel"] == "delta"      # flag beats file
    assert run["config"]["lambda_max"] == 1.0      # file beats default
    # --grid expands into its four config keys
    assert {k: run["config"][k] for k in ("v_count", "v_half_width", "t_count",
                                          "t_half_width")} == {
        "v_count": 16, "v_half_width": 2.5, "t_count": 32, "t_half_width": 6.0}


def test_config_errors(tmp_path, capsys):
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
    for flag, value in (("--grid", "16,x,32,8.0"), ("--lambda-band", "0.5"),
                        ("--lambda-band", "0.5:x")):
        capsys.readouterr()
        assert main(["estimates", flag, value]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err, (flag, value)
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

    # make_spectrum strips the name, and so does the catalog lookup
    for i, name in enumerate(["abs-w", " abs-w"]):
        out = tmp_path / f"absw{i}"
        assert main(["estimates", "--kernel", name,
                     "--out", str(out)]) == EXIT_TOLERANCE
        summary = json.loads((out / "run.json").read_text())["summary"]
        assert not summary["expected_pass"], name
        assert summary["matches_expectation"], name  # failure is the expectation
        assert any(f["verdict"] != "ok" for f in summary["flagged"])


def test_estimates_inline_kernel(tmp_path):
    out = tmp_path / "inline"
    expr = "expr: 1 + 0.3*(w1^2 + w2^2)/(w1^2 + w2^2 + abs(lam))"
    assert main(["estimates", "--kernel", expr, "--out", str(out)]) == EXIT_OK
    run = json.loads((out / "run.json").read_text())
    assert run["summary"]["expected_pass"]  # inline families default to pass
    # a pole at w = 0: every alpha row with beta = 0 blows up inward
    out = tmp_path / "pole"
    assert main(["estimates", "--kernel", "expr: 1/(w1^2 + w2^2)",
                 "--out", str(out)]) == EXIT_TOLERANCE
    rows = list(csv.DictReader((out / "flag_report.csv").read_text().splitlines()))
    flagged = [r for r in rows if r["verdict"] != "ok"]
    assert len(rows) == 96 and len(flagged) == 48
    assert all(r["verdict"] == "origin-blowup" and r["beta"] == "0" for r in flagged)


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


@pytest.mark.parametrize("band, fibers", [("1e-7:1e-6", 8), ("1e300:1e301", 6)])
def test_invert_names_each_fiber_file_by_its_lam(tmp_path, band, fibers):
    # six decimals would round the first band's fibers onto +-0.000000 and
    # spell the second one's (+-2^997..2^999) in over 300 characters
    out = tmp_path / "run"
    assert main(["invert", "--lambda-band", band, "--out", str(out)]) == EXIT_OK
    assert len(json.loads((out / "inversion.json").read_text())["fibers"]) == fibers
    files = sorted(out.glob("inverse_fiber_*.hfc"))
    assert len(files) == fibers
    for path in files:
        lam = float(path.name[len("inverse_fiber_"):-len(".hfc")])
        assert load_operator(path).lam == lam


def test_invert_failed_save_leaves_no_run_json(tmp_path, monkeypatch):
    def refuse(op, path):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(heisenflag.inversion, "save_operator", refuse)
    out = tmp_path / "run"
    assert main(["invert", "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "run.json").exists()


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


def test_report_shows_identity_headroom(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["identities", "--out", str(out)]) == EXIT_OK
    results = json.loads((out / "run.json").read_text())["summary"]["results"]
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    for name, row in results.items():
        cells = next(line for line in lines if line.split()[0] == name).split()
        assert [float(c) for c in cells[1:3]] == pytest.approx(
            [row["error"], row["tol"]], rel=1e-3)
        want = row["tol"] / row["error"] if row["error"] else float("inf")
        assert float(cells[3]) == pytest.approx(want, rel=1e-2)


@pytest.mark.parametrize("results", [
    None, ["group/associativity"], {"group/associativity": 0.5},
    {"group/associativity": {"tol": 1e-12}},
    {"group/associativity": {"error": "0", "tol": 1e-12}},
    {"group/associativity": {"error": True, "tol": 1e-12}},
    {"group/associativity": {"error": 1e-16, "tol": -1.0}},
], ids=["missing", "list", "entry-number", "no-error", "error-string",
        "error-bool", "tol-negative"])
def test_report_malformed_identity_results_exits_config(tmp_path, capsys, results):
    summary = {"checks": 1, "failed": []}
    if results is not None:
        summary["results"] = results
    (tmp_path / "run.json").write_text(json.dumps(
        {"command": "identities", "status": 0, "summary": summary}))
    assert main(["report", "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("configuration error: run.json")


def test_negative_seed_exits_config(tmp_path, capsys):
    # random.Random seeds on |seed|, so -1 would silently rerun seed 1
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": -1}))
    for args in (["--seed", "-1"], ["--config", str(cfgfile)]):
        out = tmp_path / "run"
        assert main(["identities", *args, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed" in err
        assert not (out / "run.json").exists()


def test_identities_independent_of_hash_seed(tmp_path):
    summaries = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        proc = run_module("identities", "--seed", "5", "--out", str(out),
                          PYTHONHASHSEED=hash_seed)
        assert proc.returncode == EXIT_OK, proc.stderr
        summaries.append(json.loads((out / "run.json").read_text())["summary"])
    assert summaries[0] == summaries[1]


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


def test_out_of_memory_exits_config(tmp_path, capsys, monkeypatch):
    # {"n": 3} makes 262144-point fibers, whose identity matrix alone is
    # 512 GiB; the allocation is faked here rather than attempted
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 512. GiB for an array with "
                          "shape (262144, 262144) and data type float64")

    monkeypatch.setattr("heisenflag.cli.invert_flag", refuse)
    out = tmp_path / "run"
    assert main(["invert", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("configuration error: the configured grid does not "
                          "fit in memory (Unable to allocate 512. GiB")
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("command", ["invert", "estimates", "identities", "report"])
def test_unusable_run_directory_exits_config(tmp_path, capsys, command):
    # the artifacts cannot be written under a regular file, and a run.json
    # that is a directory cannot be read
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    if command == "report":
        (tmp_path / "run" / "run.json").mkdir(parents=True)
        out = tmp_path / "run"
    assert main([command, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("configuration error") and str(out) in err


def run_module(*args, **env_vars):
    src = Path(heisenflag.__file__).resolve().parent.parent
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "heisenflag", *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("v_half_width", [1e-300, 1e300])
def test_cell_weight_out_of_float_range_is_a_config_error(tmp_path, v_half_width):
    # the cell weight underflows to 0 or overflows: refused at load, before
    # any compute, where a lattice spike divided by it and a twisted
    # product overflowed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v_half_width": v_half_width}))
    proc = run_module("identities", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "cell weight" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_underflowing_reference_operator_exits_numerical(tmp_path):
    # the weight is in range, but a compressed field underflows to 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v_half_width": 1e-150}))
    proc = run_module("identities", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_NUMERICAL, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "numerical failure: the reference operator" in proc.stderr


def test_identities_on_a_t_axis_whose_dual_lattice_misses_one_half(tmp_path):
    # t_half_width 7.5 puts the t dual lattice at multiples of 1/15; the
    # convolution check reads f * g at the nearest lattice fibers, 0.5333
    out = tmp_path / "run"
    with redirect_stdout(io.StringIO()):
        code = main(["identities", "--grid", "16,4.0,64,7.5", "--out", str(out)])
    assert code != EXIT_CONFIG
    row = json.loads((out / "run.json").read_text())["summary"]["results"][
        "schrodinger/convolution-homomorphism"]
    assert row["pass"], row


IMPORT_FOOTPRINT = """
import sys
import heisenflag
def loaded():
    return [m for m in ("numpy.random", "secrets", "_hashlib") if m in sys.modules]
print("footprint import", loaded())
out, n2 = sys.argv[1], sys.argv[2]
for step, args in (("invert", []), ("estimates", []), ("identities", []),
                   ("estimates", ["--config", n2])):
    code = heisenflag.main([step, *args, "--out", f"{out}/{step}{len(args)}"])
    print("footprint", step, *args[1:], code, loaded())
"""


def test_no_command_loads_numpy_random(tmp_path):
    # numpy.random costs about 6 MiB resident, 3.6 MiB of it OpenSSL's
    # libcrypto through secrets; a subprocess, since this process has
    # loaded it already
    src = Path(heisenflag.__file__).resolve().parent.parent
    n2 = tmp_path / "n2.json"
    n2.write_text(json.dumps({"n": 2}))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT, str(tmp_path), str(n2)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    steps = [line for line in proc.stdout.splitlines() if line.startswith("footprint")]
    assert steps == ["footprint import []", "footprint invert 0 []",
                     "footprint estimates 0 []", "footprint identities 0 []",
                     f"footprint estimates {n2} 0 []"]


def test_package_imports_in_one_direction():
    # no import from the package hides inside a function or class body,
    # and the module-level `from .x import` graph has no cycle
    graph = {}
    for path in sorted(Path(heisenflag.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            relative = isinstance(node, ast.ImportFrom) and node.level
            absolute = isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "heisenflag" for a in node.names)
            if relative or absolute:
                assert node in tree.body, f"{path.name}:{node.lineno} imports in a body"
        graph[path.stem] = {node.module for node in tree.body
                            if isinstance(node, ast.ImportFrom) and node.level}
    while graph:
        leaves = [m for m, deps in graph.items() if not deps & graph.keys()]
        assert leaves, f"import cycle among {sorted(graph)}"
        for m in leaves:
            del graph[m]


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


# each family's first non-finite table, by the lam its message names
NON_FINITE_AT = {"1/(w1)": 0.25, "1/(lam - 0.25)": -0.25, "2 + 1/(lam + 0.26)": 0.26,
                 "1 + w1 * w1^-1": 0.25}


@pytest.mark.parametrize("expr", list(NON_FINITE_AT))
def test_non_finite_fiber_exits_numerical_naming_the_fiber(expr):
    # LAPACK printed `DLASCL ... illegal value` and the message was only
    # "SVD did not converge"; a table with an infinite entry warned in the
    # FFT of its quantization first. The third pole sits at the derivative
    # stencil node 0.25 + 2 * 0.02 * 0.25 of fiber 0.25, a table that is
    # only summed into the fiber's derivative, so the message names the
    # node, not the fiber. The last family is NaN (0 * inf) at w1 = 0, a
    # point of every fiber, and a NaN table equals no other
    proc = run_module("invert", "--kernel", f"expr: {expr}")
    assert proc.returncode == EXIT_NUMERICAL
    assert f"fiber at lam={NON_FINITE_AT[expr]:g}: " in proc.stderr
    assert "entries are not finite" in proc.stderr
    for text in ("DLASCL", "did not converge", "Traceback", "RuntimeWarning"):
        assert text not in proc.stdout + proc.stderr


def test_tiny_scale_family_reports_finite_norms(tmp_path):
    # the sum of squares of a 1e170 inverse overflowed to an HS norm of
    # Infinity, and sigma_min^2 = 1e-340 made the rounding floor Infinity
    out = tmp_path / "run"
    proc = run_module("invert", "--kernel", "expr: 10^-170", "--out", str(out))
    assert proc.returncode == EXIT_NUMERICAL  # sigma_min 1e-170 < floor
    assert "RuntimeWarning" not in proc.stderr
    rows = json.loads((out / "inversion.json").read_text())["fibers"]
    hs = [r["inverse_hs_norm"] for r in rows]
    assert len(hs) == 8 and np.allclose(hs, 8e170, rtol=1e-12)
    deriv = json.loads((out / "derivatives.json").read_text())
    floors = [r["rounding_floor"] for k in deriv["orders"]
              for r in deriv["orders"][k]["rows"]]
    assert floors and all(np.isfinite(floors))


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "small.json"
    path.write_text(json.dumps({"state_count": 8, "alpha_max": 1}))
    return str(path)


@settings(max_examples=200, deadline=None)
@given(expression_trees(1), st.sampled_from([
    ("invert",), ("invert", "--strict-symmetric"), ("estimates",)]))
@example(("10^200", None), ("invert",))  # sigma_min^2 raised OverflowError
@example(("lam + 2.04", None), ("invert",))  # a singular node of the probe
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
    (("invert",), {"t_half_width": 1e400}),
    (("estimates",), {"v_half_width": -1.0}),
], ids=["band-estimates", "band-invert", "lambda-max-estimates",
        "lambda-max-invert", "rmax-estimates", "t-half-width-invert",
        "v-half-width-estimates"])
def test_non_finite_band_or_radius_exits_config(tmp_path, args, config):
    # json reads 1e400 as inf: the ladder had no top rung (OverflowError),
    # an infinite radius gave only non-finite scan rows, and a grid
    # half-width that only `identities` reads ran elsewhere and was echoed
    # into run.json (an infinite one as Infinity, which is not JSON)
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
@example({"n": 3118315334})  # validate() built 2n axes to read the cell weight
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
