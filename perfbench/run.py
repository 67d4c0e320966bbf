"""heisenflag benchmark: fresh-process CLI workloads, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/heisenflag`). One
sample is one fresh interpreter (`child.py`) that imports the package,
loads the workload config and calls `heisenflag.cli.main` once with a fresh
`--out` directory; `run.py` then gates the sample on the `run.json` it
wrote. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics of a separate traced run. Human-readable lines and a
JSON detail line (environment, per-metric quartiles and sample counts)
come first; the last line of standard output is the result object. See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0       # a run must end well inside 180 s


# -- workloads ----------------------------------------------------------------

def _gate_invert(status: int, run: dict) -> "str | None":
    s, tol = run["summary"], run["config"]["residual_tol"]
    if s["uniformly_invertible"] is not True:
        return "not uniformly invertible"
    if not s["worst_residual"] <= tol:
        return f"worst residual {s['worst_residual']:.3e} > {tol:g}"
    if not s["worst_glue_error"] <= tol:
        return f"worst glue error {s['worst_glue_error']:.3e} > {tol:g}"
    return f"exit {status}" if status != 0 else None


def _gate_estimates(status: int, run: dict) -> "str | None":
    s = run["summary"]
    ok = s["rows"] - len(s["flagged"])
    if s["rows"] != 240 or ok != 240:
        return f"{ok}/{s['rows']} rows ok, want 240/240"
    if s["matches_expectation"] is not True:
        return "verdict contradicts the catalog expectation"
    return f"exit {status}" if status != 0 else None


def _gate_identities(status: int, run: dict) -> "str | None":
    s = run["summary"]
    ok = s["checks"] - len(s["failed"])
    if s["checks"] != 23 or ok != 23:
        return f"{ok}/{s['checks']} checks within tolerance, want 23/23"
    return f"exit {status}" if status != 0 else None


@dataclass(frozen=True)
class Workload:
    command: str
    config: Callable      # seed -> config dict; the program's only input
    gate: Callable        # (status, run.json) -> failure reason or None


def _estimates_config(seed: int) -> dict:
    c = random.Random(seed).uniform(0.05, 0.2)
    return {"kernel": f"expr: 1/(1 + {c:.6f}*(w1^2 + w2^2)/(w1^2 + w2^2 + abs(lam)))",
            "alpha_max": 3, "beta_max": 2}


WORKLOADS = {
    "invert": Workload(
        "invert", lambda seed: {"eps": round(random.Random(seed).uniform(0.05, 0.2), 6)},
        _gate_invert),
    "estimates-order3": Workload("estimates", _estimates_config, _gate_estimates),
    "identities": Workload(
        "identities", lambda seed: {"seed": seed}, _gate_identities),
}


# -- metrics ------------------------------------------------------------------

END_TO_END = {              # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

# layer -> metrics; the suffix fixes the unit and the better direction
LAYERS = {
    "symbols.evaluate_symbol": ("calls", "rows", "self_s", "macs", "peak_bytes",
                                "macs_per_byte"),
    "symbols.kn_quantize": ("calls", "self_s", "macs", "macs_per_byte"),
    "symbols.kn_symbol_of": ("calls", "self_s"),
    "symbols.fiber_symbol": ("calls", "self_s"),
    "inversion.invert_fiber": ("calls", "self_s", "per_fiber"),
    "inversion": ("fibers_out",),
    "inversion.svd": ("calls",),
    "inversion.invert_flag": ("self_s",),
    "inversion.uniform_invertibility_report": ("self_s",),
    "inversion.derivative_report": ("self_s",),
    "inversion.verify_inverse": ("self_s",),
    "symbols.derivative": ("calls", "self_s"),
    "symbols.lambdify": ("calls", "self_s"),
    "symbols.spectrum_call": ("calls", "rows", "self_s"),
    "symbols.flag_estimate_report": ("rows_out", "self_s"),
    "kernels.make_spectrum": ("calls", "self_s"),
    "transform.convolve": ("calls", "self_s"),
    "transform.twisted_fiber_product": ("calls", "self_s"),
    "transform.star_involution": ("self_s",),
    "schrodinger.pi_field": ("calls", "self_s"),
    "schrodinger.pi_point": ("calls", "self_s"),
    "schrodinger.c_fun": ("self_s",),
    "fields.eval_at": ("calls", "rows", "self_s"),
    "grids.centered_dft": ("calls", "self_s"),
    "grids.centered_idft": ("calls", "self_s"),
    "checks.run_identity_battery": ("self_s",),
    "checks": ("failed",),
    "cli.main": ("self_s",),
    "trace": ("overhead_s",),
}
_SUFFIX = {  # suffix -> (unit, better)
    "calls": ("count", "lower"), "rows": ("count", "lower"),
    "self_s": ("s", "lower"), "overhead_s": ("s", "lower"),
    "macs": ("MAC", "lower"), "peak_bytes": ("B", "lower"),
    "macs_per_byte": ("MAC/B", "higher"), "per_fiber": ("count", "lower"),
    "fibers_out": ("count", "higher"), "rows_out": ("count", "higher"),
    "failed": ("count", "lower"),
}
PER_LAYER = {f"{layer}.{m}": _SUFFIX[m] for layer, ms in LAYERS.items() for m in ms}
PER_LAYER["fail_ratio"] = ("ratio", "lower")
# derived from argument shapes, not measured
COMPUTED = (".macs", ".peak_bytes", ".macs_per_byte")


def layer_metrics(result: dict, run: dict) -> dict:
    """Per-layer values of one traced sample (child result plus run.json)."""
    agg = result["layers_by_span"]
    counts = result["counts"]
    summary = run["summary"]
    out = {}
    for name in PER_LAYER:
        layer, _, metric = name.rpartition(".")
        if metric in ("calls", "self_s"):
            out[name] = agg.get(layer, {}).get(metric, 0)
        elif metric in ("rows", "macs", "peak_bytes"):
            out[name] = counts.get(name, 0)
        elif metric == "macs_per_byte":
            nbytes = counts.get(f"{layer}.bytes", 0)
            out[name] = counts.get(f"{layer}.macs", 0) / nbytes if nbytes else 0.0
    out["inversion.svd.calls"] = counts.get("inversion.svd.calls", 0)
    fibers = len(summary.get("sigma_min_by_lam", {}))
    out["inversion.fibers_out"] = fibers
    calls = out["inversion.invert_fiber.calls"]
    out["inversion.invert_fiber.per_fiber"] = calls / fibers if fibers else 0.0
    out["symbols.flag_estimate_report.rows_out"] = summary.get("rows", 0)
    out["checks.failed"] = len(summary.get("failed", []))
    return out


# -- samples --------------------------------------------------------------------

class Runner:
    """Starts child interpreters for one benchmark run and gates them."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config(seed), sort_keys=True))
        self.started = perf_counter()
        self.index = 0
        self.env = dict(os.environ, TMPDIR=str(work))

    def remaining(self) -> float:
        return HARD_LIMIT_S - (perf_counter() - self.started)

    def child(self, *extra: str) -> "tuple[dict | None, str]":
        """Run one child; returns (its result, or None on failure; reason)."""
        self.index += 1
        out = self.work / f"sample{self.index}"
        result_path = self.work / f"result{self.index}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--config", str(self.config), "--result", str(result_path),
               "--out", str(out), *extra]
        # hash randomization varies per sample, as it does between CLI runs,
        # but reproducibly from the seed
        env = dict(self.env, PYTHONHASHSEED=str((self.seed * 7919 + self.index) % 4294967296))
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return None, "timeout"
        if proc.returncode != 0 or not result_path.exists():
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return None, f"child exit {proc.returncode}: {tail}"
        return json.loads(result_path.read_text()), ""

    def sample(self, trace: bool) -> dict:
        """One full pass; the returned dict carries the gate verdict."""
        extra = ["--command", self.workload.command] + (["--trace"] if trace else [])
        result, reason = self.child(*extra)
        run_json = self.work / f"sample{self.index}" / "run.json"
        if result is not None:
            if not run_json.exists():
                reason = "no run.json"
            else:
                run = json.loads(run_json.read_text())
                reason = self.workload.gate(result["status"], run) or ""
                if trace and not reason:
                    result["layers"] = layer_metrics(result, run)
        shutil.rmtree(self.work / f"sample{self.index}", ignore_errors=True)
        return {"ok": not reason, "reason": reason, **(result or {})}


def quartiles(values: list) -> dict:
    vals = sorted(values)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    out = {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}
    # the highest percentile that still has ten samples beyond it
    if len(vals) >= 20:
        pct = 100 * (len(vals) - 10) // len(vals)
        out[f"p{pct}"] = statistics.quantiles(vals, n=100)[pct - 1]
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "heisenflag").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> int:
    workload = WORKLOADS[name]
    runner = Runner(workload, seed, work)
    # compiles bytecode, warms the file cache and wakes every core
    warm, reason = runner.child("--environment")
    if warm is None:
        print(f"cannot start the program: {reason}", file=sys.stderr)
        return 2
    end = perf_counter() + seconds

    def fits(durations: list) -> bool:
        return perf_counter() + max(durations) <= end and runner.remaining() > max(durations)

    samples, traced, setups, durations = [], [], [], []
    while True:
        t0 = perf_counter()
        samples.append(runner.sample(trace=False))
        if trace:
            traced.append(runner.sample(trace=True))
        durations.append(perf_counter() - t0)
        if not samples[-1]["ok"] and samples[-1]["reason"] == "timeout":
            break
        if not fits(durations):
            break
    # set-up is cheap: spend the rest of the window on set-up-only children
    probe_s = [1.0]
    while not trace and fits(probe_s):
        t0 = perf_counter()
        probe, _ = runner.child()
        probe_s.append(perf_counter() - t0)
        if probe is not None:
            setups.append(probe["setup_s"])

    runs = samples + traced
    failed = [s for s in runs if not s["ok"]]
    if not any("pass_s" in s for s in samples) or (
            trace and not any("layers" in s for s in traced)):
        print("no sample completed: " + "; ".join(s["reason"] for s in failed),
              file=sys.stderr)
        return 1
    if trace:
        stats, metrics = per_layer(samples, traced)
        largest = max((n for n in metrics if n.endswith(".self_s")),
                      key=lambda n: metrics[n]["value"])
        print(f"largest self time: {largest} {metrics[largest]['value']:.4f} s")
    else:
        stats, metrics = end_to_end(samples, setups)
    uncovered = sorted({u for s in traced for u in s.get("uncovered", [])})
    missing = sorted({m for s in traced for m in s.get("missing", [])})

    for metric, m in metrics.items():
        q = stats.get(metric)
        spread = f"  (q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']})" if q else ""
        print(f"{metric} = {m['value']:.6g} {m['unit']}{spread}")
    for s in failed:
        print(f"FAILED sample: {s['reason']}")
    detail = {
        "workload": name, "command": workload.command, "seed": seed, "trace": int(trace),
        "config": json.loads(runner.config.read_text()),
        "commit": _commit(), "source_sha256": _source_digest(),
        "environment": warm.get("environment"),
        "samples": len(runs), "fail_ratio": len(failed) / len(runs),
        "stats": stats, "uncovered_bindings": uncovered, "missing_targets": missing,
        "computed": [n for n in metrics if n.endswith(COMPUTED)],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    correct = not failed and not uncovered
    print(json.dumps({"correct": correct, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


def end_to_end(samples: list, setups: list) -> "tuple[dict, dict]":
    """Medians (and their quartiles) of the untraced samples."""
    timed = [s for s in samples if "pass_s" in s]
    series = {
        "setup_s": setups + [s["setup_s"] for s in timed],
        "pass_s": [s["pass_s"] for s in timed],
        "peak_rss_mb": [s["peak_rss_mb"] for s in timed],
    }
    stats = {k: quartiles(v) for k, v in series.items()}
    metrics = {k: {"value": stats[k]["median"], "unit": END_TO_END[k]} for k in series}
    ok = sum(s["ok"] for s in samples)
    metrics["ok_ratio"] = {"value": ok / len(samples), "unit": END_TO_END["ok_ratio"]}
    return stats, metrics


def per_layer(samples: list, traced: list) -> "tuple[dict, dict]":
    """Medians of the traced samples' layer metrics, plus tracer overhead."""
    layered = [s["layers"] for s in traced if "layers" in s]
    stats = {k: quartiles([row[k] for row in layered]) for k in PER_LAYER if k in layered[0]}
    metrics = {k: {"value": stats[k]["median"], "unit": PER_LAYER[k][0]} for k in stats}
    # each traced pass runs right after an untraced one: pairing them
    # cancels drift in the machine's speed across the run
    over = [t["pass_s"] - u["pass_s"] for u, t in zip(samples, traced)
            if "pass_s" in t and "pass_s" in u]
    metrics["trace.overhead_s"] = {"value": statistics.median(over), "unit": "s"}
    runs = samples + traced
    failed = sum(not s["ok"] for s in runs)
    metrics["fail_ratio"] = {"value": failed / len(runs), "unit": "ratio"}
    return stats, metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "heisenflag" / "__init__.py").is_file():
        print(f"no heisenflag sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:     # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())
