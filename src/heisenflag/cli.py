"""Batch experiment runner over the kernel catalog and inline multipliers.

Commands: `identities` (structural identity battery), `estimates`
(seminorm scans of a multiplier family), `invert` (the fiberwise inversion
pipeline with diagnostics and serialized inverses) and `report` (re-read a
previous run directory and reprint its summary).

Exit codes: 0 success, 1 tolerance failure, 2 configuration error,
3 numerical failure (ill-conditioning, divergence, non-uniform
invertibility).  Everything a run produces is derived from (config, seed)
alone; writing the same run twice yields byte-identical artifacts.
"""

import argparse
import itertools
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .checks import run_identity_battery
from .grids import Axis, LineGrid, _is_pow2, self_dual_line
from .inversion import (
    SIGMA_FLOOR,
    FiberInversionError,
    derivative_report,
    invert_flag,
    uniform_invertibility_report,
    verify_inverse,
)
from .kernels import CATALOG, make_spectrum
from .symbols import flag_estimate_report

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully determined together with the seed."""

    kernel: str = "perturbed-identity"
    eps: float = 0.1
    n: int = 1
    v_count: int = 32
    v_half_width: float = 4.0
    t_count: int = 64
    t_half_width: float = 8.0
    state_count: int = 64
    lambda_min: float = 0.25
    lambda_max: float = 2.0
    alpha_max: int = 2
    beta_max: int = 1
    rmin: float = 0.01
    rmax: float = 100.0
    shells: int = 13
    directions: int = 12
    blowup_factor: float = 8.0
    cond_limit: float = 1e8
    sigma_floor: float = SIGMA_FLOOR
    residual_tol: float = 1e-6
    strict_symmetric: bool = False
    draws: int = 20
    seed: int = 0
    out: str | None = None

    def validate(self) -> None:
        for name in ("v_count", "t_count", "state_count"):
            if not _is_pow2(getattr(self, name)):
                raise ConfigError(f"{name} must be a power of two >= 2, "
                                  f"got {getattr(self, name)!r}")
        # an infinite end has no dyadic ladder and an infinite radius no
        # shells; json reads 1e400 as inf
        for name in ("lambda_min", "lambda_max", "rmin", "rmax"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, "
                                  f"got {getattr(self, name)}")
        if not (0.0 < self.lambda_min <= self.lambda_max):
            raise ConfigError("lambda band must satisfy 0 < min <= max "
                              f"(got [{self.lambda_min}, {self.lambda_max}]); "
                              "the band excludes 0")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not (0 < self.rmin < self.rmax):
            raise ConfigError("need 0 < rmin < rmax")
        if self.shells < 3 or self.directions < 1:
            raise ConfigError("need shells >= 3 and directions >= 1")
        if self.alpha_max < 0 or self.beta_max < 0:
            raise ConfigError("multi-index ranges must be >= 0")
        if not math.isfinite(self.eps):
            raise ConfigError(f"eps must be finite, got {self.eps}")
        # out of range, a gate is switched off (every comparison with nan
        # is false) or fails every run, and a grid has no points
        for name, ok, rule in (
            ("v_half_width", self.v_half_width > 0, "> 0"),
            ("t_half_width", self.t_half_width > 0, "> 0"),
            ("sigma_floor", self.sigma_floor > 0, "> 0"),
            ("residual_tol", self.residual_tol > 0, "> 0"),
            ("cond_limit", self.cond_limit >= 1, ">= 1"),
            ("blowup_factor", self.blowup_factor > 1, "> 1"),
        ):
            if not (math.isfinite(getattr(self, name)) and ok):
                raise ConfigError(f"{name} must be finite and {rule}, "
                                  f"got {getattr(self, name)}")
        # a cell weight of 0 or inf: no reciprocal for a spike, no product.
        # In closed form: the grid itself would hold 2n axes, any n
        for nv in (self.v_count, 2 * self.v_count):  # the battery's grids
            with np.errstate(over="ignore"):
                w = float(np.float64(Axis(nv, self.v_half_width).spacing) ** (2 * self.n)
                          * Axis(self.t_count, self.t_half_width).spacing)
            if not (0.0 < w < math.inf and 1.0 / w < math.inf):
                raise ConfigError(f"the group grid with {nv} v points has cell "
                                  f"weight {w}, out of the float range")
        if self.draws < 1:
            raise ConfigError(f"draws must be >= 1, got {self.draws}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    # -- derived objects --

    def state(self) -> LineGrid:
        return self_dual_line(self.state_count, self.n)

    def lam_values(self) -> list:
        """Signed dyadic ladder 2^j covering the configured band."""
        lo = int(np.ceil(np.log2(self.lambda_min) - 1e-12))
        hi = int(np.floor(np.log2(self.lambda_max) + 1e-12))
        if hi < lo:
            raise ConfigError(
                f"lambda band [{self.lambda_min}, {self.lambda_max}] "
                "contains no dyadic value 2^j")
        return [s * 2.0 ** j for j in range(lo, hi + 1) for s in (1.0, -1.0)]

    def multi_indices(self) -> list:
        out = []
        d = 2 * self.n
        for total in range(self.alpha_max + 1):
            for alpha in itertools.product(range(total + 1), repeat=d):
                if sum(alpha) != total:
                    continue
                for beta in range(self.beta_max + 1):
                    out.append((alpha, beta))
        return out

    def spectrum(self):
        return make_spectrum(self.kernel, n=self.n, eps=self.eps)


def _has_type(value, kind) -> bool:
    """Whether a JSON value fits a config field: int fields take neither
    bools nor floats, float fields take ints in float range but not bools."""
    kinds = typing.get_args(kind) or (kind,)
    if isinstance(value, bool):
        return bool in kinds
    if float in kinds and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, kinds)


def load_config(path: "str | None", overrides: dict) -> ExperimentConfig:
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    data = {**data, **overrides}
    fields = ExperimentConfig.__dataclass_fields__
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        kind = fields[key].type
        if not _has_type(value, kind):
            raise ConfigError(f"{key} must be {getattr(kind, '__name__', kind)}, "
                              f"got {value!r}")
    cfg = replace(ExperimentConfig(), **data)
    cfg.validate()
    return cfg


def _flag_overrides(flags: dict) -> dict:
    """Config overrides from the flags given; `--grid` and `--lambda-band`
    expand into their config keys."""
    over = dict(flags)
    grid = over.pop("grid", None)
    if grid is not None:
        parts = grid.split(",")
        if len(parts) != 4:
            raise ConfigError(
                "--grid wants 'v_count,v_half_width,t_count,t_half_width'")
        try:
            over["v_count"] = int(parts[0])
            over["v_half_width"] = float(parts[1])
            over["t_count"] = int(parts[2])
            over["t_half_width"] = float(parts[3])
        except ValueError as exc:
            raise ConfigError(f"bad --grid value: {exc}") from exc
    band = over.pop("lambda_band", None)
    if band is not None:
        parts = band.split(":")
        if len(parts) != 2:
            raise ConfigError("--lambda-band wants 'min:max'")
        try:
            over["lambda_min"] = float(parts[0])
            over["lambda_max"] = float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad --lambda-band value: {exc}") from exc
    return over


# -- artifact plumbing --------------------------------------------------------

def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_run(cfg: ExperimentConfig, command: str, status: int,
               summary: dict, extra_files: "dict[str, str] | None" = None) -> None:
    if cfg.out is None:
        return
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    run = {"command": command, "config": asdict(cfg), "status": status,
           "summary": summary}
    (out / "run.json").write_text(_dump(run))
    for name, text in (extra_files or {}).items():
        (out / name).write_text(text)


def _print_table(rows: "list[tuple[str, str]]") -> None:
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        print(f"  {k:<{width}}  {v}")


# -- commands ------------------------------------------------------------------

def cmd_identities(cfg: ExperimentConfig) -> int:
    results = run_identity_battery(
        seed=cfg.seed, n=cfg.n, v_count=cfg.v_count,
        v_half_width=cfg.v_half_width, t_count=cfg.t_count,
        t_half_width=cfg.t_half_width, state_count=cfg.state_count,
        draws=cfg.draws)
    failed = [k for k, v in results.items() if not v["pass"]]
    status = EXIT_OK if not failed else EXIT_TOLERANCE
    summary = {"checks": len(results), "failed": failed, "results": results}
    _write_run(cfg, "identities", status, summary)
    print(f"identities: {len(results) - len(failed)}/{len(results)} within "
          "tolerance")
    for name in failed:
        row = results[name]
        print(f"  FAIL {name}: error {row['error']:.3e} > tol {row['tol']:.0e}")
    return status


def cmd_estimates(cfg: ExperimentConfig) -> int:
    spec = cfg.spectrum()
    report = flag_estimate_report(
        spec, indices=cfg.multi_indices(), lam_values=cfg.lam_values(),
        rmin=cfg.rmin, rmax=cfg.rmax, shells=cfg.shells,
        directions=cfg.directions, blowup_factor=cfg.blowup_factor)
    bad = [r for r in report.rows if r.verdict != "ok"]
    entry = CATALOG.get(cfg.kernel.strip())  # the name make_spectrum resolves
    expected_ok = entry.flag_ok if entry is not None else True
    status = EXIT_OK if not bad else EXIT_TOLERANCE
    summary = {
        "kernel": cfg.kernel,
        "rows": len(report.rows),
        "flagged": [{"alpha": list(r.alpha), "beta": r.beta, "lam": r.lam,
                     "verdict": r.verdict} for r in bad],
        "expected_pass": expected_ok,
        "matches_expectation": (not bad) == expected_ok,
        "sym0": {f"alpha={list(a)} beta={b}": v
                 for (a, b), v in report.sym0().items()},
    }
    _write_run(cfg, "estimates", status, summary, extra_files={
        "flag_report.csv": report.to_csv(),
        "flag_report.json": report.to_json() + "\n",
    })
    print(f"estimates[{cfg.kernel}]: {len(report.rows) - len(bad)}/"
          f"{len(report.rows)} rows ok"
          + ("" if entry is None or summary["matches_expectation"] else
             " (contradicts catalog expectation)"))
    for r in bad:
        print(f"  {r.verdict}: alpha={list(r.alpha)} beta={r.beta} "
              f"lam={r.lam:+g}")
    return status


def cmd_invert(cfg: ExperimentConfig) -> int:
    res = invert_flag(cfg.spectrum(), cfg.lam_values(), cfg.state(),
                      cond_limit=cfg.cond_limit, sigma_floor=cfg.sigma_floor,
                      strict=cfg.strict_symmetric)
    uniform = uniform_invertibility_report(res)
    deriv = derivative_report(res, m_max=max(cfg.beta_max, 1))
    verification = verify_inverse(res)
    worst_glue = max(row["glue_error"] for row in verification.values())

    if not res.uniformly_invertible:
        status = EXIT_NUMERICAL
    elif res.worst_residual > cfg.residual_tol or worst_glue > cfg.residual_tol:
        status = EXIT_TOLERANCE
    else:
        status = EXIT_OK

    summary = {
        "kernel": cfg.kernel,
        "eps": cfg.eps,
        "uniformly_invertible": res.uniformly_invertible,
        "uniform_bound": res.uniform_bound,
        "worst_residual": res.worst_residual,
        "worst_glue_error": worst_glue,
        "frame_constant": uniform["frame_constant"],
        "max_inverse_norm": uniform["max_inverse_norm"],
        "derivatives_uniform": deriv["uniform"],
        "sigma_min_by_lam": {f"{r.lam:+g}": r.sigma_min for r in res.rows},
    }
    if cfg.out is not None:     # before run.json, which must not outlive a failed save
        res.save(cfg.out)
    _write_run(cfg, "invert", status, summary, extra_files={
        "derivatives.json": _dump(deriv),
        "verification.json": _dump(verification),
        "uniformity.json": _dump(uniform),
    })

    verdict = {EXIT_OK: "ok", EXIT_TOLERANCE: "tolerance failure",
               EXIT_NUMERICAL: "not uniformly invertible"}[status]
    print(f"invert[{cfg.kernel}]: {verdict}")
    _print_table([
        ("fibers", str(len(res.rows))),
        ("frame constant (min sigma_min)", f"{uniform['frame_constant']:.6f}"),
        ("uniform inverse bound", f"{res.uniform_bound:.6f}"),
        ("worst residual", f"{res.worst_residual:.3e}"),
        ("worst glue error", f"{worst_glue:.3e}"),
    ])
    if status == EXIT_NUMERICAL:
        for r in res.rows:
            if not r.invertible:
                print(f"  lam={r.lam:+g}: sigma_min {r.sigma_min:.6f} < floor "
                      f"{cfg.sigma_floor}")
    return status


def _print_headroom(results) -> None:
    """One row per identity check: error, tol and the headroom tol/error."""
    if not isinstance(results, dict):
        raise ConfigError("run.json identities summary needs a 'results' object")
    rows = []
    for name, row in results.items():
        values = [row.get(k) if isinstance(row, dict) else None
                  for k in ("error", "tol")]
        if not all(type(v) in (int, float) and not v < 0 for v in values):
            raise ConfigError(f"run.json result {name!r} needs non-negative "
                              f"numbers 'error' and 'tol', got {row!r}")
        error, tol = values
        headroom = tol / error if error else math.inf
        rows.append((name, f"{error:.3e}  {tol:.3e}  {headroom:.3g}"))
    print("checks (error, tol, headroom tol/error):")
    _print_table(rows)


def cmd_report(cfg: ExperimentConfig) -> int:
    if cfg.out is None:
        raise ConfigError("report needs --out pointing at a finished run")
    path = Path(cfg.out) / "run.json"
    if not path.exists():
        raise ConfigError(f"no run.json under {cfg.out}")
    try:
        run = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"corrupt run.json: {exc}") from exc
    if not isinstance(run, dict):
        raise ConfigError("run.json must hold a JSON object")
    for key in ("command", "status", "summary"):
        if key not in run:
            raise ConfigError(f"run.json lacks {key!r}")
    status = run["status"]
    if type(status) is not int or status not in (0, 1, 2, 3):
        raise ConfigError(f"run.json status must be an exit code 0-3, got {status!r}")
    if not isinstance(run["summary"], dict):
        raise ConfigError("run.json summary must be a JSON object")
    print(f"run: {run['command']} (exit {status})")
    rows = []
    for k, v in sorted(run["summary"].items()):
        if isinstance(v, (str, bool, int, float)):
            rows.append((k, f"{v:.6g}" if isinstance(v, float) else str(v)))
    _print_table(rows)
    if run["command"] == "identities":
        _print_headroom(run["summary"].get("results"))
    extra = sorted(p.name for p in Path(cfg.out).iterdir()
                   if p.name != "run.json")
    if extra:
        print("artifacts: " + ", ".join(extra))
    return status


# -- entry point ----------------------------------------------------------------

_COMMANDS = {
    "identities": cmd_identities,
    "estimates": cmd_estimates,
    "invert": cmd_invert,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    # every flag serves every command; an absent flag leaves no attribute,
    # so the namespace holds exactly the flags given
    parser = argparse.ArgumentParser(
        prog="heisenflag", argument_default=argparse.SUPPRESS,
        description="Convolution-algebra experiments on the Heisenberg group")
    parser.add_argument(
        "command", choices=_COMMANDS,
        help="identities: the structural identity battery; estimates: "
        "seminorm scans of a multiplier family; invert: fiberwise inversion "
        "pipeline with diagnostics; report: reprint the summary of a "
        "finished run directory")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--kernel",
                        help="catalog name or 'expr: <inline multiplier>'")
    parser.add_argument("--eps", type=float, help="perturbation size")
    parser.add_argument("--grid",
                        help="'v_count,v_half_width,t_count,t_half_width'")
    parser.add_argument("--lambda-band",
                        help="'min:max', positive; scanned at signed dyadics")
    parser.add_argument("--out", help="artifact directory")
    parser.add_argument("--seed", type=int, help="randomized-check seed")
    parser.add_argument("--strict-symmetric", action="store_true",
                        help="require Hermitian fibers (relative skew <= "
                        "1e-10, checked per fiber)")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the config-error contract
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    command = flags.pop("command")
    try:
        cfg = load_config(flags.pop("config", None), _flag_overrides(flags))
        return _COMMANDS[command](cfg)
    except (FiberInversionError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # FloatingPointError: a reference operator underflowed to 0 in
        # `checks._rel_hs_gap` (the package sets no np.errstate "raise")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # an --out that cannot hold the run's artifacts, e.g. under a regular
        # file, or a run.json that is a directory; the error names the path
        print(f"configuration error: unusable run directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # numpy names the refused allocation, e.g. "Unable to allocate 512. GiB"
        detail = f" ({exc})" if str(exc) else ""
        print("configuration error: the configured grid does not fit in "
              f"memory{detail}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # ConfigError, KernelParseError, SymmetryError and any parameter
        # the library rejects; LinAlgError is a ValueError too, caught above
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
