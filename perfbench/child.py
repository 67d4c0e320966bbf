"""One benchmark sample: a fresh interpreter that pays what a CLI user pays.

    python3 perfbench/child.py --src SRC --config CFG --result OUT.json
        [--command NAME --out DIR [--trace]] [--environment]

Always imports `heisenflag` from SRC and loads the config (the set-up
time). With --command it then calls `heisenflag.cli.main` once on that
config with `--out DIR` (the pass time); with --trace the calls go through
the span tracer. The measurements are written to OUT.json. With
--environment it also records the machine and library versions and warms
every core before the first timed pass.
"""

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter


def warm_cores(seconds: float = 1.0) -> None:
    """Keep every BLAS thread busy for a moment.

    On a virtual machine a core that has idled for a few seconds makes the
    next multi-threaded pass up to twice as slow; the first timed pass of a
    run must not pay that.
    """
    import numpy as np

    a = np.ones((1024, 1024))
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        a @ a


def environment() -> dict:
    """Hardware and library facts that a timing depends on."""
    import ctypes
    import platform
    from importlib import metadata

    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for fn in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, fn):
                    threads = int(getattr(handle, fn)())
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": threads},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "sympy": metadata.version("sympy"),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--command")
    p.add_argument("--out")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--environment", action="store_true")
    args = p.parse_args()
    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)

    t0 = perf_counter()
    import heisenflag.cli
    heisenflag.cli.load_config(args.config, {})
    setup_s = perf_counter() - t0
    if not str(Path(heisenflag.__file__).resolve()).startswith(src + os.sep):
        print(f"heisenflag imported from {heisenflag.__file__}, not {src}",
              file=sys.stderr)
        return 2

    result: dict = {"setup_s": setup_s}
    if args.command:
        recorder = None
        if args.trace:
            import tracer
            recorder = tracer.Recorder()
            recorder.install()
        argv = [args.command, "--config", args.config, "--out", args.out]
        t1 = perf_counter()
        result["status"] = heisenflag.cli.main(argv)
        result["pass_s"] = perf_counter() - t1
        if recorder is not None:
            result["spans"] = recorder.spans
            result["layers_by_span"] = tracer.aggregate(recorder.spans)
            result["counts"] = dict(recorder.counts)
            result["missing"] = recorder.missing
            result["uncovered"] = recorder.uncovered()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.environment:
        result["environment"] = environment()
        warm_cores()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
