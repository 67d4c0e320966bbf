#!/usr/bin/env python3
"""Compare two heisenflag `--out` trees file by file.

    python3 scripts/artifact_diff.py OLD NEW

Lists the byte-identical files and the files present on one side only.
For every other JSON or CSV file it reports, per numeric field, the worst
gap |new - old| divided by the largest |old| value of the field's row, and
every non-numeric difference (a changed verdict, string or structure).
A `.hfc` container (an inverse fiber operator written by `invert`) is read
through `heisenflag.fields.read_blob`: its JSON header is compared like a
JSON file under `header`, and its whole complex payload is one row,
`payload`, so the gap is the worst |new - old| over max |old|.

A row is a JSON list of numbers (such as one scan row's `shell_sup`);
any other number, a CSV cell included, is a row on its own, so its gap
is relative to itself. Each moved field also prints `old -> new`, the
two values at its worst gap. Field names replace list positions by
`[*]`, so `rows[*].sup` collects the gaps of every row's `sup`. A value
that is NaN on one side only is an infinite gap. Always exits 0 after a
complete comparison; the report is the result.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from heisenflag.fields import read_blob  # noqa: E402  (the checkout's own package)

MAX_LISTED = 20        # non-numeric differences printed per file


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _walk_json(old, new, path: str, gaps: dict, other: list) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys(), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in old or key not in new:
                other.append(f"{sub}: only in {'NEW' if key in new else 'OLD'}")
            else:
                _walk_json(old[key], new[key], sub, gaps, other)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            other.append(f"{path}: length {len(old)} -> {len(new)}")
        elif old and all(_is_number(x) for x in old + new):
            _record(gaps, f"{path}[*]", path, old, new)
        else:
            for i, (a, b) in enumerate(zip(old, new)):
                _walk_json(a, b, f"{path}[{i}]", gaps, other)
    elif _is_number(old) and _is_number(new):
        _record(gaps, path, path, [old], [new])
    elif old != new:
        other.append(f"{path}: {old!r} -> {new!r}")


def _record(gaps: dict, path: str, where: str, old: list, new: list) -> None:
    """Fold one row's worst gap into its field's entry of `gaps`."""
    field = re.sub(r"\[\d+\]", "[*]", path)
    scale = max((abs(x) for x in old if math.isfinite(x)), default=0.0) or 1.0
    worst, a, b = max(((0.0 if _same(a, b)
                        else math.inf if math.isnan(a) or math.isnan(b)  # one side NaN
                        else abs(b - a) / scale, a, b)
                       for a, b in zip(old, new)), key=lambda g: g[0])
    if worst > gaps.get(field, (-1.0,))[0]:
        gaps[field] = (worst, where, a, b)


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(old: str, new: str, gaps: dict, other: list) -> None:
    a_rows = list(csv.reader(io.StringIO(old)))
    b_rows = list(csv.reader(io.StringIO(new)))
    if len(a_rows) != len(b_rows) or not a_rows or a_rows[0] != b_rows[0]:
        other.append(f"header or line count differs ({len(a_rows)} -> {len(b_rows)} lines)")
        return
    header = a_rows[0]
    for line, (a, b) in enumerate(zip(a_rows[1:], b_rows[1:]), start=2):
        for name, ca, cb in zip(header, a, b):
            xa, xb = _float(ca), _float(cb)
            if xa is not None and xb is not None:
                _record(gaps, name, f"line {line}", [xa], [xb])
            elif ca != cb:
                other.append(f"line {line} {name}: {ca!r} -> {cb!r}")


def _compare_blob(old: Path, new: Path, gaps: dict, other: list) -> None:
    (head_a, a), (head_b, b) = read_blob(old), read_blob(new)
    _walk_json(head_a, head_b, "header", gaps, other)
    if a.shape != b.shape:
        other.append(f"payload: length {a.size} -> {b.size}")
        return
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    gap = np.where(same, 0.0, np.abs(b - a))
    gap[np.isnan(gap)] = np.inf          # NaN on one side only
    finite = np.abs(a[np.isfinite(a)])
    scale = float(np.max(finite, initial=0.0)) or 1.0
    i = int(np.argmax(gap)) if gap.size else 0
    gaps["payload"] = (float(gap[i]) / scale if gap.size else 0.0, "payload",
                       *(complex(x[i]) if x.size else 0j for x in (a, b)))


def compare(old_dir: Path, new_dir: Path) -> str:
    old_files = {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
    out = []
    same = sorted(f for f in old_files & new_files
                  if (old_dir / f).read_bytes() == (new_dir / f).read_bytes())
    out.append(f"byte-identical ({len(same)}): " + ", ".join(map(str, same)))
    for side, files in (("OLD", old_files - new_files), ("NEW", new_files - old_files)):
        if files:
            out.append(f"only in {side}: " + ", ".join(map(str, sorted(files))))
    for f in sorted((old_files & new_files) - set(same)):
        if f.suffix not in (".json", ".csv", ".hfc"):
            out.append(f"{f}: differs (not JSON, CSV or .hfc)")
            continue
        gaps: dict = {}
        other: list = []
        a, b = old_dir / f, new_dir / f
        if f.suffix == ".hfc":
            _compare_blob(a, b, gaps, other)
        elif f.suffix == ".json":
            _walk_json(json.loads(a.read_text()), json.loads(b.read_text()), "", gaps, other)
        else:
            _compare_csv(a.read_text(), b.read_text(), gaps, other)
        moved = {k: v for k, v in gaps.items() if v[0] > 0}
        out.append(f"{f}: {len(gaps) - len(moved)} numeric fields equal"
                   + (", worst gap / row max of the others:" if moved else ""))
        for field, (gap, where, a, b) in sorted(moved.items()):
            out.append(f"  {field:<40} {gap:.1e}  {a!r} -> {b!r}  at {where}")
        out += [f"  non-numeric {d}" for d in other[:MAX_LISTED]]
        if len(other) > MAX_LISTED:
            out.append(f"  ... and {len(other) - MAX_LISTED} more non-numeric differences")
    return "\n".join(out)


def main(argv: list) -> int:
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    print(compare(Path(argv[0]), Path(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
