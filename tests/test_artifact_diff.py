import importlib.util
import json
from pathlib import Path

import numpy as np

from heisenflag.grids import LineGrid
from heisenflag.schrodinger import save_operator
from heisenflag.symbols import FiberOperator

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def write_tree(root: Path, sup: list, verdict: str, lam: float, extra: str) -> None:
    root.mkdir()
    report = {"rows": [{"lam": lam, "shell_sup": sup, "verdict": verdict}]}
    (root / "report.json").write_text(json.dumps(report))
    (root / "table.csv").write_text(f"alpha,lam,sup\n1+0,{lam},{sup[0]}\n")
    (root / "same.txt").write_text("unchanged\n")
    (root / extra).write_bytes(b"\x00\xff")


def test_gaps_are_relative_to_the_row_max(tmp_path):
    tool = load_tool()
    write_tree(tmp_path / "old", [1e-3, 10.0], "ok", 0.5, "old_only.bin")
    write_tree(tmp_path / "new", [1e-3 + 2e-9, 10.0], "origin-blowup", 0.5,
               "new_only.bin")
    report = tool.compare(tmp_path / "old", tmp_path / "new").splitlines()
    assert report[0] == "byte-identical (1): same.txt"
    assert "only in OLD: old_only.bin" in report
    assert "only in NEW: new_only.bin" in report
    # the shell_sup gap is 2e-9 against the row's max of 10, not against 1e-3
    line = next(r for r in report if "rows[*].shell_sup[*]" in r)
    assert line.split()[1] == "2.0e-10" and line.endswith("at rows[0].shell_sup")
    assert "  non-numeric rows[0].verdict: 'ok' -> 'origin-blowup'" in report
    assert "report.json: 1 numeric fields equal, worst gap / row max of the others:" in report
    # a CSV cell is its own row
    line = next(r for r in report if r.strip().startswith("sup "))
    assert line.split()[1] == "2.0e-06" and line.endswith("at line 2")


def test_moved_fields_print_old_and_new_values(tmp_path):
    # a rounding-level error that moved 2.4e-16 -> 6.5e-16 read only as
    # a relative gap of 1.7e+00
    tool = load_tool()
    for side, err, sup in (("old", 2.4e-16, [1.0, 3.0]), ("new", 6.5e-16, [1.0, 2.5])):
        (tmp_path / side).mkdir()
        (tmp_path / side / "run.json").write_text(
            json.dumps({"check": {"error": err}, "sup": sup}))
    report = tool.compare(tmp_path / "old", tmp_path / "new").splitlines()
    line = next(r for r in report if r.strip().startswith("check.error "))
    assert line.split()[1:] == ["1.7e+00", "2.4e-16", "->", "6.5e-16", "at", "check.error"]
    # in a row, the pair at the worst gap
    line = next(r for r in report if r.strip().startswith("sup[*] "))
    assert line.split()[1:] == ["1.7e-01", "3.0", "->", "2.5", "at", "sup"]


def test_a_value_that_turns_nan_is_reported(tmp_path):
    tool = load_tool()
    for side, sup in (("old", [1.0, 2.0]), ("new", [float("nan"), 2.0])):
        (tmp_path / side).mkdir()
        (tmp_path / side / "report.json").write_text(json.dumps({"sup": sup}))
    report = tool.compare(tmp_path / "old", tmp_path / "new").splitlines()
    assert report[1] == "report.json: 0 numeric fields equal, worst gap / row max of the others:"
    line = next(r for r in report if r.strip().startswith("sup[*] "))
    assert line.split()[1] == "inf"


def test_operator_containers_compare_header_and_payload(tmp_path):
    tool = load_tool()
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    m = np.array([[4.0, 1j], [-2.0, 0.5]])
    save_operator(FiberOperator(0.5, LineGrid(2, 1.0), m),
                  tmp_path / "old" / "inverse_fiber_+0.500000.hfc")
    save_operator(FiberOperator(0.5, LineGrid(2, 1.5), m + 4e-12j),
                  tmp_path / "new" / "inverse_fiber_+0.500000.hfc")
    report = tool.compare(tmp_path / "old", tmp_path / "new").splitlines()
    assert report[0] == "byte-identical (0): "
    assert report[1] == ("inverse_fiber_+0.500000.hfc: 5 numeric fields equal,"
                         " worst gap / row max of the others:")
    # the payload gap is 4e-12 against the largest entry, 4
    line = next(r for r in report if r.strip().startswith("payload "))
    assert line.split()[1] == "1.0e-12" and line.endswith("at payload")
    line = next(r for r in report if "header.grid.half_width" in r)
    assert line.split()[1] == "5.0e-01"


def test_usage_error_exits_2(tmp_path, capsys):
    tool = load_tool()
    assert tool.main([str(tmp_path)]) == 2
    assert tool.main([str(tmp_path), str(tmp_path / "missing")]) == 2
    assert "usage:" in capsys.readouterr().err
