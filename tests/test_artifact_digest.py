"""The comparison mode of scripts/artifact_digest.py."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digest.py"
spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
artifact_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_digest)


def _write(root: Path, ase: float, rows: list, gap: float, mode: str) -> None:
    (root / "run").mkdir(parents=True)
    report = {"report": {"ase": ase, "budgets_w": [10.0, 4.0], "mode": mode}}
    (root / "run" / "report.json").write_text(json.dumps(report))
    (root / "run" / "sweep.csv").write_text(
        "axis_value,ase\n" + "".join("%g,%r\n" % row for row in rows))
    (root / "run" / "stdout.txt").write_text(
        "ase %g bits/s/Hz\navg power 30 W (gap %g W)\n" % (ase, gap))
    (root / "run" / "exit.txt").write_text("0\n")


def test_compare_reports_largest_relative_change_per_field(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, 2.0, [(1, 4.0), (2, 8.0)], 0.5, "det")
    _write(new, 2.001, [(1, 4.0), (2, 8.4)], 0.25, "imp")
    assert artifact_digest.main(["--compare", str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "run/exit.txt" not in lines                  # unchanged files are skipped
    table = {}
    for line in lines:
        if line.startswith("  "):
            key, value = line.strip().rsplit(None, 1)
            table[(current, key)] = value
        else:
            current = line
    assert float(table[("run/report.json", "report.ase")]) == \
        float("%.3g" % (0.001 / 2.001))
    assert table[("run/report.json", "report.mode")] == "changed"
    assert ("run/report.json", "report.budgets_w[]") not in table
    assert float(table[("run/sweep.csv", "ase")]) == float("%.3g" % (0.4 / 8.4))
    assert float(table[("run/stdout.txt", "avg power # W (gap # W)  [1]")]) == 0.5
    assert float(table[("run/stdout.txt", "ase # bits/s/Hz  [0]")]) == \
        float("%.3g" % (0.001 / 2.001))


def test_compare_lists_files_in_one_directory_only(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, 2.0, [(1, 4.0)], 0.5, "det")
    _write(new, 2.0, [(1, 4.0)], 0.5, "det")
    (new / "run" / "trace.csv").write_text("iter\n1\n")
    assert artifact_digest.compare(str(old), str(new)) == ["run/trace.csv: only in new"]
