import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


def compare(old, new):
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True)


def write(path, report):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report))


def test_compare_reports_ignores_wallclock_and_prints_each_difference(tmp_path):
    report = {"suite": "haar", "seed": 42, "wallclock": 0.3,
              "checks": [{"name": "a", "measured": 1e-16, "pass": True},
                         {"name": "b", "measured": 2.0, "pass": True}]}
    write(tmp_path / "old" / "haar.json", report)
    write(tmp_path / "same" / "haar.json", {**report, "wallclock": 9.9})
    proc = compare(tmp_path / "old", tmp_path / "same")
    assert proc.returncode == 0, proc.stdout

    moved = json.loads(json.dumps(report))
    moved["checks"][0]["measured"] = 0.0
    moved["wallclock"] = 1.0
    write(tmp_path / "new" / "haar.json", moved)
    write(tmp_path / "new" / "casimir.json", report)
    proc = compare(tmp_path / "old", tmp_path / "new")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "haar.json: $.checks[0].measured: 1e-16 -> 0.0" in lines
    assert any(line.startswith("casimir.json: only in") for line in lines)
    assert not any("wallclock" in line for line in lines)
    # two files compare directly
    proc = compare(tmp_path / "old" / "haar.json", tmp_path / "new" / "haar.json")
    assert proc.returncode == 1 and "1 difference(s)" in proc.stdout
