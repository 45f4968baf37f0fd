import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "replay_stratmaps.py"
OUTPUTS = ("forward", "inverse", "piece_name", "pieces_at", "path_break_params",
           "verify_stratified")
BOUND = "x_edges = (x_lo, tau1 + eps, tau2 - eps, x_hi)"


def replay(old, new):
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True, timeout=300)


def test_replay_of_a_tree_against_itself_passes():
    proc = replay(ROOT / "src", ROOT / "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 mismatches" in proc.stdout
    for name in OUTPUTS:
        line = next(ln for ln in proc.stdout.splitlines() if ln.startswith(name))
        assert int(line.split()[1]) > 0, line
    # the eight suite maps, at least one winding map per draw, and the inverses
    assert int(proc.stdout.split(" maps", 1)[0].split()[-1]) >= 2 * (8 + 2)


def test_replay_reports_a_moved_bump_bound(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    stratmaps = tmp_path / "src" / "holoflux" / "stratmaps.py"
    text = stratmaps.read_text()
    assert text.count(BOUND) == 1
    stratmaps.write_text(text.replace(BOUND, BOUND.replace("tau1 + eps", "tau1 + 2 * eps")))
    proc = replay(ROOT / "src", tmp_path / "src")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "bump_n3: piece_name" in proc.stdout.split("mismatches", 1)[1]
