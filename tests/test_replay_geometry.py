import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "replay_geometry.py"
STATUS = '"internal" if inside[a] else "external"'


def replay(old, new):
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True, timeout=300)


def test_replay_of_a_tree_against_itself_passes():
    proc = replay(ROOT / "src", ROOT / "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 mismatches" in proc.stdout
    for name in ("decompose_minimal", "punctures", "completely_transversal",
                 "sigma_eval", "build_graph", "_segment_simplex_events",
                 "_strictly_between", "_segment_segment", "map_path", "map_surface"):
        line = next(ln for ln in proc.stdout.splitlines() if ln.startswith(name))
        assert int(line.split()[1]) > 0, line
    # the replayed inputs reach internal pieces and codimension >= 2 simplices
    for name in ("internal pieces", "codim >= 2 pieces"):
        line = next(ln for ln in proc.stdout.splitlines() if ln.startswith(name))
        assert int(line.split()[-2]) > 0, line


def test_replay_reports_a_flipped_status(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    geometry = tmp_path / "src" / "holoflux" / "geometry.py"
    text = geometry.read_text()
    assert text.count(STATUS) == 1
    geometry.write_text(text.replace(STATUS, '"external" if inside[a] else "internal"'))
    proc = replay(ROOT / "src", tmp_path / "src")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "decompose_minimal" in proc.stdout.split("mismatches", 1)[1]
