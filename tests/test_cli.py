import json
import subprocess
import sys

import pytest

from holoflux.cli import SuiteConfig, main, run_suite
from holoflux.scene import emit_scene_template, scene_from_json


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "holoflux.cli", *args],
        capture_output=True,
        text=True,
    )


def test_run_suite_decomposition_passes(tmp_path):
    out = tmp_path / "report.json"
    code, report = run_suite(
        SuiteConfig(suite="decomposition", seed=42, params={"trials": 40})
    )
    assert code == 0
    assert report["suite"] == "decomposition"
    assert all(c["pass"] for c in report["checks"])


def test_cli_writes_report_and_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["--suite", "decomposition", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["seed"] == 7
    assert all(c["pass"] for c in report["checks"])


def test_cli_missing_scene_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "suite": "decomposition",
                               "scene": str(tmp_path / "nope.json")}))
    code = main(["--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "scene not found" in err


def test_cli_existing_scene_is_refused_exit_2(tmp_path, capsys):
    scene = tmp_path / "crossing.json"
    scene.write_text(emit_scene_template("crossing"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "suite": "decomposition", "scene": str(scene),
                               "out": str(tmp_path / "r.json")}))
    assert main(["--config", str(cfg)]) == 2
    assert "suite 'decomposition' does not read a scene" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_unknown_suite_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "suite": "not-a-suite"}))
    assert main(["--config", str(cfg)]) == 2


def test_cli_failing_check_exit_1(monkeypatch, tmp_path):
    from holoflux import cli
    from holoflux.suites import Check

    monkeypatch.setattr(cli, "run_checks", lambda suite, params, seed: [Check("forced", 1.0, 0.5)])
    out = tmp_path / "r.json"
    assert main(["--suite", "haar", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["checks"][0]["pass"] is False


def test_reports_deterministic_modulo_wallclock(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        code = main(["--suite", "decomposition", "--seed", "11", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        obj.pop("wallclock")
        outs.append(json.dumps(obj, sort_keys=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kind", ["crossing", "nice-surface", "winding", "diffeo"])
def test_scene_templates_parse(kind):
    text = emit_scene_template(kind)
    obj = json.loads(text)
    dimension, paths, surfaces = scene_from_json(obj)
    assert paths


def test_crossing_template_has_transversal_puncture():
    from holoflux.geometry import completely_transversal, punctures

    obj = json.loads(emit_scene_template("crossing"))
    _, paths, surfaces = scene_from_json(obj)
    gamma = paths["gamma"]
    wall = surfaces["wall"]
    ps = punctures(gamma, wall)
    assert len(ps) == 1 and ps[0].is_puncture
    assert completely_transversal(gamma, wall)


def test_nice_surface_template_validated_by_punctures():
    from holoflux.geometry import punctures

    obj = json.loads(emit_scene_template("nice-surface"))
    _, paths, surfaces = scene_from_json(obj)
    gamma = paths["gamma"]
    for surf in surfaces.values():
        ps = [p for p in punctures(gamma, surf) if p.is_puncture]
        assert len(ps) == 1
        # orientation coincides with the direction of gamma
        assert ps[0].sign_in == 1 and ps[0].sign_out == 1


def test_winding_template_consistent():
    from holoflux.geometry import map_path, punctures
    from holoflux.stratmaps import winding_map

    obj = json.loads(emit_scene_template("winding"))
    _, paths, surfaces = scene_from_json(obj)
    p = obj["winding"]
    m = winding_map(p["taus"], p["levels"], p["z_targets"], p["eps"], p["height"])
    image = map_path(m, paths["axis"])
    ps = [q for q in punctures(image, surfaces["strip0"]) if q.is_puncture]
    assert len(ps) == len(p["taus"])


def test_cli_subprocess_invocation():
    proc = run_cli(["--suite", "winding", "--seed", "1"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert all(c["pass"] for c in report["checks"])


def test_scene_roundtrip(tmp_path):
    import json as _json

    from holoflux.scene import dump_scene, load_scene, scene_to_json

    obj = _json.loads(emit_scene_template("crossing"))
    dim, paths, surfaces = scene_from_json(obj)
    path = tmp_path / "scene.json"
    dump_scene(str(path), dim, paths, surfaces)
    dim2, paths2, surfaces2 = load_scene(str(path))
    assert dim2 == dim
    assert paths2["gamma"].same_geometry(paths["gamma"])


def test_cylfun_json_roundtrip():
    from holoflux.cylindrical import gsn, inner_product_exact
    from holoflux.geometry import Graph, PolyPath
    from holoflux.scene import cylfun_from_json, cylfun_to_json

    graph = Graph.from_paths([PolyPath([(0, 0), (1, 0)]), PolyPath([(1, 0), (2, 1)])])
    t = gsn(graph, "su2", {"e0": ("su2:1/2", 0, 1), "e1": ("su2:1", 2, 0)})
    obj = cylfun_to_json(t, "g0")
    t2 = cylfun_from_json(obj, graph, "su2")
    assert abs(inner_product_exact(t, t2) - 1.0) <= 1e-14
    assert obj["monomials"][0]["factors"]["e0"] == {"irrep": "su2:1/2", "m": 0, "n": 1}


def test_weyl_json_roundtrip():
    import numpy as np

    from holoflux.geometry import OrientedSurface, Simplex
    from holoflux.liegroup import haar_sample
    from holoflux.scene import weyl_from_json, weyl_to_json
    from holoflux.weylops import weyl_constant

    tri = Simplex([(0, -1, -1), (0, 2, -1), (0, -1, 2)], normal=(1, 0, 0))
    surf = OrientedSurface([tri], piece_ids=("s.0",))
    g = haar_sample(np.random.default_rng(5), "su2")
    w = weyl_constant(surf, g, rule="inverse")
    obj = weyl_to_json(w, "wall")
    w2 = weyl_from_json(obj, surf, "su2")
    assert w2.rule == "inverse"
    assert w2.label.per_stratum["s.0"].dist(g) <= 1e-15
