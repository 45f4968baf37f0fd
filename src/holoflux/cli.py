"""Batch harness: run named verification suites and emit JSON reports.

Usage:
    holoflux --suite gsn-orthonormality --seed 42 --out report.json
    holoflux --config config.json
    holoflux --emit-scene crossing

Config files are JSON objects {"schema": 1, "suite": ..., "seed": ...,
"params": {...}, "out": path}; no suite reads a scene, so a non-null "scene"
exits 2, and so do any other key, a param the suite does not read
(``suites.PARAMS``) and a param value that does not convert.  Command-line
flags override config fields.  Exit codes: 0 all checks pass, 1 at least one
check failed, 2 usage or I/O error.  Identical config and seed give
byte-identical reports apart from the wallclock field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .scene import SceneError, emit_scene_template
from .suites import SUITES, run_checks, suite_params

SCHEMA = 1
CONFIG_KEYS = ("schema", "suite", "seed", "scene", "params", "out")


class UsageError(Exception):
    pass


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 0
    scene: str = None
    params: dict = field(default_factory=dict)
    out: str = None

    @classmethod
    def from_file(cls, path: str) -> "SuiteConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"config not found: {path}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise UsageError("config must be a JSON object")
        for key in obj:
            if key not in CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}; "
                                 f"the keys are {', '.join(CONFIG_KEYS)}")
        if obj.get("schema", SCHEMA) != SCHEMA:
            raise UsageError("unsupported config schema")
        for key in ("suite", "scene", "out"):
            if not isinstance(obj.get(key), (str, type(None))):
                raise UsageError(f"config {key} must be a string or null")
        try:
            seed = int(obj.get("seed", 0))
        except (TypeError, ValueError):
            raise UsageError(f"config seed must be an integer, not {obj['seed']!r}")
        params = obj.get("params", {}) or {}
        if not isinstance(params, dict):
            raise UsageError("config params must be a JSON object")
        return cls(
            suite=obj.get("suite"),
            seed=seed,
            scene=obj.get("scene"),
            params=params,
            out=obj.get("out"),
        )

    def validate(self):
        if not self.suite:
            raise UsageError("no suite selected (use --suite or a config file)")
        if self.suite not in SUITES:
            raise UsageError(
                f"unknown suite {self.suite!r}; choose from {', '.join(sorted(SUITES))}"
            )
        if self.scene is not None:
            if not os.path.exists(self.scene):
                raise UsageError(f"scene not found: {self.scene}")
            raise UsageError(f"suite {self.suite!r} does not read a scene")
        try:
            suite_params(self.suite, self.params)
        except ValueError as exc:
            raise UsageError(str(exc))


def run_suite(config: SuiteConfig):
    """Execute one suite; returns (exit_code, report dict)."""
    config.validate()
    params = dict(config.params)
    start = time.monotonic()
    checks = run_checks(config.suite, params, config.seed)
    wallclock = time.monotonic() - start
    report = {
        "schema": SCHEMA,
        "suite": config.suite,
        "seed": config.seed,
        "params": params,
        "checks": [c.as_json() for c in checks],
        "wallclock": wallclock,
    }
    ok = all(c.passed for c in checks)
    return (0 if ok else 1), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="holoflux", description="run holonomy-flux verification suites"
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--suite", help="suite name", choices=sorted(SUITES))
    parser.add_argument("--seed", type=int, help="rng seed")
    parser.add_argument("--out", help="report output path")
    parser.add_argument(
        "--emit-scene",
        metavar="KIND",
        help="print a scene template (crossing, nice-surface, winding, diffeo) and exit",
    )
    args = parser.parse_args(argv)

    try:
        if args.emit_scene:
            try:
                sys.stdout.write(emit_scene_template(args.emit_scene))
            except SceneError as exc:
                raise UsageError(str(exc))
            return 0
        if args.config:
            config = SuiteConfig.from_file(args.config)
        else:
            config = SuiteConfig(suite=args.suite)
        if args.suite:
            config.suite = args.suite
        if args.seed is not None:
            config.seed = args.seed
        if args.out:
            config.out = args.out
        code, report = run_suite(config)
    except UsageError as exc:
        print(f"holoflux: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"holoflux: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    for check in report["checks"]:
        status = "pass" if check["pass"] else "FAIL"
        bound = "info" if check["bound"] is None else f"{check['bound']:.3e}"
        print(f"[{status}] {check['name']}: measured={check['measured']:.3e} "
              f"bound={bound}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
