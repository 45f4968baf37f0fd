#!/usr/bin/env python3
"""Compare suite reports and print every field that differs.

    python3 scripts/compare_reports.py OLD NEW

OLD and NEW are two report files, or two directories of ``*.json`` reports
(as ``scripts/run_all_suites.py`` writes them), compared file by file.  Each
difference prints as ``file: JSON path: old -> new``; a field named
``wallclock`` is ignored at any depth.  Exit status: 0 when the reports
agree, 1 on any difference (a report present on one side only counts).
"""

import json
import pathlib
import sys

IGNORED = frozenset({"wallclock"})
MISSING = "<missing>"


def diff(old, new, path="$"):
    """Yield (JSON path, old value, new value) for every differing leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted((set(old) | set(new)) - IGNORED):
            yield from diff(old.get(key, MISSING), new.get(key, MISSING), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from diff(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def report_pairs(old: pathlib.Path, new: pathlib.Path):
    """(name, old file or None, new file or None) for the reports to compare."""
    if old.is_dir() and new.is_dir():
        names = sorted({p.name for p in old.glob("*.json")} | {p.name for p in new.glob("*.json")})
        return [(name, *(d / name if (d / name).exists() else None for d in (old, new)))
                for name in names]
    return [(new.name, old, new)]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = pathlib.Path(argv[1]), pathlib.Path(argv[2])
    differences = 0
    for name, a, b in report_pairs(old, new):
        if a is None or b is None:
            print(f"{name}: only in {old if b is None else new}")
            differences += 1
            continue
        for path, x, y in diff(json.loads(a.read_text()), json.loads(b.read_text())):
            print(f"{name}: {path}: {x!r} -> {y!r}")
            differences += 1
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
