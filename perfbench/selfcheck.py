"""Self-check of the benchmark's own files.

Run from a git checkout of the repository::

    python3 perfbench/selfcheck.py

It fails (exit code 1, one line per problem) unless

* every file under the benchmark's directories is tracked by git — an
  over-broad ``.gitignore`` line (``data/`` matches any directory of
  that name) once kept test goldens out of the repository silently;
* ``BENCHMARK.json`` has its fixed form: exactly the keys below, metric
  and workload names of ``[A-Za-z0-9_.-]``, a unit and a direction on
  every metric, a bound of at most 0.25 on every end-to-end metric, a
  ``setup_s`` metric, and the workloads ``run.py`` accepts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def untracked_files(paths: list[str]) -> list[str]:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--", *paths],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    tracked = {p for p in listed if p}
    problems = []
    for path in paths:
        for f in sorted((ROOT / path).rglob("*")):
            if "__pycache__" in f.parts:
                continue  # interpreter cache, never part of the benchmark
            if f.is_file() or f.is_symlink():
                rel = f.relative_to(ROOT).as_posix()
                if f.is_symlink():
                    problems.append(f"{rel}: is a link, not a regular file")
                elif rel not in tracked:
                    problems.append(f"{rel}: not tracked by git")
    return problems


def form_problems(spec: dict, raw_size: int) -> list[str]:
    out = []
    if raw_size > 64 * 1024:
        out.append("BENCHMARK.json is larger than 64 KiB")
    if set(spec) != KEYS:
        out.append(f"keys {sorted(spec)} are not {sorted(KEYS)}")
        return out
    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in command)):
        out.append("command must be a list of 1-32 strings of <= 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in command):
        out.append("command names an absolute path or leaves the repository")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        out.append("paths must list 1-16 directories")
        paths = []
    for p in paths:
        if not (isinstance(p, str) and PATH.fullmatch(p)) or p.startswith("/") or ".." in p.split("/"):
            out.append(f"path {p!r} is not a plain relative path")
        elif not (ROOT / p).is_dir():
            out.append(f"path {p!r} is not a directory")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        out.append("run_seconds must be a whole number from 1 to 60")

    names: list[str] = []
    workloads = spec["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        out.append("there must be 2-8 workloads")
        workloads = []
    for w in workloads:
        if set(w) != {"name", "why"}:
            out.append(f"workload {w} must have exactly a name and a why")
            continue
        names.append(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and why and "\n" not in why and len(why) <= 200):
            out.append(f"workload {w['name']}: why must be one line of <= 200 characters")
    for section, keys, lo, hi in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
        ("per_layer", {"name", "unit", "better"}, 1, 128),
    ):
        metrics = spec[section]
        if not (isinstance(metrics, list) and lo <= len(metrics) <= hi):
            out.append(f"{section} must list {lo}-{hi} metrics")
            continue
        for m in metrics:
            if set(m) != keys:
                out.append(f"{section} metric {m} must have exactly {sorted(keys)}")
                continue
            names.append(m["name"])
            if not (isinstance(m["unit"], str) and UNIT.fullmatch(m["unit"])):
                out.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                out.append(f"{m['name']}: better must be 'higher' or 'lower'")
            if section == "end_to_end":
                bound = m["bound"]
                if not (isinstance(bound, (int, float)) and 0 < bound <= 0.25):
                    out.append(f"{m['name']}: bound must be in (0, 0.25]")
    for name in names:
        if not (isinstance(name, str) and NAME.fullmatch(name)):
            out.append(f"bad name {name!r}")
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        out.append(f"names used twice: {dupes}")
    setup = [m for m in spec["end_to_end"] if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        out.append("end_to_end needs setup_s in s, better lower")

    sys.path.insert(0, str(HERE))
    from run import WORKLOADS

    declared = [w["name"] for w in workloads if isinstance(w, dict) and "name" in w]
    if sorted(declared) != sorted(WORKLOADS):
        out.append(f"workloads {declared} differ from run.py's {list(WORKLOADS)}")
    return out


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    spec = json.loads(raw)
    problems = form_problems(spec, len(raw))
    if "paths" in spec and isinstance(spec["paths"], list):
        problems += untracked_files([p for p in spec["paths"] if isinstance(p, str)])
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    if not problems:
        print("selfcheck: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
