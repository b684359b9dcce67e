"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload release-batch --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` the layers are timed and the
result carries the per-layer metrics instead.  A human-readable summary
goes to standard error; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout this file lives
in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory clean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores, arenas and ledgers; removed after each run.
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("release-batch", "release-remap", "release-road", "serve-longlived")


def _metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m for m in spec["end_to_end"]},
        {m["name"]: m for m in spec["per_layer"]},
    )


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    end_to_end, per_layer = _metric_specs()
    sys.path.insert(0, str(HERE))
    from layers import LayerTimer

    layers = LayerTimer() if args.trace else None
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.workload.startswith("release"):
            import release

            if layers:
                release.install_layers(layers)
            result = release.run(args.workload, args.seed, args.seconds, layers)
        else:
            import serving

            if layers:
                serving.install_layers(layers)
            result = serving.run(args.seed, args.seconds, layers, WORK)
    finally:
        if layers:
            layers.restore()
        shutil.rmtree(WORK, ignore_errors=True)

    if args.trace:
        # a layer off this workload's path did no work: it reads zero
        wanted, values = per_layer, {name: 0.0 for name in per_layer}
        values.update(result.per_layer)
    else:
        wanted, values = end_to_end, result.end_to_end
    if set(values) != set(wanted):
        print(f"perfbench: metrics {sorted(set(values) ^ set(wanted))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": float(values[name]), "unit": wanted[name]["unit"]} for name in wanted}
    summary = ", ".join(f"{n}={m['value']:.6g} {m['unit']}" for n, m in metrics.items())
    print(f"{args.workload} seed={args.seed}: {summary}; {result.notes}", file=sys.stderr)
    if args.trace:  # compared with an untraced run, this is the tracing overhead
        print(f"end-to-end while traced: {result.end_to_end}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
