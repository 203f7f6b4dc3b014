#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation for
``--seconds``; ``--trace 1`` splits ``--seconds`` between an untraced
window and a traced one of the same length, whose spans give the
per-layer metrics and whose difference is the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose metric
names and units are those ``BENCHMARK.json`` lists.  The program is
imported from ``src/`` of the same checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "serve-warm": "serve_warm",
    "cold-suite": "cold_suite",
    "live-updates": "live_updates",
    "srl-programs": "srl_programs",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def prepare_imports() -> None:
    """Put the checkout's ``src/`` and this directory on the import path,
    for this process and for the processes it starts."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}")
    sys.path[:0] = [str(src), str(HERE)]
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([existing] if existing else []))


def select_metrics(spec: dict, trace: bool, produced: dict[str, float],
                   measured: set[str]) -> dict[str, dict]:
    """Check the workload's metrics against ``BENCHMARK.json``.

    Untraced runs must produce every end-to-end metric.  A traced run
    produces the per-layer metrics of the layers its workload enters
    (``measured``); the others are reported as 0 — that layer did no work
    in this workload.
    """
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [entry["name"] for entry in declared]
    unknown = set(produced) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(unknown)}")
    required = measured if trace else set(names)
    missing = required - set(produced)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    return {entry["name"]: {"value": float(produced.get(entry["name"], 0.0)),
                            "unit": entry["unit"]}
            for entry in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    prepare_imports()
    module = importlib.import_module(WORKLOADS[args.workload])
    window = args.seconds / 2 if args.trace else args.seconds
    outcome = module.run(args.seed, window, bool(args.trace))
    metrics = select_metrics(spec, bool(args.trace), outcome.metrics,
                             set(module.LAYER_METRICS))
    for line in outcome.lines:
        print(line)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": outcome.wrong == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
