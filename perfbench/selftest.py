#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny sizes.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload it runs one short traced window at tiny sizes and
checks that every end-to-end and per-layer metric ``BENCHMARK.json``
lists is reported with its unit and that every answer checked out; then
it injects a wrong expected answer and checks that the run reports a
failed operation.  It also cross-checks the reference answers
(``oracle.py``) against the program's ``plan`` backend with the
optimizer off.  Exits 0 when everything holds.
"""

from __future__ import annotations

import importlib
import sys

from run import WORKLOADS, load_spec, prepare_imports, select_metrics

SECONDS = 1.0


def check_oracle() -> list[str]:
    from oracle import as_answer, reference
    from repro.logic.eval import define_relation
    from repro.logic.queries import CANONICAL_QUERIES
    from repro.structures.graphs import random_alternating_graph
    from repro.structures.zoo import (
        dense_graph,
        grid_graph,
        layered_dag,
        sparse_graph,
    )

    problems = []
    for seed in range(2):
        for structure in (sparse_graph(20, 3, seed), dense_graph(16, 0.3, seed),
                          layered_dag(4, 4, 2, seed), grid_graph(4, 4),
                          random_alternating_graph(16, 0.15, seed=seed)):
            names = [name for name in CANONICAL_QUERIES
                     if name not in ("apath", "agap")
                     or "A" in structure.relations]
            expected = reference(structure, names)
            for name in names:
                query = CANONICAL_QUERIES[name]
                rows = define_relation(query.formula(), structure,
                                       query.variables, backend="plan",
                                       optimize=False)
                if as_answer(rows, query.variables) != expected[name]:
                    problems.append(f"oracle disagrees with the plan backend "
                                    f"on {name}, n={structure.size}")
    return problems


def check_workload(spec: dict, name: str) -> list[str]:
    module = importlib.import_module(WORKLOADS[name])
    problems = []
    for trace in (False, True):
        outcome = module.run(1, SECONDS, trace, sizes=module.TINY)
        try:
            metrics = select_metrics(spec, trace, outcome.metrics,
                                     set(module.LAYER_METRICS))
        except RuntimeError as error:
            problems.append(f"{name} trace={int(trace)}: {error}")
            continue
        declared = spec["per_layer" if trace else "end_to_end"]
        for entry in declared:
            reported = metrics.get(entry["name"])
            if reported is None or reported["unit"] != entry["unit"]:
                problems.append(f"{name}: {entry['name']} not reported "
                                f"in {entry['unit']}")
        if outcome.failed or outcome.wrong:
            problems.append(f"{name} trace={int(trace)}: {outcome.failed} "
                            f"failed ops on a healthy run: {outcome.lines}")
    outcome = module.run(2, SECONDS, False, sizes=module.TINY, corrupt=1)
    if not (outcome.failed and outcome.wrong
            and outcome.metrics["answered_share"] < 1.0):
        problems.append(f"{name}: an injected wrong answer went unreported")
    return problems


def main() -> int:
    spec = load_spec()
    prepare_imports()
    problems = check_oracle()
    for name in WORKLOADS:
        found = check_workload(spec, name)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(f"problem: {problem}")
    print("self-test passed" if not problems else "self-test failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
