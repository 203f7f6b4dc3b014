"""``cold-suite``: in-process ``define_relation(..., backend="columnar")``.

Every operation builds a fresh evaluation, so no answer is memoized, while
the process-wide plan and codegen caches are filled during set-up.  The
time goes to the kernels and to boxing rows; no service layer runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from harness import (
    TRACE_METRICS,
    Outcome,
    Recorder,
    dump_spans,
    durations_ms,
    logic_targets,
    measure,
    mean,
    out_dir,
    overhead_metrics,
    paced_layers,
    patched,
    peak_rss_mb,
    profile_ops,
    repeated_setup,
    self_time_table,
    unattributed_share,
    window_metrics,
)
from oracle import as_answer, digest, reference

GRAPH_QUERIES = ("tc", "dtc", "non-reach", "count-reach", "half-out",
                 "reach", "dreach", "gap")
FAMILIES = ("sparse", "dense", "layered", "grid", "alternating")

#: Structure sizes.  ``chunked`` is past the dense width threshold, so its
#: queries run on ``repro.logic.chunked``; it answers only reach/dreach
#: (see README.md for what the other queries do at that size).
FULL = {"n": 256, "layers": 16, "width": 16, "chunked": 16384}
TINY = {"n": 16, "layers": 4, "width": 4, "chunked": 48}

#: Tail percentile per latency class: the highest with at least 10
#: samples beyond it in a 25-second window.
TAILS = {"op": 0.99, "rel": 0.98, "bool": 0.97}
SETUP_REPETITIONS = 5

EXECUTION_METRICS = ("logic.codegen.execute_ms", "core.columnar.box_ms",
                     "logic.codegen.kernel_ms")
LAYER_METRICS = EXECUTION_METRICS + TRACE_METRICS + (
    "logic.compile.lower_ms", "logic.optimize.optimize_ms",
    "logic.codegen.codegen_ms", "logic.chunked.execute_ms",
    "logic.plan.rows_materialized", "logic.plan.rows_materialized.bool",
    "logic.plan.fixpoint_rounds", "logic.plan.max_fixpoint_round_rows",
    "logic.plan.bytes_resident",
) + tuple(f"logic.codegen.kernel_ms.{family}" for family in FAMILIES)


@dataclass(frozen=True)
class Op:
    structure: str
    query: str
    kinds: tuple[str, ...]

    @property
    def family(self) -> str:
        return self.structure.split("/")[0]

    def __repr__(self) -> str:
        return f"{self.query}@{self.structure}"


def _structures(seed: int, sizes: dict) -> dict:
    """Two structures per family, named ``<family>/<instance>``, so that
    one seeded graph's quirks weigh less in the figures."""
    from repro.structures.graphs import random_alternating_graph
    from repro.structures.zoo import (
        dense_graph,
        grid_graph,
        layered_dag,
        sparse_graph,
    )

    n, layers, width = sizes["n"], sizes["layers"], sizes["width"]
    structures = {}
    for instance in range(2):
        base = seed * 1009 + instance * 7
        structures.update({
            f"sparse/{instance}": sparse_graph(n, 3, base),
            f"dense/{instance}": dense_graph(n, 0.3, base + 1),
            f"layered/{instance}": layered_dag(layers, width, 2, base + 2),
            f"grid/{instance}": grid_graph(layers >> instance,
                                           width << instance),
            f"alternating/{instance}": random_alternating_graph(
                n, 0.03 if n > 64 else 0.15, seed=base + 3),
            f"chunked/{instance}": sparse_graph(sizes["chunked"], 3,
                                                base + 4),
        })
    return structures


def _pairs(structures: dict) -> list[tuple[str, str]]:
    pairs = []
    for name in structures:
        family = name.split("/")[0]
        if family == "alternating":
            pairs += [(name, "apath"), (name, "agap")]
        elif family == "chunked":
            pairs += [(name, "reach"), (name, "dreach")]
        else:
            pairs += [(name, query) for query in GRAPH_QUERIES]
    return pairs


def _fill_caches(structures: dict, pairs, formulas: dict) -> None:
    """Fill the optimized-plan and compiled-closure caches the way the
    first ``define_relation`` of each pair would."""
    from repro.core.columnar import DENSE_WIDTH_THRESHOLD
    from repro.logic.codegen import compiled_columnar
    from repro.logic.optimize import optimize_formula

    for name, query in pairs:
        structure = structures[name]
        formula, variables = formulas[query]
        plan = optimize_formula(formula, structure, variables)
        if structure.size <= DENSE_WIDTH_THRESHOLD:
            compiled_columnar(plan, structure.size)


def _schedule(pairs, seed: int):
    """An endless seeded sequence: every pair once per cycle, in a fresh
    shuffled order each cycle."""
    from repro.logic.queries import CANONICAL_QUERIES

    rng = random.Random(seed)
    ops = [Op(name, query,
              ("op", "rel" if CANONICAL_QUERIES[query].variables else "bool"))
           for name, query in pairs]
    while True:
        cycle = ops[:]
        rng.shuffle(cycle)
        yield from cycle


def run(seed: int, seconds: float, trace: bool, sizes: dict = FULL,
        corrupt: int = 0) -> Outcome:
    from repro.logic.codegen import clear_codegen_cache
    from repro.logic.eval import define_relation
    from repro.logic.optimize import clear_plan_cache
    from repro.logic.plan import PlanStats
    from repro.logic.queries import CANONICAL_QUERIES

    formulas = {name: (query.formula(), query.variables)
                for name, query in CANONICAL_QUERIES.items()}

    def build():
        clear_plan_cache()
        clear_codegen_cache()
        structures = _structures(seed, sizes)
        _fill_caches(structures, _pairs(structures), formulas)
        return structures

    setup_s, structures, setup_times = repeated_setup(build, SETUP_REPETITIONS)
    pairs = _pairs(structures)

    expected = {}
    for name, structure in structures.items():
        queries = [query for s, query in pairs if s == name]
        for query, answer in reference(structure, queries).items():
            expected[(name, query)] = digest(answer)
    # The self-test's injected fault: the first ``corrupt`` pairs expect an
    # answer no evaluation gives.
    for key in pairs[:corrupt]:
        expected[key] = None

    # Filled only in the traced window: operation id -> (op, PlanStats).
    traced_ops: dict = {}
    recorder = Recorder()

    def execute(op: Op):
        formula, variables = formulas[op.query]
        stats = None
        traced_op = recorder.current_op()
        if traced_op is not None:
            stats = PlanStats()
            traced_ops[traced_op] = (op, stats)
        rows = define_relation(formula, structures[op.structure], variables,
                               backend="columnar", stats=stats)
        return as_answer(rows, variables)

    def check(op: Op, answer) -> bool:
        return digest(answer) == expected[(op.structure, op.query)]

    lines = [f"set-up: {', '.join(f'{t:.3f}' for t in setup_times)} s "
             f"(median {setup_s:.3f} s)",
             "structures: " + ", ".join(
                 f"{family} n={s.size} |E|={len(s.relations['E'])}"
                 for family, s in structures.items())]
    window = measure([_schedule(pairs, seed)], seconds, execute, check)
    metrics = {"setup_s": setup_s}
    metrics.update(window_metrics(window, TAILS, lines))
    lines += window.notes
    attempted, failed, wrong = window.attempted, window.failed, window.wrong

    if not trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
        return Outcome(attempted, failed, wrong, metrics, lines)

    with patched(recorder, logic_targets()):
        traced = measure([_schedule(pairs, seed)], seconds, execute, check,
                         recorder=recorder,
                         root_name=lambda op: "logic.define_relation")
    attempted += traced.attempted
    failed += traced.failed
    wrong += traced.wrong
    traced_metrics = window_metrics(traced, TAILS, [])

    probe = Recorder(prefix="p")
    _probe_compilers(probe, structures, pairs, formulas)

    profiles = profile_ops(recorder.spans, {"logic.define_relation"})
    layer = _suite_metrics(profiles, recorder.spans, probe.spans,
                           {op_id: (op, stats.as_dict())
                            for op_id, (op, stats) in traced_ops.items()})
    layer = paced_layers(layer, traced)
    layer.update(overhead_metrics(metrics, traced_metrics))
    layer["trace.unattributed_share"] = unattributed_share(profiles)
    dump_spans(recorder.spans + probe.spans,
               out_dir() / f"spans-cold-suite-{seed}.jsonl")
    lines += ["self time per layer (traced window):"]
    lines += self_time_table(profiles)
    return Outcome(attempted, failed, wrong, layer, lines)


def _probe_compilers(probe: Recorder, structures: dict, pairs,
                     formulas: dict, repetitions: int = 3) -> None:
    """Time lowering, uncached optimization and codegen directly, once per
    pair and repetition."""
    from repro.core.columnar import DENSE_WIDTH_THRESHOLD
    from repro.logic.codegen import compile_columnar
    from repro.logic.compile import compile_formula
    from repro.logic.optimize import CostModel, optimize_plan

    for _ in range(repetitions):
        for index, (name, query) in enumerate(pairs):
            structure = structures[name]
            formula, variables = formulas[query]
            op = f"probe{index}"
            with probe.span("logic.compile.lower", op=op):
                raw = compile_formula(formula, variables)
            with probe.span("logic.optimize.optimize", op=op):
                plan = optimize_plan(raw, CostModel.from_structure(structure))
            if structure.size <= DENSE_WIDTH_THRESHOLD:
                with probe.span("logic.codegen.codegen", op=op):
                    compile_columnar(plan, structure.size)


def execution_metrics(profiles, spans) -> dict[str, float]:
    """Columnar execution per operation: kernel plus boxing, boxing alone,
    and their difference (shared with ``live-updates``)."""
    count = max(1, len(profiles))
    execute = sum(durations_ms(spans, "logic.codegen.execute")) / count
    box = sum(durations_ms(spans, "core.columnar.box")) / count
    return {"logic.codegen.execute_ms": execute, "core.columnar.box_ms": box,
            "logic.codegen.kernel_ms": execute - box}


def _suite_metrics(profiles, spans, probe_spans, traced_ops: dict
                   ) -> dict[str, float]:
    """``traced_ops`` maps each traced operation id to the operation and
    its ``PlanStats`` counters."""
    metrics = execution_metrics(profiles, spans)
    chunked_ops = [p for p in profiles if "logic.chunked.execute" in p.count]
    metrics.update({
        "logic.compile.lower_ms":
            mean(durations_ms(probe_spans, "logic.compile.lower")),
        "logic.optimize.optimize_ms":
            mean(durations_ms(probe_spans, "logic.optimize.optimize")),
        "logic.codegen.codegen_ms":
            mean(durations_ms(probe_spans, "logic.codegen.codegen")),
        "logic.chunked.execute_ms": mean(
            p.self_ms["logic.chunked.execute"] for p in chunked_ops),
    })
    for family in FAMILIES:
        chosen = [p for p in profiles if p.op in traced_ops
                  and traced_ops[p.op][0].family == family]
        metrics[f"logic.codegen.kernel_ms.{family}"] = mean(
            p.self_ms.get("logic.codegen.execute", 0.0) for p in chosen)
    plan_stats = [stats for _, stats in traced_ops.values()]
    bool_stats = [stats for op, stats in traced_ops.values()
                  if "bool" in op.kinds]
    metrics.update({
        "logic.plan.rows_materialized":
            mean(s["rows_materialized"] for s in plan_stats),
        "logic.plan.rows_materialized.bool":
            mean(s["rows_materialized"] for s in bool_stats),
        "logic.plan.fixpoint_rounds":
            mean(s["fixpoint_rounds"] for s in plan_stats),
        "logic.plan.max_fixpoint_round_rows":
            max((s["max_fixpoint_round_rows"] for s in plan_stats), default=0),
        "logic.plan.bytes_resident":
            max((s["bytes_resident"] for s in plan_stats), default=0),
    })
    return metrics
