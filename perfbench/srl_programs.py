"""``srl-programs``: the paper's SRL programs, each through a fresh
``Session`` — the only workload that enters the parser, the typechecker,
the restriction classifier, the program compiler and the SRL values.

Every operation builds a new session, so compilation is part of it, as it
is for a caller running a program once.
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
    mean,
    measure,
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
from oracle import reference

#: The README quickstart program, parsed by the ``parse`` operation.
QUICKSTART = """
(define (has-successor x)
  (set-reduce EDGES (lambda (e xx) (= (sel 1 e) xx))
                    (lambda (a r) (or a r))
                    false x))

(set-reduce NODES (lambda (x e) (has-successor x))
                  (lambda (a r) (and a r))
                  true emptyset)
"""

FULL = {"reach_n": 12, "agap_n": 8, "powerset_n": 8, "arith_n": 16,
        "perms": 4, "degree": 5}
TINY = {"reach_n": 4, "agap_n": 4, "powerset_n": 3, "arith_n": 6,
        "perms": 2, "degree": 3}
#: Operation kinds and their weight in each cycle of the mix.  The
#: weights keep each class's median away from the boundary between two
#: kinds (or two instances) of different cost: the ``bool`` median falls
#: 30% of the way into the reachability runs.
MIX = {"reachability": 5, "agap": 1, "powerset": 8, "add": 2, "mult": 2,
       "parity": 2, "bit": 1, "iterated-product": 2, "parse": 2}
#: Distinct seeded inputs generated per program kind.
INSTANCES = 16
#: The BASRL arithmetic operations (``evaluate_arithmetic``'s names).
ARITHMETIC = ("add", "mult", "parity", "bit")
#: Tail percentile per latency class: the highest with at least 10
#: samples beyond it in a 25-second window.
TAILS = {"op": 0.98, "rel": 0.95, "bool": 0.95}
SETUP_REPETITIONS = 5

LAYER_METRICS = TRACE_METRICS + (
    "core.parser.parse_ms", "core.typecheck.check_ms",
    "core.restrictions.classify_ms", "core.compiler.compile_ms",
    "core.compiler.execute_ms", "core.engine.run_ms",
    "core.evaluator.steps", "core.evaluator.set_reduce_iterations",
    "core.evaluator.new_values",
)


@dataclass(frozen=True)
class Op:
    kind: str
    instance: int
    kinds: tuple[str, ...]

    def __repr__(self) -> str:
        return f"{self.kind}#{self.instance}"


@dataclass
class Instance:
    """One seeded input: the program, how to call it, and the answer."""

    program: object
    database: object
    call: tuple | None
    expected: object


def _instances(seed: int, sizes: dict) -> dict[str, list[Instance]]:
    from repro.core import Atom, parse_program
    from repro.queries import (
        agap_database,
        agap_program,
        arithmetic_database,
        arithmetic_program,
        im_database,
        ip_program,
        powerset_database,
        powerset_program,
        reachability_program,
    )
    from repro.queries.transitive_closure import graph_database
    from repro.structures.graphs import (
        random_alternating_graph,
        random_permutations,
    )
    from repro.structures.zoo import sparse_graph

    rng = random.Random(seed)
    n = sizes["arith_n"]
    instances: dict[str, list[Instance]] = {kind: [] for kind in MIX}
    for index in range(INSTANCES):
        # A fixed out-degree keeps the instances' costs close together.
        graph = sparse_graph(sizes["reach_n"], 2, seed + index)
        instances["reachability"].append(Instance(
            reachability_program(), graph_database(graph), None, graph))
        alternating = random_alternating_graph(sizes["agap_n"], 0.25,
                                               seed=seed + index)
        instances["agap"].append(Instance(
            agap_program(), agap_database(alternating), None, alternating))
        instances["powerset"].append(Instance(
            powerset_program(), powerset_database(sizes["powerset_n"]),
            None, sizes["powerset_n"]))
        for operation in ARITHMETIC:
            if operation == "bit":
                arguments = (rng.randrange(4), rng.randrange(n))
            elif operation == "parity":
                arguments = (rng.randrange(n),)
            else:
                arguments = (rng.randrange(n), rng.randrange(n))
            instances[operation].append(Instance(
                arithmetic_program(), arithmetic_database(n),
                (operation, tuple(Atom(a) for a in arguments)),
                (operation, arguments, n)))
        perms = random_permutations(sizes["perms"], sizes["degree"],
                                    seed=seed + index)
        start = rng.randrange(sizes["degree"])
        instances["iterated-product"].append(Instance(
            ip_program(), im_database(perms, start), ("ip", (Atom(start),)),
            (perms, start)))
        instances["parse"].append(Instance(
            None, None, None, parse_program(QUICKSTART)))
    return instances


def _expected(kind: str, instance: Instance):
    """The answer from an independent source: the graph references, Python
    arithmetic, itertools and the permutation baseline."""
    from repro.queries import compose_permutations_baseline, powerset_baseline

    if kind == "reachability":
        return reference(instance.expected, ["reach"])["reach"]
    if kind == "agap":
        return reference(instance.expected, ["agap"])["agap"]
    if kind == "powerset":
        return powerset_baseline(range(instance.expected))
    if kind in ARITHMETIC:
        operation, arguments, size = instance.expected
        if operation == "add":
            return min(arguments[0] + arguments[1], size - 1)
        if operation == "mult":
            return min(arguments[0] * arguments[1], size - 1)
        if operation == "parity":
            return arguments[0] % 2 == 1
        return bool(arguments[1] >> arguments[0] & 1)
    if kind == "iterated-product":
        perms, start = instance.expected
        return compose_permutations_baseline(perms)[start]
    return instance.expected


def _decode(kind: str, value):
    """A program's value in the shape of its expected answer."""
    from repro.queries import rank_of

    if kind == "powerset":
        return frozenset(frozenset(atom.rank for atom in subset)
                         for subset in value)
    if kind in ARITHMETIC:
        return value if isinstance(value, bool) else rank_of(value)
    if kind == "iterated-product":
        return rank_of(value[1])
    return value


#: Which latency classes each kind lands in: set-valued answers are
#: ``rel``, truth values ``bool``; ``op`` is every Session run.
CLASSES = {"reachability": ("op", "bool"), "agap": ("op", "bool"),
           "powerset": ("op", "rel"), "add": ("op",), "mult": ("op",),
           "parity": ("op", "bool"), "bit": ("op", "bool"),
           "iterated-product": ("op",), "parse": ()}


def _schedule(instances: dict, seed: int):
    """The seeded mix: each cycle shuffled, each kind's instances taken in
    turn so that every instance runs equally often."""
    rng = random.Random(seed)
    ops = [kind for kind, weight in MIX.items() for _ in range(weight)]
    turns = {kind: rng.randrange(INSTANCES) for kind in MIX}
    while True:
        cycle = ops[:]
        rng.shuffle(cycle)
        for kind in cycle:
            turns[kind] += 1
            yield Op(kind, turns[kind] % len(instances[kind]), CLASSES[kind])


def run(seed: int, seconds: float, trace: bool, sizes: dict = FULL,
        corrupt: int = 0) -> Outcome:
    from repro.core import Session, parse_program

    setup_s, instances, setup_times = repeated_setup(
        lambda: _instances(seed, sizes), SETUP_REPETITIONS)
    expected = {(kind, index): _expected(kind, instance)
                for kind, group in instances.items()
                for index, instance in enumerate(group)}
    for key in list(expected)[:corrupt]:
        expected[key] = None
    lines = [f"set-up: {', '.join(f'{t:.3f}' for t in setup_times)} s "
             f"(median {setup_s:.3f} s)",
             "mix: " + ", ".join(f"{kind}x{weight}"
                                 for kind, weight in MIX.items())
             + f"; sizes: {sizes}"]
    evaluation: list = []
    recorder = Recorder()

    def execute(op: Op):
        instance = instances[op.kind][op.instance]
        if op.kind == "parse":
            return parse_program(QUICKSTART)
        session = Session(instance.program)
        if instance.call is None:
            value = session.run(instance.database)
        else:
            name, arguments = instance.call
            value = session.call(name, *arguments, database=instance.database)
        if recorder.current_op() is not None:
            evaluation.append(session.stats.as_dict())
        return value

    def check(op: Op, value) -> bool:
        return _decode(op.kind, value) == expected[(op.kind, op.instance)]

    window = measure([_schedule(instances, seed)], seconds, execute, check)
    metrics = {"setup_s": setup_s}
    metrics.update(window_metrics(window, TAILS, lines))
    lines += window.notes
    attempted, failed, wrong = window.attempted, window.failed, window.wrong
    if not trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
        return Outcome(attempted, failed, wrong, metrics, lines)

    import repro.core.compiler as compiler

    targets = [
        (compiler.CompiledProgram, "__init__", "core.compiler.compile"),
        (compiler.CompiledProgram, "run", "core.compiler.execute"),
        (compiler.CompiledProgram, "call", "core.compiler.execute"),
    ]
    with patched(recorder, targets):
        traced = measure(
            [_schedule(instances, seed)], seconds, execute, check,
            recorder=recorder,
            root_name=lambda op: "core.parser.parse" if op.kind == "parse"
            else "core.engine.run")
    attempted += traced.attempted
    failed += traced.failed
    wrong += traced.wrong
    traced_metrics = window_metrics(traced, TAILS, [])

    probe = Recorder(prefix="p")
    _probe_static(probe, instances)
    profiles = profile_ops(recorder.spans,
                           {"core.parser.parse", "core.engine.run"})
    runs = [p for p in profiles if p.root.name == "core.engine.run"]
    layer = {
        "core.parser.parse_ms":
            mean(durations_ms(recorder.spans, "core.parser.parse")),
        "core.typecheck.check_ms":
            mean(durations_ms(probe.spans, "core.typecheck.check")),
        "core.restrictions.classify_ms":
            mean(durations_ms(probe.spans, "core.restrictions.classify")),
        "core.compiler.compile_ms":
            mean(durations_ms(recorder.spans, "core.compiler.compile")),
        "core.compiler.execute_ms": sum(
            durations_ms(recorder.spans, "core.compiler.execute"))
            / max(1, len(runs)),
        "core.engine.run_ms": mean(p.latency_ms for p in runs),
        "core.evaluator.steps": mean(s["steps"] for s in evaluation),
        "core.evaluator.set_reduce_iterations":
            mean(s["set_reduce_iterations"] for s in evaluation),
        "core.evaluator.new_values": mean(s["new_values"] for s in evaluation),
        "trace.unattributed_share": unattributed_share(profiles),
    }
    layer = paced_layers(layer, traced)
    layer.update(overhead_metrics(metrics, traced_metrics))
    dump_spans(recorder.spans + probe.spans,
               out_dir() / f"spans-srl-programs-{seed}.jsonl")
    lines += ["self time per layer (traced window):"]
    lines += self_time_table(profiles)
    return Outcome(attempted, failed, wrong, layer, lines)


def _probe_static(probe: Recorder, instances: dict,
                  repetitions: int = 3) -> None:
    """Type-check and classify each program kind against its input types
    (the quickstart's ``parse`` operation has no database and is skipped)."""
    from repro.core.restrictions import strictest_restriction
    from repro.core.typecheck import check_program, database_types

    for _ in range(repetitions):
        for kind, group in instances.items():
            instance = group[0]
            if instance.program is None or instance.call is not None:
                continue
            types = database_types(instance.database)
            with probe.span("core.typecheck.check", op=f"probe-{kind}"):
                check_program(instance.program, input_types=types)
            with probe.span("core.restrictions.classify", op=f"probe-{kind}"):
                strictest_restriction(instance.program, types)
