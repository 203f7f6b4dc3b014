"""``live-updates``: single-edge writes through incremental maintenance
beside reads of memoized relations, on columnar ``ModelChecker``\ s.

Writes alternate an insert of a random non-edge with a delete of a random
edge; each write is followed by a read of one of the memoized relations.
A relation whose maintenance fell back to recompute pays on its next read.
The operations go round-robin to several independent checkers, so one
seeded graph's quirks weigh less in the figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cold_suite import EXECUTION_METRICS, execution_metrics
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
from oracle import as_answer, reference

FULL = {"n": 128, "p": 0.03, "checkers": 4}
TINY = {"n": 16, "p": 0.15, "checkers": 2}
MEMOIZED = ("tc", "dtc", "apath", "reach", "non-reach")
#: Reads per cycle of the stream, by relation.  Uneven weights keep the
#: median read away from the boundary between two relations' latencies.
READ_MIX = {"tc": 1, "dtc": 1, "apath": 2, "non-reach": 2, "reach": 2}
#: One read in this many is checked against a fresh checker.
CHECK_EVERY = 8
#: Tail percentile per latency class: the highest with at least 10
#: samples beyond it in a 25-second window.
TAILS = {"op": 0.99, "rel": 0.98, "bool": 0.96}
SETUP_REPETITIONS = 5

IVM_STRATEGIES = ("closure", "delta", "fixpoint", "recompute")
LAYER_METRICS = EXECUTION_METRICS + TRACE_METRICS + (
    "logic.ivm.apply_update_ms", "logic.ivm.maintain_ms",
    "logic.ivm.patch_ratio", "logic.eval.read_hit_ms",
    "logic.eval.read_miss_ms",
) + tuple(f"logic.ivm.{strategy}" for strategy in IVM_STRATEGIES)


@dataclass(frozen=True)
class Op:
    """A write to checker ``target`` (``added`` and ``removed`` edges) or a
    read of its memoized relation ``query``."""

    target: int
    query: str | None
    added: tuple[tuple[int, int], ...]
    removed: tuple[tuple[int, int], ...]
    check: bool
    kinds: tuple[str, ...]

    def __repr__(self) -> str:
        if self.query is None:
            return f"write +{self.added} -{self.removed} @{self.target}"
        return f"read {self.query}@{self.target}"


class Stream:
    """One checker's seeded operation stream.  Writes take turns: insert a
    random non-edge, delete a random edge, move an edge (both in one
    changeset); three kinds, so the median write is not the boundary
    between two.  The stream tracks the edge set the writes produce."""

    def __init__(self, target: int, structure, seed: int) -> None:
        from repro.logic.queries import CANONICAL_QUERIES

        self.target = target
        self.rng = random.Random(seed)
        self.n = structure.size
        self.edges = set(structure.relations["E"])
        self.edge_list = sorted(self.edges)
        self.kinds = {name: ("rel" if CANONICAL_QUERIES[name].variables
                             else "bool") for name in MEMOIZED}

    def __iter__(self):
        writes = 0
        reads = [name for name, weight in READ_MIX.items()
                 for _ in range(weight)]
        while True:
            self.rng.shuffle(reads)
            for name in reads:
                kind = writes % 3
                writes += 1
                removed = (self._delete(),) if kind != 0 else ()
                added = (self._insert(),) if kind != 1 else ()
                yield Op(self.target, None, added, removed, False, ("op",))
                check = self.rng.randrange(CHECK_EVERY) == 0
                yield Op(self.target, name, (), (), check,
                         (self.kinds[name],))

    def _insert(self) -> tuple[int, int]:
        while True:
            edge = (self.rng.randrange(self.n), self.rng.randrange(self.n))
            if edge[0] != edge[1] and edge not in self.edges:
                break
        self.edges.add(edge)
        self.edge_list.append(edge)
        return edge

    def _delete(self) -> tuple[int, int]:
        index = self.rng.randrange(len(self.edge_list))
        edge = self.edge_list[index]
        self.edge_list[index] = self.edge_list[-1]
        self.edge_list.pop()
        self.edges.discard(edge)
        return edge


def _streams(checkers: list, seed: int):
    """Every checker's stream, interleaved a write and a read at a time."""
    streams = [iter(Stream(index, checker.structure, seed * 101 + index))
               for index, checker in enumerate(checkers)]
    while True:
        for stream in streams:
            yield next(stream)
            yield next(stream)


def _checkers(seed: int, sizes: dict, formulas: dict) -> list:
    from repro.logic.eval import ModelChecker
    from repro.structures.graphs import random_alternating_graph

    checkers = []
    for index in range(sizes["checkers"]):
        structure = random_alternating_graph(sizes["n"], sizes["p"],
                                             seed=seed * 101 + index)
        checker = ModelChecker(structure, backend="columnar")
        for formula, _variables in formulas.values():
            checker.defined_relation(formula)
        checkers.append(checker)
    return checkers


def run(seed: int, seconds: float, trace: bool, sizes: dict = FULL,
        corrupt: int = 0) -> Outcome:
    from repro.logic.eval import ModelChecker
    from repro.logic.queries import CANONICAL_QUERIES
    from repro.structures.changeset import Changeset

    formulas = {name: (CANONICAL_QUERIES[name].formula(),
                       CANONICAL_QUERIES[name].variables)
                for name in MEMOIZED}
    setup_s, checkers, setup_times = repeated_setup(
        lambda: _checkers(seed, sizes, formulas), SETUP_REPETITIONS)
    lines = [f"set-up: {', '.join(f'{t:.3f}' for t in setup_times)} s "
             f"(median {setup_s:.3f} s)",
             f"{len(checkers)} checkers over alternating graphs, n="
             f"{sizes['n']}, |E|=" + "/".join(
                 str(len(c.structure.relations['E'])) for c in checkers)
             + ", memoized: " + ", ".join(MEMOIZED)]
    # The self-test's injected fault: the first ``corrupt`` checked reads
    # compare against a wrong expectation.
    faults = {"left": corrupt}
    # Traced reads only: op id -> whether the read ran a plan (a memo miss:
    # any PlanStats counter moved) or was served from the memo.
    missed: dict[str, bool] = {}
    recorder = Recorder()

    def execute(op: Op):
        checker = checkers[op.target]
        if op.query is None:
            checker.apply_update(Changeset.inserting("E", *op.added)
                                 + Changeset.deleting("E", *op.removed))
            return None
        traced_op = recorder.current_op()
        before = checker.plan_stats.as_dict() if traced_op else None
        formula, _variables = formulas[op.query]
        answer = checker.defined_relation(formula)
        if traced_op:
            missed[traced_op] = before != checker.plan_stats.as_dict()
        return answer

    def check(op: Op, answer) -> bool:
        if op.query is None or not op.check:
            return True
        formula, _variables = formulas[op.query]
        fresh = ModelChecker(checkers[op.target].structure, backend="columnar")
        right = answer == fresh.defined_relation(formula)
        if faults["left"] > 0:
            faults["left"] -= 1
            return False
        return right

    window = measure([_streams(checkers, seed)], seconds, execute, check)
    metrics = {"setup_s": setup_s}
    metrics.update(window_metrics(window, TAILS, lines))
    lines += window.notes
    attempted, failed, wrong = window.attempted, window.failed, window.wrong
    lines.append("maintenance decisions: " + ", ".join(
        f"{k}={v}" for k, v in sorted(_decisions(checkers).items())))

    mismatched = _final_check(checkers, formulas)
    if trace:
        import repro.logic.ivm as ivm

        # Trace from the same starting state and stream as the untraced
        # window, so their difference is the tracing overhead.
        checkers = _checkers(seed, sizes, formulas)
        targets = logic_targets() + [
            (ModelChecker, "apply_update", "logic.ivm.apply_update"),
            (ivm, "maintain", "logic.ivm.maintain"),
        ]
        with patched(recorder, targets):
            traced = measure(
                [_streams(checkers, seed)], seconds, execute, check,
                recorder=recorder,
                root_name=lambda op: "logic.ivm.write" if op.query is None
                else "logic.eval.read")
        attempted += traced.attempted
        failed += traced.failed
        wrong += traced.wrong
        mismatched += _final_check(checkers, formulas)

    if mismatched:
        lines.append(f"error: final state differs for {mismatched}")
        failed += len(mismatched)
        wrong += len(mismatched)

    if not trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
        return Outcome(attempted, failed, wrong, metrics, lines)

    traced_metrics = window_metrics(traced, TAILS, [])
    profiles = profile_ops(recorder.spans,
                           {"logic.ivm.write", "logic.eval.read"})
    read_profiles = [p for p in profiles if p.op in missed]
    hits = [p.latency_ms for p in read_profiles if not missed[p.op]]
    misses = [p.latency_ms for p in read_profiles if missed[p.op]]
    decisions = _decisions(checkers)
    total = sum(decisions.values())
    layer = execution_metrics(profiles, recorder.spans)
    writes = [p for p in profiles if p.root.name == "logic.ivm.write"]
    layer.update({
        "logic.ivm.apply_update_ms":
            mean(durations_ms(recorder.spans, "logic.ivm.apply_update")),
        "logic.ivm.maintain_ms": sum(
            durations_ms(recorder.spans, "logic.ivm.maintain"))
            / max(1, len(writes)),
        "logic.ivm.patch_ratio": (total - decisions["recompute"])
            / max(1, total),
        "logic.eval.read_hit_ms": mean(hits),
        "logic.eval.read_miss_ms": mean(misses),
    })
    layer.update({f"logic.ivm.{k}": v for k, v in decisions.items()})
    layer = paced_layers(layer, traced)
    layer.update(overhead_metrics(metrics, traced_metrics))
    layer["trace.unattributed_share"] = unattributed_share(profiles)
    dump_spans(recorder.spans, out_dir() / f"spans-live-updates-{seed}.jsonl")
    lines.append(f"traced reads: {len(hits)} from the memo, "
                 f"{len(misses)} recomputed")
    lines += ["self time per layer (traced window):"]
    lines += self_time_table(profiles)
    return Outcome(attempted, failed, wrong, layer, lines)


def _decisions(checkers: list) -> dict[str, int]:
    """Maintenance decisions per strategy, summed over the checkers."""
    return {strategy: sum(c.ivm_stats.get(strategy, 0) for c in checkers)
            for strategy in IVM_STRATEGIES}


def _final_check(checkers: list, formulas: dict) -> list[str]:
    """Compare every memoized relation with a fresh checker that does no
    maintenance, and with the reference answers."""
    from repro.logic.eval import ModelChecker

    wrong = []
    for index, checker in enumerate(checkers):
        structure = checker.structure
        fresh = ModelChecker(structure, backend="columnar")
        expected = reference(structure, list(formulas))
        for name, (formula, variables) in formulas.items():
            _columns, rows = checker.defined_relation(formula)
            _fresh_columns, fresh_rows = fresh.defined_relation(formula)
            if rows != fresh_rows or \
                    as_answer(rows, variables) != expected[name]:
                wrong.append(f"{name}@{index}")
    return wrong
