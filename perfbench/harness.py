"""Shared machinery for the workloads: timing windows, percentiles, the
in-memory span recorder, wrappers around the program's public functions,
self-time accounting and resident-memory readings.

Everything here lives outside ``src/``: the traced run measures each layer
by wrapping the public function that enters it, so the program itself
carries no tracing code.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Every run writes its spans and server logs here, relative to the
#: checkout root (listed in the root ``.gitignore``).
OUT_DIR = Path(".bench_build") / "perfbench"

#: A tail percentile is reported only where at least this many samples lie
#: beyond it; the fixed percentiles below were sized against this floor.
TAIL_FLOOR = 10


def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


# ------------------------------------------------------------------ stats


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank
    ``fraction`` percentile."""
    return count - max(1, math.ceil(fraction * count))


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------- host pace
#
# The benchmark shares its machine.  While sizing it, a fixed pure-Python
# loop ran up to 50% slower for stretches of seconds at a time, with no
# steal time reported, and every workload slowed with it.  So each timing
# is scaled by the machine's pace, measured with that loop right before and
# after it: ``scaled = measured * REFERENCE_PACE / pace``.  Over 6-second
# blocks this cut the spread of a workload's mean latency about threefold
# (coefficient of variation 0.165 -> 0.055 for SRL programs, 0.146 -> 0.061
# for columnar queries).  On an undisturbed machine like the one the
# benchmark was sized on, scaled and measured times agree.

#: Iterations of the pace loop, and its duration in seconds on the machine
#: the benchmark was sized on when undisturbed (2 cores, Python 3.11.7).
PACE_LOOP = 50_000
REFERENCE_PACE = 0.003

#: Seconds between two pace measurements within a window.
SLICE_SECONDS = 1.0


def host_pace() -> float:
    """Seconds the pace loop takes now (median of three)."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(PACE_LOOP):
            total += value * value
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def pace_scale(before: float, after: float) -> float:
    """The factor scaling a time measured between two pace readings to
    the reference pace."""
    return REFERENCE_PACE / ((before + after) / 2)


@dataclass
class Window:
    """What a closed-loop measurement window produced.

    ``samples`` holds ``(slice, milliseconds, classes)`` per answered
    operation; ``scales[slice]`` converts that slice's measured times to
    the reference pace.  The classes are ``op`` (the workload's primary
    operation), ``rel`` and ``bool`` (operations answering a relation or a
    truth value); an operation may be in none of them.
    """

    samples: list[tuple[int, float, tuple[str, ...]]]
    scales: list[float]
    attempted: int
    failed: int
    wrong: int
    clients: int
    notes: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def window_metrics(window: Window, tails: dict[str, float],
                   notes: list[str]) -> dict[str, float]:
    """Throughput, answered share and ``<class>_p50_ms`` /
    ``<class>_tail_ms`` of a window, in times scaled to the reference pace.

    Throughput follows Little's law for a closed loop: clients divided by
    the mean latency of answered operations, so the time spent checking
    answers between operations is excluded.  ``tails`` fixes each class's
    tail percentile for the workload; a run leaving fewer than
    :data:`TAIL_FLOOR` samples beyond it says so in ``notes``.
    """
    if not window.samples:
        raise RuntimeError("no operation was answered in the measured window")
    scaled = [(ms * window.scales[number], kinds)
              for number, ms, kinds in window.samples]
    raw_total = sum(ms for _, ms, _ in window.samples)
    metrics = {
        "ops_per_s": window.clients * len(scaled) * 1e3
        / sum(ms for ms, _ in scaled),
        "answered_share": window.completed / max(1, window.attempted),
    }
    notes.append(f"pace scale: median {median(window.scales):.3f} over "
                 f"{len(window.scales)} slices; unscaled throughput "
                 f"{window.clients * len(scaled) * 1e3 / raw_total:.2f}/s")
    for kind, fraction in tails.items():
        chosen = [ms for ms, kinds in scaled if kind in kinds]
        if not chosen:
            raise RuntimeError(f"no {kind} samples in the measured window")
        metrics[f"{kind}_p50_ms"] = percentile(chosen, 0.5)
        metrics[f"{kind}_tail_ms"] = percentile(chosen, fraction)
        spare = beyond(len(chosen), fraction)
        notes.append(f"{kind}: {len(chosen)} samples, tail = "
                     f"p{fraction * 100:g} with {spare} beyond")
        if spare < TAIL_FLOOR:
            notes.append(f"warning: {kind} tail has only {spare} samples "
                         f"beyond p{fraction * 100:g}")
    return metrics


def peak_rss_mb(pids: tuple[int, ...] = ()) -> float:
    """Peak resident memory of this process plus the given processes
    (``VmHWM`` from ``/proc``), in MiB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def repeated_setup(build, repetitions: int):
    """Run ``build()`` ``repetitions`` times.  Returns the median set-up
    time in seconds (scaled to the reference pace), the last build's result
    and every repetition's scaled time."""
    times = []
    result = None
    for _ in range(repetitions):
        before = host_pace()
        started = time.perf_counter()
        result = build()
        elapsed = time.perf_counter() - started
        times.append(elapsed * pace_scale(before, host_pace()))
    return median(times), result, times


# ---------------------------------------------------------------- tracing


@dataclass
class Span:
    sid: str
    name: str
    start: float
    end: float
    parent: str | None
    op: str | None


class Recorder:
    """An in-memory span recorder.

    Spans nest per thread; a span opened with an explicit ``op`` starts a
    new operation, otherwise it inherits its parent's.  ``prefix`` keeps
    span ids unique when spans from several processes are merged.
    ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by every
    process on the machine, so merged intervals line up.
    """

    def __init__(self, prefix: str = "b") -> None:
        self.prefix = prefix
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str, op: str | None = None):
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1][0]
            if op is None:
                op = stack[-1][1]
        sid = f"{self.prefix}{next(self._ids)}"
        stack.append((sid, op))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, op))

    def wrap(self, owner, attribute: str, name: str) -> "Patch":
        """Replace ``owner.attribute`` (a module function or a class
        method) by a wrapper recording one span per call."""
        original = getattr(owner, attribute)
        recorder = self

        def traced(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)
        return Patch(owner, attribute, original)


def dump_spans(spans: list[Span], path: Path) -> None:
    """Write spans as JSON lines (the traced run's record)."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(asdict(span)) + "\n")


def load_spans(path: Path) -> list[Span]:
    spans = []
    with open(path) as handle:
        for line in handle:
            if line.strip():
                spans.append(Span(**json.loads(line)))
    return spans


@dataclass
class Patch:
    owner: object
    attribute: str
    original: object

    def undo(self) -> None:
        setattr(self.owner, self.attribute, self.original)


@contextmanager
def patched(recorder: Recorder, targets):
    """Install span wrappers for ``targets`` — ``(owner, attribute, span
    name)`` triples — for the duration of the block."""
    patches = [recorder.wrap(owner, attribute, name)
               for owner, attribute, name in targets]
    try:
        yield
    finally:
        for patch in reversed(patches):
            patch.undo()


def logic_targets():
    """The logic-layer entry points a columnar evaluation passes through,
    each wrapped where its caller looks it up at call time."""
    import repro.logic.chunked as chunked
    import repro.logic.codegen as codegen
    import repro.logic.eval as eval_module
    import repro.logic.optimize as optimize

    return [
        (eval_module, "optimize_formula", "logic.optimize.lookup"),
        (optimize, "optimize_plan", "logic.optimize.optimize"),
        (optimize, "compile_formula", "logic.compile.lower"),
        (eval_module, "compile_formula", "logic.compile.lower"),
        (eval_module, "execute_columnar", "logic.codegen.dispatch"),
        (codegen, "compiled_columnar", "logic.codegen.lookup"),
        (codegen, "compile_columnar", "logic.codegen.codegen"),
        (codegen.CompiledColumnarPlan, "execute", "logic.codegen.execute"),
        (codegen, "rows_of_adjacency", "core.columnar.box"),
        (codegen, "rows_of_bits", "core.columnar.box"),
        (chunked, "execute_chunked", "logic.chunked.execute"),
    ]


# -------------------------------------------------------- self-time table


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals
                     if b > start and a < end)
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


@dataclass
class OpProfile:
    """One traced operation: its root span and every layer's self time."""

    op: str
    root: Span
    self_ms: dict[str, float]
    count: dict[str, int]

    @property
    def latency_ms(self) -> float:
        return (self.root.end - self.root.start) * 1e3


def profile_ops(spans: list[Span], root_names: set[str]) -> list[OpProfile]:
    """Group spans by operation and compute each span's self time: its
    duration minus the part of it covered by its children.  Spans whose
    parent is not among the operation's spans (spans recorded in another
    process) hang off the operation's root."""
    by_op: dict[str, list[Span]] = {}
    for span in spans:
        if span.op is not None:
            by_op.setdefault(span.op, []).append(span)
    profiles = []
    for op, members in by_op.items():
        roots = [s for s in members if s.name in root_names and s.parent is None]
        if len(roots) != 1:
            continue
        root = roots[0]
        ids = {s.sid for s in members}
        children: dict[str, list[Span]] = {}
        for span in members:
            if span is root:
                continue
            parent = span.parent if span.parent in ids else root.sid
            children.setdefault(parent, []).append(span)
        self_ms: dict[str, float] = {}
        count: dict[str, int] = {}
        for span in members:
            kids = [(c.start, c.end) for c in children.get(span.sid, ())]
            own = (span.end - span.start) - _covered(span.start, span.end, kids)
            self_ms[span.name] = self_ms.get(span.name, 0.0) + own * 1e3
            count[span.name] = count.get(span.name, 0) + 1
        profiles.append(OpProfile(op, root, self_ms, count))
    return profiles


def durations_ms(spans: list[Span], name: str) -> list[float]:
    return [(s.end - s.start) * 1e3 for s in spans if s.name == name]


def self_time_table(profiles: list[OpProfile]) -> list[str]:
    """The per-layer self-time table printed by a traced run."""
    if not profiles:
        return ["(no traced operations)"]
    ops = len(profiles)
    total_latency = sum(p.latency_ms for p in profiles)
    names = sorted({name for p in profiles for name in p.self_ms})
    rows = []
    for name in names:
        own = sum(p.self_ms.get(name, 0.0) for p in profiles)
        calls = sum(p.count.get(name, 0) for p in profiles)
        rows.append((own, name, calls))
    rows.sort(reverse=True)
    lines = [f"{'layer':<34} {'calls':>8} {'self ms/op':>11} {'share':>7}"]
    for own, name, calls in rows:
        lines.append(f"{name:<34} {calls:>8} {own / ops:>11.4f} "
                     f"{own / total_latency:>7.1%}")
    accounted = sum(sum(p.self_ms.values()) for p in profiles)
    lines.append(f"{'(sum of self times / latency)':<34} {ops:>8} "
                 f"{accounted / ops:>11.4f} {accounted / total_latency:>7.1%}")
    return lines


def unattributed_share(profiles: list[OpProfile]) -> float:
    """The share of traced latency spent in the operations' root spans
    outside every wrapped layer."""
    total = sum(p.latency_ms for p in profiles)
    if not total:
        return 0.0
    return sum(p.self_ms.get(p.root.name, 0.0) for p in profiles) / total


def paced_layers(layer: dict[str, float], window: Window) -> dict[str, float]:
    """Per-layer times (metrics named ``..._ms...``) scaled to the
    reference pace by the traced window's median scale, like the
    end-to-end times; counts, bytes and shares stay as measured."""
    factor = median(window.scales)
    return {name: value * factor if "_ms" in name else value
            for name, value in layer.items()}


TRACE_METRICS = ("trace.overhead.ops_per_s", "trace.overhead.op_p50_ms",
                 "trace.overhead.rel_p50_ms", "trace.overhead.bool_p50_ms",
                 "trace.unattributed_share")


def overhead_metrics(untraced: dict[str, float], traced: dict[str, float]
                     ) -> dict[str, float]:
    """Tracing overhead: traced minus untraced throughput and medians."""
    return {
        "trace.overhead.ops_per_s": traced["ops_per_s"] - untraced["ops_per_s"],
        "trace.overhead.op_p50_ms": traced["op_p50_ms"] - untraced["op_p50_ms"],
        "trace.overhead.rel_p50_ms":
            traced["rel_p50_ms"] - untraced["rel_p50_ms"],
        "trace.overhead.bool_p50_ms":
            traced["bool_p50_ms"] - untraced["bool_p50_ms"],
    }


@dataclass
class Outcome:
    """What a workload returns to ``run.py``."""

    attempted: int
    failed: int
    wrong: int
    metrics: dict[str, float]
    lines: list[str] = field(default_factory=list)


@dataclass
class _Client:
    """One closed-loop client's state across the slices of a window."""

    ops: object
    prefix: str
    index: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    samples: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def run_until(self, deadline: float, number: int, execute, check,
                  recorder, root_name) -> None:
        while time.perf_counter() < deadline:
            op = next(self.ops)
            self.attempted += 1
            error = None
            if recorder is not None:
                with recorder.span(root_name(op),
                                   op=f"{self.prefix}{self.index}"):
                    t0 = time.perf_counter()
                    try:
                        answer = execute(op)
                    except Exception as caught:  # a typed error fails the op
                        error = caught
                    t1 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                try:
                    answer = execute(op)
                except Exception as caught:
                    error = caught
                t1 = time.perf_counter()
            self.index += 1
            if error is not None:
                self.failed += 1
                if len(self.notes) < 5:
                    self.notes.append(
                        f"op {op!r} raised {type(error).__name__}: {error}")
                continue
            try:
                right = check(op, answer)
            except Exception:  # an unreadable answer is a wrong one
                right = False
            if not right:
                self.failed += 1
                self.wrong += 1
                if len(self.notes) < 5:
                    self.notes.append(f"op {op!r} answered wrongly")
                continue
            self.samples.append((number, (t1 - t0) * 1e3, op.kinds))


def measure(streams: list, seconds: float, execute, check, recorder=None,
            root_name=None, prefix: str = "op") -> Window:
    """Closed-loop clients, one per operation stream in ``streams``, for
    ``seconds``.

    Each client sends its next operation when the previous one has
    answered.  ``execute(op)`` performs an operation and returns its
    answer; ``check(op, answer)`` says whether the answer is right; an
    exception or a wrong answer is a failed operation.  Checking happens
    outside the timed region.  The window runs in slices of
    :data:`SLICE_SECONDS`; between slices every client is idle while the
    machine's pace is measured.  With a ``recorder`` each operation is a
    root span named ``root_name(op)`` with operation id
    ``<prefix><client>-<n>``.
    """
    clients = [_Client(iter(ops), f"{prefix}{index}-")
               for index, ops in enumerate(streams)]
    scales: list[float] = []
    gc.collect()  # start every window from the same clean heap
    end = time.perf_counter() + seconds
    pace = host_pace()
    while time.perf_counter() < end:
        deadline = min(end, time.perf_counter() + SLICE_SECONDS)
        number = len(scales)
        arguments = (deadline, number, execute, check, recorder, root_name)
        if len(clients) == 1:
            clients[0].run_until(*arguments)
        else:
            threads = [threading.Thread(target=client.run_until,
                                        args=arguments)
                       for client in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        after = host_pace()
        scales.append(pace_scale(pace, after))
        pace = after
    return Window(
        [sample for client in clients for sample in client.samples], scales,
        sum(c.attempted for c in clients), sum(c.failed for c in clients),
        sum(c.wrong for c in clients), len(clients),
        [note for client in clients for note in client.notes])
