"""The nightly fuzz corpus: generated formulas under generated updates.

The frozen 120-formula differential corpus
(``tests/logic/test_plan_differential.py``) pins the backends against
each other on *static* structures.  This module is its open-ended,
update-aware sibling (ROADMAP item 4): a seeded generator draws a
formula from one of three adversarial profiles, a random structure, and
a random single-fact update sequence, then runs the **four-way
differential with maintenance in the loop** — after every update batch,

* four live checkers (columnar / optimized plan / raw plan / tuple),
  each maintaining its own memo through
  :meth:`~repro.logic.eval.ModelChecker.apply_update`, must agree with
* a from-scratch tuple-oracle recompute on a pristine copy of the
  post-update structure,

and the four mutated structures must be equal.  Any divergence prints
the case seed and the exact replay command.

Profiles shape the generator's constructor weights:

``deep-nesting``
    depth 4, quantifiers and connectives favored — stresses plan shape,
    pushdown, and the maintainability analysis' recursion handling.
``counting-heavy``
    ``CountAtLeast`` favored at every level — almost everything lands on
    the recompute fallback; stresses the drop-never-stale path.
``adversarial-negation``
    negation / implication favored — stresses the anti-monotone
    analysis (Difference/AntiJoin right sides) and DRed's boundaries.

Run it directly (the CI ``fuzz-corpus`` job)::

    python -m repro.testing.fuzz --cases 150
    python -m repro.testing.fuzz --seed 912882340   # replay one failure
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.logic.formula import (
    And,
    CountAtLeast,
    DTCAtom,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Implies,
    LFPAtom,
    MAX,
    Not,
    Or,
    TCAtom,
    Term,
    TrueFormula,
    VarTerm,
    ZERO,
    aux,
    eq,
    free_variables_of,
    leq,
    rel,
)
from repro.structures.changeset import Changeset
from repro.structures.graphs import random_alternating_graph
from repro.structures.structure import Structure

__all__ = ["PROFILES", "FuzzFailure", "generate_formula",
           "generate_updates", "run_case", "main"]

#: Profile name -> (depth, constructor weights).  Weights index the
#: generator's constructor table: not, and, or, implies, exists, forall,
#: count, tc, dtc, lfp.
PROFILES: dict[str, tuple[int, tuple[int, ...]]] = {
    "deep-nesting": (4, (1, 3, 3, 2, 4, 3, 1, 1, 1, 2)),
    "counting-heavy": (3, (1, 2, 2, 1, 2, 1, 8, 1, 1, 1)),
    "adversarial-negation": (3, (6, 2, 2, 5, 2, 3, 1, 1, 1, 1)),
}

#: The free variables every generated formula is defined over.
FREE_VARIABLES = ("u", "v")


class FuzzFailure(AssertionError):
    """One divergent case, carrying its replay seed."""

    def __init__(self, seed: int, profile: str, detail: str):
        super().__init__(
            f"fuzz divergence (profile={profile}, seed={seed}): {detail}\n"
            f"replay: python -m repro.testing.fuzz --seed {seed}")
        self.seed = seed
        self.profile = profile


# ----------------------------------------------------------- the generator


class _Generator:
    """The profile-weighted formula generator (a weighted cousin of the
    differential suite's ``FormulaGenerator`` — every constructor is
    reachable under every profile, only the odds differ)."""

    def __init__(self, rng: random.Random, weights: tuple[int, ...]):
        self.rng = rng
        self.weights = weights
        self.fresh = 0

    def fresh_name(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def term(self, scope: tuple[str, ...]) -> Term:
        choices: list[Term] = [ZERO, MAX]
        choices.extend(VarTerm(name) for name in scope)
        choices.extend(VarTerm(name) for name in scope)
        return self.rng.choice(choices)

    def atom(self, scope, aux_stack) -> Formula:
        kind = self.rng.randrange(6 if aux_stack else 5)
        if kind == 0:
            return rel("E", self.term(scope), self.term(scope))
        if kind == 1:
            return rel("A", self.term(scope))
        if kind == 2:
            return eq(self.term(scope), self.term(scope))
        if kind == 3:
            return leq(self.term(scope), self.term(scope))
        if kind == 4:
            return TrueFormula() if self.rng.random() < 0.5 else FalseFormula()
        name, arity = self.rng.choice(aux_stack)
        return aux(name, *(self.term(scope) for _ in range(arity)))

    def formula(self, depth: int, scope: tuple[str, ...],
                aux_stack: tuple[tuple[str, int], ...] = ()) -> Formula:
        if depth <= 0:
            return self.atom(scope, aux_stack)
        kind = self.rng.choices(range(10), weights=self.weights)[0]
        if kind == 0:
            return Not(self.formula(depth - 1, scope, aux_stack))
        if kind == 1:
            return And(tuple(self.formula(depth - 1, scope, aux_stack)
                             for _ in range(2)))
        if kind == 2:
            return Or(tuple(self.formula(depth - 1, scope, aux_stack)
                            for _ in range(2)))
        if kind == 3:
            return Implies(self.formula(depth - 1, scope, aux_stack),
                           self.formula(depth - 1, scope, aux_stack))
        if kind in (4, 5):
            variable = self.fresh_name("q")
            body = self.formula(depth - 1, scope + (variable,), aux_stack)
            return (Exists if kind == 4 else Forall)(variable, body)
        if kind == 6:
            variable = self.fresh_name("q")
            threshold = self.rng.choice([0, 1, 2, "half"])
            body = self.formula(depth - 1, scope + (variable,), aux_stack)
            return CountAtLeast(threshold, variable, body)
        if kind in (7, 8):
            source, target = self.fresh_name("s"), self.fresh_name("t")
            body = self.formula(depth - 1, (source, target), aux_stack)
            operator = TCAtom if kind == 7 else DTCAtom
            return operator((source,), (target,), body,
                            (self.term(scope),), (self.term(scope),))
        relation = self.fresh_name("R")
        arity = self.rng.choice((1, 2))
        variables = tuple(self.fresh_name("f") for _ in range(arity))
        body = self.formula(depth - 1, variables,
                            aux_stack + ((relation, arity),))
        terms = tuple(self.term(scope) for _ in range(arity))
        return LFPAtom(relation, variables, body, terms)


def generate_formula(seed: int, profile: str) -> Formula:
    """The case's formula: deterministic in ``(seed, profile)``.  Depth
    varies up to the profile's maximum so the corpus also draws shallow
    monotone formulas — the ones the maintenance layer patches with the
    delta/closure/fixpoint strategies rather than the recompute fallback."""
    max_depth, weights = PROFILES[profile]
    rng = random.Random(seed)
    generator = _Generator(rng, weights)
    return generator.formula(rng.randrange(1, max_depth + 1), FREE_VARIABLES)


def generate_updates(seed: int, size: int,
                     batches: int = 3) -> list[Changeset]:
    """A deterministic sequence of update batches over ``E`` (binary) and
    ``A`` (unary), mixing inserts, deletes, no-ops (deleting absent
    facts), and same-batch insert/delete cancellations."""
    rng = random.Random(seed ^ 0x5EED)
    sequence = []
    for _ in range(batches):
        changes = []
        for _ in range(rng.randrange(1, 4)):
            op = rng.choice(["insert", "delete"])
            if rng.random() < 0.3:
                changes.append((op, "A", (rng.randrange(size),)))
            else:
                changes.append((op, "E", (rng.randrange(size),
                                          rng.randrange(size))))
        if len(changes) > 1 and rng.random() < 0.25:
            op, name, row = changes[0]
            changes.append(("delete" if op == "insert" else "insert",
                            name, row))
        sequence.append(Changeset.from_json(
            [[op, name, list(row)] for op, name, row in changes]))
    return sequence


# ------------------------------------------------------------ the harness


def _copy(structure: Structure) -> Structure:
    return Structure(structure.vocabulary, structure.size,
                     dict(structure.relations), intern=structure.intern)


def run_case(seed: int, profile: str | None = None,
             size: int | None = None) -> dict[str, int]:
    """One fuzz case; raises :class:`FuzzFailure` on any divergence.
    Returns the merged per-strategy maintenance counters (so sweeps can
    report which strategies the corpus actually exercised)."""
    from repro.logic.eval import ModelChecker, define_relation

    rng = random.Random(seed)
    if profile is None:
        profile = rng.choice(sorted(PROFILES))
    if size is None:
        size = rng.randrange(3, 6)
    formula = generate_formula(seed, profile)
    base = random_alternating_graph(size, seed=seed)
    layout = tuple(sorted(free_variables_of(formula)))

    checkers = {
        "columnar": ModelChecker(_copy(base), backend="columnar"),
        "optimized": ModelChecker(_copy(base), backend="plan"),
        "raw": ModelChecker(_copy(base), backend="plan", optimize=False),
        "tuple": ModelChecker(_copy(base), backend="tuple"),
    }
    for checker in checkers.values():
        checker.defined_relation(formula, layout)  # prime the memo

    exercised: dict[str, int] = {}
    for step, changeset in enumerate(generate_updates(seed, size)):
        for checker in checkers.values():
            checker.apply_update(Changeset(changeset.changes))
        reference = checkers["tuple"].structure
        for name, checker in checkers.items():
            if checker.structure != reference:
                raise FuzzFailure(
                    seed, profile,
                    f"step {step}: {name} structure diverged after "
                    f"{changeset!r}")
        oracle = define_relation(formula, _copy(reference), layout,
                                 backend="tuple")
        for name, checker in checkers.items():
            _columns, rows = checker.defined_relation(formula, layout)
            if rows != oracle:
                raise FuzzFailure(
                    seed, profile,
                    f"step {step}: {name} relation diverged from the "
                    f"recompute oracle after {changeset!r}")
        for checker in checkers.values():
            for strategy, count in checker.ivm_stats.items():
                exercised[strategy] = exercised.get(strategy, 0) + count
            checker.ivm_stats.clear()
    return exercised


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Fuzz the four logic backends under random formulas "
                    "and random update sequences.")
    parser.add_argument("--cases", type=int, default=50,
                        help="number of cases to run (default: 50)")
    parser.add_argument("--seed", type=int, default=None,
                        help="replay exactly one case by its printed seed")
    parser.add_argument("--base-seed", type=int, default=None,
                        help="first seed of the sweep (default: random, "
                             "printed so the whole run is replayable)")
    parser.add_argument("--profile", choices=sorted(PROFILES), default=None,
                        help="pin every case to one profile (default: the "
                             "case seed picks)")
    args = parser.parse_args(argv)

    if args.seed is not None:
        try:
            exercised = run_case(args.seed, profile=args.profile)
        except FuzzFailure as failure:
            print(failure, file=sys.stderr)
            return 1
        print(f"seed {args.seed}: OK (maintenance: {exercised or 'none'})")
        return 0

    base = args.base_seed if args.base_seed is not None \
        else random.SystemRandom().randrange(2 ** 31)
    print(f"fuzz sweep: {args.cases} cases from base seed {base} "
          f"(replay the sweep with --base-seed {base})")
    exercised: dict[str, int] = {}
    # Ctrl-C / SIGTERM between cases ends the sweep as a typed exit 3
    # with the partial tally, not a KeyboardInterrupt traceback.
    from repro.core.governor import CancelToken, cancel_on_signals

    token = CancelToken()
    with cancel_on_signals(token):
        for index in range(args.cases):
            if token.cancelled:
                summary = ", ".join(
                    f"{name}={count}"
                    for name, count in sorted(exercised.items()))
                print(f"fuzz sweep cancelled after {index} of "
                      f"{args.cases} cases (maintenance exercised: "
                      f"{summary or 'none'})", file=sys.stderr)
                return 3
            seed = base + index
            try:
                for strategy, count in run_case(
                        seed, profile=args.profile).items():
                    exercised[strategy] = exercised.get(strategy, 0) + count
            except FuzzFailure as failure:
                print(failure, file=sys.stderr)
                return 1
    summary = ", ".join(f"{name}={count}"
                        for name, count in sorted(exercised.items()))
    print(f"fuzz sweep: {args.cases} cases OK "
          f"(maintenance exercised: {summary or 'none'})")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
