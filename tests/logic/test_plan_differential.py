"""The plan / tuple differential suite (PR 4 acceptance, extended by the
PR 5 optimizer and the P7 columnar backend).

The set-at-a-time plan backend must be *observationally identical* to the
tuple-at-a-time enumeration it bypasses — the optimized plan to the raw
compiled plan it rewrites — and the columnar codegen backend to all of
them.  Two layers of evidence:

* every canonical Figure-1 query (the :data:`CANONICAL_QUERIES` registry:
  TC, DTC, the APATH/GAP fixed points, the counting queries, the
  complement queries) over seeded random structures, checked end-to-end
  through ``define_relation`` and ``evaluate`` on every backend;

* a hypothesis-style random formula generator — seeded, bounded depth,
  exercising **every** formula constructor (atoms over both relation
  symbols, constants, =, <=, ~, /\\, \\/, ->, exists, forall, counting
  quantifiers, TC, DTC, LFP with auxiliary references, and nesting of all
  of the above) — driving well over 100 ``(formula, structure)``
  instances run **four ways**: columnar codegen, optimizer-on plan,
  optimizer-off plan, and the tuple oracle.  All four defined relations
  must agree exactly, and the optimized execution must materialize no
  more rows than the raw plan (the optimizer's whole point, pinned as an
  invariant).  Governed (budget-limited) instances must, on every
  backend, either match the oracle or raise a clean
  :class:`ResourceLimitExceeded` — never a wrong answer.

The generator only produces well-formed formulas (fixed-point bodies
closed over their bound variables, matching arities), which is precisely
the fragment both backends define; everything else is a compile error by
design (see ``test_plan.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.logic.eval import ModelChecker, define_relation
from repro.logic.plan import PlanStats
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
    leq,
    rel,
)
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import random_alternating_graph

#: The top-level free variables every generated formula is defined over.
FREE_VARIABLES = ("u", "v")


# ------------------------------------------------- canonical query suite


@pytest.mark.parametrize("name", sorted(CANONICAL_QUERIES))
@pytest.mark.parametrize("size,seed", [(4, 0), (5, 1), (6, 2)])
def test_canonical_queries_agree(name, size, seed):
    query = CANONICAL_QUERIES[name]
    structure = random_alternating_graph(size, seed=seed)
    formula = query.formula()
    events = []
    columnar = define_relation(formula, structure, query.variables,
                               backend="columnar", optimize=True,
                               degradations=events)
    optimized = define_relation(formula, structure, query.variables,
                                backend="plan", optimize=True)
    raw = define_relation(formula, structure, query.variables,
                          backend="plan", optimize=False)
    slow = define_relation(formula, structure, query.variables,
                           backend="tuple")
    assert columnar == optimized == raw == slow
    # The canonical queries are all bitset/CSR-representable: the columnar
    # rung must have answered, not silently degraded to the interpreter.
    assert not [e for e in events if e.stage == "columnar"]


@pytest.mark.parametrize("name", sorted(CANONICAL_QUERIES))
def test_canonical_queries_agree_via_model_checker(name):
    query = CANONICAL_QUERIES[name]
    structure = random_alternating_graph(5, seed=7)
    formula = query.formula()
    assignment = dict(zip(query.variables, (0, structure.size - 1)))
    fast = ModelChecker(structure, backend="plan").evaluate(formula, assignment)
    cols = ModelChecker(structure, backend="columnar").evaluate(formula,
                                                               assignment)
    slow = ModelChecker(structure, backend="tuple").evaluate(formula, assignment)
    assert fast == cols == slow


# -------------------------------------------- the random formula generator


class FormulaGenerator:
    """A seeded random generator covering every formula constructor.

    ``scope`` is the tuple of first-order variables an atom may mention
    (so generated formulas never evaluate an unassigned variable), and
    ``aux_stack`` the fixed-point relations (name, arity) in scope for
    :func:`aux` atoms — mirroring exactly what the tuple evaluator's
    mutate-and-restore auxiliary handling permits.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.fresh = 0

    def fresh_name(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def term(self, scope: tuple[str, ...]) -> Term:
        choices: list[Term] = [ZERO, MAX]
        choices.extend(VarTerm(name) for name in scope)
        # Weight towards variables so atoms actually constrain the scope.
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
        kind = self.rng.randrange(10)
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
            # TC / DTC over 1-tuples: the body closes over exactly the two
            # bound variables (plus any auxiliary relations in scope).
            source, target = self.fresh_name("s"), self.fresh_name("t")
            body = self.formula(depth - 1, (source, target), aux_stack)
            operator = TCAtom if kind == 7 else DTCAtom
            return operator((source,), (target,), body,
                            (self.term(scope),), (self.term(scope),))
        # LFP: the body closes over the fixed-point variables and may
        # reference this (and any enclosing) fixed-point relation.
        relation = self.fresh_name("R")
        arity = self.rng.choice((1, 2))
        variables = tuple(self.fresh_name("f") for _ in range(arity))
        body = self.formula(depth - 1, variables,
                            aux_stack + ((relation, arity),))
        terms = tuple(self.term(scope) for _ in range(arity))
        return LFPAtom(relation, variables, body, terms)


#: 40 seeds x 3 sizes = 120 generated (formula, structure) instances.
GENERATOR_SEEDS = range(40)
GENERATOR_SIZES = (3, 4, 5)


@pytest.mark.parametrize("size", GENERATOR_SIZES)
@pytest.mark.parametrize("seed", GENERATOR_SEEDS)
def test_generated_formulas_agree(size, seed):
    """Four-way differential: columnar codegen == optimized plan == raw
    plan == tuple oracle, and the optimizer never materializes more rows
    than the raw plan."""
    generator = FormulaGenerator(seed)
    formula = generator.formula(depth=3, scope=FREE_VARIABLES)
    structure = random_alternating_graph(size, seed=seed)
    optimized_stats, raw_stats = PlanStats(), PlanStats()
    columnar = define_relation(formula, structure, FREE_VARIABLES,
                               backend="columnar", optimize=True)
    optimized = define_relation(formula, structure, FREE_VARIABLES,
                                backend="plan", optimize=True,
                                stats=optimized_stats)
    raw = define_relation(formula, structure, FREE_VARIABLES,
                          backend="plan", optimize=False, stats=raw_stats)
    slow = define_relation(formula, structure, FREE_VARIABLES, backend="tuple")
    assert columnar == optimized == raw == slow, \
        f"backend divergence on seed={seed}:\n{formula}"
    assert optimized_stats.rows_materialized <= raw_stats.rows_materialized, \
        f"optimizer materialized more rows on seed={seed}:\n{formula}"


@pytest.mark.parametrize("seed", range(10))
def test_generated_formulas_agree_under_naive_kernels(seed):
    """``seminaive=False`` switches the tuple oracle to its naive
    re-derive-everything kernels; the plan and columnar backends ignore
    the flag (one fixed-point loop each), so every backend, optimized or
    raw, still defines the same relation under either setting."""
    generator = FormulaGenerator(seed)
    formula = generator.formula(depth=3, scope=FREE_VARIABLES)
    structure = random_alternating_graph(4, seed=seed)
    results = {
        define_relation(formula, structure, FREE_VARIABLES,
                        backend=backend, seminaive=seminaive,
                        optimize=optimize)
        for backend in ("plan", "columnar", "tuple")
        for seminaive in (True, False)
        for optimize in (True, False)
    }
    assert len(results) == 1


@pytest.mark.parametrize("seed", range(8))
def test_generated_sentences_agree_pointwise(seed):
    """Spot-check ``evaluate`` (membership through the compiled relation)
    against the oracle on explicit assignments."""
    generator = FormulaGenerator(100 + seed)
    formula = generator.formula(depth=2, scope=FREE_VARIABLES)
    structure = random_alternating_graph(5, seed=seed)
    fast = ModelChecker(structure, backend="plan")
    cols = ModelChecker(structure, backend="columnar")
    slow = ModelChecker(structure, backend="tuple")
    for u in structure.universe:
        for v in (0, structure.size - 1):
            assignment = {"u": u, "v": v}
            assert fast.evaluate(formula, assignment) == \
                cols.evaluate(formula, assignment) == \
                slow.evaluate(formula, assignment)


# ------------------------------------- columnar fallback and governed runs


@pytest.mark.parametrize("seed", range(6))
def test_arity_three_fixpoints_fall_back_to_tuple_representation(seed):
    """An arity-3 LFP has no bitset/CSR representation: the codegen keeps
    those relations as tuple sets (recording the fallback) and must still
    agree with every other backend."""
    generator = FormulaGenerator(200 + seed)
    body_atom = generator.formula(depth=1, scope=("f1", "f2", "f3"),
                                  aux_stack=(("R3", 3),))
    formula = LFPAtom(
        "R3", ("f1", "f2", "f3"),
        Or((And((rel("E", "f1", "f2"), rel("E", "f2", "f3"))), body_atom)),
        (VarTerm("u"), VarTerm("v"), VarTerm("v")))
    structure = random_alternating_graph(4, seed=seed)
    columnar = define_relation(formula, structure, FREE_VARIABLES,
                               backend="columnar")
    optimized = define_relation(formula, structure, FREE_VARIABLES,
                                backend="plan", optimize=True)
    raw = define_relation(formula, structure, FREE_VARIABLES,
                          backend="plan", optimize=False)
    slow = define_relation(formula, structure, FREE_VARIABLES, backend="tuple")
    assert columnar == optimized == raw == slow


@pytest.mark.parametrize("max_rows", [1, 10, 100, 100_000])
@pytest.mark.parametrize("seed", range(6))
def test_governed_runs_agree_or_fail_cleanly(seed, max_rows):
    """Budget-limited four-way contract: on every backend a governed run
    either matches the (ungoverned) oracle or raises a clean
    :class:`ResourceLimitExceeded` — never a wrong answer."""
    from repro.core.errors import ResourceLimitExceeded
    from repro.core.governor import Budget

    generator = FormulaGenerator(300 + seed)
    formula = generator.formula(depth=3, scope=FREE_VARIABLES)
    structure = random_alternating_graph(4, seed=seed)
    oracle = define_relation(formula, structure, FREE_VARIABLES,
                             backend="tuple")
    for backend in ("columnar", "plan", "tuple"):
        for optimize in (True, False):
            try:
                got = define_relation(
                    formula, structure, FREE_VARIABLES, backend=backend,
                    optimize=optimize,
                    budget=Budget(max_rows_materialized=max_rows))
            except ResourceLimitExceeded:
                continue
            assert got == oracle, \
                f"governed {backend} diverged on seed={seed}:\n{formula}"
