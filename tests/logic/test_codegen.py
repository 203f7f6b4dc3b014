"""Per-plan codegen (P7): compiled columnar closures vs. the interpreter.

The differential corpus in ``test_plan_differential.py`` already proves
row-level agreement four ways; this module pins the codegen *machinery*:
the compile cache and its hit counter, the representation report, the
degradation record on unsupported shapes, governor parity, and the
Session / CLI wiring.
"""

import pytest

from repro.core.engine import Session
from repro.core.errors import ResourceLimitExceeded
from repro.core.governor import Budget
from repro.logic.codegen import (
    MAX_COLUMNAR_UNIVERSE,
    clear_codegen_cache,
    compile_columnar,
    compiled_columnar,
    execute_columnar,
    representation_of,
)
from repro.logic.compile import compile_formula
from repro.logic.eval import LOGIC_BACKENDS, ModelChecker, define_relation
from repro.logic.formula import (
    LFPAtom,
    TCAtom,
    VarTerm,
    and_,
    aux,
    count_at_least,
    neg,
    or_,
    rel,
    var,
)
from repro.logic.optimize import optimize_formula
from repro.logic.plan import ExecutionContext, PlanStats
from repro.structures import path_graph, random_graph

TC = TCAtom(("a",), ("b",), rel("E", "a", "b"), (var("x"),), (var("y"),))


def test_columnar_is_a_registered_backend():
    assert "columnar" in LOGIC_BACKENDS


def test_compiled_source_is_inspectable():
    plan = compile_formula(TC)
    compiled = compile_columnar(plan, 8)
    assert "def _columnar_plan(rt):" in compiled.source
    assert compiled.out_tag == "r"  # two columns -> CSR rows
    rows = compiled.execute(path_graph(8))
    context = ExecutionContext(path_graph(8))
    assert rows == plan.execute(context).rows


def test_codegen_cache_key_is_plan_and_universe():
    clear_codegen_cache()
    plan = compile_formula(TC)
    stats = PlanStats()
    a = compiled_columnar(plan, 8, stats)
    assert stats.codegen_cache_hits == 0
    b = compiled_columnar(plan, 8, stats)
    assert b is a
    assert stats.codegen_cache_hits == 1
    # A different universe size is a different specialization: no sharing.
    assert compiled_columnar(plan, 9, stats) is not a
    assert stats.codegen_cache_hits == 1


def test_representation_report():
    structure = path_graph(6)
    plan = compile_formula(TC)
    stats = PlanStats()
    execute_columnar(plan, structure, stats=stats)
    report = stats.columnar_report
    assert report["universe"] == 6
    assert report["representations"]["csr"] >= 1
    assert report["tuple_fallbacks"] == []


def test_each_checker_reports_its_own_universe():
    # The report lives on the checker's stats, not in a module global, so
    # interleaved checkers over different universes never see each
    # other's report.
    small = ModelChecker(path_graph(5), backend="columnar")
    large = ModelChecker(path_graph(7), backend="columnar")
    small.defined_relation(TC)
    large.defined_relation(TC)
    small.defined_relation(TC)
    assert small.plan_stats.columnar_report["universe"] == 5
    assert large.plan_stats.columnar_report["universe"] == 7


def test_representation_of_by_arity():
    assert representation_of(1) == "bitset"
    assert representation_of(2) == "csr"
    assert representation_of(3) == "tuples"


def test_arity_three_recorded_as_fallback():
    formula = LFPAtom(
        "R3", ("f1", "f2", "f3"),
        or_(and_(rel("E", "f1", "f2"), rel("E", "f2", "f3")),
            aux("R3", "f1", "f2", "f3")),
        (VarTerm("u"), VarTerm("v"), VarTerm("v")))
    structure = path_graph(5)
    plan = compile_formula(formula, ("u", "v"))
    events = []
    stats = PlanStats()
    rows = execute_columnar(plan, structure, stats=stats, degradations=events)
    context = ExecutionContext(structure)
    assert rows == plan.execute(context).rows
    fallbacks = [e for e in events if e.stage == "representation"]
    assert fallbacks and all(e.fallback == "tuple" for e in fallbacks)
    assert stats.columnar_report["tuple_fallbacks"]


def test_universe_cost_gate():
    structure = path_graph(4)
    plan = compile_formula(rel("E", "x", "y"))
    object.__setattr__(structure, "size", MAX_COLUMNAR_UNIVERSE + 1)
    with pytest.raises(ValueError, match="universe"):
        execute_columnar(plan, structure)


def test_governed_codegen_enforces_row_and_round_budgets():
    """The compiled closure checks the same budget dimensions at the same
    choke points as the interpreter: rows materialized and fixpoint
    rounds."""
    structure = random_graph(12, 0.4, seed=2)
    plan = optimize_formula(TC, structure)
    with pytest.raises(ResourceLimitExceeded):
        execute_columnar(plan, structure,
                         governor=Budget(max_rows_materialized=3).start())
    from repro.logic.formula import ZERO, eq, exists
    lfp = LFPAtom(
        "R", ("v",),
        or_(eq(var("v"), ZERO),
            exists("u", and_(aux("R", "u"), rel("E", "u", "v")))),
        (var("x"),))
    with pytest.raises(ResourceLimitExceeded):
        execute_columnar(optimize_formula(lfp, structure), structure,
                         governor=Budget(max_fixpoint_rounds=0).start())


def test_columnar_backend_degrades_to_interpreter_not_wrong_answers():
    """A checker on the columnar backend over an interpreter-only shape
    (arity-3 fixed point) records the representation fallback yet answers
    exactly like the oracle."""
    formula = LFPAtom(
        "R3", ("f1", "f2", "f3"),
        or_(and_(rel("E", "f1", "f2"), rel("E", "f2", "f3")),
            aux("R3", "f1", "f2", "f3")),
        (VarTerm("u"), VarTerm("v"), VarTerm("v")))
    structure = path_graph(5)
    want = define_relation(formula, structure, ("u", "v"), backend="tuple")
    got = define_relation(formula, structure, ("u", "v"), backend="columnar")
    assert got == want


def test_complement_queries_on_columnar_backend():
    """The P7 inductive-counting queries: non-reachability (a bitset
    complement) and the reach-half census (popcount per CSR row)."""
    from repro.logic.queries import CANONICAL_QUERIES
    structure = random_graph(10, 0.2, seed=9)
    for name in ("non-reach", "count-reach"):
        query = CANONICAL_QUERIES[name]
        formula = query.formula()
        assert define_relation(formula, structure, query.variables,
                               backend="columnar") == \
            define_relation(formula, structure, query.variables,
                            backend="tuple")


class TestSessionWiring:
    def test_logic_backend_override(self):
        session = Session(logic_backend="columnar")
        assert session.logic_backend == "columnar"
        structure = path_graph(6)
        rows = session.define_relation(TC, structure, ("x", "y"))
        oracle = Session(backend="reference")
        assert rows == oracle.define_relation(TC, structure, ("x", "y"))

    def test_default_derivation_unchanged(self):
        assert Session().logic_backend == "plan"
        assert Session(backend="reference").logic_backend == "tuple"

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="logic backend"):
            Session(logic_backend="simd")

    def test_evaluate_formula_parity(self):
        structure = random_graph(7, 0.3, seed=4)
        columnar = Session(logic_backend="columnar")
        reference = Session(backend="reference")
        count = count_at_least(2, "y", rel("E", "x", "y"))
        for x in structure.universe:
            assignment = {"x": x}
            assert columnar.evaluate_formula(count, structure, assignment) \
                == reference.evaluate_formula(count, structure, assignment)


def test_checker_memoizes_compiled_relation():
    structure = path_graph(7)
    checker = ModelChecker(structure, backend="columnar")
    checker.evaluate(TC, {"x": 0, "y": 3})
    rows_before = checker.plan_stats.rows_materialized
    checker.evaluate(TC, {"x": 1, "y": 6})
    # Second assignment answered from the cached defined relation: no new
    # plan execution at all.
    assert checker.plan_stats.rows_materialized == rows_before
