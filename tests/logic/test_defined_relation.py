"""``ModelChecker.defined_relation`` is the one front door for defined
relations: the module-level ``define_relation`` is a one-shot checker
call, so the two must agree on every layout and on every rung, the
checker's memo must key the layout, and the one-shot call must neither
store a memo entry nor switch codegen's row counters on."""

from __future__ import annotations

import pytest

from repro.core.errors import MemoLimitExceeded
from repro.core.governor import Budget
from repro.logic import codegen
from repro.logic.eval import ModelChecker, define_relation
from repro.logic.plan import PlanStats
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import Changeset, random_alternating_graph

#: (backend, optimize) for the four rungs a relation can be answered on.
RUNGS = {
    "columnar": ("columnar", True),
    "plan": ("plan", True),
    "raw-plan": ("plan", False),
    "tuple": ("tuple", True),
}


def _layouts(variables: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The query's own layout, its reverse, and one extra unconstrained
    column."""
    return [variables, tuple(reversed(variables)), variables + ("w",)]


@pytest.mark.parametrize("rung", sorted(RUNGS))
@pytest.mark.parametrize("name", sorted(CANONICAL_QUERIES))
def test_checker_and_module_function_agree_on_every_layout(name, rung):
    backend, optimize = RUNGS[rung]
    query = CANONICAL_QUERIES[name]
    formula = query.formula()
    structure = random_alternating_graph(5, seed=7)
    checker = ModelChecker(structure, backend=backend, optimize=optimize)
    for layout in _layouts(query.variables):
        expected = define_relation(formula, structure, layout,
                                   backend=backend, optimize=optimize)
        assert expected == define_relation(formula, structure, layout,
                                           backend="tuple")
        columns, rows = checker.defined_relation(formula, layout)
        assert columns == layout
        assert rows == expected, f"{name} over {layout} on {rung}"
        if backend != "tuple":
            assert checker.is_memoized(formula, layout)
            assert checker.defined_relation(formula, layout)[1] is rows
        else:
            assert checker.defined_relation(formula, layout)[1] == rows
    # The extra column is unconstrained: every row of the query's
    # relation, paired with every element of the universe.
    base = define_relation(formula, structure, query.variables,
                           backend="tuple")
    widened = checker.defined_relation(formula, query.variables + ("w",))[1]
    assert widened == {row + (w,) for row in base for w in structure.universe}


def test_default_layout_is_the_sorted_free_variables():
    formula = CANONICAL_QUERIES["tc"].formula()
    checker = ModelChecker(random_alternating_graph(5, seed=1),
                           backend="plan")
    columns, rows = checker.defined_relation(formula)
    assert columns == ("u", "v")
    assert checker.is_memoized(formula)
    assert not checker.is_memoized(formula, ("v", "u"))
    assert checker.defined_relation(formula)[1] is rows
    assert checker.defined_relation(formula, ["u", "v"])[1] == rows
    # A list layout keys the same entry as the equal tuple.
    assert checker.is_memoized(formula, ("u", "v"))


def test_updates_maintain_each_layout_against_its_own_plan():
    """``apply_update`` re-optimizes every memo entry with the entry's own
    layout, so a relation cached twice (two column orders) is patched
    correctly in both."""
    formula = CANONICAL_QUERIES["tc"].formula()
    structure = random_alternating_graph(6, seed=2)
    checker = ModelChecker(structure, backend="plan")
    for layout in (("u", "v"), ("v", "u")):
        checker.defined_relation(formula, layout)
    checker.apply_update(Changeset.inserting("E", (0, 5), (5, 1)))
    for layout in (("u", "v"), ("v", "u")):
        assert checker.is_memoized(formula, layout)
        assert checker.defined_relation(formula, layout)[1] == \
            define_relation(formula, checker.structure, layout,
                            backend="tuple")


# ------------------------------------------------- the one-shot wrapper


@pytest.fixture
def fresh_codegen_cache():
    """Compiled plans capture codegen's helper namespace when generated:
    start and end with an empty cache so no test sees another's helpers."""
    codegen.clear_codegen_cache()
    yield
    codegen.clear_codegen_cache()


def _arm_row_counters(monkeypatch) -> None:
    def counted(*_args):
        raise AssertionError("an untracked run reached a row counter")

    for helper in ("_note", "_nb", "_nr", "_nt"):
        monkeypatch.setitem(codegen._BASE_NS, helper, counted)


def test_untracked_columnar_run_never_counts_rows(monkeypatch,
                                                  fresh_codegen_cache):
    """With no stats and no budget, codegen's generated code must skip its
    row counters entirely (``stats=None`` reaches it as ``None``)."""
    _arm_row_counters(monkeypatch)
    structure = random_alternating_graph(8, seed=3)
    for name in ("tc", "apath", "reach"):
        query = CANONICAL_QUERIES[name]
        events: list = []
        rows = define_relation(query.formula(), structure, query.variables,
                               backend="columnar", degradations=events)
        assert not events, f"{name} left the columnar rung: {events}"
        assert rows == define_relation(query.formula(), structure,
                                       query.variables, backend="tuple")


def test_tracked_columnar_run_reaches_the_row_counters(monkeypatch,
                                                       fresh_codegen_cache):
    """The control for the guard above: with stats the counters run, so
    the armed helpers push the query off the columnar rung."""
    _arm_row_counters(monkeypatch)
    query = CANONICAL_QUERIES["tc"]
    events: list = []
    rows = define_relation(query.formula(), random_alternating_graph(8, seed=3),
                           query.variables, backend="columnar",
                           stats=PlanStats(), degradations=events)
    assert ("columnar", "plan") in {(e.stage, e.fallback) for e in events}
    assert rows == define_relation(query.formula(),
                                   random_alternating_graph(8, seed=3),
                                   query.variables, backend="tuple")


@pytest.mark.parametrize("backend", ["plan", "columnar"])
def test_one_shot_call_stores_no_memo_entry(backend):
    query = CANONICAL_QUERIES["apath"]
    structure = random_alternating_graph(6, seed=4)
    rows = define_relation(query.formula(), structure, query.variables,
                           backend=backend,
                           budget=Budget(max_memo_entries=0))
    assert rows == define_relation(query.formula(), structure,
                                   query.variables, backend="tuple")
    # The checker path does store, so the same budget trips there.
    checker = ModelChecker(structure, backend=backend,
                           budget=Budget(max_memo_entries=0))
    with pytest.raises(MemoLimitExceeded):
        checker.defined_relation(query.formula(), query.variables)
