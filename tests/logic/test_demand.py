"""The optimizer's demand-driven rewrites.

Two rewrites, both firing only on a constant pin (``0`` or ``max``):

* **seeded closure** (plan pass ``demand``): ``Select[$0 = c]`` or
  ``Select[$1 = c]`` over a k=1 ``Closure`` becomes a ``SeededClosure`` —
  one BFS from ``c`` on every executor;
* **LFP arity reduction** (formula rewrite ``optimize.formula.demand``):
  a constant argument meeting an *invariant* fixed-point variable is
  dropped, so ``gap`` and ``agap`` run as unary fixed points.

Evidence here: a seeded corpus of APATH-shaped invariant-argument LFPs
(plus the negative shapes where the rewrite must not fire) checked four
ways — columnar, optimized plan, raw plan, tuple oracle — at the dense
and at the chunked width; the rewrites pinned in ``--explain`` and in the
IVM verdicts; the optimized plans of the relation queries pinned to
their pre-rewrite shape (``relation_plans.json``); and the chunked
interpreter's unary-against-CSR join checked by payload kind.

Regenerate ``relation_plans.json`` (only when an optimizer change is
*meant* to change those plans) with
``PYTHONPATH=src python tests/logic/test_demand.py --write-golden``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.logic import chunked, codegen
from repro.logic.eval import define_relation
from repro.logic.formula import (
    MAX,
    ZERO,
    DTCAtom,
    LFPAtom,
    TCAtom,
    VarTerm,
    and_,
    aux,
    eq,
    exists,
    forall,
    implies,
    or_,
    rel,
    var,
)
from repro.logic.optimize import (
    _demand_formula,
    maintenance_strategy,
    optimize_formula,
)
from repro.logic.plan import (
    Closure,
    Fixpoint,
    JoinProject,
    RelationScan,
    SeededClosure,
)
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import (
    alternating_graph_structure,
    graph_structure,
    random_alternating_graph,
)
from repro.structures.zoo import sparse_graph

from test_plan_differential import FormulaGenerator

FREE = ("u", "v")
GOLDEN = Path(__file__).with_name("relation_plans.json")
RELATION_QUERIES = ("tc", "dtc", "apath", "non-reach", "count-reach",
                    "half-out")


@pytest.fixture(params=["dense", "chunked"])
def width(request, monkeypatch):
    """Run the columnar backend at the dense width (generated code) or,
    with the threshold patched down, on the chunked interpreter."""
    if request.param == "chunked":
        monkeypatch.setattr(codegen, "DENSE_WIDTH_THRESHOLD", 2)
    return request.param


def _four_ways(formula, structure, variables=FREE):
    """columnar == optimized plan == raw plan == tuple oracle."""
    columnar = define_relation(formula, structure, variables,
                               backend="columnar")
    optimized = define_relation(formula, structure, variables,
                                backend="plan")
    raw = define_relation(formula, structure, variables, backend="plan",
                          optimize=False)
    oracle = define_relation(formula, structure, variables,
                             backend="tuple")
    assert columnar == optimized == raw == oracle, str(formula)
    return oracle


# ------------------------------------------------ the formula rewrite


def _lfp_of(formula):
    assert isinstance(formula, LFPAtom), formula
    return formula


def test_gap_and_agap_become_unary_fixed_points():
    for name in ("gap", "agap"):
        rewritten = _lfp_of(_demand_formula(CANONICAL_QUERIES[name].formula()))
        assert rewritten.variables == ("x",)
        assert rewritten.terms == (ZERO,)
        assert rewritten.relation == "R[y=max]"


def test_rewrite_is_identity_without_a_constant_pin():
    for name in RELATION_QUERIES:
        formula = CANONICAL_QUERIES[name].formula()
        assert _demand_formula(formula) is formula


def _apath_body(recursive_atom, guard=None):
    x, z = "x", "z"
    step = exists(z, and_(rel("E", x, z), recursive_atom))
    return or_(eq(x, "y"), step if guard is None else and_(step, guard))


NEGATIVE = {
    # R(y, z) instead of R(z, y): y moves, it is not invariant.
    "swapped": _apath_body(aux("R", "y", "z")),
    # An inner exists rebinds y: substituting it would capture.
    "exists-rebinds": _apath_body(aux("R", "z", "y"),
                                  exists("y", rel("E", "x", "y"))),
    # A nested LFP rebinds y in its own (closed) body: "x reaches an
    # A-vertex", which y := max would turn into "max reaches one".
    "lfp-rebinds": _apath_body(aux("R", "z", "y"), LFPAtom(
        "S", ("y",), or_(rel("A", "y"),
                         exists("w", and_(rel("E", "y", "w"),
                                          aux("S", "w")))),
        (var("x"),))),
    # A nested TC rebinds y as its target variable.
    "tc-rebinds": _apath_body(aux("R", "z", "y"), TCAtom(
        ("x",), ("y",), rel("E", "x", "y"), (var("x"),), (MAX,))),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE))
def test_rewrite_refuses_non_invariant_arguments(case, width):
    formula = LFPAtom("R", ("x", "y"), NEGATIVE[case], (ZERO, MAX))
    assert _demand_formula(formula) is formula
    for seed in range(6):
        _four_ways(formula, random_alternating_graph(6, seed=seed), ())


def test_rewrite_refuses_a_nested_lfp_over_the_same_relation():
    inner = LFPAtom("R", ("x",), or_(eq("x", MAX), aux("R", "x")),
                    (var("y"),))
    formula = LFPAtom("R", ("x", "y"), or_(inner, aux("R", "x", "y")),
                      (ZERO, MAX))
    assert _demand_formula(formula) is formula


def test_rewrite_fires_inside_nested_formulas_and_picks_a_fresh_name():
    # The body already mentions an auxiliary named like the fresh relation.
    body = or_(eq("x", "y"),
               exists("z", and_(rel("E", "x", "z"), aux("R", "z", "y"),
                                aux("R[y=max]", "x"))))
    lfp = LFPAtom("R", ("x", "y"), body, (var("u"), MAX))
    formula = and_(rel("A", "v"), exists("w", and_(eq("w", "u"), lfp)))
    rewritten = _demand_formula(formula)
    assert rewritten is not formula
    inner = rewritten.conjuncts[1].body.conjuncts[1]
    assert inner.relation == "R[y=max]'" and inner.variables == ("x",)
    structure = random_alternating_graph(5, seed=2)
    _four_ways(formula, structure, FREE)


# ------------------------------- the seeded invariant-argument corpus


class InvariantLFPGenerator(FormulaGenerator):
    """APATH-shaped LFP templates over arity 2–3 with random sub-bodies:
    ``base ∨ (∃z (E(x, z) ∧ R(z, ȳ)) ∧ guard)``, where ``ȳ`` — every
    variable but ``x`` — passes through unchanged, so each of them is
    invariant.  The sub-bodies come from the differential generator (no
    auxiliary atoms, fresh bound names), and the arguments mix ``0`` /
    ``max`` pins with the free variables ``u`` / ``v``."""

    def lfp(self) -> LFPAtom:
        rng = self.rng
        arity = rng.choice((2, 3))
        variables = ("x", "y", "w")[:arity]
        rest = variables[1:]
        recursive = aux("R", "z", *rest)
        base = or_(eq("x", rng.choice(rest)),
                   self.formula(1, variables))
        kind = rng.randrange(3)
        if kind == 0:    # APATH: the universal step for A-vertices
            guard = implies(rel("A", "x"),
                            forall("z", implies(rel("E", "x", "z"),
                                                recursive)))
        elif kind == 1:  # a random guard over the fixed-point variables
            guard = self.formula(2, variables)
        else:            # plain GAP-style step
            guard = None
        step = exists("z", and_(rel("E", "x", "z"), recursive))
        body = or_(base, step if guard is None else and_(step, guard))
        pins = [rng.choice((ZERO, MAX))] + [
            rng.choice((ZERO, MAX, VarTerm("u"), VarTerm("v")))
            for _ in rest]
        if all(isinstance(term, VarTerm) for term in pins[1:]):
            pins[rng.randrange(1, arity)] = rng.choice((ZERO, MAX))
        if rng.random() < 0.3:
            pins[0] = VarTerm(rng.choice(FREE))
        return LFPAtom("R", variables, body, tuple(pins))


@pytest.mark.parametrize("seed", range(24))
def test_invariant_argument_corpus(seed, width):
    formula = InvariantLFPGenerator(seed).lfp()
    rewritten = _lfp_of(_demand_formula(formula))
    assert len(rewritten.variables) < len(formula.variables), formula
    for size in (1, 4, 6):
        _four_ways(formula, random_alternating_graph(size, seed=seed))


@pytest.mark.parametrize("seed", range(6))
def test_arity_zero_reduction(seed, width):
    """Every argument pinned and invariant: the fixed point shrinks to a
    0-ary relation (a boolean stage)."""
    body = or_(rel("A", "x"), exists("z", and_(rel("E", "z", "x"),
                                               aux("R", "x"))))
    formula = LFPAtom("R", ("x",), body, (MAX,))
    assert _lfp_of(_demand_formula(formula)).variables == ()
    _four_ways(formula, random_alternating_graph(5, seed=seed), ())


# ---------------------------------------------------- the plan rewrite


def _nodes(plan):
    yield plan
    for child in plan.children():
        yield from _nodes(child)


def _seeded(plan):
    return [node for node in _nodes(plan) if isinstance(node, SeededClosure)]


@pytest.mark.parametrize("name,deterministic", [("reach", False),
                                                ("dreach", True)])
def test_pinned_closure_becomes_one_seeded_bfs(name, deterministic):
    query = CANONICAL_QUERIES[name]
    plan = optimize_formula(query.formula(), random_alternating_graph(6),
                            query.variables)
    [seeded] = _seeded(plan)
    assert (seeded.endpoint, seeded.constant.which,
            seeded.deterministic) == (0, "zero", deterministic)
    assert not [node for node in _nodes(plan) if isinstance(node, Closure)]


@pytest.mark.parametrize("operator", [TCAtom, DTCAtom])
@pytest.mark.parametrize("pin", [ZERO, MAX])
def test_pinned_target_seeds_a_backward_bfs(operator, pin, width):
    formula = operator(("x",), ("y",), rel("E", "x", "y"),
                       (var("u"),), (pin,))
    plan = optimize_formula(formula, random_alternating_graph(6), ("u",))
    [seeded] = _seeded(plan)
    assert seeded.endpoint == 1 and seeded.constant.which == pin.which
    edge_sets = ([], [(0, 0)], [(0, 1), (1, 0)], [(1, 2), (2, 3)],
                 [(0, 1), (0, 2), (2, 3), (1, 3)])
    for edges in edge_sets:
        _four_ways(formula, graph_structure(4, edges), ("u",))
    for seed in range(4):
        _four_ways(formula, random_alternating_graph(7, seed=seed), ("u",))


def test_k2_closures_are_left_alone():
    formula = TCAtom(("a", "b"), ("c", "d"),
                     and_(rel("E", "a", "c"), rel("E", "b", "d")),
                     (ZERO, ZERO), (MAX, MAX))
    plan = optimize_formula(formula, random_alternating_graph(4), ())
    assert not _seeded(plan)
    _four_ways(formula, random_alternating_graph(4, seed=1), ())


@pytest.mark.parametrize("name", ["reach", "dreach", "gap", "agap"])
def test_sentences_agree_on_edge_cases(name, width):
    query = CANONICAL_QUERIES[name]
    for size, edges in ((1, []), (1, [(0, 0)]), (4, []), (4, [(0, 0)]),
                        (4, [(0, 1), (1, 0)]), (4, [(0, 1), (1, 2), (2, 3)]),
                        (4, [(0, 1), (0, 2), (2, 3)])):
        for universal in ((), (0,), (0, 2)):
            structure = alternating_graph_structure(size, edges, [
                vertex for vertex in universal if vertex < size])
            _four_ways(query.formula(), structure, ())


# --------------------------------------------- pinned in explain / IVM


@pytest.mark.parametrize("name,shape", [
    ("reach", "SeededClosure[TC, $0 = 0]"),
    ("dreach", "SeededClosure[DTC, $0 = 0]"),
    ("gap", "Fixpoint R[y=max](x) [delta]"),
    ("agap", "Fixpoint R[y=max](x) [delta]"),
])
def test_explain_shows_the_rewrite(name, shape, tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"D": [0, 1, 2, 3], "A": [1],
                                "E": [[0, 1], [1, 2], [2, 3]]}))
    assert main(["logic", name, "--structure", str(path), "--explain"]) == 0
    explained = capsys.readouterr().out
    optimized = explained[explained.index("optimized plan:"):]
    assert shape in optimized
    assert "Closure[" not in optimized.replace("SeededClosure[", "")


def _golden_plans() -> dict:
    structures = {"alternating-8": random_alternating_graph(8, seed=1),
                  "sparse-64": sparse_graph(64, 3, 0)}
    return {f"{name}@{label}": optimize_formula(
                CANONICAL_QUERIES[name].formula(), structure,
                CANONICAL_QUERIES[name].variables).explain().splitlines()
            for label, structure in structures.items()
            for name in RELATION_QUERIES}


def test_relation_query_plans_are_unchanged():
    """No constant pin, no demand: the optimized plans of the relation
    queries are exactly what the optimizer produced before the demand
    rewrites existed."""
    assert _golden_plans() == json.loads(GOLDEN.read_text())


NO_DERIVATIVE = "no derivative in E (recursive or counting construct)"


@pytest.mark.parametrize("name,reason", [
    ("reach", NO_DERIVATIVE),
    ("dreach", "plan non-monotone in E"),
    ("gap", NO_DERIVATIVE),
    ("agap", "plan non-monotone in E"),
])
def test_maintenance_of_rewritten_sentences_recomputes(name, reason):
    """A seeded closure is never mistaken for a full one: the IVM verdict
    on the rewritten plans is exactly the recompute it was before the
    demand rewrites."""
    query = CANONICAL_QUERIES[name]
    plan = optimize_formula(query.formula(), random_alternating_graph(6))
    verdict = maintenance_strategy(plan, frozenset({"E"}))
    assert (verdict.strategy, verdict.reason) == ("recompute", reason)


# ---------------------------- chunked: unary bitset joined with a CSR


def _interpreter(structure):
    return chunked._Interpreter(structure, {}, None, None)


@pytest.mark.parametrize("orientation", ["image", "pre-image"])
@pytest.mark.parametrize("binary_left", [True, False])
def test_chunked_unary_join_keeps_the_bitset_kind(orientation, binary_left,
                                                  monkeypatch):
    structure = random_alternating_graph(9, seed=4)
    edges = RelationScan("E", ("z", "x") if orientation == "image"
                         else ("x", "z"))
    marks = RelationScan("A", ("z",))
    left, right = (edges, marks) if binary_left else (marks, edges)
    plan = JoinProject(left, right, ("x",))

    def no_tuples(self):
        raise AssertionError(f"tuple rows of a {self.kind!r} payload")

    monkeypatch.setattr(chunked._Rel, "rows", no_tuples)
    rel = _interpreter(structure).eval(plan)
    assert rel.kind == "b"
    monkeypatch.undo()
    expected = {(x,) for (x, z) in
                ((row[1], row[0]) if orientation == "image" else row
                 for row in structure.relation("E"))
                if (z,) in structure.relation("A")}
    assert rel.rows() == expected


def test_chunked_unary_gap_fixpoint_never_tuples_the_edges(monkeypatch):
    """The unary ``gap`` fixpoint past the dense width: every round's join
    is a pre-image over the cached transposed CSR, not a tuple hash join."""
    monkeypatch.setattr(codegen, "DENSE_WIDTH_THRESHOLD", 2)
    structure = sparse_graph(40, 2, 3)
    query = CANONICAL_QUERIES["gap"]
    plan = optimize_formula(query.formula(), structure)
    assert isinstance(plan.children()[0].children()[0], Fixpoint)
    tupled = []
    original = chunked._Rel.rows

    def counting(self):
        if self.kind in ("c", "s"):
            tupled.append(self.kind)
        return original(self)

    monkeypatch.setattr(chunked._Rel, "rows", counting)
    got = chunked.execute_chunked(plan, structure)
    assert tupled == []
    monkeypatch.undo()
    assert got == define_relation(query.formula(), structure, (),
                                  backend="tuple")


if __name__ == "__main__" and "--write-golden" in sys.argv:
    GOLDEN.write_text(json.dumps(_golden_plans(), indent=1, sort_keys=True)
                      + "\n")
