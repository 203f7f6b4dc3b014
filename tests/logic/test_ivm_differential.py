"""The IVM differential suite (P8 acceptance): after every update, each
maintained relation must equal a from-scratch recompute on the tuple
backend — across all four backends (columnar, optimized plan, raw plan,
tuple), over both the canonical queries and the seeded fuzz corpus.

The tier-1 slice pins a small seed range of :func:`repro.testing.fuzz.
run_case` (the same harness the nightly ``fuzz-corpus`` CI job sweeps at
scale) plus directed update sequences on the closure / fixpoint / delta
strategies.  The ``slow`` marker holds the wider sweep.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.logic.eval import ModelChecker, define_relation
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import Change, Changeset, Structure, random_alternating_graph
from repro.testing.fuzz import PROFILES, generate_updates, run_case

BACKENDS = ("columnar", "plan", "tuple")


def copy_structure(structure):
    return Structure(structure.vocabulary, structure.size,
                     dict(structure.relations), intern=structure.intern)


def normalized(columns, rows, layout):
    positions = [columns.index(c) for c in layout]
    return {tuple(row[p] for p in positions) for row in rows}


def random_changesets(rng, size, steps):
    for _ in range(steps):
        ops = []
        for _ in range(rng.randrange(1, 4)):
            op = rng.choice(["insert", "delete"])
            row = (rng.randrange(size), rng.randrange(size))
            ops.append(Change(op, "E", row))
        yield Changeset(tuple(ops))


# ------------------------------------------------ directed per-strategy runs


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["tc", "apath", "half-out",
                                  "reach", "gap", "agap"])
@pytest.mark.parametrize("seed", range(4))
def test_canonical_queries_survive_update_sequences(name, backend, seed):
    """tc exercises the closure patch, apath the recompute fallback,
    half-out the counting drop, and reach/gap/agap the demand-rewritten
    plans (a seeded closure, unary fixed points) — on every backend,
    against the oracle."""
    query = CANONICAL_QUERIES[name]
    structure = random_alternating_graph(5, seed=seed)
    checker = ModelChecker(structure, backend=backend)
    checker.defined_relation(query.formula())
    rng = random.Random(1000 + seed)
    for changeset in random_changesets(rng, structure.size, steps=5):
        checker.apply_update(changeset)
        expected = define_relation(query.formula(),
                                   copy_structure(structure),
                                   query.variables, backend="tuple")
        columns, rows = checker.defined_relation(query.formula())
        assert normalized(columns, rows, query.variables) == expected, \
            f"{name}/{backend} diverged at seed {seed}: {changeset!r}"


@pytest.mark.parametrize("seed", range(4))
def test_lfp_fixpoint_maintenance_differential(seed):
    from test_ivm import lfp_tc

    structure = random_alternating_graph(6, seed=seed)
    checker = ModelChecker(structure, backend="plan")
    checker.defined_relation(lfp_tc())
    rng = random.Random(2000 + seed)
    for changeset in random_changesets(rng, structure.size, steps=5):
        checker.apply_update(changeset)
        expected = define_relation(lfp_tc(), copy_structure(structure),
                                   ("u", "v"), backend="tuple")
        columns, rows = checker.defined_relation(lfp_tc())
        assert normalized(columns, rows, ("u", "v")) == expected
    assert checker.ivm_stats.get("fixpoint", 0) > 0


# ------------------------------------------------------ pinned fuzz corpus


@pytest.mark.parametrize("seed", range(12))
def test_pinned_fuzz_corpus(seed):
    """A fixed slice of the nightly fuzz sweep, one case per seed.  Any
    failure prints the replay command (``--seed N``)."""
    run_case(seed)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_each_profile_runs_clean(profile):
    for seed in range(3):
        run_case(seed, profile=profile)


def test_generated_updates_are_deterministic():
    first = [c.changes for c in generate_updates(7, 5)]
    second = [c.changes for c in generate_updates(7, 5)]
    assert first == second and any(first)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12, 60))
def test_nightly_fuzz_corpus(seed):
    run_case(seed)


# ----------------------------------------------------------- CLI --updates


def test_cli_updates_flag(tmp_path, capsys):
    from repro.__main__ import main

    structure = tmp_path / "s.json"
    structure.write_text(json.dumps(
        {"D": list(range(6)), "E": [[i, i + 1] for i in range(4)]}))
    updates = tmp_path / "u.json"
    updates.write_text(json.dumps([
        {"op": "insert", "relation": "E", "row": [4, 5]},
        {"op": "delete", "relation": "E", "row": [1, 2]},
    ]))
    assert main(["logic", "tc", "--structure", str(structure),
                 "--updates", str(updates), "--backend", "plan"]) == 0
    out = capsys.readouterr().out
    assert "2 net changes (+1/-1)" in out
    assert "maintenance: closure=1" in out
    # the printed relation reflects the post-update structure
    rows = {tuple(map(int, line.split()))
            for line in out.splitlines() if line.startswith("  ")}
    assert (0, 1) in rows and (4, 5) in rows
    assert (1, 2) not in rows and (0, 2) not in rows
