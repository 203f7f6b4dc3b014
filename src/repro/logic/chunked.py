"""The chunked plan interpreter: columnar evaluation past the dense width.

The per-plan code generator (:mod:`repro.logic.codegen`) targets the
dense payloads of :mod:`repro.core.columnar` — giant-int bitmask rows
whose byte cost is O(universe) *per source*.  Past
:data:`~repro.core.columnar.DENSE_WIDTH_THRESHOLD` those rows cannot even
be allocated for sparse million-edge structures, so this module evaluates
the same plan IR a different way: an interpreter over machine-word
payloads.

Representations by arity (the ``kind`` tags of :class:`_Rel`):

* ``"0"`` — arity 0: the unit int (0 / 1).
* ``"b"`` — arity 1: one int bitset, O(n / 8) bytes (still cheap wide).
* ``"c"`` — arity 2, frozen: a CSR pair (``array('q')`` offsets +
  ``array('i')`` sorted targets) — what scans and the condensation
  closure produce, and what snapshots hand over zero-copy.
* ``"s"`` — arity 2, working: a sparse ``{source: set-of-targets}``
  dict — what unions / differences / fixpoint accumulation mutate.
* ``"t"`` — any other arity: the tuple-set of last resort.

The interpreter covers the closure pipeline completely — scans (with the
snapshot fast path), ``Closure`` via the SCC condensation kernel,
``SeededClosure`` via one CSR BFS, projections, boolean combinators,
semi-naive ``Fixpoint`` (whose unary-frontier joins against a CSR
relation run as one image or pre-image, never as tuples).  Node shapes
it does not cover (``universe**k`` products, ``k >= 2`` closures, exotic
joins) raise
:class:`ChunkedUnsupported`, which the evaluation ladder absorbs as a
``DegradationEvent("columnar", "plan", ...)`` — correctness never depends
on this module, only speed and memory do.

Accounting matches the dense backend's stance: every materialized node
notes its row count (``Governor.note_rows`` + ``PlanStats``), closures
check ``check_rows_ahead`` before expanding, and the packed payloads
report structural bytes to ``Governor.note_bytes`` /
``PlanStats.note_resident`` so a ``max_bytes_resident`` budget bites.
"""

from __future__ import annotations

from repro.core.columnar import (
    bits_of_unary,
    closure_csr,
    csr_bytes,
    csr_of_pairs,
    csr_of_sparse,
    iter_bits,
    iter_csr_rows,
    reach_from_csr,
    sparse_of_csr,
    transpose_csr,
    _functional_csr,
)
from .plan import (
    AntiJoin,
    AuxScan,
    Closure,
    ConstrainedDomain,
    CountSelect,
    Cumulative,
    DeltaScan,
    Difference,
    DomainProduct,
    Empty,
    ExecutionContext,
    Fixpoint,
    Join,
    JoinProject,
    Plan,
    PlanStats,
    Product,
    Project,
    RelationScan,
    Rename,
    SeededClosure,
    Select,
    SemiJoin,
    Shared,
    Union,
)

__all__ = ["ChunkedUnsupported", "execute_chunked"]


class ChunkedUnsupported(ValueError):
    """A plan shape the chunked interpreter does not cover (the ladder
    degrades to the set-at-a-time plan backend on catching this)."""


# ------------------------------------------------------------ the value form


class _Rel:
    """One relation in the chunked interpreter's representation union."""

    __slots__ = ("arity", "kind", "payload", "converse")

    def __init__(self, arity: int, kind: str, payload):
        self.arity = arity
        self.kind = kind
        self.payload = payload
        #: The transposed CSR pair of a frozen ``"c"`` payload, built on
        #: first use (a shared relation keeps it across fixpoint rounds).
        self.converse = None

    def count(self) -> int:
        kind, payload = self.kind, self.payload
        if kind == "0":
            return 1 if payload else 0
        if kind == "b":
            return payload.bit_count()
        if kind == "c":
            return len(payload[1])
        if kind == "s":
            return sum(len(row) for row in payload.values())
        return len(payload)

    def struct_bytes(self) -> int:
        """Structural byte estimate of the packed payload (words held,
        not Python object overhead — deterministic, hence testable)."""
        kind, payload = self.kind, self.payload
        if kind == "b":
            return payload.bit_length() // 8 + 1
        if kind == "c":
            return csr_bytes(payload[0], payload[1])
        if kind == "s":
            return 8 * (len(payload) + self.count())
        if kind == "t":
            return 8 * self.arity * len(payload)
        return 0

    def sparse(self) -> dict:
        """The mutable arity-2 working form (converting from CSR)."""
        if self.kind == "s":
            return self.payload
        return sparse_of_csr(*self.payload)

    def rows(self) -> set:
        kind, payload = self.kind, self.payload
        if kind == "0":
            return {()} if payload else set()
        if kind == "b":
            return {(index,) for index in iter_bits(payload)}
        if kind == "c":
            return set(iter_csr_rows(payload[0], payload[1]))
        if kind == "s":
            return {(source, target) for source, row in payload.items()
                    for target in row}
        return set(payload)


def _rel_of_rows(rows, arity: int, n: int) -> _Rel:
    if arity == 0:
        return _Rel(0, "0", 1 if rows else 0)
    if arity == 1:
        return _Rel(1, "b", bits_of_unary(rows))
    if arity == 2:
        sparse: dict[int, set[int]] = {}
        for row in rows:
            if len(row) == 2:
                sparse.setdefault(row[0], set()).add(row[1])
        return _Rel(2, "s", sparse)
    return _Rel(arity, "t", {row for row in rows if len(row) == arity})


def _empty(arity: int) -> _Rel:
    if arity == 0:
        return _Rel(0, "0", 0)
    if arity == 1:
        return _Rel(1, "b", 0)
    if arity == 2:
        return _Rel(2, "s", {})
    return _Rel(arity, "t", set())


def _csr_of(rel: _Rel, n: int) -> tuple:
    """The CSR pair of an arity-2 relation (converting a sparse dict)."""
    if rel.kind == "c":
        return rel.payload
    return csr_of_sparse(rel.payload, n)


# ------------------------------------------------------------- the evaluator


class _Interpreter:
    """One execution of one plan over one structure."""

    def __init__(self, structure, auxiliary, stats: PlanStats | None,
                 governor):
        self.n = structure.size
        self.structure = structure
        self.aux = dict(auxiliary or {})
        self.stats = stats
        self.governor = governor
        # Fixpoint scope: relation name -> (total _Rel, delta _Rel | None).
        self.scope: dict[str, tuple[_Rel, _Rel | None]] = {}
        self.memo: dict[Plan, _Rel] = {}
        self.round_memo: dict[Plan, _Rel] = {}
        self.accumulators: dict[Plan, _Rel] | None = None

    # ------------------------------------------------------------ accounting

    def _note(self, rel: _Rel) -> None:
        count = rel.count()
        stats = self.stats
        if stats is not None:
            stats.rows_materialized += count
            if rel.kind in ("c", "s"):
                stats.note_resident(byte_count=rel.struct_bytes())
        governor = self.governor
        if governor is not None:
            governor.note_rows(count)
            if rel.kind in ("c", "s"):
                governor.note_bytes(rel.struct_bytes())
            governor.tick()

    def _check_ahead(self, count: int) -> None:
        if self.governor is not None:
            self.governor.check_rows_ahead(count)

    # -------------------------------------------------------------- dispatch

    def eval(self, node: Plan) -> _Rel:
        method = self._DISPATCH.get(type(node))
        if method is None:
            raise ChunkedUnsupported(
                f"chunked interpreter does not cover {type(node).__name__}")
        return method(self, node)

    # ----------------------------------------------------------------- scans

    def _permute(self, rel: _Rel, order) -> _Rel:
        if order is None or order == tuple(range(len(order))):
            return rel
        if rel.arity == 2:  # order == (1, 0): the converse
            offsets, targets = _csr_of(rel, self.n)
            return _Rel(2, "c", transpose_csr(offsets, targets, self.n))
        if rel.kind == "t":
            return _Rel(rel.arity, "t",
                        {tuple(row[i] for i in order) for row in rel.payload})
        return rel

    def _eval_relation_scan(self, node: RelationScan) -> _Rel:
        arity = len(node.columns)
        relation = self.structure.relation(node.name)
        # Snapshot relations expose their packed payloads directly — the
        # zero-copy path that makes a cold mmap load usable as-is.
        if arity == 2 and hasattr(relation, "csr_arrays"):
            rel = _Rel(2, "c", relation.csr_arrays())
        elif arity == 1 and hasattr(relation, "bitset"):
            rel = _Rel(1, "b", relation.bitset())
        elif arity == 2:
            sources, targets = [], []
            for row in relation:
                if len(row) == 2:
                    sources.append(row[0])
                    targets.append(row[1])
            rel = _Rel(2, "c", csr_of_pairs(sources, targets, self.n))
        else:
            rel = _rel_of_rows(relation, arity, self.n)
        rel = self._permute(rel, node.order)
        self._note(rel)
        return rel

    def _eval_aux_scan(self, node: AuxScan) -> _Rel:
        bound = self.scope.get(node.name)
        arity = len(node.columns)
        if bound is not None:
            total = bound[0]
            if total.arity != arity:
                return _empty(arity)
            return self._permute(total, node.order)
        n = self.n
        rows = [row for row in self.aux.get(node.name, ())
                if len(row) == arity
                and all(0 <= value < n for value in row)]
        rel = self._permute(_rel_of_rows(rows, arity, n), node.order)
        self._note(rel)
        return rel

    def _eval_delta_scan(self, node: DeltaScan) -> _Rel:
        bound = self.scope.get(node.name)
        arity = len(node.columns)
        if bound is None or bound[1] is None or bound[1].arity != arity:
            return _empty(arity)
        return self._permute(bound[1], node.order)

    def _eval_empty(self, node: Empty) -> _Rel:
        return _empty(len(node.columns))

    def _eval_domain(self, node: DomainProduct) -> _Rel:
        k = len(node.columns)
        self._check_ahead(self.n ** k)
        if k == 0:
            return _Rel(0, "0", 1)
        if k == 1:
            rel = _Rel(1, "b", (1 << self.n) - 1)
            self._note(rel)
            return rel
        raise ChunkedUnsupported(
            f"Domain^{k} over {self.n} elements in the chunked interpreter")

    def _eval_constrained_domain(self, node: ConstrainedDomain) -> _Rel:
        # An upper bound first: a column is cheap when some eq pins it to a
        # constant or an earlier column; unpinned columns each cost n.
        n = self.n
        bound = 1
        for position in range(len(node.columns)):
            pinned = False
            for comparison in node.comparisons:
                if comparison.op != "eq":
                    continue
                used = comparison.columns_used()
                if position in used and (len(used) == 1 or min(used) < position):
                    pinned = True
                    break
            if not pinned:
                bound *= n
        self._check_ahead(bound)
        if bound > max(n, 1) * 64:
            raise ChunkedUnsupported(
                f"constrained domain bound {bound} over {n} elements")
        relation = node._run(ExecutionContext(self.structure))
        rel = _rel_of_rows(relation.rows, len(node.columns), n)
        self._note(rel)
        return rel

    # ----------------------------------------------------- unary structural

    def _eval_rename(self, node: Rename) -> _Rel:
        return self.eval(node.child)

    def _eval_shared(self, node: Shared) -> _Rel:
        memo = self.round_memo if node.volatile else self.memo
        result = memo.get(node.child)
        if result is None:
            result = self.eval(node.child)
            memo[node.child] = result
        elif self.stats is not None:
            self.stats.shared_hits += 1
        return result

    def _eval_project(self, node: Project) -> _Rel:
        source = node.child.columns
        indices = tuple(source.index(name) for name in node.columns)
        child = self.eval(node.child)
        rel = self._project(child, indices)
        self._note(rel)
        return rel

    def _project(self, child: _Rel, indices: tuple) -> _Rel:
        if indices == tuple(range(child.arity)):
            return child
        if child.arity == 2 and child.kind in ("c", "s"):
            if indices == ():
                return _Rel(0, "0", 1 if child.count() else 0)
            if indices == (1, 0):
                offsets, targets = _csr_of(child, self.n)
                return _Rel(2, "c", transpose_csr(offsets, targets, self.n))
            if indices in ((0,), (1,)):
                bits = 0
                if child.kind == "s":
                    if indices == (0,):
                        for source, row in child.payload.items():
                            if row:
                                bits |= 1 << source
                    else:
                        for row in child.payload.values():
                            for target in row:
                                bits |= 1 << target
                else:
                    offsets, targets = child.payload
                    if indices == (0,):
                        for source in range(self.n):
                            if offsets[source + 1] > offsets[source]:
                                bits |= 1 << source
                    else:
                        for target in targets:
                            bits |= 1 << target
                return _Rel(1, "b", bits)
        if child.kind == "b":
            if indices == ():
                return _Rel(0, "0", 1 if child.payload else 0)
            return child
        if child.kind == "0":
            return child
        rows = {tuple(row[i] for i in indices) for row in child.rows()}
        return _rel_of_rows(rows, len(indices), self.n)

    def _eval_select(self, node: Select) -> _Rel:
        child = self.eval(node.child)
        rel = self._select(child, node.comparisons)
        self._note(rel)
        return rel

    def _select(self, child: _Rel, comparisons) -> _Rel:
        n = self.n
        if child.kind == "0":
            if child.payload and all(c.evaluate((), n) for c in comparisons):
                return child
            return _Rel(0, "0", 0)
        if child.kind == "b":
            bits = 0
            for index in iter_bits(child.payload):
                if all(c.evaluate((index,), n) for c in comparisons):
                    bits |= 1 << index
            return _Rel(1, "b", bits)
        if child.kind in ("c", "s"):
            sparse: dict[int, set[int]] = {}
            if child.kind == "s":
                pairs = ((source, row) for source, row in child.payload.items())
            else:
                offsets, targets = child.payload
                pairs = ((source, targets[offsets[source]:offsets[source + 1]])
                         for source in range(n)
                         if offsets[source + 1] > offsets[source])
            for source, row in pairs:
                keep = {target for target in row
                        if all(c.evaluate((source, target), n)
                               for c in comparisons)}
                if keep:
                    sparse[source] = keep
            return _Rel(2, "s", sparse)
        rows = {row for row in child.payload
                if all(c.evaluate(row, n) for c in comparisons)}
        return _Rel(child.arity, "t", rows)

    # ------------------------------------------------------------- booleans

    def _eval_union(self, node: Union) -> _Rel:
        arity = len(node.columns)
        operands = [self.eval(operand) for operand in node.operands]
        if arity == 0:
            return _Rel(0, "0", 1 if any(r.payload for r in operands) else 0)
        if arity == 1:
            bits = 0
            for rel in operands:
                bits |= rel.payload
            rel = _Rel(1, "b", bits)
        elif arity == 2:
            merged: dict[int, set[int]] = {}
            for rel in operands:
                for source, row in rel.sparse().items():
                    have = merged.get(source)
                    if have is None:
                        merged[source] = set(row)
                    else:
                        have |= row
            rel = _Rel(2, "s", merged)
        else:
            rows: set = set()
            for operand in operands:
                rows |= operand.payload
            rel = _Rel(arity, "t", rows)
        self._note(rel)
        return rel

    def _eval_difference(self, node: Difference) -> _Rel:
        left = self.eval(node.left)
        right = self.eval(node.right)
        arity = left.arity
        if arity == 0:
            return _Rel(0, "0", 1 if left.payload and not right.payload else 0)
        if arity == 1:
            rel = _Rel(1, "b", left.payload & ~right.payload)
        elif arity == 2:
            other = right.sparse()
            result: dict[int, set[int]] = {}
            for source, row in left.sparse().items():
                drop = other.get(source)
                keep = row - drop if drop else set(row)
                if keep:
                    result[source] = keep
            rel = _Rel(2, "s", result)
        else:
            rel = _Rel(arity, "t", left.payload - right.payload)
        self._note(rel)
        return rel

    # ----------------------------------------------------------------- joins

    def _eval_semi(self, node, anti: bool) -> _Rel:
        left = self.eval(node.left)
        right = self.eval(node.right)
        key = tuple(node.left.columns.index(c) for c in node.right.columns)
        if self.stats is not None:
            self.stats.index_probes += left.count()
        rel = self._semi(left, right, key, anti)
        self._note(rel)
        return rel

    def _semi(self, left: _Rel, right: _Rel, key: tuple, anti: bool) -> _Rel:
        n = self.n
        if right.arity == 0:
            keep = (not right.payload) if anti else bool(right.payload)
            return left if keep else _empty(left.arity)
        if left.arity == 1 and right.arity == 1:
            mask = right.payload
            bits = left.payload & (~mask if anti else mask)
            return _Rel(1, "b", bits)
        if left.arity == 2 and left.kind in ("c", "s"):
            if right.arity == 1:
                mask = right.payload
                result: dict[int, set[int]] = {}
                if key == (0,):
                    for source, row in left.sparse().items():
                        hit = bool(mask >> source & 1)
                        if hit != anti and row:
                            result[source] = set(row)
                else:  # key == (1,): filter targets
                    for source, row in left.sparse().items():
                        keep = {t for t in row if (mask >> t & 1) != anti}
                        if keep:
                            result[source] = keep
                return _Rel(2, "s", result)
            if right.arity == 2 and key in ((0, 1), (1, 0)):
                other = right.sparse()
                if key == (1, 0):
                    flipped: dict[int, set[int]] = {}
                    for source, row in other.items():
                        for target in row:
                            flipped.setdefault(target, set()).add(source)
                    other = flipped
                result = {}
                for source, row in left.sparse().items():
                    match = other.get(source, set())
                    keep = row - match if anti else row & match
                    if keep:
                        result[source] = keep
                return _Rel(2, "s", result)
        # Generic membership probe over tuple rows.
        match_rows = {tuple(row) for row in right.rows()}
        rows = {row for row in left.rows()
                if (tuple(row[i] for i in key) in match_rows) != anti}
        return _rel_of_rows(rows, left.arity, n)

    def _eval_product(self, node: Product) -> _Rel:
        left = self.eval(node.left)
        right = self.eval(node.right)
        if left.arity == 0:
            return right if left.payload else _empty(len(node.columns))
        if right.arity == 0:
            return left if right.payload else _empty(len(node.columns))
        self._check_ahead(left.count() * right.count())
        if left.arity + right.arity == 2:
            result: dict[int, set[int]] = {}
            targets = set(iter_bits(right.payload))
            for source in iter_bits(left.payload):
                result[source] = set(targets)
            rel = _Rel(2, "s", result)
        else:
            rows = {lrow + rrow for lrow in left.rows()
                    for rrow in right.rows()}
            rel = _rel_of_rows(rows, left.arity + right.arity, self.n)
        self._note(rel)
        return rel

    def _eval_join(self, node) -> _Rel:
        left_columns = node.left.columns
        right_columns = node.right.columns
        combined = left_columns + tuple(c for c in right_columns
                                        if c not in left_columns)
        out_columns = (node.columns if isinstance(node, JoinProject)
                       else combined)
        shared = tuple(c for c in right_columns if c in left_columns)
        if not shared:
            product = self._eval_product_of(node.left, node.right)
            indices = tuple((left_columns + right_columns).index(c)
                            for c in out_columns)
            rel = self._project(product, indices)
            self._note(rel)
            return rel
        left = self.eval(node.left)
        right = self.eval(node.right)
        if self.stats is not None:
            self.stats.index_probes += left.count()
        out = tuple(combined.index(c) for c in out_columns)
        rel = self._join(left, right,
                         tuple(left_columns.index(c) for c in shared),
                         tuple(right_columns.index(c) for c in shared),
                         tuple(i for i, c in enumerate(right_columns)
                               if c not in left_columns),
                         out)
        self._note(rel)
        return rel

    def _eval_product_of(self, left_plan: Plan, right_plan: Plan) -> _Rel:
        left = self.eval(left_plan)
        right = self.eval(right_plan)
        if left.arity == 0:
            return right if left.payload else _empty(right.arity)
        if right.arity == 0:
            return left if right.payload else _empty(left.arity)
        self._check_ahead(left.count() * right.count())
        rows = {lrow + rrow for lrow in left.rows() for rrow in right.rows()}
        return _rel_of_rows(rows, left.arity + right.arity, self.n)

    def _join(self, left: _Rel, right: _Rel, left_key: tuple,
              right_key: tuple, keep: tuple, out: tuple) -> _Rel:
        """The generic hash join, with the arity-2 compose shape routed
        through per-row set work and the unary-against-binary shape
        through one image or pre-image, instead of tuple
        materialization."""
        n = self.n
        if len(left_key) == 1 and {left.arity, right.arity} == {1, 2}:
            if left.arity == 2:
                pairs, bits, shared = left, right.payload, left_key[0]
                other = 1 - shared
            else:  # combined layout: (shared, binary's other column)
                pairs, bits, shared, other = right, left.payload, \
                    right_key[0], 1
            if out in ((other,), ()):
                reached = self._image(pairs, bits, converse=shared == 1)
                if out:
                    return _Rel(1, "b", reached)
                return _Rel(0, "0", 1 if reached else 0)
        if (left.arity == 2 and right.arity == 2 and len(left_key) == 1
                and left.kind in ("c", "s") and right.kind in ("c", "s")):
            # Normalize: probe left rows keyed on the shared column against
            # the right side indexed on its shared column.
            left_rows = left.sparse() if left_key == (1,) else (
                self._project(left, (1, 0)).sparse())
            right_rows = right.sparse() if right_key == (0,) else (
                self._project(right, (1, 0)).sparse())
            # left_rows: other -> {key}; right_rows: key -> {other}.
            # Combined positional layout after normalization:
            #   (left other, key, right other) == combined order rebuilt.
            left_other_pos = 0 if left_key == (1,) else 1
            results: set = set()
            sparse: dict[int, set[int]] = {}
            want_pairs = len(out) == 2
            for other, keys in left_rows.items():
                for key in keys:
                    matches = right_rows.get(key)
                    if not matches:
                        continue
                    full = [0, 0, 0]
                    full[left_other_pos] = other
                    full[1 - left_other_pos] = key
                    for match in matches:
                        full[2] = match
                        row = tuple(full[i] for i in out)
                        if want_pairs:
                            sparse.setdefault(row[0], set()).add(row[1])
                        else:
                            results.add(row)
            if want_pairs:
                return _Rel(2, "s", sparse)
            return _rel_of_rows(results, len(out), n)
        # Tuple-generic fallback, governed by the row budget.
        self._check_ahead(0)
        index: dict[tuple, list[tuple]] = {}
        for row in right.rows():
            index.setdefault(tuple(row[i] for i in right_key), []).append(row)
        rows = set()
        governor = self.governor
        for row in left.rows():
            if governor is not None:
                governor.tick()
            for match in index.get(tuple(row[i] for i in left_key), ()):
                full = row + tuple(match[i] for i in keep)
                rows.add(tuple(full[i] for i in out))
        return _rel_of_rows(rows, len(out), n)

    def _image(self, pairs: _Rel, bits: int, converse: bool) -> int:
        """The bitset of nodes one ``pairs`` edge away from ``bits`` —
        forward (the image), or backward along the cached transposed CSR
        when ``converse`` (the pre-image).  O(edges touched), no tuples."""
        n = self.n
        offsets, targets = _csr_of(pairs, n)
        if converse:
            if pairs.kind != "c":
                offsets, targets = transpose_csr(offsets, targets, n)
            else:
                if pairs.converse is None:
                    pairs.converse = transpose_csr(offsets, targets, n)
                offsets, targets = pairs.converse
        mark = bytearray((n + 7) >> 3)
        for node in iter_bits(bits):
            for target in targets[offsets[node]:offsets[node + 1]]:
                mark[target >> 3] |= 1 << (target & 7)
        return int.from_bytes(mark, "little")

    def _eval_count(self, node: CountSelect) -> _Rel:
        n = self.n
        threshold = node.threshold
        if threshold == "half":
            threshold = (n + 1) // 2
        threshold = int(threshold)
        if threshold <= 0:
            return self._eval_domain(DomainProduct(node.columns))
        child = self.eval(node.child)
        variable_pos = node.child.columns.index(node.variable)
        if child.arity == 2 and child.kind in ("c", "s"):
            bits = 0
            rows = child.sparse() if variable_pos == 1 else (
                self._project(child, (1, 0)).sparse())
            for source, row in rows.items():
                if len(row) >= threshold:
                    bits |= 1 << source
            rel = _Rel(1, "b", bits)
        elif child.arity == 1:
            rel = _Rel(0, "0",
                       1 if child.payload.bit_count() >= threshold else 0)
        else:
            group_indices = tuple(i for i, c in enumerate(node.child.columns)
                                  if c != node.variable)
            counts: dict[tuple, int] = {}
            for row in child.rows():
                group = tuple(row[i] for i in group_indices)
                counts[group] = counts.get(group, 0) + 1
            rel = _rel_of_rows(
                {g for g, c in counts.items() if c >= threshold},
                len(node.columns), n)
        self._note(rel)
        return rel

    # ------------------------------------------------------------- recursion

    def _eval_closure(self, node: Closure) -> _Rel:
        if node.k != 1:
            raise ChunkedUnsupported(
                f"Closure k={node.k} in the chunked interpreter")
        edges = self.eval(node.body)
        offsets, targets = _csr_of(edges, self.n)
        pair = closure_csr(offsets, targets, self.n,
                           deterministic=node.deterministic,
                           governor=self.governor, stats=self.stats)
        rel = _Rel(2, "c", pair)
        self._note(rel)
        return rel

    def _eval_seeded_closure(self, node: SeededClosure) -> _Rel:
        """One BFS from the pinned endpoint: O(edges) time and O(reach)
        memory — what makes single-source reachability (the GAP
        sentence) flat in n."""
        n = self.n
        seed = node.constant.resolve(n)
        if not 0 <= seed < n:
            return _empty(2)
        self._check_ahead(n)
        edges = self.eval(node.body)
        offsets, targets = _csr_of(edges, n)
        if node.deterministic:
            offsets, targets = _functional_csr(offsets, targets, n)
        if node.endpoint == 1:
            offsets, targets = transpose_csr(offsets, targets, n)
        reached = reach_from_csr(offsets, targets, n, seed,
                                 governor=self.governor)
        if node.endpoint == 0:
            rel = _Rel(2, "s", {seed: set(reached)})
        else:
            rel = _Rel(2, "s", {source: {seed} for source in reached})
        self._note(rel)
        return rel

    def _eval_cumulative(self, node: Cumulative) -> _Rel:
        store = self.accumulators
        if store is None:
            return self.eval(node.full)
        accumulated = store.get(node)
        if accumulated is None:
            accumulated = self._to_mutable(self.eval(node.full))
            store[node] = accumulated
        else:
            self._union_into(accumulated, self.eval(node.delta))
        return accumulated

    @staticmethod
    def _to_mutable(rel: _Rel) -> _Rel:
        if rel.kind == "c":
            return _Rel(2, "s", rel.sparse())
        return rel

    @staticmethod
    def _union_into(accumulated: _Rel, fresh: _Rel) -> None:
        if accumulated.kind == "b":
            accumulated.payload |= fresh.payload
        elif accumulated.kind == "s":
            rows = accumulated.payload
            for source, row in fresh.sparse().items():
                have = rows.get(source)
                if have is None:
                    rows[source] = set(row)
                else:
                    have |= row
        elif accumulated.kind == "t":
            accumulated.payload |= fresh.payload
        elif accumulated.kind == "0":
            accumulated.payload |= fresh.payload

    def _eval_fixpoint(self, node: Fixpoint) -> _Rel:
        arity = len(node.variables)
        relation = node.relation
        # The delta body when the optimizer attached one; otherwise every
        # round re-runs the full body against the total (naive stages).
        step = node.body if node.delta_body is None else node.delta_body
        saved_scope = self.scope.get(relation)
        saved_round = self.round_memo
        saved_store = self.accumulators
        self.accumulators = {}
        stats, governor = self.stats, self.governor
        try:
            before = 0 if stats is None else stats.rows_materialized
            if governor is not None:
                governor.note_round()
            self.round_memo = {}
            self.scope[relation] = (_empty(arity), None)
            total = self._to_mutable(self.eval(node.body))
            if stats is not None:
                stats.fixpoint_rounds += 1
                stats.fixpoint_round_rows.append(
                    stats.rows_materialized - before)
            delta = total
            while delta.count():
                if stats is not None:
                    stats.note_resident(rows=total.count() + delta.count())
                if governor is not None:
                    governor.note_round()
                before = 0 if stats is None else stats.rows_materialized
                self.round_memo = {}
                self.scope[relation] = (total, delta)
                derived = self.eval(step)
                if stats is not None:
                    stats.fixpoint_rounds += 1
                    stats.fixpoint_round_rows.append(
                        stats.rows_materialized - before)
                delta = self._fresh_rows(derived, total)
                self._union_into(total, delta)
            return total
        finally:
            if saved_scope is None:
                self.scope.pop(relation, None)
            else:
                self.scope[relation] = saved_scope
            self.round_memo = saved_round
            self.accumulators = saved_store

    @staticmethod
    def _fresh_rows(derived: _Rel, total: _Rel) -> _Rel:
        if derived.kind == "b":
            return _Rel(1, "b", derived.payload & ~total.payload)
        if derived.arity == 2:
            have = total.sparse()
            fresh: dict[int, set[int]] = {}
            for source, row in derived.sparse().items():
                seen = have.get(source)
                new = row - seen if seen else set(row)
                if new:
                    fresh[source] = new
            return _Rel(2, "s", fresh)
        if derived.kind == "0":
            return _Rel(0, "0", derived.payload & ~total.payload)
        return _Rel(derived.arity, "t", derived.payload - total.payload)

    _DISPATCH = {
        RelationScan: _eval_relation_scan,
        AuxScan: _eval_aux_scan,
        DeltaScan: _eval_delta_scan,
        Empty: _eval_empty,
        DomainProduct: _eval_domain,
        ConstrainedDomain: _eval_constrained_domain,
        Rename: _eval_rename,
        Shared: _eval_shared,
        Project: _eval_project,
        Select: _eval_select,
        Union: _eval_union,
        Difference: _eval_difference,
        SemiJoin: lambda self, node: self._eval_semi(node, anti=False),
        AntiJoin: lambda self, node: self._eval_semi(node, anti=True),
        Product: _eval_product,
        Join: _eval_join,
        JoinProject: _eval_join,
        CountSelect: _eval_count,
        Closure: _eval_closure,
        SeededClosure: _eval_seeded_closure,
        Cumulative: _eval_cumulative,
        Fixpoint: _eval_fixpoint,
    }


def execute_chunked(plan: Plan, structure, auxiliary=None,
                    stats: PlanStats | None = None, governor=None
                    ) -> frozenset:
    """Evaluate ``plan`` with the chunked interpreter and decode to rows.

    The entry :func:`~repro.logic.codegen.execute_columnar` routes here
    when ``structure.size`` is past the dense width threshold.  Raises
    :class:`ChunkedUnsupported` on plan shapes outside the coverage; the
    evaluation ladder turns that into a degradation event.
    """
    interpreter = _Interpreter(structure, auxiliary, stats, governor)
    return frozenset(interpreter.eval(plan).rows())
