"""Columnar relations: bitsets, CSR adjacency, and the dense-int kernels.

The set-of-tuples representation (:class:`~repro.core.relalg.
IndexedRelation`) pays per-tuple hashing and boxed comparisons on every
operation.  Over the canonical dense universe ``{0, ..., n-1}`` (see
:mod:`repro.structures.intern`) there is a far cheaper encoding:

* **arity 1** — one Python int used as a bit vector: bit ``i`` set iff
  element ``i`` is in the relation.  Union/difference/complement are one
  bitwise op over the whole relation; membership is a shift.
* **arity 2** — CSR adjacency: a sorted target array plus per-source
  offsets (the classic compressed-sparse-row layout), with the per-source
  *bitmask rows* (``row_bits[x]`` = bitset of ``y`` with ``(x, y)`` in the
  relation) cached alongside — the form the join/fixpoint kernels consume,
  where composing two relations is ``n`` bitwise ORs instead of a hash
  join.  Either form is derived from the other on demand.
* **arity ≥ 3** (and arity 0) — the tuple-set fallback: a plain set of
  tuples, the representation of last resort the plan codegen degrades to.

The kernels operate on the *raw* payloads (ints, lists of ints, sets):
semijoin / antijoin as bitset masks, union / difference as bitwise or /
and-not, composition as row ORs, transitive closure as frontier BFS with
a visited bitset.  They are what the per-plan code generator
(:mod:`repro.logic.codegen`) emits calls to; nothing boxes a relation
between them.

**Big universes.**  The bitmask-row encoding is dense: one Python int per
source whose size is O(highest set bit / 8) bytes, so a sparse relation
over ``n`` elements still costs up to ``n**2 / 8`` bytes.  Above
:data:`DENSE_WIDTH_THRESHOLD` the *chunked* kernels below take over:
arity-2 payloads become machine-word CSR pairs (``array('q')`` offsets +
``array('i')`` targets, memory O(rows)), closure runs over the SCC
condensation with memory O(output), and single-source reachability is a
plain frontier BFS with a byte-per-node visited array.  These are what
the big-n plan interpreter (:mod:`repro.logic.chunked`) calls.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

__all__ = [
    "DENSE_WIDTH_THRESHOLD",
    "bits_of_unary",
    "rows_of_bits",
    "adjacency_of_binary",
    "rows_of_adjacency",
    "csr_of_adjacency",
    "adjacency_of_csr",
    "iter_bits",
    "transpose",
    "compose",
    "mask_rows_source",
    "mask_rows_target",
    "and_rows",
    "andnot_rows",
    "or_rows",
    "proj_source",
    "proj_target",
    "count_per_source",
    "closure_adjacency",
    "reach_from",
    "patch_closure_insert",
    "overdeleted_rows",
    "csr_of_pairs",
    "csr_of_sparse",
    "sparse_of_csr",
    "iter_csr_rows",
    "csr_bytes",
    "transpose_csr",
    "scc_csr",
    "closure_csr",
    "reach_from_csr",
]


# ----------------------------------------------------------- raw conversions

#: Bit offsets set in each byte value — the per-byte decode table that lets
#: every bit-iteration kernel walk ``int.to_bytes`` output eight bits at a
#: time instead of one ``bit_length`` round-trip per bit.
_BYTE_OFFSETS = tuple(
    tuple(offset for offset in range(8) if value >> offset & 1)
    for value in range(256))


def bits_of_unary(rows: Iterable[Sequence[int]]) -> int:
    """A unary relation (iterable of 1-tuples) as one bit vector.  Rows of
    the wrong arity are filtered, mirroring the plan scans."""
    bits = 0
    for row in rows:
        if len(row) == 1:
            bits |= 1 << row[0]
    return bits


def rows_of_bits(bits: int) -> set[tuple[int]]:
    """The 1-tuple rows of a bit vector."""
    return {(index,) for index in iter_bits(bits)}


def adjacency_of_binary(rows: Iterable[Sequence[int]], n: int) -> list[int]:
    """A binary relation as bitmask rows: ``adj[x]`` holds bit ``y`` iff
    ``(x, y)`` is a row.  Wrong-arity rows are filtered."""
    adjacency = [0] * n
    for row in rows:
        if len(row) == 2:
            adjacency[row[0]] |= 1 << row[1]
    return adjacency


def rows_of_adjacency(adjacency: list[int]) -> set[tuple[int, int]]:
    """The pair rows of bitmask-row adjacency."""
    rows: set[tuple[int, int]] = set()
    update = rows.update
    table = _BYTE_OFFSETS
    for source, bits in enumerate(adjacency):
        if bits:
            data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
            update((source, (base << 3) + offset)
                   for base, byte in enumerate(data) if byte
                   for offset in table[byte])
    return rows


def csr_of_adjacency(adjacency: list[int]) -> tuple[list[int], list[int]]:
    """The CSR form of bitmask rows: ``(offsets, targets)`` with
    ``targets[offsets[x]:offsets[x+1]]`` the sorted successors of ``x``."""
    offsets = [0] * (len(adjacency) + 1)
    targets: list[int] = []
    extend = targets.extend
    table = _BYTE_OFFSETS
    for source, bits in enumerate(adjacency):
        if bits:
            data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
            extend((base << 3) + offset
                   for base, byte in enumerate(data) if byte
                   for offset in table[byte])
        offsets[source + 1] = len(targets)
    return offsets, targets


def adjacency_of_csr(offsets: Sequence[int], targets: Sequence[int]
                     ) -> list[int]:
    """Bitmask rows from a CSR pair."""
    adjacency = []
    for source in range(len(offsets) - 1):
        bits = 0
        for position in range(offsets[source], offsets[source + 1]):
            bits |= 1 << targets[position]
        adjacency.append(bits)
    return adjacency


def iter_bits(bits: int) -> Iterator[int]:
    """The set bit positions of ``bits``, ascending."""
    if not bits:
        return
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    table = _BYTE_OFFSETS
    for base, byte in enumerate(data):
        if byte:
            base <<= 3
            for offset in table[byte]:
                yield base + offset


# -------------------------------------------------------------- binary kernels


#: Cached delta-swap schedules for the packed butterfly transpose, keyed by
#: padded width: ``(delta, mask)`` per power-of-two level, where ``mask``
#: selects the packed positions with row bit clear and column bit set.
_TRANSPOSE_SWAPS: dict[int, tuple[tuple[int, int], ...]] = {}

#: Above this padded width the packed matrix (``width**2`` bits) stops
#: paying for itself; fall back to the row-scan transpose.
_MAX_BUTTERFLY_WIDTH = 2048


def _transpose_swaps(width: int) -> tuple[tuple[int, int], ...]:
    swaps = _TRANSPOSE_SWAPS.get(width)
    if swaps is None:
        schedule = []
        step = width >> 1
        while step:
            columns = 0
            for column in range(width):
                if column & step:
                    columns |= 1 << column
            mask = 0
            for row in range(width):
                if not row & step:
                    mask |= columns << (row * width)
            schedule.append((step * (width - 1), mask))
            step >>= 1
        swaps = _TRANSPOSE_SWAPS[width] = tuple(schedule)
    return swaps


def transpose(adjacency: list[int], n: int) -> list[int]:
    """The reversed relation: ``out[y]`` holds bit ``x`` iff ``adj[x]``
    holds bit ``y``.

    For universes up to ``_MAX_BUTTERFLY_WIDTH`` the rows are packed into
    one ``width**2``-bit integer and transposed by the classic power-of-two
    delta swaps (Hacker's Delight 7-3 generalized): each level exchanges
    row bit ``s`` with column bit ``s`` in three whole-matrix bitwise ops,
    so the work is ``O(log n)`` big-int operations instead of one Python
    iteration per set bit."""
    width = 8
    while width < n:
        width <<= 1
    if width > _MAX_BUTTERFLY_WIDTH:
        out = [0] * n
        table = _BYTE_OFFSETS
        for source, bits in enumerate(adjacency):
            if bits:
                mark = 1 << source
                data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
                for base, byte in enumerate(data):
                    if byte:
                        base8 = base << 3
                        for offset in table[byte]:
                            out[base8 + offset] |= mark
        return out
    stride = width >> 3
    packed = int.from_bytes(
        b"".join(bits.to_bytes(stride, "little") for bits in adjacency),
        "little")
    for delta, mask in _transpose_swaps(width):
        moved = (packed ^ (packed >> delta)) & mask
        packed ^= moved ^ (moved << delta)
    data = packed.to_bytes(width * stride, "little")
    return [int.from_bytes(data[source * stride:(source + 1) * stride],
                           "little")
            for source in range(n)]


def compose(left: list[int], right: list[int]) -> list[int]:
    """Relational composition ``{(x, z) | ∃y: left(x, y) ∧ right(y, z)}`` —
    the ``exists z`` join pattern as ``n`` rounds of bitwise OR."""
    out = []
    append = out.append
    table = _BYTE_OFFSETS
    for bits in left:
        row = 0
        if bits:
            data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
            for base, byte in enumerate(data):
                if byte:
                    base8 = base << 3
                    for offset in table[byte]:
                        row |= right[base8 + offset]
        append(row)
    return out


def mask_rows_source(adjacency: list[int], bits: int) -> list[int]:
    """Keep only the rows whose *source* is in ``bits`` (a semijoin on the
    first column, as a mask)."""
    return [row if (bits >> source) & 1 else 0
            for source, row in enumerate(adjacency)]


def mask_rows_target(adjacency: list[int], bits: int) -> list[int]:
    """Intersect every row's *targets* with ``bits`` (a semijoin on the
    second column, as a mask)."""
    return [row & bits for row in adjacency]


def and_rows(left: list[int], right: list[int]) -> list[int]:
    """Pairwise intersection of two bitmask-row relations."""
    return [a & b for a, b in zip(left, right)]


def andnot_rows(left: list[int], right: list[int]) -> list[int]:
    """Pairwise difference (``left`` minus ``right``) — bitwise and-not."""
    return [a & ~b for a, b in zip(left, right)]


def or_rows(operands: Sequence[list[int]]) -> list[int]:
    """Pairwise union of several bitmask-row relations."""
    out = list(operands[0])
    for rows in operands[1:]:
        for index, bits in enumerate(rows):
            out[index] |= bits
    return out


def proj_source(adjacency: list[int]) -> int:
    """The sources with at least one target, as a bit vector (projection
    onto the first column)."""
    bits = 0
    for source, row in enumerate(adjacency):
        if row:
            bits |= 1 << source
    return bits


def proj_target(adjacency: list[int]) -> int:
    """Every target of any source (projection onto the second column)."""
    bits = 0
    for row in adjacency:
        bits |= row
    return bits


def count_per_source(adjacency: list[int], threshold: int) -> int:
    """The sources with at least ``threshold`` targets (the counting
    quantifier's group-and-threshold, one popcount per source)."""
    bits = 0
    for source, row in enumerate(adjacency):
        if row.bit_count() >= threshold:
            bits |= 1 << source
    return bits


def closure_adjacency(adjacency: list[int], n: int,
                      deterministic: bool = False,
                      governor=None) -> list[int]:
    """The *reflexive* transitive closure of bitmask-row adjacency, by
    level-synchronized frontier BFS with a visited bitset per source.

    ``deterministic`` applies the DTC reading first: only out-degree-one
    sources keep their edge.  Rounds match the semi-naive closure kernel's
    (one per BFS wave), so a ``governor``'s round budget bites at the same
    granularity as the set-at-a-time backend.
    """
    if deterministic:
        adjacency = [row if row.bit_count() == 1 else 0 for row in adjacency]
        if governor is None:
            # Out-degree <= 1 everywhere: reach sets along a chain nest, so
            # one memoized pointer-chase per component replaces the waves.
            # (Governed runs keep the wave loop below so the round budget
            # bites at exactly the interpreter's granularity.)
            return _closure_functional(adjacency, n)
    reach = [(1 << source) | adjacency[source] for source in range(n)]
    frontier = list(adjacency)
    table = _BYTE_OFFSETS
    while True:
        if governor is not None:
            governor.note_round()
        advanced = False
        for source in range(n):
            bits = frontier[source]
            if not bits:
                continue
            step = 0
            data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
            for base, byte in enumerate(data):
                if byte:
                    base8 = base << 3
                    for offset in table[byte]:
                        step |= adjacency[base8 + offset]
            new = step & ~reach[source]
            frontier[source] = new
            if new:
                advanced = True
                reach[source] |= new
        if not advanced:
            return reach


def _closure_functional(adjacency: list[int], n: int) -> list[int]:
    """Reflexive closure when every row has at most one bit: walk each
    unvisited chain, resolve the cycle or sink it ends in, then unwind the
    suffix-nested reach sets in reverse.  O(n) big-int ORs total."""
    reach = [0] * n
    state = bytearray(n)          # 0 unvisited / 1 on current path / 2 done
    for start in range(n):
        if state[start]:
            continue
        path = []
        node = start
        while not state[node]:
            state[node] = 1
            path.append(node)
            successor = adjacency[node]
            if not successor:
                break
            node = successor.bit_length() - 1
        if not adjacency[path[-1]]:
            tail = 0                               # the chain ends in a sink
        elif state[node] == 2:
            tail = reach[node]                     # joined a finished chain
        else:                                      # closed a new cycle
            position = path.index(node)
            tail = 0
            for member in path[position:]:
                tail |= 1 << member
            for member in path[position:]:
                reach[member] = tail
                state[member] = 2
            del path[position:]
        for member in reversed(path):
            tail = reach[member] = (1 << member) | tail
            state[member] = 2
    return reach


# --------------------------------------------------- closure patch kernels
#
# The incremental maintenance layer (:mod:`repro.logic.ivm`) keeps a
# memoized reflexive transitive closure live under single-edge updates.
# Insertion is the Dyn-FO rule (Patnaik-Immerman): the new pairs after
# adding edge ``(u, v)`` are exactly ``{(x, y) : (x, u) in T and
# (v, y) in T}`` — one pass of row ORs, no fixed point.  Deletion is
# DRed: :func:`overdeleted_rows` computes the over-deleted candidates
# (every pair whose *every* derivation might route through a removed
# edge), and the caller re-derives each affected source with one
# :func:`reach_from` BFS over the post-delete adjacency.


def reach_from(adjacency: list[int], source: int, governor=None) -> int:
    """The *reflexive* reach bitset of one ``source`` over bitmask-row
    adjacency — the per-source re-derivation kernel of DRed deletion and
    the dense kernel of a seeded closure.  A ``governor`` notes one round
    per BFS wave, like :func:`reach_from_csr`."""
    seen = 1 << source
    frontier = adjacency[source] & ~seen
    table = _BYTE_OFFSETS
    if governor is not None:
        governor.note_round()
    while frontier:
        if governor is not None:
            governor.note_round()
        seen |= frontier
        step = 0
        data = frontier.to_bytes((frontier.bit_length() + 7) >> 3, "little")
        for base, byte in enumerate(data):
            if byte:
                base8 = base << 3
                for offset in table[byte]:
                    step |= adjacency[base8 + offset]
        frontier = step & ~seen
    return seen


def patch_closure_insert(reach: list[int], u: int, v: int) -> int:
    """Patch reflexive-closure rows ``reach`` in place for one inserted
    edge ``(u, v)``: every source that reaches ``u`` gains ``v``'s reach
    set (reflexivity covers the ``x = u`` / ``y = v`` endpoints).  Returns
    the bitset of sources whose rows changed."""
    gain = reach[v] | (1 << v)
    bit_u = 1 << u
    changed = 0
    for x in range(len(reach)):
        row = reach[x]
        if row & bit_u and gain & ~row:
            reach[x] = row | gain
            changed |= 1 << x
    return changed


def overdeleted_rows(reach: list[int], removed: Iterable[tuple[int, int]]
                     ) -> list[int]:
    """The DRed over-delete: per-source candidate masks ``D`` with
    ``D[x]`` the bitset of targets ``y`` such that some removed edge
    ``(u, v)`` has ``(x, u)`` and ``(v, y)`` in the old closure ``reach``.
    Every truly-dead pair is a candidate (each of its old derivations used
    a removed edge), so sources with ``D[x] == 0`` keep their rows
    verbatim.  Reflexive pairs never die and are masked out."""
    n = len(reach)
    out = [0] * n
    for u, v in removed:
        gain = reach[v] | (1 << v)
        bit_u = 1 << u
        for x in range(n):
            if reach[x] & bit_u:
                out[x] |= gain
    for x in range(n):
        out[x] &= reach[x] & ~(1 << x)
    return out


# --------------------------------------------------------- chunked kernels
#
# Machine-word CSR kernels for universes too wide for giant-int rows.
# Payload convention: ``offsets`` is an ``array('q')`` of length ``n + 1``
# and ``targets`` an ``array('i')`` with ``targets[offsets[x]:
# offsets[x + 1]]`` the strictly ascending, duplicate-free successors of
# ``x`` — the same invariant the snapshot format persists, so an mmap'd
# section is directly consumable.

#: Universe width above which giant-int bitmask rows (O(n) bytes *per
#: source*, O(n**2) total) are abandoned for machine-word CSR payloads.
#: At and below it the dense kernels win on constant factors; above it
#: they cannot even be allocated for sparse million-edge structures.
DENSE_WIDTH_THRESHOLD = 1 << 13


def csr_of_pairs(sources: Sequence[int], targets: Sequence[int], n: int
                 ) -> tuple[array, array]:
    """CSR from parallel source/target sequences by counting sort, with
    per-row dedup — one O(rows) pass plus one short sort per row, never a
    global sort and never a tuple set."""
    counts = array("q", bytes(8 * (n + 1)))
    for source in sources:
        counts[source + 1] += 1
    offsets = counts  # prefix-sum in place
    for index in range(1, n + 1):
        offsets[index] += offsets[index - 1]
    out = array("i", bytes(4 * len(targets)))
    cursor = list(offsets[:n])
    for source, target in zip(sources, targets):
        out[cursor[source]] = target
        cursor[source] += 1
    # Sort each row in place; the first duplicate forces a compacting
    # rebuild (re-sorting the already-sorted prefix is idempotent).
    for source in range(n):
        start, end = offsets[source], offsets[source + 1]
        if end - start > 1:
            row = sorted(set(out[start:end]))
            if len(row) != end - start:
                clean_offsets = array("q", bytes(8 * (n + 1)))
                clean_targets = array("i")
                for src in range(n):
                    lo, hi = offsets[src], offsets[src + 1]
                    if hi > lo:
                        clean_targets.extend(sorted(set(out[lo:hi])))
                    clean_offsets[src + 1] = len(clean_targets)
                return clean_offsets, clean_targets
            out[start:end] = array("i", row)
    return offsets, out


def csr_of_sparse(rows: dict, n: int) -> tuple[array, array]:
    """CSR from a sparse ``{source: set-of-targets}`` dict (the working
    form the chunked plan interpreter mutates)."""
    offsets = array("q", bytes(8 * (n + 1)))
    targets = array("i")
    for source in range(n):
        row = rows.get(source)
        if row:
            targets.extend(sorted(row))
        offsets[source + 1] = len(targets)
    return offsets, targets


def sparse_of_csr(offsets: Sequence[int], targets: Sequence[int]) -> dict:
    """Sparse ``{source: set-of-targets}`` dict of a CSR pair (absent
    sources have no successors)."""
    rows: dict[int, set[int]] = {}
    for source in range(len(offsets) - 1):
        start, end = offsets[source], offsets[source + 1]
        if end > start:
            rows[source] = set(targets[start:end])
    return rows


def iter_csr_rows(offsets: Sequence[int], targets: Sequence[int]
                  ) -> Iterator[tuple[int, int]]:
    """The pair rows of a CSR pair, in (source, target) order."""
    for source in range(len(offsets) - 1):
        for position in range(offsets[source], offsets[source + 1]):
            yield source, targets[position]


def csr_bytes(offsets: array, targets: array) -> int:
    """The structural byte footprint of a CSR pair (what the memory
    governor accounts)."""
    return (offsets.itemsize * len(offsets)
            + targets.itemsize * len(targets))


def transpose_csr(offsets: Sequence[int], targets: Sequence[int], n: int
                  ) -> tuple[array, array]:
    """The converse relation, by counting sort on the target column.
    Output rows come out sorted for free (sources are visited ascending)."""
    counts = array("q", bytes(8 * (n + 1)))
    for target in targets:
        counts[target + 1] += 1
    out_offsets = counts
    for index in range(1, n + 1):
        out_offsets[index] += out_offsets[index - 1]
    out_targets = array("i", bytes(4 * len(targets)))
    cursor = list(out_offsets[:n])
    for source in range(n):
        for position in range(offsets[source], offsets[source + 1]):
            target = targets[position]
            out_targets[cursor[target]] = source
            cursor[target] += 1
    return out_offsets, out_targets


def scc_csr(offsets: Sequence[int], targets: Sequence[int], n: int
            ) -> tuple[array, int]:
    """Strongly connected components of a CSR graph by iterative Tarjan.

    Returns ``(component, count)`` where ``component[x]`` is ``x``'s
    component id.  Ids are assigned in completion order, which for Tarjan
    is *reverse topological*: every edge crossing components goes from a
    higher id to a lower one, so a single ascending sweep visits each
    component after everything it reaches.
    """
    unvisited = -1
    index = [unvisited] * n
    low = [0] * n
    component = array("q", bytes(8 * n))
    stack: list[int] = []
    on_stack = bytearray(n)
    work: list[list[int]] = []  # [node, next-edge-position] frames
    counter = 0
    count = 0
    for root in range(n):
        if index[root] != unvisited:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work.append([root, offsets[root]])
        while work:
            frame = work[-1]
            node, position = frame
            end = offsets[node + 1]
            descended = False
            while position < end:
                successor = targets[position]
                position += 1
                seen = index[successor]
                if seen == unvisited:
                    frame[1] = position
                    index[successor] = low[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack[successor] = 1
                    work.append([successor, offsets[successor]])
                    descended = True
                    break
                if on_stack[successor] and seen < low[node]:
                    low[node] = seen
            if descended:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component[member] = count
                    if member == node:
                        break
                count += 1
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    return component, count


def _functional_csr(offsets: Sequence[int], targets: Sequence[int], n: int
                    ) -> tuple[array, array]:
    """The DTC reading: only out-degree-one sources keep their edge."""
    out_offsets = array("q", bytes(8 * (n + 1)))
    out_targets = array("i")
    for source in range(n):
        start, end = offsets[source], offsets[source + 1]
        if end - start == 1:
            out_targets.append(targets[start])
        out_offsets[source + 1] = len(out_targets)
    return out_offsets, out_targets


def closure_csr(offsets: Sequence[int], targets: Sequence[int], n: int,
                deterministic: bool = False, governor=None, stats=None
                ) -> tuple[array, array]:
    """The *reflexive* transitive closure of a CSR graph, via the SCC
    condensation: Tarjan numbers components in reverse topological order,
    one ascending sweep accumulates per-component reach sets (each from
    already-finished successors), and every node's output row is its
    component's expansion — shared across the component, built once with
    C-speed ``array.extend``.

    Memory is O(|closure| + n) words, never the dense ``n**2 / 8`` bits:
    the per-component reach sets are exactly the condensation's closure,
    which the output subsumes.  A ``governor`` gets ``check_rows_ahead``
    before the expansion is allocated and ``note_bytes`` as it grows; a
    ``stats`` (:class:`~repro.logic.plan.PlanStats`) records the peak
    working set.  (The kernel is not round-iterative, so a fixpoint-round
    budget does not constrain it; deadline and cancellation bite through
    ``tick`` between components.)
    """
    if deterministic:
        offsets, targets = _functional_csr(offsets, targets, n)
    component, count = scc_csr(offsets, targets, n)
    members: list[array] = [array("i") for _ in range(count)]
    for node in range(n):
        members[component[node]].append(node)
    successors: list[set[int]] = [set() for _ in range(count)]
    for source in range(n):
        own = component[source]
        row = successors[own]
        for position in range(offsets[source], offsets[source + 1]):
            other = component[targets[position]]
            if other != own:
                row.add(other)
    # Reach sets over the condensation, sinks first (ascending ids): every
    # successor component carries a smaller id, so its entry is final.
    reach: list = [None] * count
    for comp in range(count):
        row = {comp}
        for successor in successors[comp]:
            row |= reach[successor]
        reach[comp] = row
        if governor is not None:
            governor.tick(len(row))
    # Expansion: one shared target row per component.
    total = 0
    for comp in range(count):
        size = 0
        for reached in reach[comp]:
            size += len(members[reached])
        total += size * len(members[comp])
    if governor is not None:
        governor.check_rows_ahead(total)
    expansions: list[array] = []
    for comp in range(count):
        row = array("i")
        for reached in sorted(reach[comp]):
            row.extend(members[reached])
        buffer = array("i", sorted(row)) if len(reach[comp]) > 1 else row
        expansions.append(buffer)
        if governor is not None:
            governor.tick(len(buffer))
    out_offsets = array("q", bytes(8 * (n + 1)))
    out_targets = array("i", bytes(4 * total))
    position = 0
    for node in range(n):
        row = expansions[component[node]]
        width = len(row)
        out_targets[position:position + width] = row
        position += width
        out_offsets[node + 1] = position
    resident = csr_bytes(out_offsets, out_targets) + 4 * total
    if governor is not None:
        governor.note_bytes(resident)
    if stats is not None:
        stats.note_resident(rows=total, byte_count=resident)
    return out_offsets, out_targets


def reach_from_csr(offsets: Sequence[int], targets: Sequence[int], n: int,
                   source: int, governor=None) -> array:
    """The *reflexive* reach set of one source over a CSR graph, as a
    sorted ``array('i')`` — level-synchronized BFS with a byte-per-node
    visited array, one governor round per wave (the chunked analogue of
    :func:`reach_from`)."""
    seen = bytearray(n)
    seen[source] = 1
    reached = [source]
    frontier = [source]
    while frontier:
        if governor is not None:
            governor.note_round()
        step: list[int] = []
        for node in frontier:
            for position in range(offsets[node], offsets[node + 1]):
                target = targets[position]
                if not seen[target]:
                    seen[target] = 1
                    step.append(target)
        reached.extend(step)
        frontier = step
    return array("i", sorted(reached))
