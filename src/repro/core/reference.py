"""Seed-equivalent reference implementations, kept for differential testing
and for the perf-trajectory benchmarks.

The optimized value layer (cached canonical keys, linear-merge union,
sorted-input detection — see DESIGN.md) must agree *exactly* with the
original uncached algorithms.  This module keeps those originals as pure
functions that recompute everything from scratch on every call and share
no state with the runtime:

* :func:`value_key_reference` / :func:`value_sort_reference` — the seed's
  recursive key computation.  Property tests compare the cached keys
  against these on randomly generated nested values and random
  ``atom_order`` permutations.
* :func:`canonical_elements_reference` — a key-based set constructor,
  the oracle for ``SRLSet`` construction, ``insert``, ``union`` and
  membership.  It sorts as the seed did but deduplicates by reference key,
  where the seed used Python ``==`` and so merged ``true`` with ``1``; that
  departure from the seed is deliberate.
* :func:`value_size_reference` — the recursive ``value_size``.
* :func:`choose_reference` / :func:`rest_reference` — brute-force scans for
  the key minimum.

There is no switch that routes the runtime through these: a differential
test or benchmark calls them side by side with the optimized paths.
Nothing in the production code path imports this module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import SRLRuntimeError
from .values import Atom, SRLList, SRLSet, SRLTuple

__all__ = [
    "value_key_reference",
    "value_sort_reference",
    "canonical_elements_reference",
    "value_size_reference",
    "choose_reference",
    "rest_reference",
]


def value_key_reference(value: "Value", atom_order: Sequence[int] | None = None):
    """The seed's :func:`~repro.core.values.value_key`: a full recursive
    recomputation with no caching.  Used as the differential oracle for the
    cached keys."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, int):
        return (1, value)
    if isinstance(value, Atom):
        rank = value.rank if atom_order is None else atom_order[value.rank]
        return (2, rank)
    if isinstance(value, SRLTuple):
        return (3, len(value), tuple(value_key_reference(v, atom_order) for v in value))
    if isinstance(value, SRLSet):
        ordered = (
            value.elements
            if atom_order is None
            else tuple(sorted(value.elements,
                              key=lambda v: value_key_reference(v, atom_order)))
        )
        return (4, len(ordered), tuple(value_key_reference(v, atom_order) for v in ordered))
    if isinstance(value, SRLList):
        return (5, len(value.items),
                tuple(value_key_reference(v, atom_order) for v in value.items))
    raise SRLRuntimeError(f"not an SRL value: {value!r}")


def value_sort_reference(values: Iterable["Value"],
                         atom_order: Sequence[int] | None = None) -> list["Value"]:
    """Sort by the recomputed reference key."""
    return sorted(values, key=lambda v: value_key_reference(v, atom_order))


def canonical_elements_reference(elements: Iterable["Value"]) -> tuple["Value", ...]:
    """Key-based reference set constructor: drop elements whose reference
    key was already seen, then sort by that key.  The sort is the seed's;
    the deduplication deliberately is not.  The seed deduplicated by Python
    ``==``, which merged ``true`` and ``1``; by key they stay distinct, as
    SRL's kinds are."""
    unique = {}
    for element in elements:
        unique.setdefault(value_key_reference(element), element)
    return tuple(unique[key] for key in sorted(unique))


def value_size_reference(value: "Value") -> int:
    """The seed's :func:`~repro.core.values.value_size`: a full recursive
    sum with no memoization."""
    if isinstance(value, (bool, Atom)):
        return 1
    if isinstance(value, int):
        return max(1, value.bit_length())
    if isinstance(value, SRLTuple):
        return sum(value_size_reference(v) for v in value)
    if isinstance(value, SRLSet):
        return 1 + sum(value_size_reference(v) for v in value.elements)
    if isinstance(value, SRLList):
        return 1 + sum(value_size_reference(v) for v in value.items)
    raise SRLRuntimeError(f"not an SRL value: {value!r}")


def choose_reference(value: SRLSet, atom_order: Sequence[int] | None = None) -> "Value":
    """Brute-force ``choose``: scan every element for the key minimum."""
    if value.is_empty():
        raise SRLRuntimeError("choose applied to the empty set")
    return min(value.elements, key=lambda v: value_key_reference(v, atom_order))


def rest_reference(value: SRLSet, atom_order: Sequence[int] | None = None) -> SRLSet:
    """Brute-force ``rest``: rebuild the set without the key minimum.
    Elements are compared by reference key, not by ``==``, for the same
    reason as in :func:`canonical_elements_reference`."""
    minimum = value_key_reference(choose_reference(value, atom_order), atom_order)
    return SRLSet([v for v in value.elements
                   if value_key_reference(v, atom_order) != minimum])
